//! Throughput-search and SLO-check tests of the bench harness.
//!
//! Each runs whole simulations, which take minutes in a debug build,
//! so they are ignored there; run them with
//! `cargo test --release -p accelflow-bench --test throughput_search`.

use accelflow_bench::harness::{
    machine_config, max_throughput_with, meets_slo, run_poisson, unloaded_means, Scale,
};
use accelflow_core::policy::Policy;
use accelflow_workloads::socialnetwork;

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn slo_check_enforces_p99() {
    let services = vec![socialnetwork::uniq_id()];
    let unloaded = unloaded_means(Policy::AccelFlow, &services, 1);
    let light = run_poisson(Policy::AccelFlow, &services, 500.0, Scale::quick());
    assert!(
        meets_slo(&light, &unloaded, 5.0),
        "light load must meet SLO"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn throughput_search_orders_policies() {
    // A deliberately tiny machine (2 cores, 1 PE/accelerator) keeps
    // the search cheap while preserving the ordering.
    let services = vec![socialnetwork::uniq_id()];
    let mk = |policy| {
        let mut cfg = machine_config(policy, Scale::quick());
        cfg.arch.cores = 2;
        cfg.arch.pes_per_accelerator = 1;
        cfg
    };
    let af = max_throughput_with(&mk(Policy::AccelFlow), &services, 5.0, 3);
    let non = max_throughput_with(&mk(Policy::NonAcc), &services, 5.0, 3);
    assert!(af > non * 1.5, "AccelFlow {af} must beat Non-acc {non}");
}
