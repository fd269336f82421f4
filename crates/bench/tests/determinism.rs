//! The parallel harness's determinism contract: fanning simulations
//! across sweep workers must produce results bit-for-bit identical to
//! a sequential loop, because parallelism exists only *across*
//! simulations — each simulation still runs single-threaded with its
//! own seeded RNG.
//!
//! `RunReport` doesn't implement `PartialEq`, so reports are compared
//! through their full `Debug` rendering, which covers every counter,
//! histogram bucket, and timestamp a run produces.
//!
//! The two throughput-search tests take most of a minute in a debug
//! build, so they are ignored there; run them with
//! `cargo test --release -p accelflow-bench --test determinism`.

use accelflow_bench::harness::{self, Scale};
use accelflow_bench::sweep;
use accelflow_core::policy::Policy;
use accelflow_core::stats::RunReport;
use accelflow_workloads::socialnetwork;

/// All (policy × seed) simulation cells of the test matrix.
fn cells() -> Vec<(Policy, u64)> {
    let policies = [Policy::AccelFlow, Policy::Relief];
    let seeds = [7u64, 42, 1234];
    policies
        .iter()
        .flat_map(|&p| seeds.iter().map(move |&s| (p, s)))
        .collect()
}

fn run_cell(policy: Policy, seed: u64) -> RunReport {
    let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
    let mut scale = Scale::quick();
    scale.seed = seed;
    harness::run_poisson(policy, &services, 1_500.0, scale)
}

fn render(reports: &[RunReport]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn parallel_sweep_reports_are_byte_identical_to_sequential() {
    // Sequential reference: a plain loop, no sweep involved.
    let sequential: Vec<RunReport> = cells().into_iter().map(|(p, s)| run_cell(p, s)).collect();

    // The sweep path. Whatever ACCELFLOW_THREADS says, this exercises
    // the worker fan-out machinery (order restoration, slot handoff);
    // on a multi-core box it also exercises true concurrency.
    let swept = sweep::map(cells(), |(p, s)| run_cell(p, s));

    let seq = render(&sequential);
    let par = render(&swept);
    assert_eq!(seq.len(), par.len());
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(a, b, "cell {i} diverged between sequential and sweep");
    }
}

#[test]
fn repeated_sweeps_are_stable() {
    // Two sweeps of the same matrix must agree with each other —
    // catches any hidden shared mutable state across simulations
    // (memoized libraries handed out by reference, RNG leakage...).
    let first = render(&sweep::map(cells(), |(p, s)| run_cell(p, s)));
    let second = render(&sweep::map(cells(), |(p, s)| run_cell(p, s)));
    assert_eq!(first, second);
}

#[test]
fn fault_injection_is_sweep_invariant() {
    // Same-seed fault runs must stay byte-identical when fanned across
    // sweep workers: the injector owns its own seeded RNG stream, so
    // neither worker count nor execution order may leak into a run.
    use accelflow_core::machine::Machine;
    use accelflow_core::FaultConfig;
    let run_faulty = |(policy, seed): (Policy, u64)| {
        let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
        let mut cfg = harness::machine_config(policy, Scale::quick());
        cfg.faults = FaultConfig::uniform(10.0);
        Machine::run_workload(&cfg, &services, 1_500.0, Scale::quick().duration, seed)
    };
    let sequential: Vec<RunReport> = cells().into_iter().map(run_faulty).collect();
    let swept = sweep::map(cells(), run_faulty);
    assert_eq!(render(&sequential), render(&swept));
    // The faults actually fired (otherwise this proves nothing).
    assert!(sequential.iter().all(|r| r.faults.injected() > 0));
}

#[test]
fn cluster_sweeps_are_byte_identical_to_sequential() {
    // Cluster runs fan out the same way machine runs do: every cell is
    // a pure function of (nodes, balancer, seed), so the sweep must
    // reproduce the sequential loop byte for byte — including the
    // balancers' placement decisions (the round-robin cursor and the
    // dispatcher's weighted-random draws live inside the run, never in
    // worker state).
    use accelflow_core::cluster::{BalancerKind, Cluster, ClusterConfig, ClusterReport};
    fn cluster_cells() -> Vec<(usize, BalancerKind, u64)> {
        let mut cells = Vec::new();
        for nodes in [1usize, 3] {
            for balancer in BalancerKind::ALL {
                cells.push((nodes, balancer, 7u64));
            }
        }
        cells
    }
    fn run_cluster(nodes: usize, balancer: BalancerKind, seed: u64) -> ClusterReport {
        let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
        let scale = Scale::quick();
        let mut cfg = ClusterConfig::new(nodes, harness::machine_config(Policy::AccelFlow, scale));
        cfg.balancer = balancer;
        cfg.keepalive = Some(accelflow_sim::time::SimDuration::from_micros(200));
        Cluster::run_workload(&cfg, &services, 1_000.0, scale.duration, seed)
    }
    let sequential: Vec<String> = cluster_cells()
        .into_iter()
        .map(|(n, b, s)| format!("{:?}", run_cluster(n, b, s)))
        .collect();
    let swept: Vec<String> = sweep::map(cluster_cells(), |(n, b, s)| run_cluster(n, b, s))
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    assert_eq!(sequential.len(), swept.len());
    for (i, (a, b)) in sequential.iter().zip(&swept).enumerate() {
        assert_eq!(
            a, b,
            "cluster cell {i} diverged between sequential and sweep"
        );
    }
}

#[test]
fn openloop_generators_are_seed_deterministic() {
    // Every arrival generator must produce a byte-identical stream for
    // a fixed seed — the open-loop engine's whole determinism contract
    // (docs/WORKLOADS.md) rests on this.
    use accelflow_accel::timing::ServiceTimeModel;
    use accelflow_arch::config::ArchConfig;
    use accelflow_sim::time::SimDuration;
    use accelflow_trace::templates::TraceLibrary;
    use accelflow_workloads::openloop::{
        openloop_arrivals, ArrivalProcess, ColdStartStorm, CorrelatedBursts, Diurnal, FlashCrowd,
        Steady,
    };

    let dur = SimDuration::from_millis(20);
    let generators: Vec<Box<dyn ArrivalProcess>> = vec![
        Box::new(Steady),
        Box::new(Diurnal::day(dur, 0.8)),
        Box::new(FlashCrowd::for_run(dur, 6.0)),
        Box::new(CorrelatedBursts::alibaba(dur, 5)),
        Box::new(ColdStartStorm::azure(dur, 5)),
    ];
    let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
    let lib = TraceLibrary::standard();
    let timing = ServiceTimeModel::calibrated(ArchConfig::icelake().core_clock);
    let stream = |g: &dyn ArrivalProcess, seed: u64| {
        format!(
            "{:?}",
            openloop_arrivals(g, &services, &lib, &timing, 2_000.0, dur, seed)
        )
    };
    let mut fingerprints = Vec::new();
    for g in &generators {
        let a = stream(g.as_ref(), 7);
        let b = stream(g.as_ref(), 7);
        assert_eq!(a, b, "{}: same seed must be byte-identical", g.name());
        let c = stream(g.as_ref(), 8);
        assert_ne!(a, c, "{}: different seed must differ", g.name());
        fingerprints.push(a);
    }
    // Distinct generators shape distinct streams (otherwise the
    // gallery proves nothing).
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), generators.len());
}

#[test]
fn openloop_sweeps_are_thread_count_invariant() {
    // An open-loop scenario sweep (the stats_openloop shape: generator
    // feeding a controlled machine) must render identically at any
    // worker count.
    use accelflow_accel::timing::ServiceTimeModel;
    use accelflow_arch::config::ArchConfig;
    use accelflow_core::control::{AutoscalerConfig, RateLimit};
    use accelflow_core::machine::Machine;
    use accelflow_sim::time::SimDuration;
    use accelflow_trace::templates::TraceLibrary;
    use accelflow_workloads::openloop::{openloop_arrivals, Diurnal, FlashCrowd};

    let run_cell = |(flash, seed): (bool, u64)| {
        let services = vec![socialnetwork::uniq_id(), socialnetwork::login()];
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(ArchConfig::icelake().core_clock);
        let dur = SimDuration::from_millis(10);
        let arrivals = if flash {
            openloop_arrivals(
                &FlashCrowd::for_run(dur, 5.0),
                &services,
                &lib,
                &timing,
                2_000.0,
                dur,
                seed,
            )
        } else {
            openloop_arrivals(
                &Diurnal::day(dur, 0.7),
                &services,
                &lib,
                &timing,
                2_000.0,
                dur,
                seed,
            )
        };
        let mut cfg = harness::machine_config(Policy::AccelFlow, Scale::quick());
        cfg.instances_per_accel = 2;
        cfg.control.rate_limit = Some(RateLimit {
            tokens_per_sec: 1_800.0,
            burst: 16.0,
        });
        cfg.control.autoscaler = Some(AutoscalerConfig::reactive());
        Machine::run_arrivals(&cfg, &services, arrivals, dur, seed)
    };
    let cells = vec![(false, 7u64), (true, 7), (false, 42), (true, 42)];
    let with_threads = |n: &str| {
        std::env::set_var("ACCELFLOW_THREADS", n);
        let out = render(&sweep::map(cells.clone(), run_cell));
        std::env::remove_var("ACCELFLOW_THREADS");
        out
    };
    let seq = with_threads("1");
    let par = with_threads("4");
    assert_eq!(seq, par, "open-loop sweep depends on thread count");
    // The control path actually engaged.
    let swept = sweep::map(cells, run_cell);
    assert!(swept.iter().all(|r| r.control.admitted > 0));
}

#[test]
fn sharded_sweep_is_byte_identical_to_unsharded() {
    // Process sharding (`docs/CHECKPOINT.md`): each shard runs a
    // contiguous slice of the grid, and concatenating the shards'
    // results in shard order must reproduce the unsharded sweep byte
    // for byte — same original indices, same rendered reports.
    let whole: Vec<(usize, String)> = sweep::map_sharded(cells(), |(p, s)| run_cell(p, s))
        .into_iter()
        .map(|(i, r)| (i, format!("{r:?}")))
        .collect();
    assert_eq!(whole.len(), cells().len());

    let mut stitched: Vec<(usize, String)> = Vec::new();
    std::env::set_var("ACCELFLOW_SHARDS", "3");
    for index in 0..3 {
        std::env::set_var("ACCELFLOW_SHARD_INDEX", index.to_string());
        stitched.extend(
            sweep::map_sharded(cells(), |(p, s)| run_cell(p, s))
                .into_iter()
                .map(|(i, r)| (i, format!("{r:?}"))),
        );
    }
    std::env::remove_var("ACCELFLOW_SHARDS");
    std::env::remove_var("ACCELFLOW_SHARD_INDEX");

    assert_eq!(
        whole, stitched,
        "three concatenated shards diverged from the unsharded sweep"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn warm_started_search_matches_cold() {
    // The throughput search's shared-prefix warm start (fork N restored
    // snapshot copies) must land on exactly the probes — and the exact
    // result — of the cold mode that re-simulates the prefix per probe.
    let services = vec![socialnetwork::uniq_id()];
    let mk = || {
        let mut cfg = harness::machine_config(Policy::AccelFlow, Scale::quick());
        cfg.arch.cores = 2;
        cfg.arch.pes_per_accelerator = 1;
        cfg
    };
    let warm = harness::max_throughput_with_mode(&mk(), &services, 5.0, 3, true);
    let cold = harness::max_throughput_with_mode(&mk(), &services, 5.0, 3, false);
    assert_eq!(
        warm, cold,
        "warm-started search diverged from the cold baseline"
    );
    assert!(warm > 0.0, "search found no sustainable load");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
fn throughput_search_is_thread_count_invariant() {
    // Figures with several throughput searches send them through one
    // sweep, a search per worker; the results must not depend on how
    // many workers ran them.
    let services = vec![socialnetwork::uniq_id()];
    let search = |policy| {
        let mut cfg = harness::machine_config(policy, Scale::quick());
        cfg.arch.cores = 2;
        cfg.arch.pes_per_accelerator = 1;
        harness::max_throughput_with(&cfg, &services, 5.0, 3)
    };
    let with_threads = |n: &str| {
        std::env::set_var("ACCELFLOW_THREADS", n);
        let r = sweep::map(vec![Policy::AccelFlow, Policy::NonAcc], search);
        std::env::remove_var("ACCELFLOW_THREADS");
        r
    };
    let seq = with_threads("1");
    let par = with_threads("4");
    assert_eq!(seq, par, "search results must not depend on thread count");
}
