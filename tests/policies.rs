//! Cross-crate integration tests of the orchestration policies: the
//! paper's qualitative results must hold at test scale.

use accelflow::core::{Machine, MachineConfig, Policy};
use accelflow::sim::SimDuration;
use accelflow::trace::templates::TraceLibrary;
use accelflow::workloads::arrivals::{bursty_arrivals, BurstyProfile};
use accelflow::workloads::socialnetwork;

fn services() -> Vec<accelflow::core::ServiceSpec> {
    vec![
        socialnetwork::uniq_id(),
        socialnetwork::login(),
        socialnetwork::read_home_timeline(),
    ]
}

fn shared_arrivals(rps: f64, ms: u64) -> Vec<accelflow::core::Arrival> {
    let lib = TraceLibrary::standard();
    bursty_arrivals(
        &services(),
        &lib,
        rps,
        SimDuration::from_millis(ms),
        77,
        &BurstyProfile::alibaba_like(),
    )
}

fn run(
    policy: Policy,
    arrivals: Vec<accelflow::core::Arrival>,
    ms: u64,
) -> accelflow::core::RunReport {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(2);
    Machine::run_arrivals(
        &cfg,
        &services(),
        arrivals,
        SimDuration::from_millis(ms),
        77,
    )
}

#[test]
fn every_policy_completes_a_bursty_workload() {
    let arrivals = shared_arrivals(800.0, 30);
    assert!(arrivals.len() > 30);
    for policy in [
        Policy::NonAcc,
        Policy::CpuCentric,
        Policy::Relief,
        Policy::ReliefPerTypeQ,
        Policy::Direct,
        Policy::CntrFlow,
        Policy::Cohort,
        Policy::AccelFlow,
        Policy::AccelFlowDeadline,
        Policy::Ideal,
    ] {
        let r = run(policy, arrivals.clone(), 30);
        assert!(
            r.completion_ratio() > 0.98,
            "{policy}: completion {}",
            r.completion_ratio()
        );
        assert!(r.aggregate_latency().count() > 0, "{policy}");
    }
}

#[test]
fn accelflow_beats_the_baselines_and_tracks_ideal() {
    let arrivals = shared_arrivals(3_000.0, 40);
    let p99 = |policy: Policy| {
        run(policy, arrivals.clone(), 40)
            .aggregate_latency()
            .percentile(99.0) as f64
    };
    let af = p99(Policy::AccelFlow);
    let ideal = p99(Policy::Ideal);
    let relief = p99(Policy::Relief);
    let non = p99(Policy::NonAcc);
    assert!(
        af <= ideal * 1.35,
        "AccelFlow {af} must track Ideal {ideal}"
    );
    assert!(af < relief, "AccelFlow {af} vs RELIEF {relief}");
    assert!(af < non, "AccelFlow {af} vs Non-acc {non}");
}

#[test]
fn orchestration_cost_ordering() {
    // Per-request orchestration time: AccelFlow (dispatchers) must be
    // orders of magnitude below the manager- and core-driven designs.
    let arrivals = shared_arrivals(500.0, 30);
    let orch = |policy: Policy| {
        let r = run(policy, arrivals.clone(), 30);
        r.total_breakdown().orchestration.as_secs_f64() / r.completed().max(1) as f64
    };
    let af = orch(Policy::AccelFlow);
    let relief = orch(Policy::Relief);
    let cpu = orch(Policy::CpuCentric);
    assert!(af * 10.0 < relief, "AF {af} vs RELIEF {relief}");
    assert!(af * 10.0 < cpu, "AF {af} vs CPU-Centric {cpu}");
}

#[test]
fn common_random_numbers_make_policies_comparable() {
    let arrivals = shared_arrivals(1_000.0, 25);
    let a = run(Policy::AccelFlow, arrivals.clone(), 25);
    let b = run(Policy::Relief, arrivals.clone(), 25);
    assert_eq!(a.offered(), b.offered());
    // And the same policy twice is bit-identical.
    let c = run(Policy::AccelFlow, arrivals, 25);
    assert_eq!(
        a.aggregate_latency().percentile(99.0),
        c.aggregate_latency().percentile(99.0)
    );
    assert_eq!(a.totals.dispatcher_instrs, c.totals.dispatcher_instrs);
    assert_eq!(a.totals.atm_reads, c.totals.atm_reads);
}

#[test]
fn chiplet_and_interchiplet_sensitivity_directions() {
    let arrivals = shared_arrivals(1_500.0, 30);
    let p99_at = |chiplets: usize, cycles: f64| {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(2);
        cfg.chiplets = chiplets;
        cfg.arch.inter_chiplet_cycles = cycles;
        Machine::run_arrivals(
            &cfg,
            &services(),
            arrivals.clone(),
            SimDuration::from_millis(30),
            77,
        )
        .aggregate_latency()
        .mean()
    };
    let base = p99_at(2, 60.0);
    let six = p99_at(6, 60.0);
    let six_slow = p99_at(6, 100.0);
    assert!(
        six >= base,
        "more chiplets cannot be faster: {six} vs {base}"
    );
    assert!(
        six_slow >= six,
        "slower links cannot be faster: {six_slow} vs {six}"
    );
}

#[test]
fn fewer_pes_increase_latency_and_fallbacks() {
    let arrivals = shared_arrivals(55_000.0, 30);
    let run_pes = |pes: usize| {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(2);
        cfg.arch.pes_per_accelerator = pes;
        Machine::run_arrivals(
            &cfg,
            &services(),
            arrivals.clone(),
            SimDuration::from_millis(30),
            77,
        )
    };
    let eight = run_pes(8);
    let two = run_pes(2);
    // The mean isolates accelerator queueing from the workload's
    // intrinsic straggler tail.
    assert!(
        two.aggregate_latency().mean() > eight.aggregate_latency().mean() * 1.02,
        "2 PEs must be slower: {} vs {}",
        two.aggregate_latency().mean(),
        eight.aggregate_latency().mean()
    );
    assert!(
        two.totals.fallbacks + two.totals.overflows
            >= eight.totals.fallbacks + eight.totals.overflows,
        "2 PEs must overflow at least as much"
    );
}

#[test]
fn speedup_scaling_direction() {
    let arrivals = shared_arrivals(1_000.0, 25);
    let mean_at = |scale: f64| {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(2);
        cfg.speedup_scale = scale;
        Machine::run_arrivals(
            &cfg,
            &services(),
            arrivals.clone(),
            SimDuration::from_millis(25),
            77,
        )
        .aggregate_latency()
        .mean()
    };
    let slow = mean_at(0.25);
    let base = mean_at(1.0);
    let fast = mean_at(4.0);
    assert!(slow > base, "0.25x accelerators must be slower");
    assert!(fast < base, "4x accelerators must be faster");
}
