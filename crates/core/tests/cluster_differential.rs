//! Cluster↔machine differential snapshots.
//!
//! The cluster drives N machines from one shared outer kernel through
//! per-node scratch queues (`docs/CLUSTER.md`). The contract that
//! makes the composition trustworthy: a **one-node cluster over a
//! zero-cost link is byte-identical to a bare [`Machine`]** — same
//! events, same timestamps, same delivery order — for every policy and
//! every balancer, and turning keep-alive polling on must not perturb
//! any node's stream (health ticks ride the outer queue only).
//!
//! The fixture duplicates `golden_events.rs` nominal runs, and the
//! bare-machine side re-asserts that suite's pinned hashes, so these
//! tests chain the cluster back to the original pre-refactor goldens.
//! A four-node fleet hash per balancer pins placement itself; recapture
//! it (only for a deliberate model change) with:
//!
//! ```text
//! GOLDEN_EVENTS_PRINT=1 cargo test -p accelflow-core --test cluster_differential -- --nocapture
//! ```

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_arch::config::ArchConfig;
use accelflow_core::cluster::{BalancerKind, Cluster, ClusterConfig, NodeLink};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_core::request::{CallSpec, CyclesDist, ServiceSpec, StageSpec};
use accelflow_core::{poisson_arrivals, Arrival, FaultClass, FaultConfig};
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::{TemplateId, TraceLibrary};

/// FNV-1a over the bytes of one rendered event line.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The golden_events.rs fixture, verbatim.
fn services() -> Vec<ServiceSpec> {
    let mut simple = ServiceSpec::new(
        "Simple",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            StageSpec::Cpu(CyclesDist::new(40_000.0, 0.2)),
            StageSpec::Call(CallSpec::new(TemplateId::T2)),
        ],
    );
    let mut with_db = ServiceSpec::new(
        "WithDb",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            StageSpec::Cpu(CyclesDist::new(30_000.0, 0.2)),
            StageSpec::Call(CallSpec::new(TemplateId::T4)),
            StageSpec::Cpu(CyclesDist::new(20_000.0, 0.2)),
            StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 2]),
            StageSpec::Call(CallSpec::new(TemplateId::T2)),
        ],
    );
    simple.slo_slack = Some(1.2);
    with_db.slo_slack = Some(1.2);
    vec![simple, with_db]
}

fn arrivals(rps: f64, millis: u64, seed: u64) -> Vec<Arrival> {
    let lib = TraceLibrary::standard();
    let timing = ServiceTimeModel::calibrated(ArchConfig::icelake().core_clock);
    poisson_arrivals(
        &services(),
        &lib,
        &timing,
        rps,
        SimDuration::from_millis(millis),
        seed,
    )
}

/// The golden_events.rs nominal machine config.
fn nominal_cfg(policy: Policy) -> MachineConfig {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(2);
    cfg.arch.pes_per_accelerator = 2;
    cfg.speedup_scale = 0.25;
    cfg.audit = false;
    cfg.telemetry = false;
    cfg
}

const MILLIS: u64 = 30;
const RPS: f64 = 6_000.0;
const SEED: u64 = 11;

/// Bare-machine nominal stream hash (must match golden_events.rs).
fn machine_hash(policy: Policy) -> (u64, u64) {
    let mut hash = FNV_OFFSET;
    let mut events = 0u64;
    let report = Machine::run_arrivals_observed(
        &nominal_cfg(policy),
        &services(),
        arrivals(RPS, MILLIS, SEED),
        SimDuration::from_millis(MILLIS),
        SEED,
        |now, ev| {
            events += 1;
            fnv1a(&mut hash, format!("{now:?}|{ev:?}\n").as_bytes());
        },
    );
    assert!(report.offered() > 0, "workload produced no load");
    (hash, events)
}

/// One-node zero-link cluster stream hash over the same fixture. Node
/// ids are omitted from the rendering (they are all 0 here) so the
/// lines are comparable to the bare machine's byte for byte.
fn cluster_hash(policy: Policy, tweak: impl FnOnce(&mut ClusterConfig)) -> (u64, u64) {
    let mut cfg = ClusterConfig::new(1, nominal_cfg(policy));
    cfg.link = NodeLink::zero();
    tweak(&mut cfg);
    let mut hash = FNV_OFFSET;
    let mut events = 0u64;
    let report = Cluster::run_arrivals_observed(
        &cfg,
        &services(),
        arrivals(RPS, MILLIS, SEED),
        SimDuration::from_millis(MILLIS),
        SEED,
        |now, node, ev| {
            assert_eq!(node, 0);
            events += 1;
            fnv1a(&mut hash, format!("{now:?}|{ev:?}\n").as_bytes());
        },
    );
    assert!(report.offered() > 0, "workload produced no load");
    assert_eq!(report.clamped, 0, "outer kernel must never clamp");
    (hash, events)
}

/// Policies spanning every orchestration family, with the nominal
/// hashes pinned by golden_events.rs — re-asserted here so the
/// differential chains back to the original goldens rather than to
/// whatever the machine currently does.
const PINNED: &[(Policy, u64)] = &[
    (Policy::AccelFlow, 0x5e7b620c65f26463),
    (Policy::Relief, 0x8f79795ee8369aee),
    (Policy::NonAcc, 0x010792f6d58620f1),
    (Policy::CpuCentric, 0x71a518de6ac93f3d),
];

#[test]
fn one_node_zero_link_cluster_matches_bare_machine_for_every_balancer() {
    for &(policy, golden) in PINNED {
        let (bare, bare_events) = machine_hash(policy);
        assert_eq!(
            bare, golden,
            "{policy}: bare machine drifted from the golden stream"
        );
        for kind in BalancerKind::ALL {
            let (clustered, cluster_events) = cluster_hash(policy, |cfg| cfg.balancer = kind);
            assert_eq!(
                cluster_events, bare_events,
                "{policy}/{kind}: event counts diverged"
            );
            assert_eq!(
                clustered, bare,
                "{policy}/{kind}: one-node cluster stream is not byte-identical"
            );
        }
    }
}

/// Four-node datacenter-link fleet stream hash for one balancer: every
/// node's events, tagged with the node id, folded into one hash. Unlike
/// the one-node differential, placement decides which node sees which
/// arrival, so this pins each balancer's choices end to end.
fn fleet_hash(balancer: BalancerKind) -> (u64, u64) {
    let mut cfg = ClusterConfig::new(4, nominal_cfg(Policy::AccelFlow));
    cfg.link = NodeLink::datacenter();
    cfg.balancer = balancer;
    let mut hash = FNV_OFFSET;
    let mut events = 0u64;
    let report = Cluster::run_arrivals_observed(
        &cfg,
        &services(),
        arrivals(RPS, MILLIS, SEED),
        SimDuration::from_millis(MILLIS),
        SEED,
        |now, node, ev| {
            events += 1;
            fnv1a(&mut hash, format!("{now:?}|{node}|{ev:?}\n").as_bytes());
        },
    );
    assert!(report.offered() > 0, "workload produced no load");
    assert_eq!(report.clamped, 0, "outer kernel must never clamp");
    (hash, events)
}

/// `(balancer, four-node fleet stream hash)`, captured on the
/// trait-object balancers before placement became one `match`.
const FLEET_PINNED: &[(BalancerKind, u64)] = &[
    (BalancerKind::RoundRobin, 0xbce11e0274463d3d),
    (BalancerKind::WeightedRandom, 0x717943f74d7420e6),
    (BalancerKind::LeastLoaded, 0x20d71b8dec723dbf),
    (BalancerKind::LocalityAware, 0x3b360dd803915bb2),
];

#[test]
fn four_node_fleet_streams_match_pinned_hashes() {
    let print = std::env::var("GOLDEN_EVENTS_PRINT").is_ok();
    let mut failures = Vec::new();
    let mut seen = Vec::new();
    for &(kind, pinned) in FLEET_PINNED {
        let (h, events) = fleet_hash(kind);
        assert!(events > 1_000, "{kind}: fleet stream too thin");
        if print {
            println!("    (BalancerKind::{kind:?}, {h:#018x}),");
        }
        if h != pinned {
            failures.push(format!(
                "{kind}: fleet stream hash {h:#018x} != pinned {pinned:#018x}"
            ));
        }
        seen.push(h);
    }
    assert!(
        failures.is_empty(),
        "fleet streams drifted from the pinned hashes:\n{}",
        failures.join("\n")
    );
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), FLEET_PINNED.len(), "balancer streams collided");
}

#[test]
fn keepalive_polling_never_perturbs_node_streams() {
    // Health ticks are outer-kernel events: they consume outer
    // sequence numbers but deliver nothing to any machine, so the
    // node-observed stream must still hash to the bare golden.
    let (bare, _) = machine_hash(Policy::AccelFlow);
    let (polled, _) = cluster_hash(Policy::AccelFlow, |cfg| {
        cfg.keepalive = Some(SimDuration::from_micros(250));
    });
    assert_eq!(polled, bare, "keep-alive ticks leaked into a node stream");
}

#[test]
fn cluster_runs_are_reproducible_and_nodes_decorrelated() {
    // Same seed twice: byte-identical fleet streams. And per-node
    // seeds differ, so two nodes fed identical configs must not
    // produce identical streams (service-time draws are per-node).
    let run = || {
        let mut cfg = ClusterConfig::new(2, nominal_cfg(Policy::AccelFlow));
        cfg.link = NodeLink::zero();
        let mut hashes = [FNV_OFFSET; 2];
        let mut events = [0u64; 2];
        Cluster::run_arrivals_observed(
            &cfg,
            &services(),
            arrivals(RPS, 10, SEED),
            SimDuration::from_millis(10),
            SEED,
            |now, node, ev| {
                events[node as usize] += 1;
                fnv1a(
                    &mut hashes[node as usize],
                    format!("{now:?}|{ev:?}\n").as_bytes(),
                );
            },
        );
        (hashes, events)
    };
    let (a, ea) = run();
    let (b, eb) = run();
    assert_eq!(a, b, "same-seed cluster runs must be byte-identical");
    assert_eq!(ea, eb);
    assert!(
        ea[0] > 100 && ea[1] > 100,
        "both nodes must see work: {ea:?}"
    );
    assert_ne!(a[0], a[1], "per-node streams must be decorrelated");
}

#[test]
fn stalled_nodes_are_suspended_and_work_relocates() {
    // Aggressive accelerator stalls + a fast keep-alive: the poll must
    // observe dark stations (suspensions), route arrivals away from
    // suspended nodes (relocations), and see stall windows expire
    // (recoveries). This is the cluster-level mirror of the machine's
    // own fault recovery, driven end to end.
    // ~1.5 stalls/ms at ~400 µs mean dark time ≈ 0.6 dark stations in
    // steady state: each node oscillates between healthy and suspended
    // instead of going permanently dark (which would leave no healthy
    // relocation target and no recoveries to count).
    let mut node = nominal_cfg(Policy::AccelFlow);
    node.faults = {
        let mut f = FaultConfig::only(FaultClass::AccelStall, 1.5);
        f.stall_duration = SimDuration::from_micros(400);
        f
    };
    let mut cfg = ClusterConfig::new(2, node);
    cfg.link = NodeLink::datacenter();
    cfg.keepalive = Some(SimDuration::from_micros(100));
    cfg.suspend_dark_stations = 1;
    let report = Cluster::run_arrivals(
        &cfg,
        &services(),
        arrivals(RPS, 10, SEED),
        SimDuration::from_millis(10),
        SEED,
    );
    assert!(report.health.polls > 50, "polls = {}", report.health.polls);
    assert!(
        report.health.suspensions > 0,
        "stall windows never suspended a node: {:?}",
        report.health
    );
    assert!(
        report.health.recoveries > 0,
        "suspended nodes never recovered: {:?}",
        report.health
    );
    assert!(
        report.health.relocations > 0,
        "no work was routed around a suspended node: {:?}",
        report.health
    );
    assert!(
        report.completion_ratio() > 0.5,
        "fleet collapsed under stalls: {}",
        report.completion_ratio()
    );
}
