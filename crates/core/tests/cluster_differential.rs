//! Fleet event-stream pins.
//!
//! The cluster drives N machines from one shared outer kernel, each
//! node scheduling through a sink into it (`docs/CLUSTER.md`). A bare
//! machine run *is* a one-node fleet over a zero-cost link, so there
//! is no second implementation left to diff against; instead these
//! tests pin fleet streams to constants:
//!
//! - a one-node zero-link fleet reproduces `golden_events.rs`'s
//!   nominal and fault streams under every balancer;
//! - keep-alive polling never perturbs a node's stream (health ticks
//!   ride the outer queue only);
//! - same-instant arrivals keep their pinned admission order;
//! - a four-node fleet hash per balancer pins placement itself.
//!
//! Recapture (only for a deliberate model change) with:
//!
//! ```text
//! GOLDEN_EVENTS_PRINT=1 cargo test -p accelflow-core --test cluster_differential -- --nocapture
//! ```

mod common;

use accelflow_core::cluster::{BalancerKind, Cluster, ClusterConfig, NodeLink};
use accelflow_core::policy::Policy;
use accelflow_core::{Arrival, FaultClass, FaultConfig};
use accelflow_sim::time::SimDuration;

use common::{
    arrivals, fault, fleet_hash, fnv1a, nominal, nominal_cfg, services, Fixture, FNV_OFFSET,
};

const RPS: f64 = 6_000.0;
const SEED: u64 = 11;

/// One-node zero-link cluster stream hash over the nominal fixture.
/// Node ids are omitted from the rendering (they are all 0 here), so
/// the lines hash like `golden_events.rs`'s.
fn cluster_hash(policy: Policy, tweak: impl FnOnce(&mut ClusterConfig)) -> (u64, u64) {
    let f = nominal(policy);
    cluster_hash_arrivals(&f, f.arrivals(), tweak)
}

/// [`cluster_hash`] over fixture `f`'s node config, horizon and seed,
/// with a caller-supplied arrival list.
fn cluster_hash_arrivals(
    f: &Fixture,
    list: Vec<Arrival>,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> (u64, u64) {
    let mut cfg = ClusterConfig::new(1, f.cfg.clone());
    cfg.link = NodeLink::zero();
    tweak(&mut cfg);
    let mut hash = FNV_OFFSET;
    let mut events = 0u64;
    let report = Cluster::run_arrivals_observed(
        &cfg,
        &services(),
        list,
        SimDuration::from_millis(f.millis),
        f.seed,
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

/// Policies spanning every orchestration family, with their nominal
/// and fault stream hashes from golden_events.rs.
const PINNED: &[(Policy, u64, u64)] = &[
    (Policy::AccelFlow, 0xe1f4fffd88da4e56, 0xdd1e2c9a4cd6d662),
    (Policy::Relief, 0xa00641861bd8bf8e, 0x6c65cf0b5bbb7bda),
    (Policy::NonAcc, 0x010792f6d58620f1, 0x369b8bf766b536d2),
    (Policy::CpuCentric, 0xc33673a317421350, 0x473fc2084f1ac786),
];

#[test]
fn one_node_fleet_streams_match_the_golden_hashes_for_every_balancer() {
    for &(policy, nominal_golden, fault_golden) in PINNED {
        for (name, fixture, golden) in [
            ("nominal", nominal(policy), nominal_golden),
            ("fault", fault(policy), fault_golden),
        ] {
            for kind in BalancerKind::ALL {
                let (h, _) =
                    cluster_hash_arrivals(&fixture, fixture.arrivals(), |cfg| cfg.balancer = kind);
                assert_eq!(h, golden, "{policy}/{name}/{kind}: stream left the golden");
            }
        }
    }
}

/// `(balancer, four-node fleet stream hash)`, recaptured with the
/// golden streams when no-op `TryStart`s were dropped.
const FLEET_PINNED: &[(BalancerKind, u64)] = &[
    (BalancerKind::RoundRobin, 0x437e057f7c1d2975),
    (BalancerKind::WeightedRandom, 0x812297ae4bee98e8),
    (BalancerKind::LeastLoaded, 0x9cd657e78467a38d),
    (BalancerKind::LocalityAware, 0x8d9e3118277e1266),
];

#[test]
fn four_node_fleet_streams_match_pinned_hashes() {
    let print = std::env::var("GOLDEN_EVENTS_PRINT").is_ok();
    let mut failures = Vec::new();
    let mut seen = Vec::new();
    for &(kind, pinned) in FLEET_PINNED {
        let (h, events) = fleet_hash(kind, |_| true);
        assert!(events > 1_000, "{kind}: fleet stream too thin");
        if print {
            println!("    (BalancerKind::{kind:?}, {h:#018x}), // {events} events");
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
fn same_instant_arrivals_keep_their_pinned_order() {
    // Pairs of arrivals share an instant. The second arrival is chained
    // before the first one's zero-delay StartStep, so the fleet holds
    // that StartStep back until the front end has chained the next
    // arrival. The pin is the stream a standalone machine produced.
    let fixture = nominal(Policy::AccelFlow);
    let mut tied = fixture.arrivals();
    for i in (1..tied.len()).step_by(2) {
        tied[i].at = tied[i - 1].at;
    }
    let (h, _) = cluster_hash_arrivals(&fixture, tied, |_| {});
    assert_eq!(h, TIED_PINNED, "tied arrivals reordered");
}

/// The tied-arrival stream hash, captured from a standalone machine.
const TIED_PINNED: u64 = 0xd899_5891_6722_65e4;

#[test]
fn keepalive_polling_never_perturbs_node_streams() {
    // Health ticks are outer-kernel events: they consume outer
    // sequence numbers but deliver nothing to any machine, so the
    // node-observed stream must still hash to the golden.
    let (polled, _) = cluster_hash(Policy::AccelFlow, |cfg| {
        cfg.keepalive = Some(SimDuration::from_micros(250));
    });
    assert_eq!(
        polled, PINNED[0].1,
        "keep-alive ticks leaked into a node stream"
    );
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
