//! The fixture shared by the event-stream suites (`golden_events`,
//! `cluster_differential`): one short service and one
//! DB-heavy service with parallel calls, awaits and chained segments,
//! a nominal, a stress and a fault machine config over them, and the
//! four-node datacenter fleet. Each run folds the `Debug` rendering of
//! its delivered events into an FNV-1a hash (`snapshot_equivalence`
//! uses only that hash).

#![allow(dead_code)] // each suite uses its own subset

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_arch::config::ArchConfig;
use accelflow_core::cluster::{BalancerKind, Cluster, ClusterConfig, NodeLink};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_core::request::{CallSpec, CyclesDist, ServiceSpec, StageSpec};
use accelflow_core::{poisson_arrivals, Arrival, FaultConfig};
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::{TemplateId, TraceLibrary};

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the bytes of one rendered event line.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Together the two services reach every event variant (arrivals, app
/// stages, hops, PE completions, external awaits, call completions,
/// fallbacks under pressure).
pub fn services() -> Vec<ServiceSpec> {
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
    // Tight SLO deadlines so `AccelFlowDeadline`'s deadline-aware input
    // scheduling actually reorders under load (without deadlines at
    // risk it degenerates to FIFO and collides with `AccelFlow`).
    simple.slo_slack = Some(1.2);
    with_db.slo_slack = Some(1.2);
    vec![simple, with_db]
}

pub fn arrivals(rps: f64, millis: u64, seed: u64) -> Vec<Arrival> {
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

/// One machine run of the fixture: a config plus the load it carries.
pub struct Fixture {
    pub cfg: MachineConfig,
    pub rps: f64,
    pub millis: u64,
    pub seed: u64,
}

/// The nominal config: slow, narrow accelerators, so input queues hold
/// several entries and waiting work is genuinely reordered by non-FIFO
/// input scheduling and overflow/fallback paths get exercised. The
/// observability switches are pinned so debug/release and the
/// audit/telemetry feature combinations all hash one stream.
pub fn nominal_cfg(policy: Policy) -> MachineConfig {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(2);
    cfg.arch.pes_per_accelerator = 2;
    cfg.speedup_scale = 0.25;
    cfg.audit = false;
    cfg.telemetry = false;
    cfg
}

/// The nominal run at 6 kRPS per service for 30 ms.
pub fn nominal(policy: Policy) -> Fixture {
    Fixture {
        cfg: nominal_cfg(policy),
        rps: 6_000.0,
        millis: 30,
        seed: 11,
    }
}

/// The stress run: tight TCP timeout and a tiny tenant cap, forcing
/// timeout terminations, stale-event drops, throttle retries, and the
/// tenant-slot cleanup paths.
pub fn stress(policy: Policy) -> Fixture {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(1);
    cfg.audit = false;
    cfg.telemetry = false;
    cfg.tcp_timeout = SimDuration::from_micros(10);
    cfg.tenant_cap = 4;
    Fixture {
        cfg,
        rps: 1_500.0,
        millis: 20,
        seed: 7,
    }
}

/// The nominal run with every fault class firing, so retries,
/// re-dispatch, CPU degradation and each policy's recovery path land
/// in the stream.
pub fn fault(policy: Policy) -> Fixture {
    let mut f = nominal(policy);
    f.cfg.faults = FaultConfig::uniform(5.0);
    f
}

impl Fixture {
    /// The fixture's Poisson arrival list.
    pub fn arrivals(&self) -> Vec<Arrival> {
        arrivals(self.rps, self.millis, self.seed)
    }

    /// Runs the fixture and hashes every delivered event. Returns
    /// `(hash, event count)`.
    pub fn hash(&self) -> (u64, u64) {
        let mut hash = FNV_OFFSET;
        let mut events = 0u64;
        let report = Machine::run_arrivals_observed(
            &self.cfg,
            &services(),
            self.arrivals(),
            SimDuration::from_millis(self.millis),
            self.seed,
            |now, ev| {
                events += 1;
                fnv1a(&mut hash, format!("{now:?}|{ev:?}\n").as_bytes());
            },
        );
        assert!(report.offered() > 0, "workload produced no load");
        (hash, events)
    }
}

/// Four-node datacenter-link AccelFlow fleet over the nominal load:
/// every node's events, tagged with the node id, folded into one hash.
/// Returns `(hash, event count)`.
pub fn fleet_hash(balancer: BalancerKind) -> (u64, u64) {
    let f = nominal(Policy::AccelFlow);
    let mut cfg = ClusterConfig::new(4, f.cfg);
    cfg.link = NodeLink::datacenter();
    cfg.balancer = balancer;
    let mut hash = FNV_OFFSET;
    let mut events = 0u64;
    let report = Cluster::run_arrivals_observed(
        &cfg,
        &services(),
        arrivals(f.rps, f.millis, f.seed),
        SimDuration::from_millis(f.millis),
        f.seed,
        |now, node, ev| {
            events += 1;
            fnv1a(&mut hash, format!("{now:?}|{node}|{ev:?}\n").as_bytes());
        },
    );
    assert!(report.offered() > 0, "workload produced no load");
    assert_eq!(report.clamped, 0, "outer kernel must never clamp");
    (hash, events)
}
