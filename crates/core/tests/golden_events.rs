//! Golden event-sequence snapshots, one per orchestration policy.
//!
//! Each test runs a fixed workload on a fixed seed and folds every
//! delivered `(time, event)` pair into an FNV-1a hash via
//! [`Machine::run_arrivals_observed`]. The hashes below were captured
//! on the pre-refactor monolithic `machine.rs`; any refactor of the
//! machine's module tree or of the policy dispatch must keep every
//! stream bit-identical, so these constants are the proof that a
//! restructure preserved behaviour exactly.
//!
//! If a hash mismatches, the event *stream* changed — not merely an
//! internal detail. That is only acceptable for a deliberate model
//! change, in which case recapture with:
//!
//! ```text
//! GOLDEN_EVENTS_PRINT=1 cargo test -p accelflow-core --test golden_events -- --nocapture
//! ```
//!
//! The hash covers the `Debug` rendering of events (all fields of
//! `Ev`/`CallAddr`), so renaming variants or fields also recaptures —
//! that is intended: the event vocabulary is part of the contract.

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_arch::config::ArchConfig;
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_core::request::{CallSpec, CyclesDist, ServiceSpec, StageSpec};
use accelflow_core::{poisson_arrivals, Arrival};
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

/// The fixed workload: one short service and one DB-heavy service with
/// parallel calls, awaits, and chained segments — together they reach
/// every event variant (arrivals, app stages, hops, PE completions,
/// external awaits, call completions, fallbacks under pressure).
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
    // Tight SLO deadlines so `AccelFlowDeadline`'s deadline-aware input
    // scheduling actually reorders under load (without deadlines at
    // risk it degenerates to FIFO and collides with `AccelFlow`).
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

/// Runs one policy over a prepared arrival list and hashes the stream.
fn stream_hash(cfg: &MachineConfig, arrivals: Vec<Arrival>, millis: u64, seed: u64) -> (u64, u64) {
    let mut hash = FNV_OFFSET;
    let mut events = 0u64;
    let report = Machine::run_arrivals_observed(
        cfg,
        &services(),
        arrivals,
        SimDuration::from_millis(millis),
        seed,
        |now, ev| {
            events += 1;
            fnv1a(&mut hash, format!("{now:?}|{ev:?}\n").as_bytes());
        },
    );
    assert!(report.offered() > 0, "workload produced no load");
    (hash, events)
}

/// The nominal run: default machine under enough load that input
/// queues hold several entries (so scheduling-policy differences — e.g.
/// deadline-aware reordering — show up in the stream).
fn nominal_hash(policy: Policy) -> (u64, u64) {
    nominal_hash_with(policy, |_| {})
}

/// [`nominal_hash`] with a config tweak applied before the run, so
/// variations (fault injection on/off) reuse the same workload.
fn nominal_hash_with(policy: Policy, tweak: impl FnOnce(&mut MachineConfig)) -> (u64, u64) {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(2);
    // Slow, narrow accelerators: queues hold several entries at this
    // load, so waiting work is genuinely reordered by non-FIFO input
    // scheduling and overflow/fallback paths get exercised.
    cfg.arch.pes_per_accelerator = 2;
    cfg.speedup_scale = 0.25;
    // Pin the observability switches so debug/release and the
    // audit/telemetry feature combinations all hash one stream.
    cfg.audit = false;
    cfg.telemetry = false;
    tweak(&mut cfg);
    stream_hash(&cfg, arrivals(6_000.0, 30, 11), 30, 11)
}

/// The stress run: tight TCP timeout and a tiny tenant cap, forcing
/// timeout terminations, stale-event drops, throttle retries, and the
/// tenant-slot cleanup paths.
fn stress_hash(policy: Policy) -> (u64, u64) {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(1);
    cfg.audit = false;
    cfg.telemetry = false;
    cfg.tcp_timeout = SimDuration::from_micros(10);
    cfg.tenant_cap = 4;
    stream_hash(&cfg, arrivals(1_500.0, 20, 7), 20, 7)
}

/// The fault run: the nominal workload with every fault class firing,
/// so retries, re-dispatch, CPU degradation and each policy's recovery
/// path (software re-issue on a core vs. hardware front-end) all land
/// in the stream.
fn fault_hash(policy: Policy) -> (u64, u64) {
    nominal_hash_with(policy, |cfg| {
        cfg.faults = accelflow_core::FaultConfig::uniform(5.0);
    })
}

/// `(policy, nominal stream hash, stress stream hash, fault stream
/// hash)`. The nominal and stress columns were captured on the
/// pre-refactor `machine.rs` monolith; the fault column was captured
/// before the per-policy orchestration moved into the policy table.
const GOLDEN: &[(Policy, u64, u64, u64)] = &[
    (
        Policy::NonAcc,
        0x010792f6d58620f1,
        0x09e16c6a2d5f4c18,
        0x2c4ebf252ec49e94,
    ),
    (
        Policy::CpuCentric,
        0x71a518de6ac93f3d,
        0x1e36a99fa6ab3b73,
        0x004a1aa94e45732d,
    ),
    (
        Policy::Relief,
        0x8f79795ee8369aee,
        0x4690843cecf82223,
        0xe11b81b11f937478,
    ),
    (
        Policy::ReliefPerTypeQ,
        0xa89e7d3a26a3bde1,
        0x6a68225cc5542fea,
        0x44087fb3265f4b6f,
    ),
    (
        Policy::Direct,
        0xa285097637983236,
        0x8d93e136b87dbf08,
        0xe655a2999ac5133a,
    ),
    (
        Policy::CntrFlow,
        0x4140c66c866e4621,
        0x05299c74d9400897,
        0xab18dc6308513e3c,
    ),
    (
        Policy::AccelFlow,
        0x5e7b620c65f26463,
        0xab5e3a87403c935a,
        0x3825f0802e667300,
    ),
    (
        Policy::AccelFlowDeadline,
        0x9bad33e720213de4,
        0xab5e3a87403c935a,
        0xfce9f21fa2a5ab29,
    ),
    (
        Policy::Cohort,
        0x93b2ba7be7bd7b57,
        0xc53f44fd55bf3c61,
        0x623667b94308818e,
    ),
    (
        Policy::Ideal,
        0xc7fe51d8adca8767,
        0xeeaef10ee8c43ade,
        0x88d2c007a23df601,
    ),
];

#[test]
fn event_streams_match_golden_hashes() {
    let print = std::env::var("GOLDEN_EVENTS_PRINT").is_ok();
    let mut failures = Vec::new();
    for &(policy, nominal, stress, faulty) in GOLDEN {
        let (nh, nevents) = nominal_hash(policy);
        let (sh, sevents) = stress_hash(policy);
        let (fh, fevents) = fault_hash(policy);
        assert!(nevents > 1_000, "{policy}: nominal stream too thin");
        assert!(sevents > 200, "{policy}: stress stream too thin");
        assert!(fevents > 1_000, "{policy}: fault stream too thin");
        assert_ne!(
            fh, nh,
            "{policy}: injected faults left the stream untouched"
        );
        if print {
            println!("    (Policy::{policy:?}, {nh:#018x}, {sh:#018x}, {fh:#018x}),");
        }
        if nh != nominal {
            failures.push(format!(
                "{policy}: nominal stream hash {nh:#018x} != golden {nominal:#018x}"
            ));
        }
        if sh != stress {
            failures.push(format!(
                "{policy}: stress stream hash {sh:#018x} != golden {stress:#018x}"
            ));
        }
        if fh != faulty {
            failures.push(format!(
                "{policy}: fault stream hash {fh:#018x} != golden {faulty:#018x}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "event streams drifted from the pre-refactor goldens:\n{}",
        failures.join("\n")
    );
}

#[test]
fn zero_rate_faults_keep_the_golden_streams() {
    // A zero-rate fault config must be indistinguishable from no fault
    // config at all: no injector state, no RNG draws, no events — the
    // stream hashes straight back to the committed goldens. One policy
    // per orchestration family keeps the runtime bounded.
    use accelflow_core::FaultConfig;
    for &(policy, nominal, _, _) in GOLDEN
        .iter()
        .filter(|(p, _, _, _)| matches!(p, Policy::AccelFlow | Policy::Relief | Policy::NonAcc))
    {
        let (h, _) = nominal_hash_with(policy, |cfg| {
            cfg.faults = FaultConfig::uniform(0.0);
        });
        assert_eq!(
            h, nominal,
            "{policy}: zero-rate fault stream drifted from the golden hash"
        );
    }
}

#[test]
fn passive_control_keeps_the_golden_streams() {
    // Online control draws no randomness, and its *passive* pieces
    // (SLO-window tracking, a rate limit too generous to ever reject)
    // observe the run without scheduling or suppressing any event, so
    // the stream must hash straight back to the committed goldens.
    // An autoscaler is NOT passive — its ScaleTick chain is an event.
    use accelflow_core::{RateLimit, SloTarget};
    for &(policy, nominal, _, _) in GOLDEN
        .iter()
        .filter(|(p, _, _, _)| matches!(p, Policy::AccelFlow | Policy::Relief | Policy::NonAcc))
    {
        let (h, _) = nominal_hash_with(policy, |cfg| {
            cfg.control.rate_limit = Some(RateLimit {
                tokens_per_sec: 1e12,
                burst: 1e12,
            });
            cfg.control.slo = Some(SloTarget {
                window: SimDuration::from_millis(1),
                p99_target: SimDuration::from_micros(200),
            });
        });
        assert_eq!(
            h, nominal,
            "{policy}: passive-control stream drifted from the golden hash"
        );
    }
}

#[test]
fn fault_streams_are_reproducible_and_distinct() {
    let (a, events_a) = fault_hash(Policy::AccelFlow);
    let (b, events_b) = fault_hash(Policy::AccelFlow);
    assert_eq!(a, b, "same-seed fault runs must be byte-identical");
    assert_eq!(events_a, events_b);
    let (baseline, _) = nominal_hash(Policy::AccelFlow);
    assert_ne!(
        a, baseline,
        "injected faults must actually perturb the stream"
    );
}

#[test]
fn streams_differ_across_policies() {
    // Sanity for the snapshot itself: distinct policies must produce
    // distinct streams (otherwise the goldens prove nothing).
    let mut hashes: Vec<u64> = GOLDEN
        .iter()
        .map(|&(p, _, _, _)| nominal_hash(p).0)
        .collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), GOLDEN.len(), "policy streams collided");
}
