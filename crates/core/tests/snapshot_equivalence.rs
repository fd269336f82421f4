//! Checkpoint/restore equivalence: a run snapshotted mid-flight and
//! resumed in a fresh process image must be byte-identical to the run
//! that never stopped.
//!
//! Each case runs a fixed workload twice: once straight through
//! ([`MachineRun::start`] → `finish`), and once split at an instant T
//! ([`MachineRun::start`] → `run_to(T)` → `snapshot` → drop →
//! [`MachineRun::restore`] → `finish`). Both runs fold every delivered
//! `(time, event)` pair into one FNV-1a hash — the split run's
//! observer continues the accumulator the prefix left off — and the
//! final [`RunReport`]s are compared by their full `Debug` rendering.
//! Faults and online control are ON in every machine case, so the
//! fault-injector RNG, stall bookkeeping, token bucket, SLO windows,
//! and autoscaler tick chain all cross the snapshot boundary.
//!
//! There is one snapshot kind: a machine run is a one-node fleet, so
//! its snapshot is a [`ClusterRun`] snapshot and restores as one.
//!
//! The wire pins hash the bytes of mid-run one-node and four-node
//! snapshots with the auditor and telemetry on as well, so a layout
//! change that is made consistently in both `save` and `load` (and so
//! still round-trips) moves a pinned constant. Each pinned snapshot
//! must also re-save to identical bytes after a restore.
//!
//! The rejection half exercises the format guards: truncation,
//! corrupted magic, a bumped schema version, a mismatched
//! configuration, and trailing garbage must each fail with the
//! matching [`SnapshotError`] variant instead of producing a machine.
//! The decoder fuzz truncates a snapshot at every length and flips
//! every bit of it: each restore must return `Ok` or a
//! [`SnapshotError`], never panic. Debug builds run a seeded sample of
//! the mutations; release builds run all of them.
//!
//! Recapture the wire pins (only for a deliberate wire-format change,
//! which also bumps `SCHEMA_VERSION`):
//!
//! ```text
//! SNAPSHOT_PIN_PRINT=1 cargo test -p accelflow-core --test snapshot_equivalence -- pin --nocapture
//! ```

mod common;

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_arch::config::ArchConfig;
use accelflow_arch::tlb::Tlb;
use accelflow_core::cluster::{Cluster, ClusterConfig, ClusterRun, NodeLink};
use accelflow_core::control::{AutoscalerConfig, RateLimit, SloTarget};
use accelflow_core::machine::{Ev, MachineConfig, MachineRun};
use accelflow_core::policy::Policy;
use accelflow_core::request::{CallSpec, CyclesDist, ServiceSpec, StageSpec};
use accelflow_core::{poisson_arrivals, Arrival, FaultConfig};
use accelflow_sim::rng::SimRng;
use accelflow_sim::snapshot::{SnapWriter, Snapshot, SnapshotError};
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::templates::{TemplateId, TraceLibrary};

use common::{fnv1a, FNV_OFFSET};

/// Two services that together reach every event variant: calls, CPU
/// stages, parallel fan-out, and chained segments.
fn services() -> Vec<ServiceSpec> {
    vec![
        ServiceSpec::new(
            "Simple",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Cpu(CyclesDist::new(40_000.0, 0.2)),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        ),
        ServiceSpec::new(
            "WithDb",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Cpu(CyclesDist::new(30_000.0, 0.2)),
                StageSpec::Call(CallSpec::new(TemplateId::T4)),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 2]),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        ),
    ]
}

fn arrivals(rps: f64, duration: SimDuration, seed: u64) -> Vec<Arrival> {
    let lib = TraceLibrary::standard();
    let timing = ServiceTimeModel::calibrated(ArchConfig::icelake().core_clock);
    poisson_arrivals(&services(), &lib, &timing, rps, duration, seed)
}

/// A machine with everything the snapshot must carry switched ON:
/// fault injection, a binding rate limit, SLO windows, a live-request
/// ceiling, and the reactive autoscaler's tick chain.
fn full_config(policy: Policy) -> MachineConfig {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(2);
    cfg.arch.pes_per_accelerator = 2;
    cfg.speedup_scale = 0.25;
    cfg.audit = false;
    cfg.telemetry = false;
    cfg.faults = FaultConfig::uniform(10.0);
    cfg.control.autoscaler = Some(AutoscalerConfig::reactive());
    cfg.control.rate_limit = Some(RateLimit {
        tokens_per_sec: 4_000.0,
        burst: 32.0,
    });
    cfg.control.max_live = Some(256);
    cfg.control.slo = Some(SloTarget {
        window: SimDuration::from_millis(1),
        p99_target: SimDuration::from_micros(500),
    });
    cfg
}

const DURATION: SimDuration = SimDuration::from_millis(12);
const RPS: f64 = 4_000.0;
const SEED: u64 = 23;

/// Straight run: hash every event, return `(hash, Debug(report))`.
fn straight(policy: Policy) -> (u64, String) {
    let cfg = full_config(policy);
    let services = services();
    let mut hash = FNV_OFFSET;
    let report = MachineRun::start(
        &cfg,
        &services,
        arrivals(RPS, DURATION, SEED),
        DURATION,
        SEED,
        |now, ev: &Ev| fnv1a(&mut hash, format!("{now:?}|{ev:?}\n").as_bytes()),
    )
    .finish();
    assert!(report.offered() > 0, "workload produced no load");
    (hash, format!("{report:?}"))
}

/// Split run: run to `t`, snapshot, drop the run, restore from bytes,
/// finish. The restored observer continues the prefix's accumulator.
fn split_at(policy: Policy, t: SimTime) -> (u64, String) {
    let cfg = full_config(policy);
    let services = services();
    let mut hash = FNV_OFFSET;
    let bytes = {
        let mut run = MachineRun::start(
            &cfg,
            &services,
            arrivals(RPS, DURATION, SEED),
            DURATION,
            SEED,
            |now, ev: &Ev| fnv1a(&mut hash, format!("{now:?}|{ev:?}\n").as_bytes()),
        );
        run.run_to(t);
        run.snapshot()
    };
    let report = MachineRun::restore(&cfg, &services, &bytes, |now, ev: &Ev| {
        fnv1a(&mut hash, format!("{now:?}|{ev:?}\n").as_bytes())
    })
    .expect("snapshot of a live run must restore")
    .finish();
    (hash, format!("{report:?}"))
}

#[test]
fn restored_runs_are_byte_identical_across_policies() {
    // One policy per orchestration family, faults + control on in all
    // of them. The split point sits mid-measurement so live requests,
    // in-flight accelerator work, armed faults, and pending control
    // ticks all cross the boundary.
    let t = SimTime::ZERO + SimDuration::from_millis(6);
    for policy in [
        Policy::NonAcc,
        Policy::CpuCentric,
        Policy::Relief,
        Policy::AccelFlow,
        Policy::Cohort,
    ] {
        let (sh, sr) = straight(policy);
        let (rh, rr) = split_at(policy, t);
        assert_eq!(sh, rh, "{policy}: event stream diverged after restore");
        assert_eq!(sr, rr, "{policy}: final report diverged after restore");
    }
}

#[test]
fn split_point_does_not_matter() {
    // Snapshotting during warmup, mid-run, and inside the drain window
    // all resume to the same bytes.
    let (sh, sr) = straight(Policy::AccelFlow);
    for millis in [1, 9, 13] {
        let t = SimTime::ZERO + SimDuration::from_millis(millis);
        let (rh, rr) = split_at(Policy::AccelFlow, t);
        assert_eq!(sh, rh, "split at {millis}ms diverged");
        assert_eq!(sr, rr, "split at {millis}ms: report diverged");
    }
}

#[test]
fn snapshot_does_not_disturb_the_running_machine() {
    // snapshot() is a read — the run it was taken from must keep going
    // and finish exactly like a run that was never snapshotted.
    let cfg = full_config(Policy::AccelFlow);
    let services = services();
    let mut hash = FNV_OFFSET;
    let mut run = MachineRun::start(
        &cfg,
        &services,
        arrivals(RPS, DURATION, SEED),
        DURATION,
        SEED,
        |now, ev: &Ev| fnv1a(&mut hash, format!("{now:?}|{ev:?}\n").as_bytes()),
    );
    run.run_to(SimTime::ZERO + SimDuration::from_millis(6));
    let _bytes = run.snapshot();
    let report = run.finish();
    let (sh, sr) = straight(Policy::AccelFlow);
    assert_eq!(hash, sh, "taking a snapshot perturbed the event stream");
    assert_eq!(format!("{report:?}"), sr);
}

#[test]
fn cluster_restore_is_byte_identical() {
    // Four nodes behind the dispatcher, faults + control on per node:
    // the nested per-node snapshots, dispatcher RNG, round-robin
    // cursor, backlog, and outer queue all cross the boundary.
    let cfg = ClusterConfig::new(4, full_config(Policy::AccelFlow));
    let services = services();
    let work = arrivals(4.0 * RPS, DURATION, SEED);

    let mut straight_hash = FNV_OFFSET;
    let straight_report = Cluster::run_arrivals_observed(
        &cfg,
        &services,
        work.clone(),
        DURATION,
        SEED,
        |now, node, ev| {
            fnv1a(
                &mut straight_hash,
                format!("{now:?}|{node}|{ev:?}\n").as_bytes(),
            );
        },
    );
    assert!(straight_report.offered() > 0, "cluster saw no load");

    let mut hash = FNV_OFFSET;
    let bytes = {
        let mut run = ClusterRun::start(&cfg, &services, work, DURATION, SEED, |now, node, ev| {
            fnv1a(&mut hash, format!("{now:?}|{node}|{ev:?}\n").as_bytes());
        });
        run.run_to(SimTime::ZERO + SimDuration::from_millis(6));
        run.snapshot()
    };
    let report = ClusterRun::restore(&cfg, &services, &bytes, |now, node, ev| {
        fnv1a(&mut hash, format!("{now:?}|{node}|{ev:?}\n").as_bytes());
    })
    .expect("cluster snapshot must restore")
    .finish();

    assert_eq!(straight_hash, hash, "cluster event stream diverged");
    assert_eq!(
        format!("{straight_report:?}"),
        format!("{report:?}"),
        "cluster report diverged"
    );
}

// ---------------------------------------------------------------------
// Wire pins: the bytes of mid-run snapshots, and re-save identity.
// ---------------------------------------------------------------------

/// Instant the pinned snapshots are taken at: mid-measurement, with
/// live requests, busy PEs, armed faults and pending control ticks.
const PIN_AT: SimDuration = SimDuration::from_millis(6);

/// [`full_config`] with the auditor and telemetry on too, so every
/// optional state block is in the pinned bytes at any optimization
/// level and feature set.
fn pinned_config(policy: Policy) -> MachineConfig {
    let mut cfg = full_config(policy);
    cfg.audit = true;
    cfg.telemetry = true;
    cfg
}

/// Checks the FNV-1a hash of `bytes` against `expected`, printing it
/// under `SNAPSHOT_PIN_PRINT`.
fn check_pin(name: &str, bytes: &[u8], expected: u64) {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, bytes);
    if std::env::var_os("SNAPSHOT_PIN_PRINT").is_some() {
        println!("{name}: {} bytes, {hash:#018x}", bytes.len());
    }
    assert_eq!(hash, expected, "{name}: snapshot wire bytes changed");
}

fn pin_machine(policy: Policy, expected: u64) {
    let cfg = pinned_config(policy);
    let services = services();
    let mut run = MachineRun::start(
        &cfg,
        &services,
        arrivals(RPS, DURATION, SEED),
        DURATION,
        SEED,
        |_, _: &Ev| {},
    );
    run.run_to(SimTime::ZERO + PIN_AT);
    let bytes = run.snapshot();
    check_pin(&format!("machine {policy}"), &bytes, expected);
    let resaved = MachineRun::restore(&cfg, &services, &bytes, |_, _: &Ev| {})
        .expect("pinned snapshot must restore")
        .snapshot();
    assert!(
        resaved == bytes,
        "{policy}: restore then snapshot changed the bytes"
    );
}

#[test]
fn machine_snapshot_bytes_are_pinned_accelflow() {
    pin_machine(Policy::AccelFlow, 0x57a0_8f40_819f_c43d);
}

#[test]
fn machine_snapshot_bytes_are_pinned_relief() {
    pin_machine(Policy::Relief, 0x2cb5_c4bb_536f_19b4);
}

#[test]
fn cluster_snapshot_bytes_are_pinned() {
    // The four-node fixture of `cluster_restore_is_byte_identical`,
    // with the auditor and telemetry on in every node.
    let cfg = ClusterConfig::new(4, pinned_config(Policy::AccelFlow));
    let services = services();
    let work = arrivals(4.0 * RPS, DURATION, SEED);
    let mut run = ClusterRun::start(&cfg, &services, work, DURATION, SEED, |_, _, _| {});
    run.run_to(SimTime::ZERO + PIN_AT);
    let bytes = run.snapshot();
    check_pin("cluster", &bytes, 0x9067_22bf_6148_0bd1);
    let resaved = ClusterRun::restore(&cfg, &services, &bytes, |_, _, _| {})
        .expect("pinned cluster snapshot must restore")
        .snapshot();
    assert!(
        resaved == bytes,
        "cluster: restore then snapshot changed the bytes"
    );
}

// ---------------------------------------------------------------------
// Rejection: the guards in the header and the trailing-byte check.
// ---------------------------------------------------------------------

/// A small, fast snapshot to mutate in the rejection tests.
fn sample_snapshot() -> (MachineConfig, Vec<u8>) {
    let cfg = full_config(Policy::AccelFlow);
    let mut run = MachineRun::start(
        &cfg,
        &services(),
        arrivals(RPS, SimDuration::from_millis(4), SEED),
        SimDuration::from_millis(4),
        SEED,
        |_, _: &Ev| {},
    );
    run.run_to(SimTime::ZERO + SimDuration::from_millis(2));
    let bytes = run.snapshot();
    (cfg, bytes)
}

#[test]
fn corrupted_magic_is_rejected() {
    let (cfg, mut bytes) = sample_snapshot();
    bytes[0] ^= 0xFF;
    match MachineRun::restore(&cfg, &services(), &bytes, |_, _: &Ev| {}) {
        Err(SnapshotError::BadMagic { .. }) => {}
        other => panic!("expected BadMagic, got {:?}", other.err()),
    }
}

#[test]
fn future_schema_version_is_rejected() {
    let (cfg, mut bytes) = sample_snapshot();
    // Header layout: 4 magic bytes, then the u32 schema version (LE).
    bytes[4..8].copy_from_slice(&999u32.to_le_bytes());
    match MachineRun::restore(&cfg, &services(), &bytes, |_, _: &Ev| {}) {
        Err(SnapshotError::SchemaVersion { found: 999, .. }) => {}
        other => panic!("expected SchemaVersion, got {:?}", other.err()),
    }
}

#[test]
fn different_config_is_rejected() {
    let (_, bytes) = sample_snapshot();
    let other_cfg = full_config(Policy::Relief);
    match MachineRun::restore(&other_cfg, &services(), &bytes, |_, _: &Ev| {}) {
        Err(SnapshotError::ConfigHash { .. }) => {}
        other => panic!("expected ConfigHash, got {:?}", other.err()),
    }
}

#[test]
fn different_service_names_are_rejected() {
    let (cfg, bytes) = sample_snapshot();
    let mut renamed = services();
    renamed[0].name = "Renamed".to_string();
    match MachineRun::restore(&cfg, &renamed, &bytes, |_, _: &Ev| {}) {
        Err(SnapshotError::ConfigHash { .. }) => {}
        other => panic!("expected ConfigHash, got {:?}", other.err()),
    }
}

#[test]
fn truncation_is_rejected_at_every_length() {
    // Cutting the buffer anywhere must produce a structured error (EOF
    // or a corruption report), never a machine and never a panic. A
    // stride keeps the loop fast; the header region is covered densely.
    let (cfg, bytes) = sample_snapshot();
    let mut cuts: Vec<usize> = (0..bytes.len().min(64)).collect();
    cuts.extend((64..bytes.len()).step_by(101));
    for cut in cuts {
        match MachineRun::restore(&cfg, &services(), &bytes[..cut], |_, _: &Ev| {}) {
            Err(
                SnapshotError::UnexpectedEof { .. }
                | SnapshotError::Corrupt(_)
                | SnapshotError::BadMagic { .. },
            ) => {}
            Err(other) => panic!("cut at {cut}: unexpected error {other:?}"),
            Ok(_) => panic!("cut at {cut}: truncated snapshot restored"),
        }
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let (cfg, mut bytes) = sample_snapshot();
    bytes.push(0xAB);
    match MachineRun::restore(&cfg, &services(), &bytes, |_, _: &Ev| {}) {
        Err(SnapshotError::Corrupt(msg)) => {
            assert!(msg.contains("trailing"), "unexpected message: {msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }
}

/// The fleet a bare run of `cfg` is: one round-robin node over a free
/// link, keep-alive off.
fn one_node(cfg: &MachineConfig) -> ClusterConfig {
    ClusterConfig {
        link: NodeLink::zero(),
        ..ClusterConfig::new(1, cfg.clone())
    }
}

#[test]
fn machine_snapshot_is_a_one_node_fleet_snapshot() {
    let (cfg, bytes) = sample_snapshot();
    let machine = MachineRun::restore(&cfg, &services(), &bytes, |_, _: &Ev| {})
        .expect("machine snapshot must restore")
        .finish();
    let fleet = ClusterRun::restore(&one_node(&cfg), &services(), &bytes, |_, _, _| {})
        .expect("a machine snapshot is a one-node fleet snapshot")
        .finish();
    assert_eq!(format!("{:?}", fleet.per_node[0]), format!("{machine:?}"));
    // Any other fleet shape is another configuration.
    let two = ClusterConfig::new(2, cfg);
    match ClusterRun::restore(&two, &services(), &bytes, |_, _, _| {}) {
        Err(SnapshotError::ConfigHash { .. }) => {}
        other => panic!("expected ConfigHash, got {:?}", other.err()),
    }
}

// ---------------------------------------------------------------------
// Decoder fuzz: truncations and bit flips never panic the decoder.
// ---------------------------------------------------------------------

/// Mutation `m` of `bytes`: for `m < 9 * len`, position `m / 9` is
/// either cut there (`m % 9 == 8`) or has bit `m % 9` flipped.
fn mutate(bytes: &[u8], m: usize) -> Vec<u8> {
    let (at, op) = (m / 9, m % 9);
    if op == 8 {
        bytes[..at].to_vec()
    } else {
        let mut out = bytes.to_vec();
        out[at] ^= 1 << op;
        out
    }
}

/// Restores every mutation in `mutations` through the one decoder,
/// returning the ones that panicked.
fn panicking_mutations(mutations: impl Iterator<Item = usize>) -> Vec<usize> {
    let (cfg, bytes) = sample_snapshot();
    let fleet = one_node(&cfg);
    let services = services();
    mutations
        .filter(|&m| {
            let input = mutate(&bytes, m);
            std::panic::catch_unwind(|| {
                let _ = ClusterRun::restore(&fleet, &services, &input, |_, _, _| {});
            })
            .is_err()
        })
        .collect()
}

#[test]
fn decoder_survives_a_sample_of_mutations() {
    let (_, bytes) = sample_snapshot();
    let mut rng = SimRng::seed(0x5EED_F022);
    let total = 9 * bytes.len();
    let sample = (0..1_000).map(|_| rng.index(total));
    let panicked = panicking_mutations(sample);
    assert!(panicked.is_empty(), "mutations that panicked: {panicked:?}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "about a minute in debug; CI runs it in release"
)]
fn decoder_survives_every_truncation_and_bit_flip() {
    let (_, bytes) = sample_snapshot();
    let panicked = panicking_mutations(0..9 * bytes.len());
    assert!(panicked.is_empty(), "mutations that panicked: {panicked:?}");
}

#[test]
fn corrupt_tlb_geometry_is_an_error_not_an_abort() {
    // One flipped bit in the first station TLB's set count of a
    // mid-run snapshot: 2^40 more sets. The decoder used to allocate
    // the tag arena from that count unchecked and abort the process.
    let (cfg, mut bytes) = sample_snapshot();
    let mut w = SnapWriter::new();
    Tlb::new(&cfg.arch).save(&mut w);
    // Set count, ways, page shift and both latencies: 36 bytes that
    // open every station's TLB record.
    let needle = &w.into_bytes()[..36];
    let at = bytes
        .windows(needle.len())
        .position(|win| win == needle)
        .expect("the snapshot holds a station TLB");
    bytes[at + 5] ^= 1;
    match ClusterRun::restore(&one_node(&cfg), &services(), &bytes, |_, _, _| {}) {
        Err(SnapshotError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {:?}", other.err()),
    }
}
