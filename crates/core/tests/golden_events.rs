//! Golden event-sequence snapshots, one per orchestration policy.
//!
//! Each test runs a fixed workload on a fixed seed (the shared fixture
//! in `common/mod.rs`) and folds every delivered `(time, event)` pair
//! into an FNV-1a hash via `Machine::run_arrivals_observed`. Any
//! refactor of the machine's module tree or of the policy dispatch
//! must keep every stream bit-identical, so these constants are the
//! proof that a restructure preserved behaviour exactly. The
//! `TryStart`-free outcome hashes in `outcome_pin.rs` pin the same
//! runs one level up: they survive changes that only add or remove
//! `TryStart` events.
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

mod common;

use accelflow_core::machine::MachineConfig;
use accelflow_core::policy::Policy;
use accelflow_sim::time::SimDuration;

use common::{fault, nominal, stress};

/// The nominal run: default machine under enough load that input
/// queues hold several entries (so scheduling-policy differences — e.g.
/// deadline-aware reordering — show up in the stream).
fn nominal_hash(policy: Policy) -> (u64, u64) {
    nominal_hash_with(policy, |_| {})
}

/// [`nominal_hash`] with a config tweak applied before the run, so
/// variations (fault injection on/off) reuse the same workload.
fn nominal_hash_with(policy: Policy, tweak: impl FnOnce(&mut MachineConfig)) -> (u64, u64) {
    let mut f = nominal(policy);
    tweak(&mut f.cfg);
    f.hash(|_| true)
}

fn stress_hash(policy: Policy) -> (u64, u64) {
    stress(policy).hash(|_| true)
}

fn fault_hash(policy: Policy) -> (u64, u64) {
    fault(policy).hash(|_| true)
}

/// `(policy, nominal stream hash, stress stream hash, fault stream
/// hash)`. Recaptured when `TryStart` stopped being scheduled for
/// stations that cannot start a job; the outcome pins stayed
/// unchanged across that recapture.
const GOLDEN: &[(Policy, u64, u64, u64)] = &[
    (
        Policy::NonAcc,
        0x010792f6d58620f1,
        0x09e16c6a2d5f4c18,
        0x369b8bf766b536d2,
    ),
    (
        Policy::CpuCentric,
        0xc33673a317421350,
        0x32b49a1d46932ae5,
        0x473fc2084f1ac786,
    ),
    (
        Policy::Relief,
        0xa00641861bd8bf8e,
        0x1ec9a97d2bee0f16,
        0x6c65cf0b5bbb7bda,
    ),
    (
        Policy::ReliefPerTypeQ,
        0x8eaf261e16890601,
        0x4fab56143f7ec515,
        0x69072ceed0f4c261,
    ),
    (
        Policy::Direct,
        0x95d2c574392df0d9,
        0x4dfc3360d749441c,
        0x1f3ea08bdfee22f5,
    ),
    (
        Policy::CntrFlow,
        0x5f944475f95b890c,
        0x49b03ff414cc40d0,
        0xfd4f261b1ec0bddc,
    ),
    (
        Policy::AccelFlow,
        0xe1f4fffd88da4e56,
        0x63bd918aadc2b9a1,
        0xdd1e2c9a4cd6d662,
    ),
    (
        Policy::AccelFlowDeadline,
        0x8a0fba0d62ed04be,
        0x63bd918aadc2b9a1,
        0x4f73fc8327f1316b,
    ),
    (
        Policy::Cohort,
        0x374774b8da771a0e,
        0x35cb2372ae3255e1,
        0x02d5daf98341cb46,
    ),
    (
        Policy::Ideal,
        0xf457ff54131e343c,
        0xf263e77d04b94a5c,
        0x4a544abc0b3d1743,
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
            println!(
                "    (Policy::{policy:?}, {nh:#018x}, {sh:#018x}, {fh:#018x}), // {nevents} / {sevents} / {fevents} events"
            );
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
        "event streams drifted from the goldens:\n{}",
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
