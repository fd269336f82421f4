//! Outcome pins: the golden event streams with `Ev::TryStart` left out.
//!
//! A `TryStart` only asks a station to start queued work; what the
//! modelled hardware does is carried by every other event: arrivals,
//! app stages, hops, PE completions (with their busy times), call
//! completions, fallbacks, timeouts, faults. These hashes fold exactly
//! those events, with their timestamps and fields, into the same
//! FNV-1a hash `golden_events.rs` uses. They pin every request's
//! path, timing and fate, so a change to how often or when `TryStart`
//! is scheduled must leave all of them unchanged, while the full
//! stream hashes move.
//!
//! Coverage: the nominal, stress and fault runs for all ten policies
//! (the `golden_events.rs` fixtures) and the four-node fleet per
//! balancer (the `cluster_differential.rs` fixture). Recapture, only
//! for a deliberate model change, with:
//!
//! ```text
//! GOLDEN_EVENTS_PRINT=1 cargo test -p accelflow-core --test outcome_pin -- --nocapture
//! ```

mod common;

use accelflow_core::cluster::BalancerKind;
use accelflow_core::machine::Ev;
use accelflow_core::policy::Policy;

use common::{fault, fleet_hash, nominal, stress};

fn no_try_start(ev: &Ev) -> bool {
    !matches!(ev, Ev::TryStart(_))
}

/// `(policy, nominal, stress, fault)` outcome hashes, captured before
/// no-op `TryStart`s stopped being scheduled. Every accelerator
/// policy's nominal run hashes 20,120 events.
const OUTCOMES: &[(Policy, u64, u64, u64)] = &[
    (
        Policy::NonAcc,
        0x010792f6d58620f1,
        0x09e16c6a2d5f4c18,
        0x369b8bf766b536d2,
    ),
    (
        Policy::CpuCentric,
        0x11079be85a0f7d5c,
        0x5dfb2cb1e2d8a0a6,
        0xfcf0514a29cd1e5f,
    ),
    (
        Policy::Relief,
        0xa00641861bd8bf8e,
        0x1ec9a97d2bee0f16,
        0x6c65cf0b5bbb7bda,
    ),
    (
        Policy::ReliefPerTypeQ,
        0xd2f84391c3a0f649,
        0x1ec9a97d2bee0f16,
        0xbc1aba8560bc575c,
    ),
    (
        Policy::Direct,
        0xadfcfffd1b882d2b,
        0xb9345b292651b405,
        0x4018d8b7d3b12cbe,
    ),
    (
        Policy::CntrFlow,
        0x42bd0fa8af51bee1,
        0x3050ae8f0e16f669,
        0x0915a6afbac15acf,
    ),
    (
        Policy::AccelFlow,
        0x16c84cdb604b8085,
        0xb66d34f24e51aa18,
        0xe89eb2225b98d12a,
    ),
    (
        Policy::AccelFlowDeadline,
        0x436398eea2ee09a9,
        0xb66d34f24e51aa18,
        0xec9d20c2cb13d897,
    ),
    (
        Policy::Cohort,
        0xaad9397821fe6fd1,
        0x6039e16e8810eaf5,
        0x81efbf44634a9dbf,
    ),
    (
        Policy::Ideal,
        0xbbbefbbc84487abf,
        0x2ef2c80d487d65ee,
        0xd3d4d7356385acf3,
    ),
];

/// `(balancer, four-node fleet outcome hash)`, captured with the
/// machine outcomes.
const FLEET_OUTCOMES: &[(BalancerKind, u64)] = &[
    (BalancerKind::RoundRobin, 0xd5e78643bb7bc801),
    (BalancerKind::WeightedRandom, 0xb5e6ca17b0d96809),
    (BalancerKind::LeastLoaded, 0x395c3c5233411424),
    (BalancerKind::LocalityAware, 0x402b903d12bbc473),
];

#[test]
fn machine_outcomes_match_pinned_hashes() {
    let print = std::env::var("GOLDEN_EVENTS_PRINT").is_ok();
    let mut failures = Vec::new();
    for &(policy, nominal_pin, stress_pin, fault_pin) in OUTCOMES {
        let (nh, nevents) = nominal(policy).hash(no_try_start);
        let (sh, _) = stress(policy).hash(no_try_start);
        let (fh, _) = fault(policy).hash(no_try_start);
        if print {
            println!("    (Policy::{policy:?}, {nh:#018x}, {sh:#018x}, {fh:#018x}), // {nevents}");
        }
        for (what, got, pinned) in [
            ("nominal", nh, nominal_pin),
            ("stress", sh, stress_pin),
            ("fault", fh, fault_pin),
        ] {
            if got != pinned {
                failures.push(format!(
                    "{policy}: {what} outcome hash {got:#018x} != pinned {pinned:#018x}"
                ));
            }
        }
    }
    assert_eq!(OUTCOMES.len(), 10, "all ten policies are pinned");
    assert!(
        failures.is_empty(),
        "machine outcomes drifted:\n{}",
        failures.join("\n")
    );
}

#[test]
fn fleet_outcomes_match_pinned_hashes() {
    let print = std::env::var("GOLDEN_EVENTS_PRINT").is_ok();
    let mut failures = Vec::new();
    for &(kind, pinned) in FLEET_OUTCOMES {
        let (h, events) = fleet_hash(kind, no_try_start);
        if print {
            println!("    (BalancerKind::{kind:?}, {h:#018x}), // {events}");
        }
        if h != pinned {
            failures.push(format!(
                "{kind}: fleet outcome hash {h:#018x} != pinned {pinned:#018x}"
            ));
        }
    }
    assert_eq!(FLEET_OUTCOMES.len(), BalancerKind::ALL.len());
    assert!(
        failures.is_empty(),
        "fleet outcomes drifted:\n{}",
        failures.join("\n")
    );
}
