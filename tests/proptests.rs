//! Property-based tests over the core data structures and invariants.
//!
//! Cases are generated from a seeded [`SimRng`] rather than an external
//! property-testing framework (the build environment has no package
//! registry), so every run explores the same deterministic case set.
//! Each property checks a few hundred generated inputs; failures print
//! the case index so a shrink-by-hand starts from a concrete repro.

use std::collections::HashSet;

use accelflow::sim::rng::SimRng;
use accelflow::sim::stats::Histogram;
use accelflow::sim::time::{Frequency, SimDuration, SimTime};
use accelflow::trace::atm::AtmAddr;
use accelflow::trace::builder::TraceBuilder;
use accelflow::trace::cond::{BranchCond, PayloadFlags};
use accelflow::trace::format::DataFormat;
use accelflow::trace::ir::{PathStep, Slot, Trace};
use accelflow::trace::kind::AccelKind;
use accelflow::trace::packed;

const CASES: usize = 256;

fn gen_kind(rng: &mut SimRng) -> AccelKind {
    AccelKind::from_id(rng.index(9) as u8).unwrap()
}

fn gen_kinds(rng: &mut SimRng, lo: usize, hi: usize) -> Vec<AccelKind> {
    let n = lo + rng.index(hi - lo);
    (0..n).map(|_| gen_kind(rng)).collect()
}

fn gen_cond(rng: &mut SimRng) -> BranchCond {
    match rng.index(6) {
        0 => BranchCond::Compressed,
        1 => BranchCond::Hit,
        2 => BranchCond::Found,
        3 => BranchCond::Exception,
        4 => BranchCond::CacheCompressed,
        _ => {
            let mask = rng.index(256) as u8;
            let expect = rng.index(256) as u8 & mask;
            BranchCond::Custom { mask, expect }
        }
    }
}

fn gen_format(rng: &mut SimRng) -> DataFormat {
    DataFormat::from_code(rng.index(5) as u8).unwrap()
}

fn gen_flags(rng: &mut SimRng) -> PayloadFlags {
    let bits = rng.index(256) as u8;
    PayloadFlags {
        compressed: bits & 1 != 0,
        hit: bits & 2 != 0,
        found: bits & 4 != 0,
        exception: bits & 8 != 0,
        cache_compressed: bits & 16 != 0,
        custom_field: rng.index(256) as u8,
    }
}

/// Builds a random but *valid* trace through the builder API: random
/// sequences, an optional branch with random arms, random transforms.
fn gen_trace(rng: &mut SimRng) -> Trace {
    let pre = gen_kinds(rng, 1, 5);
    let branch = if rng.chance(0.5) {
        Some((gen_cond(rng), gen_kinds(rng, 0, 3), gen_kinds(rng, 0, 3)))
    } else {
        None
    };
    let trans = if rng.chance(0.5) {
        Some((gen_format(rng), gen_format(rng)))
    } else {
        None
    };
    let post = gen_kinds(rng, 0, 4);
    let terminal = rng.index(3);
    let atm = rng.index(64) as u16;

    let mut b = TraceBuilder::new("prop").seq(pre);
    if let Some((cond, t_arm, f_arm)) = branch {
        b = b.branch(cond, move |bb| bb.seq(t_arm), move |bb| bb.seq(f_arm));
    }
    if let Some((src, dst)) = trans {
        b = b.trans(src, dst);
    }
    b = b.seq(post);
    match terminal {
        0 => b.to_cpu().build(),
        1 => b.next_trace(AtmAddr(atm)).build(),
        _ => b.build(), // implicit ToCpu at end
    }
}

/// Packed encoding round-trips every builder-constructed trace.
#[test]
fn packed_roundtrip() {
    let mut rng = SimRng::seed(0xA11CE);
    for case in 0..CASES {
        let trace = gen_trace(&mut rng);
        let bytes = packed::pack(&trace).expect("builder traces pack");
        let back = packed::unpack(trace.name(), &bytes).expect("unpack");
        assert_eq!(back.slots(), trace.slots(), "case {case}");
    }
}

/// Every flag assignment resolves to a terminating path whose
/// accelerator count is bounded by the static count.
#[test]
fn all_paths_terminate() {
    let mut rng = SimRng::seed(0xB0B);
    for case in 0..CASES {
        let trace = gen_trace(&mut rng);
        let flags = gen_flags(&mut rng);
        let path = trace.resolve_path(&flags);
        let accels = path
            .iter()
            .filter(|s| matches!(s, PathStep::Accel(_)))
            .count();
        assert!(accels <= trace.accelerator_count(), "case {case}");
        // The path ends at the CPU or chains to the ATM.
        assert!(
            matches!(path.last(), Some(PathStep::Cpu) | Some(PathStep::Chain(_))),
            "case {case}"
        );
    }
}

/// `all_paths` covers every path `resolve_path` can produce.
#[test]
fn all_paths_is_exhaustive() {
    let mut rng = SimRng::seed(0xC0FFEE);
    let mut checked = 0;
    while checked < CASES {
        let trace = gen_trace(&mut rng);
        let flags = gen_flags(&mut rng);
        // Custom conditions depend on custom_field, which all_paths
        // fixes at zero, so restrict to traces without custom conds.
        let has_custom = trace.slots().iter().any(|s| {
            matches!(
                s,
                Slot::Branch {
                    cond: BranchCond::Custom { .. },
                    ..
                }
            )
        });
        if has_custom {
            continue;
        }
        checked += 1;
        let flags = PayloadFlags {
            custom_field: 0,
            ..flags
        };
        let path = trace.resolve_path(&flags);
        assert!(trace.all_paths().contains(&path), "case {checked}");
    }
}

/// Histogram percentiles are monotone and bracketed by min/max.
#[test]
fn histogram_percentiles_monotone() {
    let mut rng = SimRng::seed(0xD00D);
    for case in 0..CASES {
        let n = 1 + rng.index(199);
        let values: Vec<u64> = (0..n)
            .map(|_| (rng.uniform() * 1_000_000_000.0) as u64)
            .collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= last, "case {case} p{p}: {v} < {last}");
            last = v;
        }
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        assert!(h.percentile(0.0) >= lo, "case {case}");
        assert!(h.percentile(100.0) <= hi.max(lo), "case {case}");
    }
}

/// Histogram count/mean are exact regardless of bucketing.
#[test]
fn histogram_count_and_mean_exact() {
    let mut rng = SimRng::seed(0xE66);
    for case in 0..CASES {
        let n = 1 + rng.index(99);
        let values: Vec<u64> = (0..n).map(|_| rng.index(1_000_000) as u64).collect();
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        assert_eq!(h.count(), values.len() as u64, "case {case}");
        let exact = values.iter().sum::<u64>() as f64 / values.len() as f64;
        assert!((h.mean() - exact).abs() < 1e-6, "case {case}");
    }
}

/// Time arithmetic: (t + a) + b == (t + b) + a and subtraction
/// inverts addition.
#[test]
fn time_arithmetic_laws() {
    let mut rng = SimRng::seed(0xF00);
    for case in 0..CASES {
        let t = (rng.uniform() * (1u64 << 50) as f64) as u64;
        let a = (rng.uniform() * (1u64 << 40) as f64) as u64;
        let b = (rng.uniform() * (1u64 << 40) as f64) as u64;
        let t0 = SimTime::from_picos(t);
        let da = SimDuration::from_picos(a);
        let db = SimDuration::from_picos(b);
        assert_eq!((t0 + da) + db, (t0 + db) + da, "case {case}");
        assert_eq!((t0 + da) - t0, da, "case {case}");
        assert_eq!(da + db - db, da, "case {case}");
    }
}

/// Cycle conversions are consistent across frequencies.
#[test]
fn frequency_conversion_consistency() {
    let mut rng = SimRng::seed(0x1CE);
    for case in 0..CASES {
        let cycles = rng.uniform_range(1.0, 1e9);
        let ghz = rng.uniform_range(0.5, 6.0);
        let f = Frequency::from_ghz(ghz);
        let d = f.cycles(cycles);
        let back = f.cycles_in(d);
        assert!((back - cycles).abs() / cycles < 1e-6, "case {case}");
    }
}

/// Branch conditions partition: for any flags, exactly one arm of
/// a branch is taken, and the packed trace resolves identically.
#[test]
fn packed_trace_resolves_identically() {
    let mut rng = SimRng::seed(0x2DA);
    for case in 0..CASES {
        let trace = gen_trace(&mut rng);
        let flags = gen_flags(&mut rng);
        let bytes = packed::pack(&trace).expect("packs");
        let back = packed::unpack(trace.name(), &bytes).expect("unpacks");
        assert_eq!(
            back.resolve_path(&flags),
            trace.resolve_path(&flags),
            "case {case}"
        );
    }
}

/// Accelerator IDs pack into 4 bits and are unique.
#[test]
fn accelerator_ids_unique() {
    let ids: HashSet<u8> = AccelKind::ALL.iter().map(|k| k.id()).collect();
    assert_eq!(ids.len(), AccelKind::COUNT);
    assert!(ids.iter().all(|&i| i < 16));
}

mod workload_properties {
    use super::*;
    use accelflow::core::request::{sample_call, CallSpec, SegmentEnd};
    use accelflow::trace::templates::{TemplateId, TraceLibrary};

    /// Sampled calls are well-formed for every template, payload
    /// scale, and flag mix: payload sizes chain hop to hop, glue
    /// costs respect the dispatcher floor, and only the final
    /// segment lacks a successor.
    #[test]
    fn sampled_calls_are_well_formed() {
        let lib = TraceLibrary::standard();
        let mut rng = SimRng::seed(0x3AB);
        for case in 0..CASES {
            let template = TemplateId::ALL[rng.index(12)];
            let median = rng.uniform_range(128.0, 16_384.0);
            let compressed = rng.uniform();
            let hit = rng.uniform();
            let seed = rng.index(5_000) as u64;

            let mut call_rng = SimRng::seed(seed);
            let mut spec = CallSpec::new(template);
            spec.payload = accelflow::core::request::SizeDist::new(median, 0.6, 1 << 20);
            spec.flags.compressed = compressed;
            spec.flags.hit = hit;
            let program = sample_call(&lib, &mut call_rng, &spec, 0x4200_0000);
            let call = program.calls().next().expect("one call");

            assert!(call.segment_count() > 0, "case {case}");
            for (si, seg) in call.segments().enumerate() {
                let hops: Vec<_> = seg.hops().collect();
                assert!(!hops.is_empty(), "case {case} {template} segment {si}");
                for w in hops.windows(2) {
                    assert_eq!(w[0].out_bytes, w[1].in_bytes, "case {case}: sizes chain");
                }
                for hop in hops {
                    assert!(hop.glue_instrs >= 15, "case {case}: dispatcher floor");
                    assert!(hop.in_bytes >= 1, "case {case}");
                }
                let last = si + 1 == call.segment_count();
                match seg.end {
                    SegmentEnd::ToCpu => assert!(last, "case {case}: ToCpu must be final"),
                    SegmentEnd::Continue | SegmentEnd::AwaitResponse { .. } => {
                        assert!(!last, "case {case}: chain needs a successor")
                    }
                }
            }
        }
    }

    /// Trace synthesis round-trips randomly generated observation
    /// sets whose divergences are flag-separable.
    #[test]
    fn compiler_reproduces_observations() {
        use accelflow::trace::compiler::{synthesize, ObservedPath};
        let mut rng = SimRng::seed(0x4CC);
        for case in 0..CASES {
            let common_len = 1 + rng.index(3);
            let extra = gen_kinds(&mut rng, 1, 3);
            let common: Vec<AccelKind> = (0..common_len).map(|i| AccelKind::ALL[i % 9]).collect();
            let short = PayloadFlags::default();
            let long = PayloadFlags {
                compressed: true,
                ..Default::default()
            };
            let mut long_path = common.clone();
            long_path.extend(extra.iter().copied());
            let trace = synthesize(
                "prop",
                &[
                    ObservedPath::new(short, common.clone()),
                    ObservedPath::new(long, long_path.clone()),
                ],
            )
            .unwrap();
            let count = |flags: &PayloadFlags| {
                trace
                    .resolve_path(flags)
                    .iter()
                    .filter(|s| matches!(s, PathStep::Accel(_)))
                    .count()
            };
            assert_eq!(count(&short), common.len(), "case {case}");
            assert_eq!(count(&long), long_path.len(), "case {case}");
        }
    }
}

/// Decoding arbitrary bytes never panics: it yields a valid trace
/// or a structured error (untrusted-input safety).
#[test]
fn unpack_never_panics() {
    let mut rng = SimRng::seed(0x5EED);
    for case in 0..4 * CASES {
        let len = rng.index(64);
        let bytes: Vec<u8> = (0..len).map(|_| rng.index(256) as u8).collect();
        if let Ok(trace) = packed::unpack("fuzz", &bytes) {
            // Whatever decoded must itself be valid and re-packable.
            assert!(trace.validate().is_ok(), "case {case}");
            assert!(packed::pack(&trace).is_ok(), "case {case}");
        }
    }
}
