//! Unit tests of program sampling, addressing and the wire form.

use super::*;
use crate::request::{CyclesDist, FlagProbs};
use accelflow_trace::templates::TemplateId;

fn fixtures() -> (TraceLibrary, SimRng) {
    (TraceLibrary::standard(), SimRng::seed(42))
}

/// The only call of a [`sample_call`] program.
fn only_call(program: &Program) -> CallView<'_> {
    assert_eq!(program.step_count(), 1);
    program.call(0, 0)
}

#[test]
fn t1_call_has_single_segment() {
    let (lib, mut rng) = fixtures();
    let spec = CallSpec::new(TemplateId::T1);
    let program = sample_call(&lib, &mut rng, &spec, 0x10000);
    let call = only_call(&program);
    assert_eq!(call.segment_count(), 1);
    let seg = call.segment(0);
    assert!(seg.entry_is_network);
    assert_eq!(seg.end, SegmentEnd::ToCpu);
    // Tcp, Decr, Rpc, Dser, [Dcmp], Ldb.
    assert!(seg.hop_count() == 5 || seg.hop_count() == 6);
    assert_eq!(seg.mark(0).0, AccelKind::Tcp);
    assert_eq!(seg.hops().last().unwrap().kind, AccelKind::Ldb);
}

#[test]
fn t4_call_chains_through_responses() {
    let (lib, mut rng) = fixtures();
    let spec = CallSpec::new(TemplateId::T4).with_flags(FlagProbs {
        hit: 1.0, // always hits the DB cache
        ..FlagProbs::default()
    });
    let program = sample_call(&lib, &mut rng, &spec, 0x10000);
    let call = only_call(&program);
    // T4 (send) + T5 (response): two segments.
    assert_eq!(call.segment_count(), 2);
    assert!(
        matches!(call.segment(0).end, SegmentEnd::AwaitResponse { external } if external > SimDuration::ZERO)
    );
    assert!(!call.segment(0).entry_is_network);
    assert!(call.segment(1).entry_is_network);
    assert_eq!(call.segment(1).end, SegmentEnd::ToCpu);
}

#[test]
fn t4_miss_path_reaches_t6_and_t7() {
    let (lib, mut rng) = fixtures();
    let spec = CallSpec::new(TemplateId::T4).with_flags(FlagProbs {
        hit: 0.0,
        found: 1.0,
        exception: 0.0,
        ..FlagProbs::default()
    });
    let program = sample_call(&lib, &mut rng, &spec, 0x10000);
    let call = only_call(&program);
    // T4 → T5(miss→send to DB) → T6(found→write cache) → T7.
    assert_eq!(call.segment_count(), 4);
    let waits: Vec<bool> = call
        .segments()
        .map(|s| matches!(s.end, SegmentEnd::AwaitResponse { .. }))
        .collect();
    assert_eq!(waits, vec![true, true, true, false]);
    // T6's fork hands the data to the CPU mid-trace.
    assert!(call.segment(2).hops().any(|h| h.fork_after));
}

#[test]
fn error_chain_continues_immediately() {
    let (lib, mut rng) = fixtures();
    let spec = CallSpec::new(TemplateId::T8).with_flags(FlagProbs {
        exception: 1.0,
        ..FlagProbs::default()
    });
    let program = sample_call(&lib, &mut rng, &spec, 0);
    let call = only_call(&program);
    // T8 (send) → T7 (response, exception) → error trace (immediate).
    assert_eq!(call.segment_count(), 3);
    assert_eq!(call.segment(1).end, SegmentEnd::Continue);
    assert_eq!(call.segment(2).end, SegmentEnd::ToCpu);
    assert_eq!(call.segment(2).hop_count(), 4);
}

#[test]
fn payload_sizes_flow_through_hops() {
    let (lib, mut rng) = fixtures();
    let spec = CallSpec::new(TemplateId::T9).with_cmp_prob(1.0);
    let program = sample_call(&lib, &mut rng, &spec, 0);
    let seg = only_call(&program).segment(0);
    let hops: Vec<HopExec> = seg.hops().collect();
    assert_eq!(hops[0].kind, AccelKind::Cmp);
    assert_eq!(hops[0].in_bytes, seg.entry_bytes());
    // Compression shrinks the payload ~3x before Ser.
    assert!(hops[1].in_bytes < hops[0].in_bytes / 2);
    for w in hops.windows(2) {
        assert_eq!(w[0].out_bytes, w[1].in_bytes, "sizes must chain");
    }
}

#[test]
fn glue_instructions_are_positive_and_bounded() {
    let (lib, mut rng) = fixtures();
    for template in TemplateId::ALL {
        let spec = CallSpec::new(template);
        let program = sample_call(&lib, &mut rng, &spec, 0);
        for hop in program.hops() {
            assert!(hop.glue_instrs >= 15, "{template}: {}", hop.glue_instrs);
            assert!(hop.glue_instrs <= 15 + 9 * 2 + 12 * 64 + 20, "{template}");
        }
    }
}

#[test]
fn program_counts_parallel_calls() {
    let (lib, mut rng) = fixtures();
    let svc = ServiceSpec::new(
        "toy",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            StageSpec::Cpu(CyclesDist::new(50_000.0, 0.2)),
            StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 4]),
            StageSpec::Call(CallSpec::new(TemplateId::T2)),
        ],
    );
    let program = svc.sample(&lib, &mut rng, 0);
    assert_eq!(program.step_count(), 4);
    assert_eq!(program.calls().len(), 6);
    // T1 (≥5) + 4×(T9+T10: ≥9 each) + T2 (4) ≥ 45.
    assert!(program.accelerator_invocations() >= 40);
    assert_eq!(
        program.accelerator_invocations(),
        program
            .calls()
            .flat_map(|c| c.segments())
            .map(|s| s.hop_count())
            .sum::<usize>()
    );
    assert!(program.app_cycles() > 0.0);
    // Arms keep their own buffers: step 2 arm j sits at (2 << 20) + (j << 16).
    for j in 0..4u8 {
        assert_eq!(program.call(2, j).vaddr(), (2 << 20) + ((j as u64) << 16));
    }
}

#[test]
fn call_addresses_resolve_to_their_hop() {
    let (lib, mut rng) = fixtures();
    let svc = ServiceSpec::new(
        "toy",
        vec![
            StageSpec::Cpu(CyclesDist::new(10_000.0, 0.2)),
            StageSpec::Parallel(vec![CallSpec::new(TemplateId::T4); 3]),
            StageSpec::Call(CallSpec::new(TemplateId::T9)),
        ],
    );
    let program = svc.sample(&lib, &mut rng, 0);
    // Walking every address in path order visits the flat hop slice
    // in order, each hop exactly once.
    let mut flat = program.hops();
    for step in 1..program.step_count() as u8 {
        let Step::Calls { calls, .. } = program.step(step as usize) else {
            unreachable!()
        };
        for par in 0..calls.len() as u8 {
            let call = program.call(step, par);
            for seg in 0..call.segment_count() as u8 {
                let view = call.segment(seg as usize);
                for hop in 0..view.hop_count() as u8 {
                    let addr = CallAddr {
                        req: 0,
                        step,
                        par,
                        seg,
                        hop,
                    };
                    let expected = flat.next().unwrap();
                    assert_eq!(program.walk_in_bytes(addr), Some(expected.in_bytes));
                    assert_eq!(
                        program.segment(addr).mark(hop as usize),
                        (expected.kind, expected.pm)
                    );
                }
                let past = CallAddr {
                    req: 0,
                    step,
                    par,
                    seg,
                    hop: view.hop_count() as u8,
                };
                assert_eq!(program.walk_in_bytes(past), None);
            }
            let past = CallAddr {
                req: 0,
                step,
                par,
                seg: call.segment_count() as u8,
                hop: 0,
            };
            assert_eq!(program.walk_in_bytes(past), None);
        }
    }
    assert!(flat.next().is_none());
    // Neither a CPU step, an arm past the fan-out nor a step past the
    // program is a hop.
    for (step, par) in [(0, 0), (1, 3), (3, 0), (u8::MAX, 0)] {
        let addr = CallAddr {
            req: 0,
            step,
            par,
            seg: 0,
            hop: 0,
        };
        assert_eq!(program.walk_in_bytes(addr), None, "step {step} arm {par}");
    }
}

#[test]
fn sampling_is_deterministic_per_seed() {
    let (lib, _) = fixtures();
    let spec = CallSpec::new(TemplateId::T4);
    let a = sample_call(&lib, &mut SimRng::seed(9), &spec, 0);
    let b = sample_call(&lib, &mut SimRng::seed(9), &spec, 0);
    let (a, b) = (only_call(&a), only_call(&b));
    assert_eq!(a.segment_count(), b.segment_count());
    for (sa, sb) in a.segments().zip(b.segments()) {
        assert_eq!(sa.hop_count(), sb.hop_count());
        for (ha, hb) in sa.hops().zip(sb.hops()) {
            assert_eq!(ha.in_bytes, hb.in_bytes);
        }
    }
}

#[test]
fn wire_form_round_trips() {
    let (lib, mut rng) = fixtures();
    let svc = ServiceSpec::new(
        "toy",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            StageSpec::Parallel(vec![CallSpec::new(TemplateId::T4)]),
            StageSpec::Cpu(CyclesDist::new(10_000.0, 0.2)),
            StageSpec::Parallel(vec![CallSpec::new(TemplateId::T8); 2]),
        ],
    );
    let program = svc.sample(&lib, &mut rng, 0x4000);
    let mut w = SnapWriter::new();
    program.save(&mut w);
    let bytes = w.into_bytes();
    let back = Program::load(&mut SnapReader::new(&bytes)).unwrap();
    let mut again = SnapWriter::new();
    back.save(&mut again);
    assert_eq!(again.into_bytes(), bytes);
    assert_eq!(back.records.recs, program.records.recs);
    // A one-arm Parallel stage keeps its own tag.
    assert!(matches!(back.step(1), Step::Calls { parallel: true, .. }));
}

fn save_bytes<T: Snapshot>(value: &T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    value.save(&mut w);
    w.into_bytes()
}

#[test]
fn load_rejects_hop_sizes_that_do_not_chain() {
    let (lib, mut rng) = fixtures();
    let program = sample_call(&lib, &mut rng, &CallSpec::new(TemplateId::T1), 0);
    let mut bytes = save_bytes(&program);
    // Patch the saved `in_bytes` of hop 1, found by its encoding.
    let hop = only_call(&program).segment(0).hops().nth(1).unwrap();
    let (good, bad) = (
        save_bytes(&hop),
        save_bytes(&HopExec {
            in_bytes: hop.in_bytes + 1,
            ..hop
        }),
    );
    let at = bytes
        .windows(good.len())
        .position(|w| w == good)
        .expect("hop 1 is in the program's bytes");
    bytes[at..at + bad.len()].copy_from_slice(&bad);
    match Program::load(&mut SnapReader::new(&bytes)) {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("hop 1"), "{msg}"),
        other => panic!("expected a corrupt-snapshot error, got {other:?}"),
    }
}

#[test]
fn load_shares_library_traces_and_keeps_custom_ones() {
    use accelflow_trace::ir::Slot;
    let (lib, mut rng) = fixtures();
    let custom = Trace::new(
        "custom",
        vec![Slot::Accel(AccelKind::Ser), Slot::Accel(AccelKind::Cmp)],
    );
    let svc = ServiceSpec::new(
        "toy",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T4)),
            StageSpec::Call(CallSpec::custom(custom.clone())),
        ],
    );
    let program = svc.sample(&lib, &mut rng, 0);
    let bytes = save_bytes(&program);
    let back = Program::load(&mut SnapReader::new(&bytes)).unwrap();
    let mut calls = back.calls();
    let t4 = calls.next().unwrap();
    assert!(Arc::ptr_eq(t4.segment(0).trace, lib.entry(TemplateId::T4)));
    let resident = lib.atm().peek(lib.addr(TemplateId::T5).unwrap()).unwrap();
    assert!(Arc::ptr_eq(t4.segment(1).trace, resident));
    let restored = calls.next().unwrap().segment(0);
    assert_eq!(**restored.trace, custom);
    assert!(TraceLibrary::standard_shared(restored.trace).is_none());
    assert_eq!(save_bytes(&back), bytes);
}

#[test]
fn a_clone_and_a_rebase_share_the_records() {
    let (lib, mut rng) = fixtures();
    let program = three_steps().sample(&lib, &mut rng, 3 << 24);
    let copy = program.clone();
    assert!(Arc::ptr_eq(&copy.records, &program.records));
    let moved = program.rebased(5 << 24);
    assert!(Arc::ptr_eq(&moved.records, &program.records));
    for (a, b) in program.calls().zip(moved.calls()) {
        assert_eq!(b.vaddr() - a.vaddr(), 2 << 24);
    }
    // The rebased handle writes what sampling at its base writes.
    let fresh = three_steps().sample(&lib, &mut SimRng::seed(42), 5 << 24);
    assert_eq!(save_bytes(&moved), save_bytes(&fresh));
}

#[test]
fn load_rejects_a_call_off_its_programs_base() {
    let (lib, mut rng) = fixtures();
    let program = three_steps().sample(&lib, &mut rng, 0x4000);
    let mut bytes = save_bytes(&program);
    // The last call's address closes the record, before the slack
    // (one `None` byte) and the priority byte.
    let last = program.calls().last().unwrap().vaddr();
    let at = bytes.len() - 2 - 8;
    assert_eq!(bytes[at..at + 8], save_bytes(&last)[..]);
    bytes[at..at + 8].copy_from_slice(&save_bytes(&(last + 1)));
    match Program::load(&mut SnapReader::new(&bytes)) {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("base"), "{msg}"),
        other => panic!("expected a corrupt-snapshot error, got {other:?}"),
    }
}

/// Two call steps around a CPU step, the second a two-arm fan-out.
fn three_steps() -> ServiceSpec {
    ServiceSpec::new(
        "toy",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            StageSpec::Cpu(CyclesDist::new(10_000.0, 0.2)),
            StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 2]),
        ],
    )
}

#[test]
fn one_walk_is_one_shared_shape() {
    let (lib, mut rng) = fixtures();
    // Every flag drawn as 0 or 1, so every sample takes the same walks
    // from its own payload and delay draws.
    let spec = CallSpec::new(TemplateId::T4).with_flags(FlagProbs {
        compressed: 0.0,
        hit: 1.0,
        found: 1.0,
        exception: 0.0,
        cache_compressed: 0.0,
    });
    let a = sample_call(&lib, &mut rng, &spec, 0);
    let b = sample_call(&lib, &mut rng, &spec, 0);
    let (ra, rb) = (&a.records.segments, &b.records.segments);
    assert_eq!(ra.len(), 2, "T4 → T5");
    for (sa, sb) in ra.iter().zip(rb.iter()) {
        assert!(Arc::ptr_eq(&sa.shape, &sb.shape));
    }
    assert_ne!(ra[0].entry_bytes, rb[0].entry_bytes, "payloads are drawn");
    // A segment's first hop takes its own entry size.
    let first = only_call(&a).segment(0).hops().next().unwrap();
    assert_eq!(first.in_bytes, ra[0].entry_bytes);
}

#[test]
fn load_rejects_a_glue_count_off_the_walk() {
    let (lib, mut rng) = fixtures();
    let program = sample_call(&lib, &mut rng, &CallSpec::new(TemplateId::T1), 0);
    let mut bytes = save_bytes(&program);
    // Patch the saved glue count of hop 2, found by its encoding.
    let hop = only_call(&program).segment(0).hops().nth(2).unwrap();
    let (good, bad) = (
        save_bytes(&hop),
        save_bytes(&HopExec {
            glue_instrs: hop.glue_instrs + 1,
            ..hop
        }),
    );
    let at = bytes
        .windows(good.len())
        .position(|w| w == good)
        .expect("hop 2 is in the program's bytes");
    bytes[at..at + bad.len()].copy_from_slice(&bad);
    match Program::load(&mut SnapReader::new(&bytes)) {
        Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("hop 2"), "{msg}"),
        other => panic!("expected a corrupt-snapshot error, got {other:?}"),
    }
}

/// Every flag set [`FlagProbs::sample`] can draw.
fn every_flag_set() -> impl Iterator<Item = PayloadFlags> {
    (0..32u8).map(|bits| PayloadFlags {
        compressed: bits & 1 != 0,
        hit: bits & 2 != 0,
        found: bits & 4 != 0,
        exception: bits & 8 != 0,
        cache_compressed: bits & 16 != 0,
        custom_field: 0,
    })
}

#[test]
fn carried_reads_equal_the_walk() {
    // The machine's reads: the first hop takes the segment's entry
    // size, each later hop the size the one before produced, and a
    // hop's accelerator and Position Mark come from its mark. Over
    // every standard segment (each template's entries and every trace
    // a walk chains to, entered either way), every flag set and
    // payloads from one byte to one that saturates, they must equal
    // the chained walk field for field.
    let lib = TraceLibrary::standard();
    let mut shapes = Shapes::default();
    let mut traces: Vec<&Arc<Trace>> = TemplateId::ALL
        .iter()
        .flat_map(|&t| [lib.entry(t), lib.entry_with_cmp(t)])
        .collect();
    let sizes = [1, 2048, 1 << 20, u64::MAX - 7];
    let mut saturated = false;
    let mut visits = 0;
    let mut next = 0;
    while let Some(&trace) = traces.get(next) {
        next += 1;
        for flags in every_flag_set() {
            for network in [false, true] {
                let shape = shapes.intern(trace, flags, network);
                if let Some(addr) = shape.chain {
                    let target = lib.atm().peek(addr).expect("chain target is ATM-resident");
                    if !traces.iter().any(|t| Arc::ptr_eq(t, target)) {
                        traces.push(target);
                    }
                }
                for entry_bytes in sizes {
                    let rec = SegmentRec {
                        shape: Arc::clone(&shape),
                        entry_bytes,
                        external: SimDuration::ZERO,
                    };
                    let seg = view_segment(&rec);
                    let mut in_bytes = seg.entry_bytes();
                    for (i, walked) in seg.hops().enumerate() {
                        let read = seg.exec(i, in_bytes);
                        assert_eq!(
                            read,
                            walked,
                            "{} hop {i} from {entry_bytes} B",
                            trace.name()
                        );
                        assert_eq!(seg.mark(i), (walked.kind, walked.pm));
                        saturated |= read.out_bytes == u64::MAX;
                        in_bytes = read.out_bytes;
                        visits += 1;
                    }
                }
            }
        }
    }
    assert!(saturated, "no read saturated its output size");
    assert!(
        traces.len() > 2 * TemplateId::ALL.len(),
        "no walk chained past the entries"
    );
    assert!(visits > 10_000, "{visits} visits");
}
