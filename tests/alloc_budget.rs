//! Heap-block budget of sampled programs.
//!
//! A sampled [`Program`] keeps only what sampling drew: small records
//! for its steps and calls in one exact-size slice and one record per
//! segment in another, behind one shared header. A segment refers to
//! its trace walk, interned once per thread and shared, and the walk to
//! the trace library's shared traces. So, whatever its shape, a program
//! owns at most [`BLOCKS`] heap blocks, its bytes do not grow with its
//! hop count, and cloning an arrival allocates nothing: the clone
//! shares the program. Once a thread has taken a walk, sampling it
//! again allocates nothing the program does not keep, and each record
//! has a fixed byte size. This binary counts heap blocks and bytes with
//! its own global allocator to hold these bounds, and checks that
//! sampled segments share walks and the library's `Arc<Trace>`s.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use accelflow::accel::queue::TenantId;
use accelflow::core::request::{CallSpec, FlagProbs, Program, ServiceSpec, StageSpec};
use accelflow::core::{Arrival, ServiceId};
use accelflow::sim::rng::SimRng;
use accelflow::sim::time::SimTime;
use accelflow::trace::ir::{Slot, Trace};
use accelflow::trace::kind::AccelKind;
use accelflow::trace::templates::{TemplateId, TraceLibrary};
use accelflow::workloads::socialnetwork;

/// Heap blocks one program may own.
const BLOCKS: i64 = 3;

/// Heap bytes a program may own: its shared header, then per segment
/// and per call or step. Hops cost nothing: their walk is shared.
const HEADER_BYTES: i64 = 72;
const SEGMENT_BYTES: i64 = 24;
const CALL_OR_STEP_BYTES: i64 = 16;

thread_local! {
    /// Allocations (reallocations included) made by this thread.
    static ALLOCS: Cell<i64> = const { Cell::new(0) };
    /// Heap blocks this thread allocated minus those it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Heap bytes this thread allocated minus those it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting per thread so the test harness's
/// other threads do not disturb a measurement.
struct Counting;

fn bump(allocs: i64, live: i64, bytes: i64) {
    // Counters are const-initialized without destructors, so access
    // never allocates; `try_with` only fails during thread teardown.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LIVE.try_with(|c| c.set(c.get() + live));
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
}

fn size(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("allocation size fits i64")
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(1, 1, size(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(1, 1, size(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(0, -1, -size(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(1, 0, size(new_size) - size(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result with the allocations it made and the
/// heap blocks and bytes it left live.
fn counted<R>(f: impl FnOnce() -> R) -> (R, i64, i64, i64) {
    let read = || {
        (
            ALLOCS.with(Cell::get),
            LIVE.with(Cell::get),
            LIVE_BYTES.with(Cell::get),
        )
    };
    let (a0, l0, b0) = read();
    let out = f();
    let (a1, l1, b1) = read();
    (out, a1 - a0, l1 - l0, b1 - b0)
}

/// A T4 read that misses the DB cache and finds the record: T4 → T5 →
/// T6 → T7, four chained segments.
fn miss_chain() -> CallSpec {
    CallSpec::new(TemplateId::T4).with_flags(FlagProbs {
        hit: 0.0,
        found: 1.0,
        exception: 0.0,
        ..FlagProbs::default()
    })
}

fn budget_cases() -> Vec<ServiceSpec> {
    let mut cases = socialnetwork::all();
    cases.push(ServiceSpec::new(
        "fan-out",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 8]),
            StageSpec::Call(CallSpec::new(TemplateId::T2)),
        ],
    ));
    cases.push(ServiceSpec::new(
        "miss-chain",
        vec![StageSpec::Call(miss_chain())],
    ));
    cases
}

/// Samples 20 programs of each case from `seed`, as the tests then
/// sample them again under count: the first samples on a thread size
/// the sampler's reusable staging lists and intern the walks they take,
/// so the same draws again cost only each program's own blocks.
fn warm_up(cases: &[ServiceSpec], seed: u64) {
    let lib = TraceLibrary::standard();
    let mut rng = SimRng::seed(seed);
    for svc in cases {
        for i in 0..20u64 {
            let _ = svc.sample(&lib, &mut rng, i << 24);
        }
    }
}

#[test]
fn a_sampled_program_owns_at_most_three_blocks() {
    let lib = TraceLibrary::standard();
    let cases = budget_cases();
    warm_up(&cases, 3);
    let mut rng = SimRng::seed(3);
    for svc in cases {
        for i in 0..20u64 {
            let (program, _, live, _) = counted(|| svc.sample(&lib, &mut rng, i << 24));
            assert!(
                live <= BLOCKS,
                "{}: a sampled program holds {live} heap blocks",
                svc.name
            );
            let ((), _, freed, _) = counted(|| drop(program));
            assert_eq!(freed, -live, "{}: dropping frees every block", svc.name);
        }
    }
}

#[test]
fn sampling_allocates_only_what_it_keeps() {
    let lib = TraceLibrary::standard();
    let cases = budget_cases();
    warm_up(&cases, 13);
    let mut rng = SimRng::seed(13);
    for svc in &cases {
        for i in 0..20u64 {
            let (program, allocs, live, bytes) = counted(|| svc.sample(&lib, &mut rng, i << 24));
            assert_eq!(
                allocs, live,
                "{}: sampling made {allocs} allocations but keeps {live} blocks",
                svc.name
            );
            let count = |n: usize| i64::try_from(n).expect("count fits i64");
            let segments: usize = program.calls().map(|c| c.segment_count()).sum();
            let budget = HEADER_BYTES
                + SEGMENT_BYTES * count(segments)
                + CALL_OR_STEP_BYTES * count(program.calls().len() + program.step_count());
            assert!(
                bytes <= budget,
                "{}: a sampled program holds {bytes} heap bytes, budget {budget}",
                svc.name
            );
        }
    }
}

#[test]
fn budget_cases_reach_their_shapes() {
    let lib = TraceLibrary::standard();
    let mut rng = SimRng::seed(5);
    let cases = budget_cases();
    let fan_out = cases[cases.len() - 2].sample(&lib, &mut rng, 0);
    assert_eq!(fan_out.calls().len(), 10, "T1, eight T9 arms, T2");
    let chain = cases[cases.len() - 1].sample(&lib, &mut rng, 0);
    let call = chain.calls().next().expect("one call");
    assert_eq!(call.segment_count(), 4, "T4 → T5 → T6 → T7");
}

#[test]
fn cloning_an_arrival_allocates_nothing() {
    let lib = TraceLibrary::standard();
    let mut rng = SimRng::seed(7);
    for svc in budget_cases() {
        let arrival = Arrival {
            at: SimTime::ZERO,
            service: ServiceId(0),
            tenant: TenantId(0),
            program: svc.sample(&lib, &mut rng, 0),
        };
        let (copy, allocs, _, _) = counted(|| arrival.clone());
        assert_eq!(allocs, 0, "{}: clone made {allocs} allocations", svc.name);
        assert_eq!(
            copy.program.accelerator_invocations(),
            arrival.program.accelerator_invocations()
        );
    }
}

/// The traces of a program's single call, segment by segment.
fn segment_traces(program: &Program) -> Vec<Arc<Trace>> {
    let call = program.calls().next().expect("one call");
    call.segments().map(|s| Arc::clone(s.trace)).collect()
}

fn sample_one(lib: &TraceLibrary, spec: CallSpec) -> Program {
    let svc = ServiceSpec::new("one", vec![StageSpec::Call(spec)]);
    svc.sample(lib, &mut SimRng::seed(11), 0)
}

#[test]
fn sampled_segments_share_the_library_traces() {
    let lib = TraceLibrary::standard();
    let resident = |id: TemplateId| lib.atm().peek(lib.addr(id).expect("ATM-resident"));

    // Template entries.
    let t1 = segment_traces(&sample_one(&lib, CallSpec::new(TemplateId::T1)));
    assert!(Arc::ptr_eq(&t1[0], lib.entry(TemplateId::T1)));

    // Cmp variants, and the response trace they arm in the ATM.
    let t9 = segment_traces(&sample_one(
        &lib,
        CallSpec::new(TemplateId::T9).with_cmp_prob(1.0),
    ));
    assert!(Arc::ptr_eq(&t9[0], lib.entry_with_cmp(TemplateId::T9)));
    assert!(!Arc::ptr_eq(&t9[0], lib.entry(TemplateId::T9)));
    assert!(Arc::ptr_eq(&t9[1], resident(TemplateId::T10).unwrap()));

    // ATM chain targets: T5, T6 and T7 come straight from the ATM, and
    // are the very traces the library lists as those templates.
    let chain = segment_traces(&sample_one(&lib, miss_chain()));
    assert!(Arc::ptr_eq(&chain[0], lib.entry(TemplateId::T4)));
    for (seg, id) in chain[1..]
        .iter()
        .zip([TemplateId::T5, TemplateId::T6, TemplateId::T7])
    {
        assert!(Arc::ptr_eq(seg, resident(id).unwrap()), "{id}");
        assert!(Arc::ptr_eq(seg, lib.entry(id)), "{id}");
    }

    // Every copy of the standard library shares the same traces.
    let other = TraceLibrary::standard();
    for id in TemplateId::ALL {
        assert!(Arc::ptr_eq(lib.entry(id), other.entry(id)), "{id}");
    }
}

#[test]
fn one_walk_is_one_shape_and_hops_cost_no_bytes() {
    // A fresh thread has interned no walk.
    std::thread::spawn(|| {
        let lib = TraceLibrary::standard();
        let t1 = |compressed: f64| {
            let spec = CallSpec::new(TemplateId::T1).with_flags(FlagProbs {
                compressed,
                ..FlagProbs::default()
            });
            ServiceSpec::new("t1", vec![StageSpec::Call(spec)])
        };
        // One seed draws the same flags each time.
        let sample = |svc: &ServiceSpec| counted(|| svc.sample(&lib, &mut SimRng::seed(1), 0));
        // The first T1 walk allocates its shape as well as the program;
        // a second program over the same trace and flags allocates only
        // its own blocks.
        let (_, first_allocs, _, _) = sample(&t1(0.0));
        let (second, allocs, live, bytes) = sample(&t1(0.0));
        assert!(first_allocs > BLOCKS, "the first walk interns a shape");
        assert_eq!((allocs, live), (BLOCKS, BLOCKS), "the second shares it");
        // A compressed T1 walks one hop more (Dcmp), into one record
        // of the same size.
        let _ = sample(&t1(1.0));
        let (longer, _, live_longer, bytes_longer) = sample(&t1(1.0));
        assert_eq!(
            longer.accelerator_invocations(),
            second.accelerator_invocations() + 1
        );
        assert_eq!((live_longer, bytes_longer), (live, bytes));
    })
    .join()
    .expect("the sampling thread finishes");
}

#[test]
fn walks_no_program_holds_are_dropped() {
    // Each sample walks a fresh custom trace, as programs decoded from
    // snapshots or loaded from config do: every walk is a new shape.
    std::thread::spawn(|| {
        let lib = TraceLibrary::standard();
        let sample_fresh = || {
            let trace = Trace::new("fresh", vec![Slot::Accel(AccelKind::Ser)]);
            let svc = ServiceSpec::new("fresh", vec![StageSpec::Call(CallSpec::custom(trace))]);
            drop(svc.sample(&lib, &mut SimRng::seed(1), 0));
        };
        let ((), _, _, first) = counted(|| (0..1_000).for_each(|_| sample_fresh()));
        assert!(first > 0, "a thread keeps the shapes it walked");
        // Twenty times as many walks keep a bounded table, not twenty
        // times the bytes.
        let ((), _, _, more) = counted(|| (0..20_000).for_each(|_| sample_fresh()));
        assert!(more < 4 * first, "{more} B kept after {first} B");
    })
    .join()
    .expect("the sampling thread finishes");
}
