//! Sampled request programs: immutable, shared, stored flat.
//!
//! A [`Program`] is a handle: the request's buffer base and an [`Arc`]
//! of the records sampling produced. Cloning a program, and so cloning
//! an [`Arrival`](crate::arrivals::Arrival), copies no record: a
//! common-random-number replay runs every design over one set of
//! records, and [`Program::rebased`] hands the same records out at
//! another buffer base.
//!
//! A program keeps only what sampling drew: each CPU step's cycles, the
//! call structure, and for each segment its shape, entry size and
//! external delay. The records are two exact-size boxed slices behind
//! one shared header, whatever the program's shape: its steps followed
//! by its trace calls, in one slice of 16-byte records, and its
//! segments, 24 bytes each. So a program owns three heap blocks, and
//! its size does not grow with its hop count.
//!
//! A segment's hops depend only on its trace, payload flags, entry and
//! entry size, and sampling draws no number while it walks a trace. So
//! the walk itself — each hop's accelerator, Position Mark and glue
//! actions, how the segment ends and where it chains — is a shared
//! shape, interned once per thread for each trace, flags and entry
//! (`program/shape.rs`), and sampling a segment is one lookup. Shapes refer to
//! the library's shared traces, the way a queue entry refers to a trace
//! resident in the ATM (paper §IV-A), so sampling copies no trace.
//!
//! Nothing that a reader can derive is stored. A call's payload buffers
//! sit at `base + (step << 20) + (par << 16)`, from the handle's base
//! and the call's place. A segment keeps only its entry size; every
//! later size travels with the work, the way the paper's queue entry
//! carries its payload (§IV-A). The machine hands each hop's input size
//! along — in the event that lands the payload, then at the PE that
//! runs it — and [`SegmentView::exec`] computes that one hop's output
//! size and glue count from it: the accelerator's output size, each
//! transform's ratio, then the glue count at the final size. So a hop
//! read costs O(1) whatever the hop's index. [`SegmentView::hops`]
//! chains the same arithmetic through a whole segment for readers that
//! want every visit. Readers get each [`HopExec`] by value.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use accelflow_sim::rng::SimRng;
use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};
use accelflow_sim::time::SimDuration;
use accelflow_trace::cond::PayloadFlags;
use accelflow_trace::ir::{PositionMark, Trace};
use accelflow_trace::kind::AccelKind;
use accelflow_trace::templates::TraceLibrary;

use super::{CallAddr, CallSpec, ServiceSpec, StageSpec};

mod shape;

use shape::{Shape, Shapes};

/// A run of records in the slice below: `first..first + len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    first: u32,
    len: u32,
}

impl Span {
    fn new(range: Range<usize>) -> Self {
        let first = u32::try_from(range.start).expect("program fits u32 indices");
        let len = u32::try_from(range.len()).expect("program fits u32 indices");
        Span { first, len }
    }

    fn range(self) -> Range<usize> {
        self.first as usize..self.first as usize + self.len as usize
    }

    pub(crate) fn len(self) -> usize {
        self.len as usize
    }
}

/// One stage of a sampled program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Step {
    /// Application logic: CPU cycles (before generation scaling).
    Cpu { cycles: f64 },
    /// Trace calls started together; the program joins before the next
    /// step. `parallel` records a `Parallel` stage, which keeps its own
    /// wire tag even with a single arm.
    Calls { calls: Span, parallel: bool },
}

/// One record of a program's step-and-call slice: a step, or a sampled
/// trace call with its chain of segments.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Rec {
    Step(Step),
    Call { segments: Span },
}

const _: () = assert!(std::mem::size_of::<Rec>() == 16);

/// The buffer offset of call `par` of step `step` from its program's
/// base: each step gets its own megabyte, each parallel arm its own
/// 64 KiB within it.
fn call_offset(step: usize, par: usize) -> u64 {
    ((step as u64) << 20).wrapping_add((par as u64) << 16)
}

/// What sampling drew for one segment: the walk it takes, the payload
/// size entering its first hop and, if it awaits a response, the
/// remote delay.
#[derive(Clone, Debug)]
struct SegmentRec {
    shape: Arc<Shape>,
    entry_bytes: u64,
    external: SimDuration,
}

const _: () = assert!(std::mem::size_of::<SegmentRec>() == 24);

/// One accelerator visit, as [`SegmentView::hops`] yields it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopExec {
    /// The accelerator.
    pub kind: AccelKind,
    /// The `Accel` slot in the trace (the Position Mark).
    pub pm: PositionMark,
    /// Payload size entering the hop.
    pub in_bytes: u64,
    /// Payload size leaving the hop (after any transform).
    pub out_bytes: u64,
    /// Output-dispatcher glue instructions after this hop.
    pub glue_instrs: u32,
    /// Branches the dispatcher resolves after this hop.
    pub branches_after: u8,
    /// Whether a data transformation follows this hop.
    pub transform_after: bool,
    /// Whether a copy is forked to the CPU after this hop.
    pub fork_after: bool,
}

/// How a segment ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegmentEnd {
    /// Deliver the result to the originating core.
    ToCpu,
    /// Chain to the next segment immediately (split subtrace, e.g. the
    /// error trace).
    Continue,
    /// Chain to the next segment after a remote response arrives.
    AwaitResponse {
        /// Sampled remote delay.
        external: SimDuration,
    },
}

/// A fully-sampled request: the concrete execution the machine runs.
///
/// A handle to immutable records, so a clone shares them. Read it
/// through [`Program::calls`] (or [`Program::hops`] for every
/// accelerator visit at once); the flat storage itself is private.
#[derive(Clone, Debug)]
pub struct Program {
    /// Base virtual address of the request's payload buffers.
    base: u64,
    records: Arc<Records>,
}

/// What sampling produced, shared by every handle to one program.
#[derive(Debug)]
struct Records {
    /// The steps, in path order, then the calls; a `Calls` step's span
    /// indexes the calls.
    recs: Box<[Rec]>,
    /// How many of `recs` are steps.
    steps: u32,
    segments: Box<[SegmentRec]>,
    slo_slack: Option<f64>,
    priority: u8,
}

const _: () = assert!(std::mem::size_of::<Records>() == 56);

impl Program {
    /// The same sampled records at buffer base `base`: the program a
    /// draw that numbered this request's buffer arena differently
    /// would have sampled. Copies no record.
    pub fn rebased(&self, base: u64) -> Program {
        Program {
            base,
            records: Arc::clone(&self.records),
        }
    }

    /// Soft-SLO slack factor carried from the spec.
    pub fn slo_slack(&self) -> Option<f64> {
        self.records.slo_slack
    }

    /// Priority tag carried from the spec.
    pub fn priority(&self) -> u8 {
        self.records.priority
    }

    /// Number of steps (stages of the service path).
    pub fn step_count(&self) -> usize {
        self.records.steps as usize
    }

    pub(crate) fn step(&self, i: usize) -> Step {
        match self.records.recs[..self.step_count()][i] {
            Rec::Step(step) => step,
            Rec::Call { .. } => unreachable!("steps come first"),
        }
    }

    /// Total accelerator invocations on this request's resolved path
    /// (the `#` column of Table IV).
    pub fn accelerator_invocations(&self) -> usize {
        self.records
            .segments
            .iter()
            .map(|rec| rec.shape.hop_count())
            .sum()
    }

    /// All trace calls, in path order.
    pub fn calls(&self) -> impl ExactSizeIterator<Item = CallView<'_>> {
        let mut places = (0..self.step_count()).flat_map(move |step| {
            let arms = match self.step(step) {
                Step::Calls { calls, .. } => calls.len(),
                Step::Cpu { .. } => 0,
            };
            (0..arms).map(move |par| (step, par))
        });
        let count = self.records.recs.len() - self.step_count();
        (0..count).map(move |_| {
            let (step, par) = places.next().expect("every call sits in a step");
            self.view_call(step, par)
        })
    }

    /// Every accelerator visit, in path order.
    pub fn hops(&self) -> impl Iterator<Item = HopExec> + '_ {
        self.records
            .segments
            .iter()
            .flat_map(|rec| view_segment(rec).hops())
    }

    /// Total app-logic cycles.
    pub fn app_cycles(&self) -> f64 {
        (0..self.step_count())
            .map(|i| match self.step(i) {
                Step::Cpu { cycles } => cycles,
                Step::Calls { .. } => 0.0,
            })
            .sum()
    }

    /// The call in arm `par` of step `step`.
    ///
    /// # Panics
    ///
    /// Panics if the step is a CPU step.
    pub(crate) fn call(&self, step: u8, par: u8) -> CallView<'_> {
        self.view_call(step as usize, par as usize)
    }

    fn view_call(&self, step: usize, par: usize) -> CallView<'_> {
        let Step::Calls { calls, .. } = self.step(step) else {
            panic!("addressed a CPU step as a call");
        };
        let records = &*self.records;
        let Rec::Call { segments } = records.recs[self.step_count()..][calls.range()][par] else {
            unreachable!("calls follow the steps");
        };
        CallView {
            vaddr: self.base.wrapping_add(call_offset(step, par)),
            segments: &records.segments[segments.range()],
        }
    }

    /// The segment `addr` is executing.
    pub(crate) fn segment(&self, addr: CallAddr) -> SegmentView<'_> {
        self.call(addr.step, addr.par).segment(addr.seg as usize)
    }

    /// The payload size entering hop `addr`, walked from its segment's
    /// entry size, or `None` when `addr` names no hop of this program.
    /// Snapshot loading checks the sizes a run carries against it.
    pub(crate) fn walk_in_bytes(&self, addr: CallAddr) -> Option<u64> {
        let step = addr.step as usize;
        if step >= self.step_count() {
            return None;
        }
        match self.step(step) {
            Step::Calls { calls, .. } if (addr.par as usize) < calls.len() => {}
            _ => return None,
        }
        let call = self.view_call(step, addr.par as usize);
        let seg = call.segments.get(addr.seg as usize)?;
        let hop = view_segment(seg).hops().nth(addr.hop as usize)?;
        Some(hop.in_bytes)
    }
}

/// One sampled trace call of a [`Program`]: the resolved chain of
/// segments.
#[derive(Clone, Copy, Debug)]
pub struct CallView<'a> {
    vaddr: u64,
    segments: &'a [SegmentRec],
}

impl<'a> CallView<'a> {
    /// Base virtual address of this call's payload buffers.
    pub fn vaddr(self) -> u64 {
        self.vaddr
    }

    /// Number of chained segments.
    pub fn segment_count(self) -> usize {
        self.segments.len()
    }

    /// The `i`-th segment.
    pub fn segment(self, i: usize) -> SegmentView<'a> {
        view_segment(&self.segments[i])
    }

    /// The segments, chained in order.
    pub fn segments(self) -> impl ExactSizeIterator<Item = SegmentView<'a>> {
        (0..self.segments.len()).map(move |i| self.segment(i))
    }
}

/// One segment of a [`CallView`]: a chain-free run of accelerator hops.
#[derive(Clone, Copy, Debug)]
pub struct SegmentView<'a> {
    /// The trace this segment executes (for queue entries); shared
    /// with the trace library.
    pub trace: &'a Arc<Trace>,
    /// Resolved payload flags for this segment.
    pub flags: PayloadFlags,
    /// Whether the segment is triggered by a network message arriving
    /// at TCP (vs. initiated by a core's `Enqueue`).
    pub entry_is_network: bool,
    /// What happens after the last hop.
    pub end: SegmentEnd,
    entry_bytes: u64,
    shape: &'a Shape,
}

fn view_segment(rec: &SegmentRec) -> SegmentView<'_> {
    let shape = &*rec.shape;
    let end = match shape.end {
        SegmentEnd::AwaitResponse { .. } => SegmentEnd::AwaitResponse {
            external: rec.external,
        },
        end => end,
    };
    SegmentView {
        trace: &shape.trace,
        flags: shape.flags,
        entry_is_network: shape.entry_is_network,
        end,
        entry_bytes: rec.entry_bytes,
        shape,
    }
}

impl<'a> SegmentView<'a> {
    /// Number of accelerator visits.
    pub fn hop_count(self) -> usize {
        self.shape.hop_count()
    }

    /// The payload size entering the first visit.
    pub fn entry_bytes(self) -> u64 {
        self.entry_bytes
    }

    /// The accelerator of visit `i`, if the segment has one.
    pub(crate) fn kind(self, i: usize) -> Option<AccelKind> {
        self.shape.kind(i)
    }

    /// The accelerator and Position Mark of visit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.hop_count()`.
    pub(crate) fn mark(self, i: usize) -> (AccelKind, PositionMark) {
        self.shape.mark(i)
    }

    /// Visit `i` with `in_bytes` entering it: the size the visit before
    /// it produced, or [`SegmentView::entry_bytes`] for the first. Reads
    /// that one visit only.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.hop_count()`.
    pub(crate) fn exec(self, i: usize, in_bytes: u64) -> HopExec {
        self.shape.exec(i, in_bytes)
    }

    /// The accelerator visits, in order, each entered with the size the
    /// one before it produced.
    pub fn hops(self) -> impl ExactSizeIterator<Item = HopExec> + 'a {
        self.shape.hops(self.entry_bytes)
    }
}

/// Growable staging for one program. Sampling and snapshot loading
/// fill it, then [`ProgramBuilder::finish`] moves the lists into the
/// shared records' exact-size boxed slices, the calls (each its
/// segment span) behind the steps. `shapes` is this thread's interned
/// walks.
#[derive(Debug, Default)]
struct ProgramBuilder {
    steps: Vec<Step>,
    calls: Vec<Span>,
    segments: Vec<SegmentRec>,
    shapes: Shapes,
}

thread_local! {
    static SCRATCH: RefCell<ProgramBuilder> = RefCell::default();
}

impl ProgramBuilder {
    /// Runs `f` on this thread's builder, emptied first. Its lists keep
    /// their capacity between programs, so building one allocates only
    /// the program's own blocks and the shapes of walks this thread has
    /// not taken before.
    fn with<R>(f: impl FnOnce(&mut ProgramBuilder) -> R) -> R {
        SCRATCH.with_borrow_mut(|b| {
            b.steps.clear();
            b.calls.clear();
            b.segments.clear();
            f(b)
        })
    }

    /// Closes a step over the calls pushed since `first_call`.
    fn end_calls(&mut self, first_call: usize, parallel: bool) {
        self.steps.push(Step::Calls {
            calls: Span::new(first_call..self.calls.len()),
            parallel,
        });
    }

    /// Closes a call over the segments pushed since `first_segment`.
    fn end_call(&mut self, first_segment: usize) {
        self.calls
            .push(Span::new(first_segment..self.segments.len()));
    }

    fn finish(&mut self, base: u64, slo_slack: Option<f64>, priority: u8) -> Program {
        let steps = self.steps.len();
        let recs = self
            .steps
            .drain(..)
            .map(Rec::Step)
            .chain(self.calls.drain(..).map(|segments| Rec::Call { segments }))
            .collect();
        Program {
            base,
            records: Arc::new(Records {
                recs,
                steps: u32::try_from(steps).expect("program fits u32 indices"),
                segments: self.segments.drain(..).collect(),
                slo_slack,
                priority,
            }),
        }
    }

    /// Samples one trace call: resolves flags, follows the template
    /// chain one interned walk per segment, and draws each segment's
    /// entry size and external delay.
    fn sample_call(&mut self, lib: &TraceLibrary, rng: &mut SimRng, spec: &CallSpec) {
        let flags = spec.flags.sample(rng);
        let (mut trace, mut entry_is_network) = match &spec.custom {
            Some(custom) => (custom, false),
            None => {
                let entry = if spec.cmp_variant_prob > 0.0 && rng.chance(spec.cmp_variant_prob) {
                    lib.entry_with_cmp(spec.template)
                } else {
                    lib.entry(spec.template)
                };
                (entry, spec.template.message_triggered())
            }
        };

        let first_segment = self.segments.len();
        let mut entry_bytes = spec.payload.sample(rng);
        // Bound chains defensively (T4→T5→T6→T7→... is the longest: 4).
        for _ in 0..8 {
            let shape = self.shapes.intern(trace, flags, entry_is_network);
            let chain = shape.chain;
            let awaits = matches!(shape.end, SegmentEnd::AwaitResponse { .. });
            self.segments.push(SegmentRec {
                shape,
                entry_bytes,
                external: SimDuration::ZERO,
            });
            let Some(addr) = chain else { break };
            // A response segment starts from a fresh network payload.
            if awaits {
                entry_bytes = spec.payload.sample(rng);
            }
            trace = lib
                .atm()
                .peek(addr)
                .expect("chain target must be ATM-resident");
            entry_is_network = awaits;
        }
        // Draw external delays now that ends are known.
        for segment in &mut self.segments[first_segment..] {
            if matches!(segment.shape.end, SegmentEnd::AwaitResponse { .. }) {
                segment.external = spec.external.sample(rng);
            }
        }
        self.end_call(first_segment);
    }

    /// Reads one call in the wire form [`Program::save_call`] writes
    /// and returns its buffer address. A decoded trace that the
    /// standard library holds is swapped for the library's shared copy.
    ///
    /// # Errors
    ///
    /// Besides a malformed or truncated record, a segment whose hops or
    /// end are not what walking its trace under its flags from its
    /// first hop's input size gives is corrupt: only the walk, the
    /// entry size and the external delay are kept.
    fn load_call(&mut self, r: &mut SnapReader<'_>) -> Result<u64, SnapshotError> {
        let first_segment = self.segments.len();
        for seg in 0..r.seq_len()? {
            let mut trace = Arc::<Trace>::load(r)?;
            if let Some(shared) = TraceLibrary::standard_shared(&trace) {
                trace = Arc::clone(shared);
            }
            let flags = PayloadFlags::load(r)?;
            let shape = self.shapes.intern(&trace, flags, r.bool()?);
            let corrupt = |what: String| {
                SnapshotError::Corrupt(format!("segment {seg} ({}): {what}", trace.name()))
            };
            let count = r.seq_len()?;
            if count != shape.hop_count() {
                let walk = shape.hop_count();
                return Err(corrupt(format!("{count} hops, its walk has {walk}")));
            }
            let (mut entry_bytes, mut in_bytes) = (0, 0);
            for i in 0..count {
                let hop = HopExec::load(r)?;
                if i == 0 {
                    (entry_bytes, in_bytes) = (hop.in_bytes, hop.in_bytes);
                }
                if hop != shape.exec(i, in_bytes) {
                    return Err(corrupt(format!("hop {i} is not its walk's")));
                }
                in_bytes = hop.out_bytes;
            }
            let external = match (SegmentEnd::load(r)?, shape.end) {
                (SegmentEnd::AwaitResponse { external }, SegmentEnd::AwaitResponse { .. }) => {
                    external
                }
                (end, walk) if end == walk => SimDuration::ZERO,
                (end, walk) => return Err(corrupt(format!("ends {end:?}, its walk {walk:?}"))),
            };
            self.segments.push(SegmentRec {
                shape,
                entry_bytes,
                external,
            });
        }
        self.end_call(first_segment);
        r.u64()
    }
}

impl ServiceSpec {
    /// Samples a concrete program. `vaddr_base` gives the request its
    /// own buffer addresses (drives the TLBs). Hop sizes after each
    /// segment's entry follow from accelerator kinds alone and are not
    /// stored.
    pub fn sample(&self, lib: &TraceLibrary, rng: &mut SimRng, vaddr_base: u64) -> Program {
        ProgramBuilder::with(|b| {
            for stage in &self.stages {
                let first_call = b.calls.len();
                match stage {
                    StageSpec::Cpu(d) => b.steps.push(Step::Cpu {
                        cycles: d.sample(rng),
                    }),
                    StageSpec::Call(c) => {
                        b.sample_call(lib, rng, c);
                        b.end_calls(first_call, false);
                    }
                    StageSpec::Parallel(calls) => {
                        for c in calls {
                            b.sample_call(lib, rng, c);
                        }
                        b.end_calls(first_call, true);
                    }
                }
            }
            b.finish(vaddr_base, self.slo_slack, self.priority)
        })
    }
}

/// Samples one trace call on its own: a one-step program whose only
/// step is the call, buffered at `vaddr` (read it back with
/// [`Program::calls`]).
pub fn sample_call(lib: &TraceLibrary, rng: &mut SimRng, spec: &CallSpec, vaddr: u64) -> Program {
    ProgramBuilder::with(|b| {
        b.sample_call(lib, rng, spec);
        b.end_calls(0, false);
        b.finish(vaddr, None, 0)
    })
}

// ----- wire form -----
//
// The snapshot format predates the flat layout and nests calls inside
// steps and hops inside segments, each list length-prefixed. It is
// written here from the records, field for field, with each hop's
// derived sizes and glue count and each call's derived buffer address;
// loading checks that the hops are their trace's walk and that the
// addresses sit on one base.

accelflow_sim::impl_snapshot! {
    enum SegmentEnd { 0 => ToCpu, 1 => Continue, 2 => AwaitResponse { external } }
}

accelflow_sim::impl_snapshot! {
    struct HopExec {
        kind, pm, in_bytes, out_bytes, glue_instrs, branches_after, transform_after, fork_after,
    }
}

impl Program {
    /// Writes call `par` of step `step`: its segments (trace, flags,
    /// entry, hops, end), then its buffer address.
    fn save_call(&self, step: usize, par: usize, w: &mut SnapWriter) {
        let call = self.view_call(step, par);
        w.usize(call.segment_count());
        for seg in call.segments() {
            seg.trace.save(w);
            seg.flags.save(w);
            w.bool(seg.entry_is_network);
            w.usize(seg.hop_count());
            for hop in seg.hops() {
                hop.save(w);
            }
            seg.end.save(w);
        }
        w.u64(call.vaddr);
    }
}

impl Snapshot for Program {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.step_count());
        for step in 0..self.step_count() {
            match self.step(step) {
                Step::Cpu { cycles } => {
                    w.u8(0);
                    w.f64(cycles);
                }
                Step::Calls { calls, parallel } => {
                    if parallel {
                        w.u8(2);
                        w.usize(calls.len());
                    } else {
                        w.u8(1);
                    }
                    for par in 0..calls.len() {
                        self.save_call(step, par, w);
                    }
                }
            }
        }
        self.slo_slack().save(w);
        w.u8(self.priority());
    }

    /// # Errors
    ///
    /// Besides the errors of each call's record, a call whose buffer
    /// address is not at its place's offset from the program's first
    /// call's base is corrupt: addresses are derived, not stored.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut base = None;
        ProgramBuilder::with(|b| {
            for step in 0..r.seq_len()? {
                let first_call = b.calls.len();
                match r.u8()? {
                    0 => b.steps.push(Step::Cpu { cycles: r.f64()? }),
                    1 => {
                        place(&mut base, b.load_call(r)?, step, 0)?;
                        b.end_calls(first_call, false);
                    }
                    2 => {
                        for par in 0..r.seq_len()? {
                            place(&mut base, b.load_call(r)?, step, par)?;
                        }
                        b.end_calls(first_call, true);
                    }
                    other => {
                        return Err(SnapshotError::Corrupt(format!("unknown Step tag {other}")))
                    }
                }
            }
            let slo_slack = Option::load(r)?;
            let priority = r.u8()?;
            Ok(b.finish(base.unwrap_or(0), slo_slack, priority))
        })
    }
}

/// Checks that a loaded call buffers at `vaddr`, its place's offset
/// from `base`; the first call of a program sets `base`.
fn place(base: &mut Option<u64>, vaddr: u64, step: usize, par: usize) -> Result<(), SnapshotError> {
    let offset = call_offset(step, par);
    let base = *base.get_or_insert(vaddr.wrapping_sub(offset));
    if vaddr == base.wrapping_add(offset) {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(format!(
            "call {par} of step {step} buffers at {vaddr:#x}, off its program's base {base:#x}"
        )))
    }
}

#[cfg(test)]
mod tests;
