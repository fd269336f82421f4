//! Sampled request programs, stored flat.
//!
//! A [`Program`] owns four exact-size boxed slices, whatever its shape:
//! its steps, its trace calls, its segments and its hops, each in path
//! order. Steps, calls and segments are small index records into the
//! slice below them, so a [`CallAddr`] resolves to its hop by indexing
//! flat slices, and holding, cloning or freeing a program costs at
//! most four heap blocks. Segments refer to their trace through the
//! library's shared `Arc`s — the way a queue entry refers to a trace
//! resident in the ATM (paper §IV-A) — so sampling copies no trace.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::Arc;

use accelflow_accel::dispatcher::output_dispatch_instructions;
use accelflow_accel::timing::ServiceTimeModel;
use accelflow_sim::rng::SimRng;
use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};
use accelflow_sim::time::SimDuration;
use accelflow_trace::atm::AtmAddr;
use accelflow_trace::cond::PayloadFlags;
use accelflow_trace::ir::{GlueAction, Next, PositionMark, Trace};
use accelflow_trace::kind::AccelKind;
use accelflow_trace::templates::TraceLibrary;

use super::{CallAddr, CallSpec, ServiceSpec, StageSpec};

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

/// A sampled trace call: its chain of segments.
#[derive(Clone, Copy, Debug)]
struct CallRec {
    vaddr: u64,
    segments: Span,
}

/// A chain-free run of hops, and how it starts and ends.
#[derive(Clone, Debug)]
struct SegmentRec {
    trace: Arc<Trace>,
    flags: PayloadFlags,
    entry_is_network: bool,
    end: SegmentEnd,
    hops: Span,
}

/// One accelerator visit.
#[derive(Clone, Copy, Debug)]
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
/// Read it through [`Program::calls`] (or [`Program::hops`] for every
/// accelerator visit at once); the flat storage itself is private.
#[derive(Clone, Debug)]
pub struct Program {
    steps: Box<[Step]>,
    calls: Box<[CallRec]>,
    segments: Box<[SegmentRec]>,
    hops: Box<[HopExec]>,
    /// Soft-SLO slack factor carried from the spec.
    pub slo_slack: Option<f64>,
    /// Priority tag carried from the spec.
    pub priority: u8,
}

impl Program {
    /// Number of steps (stages of the service path).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    pub(crate) fn step(&self, i: usize) -> Step {
        self.steps[i]
    }

    /// Total accelerator invocations on this request's resolved path
    /// (the `#` column of Table IV).
    pub fn accelerator_invocations(&self) -> usize {
        self.hops.len()
    }

    /// All trace calls, in path order.
    pub fn calls(&self) -> impl ExactSizeIterator<Item = CallView<'_>> {
        self.calls.iter().map(move |rec| self.view_call(rec))
    }

    /// Every accelerator visit, in path order.
    pub fn hops(&self) -> &[HopExec] {
        &self.hops
    }

    /// Total app-logic cycles.
    pub fn app_cycles(&self) -> f64 {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Cpu { cycles } => *cycles,
                _ => 0.0,
            })
            .sum()
    }

    /// The call in arm `par` of step `step`.
    ///
    /// # Panics
    ///
    /// Panics if the step is a CPU step.
    pub(crate) fn call(&self, step: u8, par: u8) -> CallView<'_> {
        let Step::Calls { calls, .. } = self.steps[step as usize] else {
            panic!("addressed a CPU step as a call");
        };
        self.view_call(&self.calls[calls.range()][par as usize])
    }

    /// The segment `addr` is executing.
    pub(crate) fn segment(&self, addr: CallAddr) -> SegmentView<'_> {
        self.call(addr.step, addr.par).segment(addr.seg as usize)
    }

    /// The hop `addr` is executing.
    pub(crate) fn hop(&self, addr: CallAddr) -> &HopExec {
        &self.segment(addr).hops[addr.hop as usize]
    }

    fn view_call<'a>(&'a self, rec: &CallRec) -> CallView<'a> {
        CallView {
            vaddr: rec.vaddr,
            segments: &self.segments[rec.segments.range()],
            hops: &self.hops,
        }
    }
}

/// One sampled trace call of a [`Program`]: the resolved chain of
/// segments.
#[derive(Clone, Copy, Debug)]
pub struct CallView<'a> {
    vaddr: u64,
    segments: &'a [SegmentRec],
    /// The whole program's hops; segments index into them.
    hops: &'a [HopExec],
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
        let rec = &self.segments[i];
        SegmentView {
            trace: &rec.trace,
            flags: rec.flags,
            entry_is_network: rec.entry_is_network,
            hops: &self.hops[rec.hops.range()],
            end: rec.end,
        }
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
    /// The accelerator visits, in order.
    pub hops: &'a [HopExec],
    /// What happens after the last hop.
    pub end: SegmentEnd,
}

/// Growable staging for one program. Sampling and snapshot loading
/// fill it, then [`ProgramBuilder::finish`] moves each list into an
/// exact-size boxed slice.
#[derive(Debug, Default)]
struct ProgramBuilder {
    steps: Vec<Step>,
    calls: Vec<CallRec>,
    segments: Vec<SegmentRec>,
    hops: Vec<HopExec>,
}

thread_local! {
    static SCRATCH: RefCell<ProgramBuilder> = RefCell::default();
}

impl ProgramBuilder {
    /// Runs `f` on this thread's builder, emptied first. Its lists keep
    /// their capacity between programs, so building one allocates only
    /// the program's own blocks.
    fn with<R>(f: impl FnOnce(&mut ProgramBuilder) -> R) -> R {
        SCRATCH.with_borrow_mut(|b| {
            b.steps.clear();
            b.calls.clear();
            b.segments.clear();
            b.hops.clear();
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
    fn end_call(&mut self, first_segment: usize, vaddr: u64) {
        self.calls.push(CallRec {
            vaddr,
            segments: Span::new(first_segment..self.segments.len()),
        });
    }

    /// Closes a segment over the hops pushed since `first_hop`.
    fn end_segment(
        &mut self,
        first_hop: usize,
        trace: &Arc<Trace>,
        flags: PayloadFlags,
        entry_is_network: bool,
        end: SegmentEnd,
    ) {
        self.segments.push(SegmentRec {
            trace: Arc::clone(trace),
            flags,
            entry_is_network,
            end,
            hops: Span::new(first_hop..self.hops.len()),
        });
    }

    fn finish(&mut self, slo_slack: Option<f64>, priority: u8) -> Program {
        Program {
            steps: self.steps.drain(..).collect(),
            calls: self.calls.drain(..).collect(),
            segments: self.segments.drain(..).collect(),
            hops: self.hops.drain(..).collect(),
            slo_slack,
            priority,
        }
    }

    /// Samples one trace call: resolves flags, walks the template
    /// chain, and precomputes every hop's sizes and glue costs.
    fn sample_call(
        &mut self,
        lib: &TraceLibrary,
        timing: &ServiceTimeModel,
        rng: &mut SimRng,
        spec: &CallSpec,
        vaddr: u64,
    ) {
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
        let mut bytes = spec.payload.sample(rng);
        // Bound chains defensively (T4→T5→T6→T7→... is the longest: 4).
        for _ in 0..8 {
            let (end, chained) = self.sample_segment(timing, trace, flags, entry_is_network, bytes);
            let Some(addr) = chained else { break };
            // A response segment starts from a fresh network payload.
            let awaits = matches!(end, SegmentEnd::AwaitResponse { .. });
            if awaits {
                bytes = spec.payload.sample(rng);
            }
            trace = lib
                .atm()
                .peek(addr)
                .expect("chain target must be ATM-resident");
            entry_is_network = awaits;
        }
        // Attach sampled external delays now that ends are known.
        for segment in &mut self.segments[first_segment..] {
            if let SegmentEnd::AwaitResponse { external } = &mut segment.end {
                *external = spec.external.sample(rng);
            }
        }
        self.end_call(first_segment, vaddr);
    }

    /// Resolves one segment of `trace` and pushes its hops. Returns how
    /// the segment ends (external delays still zero) and its chain
    /// target, if any.
    fn sample_segment(
        &mut self,
        timing: &ServiceTimeModel,
        trace: &Arc<Trace>,
        flags: PayloadFlags,
        entry_is_network: bool,
        entry_bytes: u64,
    ) -> (SegmentEnd, Option<AtmAddr>) {
        let first_hop = self.hops.len();
        let mut bytes = entry_bytes;
        let mut adv = trace.first(&flags);
        let mut chained = None;
        let end = loop {
            match adv.next {
                Next::Invoke { kind, pm } => {
                    let in_bytes = bytes;
                    let mut out_bytes = timing.output_bytes(kind, in_bytes);
                    let after = trace.advance(pm, &flags);
                    let mut branches = 0u8;
                    let mut transform = false;
                    let mut fork = false;
                    for action in &after.actions {
                        match action {
                            GlueAction::Branch { .. } => branches += 1,
                            GlueAction::Transform(t) => {
                                transform = true;
                                out_bytes =
                                    ((out_bytes as f64) * t.size_ratio()).round().max(1.0) as u64;
                            }
                            GlueAction::ForkToCpu => fork = true,
                        }
                    }
                    let glue_instrs = output_dispatch_instructions(&after, out_bytes);
                    self.hops.push(HopExec {
                        kind,
                        pm,
                        in_bytes,
                        out_bytes,
                        glue_instrs,
                        branches_after: branches,
                        transform_after: transform,
                        fork_after: fork,
                    });
                    bytes = out_bytes;
                    adv = after;
                }
                Next::ToCpu => break SegmentEnd::ToCpu,
                Next::Chain(addr) => {
                    chained = Some(addr);
                    // Chains whose last hop sent a network message wait for
                    // the response; split-subtrace chains continue at once.
                    let waits = self.hops[first_hop..]
                        .last()
                        .is_some_and(|h| h.kind == AccelKind::Tcp);
                    break if waits {
                        SegmentEnd::AwaitResponse {
                            external: SimDuration::ZERO,
                        }
                    } else {
                        SegmentEnd::Continue
                    };
                }
            }
        };
        self.end_segment(first_hop, trace, flags, entry_is_network, end);
        (end, chained)
    }

    /// Reads one call in the wire form [`Program::save_call`] writes.
    fn load_call(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapshotError> {
        let first_segment = self.segments.len();
        for _ in 0..r.seq_len()? {
            let trace = Arc::<Trace>::load(r)?;
            let flags = PayloadFlags::load(r)?;
            let entry_is_network = r.bool()?;
            let first_hop = self.hops.len();
            for _ in 0..r.seq_len()? {
                self.hops.push(HopExec::load(r)?);
            }
            let end = SegmentEnd::load(r)?;
            self.end_segment(first_hop, &trace, flags, entry_is_network, end);
        }
        let vaddr = r.u64()?;
        self.end_call(first_segment, vaddr);
        Ok(())
    }
}

impl ServiceSpec {
    /// Samples a concrete program. `vaddr_base` gives the request its
    /// own buffer addresses (drives the TLBs).
    pub fn sample(
        &self,
        lib: &TraceLibrary,
        timing: &ServiceTimeModel,
        rng: &mut SimRng,
        vaddr_base: u64,
    ) -> Program {
        ProgramBuilder::with(|b| {
            for (i, stage) in self.stages.iter().enumerate() {
                let vaddr = vaddr_base + ((i as u64) << 20);
                let first_call = b.calls.len();
                match stage {
                    StageSpec::Cpu(d) => b.steps.push(Step::Cpu {
                        cycles: d.sample(rng),
                    }),
                    StageSpec::Call(c) => {
                        b.sample_call(lib, timing, rng, c, vaddr);
                        b.end_calls(first_call, false);
                    }
                    StageSpec::Parallel(calls) => {
                        for (j, c) in calls.iter().enumerate() {
                            b.sample_call(lib, timing, rng, c, vaddr + ((j as u64) << 16));
                        }
                        b.end_calls(first_call, true);
                    }
                }
            }
            b.finish(self.slo_slack, self.priority)
        })
    }
}

/// Samples one trace call on its own: a one-step program whose only
/// step is the call (read it back with [`Program::calls`]).
pub fn sample_call(
    lib: &TraceLibrary,
    timing: &ServiceTimeModel,
    rng: &mut SimRng,
    spec: &CallSpec,
    vaddr: u64,
) -> Program {
    ProgramBuilder::with(|b| {
        b.sample_call(lib, timing, rng, spec, vaddr);
        b.end_calls(0, false);
        b.finish(None, 0)
    })
}

// ----- wire form -----
//
// The snapshot format predates the flat layout and nests calls inside
// steps and hops inside segments, each list length-prefixed. It is
// written here from the flat records, field for field.

accelflow_sim::impl_snapshot! {
    enum SegmentEnd { 0 => ToCpu, 1 => Continue, 2 => AwaitResponse { external } }
}

accelflow_sim::impl_snapshot! {
    struct HopExec {
        kind, pm, in_bytes, out_bytes, glue_instrs, branches_after, transform_after, fork_after,
    }
}

impl Program {
    /// Writes call `i`: its segments (trace, flags, entry, hops, end),
    /// then its buffer address.
    fn save_call(&self, i: usize, w: &mut SnapWriter) {
        let call = self.view_call(&self.calls[i]);
        w.usize(call.segment_count());
        for seg in call.segments() {
            seg.trace.save(w);
            seg.flags.save(w);
            w.bool(seg.entry_is_network);
            w.usize(seg.hops.len());
            for hop in seg.hops {
                hop.save(w);
            }
            seg.end.save(w);
        }
        w.u64(call.vaddr);
    }
}

impl Snapshot for Program {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.steps.len());
        for step in self.steps.iter() {
            match *step {
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
                    for i in calls.range() {
                        self.save_call(i, w);
                    }
                }
            }
        }
        self.slo_slack.save(w);
        w.u8(self.priority);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        ProgramBuilder::with(|b| {
            for _ in 0..r.seq_len()? {
                let first_call = b.calls.len();
                match r.u8()? {
                    0 => b.steps.push(Step::Cpu { cycles: r.f64()? }),
                    1 => {
                        b.load_call(r)?;
                        b.end_calls(first_call, false);
                    }
                    2 => {
                        for _ in 0..r.seq_len()? {
                            b.load_call(r)?;
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
            Ok(b.finish(slo_slack, priority))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{CyclesDist, FlagProbs};
    use accelflow_sim::time::Frequency;
    use accelflow_trace::templates::TemplateId;

    fn fixtures() -> (TraceLibrary, ServiceTimeModel, SimRng) {
        (
            TraceLibrary::standard(),
            ServiceTimeModel::calibrated(Frequency::from_ghz(2.4)),
            SimRng::seed(42),
        )
    }

    /// The only call of a [`sample_call`] program.
    fn only_call(program: &Program) -> CallView<'_> {
        assert_eq!(program.step_count(), 1);
        program.call(0, 0)
    }

    #[test]
    fn t1_call_has_single_segment() {
        let (lib, timing, mut rng) = fixtures();
        let spec = CallSpec::new(TemplateId::T1);
        let program = sample_call(&lib, &timing, &mut rng, &spec, 0x10000);
        let call = only_call(&program);
        assert_eq!(call.segment_count(), 1);
        let seg = call.segment(0);
        assert!(seg.entry_is_network);
        assert_eq!(seg.end, SegmentEnd::ToCpu);
        // Tcp, Decr, Rpc, Dser, [Dcmp], Ldb.
        assert!(seg.hops.len() == 5 || seg.hops.len() == 6);
        assert_eq!(seg.hops[0].kind, AccelKind::Tcp);
        assert_eq!(seg.hops.last().unwrap().kind, AccelKind::Ldb);
    }

    #[test]
    fn t4_call_chains_through_responses() {
        let (lib, timing, mut rng) = fixtures();
        let spec = CallSpec::new(TemplateId::T4).with_flags(FlagProbs {
            hit: 1.0, // always hits the DB cache
            ..FlagProbs::default()
        });
        let program = sample_call(&lib, &timing, &mut rng, &spec, 0x10000);
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
        let (lib, timing, mut rng) = fixtures();
        let spec = CallSpec::new(TemplateId::T4).with_flags(FlagProbs {
            hit: 0.0,
            found: 1.0,
            exception: 0.0,
            ..FlagProbs::default()
        });
        let program = sample_call(&lib, &timing, &mut rng, &spec, 0x10000);
        let call = only_call(&program);
        // T4 → T5(miss→send to DB) → T6(found→write cache) → T7.
        assert_eq!(call.segment_count(), 4);
        let waits: Vec<bool> = call
            .segments()
            .map(|s| matches!(s.end, SegmentEnd::AwaitResponse { .. }))
            .collect();
        assert_eq!(waits, vec![true, true, true, false]);
        // T6's fork hands the data to the CPU mid-trace.
        assert!(call.segment(2).hops.iter().any(|h| h.fork_after));
    }

    #[test]
    fn error_chain_continues_immediately() {
        let (lib, timing, mut rng) = fixtures();
        let spec = CallSpec::new(TemplateId::T8).with_flags(FlagProbs {
            exception: 1.0,
            ..FlagProbs::default()
        });
        let program = sample_call(&lib, &timing, &mut rng, &spec, 0);
        let call = only_call(&program);
        // T8 (send) → T7 (response, exception) → error trace (immediate).
        assert_eq!(call.segment_count(), 3);
        assert_eq!(call.segment(1).end, SegmentEnd::Continue);
        assert_eq!(call.segment(2).end, SegmentEnd::ToCpu);
        assert_eq!(call.segment(2).hops.len(), 4);
    }

    #[test]
    fn payload_sizes_flow_through_hops() {
        let (lib, timing, mut rng) = fixtures();
        let spec = CallSpec::new(TemplateId::T9).with_cmp_prob(1.0);
        let program = sample_call(&lib, &timing, &mut rng, &spec, 0);
        let seg = only_call(&program).segment(0);
        assert_eq!(seg.hops[0].kind, AccelKind::Cmp);
        // Compression shrinks the payload ~3x before Ser.
        assert!(seg.hops[1].in_bytes < seg.hops[0].in_bytes / 2);
        for w in seg.hops.windows(2) {
            assert_eq!(w[0].out_bytes, w[1].in_bytes, "sizes must chain");
        }
    }

    #[test]
    fn glue_instructions_are_positive_and_bounded() {
        let (lib, timing, mut rng) = fixtures();
        for template in TemplateId::ALL {
            let spec = CallSpec::new(template);
            let program = sample_call(&lib, &timing, &mut rng, &spec, 0);
            for hop in program.hops() {
                assert!(hop.glue_instrs >= 15, "{template}: {}", hop.glue_instrs);
                assert!(hop.glue_instrs <= 15 + 9 * 2 + 12 * 64 + 20, "{template}");
            }
        }
    }

    #[test]
    fn program_counts_parallel_calls() {
        let (lib, timing, mut rng) = fixtures();
        let svc = ServiceSpec::new(
            "toy",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Cpu(CyclesDist::new(50_000.0, 0.2)),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 4]),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        );
        let program = svc.sample(&lib, &timing, &mut rng, 0);
        assert_eq!(program.step_count(), 4);
        assert_eq!(program.calls().len(), 6);
        // T1 (≥5) + 4×(T9+T10: ≥9 each) + T2 (4) ≥ 45.
        assert!(program.accelerator_invocations() >= 40);
        assert_eq!(
            program.accelerator_invocations(),
            program
                .calls()
                .flat_map(|c| c.segments())
                .map(|s| s.hops.len())
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
        let (lib, timing, mut rng) = fixtures();
        let svc = ServiceSpec::new(
            "toy",
            vec![
                StageSpec::Cpu(CyclesDist::new(10_000.0, 0.2)),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T4); 3]),
                StageSpec::Call(CallSpec::new(TemplateId::T9)),
            ],
        );
        let program = svc.sample(&lib, &timing, &mut rng, 0);
        // Walking every address in path order visits the flat hop slice
        // in order, each hop exactly once.
        let mut flat = program.hops().iter();
        for step in 1..program.step_count() as u8 {
            let Step::Calls { calls, .. } = program.step(step as usize) else {
                unreachable!()
            };
            for par in 0..calls.len() as u8 {
                let call = program.call(step, par);
                for seg in 0..call.segment_count() as u8 {
                    for hop in 0..call.segment(seg as usize).hops.len() as u8 {
                        let addr = CallAddr {
                            req: 0,
                            step,
                            par,
                            seg,
                            hop,
                        };
                        assert!(std::ptr::eq(program.hop(addr), flat.next().unwrap()));
                    }
                }
            }
        }
        assert!(flat.next().is_none());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (lib, timing, _) = fixtures();
        let spec = CallSpec::new(TemplateId::T4);
        let a = sample_call(&lib, &timing, &mut SimRng::seed(9), &spec, 0);
        let b = sample_call(&lib, &timing, &mut SimRng::seed(9), &spec, 0);
        let (a, b) = (only_call(&a), only_call(&b));
        assert_eq!(a.segment_count(), b.segment_count());
        for (sa, sb) in a.segments().zip(b.segments()) {
            assert_eq!(sa.hops.len(), sb.hops.len());
            for (ha, hb) in sa.hops.iter().zip(sb.hops) {
                assert_eq!(ha.in_bytes, hb.in_bytes);
            }
        }
    }

    #[test]
    fn wire_form_round_trips() {
        let (lib, timing, mut rng) = fixtures();
        let svc = ServiceSpec::new(
            "toy",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T4)]),
                StageSpec::Cpu(CyclesDist::new(10_000.0, 0.2)),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T8); 2]),
            ],
        );
        let program = svc.sample(&lib, &timing, &mut rng, 0x4000);
        let mut w = SnapWriter::new();
        program.save(&mut w);
        let bytes = w.into_bytes();
        let back = Program::load(&mut SnapReader::new(&bytes)).unwrap();
        let mut again = SnapWriter::new();
        back.save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        assert_eq!(back.steps, program.steps);
        // A one-arm Parallel stage keeps its own tag.
        assert!(matches!(back.step(1), Step::Calls { parallel: true, .. }));
    }
}
