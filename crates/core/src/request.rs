//! Service models and request programs.
//!
//! A **service** is specified the way the paper characterizes one
//! (Table IV): a path of application-logic stages and trace calls,
//! e.g. `Login = T1-CPU-T4-T5-T6-T7-CPU-T2`. A [`ServiceSpec`] carries
//! the distributions — payload sizes (Fig 5), branch-outcome
//! probabilities (§III Q2), app-logic cycles, and external (remote
//! DB/RPC) delays. Sampling a spec yields a concrete [`Program`]: the
//! fully-resolved execution the machine simulates under any policy.
//!
//! Note on chains: a trace call like `T4` resolves into *segments*
//! joined by chain points (T4 sends the read; T5 runs when the response
//! arrives). A chain whose follow-on trace begins with TCP waits for an
//! external response (the sampled remote delay); a chain to a split-out
//! subtrace (the §IV-B error trace starts with Ser) continues
//! immediately.

use std::sync::Arc;

use accelflow_accel::queue::TenantId;
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::SimDuration;
use accelflow_trace::cond::PayloadFlags;
use accelflow_trace::ir::Trace;
use accelflow_trace::templates::{TemplateId, TraceLibrary};

mod program;

pub(crate) use program::Step;
pub use program::{sample_call, CallView, HopExec, Program, SegmentEnd, SegmentView};

/// Index of a service within a workload mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub usize);

/// The address of one in-flight trace call position: which request,
/// which program step, which arm of a parallel step, and how far into
/// the call's segment/hop chain execution has progressed.
///
/// Every machine event that concerns a call carries one of these, and
/// it round-trips through the accelerator queues as a packed `u64`
/// tag (`CallAddr::tag`) so a completing PE can find its owner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallAddr {
    /// Index of the request in the arrival list.
    pub(crate) req: u32,
    /// Program step holding the call.
    pub(crate) step: u8,
    /// Arm within a parallel step (0 for plain calls).
    pub(crate) par: u8,
    /// Segment of the call currently executing.
    pub(crate) seg: u8,
    /// Hop within the segment currently executing.
    pub(crate) hop: u8,
}

impl CallAddr {
    /// Packs the address into the `u64` tag format carried by
    /// accelerator queue entries.
    pub(crate) fn tag(self) -> u64 {
        ((self.req as u64) << 32)
            | ((self.step as u64) << 24)
            | ((self.par as u64) << 16)
            | ((self.seg as u64) << 8)
            | self.hop as u64
    }

    /// Inverse of [`CallAddr::tag`].
    pub(crate) fn from_tag(tag: u64) -> Self {
        CallAddr {
            req: (tag >> 32) as u32,
            step: (tag >> 24) as u8,
            par: (tag >> 16) as u8,
            seg: (tag >> 8) as u8,
            hop: tag as u8,
        }
    }
}

/// A log-normal payload-size distribution (median + shape), clamped to
/// `[64, max]` bytes — Fig 5's "median of a few KB with a long tail".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SizeDist {
    /// Median size in bytes.
    pub median: f64,
    /// Log-normal shape (σ of the underlying normal).
    pub sigma: f64,
    /// Hard cap in bytes (tails reach tens of KB, Fig 5).
    pub max: u64,
}

impl SizeDist {
    /// A distribution with a few-KB median and a tail to `max`.
    pub fn new(median: f64, sigma: f64, max: u64) -> Self {
        SizeDist { median, sigma, max }
    }

    /// Draws a size.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        (rng.log_normal(self.median, self.sigma).round() as u64).clamp(64, self.max)
    }
}

impl Default for SizeDist {
    /// The common case: 2 KB median, tail to 32 KB.
    fn default() -> Self {
        SizeDist::new(2048.0, 0.7, 32 * 1024)
    }
}

/// Where a sampled CPU stage saturates: about an hour at any modelled
/// clock. Log-normal tails are unbounded, so without a cap a large
/// configured median or sigma would draw stages that overflow
/// simulated time.
const MAX_SAMPLED_CYCLES: f64 = 1e13;

/// The delay of a lost external response (one hour, in µs), which is
/// also where every sampled external delay saturates.
const LOST_RESPONSE_US: f64 = 3.6e9;

/// A log-normal distribution over CPU cycles for app-logic stages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CyclesDist {
    /// Median cycles.
    pub median: f64,
    /// Log-normal shape.
    pub sigma: f64,
}

impl CyclesDist {
    /// Creates the distribution.
    pub fn new(median: f64, sigma: f64) -> Self {
        CyclesDist { median, sigma }
    }

    /// Draws a cycle count, saturating at about an hour of cycles.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.log_normal(self.median, self.sigma)
            .min(MAX_SAMPLED_CYCLES)
    }
}

/// Probabilities of the payload facts that branch conditions test.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlagProbs {
    /// P(payload compressed).
    pub compressed: f64,
    /// P(DB-cache hit).
    pub hit: f64,
    /// P(record found in DB).
    pub found: f64,
    /// P(response carries an exception).
    pub exception: f64,
    /// P(DB cache stores compressed entries).
    pub cache_compressed: f64,
}

impl FlagProbs {
    /// Draws one flag assignment.
    pub fn sample(&self, rng: &mut SimRng) -> PayloadFlags {
        PayloadFlags {
            compressed: rng.chance(self.compressed),
            hit: rng.chance(self.hit),
            found: rng.chance(self.found),
            exception: rng.chance(self.exception),
            cache_compressed: rng.chance(self.cache_compressed),
            custom_field: 0,
        }
    }
}

impl Default for FlagProbs {
    /// Typical service behavior: some compressed payloads, warm cache,
    /// records usually found, exceptions rare.
    fn default() -> Self {
        FlagProbs {
            compressed: 0.3,
            hit: 0.8,
            found: 0.97,
            exception: 0.01,
            cache_compressed: 0.25,
        }
    }
}

/// Remote-side delay for a chain point (DB cache, DB, callee service),
/// with a small bursty tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExternalSpec {
    /// Median delay.
    pub median: SimDuration,
    /// Log-normal shape.
    pub sigma: f64,
    /// Probability of a straggler.
    pub tail_p: f64,
    /// Straggler multiplier.
    pub tail_mult: f64,
    /// Probability the response is effectively lost (fires the TCP
    /// input-queue timeout of §IV-B).
    pub loss_p: f64,
}

impl ExternalSpec {
    /// Creates the spec.
    pub fn new(median: SimDuration, sigma: f64) -> Self {
        ExternalSpec {
            median,
            sigma,
            tail_p: 0.0035,
            tail_mult: 25.0,
            loss_p: 4e-6,
        }
    }

    /// Draws a delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        if rng.chance(self.loss_p) {
            // The response never arrives in time (dropped packet,
            // remote failure): the TCP timeout will fire.
            return SimDuration::from_micros_f64(LOST_RESPONSE_US);
        }
        let base = rng.log_normal(self.median.as_micros_f64().max(0.01), self.sigma);
        let mult = if rng.chance(self.tail_p) {
            self.tail_mult
        } else {
            1.0
        };
        SimDuration::from_micros_f64((base * mult).min(LOST_RESPONSE_US))
    }

    /// A fast same-rack DB-cache access (~20 µs median).
    pub fn db_cache() -> Self {
        ExternalSpec::new(SimDuration::from_micros(20), 0.3)
    }

    /// A slower database access (~90 µs median).
    pub fn db() -> Self {
        ExternalSpec::new(SimDuration::from_micros(90), 0.4)
    }

    /// A nested RPC to another service (~60 µs median).
    pub fn rpc() -> Self {
        ExternalSpec::new(SimDuration::from_micros(60), 0.5)
    }

    /// An HTTP call to an external endpoint (~200 µs median).
    pub fn http() -> Self {
        ExternalSpec::new(SimDuration::from_micros(200), 0.5)
    }
}

/// One trace call in a service path.
#[derive(Clone, Debug)]
pub struct CallSpec {
    /// The trace template to invoke.
    pub template: TemplateId,
    /// A custom trace overriding the template (for non-microservice
    /// workloads, e.g. the RELIEF coarse-grain suite). Custom traces
    /// are single-segment and core-initiated.
    pub custom: Option<Arc<Trace>>,
    /// Probability the core picks the with-Cmp variant (T8/T9/T11; for
    /// T2 vs T3 the path simply names the right template).
    pub cmp_variant_prob: f64,
    /// Payload size distribution.
    pub payload: SizeDist,
    /// Branch-outcome probabilities.
    pub flags: FlagProbs,
    /// Remote delay at response chain points.
    pub external: ExternalSpec,
}

impl CallSpec {
    /// A call with default payload/flag/external models.
    pub fn new(template: TemplateId) -> Self {
        let external = match template {
            TemplateId::T4 | TemplateId::T5 => ExternalSpec::db_cache(),
            TemplateId::T6 => ExternalSpec::db(),
            TemplateId::T8 | TemplateId::T7 => ExternalSpec::db_cache(),
            TemplateId::T9 | TemplateId::T10 => ExternalSpec::rpc(),
            TemplateId::T11 | TemplateId::T12 => ExternalSpec::http(),
            _ => ExternalSpec::db_cache(),
        };
        CallSpec {
            template,
            custom: None,
            cmp_variant_prob: 0.0,
            payload: SizeDist::default(),
            flags: FlagProbs::default(),
            external,
        }
    }

    /// Uses a custom, single-segment, core-initiated trace instead of
    /// a library template.
    pub fn custom(trace: Trace) -> Self {
        let mut spec = CallSpec::new(TemplateId::T1);
        spec.custom = Some(Arc::new(trace));
        spec
    }

    /// Sets the with-Cmp variant probability.
    pub fn with_cmp_prob(mut self, p: f64) -> Self {
        self.cmp_variant_prob = p;
        self
    }

    /// Sets the payload distribution.
    pub fn with_payload(mut self, payload: SizeDist) -> Self {
        self.payload = payload;
        self
    }

    /// Sets branch probabilities.
    pub fn with_flags(mut self, flags: FlagProbs) -> Self {
        self.flags = flags;
        self
    }
}

/// One stage of a service path.
#[derive(Clone, Debug)]
pub enum StageSpec {
    /// Application logic on a core.
    Cpu(CyclesDist),
    /// One trace call.
    Call(CallSpec),
    /// Parallel trace calls (e.g. CPost's `4x(T9-T10)`); the path joins
    /// before the next stage.
    Parallel(Vec<CallSpec>),
}

/// A service: its Table IV path plus all sampling distributions.
#[derive(Clone, Debug)]
pub struct ServiceSpec {
    /// Service name (e.g. "Login").
    pub name: String,
    /// Owning tenant.
    pub tenant: TenantId,
    /// The execution path.
    pub stages: Vec<StageSpec>,
    /// Soft-SLO slack factor: per-call deadlines are set to
    /// `slack × Σ accel_time` of the call when present (§IV-C).
    pub slo_slack: Option<f64>,
    /// Priority tag carried by this service's queue entries (higher
    /// runs first under the priority input-dispatcher policy, §V-1).
    pub priority: u8,
}

impl ServiceSpec {
    /// Creates a service from its path.
    pub fn new(name: impl Into<String>, stages: Vec<StageSpec>) -> Self {
        ServiceSpec {
            name: name.into(),
            tenant: TenantId(0),
            stages,
            slo_slack: None,
            priority: 0,
        }
    }

    /// The Table IV path string (e.g. `T1-CPU-T4-T5-CPU-T2`), derived
    /// from the stages with chains expanded on their common path.
    pub fn path_string(&self, lib: &TraceLibrary) -> String {
        let mut parts = Vec::new();
        for stage in &self.stages {
            match stage {
                StageSpec::Cpu(_) => parts.push("CPU".to_string()),
                StageSpec::Call(c) => parts.push(chain_names(lib, c)),
                StageSpec::Parallel(calls) => {
                    let inner = chain_names(lib, &calls[0]);
                    parts.push(format!("{}x({})", calls.len(), inner));
                }
            }
        }
        parts.join("-")
    }
}

fn chain_names(lib: &TraceLibrary, call: &CallSpec) -> String {
    // Follow the *most likely* chain for this call's flag
    // probabilities (e.g. a cache-cold T4 commonly runs T4-T5-T6-T7).
    let mut names = vec![call.template.name().to_string()];
    let mut current = call.template;
    loop {
        let next = match current {
            TemplateId::T4 => Some(TemplateId::T5),
            TemplateId::T5 if call.flags.hit < 0.5 => Some(TemplateId::T6),
            TemplateId::T6 if call.flags.found >= 0.5 => Some(TemplateId::T7),
            TemplateId::T8 => Some(TemplateId::T7),
            TemplateId::T9 => Some(TemplateId::T10),
            TemplateId::T11 => Some(TemplateId::T12),
            _ => None,
        };
        match next {
            Some(n) if lib.addr(n).is_some() => {
                names.push(n.name().to_string());
                current = n;
            }
            _ => break,
        }
    }
    names.join("-")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_addr_tag_roundtrips() {
        for (req, step, par, seg, hop) in [
            (0u32, 0u8, 0u8, 0u8, 0u8),
            (1, 2, 3, 4, 5),
            (u32::MAX, u8::MAX, u8::MAX, u8::MAX, u8::MAX),
            (123_456, 7, 0, 3, 11),
        ] {
            let addr = CallAddr {
                req,
                step,
                par,
                seg,
                hop,
            };
            assert_eq!(CallAddr::from_tag(addr.tag()), addr);
        }
    }

    #[test]
    fn path_string_names_chains() {
        let lib = TraceLibrary::standard();
        let svc = ServiceSpec::new(
            "ReadH",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Cpu(CyclesDist::new(10_000.0, 0.1)),
                StageSpec::Call(CallSpec::new(TemplateId::T4)),
                StageSpec::Call(CallSpec::new(TemplateId::T3)),
            ],
        );
        assert_eq!(svc.path_string(&lib), "T1-CPU-T4-T5-T3");
    }
}
