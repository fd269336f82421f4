//! In-memory span recorder for the traced run. Spans are opened and
//! closed around calls into the simulator's public functions; nothing
//! inside the simulator is instrumented. The spans are written out as
//! JSON once the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use accelflow_core::machine::Ev;

struct Span {
    name: String,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
    run: u32,
}

/// Records spans and the per-layer metrics read at span boundaries.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    /// Per-layer metrics of the current run, keyed by metric name.
    metrics: BTreeMap<String, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            metrics: BTreeMap::new(),
        }
    }

    /// Starts a new run id and hands back the previous run's metrics.
    pub fn next_run(&mut self) -> BTreeMap<String, f64> {
        self.run += 1;
        std::mem::take(&mut self.metrics)
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.origin.elapsed().as_nanos(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = self.origin.elapsed().as_nanos();
        let span = &mut self.spans[id];
        span.end_ns = end;
        (out, (end - span.start_ns) as f64 * 1e-9)
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// All spans as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Every [`Ev`] variant's name, in [`ev_index`] order.
pub const EV_NAMES: [&str; 15] = [
    "Arrive",
    "StartStep",
    "AppDone",
    "HopArrive",
    "HopArriveRetry",
    "ExternalArriveCpu",
    "PeDone",
    "TryStart",
    "ExternalArrive",
    "CallDone",
    "FallbackDone",
    "Timeout",
    "FaultInject",
    "StallEnd",
    "ScaleTick",
];

/// Exact per-variant event counts, filled by a public observer.
pub type EvCounts = [u64; EV_NAMES.len()];

pub fn ev_index(ev: &Ev) -> usize {
    match ev {
        Ev::Arrive(_) => 0,
        Ev::StartStep(_) => 1,
        Ev::AppDone(_) => 2,
        Ev::HopArrive(_) => 3,
        Ev::HopArriveRetry(_) => 4,
        Ev::ExternalArriveCpu(_) => 5,
        Ev::PeDone { .. } => 6,
        Ev::TryStart(_) => 7,
        Ev::ExternalArrive(_) => 8,
        Ev::CallDone { .. } => 9,
        Ev::FallbackDone(_) => 10,
        Ev::Timeout { .. } => 11,
        Ev::FaultInject(_) => 12,
        Ev::StallEnd(_) => 13,
        Ev::ScaleTick => 14,
    }
}
