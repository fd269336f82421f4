//! Structured simulation telemetry: ring-buffered event records,
//! windowed time-series sampling, and a Chrome `trace_event` exporter.
//!
//! The end-of-run [stats](crate::stats) answer *how much*; this module
//! answers *where and when*. Models emit [`Record`]s — spans, instants,
//! and counters keyed by a [`CompId`] (an accelerator station, a DMA
//! engine, the manager, the ATM, …) — into a bounded [`Telemetry`] ring
//! buffer. A [`Sampler`] captures windowed occupancy/utilization rows
//! on a fixed cadence. The drained [`TelemetryReport`] renders as:
//!
//! - a Chrome `trace_event` JSON timeline ([`TelemetryReport::chrome_trace`])
//!   loadable in Perfetto / `chrome://tracing`, one track per component
//!   with flow arrows following each request across its trace chain;
//! - a per-component latency-breakdown table
//!   ([`TelemetryReport::component_breakdown`]);
//! - textual sparkline timelines over the sampled series
//!   ([`TelemetryReport::sparkline`]).
//!
//! # Cost model
//!
//! Telemetry is designed to be a single predictable branch when
//! disabled: emission helpers return immediately without evaluating
//! their arguments' side costs (see [`Telemetry::emit_with`]), and the
//! machine model holds its whole telemetry state in an `Option` so the
//! disabled hot path pays one `None` check per emission site. The ring
//! buffer bounds memory when enabled; overflow drops the *oldest*
//! records and counts them in [`Telemetry::dropped`] rather than
//! failing silently.
//!
//! # Example
//!
//! ```
//! use accelflow_sim::telemetry::{CompId, CompKind, Telemetry};
//! use accelflow_sim::time::{SimDuration, SimTime};
//!
//! let mut tel = Telemetry::new(1024);
//! let tcp = CompId::new(CompKind::Accelerator, 1);
//! tel.set_label(tcp, "TCP#0");
//! tel.span(SimTime::from_picos(1_000), tcp, "pe", SimDuration::from_nanos(5), Some(7), 512);
//! tel.instant(SimTime::from_picos(9_000), CompId::ATM, "atm_read", Some(7));
//! let report = tel.into_report();
//! let json = report.chrome_trace();
//! assert!(json.contains("\"ph\":\"X\""));
//! accelflow_sim::telemetry::validate_chrome_trace(&json).unwrap();
//! ```

use std::collections::{BTreeMap, VecDeque};

use crate::json::{escape, Value};
use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};

/// The class of component a record belongs to.
///
/// The variant order defines the track order in the Chrome-trace
/// export (machine-wide events first, then accelerators, then the
/// movement/orchestration engines).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompKind {
    /// Machine-wide events with no finer home (arrivals, timeouts).
    Machine,
    /// One accelerator station (index = flat station index).
    Accelerator,
    /// The shared A-DMA engine pool (lanes are split out per engine at
    /// export time).
    Dma,
    /// The centralized manager (RELIEF family and ablation fallbacks).
    Manager,
    /// The Accelerator Trace Memory.
    Atm,
    /// An accelerator-side TLB (index = flat station index).
    Tlb,
    /// A mesh/interconnect link.
    Link,
}

impl CompKind {
    fn fallback_label(self) -> &'static str {
        match self {
            CompKind::Machine => "machine",
            CompKind::Accelerator => "accel",
            CompKind::Dma => "A-DMA",
            CompKind::Manager => "manager",
            CompKind::Atm => "ATM",
            CompKind::Tlb => "TLB",
            CompKind::Link => "link",
        }
    }
}

/// A component identity: kind plus instance index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId {
    /// The component class.
    pub kind: CompKind,
    /// Instance index within the class (0 for singletons).
    pub index: u16,
}

impl CompId {
    /// The machine-wide pseudo-component.
    pub const MACHINE: CompId = CompId::new(CompKind::Machine, 0);
    /// The (singleton) A-DMA pool.
    pub const DMA: CompId = CompId::new(CompKind::Dma, 0);
    /// The centralized manager.
    pub const MANAGER: CompId = CompId::new(CompKind::Manager, 0);
    /// The Accelerator Trace Memory.
    pub const ATM: CompId = CompId::new(CompKind::Atm, 0);

    /// A component id of `kind` with instance `index`.
    pub const fn new(kind: CompKind, index: u16) -> Self {
        CompId { kind, index }
    }

    /// The accelerator station with flat index `station`.
    pub const fn accelerator(station: u16) -> Self {
        CompId::new(CompKind::Accelerator, station)
    }
}

/// What a [`Record`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A duration of activity on the component (Chrome `ph:"X"`).
    Span {
        /// How long the activity lasted.
        dur: SimDuration,
    },
    /// A point event (Chrome `ph:"i"`).
    Instant,
    /// A sampled counter value (Chrome `ph:"C"`).
    Counter {
        /// The counter value at [`Record::at`].
        value: u64,
    },
}

/// One telemetry record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// When the record begins (spans) or occurs (instants, counters).
    pub at: SimTime,
    /// Which component emitted it.
    pub comp: CompId,
    /// Event name — a short static identifier (`"pe"`, `"dma"`,
    /// `"glue"`, …); the per-name contracts live in `docs/METRICS.md`.
    pub name: &'static str,
    /// Span, instant, or counter.
    pub kind: RecordKind,
    /// The request this record belongs to, if any. Consecutive spans of
    /// the same request become flow arrows in the Chrome export.
    pub req: Option<u32>,
    /// A free numeric argument whose meaning is per-`name` (bytes for
    /// `"dma"`, glue instructions for `"glue"`, queueing picoseconds
    /// for `"pe"`); exported under `args.arg`.
    pub arg: u64,
}

/// A bounded, component-keyed event sink.
///
/// Records are kept in emission order in a ring buffer of fixed
/// capacity; when full, the oldest record is dropped and counted (the
/// tail of a run is usually the interesting part). A disabled sink
/// ([`Telemetry::disabled`]) accepts and discards everything with a
/// single branch.
#[derive(Clone, Debug)]
pub struct Telemetry {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<Record>,
    emitted: u64,
    dropped: u64,
    labels: BTreeMap<CompId, String>,
}

impl Telemetry {
    /// An enabled sink keeping at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "telemetry capacity must be positive");
        Telemetry {
            enabled: true,
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            emitted: 0,
            dropped: 0,
            labels: BTreeMap::new(),
        }
    }

    /// A sink that discards every record (for overhead measurement; the
    /// machine model uses `Option<…>::None` instead, which is cheaper
    /// still).
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            capacity: 0,
            ring: VecDeque::new(),
            emitted: 0,
            dropped: 0,
            labels: BTreeMap::new(),
        }
    }

    /// Whether records are being captured.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Names a component's track in the Chrome export (e.g. `"TCP#0"`).
    pub fn set_label(&mut self, comp: CompId, label: impl Into<String>) {
        if self.enabled {
            self.labels.insert(comp, label.into());
        }
    }

    #[inline]
    fn push(&mut self, record: Record) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
        self.emitted += 1;
    }

    /// Emits the record built by `f` — `f` runs only when the sink is
    /// enabled, so argument construction costs nothing when disabled.
    #[inline]
    pub fn emit_with(&mut self, f: impl FnOnce() -> Record) {
        if self.enabled {
            self.push(f());
        }
    }

    /// Emits a span of `dur` starting at `at`.
    #[inline]
    pub fn span(
        &mut self,
        at: SimTime,
        comp: CompId,
        name: &'static str,
        dur: SimDuration,
        req: Option<u32>,
        arg: u64,
    ) {
        if self.enabled {
            self.push(Record {
                at,
                comp,
                name,
                kind: RecordKind::Span { dur },
                req,
                arg,
            });
        }
    }

    /// Emits a point event at `at`.
    #[inline]
    pub fn instant(&mut self, at: SimTime, comp: CompId, name: &'static str, req: Option<u32>) {
        if self.enabled {
            self.push(Record {
                at,
                comp,
                name,
                kind: RecordKind::Instant,
                req,
                arg: 0,
            });
        }
    }

    /// Emits a point event at `at` carrying a payload in `arg` (e.g. a
    /// packed call position identifying which of several in-flight
    /// calls of one request the event belongs to).
    #[inline]
    pub fn instant_arg(
        &mut self,
        at: SimTime,
        comp: CompId,
        name: &'static str,
        req: Option<u32>,
        arg: u64,
    ) {
        if self.enabled {
            self.push(Record {
                at,
                comp,
                name,
                kind: RecordKind::Instant,
                req,
                arg,
            });
        }
    }

    /// Emits a counter sample at `at`.
    #[inline]
    pub fn counter(&mut self, at: SimTime, comp: CompId, name: &'static str, value: u64) {
        if self.enabled {
            self.push(Record {
                at,
                comp,
                name,
                kind: RecordKind::Counter { value },
                req: None,
                arg: 0,
            });
        }
    }

    /// Records currently buffered, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.ring.iter()
    }

    /// Total records accepted (including ones later dropped).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Records evicted because the ring was full. Non-zero means the
    /// timeline is truncated at the front — resize the capacity or
    /// shorten the run; the loss is *reported*, never silent.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the sink into a report (no sampler series).
    pub fn into_report(self) -> TelemetryReport {
        TelemetryReport {
            enabled: self.enabled,
            records: self.ring.into_iter().collect(),
            emitted: self.emitted,
            dropped: self.dropped,
            labels: self.labels,
            columns: Vec::new(),
            samples: Vec::new(),
            samples_missed: 0,
        }
    }

    /// Drains the sink and a [`Sampler`] into one report. Call
    /// [`Sampler::close`] with the run horizon first so trailing empty
    /// windows are counted in `samples_missed` instead of vanishing.
    pub fn into_report_with_samples(self, sampler: Sampler) -> TelemetryReport {
        let mut report = self.into_report();
        report.columns = sampler.columns;
        report.samples = sampler.rows;
        report.samples_missed = sampler.missed;
        report
    }
}

/// Fixed-cadence time-series capture: one row of named columns per
/// sampling window (per-accelerator utilization, queue occupancy,
/// tenant-slot pressure, …).
///
/// The owner checks [`Sampler::due`] on its own schedule (the machine
/// model piggybacks on event delivery, so sampling never perturbs the
/// event queue) and pushes a row of values matching the column layout.
#[derive(Clone, Debug)]
pub struct Sampler {
    interval: SimDuration,
    next: SimTime,
    columns: Vec<String>,
    rows: Vec<(SimTime, Vec<u64>)>,
    missed: u64,
}

impl Sampler {
    /// A sampler with the given window width and column names.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `columns` is empty.
    pub fn new(interval: SimDuration, columns: Vec<String>) -> Self {
        assert!(!interval.is_zero(), "sample interval must be positive");
        assert!(!columns.is_empty(), "sampler needs at least one column");
        Sampler {
            interval,
            next: SimTime::ZERO + interval,
            columns,
            rows: Vec::new(),
            missed: 0,
        }
    }

    /// The sampling window width.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// True when a sample is due at `now`.
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next
    }

    /// Appends a row at `at` and advances the next-due instant past
    /// `at`. Windows with no events are skipped, not back-filled — but
    /// each skipped window is counted in [`Sampler::missed`] (the
    /// [`Telemetry::dropped`] philosophy: loss is reported, never
    /// silent).
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the column layout.
    pub fn push_row(&mut self, at: SimTime, values: Vec<u64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((at, values));
        // The first advance closes the window this row samples; every
        // further advance is a window that elapsed with no row.
        let mut advances = 0u64;
        while self.next <= at {
            self.next += self.interval;
            advances += 1;
        }
        self.missed += advances.saturating_sub(1);
    }

    /// Closes the series at the run horizon: windows that ended at or
    /// before `horizon` but never received a row (the run went quiet,
    /// or the horizon landed exactly on a window edge after the last
    /// delivered event) are counted as missed instead of vanishing.
    /// Idempotent for a fixed `horizon`.
    pub fn close(&mut self, horizon: SimTime) {
        while self.next <= horizon {
            self.next += self.interval;
            self.missed += 1;
        }
    }

    /// Sampling windows that elapsed without a captured row (including
    /// tail windows counted by [`Sampler::close`]). Non-zero means the
    /// series has gaps — surface it next to any rendered sparkline.
    pub fn missed(&self) -> u64 {
        self.missed
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The captured rows, oldest first.
    pub fn rows(&self) -> &[(SimTime, Vec<u64>)] {
        &self.rows
    }
}

/// Per-component aggregate of the captured spans (the latency-breakdown
/// table of `experiments stats_profile`).
#[derive(Clone, Debug)]
pub struct ComponentRow {
    /// The component.
    pub comp: CompId,
    /// Its display label.
    pub label: String,
    /// Number of spans captured on it.
    pub spans: u64,
    /// Total busy time across its spans.
    pub busy: SimDuration,
    /// Mean span duration.
    pub mean: SimDuration,
    /// 99th-percentile span duration.
    pub p99: SimDuration,
    /// Longest span.
    pub max: SimDuration,
}

/// The drained result of a telemetry run: records, loss accounting,
/// track labels, and sampler series. Attached to the machine's run
/// report; render with [`chrome_trace`](TelemetryReport::chrome_trace),
/// [`component_breakdown`](TelemetryReport::component_breakdown), or
/// [`sparkline`](TelemetryReport::sparkline).
#[derive(Clone, Debug)]
pub struct TelemetryReport {
    /// Whether telemetry was on (a disabled report is empty and inert).
    pub enabled: bool,
    /// Captured records, oldest first.
    pub records: Vec<Record>,
    /// Total records accepted, including later-dropped ones.
    pub emitted: u64,
    /// Records lost to ring overflow (`emitted - records.len()` when
    /// nothing else drained the ring). Never silently zero: consumers
    /// should surface this next to any rendered timeline.
    pub dropped: u64,
    /// Component display labels.
    pub labels: BTreeMap<CompId, String>,
    /// Sampler column names (empty when sampling was off).
    pub columns: Vec<String>,
    /// Sampler rows `(instant, values)`, oldest first.
    pub samples: Vec<(SimTime, Vec<u64>)>,
    /// Sampling windows that elapsed without a row — skipped mid-run
    /// (no event delivered inside the window) or ending at the run
    /// horizon with nothing left to trigger a sample. The sampler
    /// analogue of [`TelemetryReport::dropped`]: a gap in the series
    /// is reported, never silent.
    pub samples_missed: u64,
}

impl TelemetryReport {
    /// The report of a run with telemetry off.
    pub fn disabled() -> Self {
        TelemetryReport {
            enabled: false,
            records: Vec::new(),
            emitted: 0,
            dropped: 0,
            labels: BTreeMap::new(),
            columns: Vec::new(),
            samples: Vec::new(),
            samples_missed: 0,
        }
    }

    fn label_of(&self, comp: CompId) -> String {
        match self.labels.get(&comp) {
            Some(l) => l.clone(),
            None => format!("{}{}", comp.kind.fallback_label(), comp.index),
        }
    }

    /// Index of a sampler column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Renders sampler column `col` as one glyph per row, scaled to the
    /// column maximum (a textual utilization timeline).
    ///
    /// # Panics
    ///
    /// Panics if `ramp` is empty or `col` is out of range.
    pub fn sparkline(&self, col: usize, ramp: &[char]) -> String {
        assert!(!ramp.is_empty(), "ramp must be non-empty");
        assert!(col < self.columns.len(), "column out of range");
        let max = self
            .samples
            .iter()
            .map(|(_, v)| v[col])
            .max()
            .unwrap_or(0)
            .max(1);
        self.samples
            .iter()
            .map(|(_, v)| {
                let idx = (v[col] * (ramp.len() as u64 - 1) + max / 2) / max;
                ramp[(idx as usize).min(ramp.len() - 1)]
            })
            .collect()
    }

    /// Aggregates span records per component, busiest first.
    pub fn component_breakdown(&self) -> Vec<ComponentRow> {
        let mut per: BTreeMap<CompId, Histogram> = BTreeMap::new();
        for r in &self.records {
            if let RecordKind::Span { dur } = r.kind {
                per.entry(r.comp).or_default().record(dur.as_picos());
            }
        }
        let mut rows: Vec<ComponentRow> = per
            .into_iter()
            .map(|(comp, h)| ComponentRow {
                comp,
                label: self.label_of(comp),
                spans: h.count(),
                busy: SimDuration::from_picos(h.mean().round() as u64 * h.count()),
                mean: h.mean_duration(),
                p99: h.percentile_duration(99.0),
                max: SimDuration::from_picos(h.max()),
            })
            .collect();
        rows.sort_by(|a, b| b.busy.cmp(&a.busy).then_with(|| a.comp.cmp(&b.comp)));
        rows
    }

    /// Exports the records as Chrome `trace_event` JSON (the "JSON
    /// Array Format" with a `traceEvents` wrapper), loadable in
    /// Perfetto or `chrome://tracing`.
    ///
    /// Layout: one process (`pid` 0); one thread track per component,
    /// with overlapping spans on a component split onto extra lanes
    /// (so the ten-engine A-DMA pool renders as up to ten stacked
    /// tracks). Spans become `ph:"X"` complete events with
    /// microsecond `ts`/`dur`; instants `ph:"i"`; counters `ph:"C"`;
    /// and each request's span chain is connected with `ph:"s"/"t"/"f"`
    /// flow arrows keyed by request id. Output is byte-deterministic
    /// for a given record set.
    pub fn chrome_trace(&self) -> String {
        // --- Assign each span a lane within its component so
        // overlapping spans (parallel engines/PEs) get their own rows.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct Track {
            comp: CompId,
            lane: u16,
        }
        let mut lane_of: Vec<u16> = vec![0; self.records.len()];
        {
            // Sort span indices per comp by start time; greedy lanes.
            let mut per: BTreeMap<CompId, Vec<usize>> = BTreeMap::new();
            for (i, r) in self.records.iter().enumerate() {
                if matches!(r.kind, RecordKind::Span { .. }) {
                    per.entry(r.comp).or_default().push(i);
                }
            }
            for idxs in per.into_values() {
                let mut sorted = idxs;
                sorted.sort_by_key(|&i| (self.records[i].at, i));
                let mut lane_free: Vec<u64> = Vec::new(); // end ps per lane
                for i in sorted {
                    let r = &self.records[i];
                    let start = r.at.as_picos();
                    let end = match r.kind {
                        RecordKind::Span { dur } => start + dur.as_picos(),
                        _ => unreachable!(),
                    };
                    let lane = match lane_free.iter().position(|&e| e <= start) {
                        Some(l) => l,
                        None => {
                            lane_free.push(0);
                            lane_free.len() - 1
                        }
                    };
                    lane_free[lane] = end;
                    lane_of[i] = lane as u16;
                }
            }
        }
        // --- Map (comp, lane) pairs to small integer tids.
        let mut tracks: Vec<Track> = self
            .records
            .iter()
            .enumerate()
            .map(|(i, r)| Track {
                comp: r.comp,
                lane: lane_of[i],
            })
            .collect();
        tracks.sort();
        tracks.dedup();
        let tid_of = |comp: CompId, lane: u16| -> usize {
            tracks
                .binary_search(&Track { comp, lane })
                .expect("every record's track is registered")
                + 1
        };

        let mut out = String::with_capacity(256 + self.records.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut first = true;
        let mut push_event = |out: &mut String, ev: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&ev);
        };

        // --- Metadata: process and per-track thread names.
        push_event(
            &mut out,
            "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
             \"args\":{\"name\":\"accelflow-sim\"}}"
                .to_string(),
        );
        for (i, t) in tracks.iter().enumerate() {
            let mut label = self.label_of(t.comp);
            if t.lane > 0 {
                label.push_str(&format!(" lane {}", t.lane));
            }
            push_event(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    i + 1,
                    escape(&label),
                ),
            );
        }

        // --- Events, stably ordered by timestamp (ties keep emission
        // order, so the export is byte-deterministic).
        let mut events: Vec<(u64, String)> = Vec::with_capacity(self.records.len() + 16);
        for (i, r) in self.records.iter().enumerate() {
            let ts = r.at.as_picos();
            let tid = tid_of(r.comp, lane_of[i]);
            let args = match r.req {
                Some(req) => format!("{{\"req\":{},\"arg\":{}}}", req, r.arg),
                None => format!("{{\"arg\":{}}}", r.arg),
            };
            let ev = match r.kind {
                RecordKind::Span { dur } => format!(
                    "{{\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"dur\":{},\
                     \"name\":\"{}\",\"args\":{args}}}",
                    micros(ts),
                    micros(dur.as_picos()),
                    escape(r.name),
                ),
                RecordKind::Instant => format!(
                    "{{\"ph\":\"i\",\"pid\":0,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"{}\",\"args\":{args}}}",
                    micros(ts),
                    escape(r.name),
                ),
                RecordKind::Counter { value } => format!(
                    "{{\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\"ts\":{},\
                     \"name\":\"{}\",\"args\":{{\"value\":{value}}}}}",
                    micros(ts),
                    escape(r.name),
                ),
            };
            events.push((ts, ev));
        }
        // --- Flow arrows: chain each request's spans in record order.
        let mut chains: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, r) in self.records.iter().enumerate() {
            if let (Some(req), RecordKind::Span { .. }) = (r.req, r.kind) {
                chains.entry(req).or_default().push(i);
            }
        }
        for (req, idxs) in chains {
            if idxs.len() < 2 {
                continue;
            }
            let last = idxs.len() - 1;
            for (pos, &i) in idxs.iter().enumerate() {
                let r = &self.records[i];
                let ph = if pos == 0 {
                    "s"
                } else if pos == last {
                    "f\",\"bp\":\"e"
                } else {
                    "t"
                };
                let ts = r.at.as_picos();
                events.push((
                    ts,
                    format!(
                        "{{\"ph\":\"{ph}\",\"pid\":0,\"tid\":{},\"ts\":{},\
                         \"id\":{req},\"cat\":\"req\",\"name\":\"req\"}}",
                        tid_of(r.comp, lane_of[i]),
                        micros(ts),
                    ),
                ));
            }
        }
        events.sort_by_key(|&(ts, _)| ts);
        for (_, ev) in events {
            push_event(&mut out, ev);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Formats picoseconds as a decimal-microsecond JSON number with fixed
/// six-digit fraction (exact, so exports are byte-deterministic).
fn micros(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

// --------------------------------------------------------------------
// Chrome-trace validation: the golden tests and
// `experiments stats_profile` parse the export with [`crate::json`] to prove it is
// schema-valid (the build environment has no serde to round-trip
// through).

/// Shape summary returned by [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `ph:"X"` complete (span) events.
    pub spans: usize,
    /// `ph:"C"` counter events.
    pub counters: usize,
    /// `ph:"i"` instant events.
    pub instants: usize,
    /// `ph:"s"/"t"/"f"` flow events.
    pub flows: usize,
    /// `ph:"M"` metadata events.
    pub metadata: usize,
}

/// Parses `json` and checks the Chrome `trace_event` schema: a
/// top-level object with a `traceEvents` array, every event an object
/// carrying a one-character string `ph`, numeric `ts` (except `ph:"M"`
/// metadata, where it is optional), numeric `pid`/`tid`, and a string
/// `name`; `ph:"X"` spans must also carry a numeric `dur`.
///
/// Returns a shape summary, or a description of the first violation.
pub fn validate_chrome_trace(json: &str) -> Result<TraceSummary, String> {
    let root = crate::json::parse(json).map_err(|e| e.to_string())?;
    let events = root
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let is_num = |v: Option<&Value>| matches!(v, Some(Value::Num(_)));
    let mut summary = TraceSummary::default();
    for (i, ev) in events.iter().enumerate() {
        let ctx = |field: &str| format!("event {i}: {field}");
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| ctx("missing string ph"))?;
        if ph.len() != 1 {
            return Err(ctx("ph must be one character"));
        }
        for field in ["pid", "tid"] {
            if !is_num(ev.get(field)) {
                return Err(ctx(&format!("missing numeric {field}")));
            }
        }
        if ev.get("name").and_then(Value::as_str).is_none() {
            return Err(ctx("missing string name"));
        }
        match ph {
            "M" => summary.metadata += 1,
            _ if !is_num(ev.get("ts")) => return Err(ctx("missing numeric ts")),
            "X" => {
                if !is_num(ev.get("dur")) {
                    return Err(ctx("span missing numeric dur"));
                }
                summary.spans += 1;
            }
            "C" => summary.counters += 1,
            "i" => summary.instants += 1,
            "s" | "t" | "f" => {
                if ev.get("id").is_none() {
                    return Err(ctx("flow event missing id"));
                }
                summary.flows += 1;
            }
            other => return Err(ctx(&format!("unexpected ph '{other}'"))),
        }
        summary.events += 1;
    }
    Ok(summary)
}

crate::impl_snapshot! {
    enum CompKind {
        0 => Machine,
        1 => Accelerator,
        2 => Dma,
        3 => Manager,
        4 => Atm,
        5 => Tlb,
        6 => Link,
    }
}

crate::impl_snapshot! { struct CompId { kind, index } }

crate::impl_snapshot! {
    struct Sampler { interval, next, columns, rows, missed } check Sampler::check_loaded
}

impl Sampler {
    /// Refuses a loaded sampler that could never have been built: a
    /// zero interval, no columns, or a row of the wrong width.
    fn check_loaded(&self) -> Result<(), crate::snapshot::SnapshotError> {
        let corrupt = |why: &str| Err(crate::snapshot::SnapshotError::Corrupt(why.into()));
        if self.interval.is_zero() {
            return corrupt("sampler interval is zero");
        }
        if self.columns.is_empty() {
            return corrupt("sampler has no columns");
        }
        if self
            .rows
            .iter()
            .any(|(_, row)| row.len() != self.columns.len())
        {
            return corrupt("sampler row width disagrees with columns");
        }
        Ok(())
    }
}

impl crate::snapshot::Snapshot for Telemetry {
    /// Captures the sink's configuration, counters, and labels — **not**
    /// the ring contents. [`Record::name`] is a `&'static str` interned
    /// at compile time, so buffered records cannot round-trip through a
    /// file; a restored sink resumes with an empty ring while `emitted`
    /// and `dropped` carry on from their saved values. The restored
    /// run's timeline therefore starts at the snapshot instant — see
    /// `docs/CHECKPOINT.md` for the full accounting of this exclusion.
    fn save(&self, w: &mut crate::snapshot::SnapWriter) {
        w.bool(self.enabled);
        w.usize(self.capacity);
        w.u64(self.emitted);
        w.u64(self.dropped);
        w.usize(self.labels.len());
        for (comp, label) in &self.labels {
            comp.save(w);
            label.save(w);
        }
    }
    fn load(
        r: &mut crate::snapshot::SnapReader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let enabled = r.bool()?;
        let capacity = r.usize()?;
        if enabled && capacity == 0 {
            return Err(crate::snapshot::SnapshotError::Corrupt(
                "enabled telemetry sink with zero capacity".into(),
            ));
        }
        let emitted = r.u64()?;
        let dropped = r.u64()?;
        let n = r.seq_len()?;
        let mut labels = BTreeMap::new();
        for _ in 0..n {
            let comp = CompId::load(r)?;
            let label = String::load(r)?;
            labels.insert(comp, label);
        }
        Ok(Telemetry {
            enabled,
            capacity,
            ring: VecDeque::with_capacity(capacity.min(4096)),
            emitted,
            dropped,
            labels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_picos(ns * 1000)
    }

    fn d(ns: u64) -> SimDuration {
        SimDuration::from_picos(ns * 1000)
    }

    #[test]
    fn disabled_sink_is_inert_and_skips_closures() {
        let mut tel = Telemetry::disabled();
        let mut evaluated = false;
        tel.emit_with(|| {
            evaluated = true;
            Record {
                at: t(1),
                comp: CompId::MACHINE,
                name: "x",
                kind: RecordKind::Instant,
                req: None,
                arg: 0,
            }
        });
        tel.span(t(1), CompId::DMA, "dma", d(5), None, 64);
        tel.instant(t(2), CompId::ATM, "atm_read", None);
        tel.counter(t(3), CompId::MACHINE, "live", 9);
        assert!(!evaluated, "closure must not run when disabled");
        assert!(!tel.is_enabled());
        assert_eq!(tel.emitted(), 0);
        assert_eq!(tel.records().count(), 0);
        let report = tel.into_report();
        assert!(!report.enabled);
        assert!(report.records.is_empty());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut tel = Telemetry::new(3);
        for i in 0..5u64 {
            tel.instant(t(i), CompId::MACHINE, "tick", None);
        }
        assert_eq!(tel.emitted(), 5);
        assert_eq!(tel.dropped(), 2);
        let kept: Vec<u64> = tel.records().map(|r| r.at.as_picos() / 1000).collect();
        assert_eq!(kept, vec![2, 3, 4], "the tail survives");
        let report = tel.into_report();
        assert_eq!(report.dropped, 2);
        assert_eq!(report.emitted, 5);
        assert_eq!(report.records.len(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Telemetry::new(0);
    }

    #[test]
    fn sampler_cadence_and_rows() {
        let mut s = Sampler::new(d(100), vec!["a".into(), "b".into()]);
        assert!(!s.due(t(50)));
        assert!(s.due(t(100)));
        s.push_row(t(100), vec![1, 2]);
        assert!(!s.due(t(150)));
        assert!(s.due(t(230)));
        s.push_row(t(230), vec![3, 4]);
        // The next-due instant advanced past the pushed row.
        assert!(!s.due(t(290)));
        assert!(s.due(t(300)));
        assert_eq!(s.rows().len(), 2);
        assert_eq!(s.columns(), ["a", "b"]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn sampler_rejects_ragged_rows() {
        let mut s = Sampler::new(d(10), vec!["a".into()]);
        s.push_row(t(10), vec![1, 2]);
    }

    #[test]
    fn sampler_counts_missed_windows() {
        let mut s = Sampler::new(d(100), vec!["a".into()]);
        s.push_row(t(100), vec![1]);
        assert_eq!(s.missed(), 0, "on-cadence row misses nothing");
        // Window edges at 200 and 300 pass before the next row at 310;
        // the late row covers one elapsed window, the other is missed.
        s.push_row(t(310), vec![2]);
        assert_eq!(s.missed(), 1, "skipped window counted");
        // A run ending exactly on a window edge: the window that ends
        // at the horizon got no row — counted, not silently dropped.
        s.close(t(400));
        assert_eq!(s.missed(), 2, "horizon-edge window counted");
        // Idempotent for the same horizon.
        s.close(t(400));
        assert_eq!(s.missed(), 2);
        let report = Telemetry::new(8).into_report_with_samples(s);
        assert_eq!(report.samples_missed, 2);
        assert_eq!(report.samples.len(), 2);
    }

    fn sample_report() -> TelemetryReport {
        let mut tel = Telemetry::new(64);
        let acc = CompId::accelerator(0);
        tel.set_label(acc, "TCP#0");
        tel.set_label(CompId::DMA, "A-DMA");
        // Two overlapping DMA spans: must split onto two lanes.
        tel.span(t(0), CompId::DMA, "dma", d(100), Some(1), 2048);
        tel.span(t(50), CompId::DMA, "dma", d(100), Some(2), 1024);
        // A request chain: dma -> pe -> manager.
        tel.span(t(100), acc, "pe", d(40), Some(1), 0);
        tel.span(t(150), CompId::MANAGER, "manager", d(20), Some(1), 0);
        tel.instant(t(160), CompId::ATM, "atm_read", Some(1));
        tel.counter(t(200), CompId::MACHINE, "live", 2);
        let mut sampler = Sampler::new(d(100), vec!["util:TCP".into()]);
        sampler.push_row(t(100), vec![3]);
        sampler.push_row(t(200), vec![9]);
        tel.into_report_with_samples(sampler)
    }

    #[test]
    fn chrome_trace_is_valid_and_deterministic() {
        let report = sample_report();
        let a = report.chrome_trace();
        let b = report.chrome_trace();
        assert_eq!(a, b, "export must be byte-deterministic");
        let summary = validate_chrome_trace(&a).expect("schema-valid");
        assert_eq!(summary.spans, 4);
        assert_eq!(summary.instants, 1);
        assert_eq!(summary.counters, 1);
        assert_eq!(summary.flows, 3, "req 1 chains three spans");
        assert!(summary.metadata >= 4, "process + thread names");
        // Overlapping DMA spans landed on separate lanes.
        assert!(a.contains("A-DMA lane 1"), "{a}");
        // Labels propagate.
        assert!(a.contains("TCP#0"));
    }

    #[test]
    fn component_breakdown_aggregates_spans() {
        let report = sample_report();
        let rows = report.component_breakdown();
        assert_eq!(rows.len(), 3, "dma + accel + manager");
        assert_eq!(rows[0].label, "A-DMA", "busiest first");
        assert_eq!(rows[0].spans, 2);
        assert_eq!(rows[0].busy, d(200));
        let pe = rows.iter().find(|r| r.label == "TCP#0").unwrap();
        assert_eq!(pe.spans, 1);
        assert_eq!(pe.mean, d(40));
    }

    #[test]
    fn sparkline_scales_to_column_max() {
        let report = sample_report();
        let art = report.sparkline(0, &['.', ':', '#']);
        assert_eq!(art, ":#", "3/9 rounds to middle glyph, 9/9 to top");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("{}").is_err(), "no traceEvents");
        assert!(validate_chrome_trace("not json").is_err());
        let missing_ph = r#"{"traceEvents":[{"ts":1,"pid":0,"tid":1,"name":"x"}]}"#;
        assert!(validate_chrome_trace(missing_ph).is_err());
        let missing_ts = r#"{"traceEvents":[{"ph":"X","pid":0,"tid":1,"name":"x","dur":1}]}"#;
        assert!(validate_chrome_trace(missing_ts).is_err());
        let span_no_dur = r#"{"traceEvents":[{"ph":"X","ts":1,"pid":0,"tid":1,"name":"x"}]}"#;
        assert!(validate_chrome_trace(span_no_dur).is_err());
        let ok = r#"{"traceEvents":[{"ph":"X","ts":1.5,"pid":0,"tid":1,"name":"x","dur":2}]}"#;
        let s = validate_chrome_trace(ok).unwrap();
        assert_eq!(s.spans, 1);
    }

    #[test]
    fn micros_formatting_is_exact() {
        assert_eq!(micros(0), "0.000000");
        assert_eq!(micros(1), "0.000001");
        assert_eq!(micros(1_000_000), "1.000000");
        assert_eq!(micros(1_234_567), "1.234567");
        assert_eq!(micros(987_654_321_012), "987654.321012");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny\u{1}"), "x\\ny\\u0001");
        assert_eq!(escape("plain"), "plain");
    }
}
