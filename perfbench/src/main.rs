//! End-to-end and per-layer benchmark of the AccelFlow simulator.
//!
//! ```text
//! perfbench --workload <fig11_crn|fig14_search|diurnal_cluster>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload on one thread (`ACCELFLOW_THREADS` is
//! pinned to 1). The untraced run (`--trace 0`) repeats timed passes of
//! set-up plus run until `--seconds` have passed, checks every pass's
//! outputs, and reports the end-to-end metrics as medians over the
//! passes. The traced run (`--trace 1`) reports the per-layer metrics
//! and writes its spans to `out/` in this package. The last line of
//! standard output is one JSON object; see `README.md` for every
//! metric.

mod alloc;
mod trace;
mod workloads;

use std::collections::{BTreeMap, BinaryHeap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use accelflow_trace::templates::TraceLibrary;

use trace::Tracer;
use workloads::{Outcome, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The seed claims are developed on. Seed 1009 is held out for
/// confirming them (see `README.md`).
const DEFAULT_SEED: u64 = 42;

/// Fewest timed passes a run makes, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// A pass repeats its set-up until this long has passed, so set-ups
/// far shorter than the clock's noise still read steadily.
const SETUP_MIN: Duration = Duration::from_millis(50);

/// The end-to-end metrics and their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("run_ref", "ratio"),
    ("peak_rss_mb", "MB"),
    ("allocs_per_req", "count"),
    ("sim_p99_us", "us"),
    ("served_pct", "%"),
    ("slo_window_pct", "%"),
    ("max_rps", "req/s/service"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// A `/proc/self/status` field in MiB (`VmHWM`, `VmRSS`).
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference loop's time on the reference host. Host times are
/// reported at this speed: on a shared host the speed drifts by tens of
/// percent over minutes, and the reference loop drifts with it.
const REF_HOST_S: f64 = 0.13;

/// Seconds taken by a fixed std-only reference workload: a binary-heap
/// event queue with `Vec` churn, shaped like a simulation kernel but
/// sharing no code with this repository. Dividing a run time by it
/// cancels how fast the host happens to be running.
fn reference_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut queue = BinaryHeap::with_capacity(8192);
    for id in 0..4096u64 {
        queue.push(std::cmp::Reverse((next() % 10_000, id)));
    }
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(256);
    let mut sum = 0u64;
    for step in 0..1_500_000u64 {
        let std::cmp::Reverse((t, id)) = queue.pop().expect("queue never drains");
        let r = next();
        queue.push(std::cmp::Reverse((t + r % 1_000, id)));
        if step % 3 == 0 {
            live.push(vec![r; (r % 48) as usize + 1]);
            if live.len() == 256 {
                let gone = live.swap_remove((r >> 8) as usize % 256);
                sum = sum.wrapping_add(gone[0]);
            }
        }
        sum = sum.wrapping_add(t);
    }
    black_box(sum);
    start.elapsed().as_secs_f64()
}

/// One timed pass: set-up, then the run phase bracketed by the
/// reference loop.
struct Pass {
    setup_s: f64,
    run_s: f64,
    ref_s: f64,
    allocs: u64,
    outcome: Outcome,
}

fn timed_pass(w: Workload, seed: u64) -> Pass {
    let start = Instant::now();
    let mut setups = 0u32;
    let (inputs, setup_allocs) = loop {
        let heap = alloc::heap();
        let inputs = black_box(workloads::setup(w, seed, None));
        setups += 1;
        if start.elapsed() >= SETUP_MIN {
            break (inputs, alloc::heap().since(heap).allocs);
        }
    };
    let setup_s = start.elapsed().as_secs_f64() / f64::from(setups);
    let ref_before = reference_s();
    let heap = alloc::heap();
    let start = Instant::now();
    let outcome = workloads::run(inputs, None);
    let run_s = start.elapsed().as_secs_f64();
    let allocs = setup_allocs + alloc::heap().since(heap).allocs;
    let ref_after = reference_s();
    Pass {
        setup_s,
        run_s,
        ref_s: ref_before.min(ref_after),
        allocs,
        outcome,
    }
}

/// What a run prints: its metrics, and how many of its passes failed
/// an output check (a check across passes fails all of them).
struct Report {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    metrics: BTreeMap<String, (f64, &'static str)>,
}

fn untraced(w: Workload, seed: u64, seconds: f64) -> Report {
    TraceLibrary::standard();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        passes.push(timed_pass(w, seed));
    }
    let mut failures: Vec<String> = passes
        .iter()
        .flat_map(|p| p.outcome.failures.iter().cloned())
        .collect();
    let mut failed = passes
        .iter()
        .filter(|p| !p.outcome.failures.is_empty())
        .count();
    let first = &passes[0].outcome;
    if passes.iter().any(|p| p.outcome != *first) {
        failures.push("simulated results differ between passes of one seed".into());
        failed = passes.len();
    }
    // The first pass also pays one-time lazy initialisation; later
    // passes must allocate identically.
    let allocs = passes[1].allocs;
    if passes[1..].iter().any(|p| p.allocs != allocs) {
        failures.push("allocation counts differ between passes of one seed".into());
        failed = passes.len();
    }
    let col = |f: fn(&Pass) -> f64| median(&mut passes.iter().map(f).collect::<Vec<_>>());
    let run_ref = col(|p| p.run_s / p.ref_s);
    let values = [
        col(|p| p.setup_s / p.ref_s) * REF_HOST_S,
        run_ref * REF_HOST_S,
        run_ref,
        proc_status_mb("VmHWM"),
        allocs as f64 / first.generated as f64,
        first.sim_p99_us,
        first.served_pct,
        first.slo_window_pct,
        first.max_rps,
    ];
    for p in &passes {
        eprintln!(
            "pass: setup {:.6} s  run {:.4} s  ref {:.4} s  allocs {}",
            p.setup_s, p.run_s, p.ref_s, p.allocs
        );
    }
    Report {
        attempted: passes.len(),
        failed,
        failures,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name.to_string(), (v, unit)))
            .collect(),
    }
}

/// One traced pass: set-up and run with every layer call in a span.
/// Returns the run phase's seconds, its outcome and its metrics.
fn traced_pass(w: Workload, seed: u64, tr: &mut Tracer) -> (f64, Outcome, BTreeMap<String, f64>) {
    let ((run_s, outcome), _) = tr.span(w.name(), |tr| {
        let (inputs, _) = tr.span("setup", |tr| workloads::setup(w, seed, Some(tr)));
        tr.set("mem.rss_after_setup_mb", proc_status_mb("VmRSS"));
        let (outcome, run_s) = tr.span("run", |tr| workloads::run(inputs, Some(tr)));
        (run_s, outcome)
    });
    (run_s, outcome, tr.next_run())
}

fn traced(w: Workload, seed: u64, seconds: f64) -> Report {
    let mut tr = Tracer::new();
    let (_, library_s) = tr.span("trace.library", |_| TraceLibrary::standard());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut check = |f: Vec<String>| {
        attempted += 1;
        failed += usize::from(!f.is_empty());
        failures.extend(f);
    };
    let mut traced_s = f64::INFINITY;
    let mut overheads = Vec::new();
    let mut own = BTreeMap::new();
    // Untraced and traced passes alternate, so each pair sees nearly the
    // same host speed.
    while overheads.len() < 2 || Instant::now() < deadline {
        let plain = timed_pass(w, seed);
        let (run_s, outcome, metrics) = traced_pass(w, seed, &mut tr);
        let mut f = plain.outcome.failures.clone();
        f.extend(outcome.failures.iter().cloned());
        if outcome != plain.outcome {
            f.push("the traced run's simulated results differ from the untraced run's".into());
        }
        check(f);
        eprintln!(
            "pair: untraced run {:.4} s  traced run {run_s:.4} s",
            plain.run_s
        );
        overheads.push(run_s / plain.run_s);
        if run_s < traced_s {
            traced_s = run_s;
            own = metrics;
        }
    }
    // Layers this workload does not exercise are measured on the
    // workload that does; this workload's own figures take precedence.
    let mut metrics = BTreeMap::new();
    for other in Workload::ALL.into_iter().filter(|&x| x != w) {
        let (_, outcome, m) = traced_pass(other, seed, &mut tr);
        check(outcome.failures);
        metrics.extend(m);
    }
    for x in Workload::ALL {
        check(workloads::probes(x, seed, &mut tr));
        metrics.extend(tr.next_run());
    }
    metrics.extend(own);
    metrics.insert("trace.library_s".into(), library_s);
    metrics.insert(
        "trace_overhead_pct".into(),
        100.0 * (median(&mut overheads) - 1.0),
    );

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans_{}_{seed}.json", w.name());
    let mut last = Vec::new();
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_json())) {
        last.push(format!("writing {path}: {e}"));
    }
    let units = workloads::per_layer_units();
    let mut out = BTreeMap::new();
    for (name, unit) in &units {
        match metrics.get(name) {
            Some(&v) => {
                out.insert(name.clone(), (v, *unit));
            }
            None => last.push(format!("per-layer metric {name} was not measured")),
        }
    }
    check(last);
    Report {
        attempted,
        failed,
        failures,
        metrics: out,
    }
}

fn main() {
    // Pinned before anything reads it: one simulation thread.
    std::env::set_var("ACCELFLOW_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    assert_eq!(accelflow_bench::sweep::parallelism(), 1);
    let mut report = if args.trace {
        traced(args.workload, args.seed, args.seconds)
    } else {
        untraced(args.workload, args.seed, args.seconds)
    };
    for (name, (v, _)) in &report.metrics {
        if !v.is_finite() {
            report.failures.push(format!("{name} is not finite"));
            report.failed = report.attempted;
        }
    }
    for f in &report.failures {
        eprintln!("check failed: {f}");
    }
    let mut json = String::new();
    for (i, (name, (v, unit))) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.failures.is_empty(),
        report.attempted,
        report.failed
    );
}
