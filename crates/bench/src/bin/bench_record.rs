//! Records the kernel performance trajectory: runs the event-kernel
//! microbenches plus fig11/fig14-shaped macro simulations and writes a
//! machine-readable `BENCH_<n>.json` snapshot (events/sec, wall-clock,
//! peak RSS, event counts, git revision). One snapshot is committed per
//! PR; CI re-runs the same benches and fails on a >10% events/sec
//! regression against the committed file. See `docs/BENCHMARKS.md`.
//!
//! Usage:
//!
//! ```text
//! bench_record record [--out BENCH_6.json] [--baseline-from FILE]
//! bench_record check BENCH_6.json
//! ```
//!
//! `record` measures and writes a snapshot; `--baseline-from` embeds a
//! previous snapshot's `current` section as this file's `baseline`
//! (the pre-change measurement the PR's improvement is judged
//! against). `check` re-measures and fails (exit 1) if any bench's
//! fresh events/sec falls more than the tolerance below the committed
//! `current` figures.
//!
//! Environment knobs: `ACCELFLOW_BENCH_MS` (macro-run window, default
//! 120), `ACCELFLOW_BENCH_REPS` (repetitions, best-of, default 3),
//! `ACCELFLOW_BENCH_TOLERANCE` (check slack, default 0.10),
//! `ACCELFLOW_SEED`.

use std::time::Instant;

use accelflow_bench::harness::{self, Scale};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_sim::engine::{EventQueue, Model, Simulation};
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_workloads::socialnetwork;

/// One measured bench: total events delivered, best wall-clock, and
/// the derived throughput.
#[derive(Clone, Debug)]
struct Measure {
    name: &'static str,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
}

/// Self-rescheduling timer churn (the `engine/100k_events` criterion
/// shape, scaled up): every delivery schedules one follow-on at a
/// staggered delay, keeping a steady queue population.
struct Churn {
    left: u64,
}

impl Model for Churn {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
        if self.left > 0 {
            self.left -= 1;
            queue.schedule(
                SimDuration::from_nanos(u64::from(ev % 97) + 1),
                ev.wrapping_add(1),
            );
        }
    }
}

/// Discards every event: used to drain a pre-filled queue so the raw
/// schedule+pop cost is measured without model work.
struct Drain;

impl Model for Drain {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, _ev: u32, _queue: &mut EventQueue<u32>) {}
}

fn reps() -> u32 {
    std::env::var("ACCELFLOW_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Runs `run` (returning an event count) `reps()` times and keeps the
/// fastest repetition — best-of filters scheduler noise. `setup`
/// produces each repetition's input *outside* the timed section, and
/// lazily: one repetition's input is alive at a time, so peak RSS
/// reflects the simulation, not a stash of pre-cloned inputs.
fn best_of_with<T>(
    name: &'static str,
    mut setup: impl FnMut() -> T,
    mut run: impl FnMut(T) -> u64,
) -> Measure {
    let mut best: Option<Measure> = None;
    for _ in 0..reps() {
        let input = setup();
        let t0 = Instant::now();
        let events = run(input);
        let wall_s = t0.elapsed().as_secs_f64();
        let m = Measure {
            name,
            events,
            wall_s,
            events_per_sec: events as f64 / wall_s.max(1e-9),
        };
        if best
            .as_ref()
            .is_none_or(|b| m.events_per_sec > b.events_per_sec)
        {
            best = Some(m);
        }
    }
    let m = best.expect("at least one repetition");
    eprintln!(
        "  {:<24} {:>12} events  {:>8.3} s  {:>12.0} events/s",
        m.name, m.events, m.wall_s, m.events_per_sec
    );
    m
}

fn best_of(name: &'static str, mut f: impl FnMut() -> u64) -> Measure {
    best_of_with(name, || (), |()| f())
}

fn bench_engine_churn() -> Measure {
    best_of("engine_churn_1m", || {
        let mut sim = Simulation::new(Churn { left: 1_000_000 });
        sim.queue_mut().schedule(SimDuration::ZERO, 1);
        sim.run();
        sim.queue_mut().delivered()
    })
}

fn bench_schedule_pop() -> Measure {
    best_of("engine_schedule_pop_400k", || {
        let mut sim = Simulation::new(Drain);
        let q = sim.queue_mut();
        // Pseudo-random arrival pattern (LCG) with same-time bursts.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..400_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = SimTime::from_picos((x >> 20) % 1_000_000_000);
            q.schedule_at(at, i as u32);
        }
        sim.run();
        sim.queue_mut().delivered()
    })
}

/// Macro-run window in milliseconds of simulated time.
fn bench_ms() -> u64 {
    std::env::var("ACCELFLOW_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120)
}

fn seed() -> u64 {
    std::env::var("ACCELFLOW_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// One full machine simulation counting delivered events; arrivals are
/// generated outside the timed section.
fn machine_run(name: &'static str, policy: Policy, bursty: bool, rps: f64) -> Measure {
    let services = socialnetwork::all();
    let ms = bench_ms();
    let scale = Scale {
        duration: SimDuration::from_millis(ms),
        warmup: SimDuration::from_millis((ms / 8).max(2)),
        rps,
        seed: seed(),
    };
    let arrivals = if bursty {
        harness::shared_arrivals(&services, scale)
    } else {
        use accelflow_accel::timing::ServiceTimeModel;
        use accelflow_trace::templates::TraceLibrary;
        let lib = TraceLibrary::standard();
        let timing =
            ServiceTimeModel::calibrated(accelflow_arch::config::ArchConfig::icelake().core_clock);
        accelflow_core::poisson_arrivals(
            &services,
            &lib,
            &timing,
            scale.rps,
            scale.duration,
            scale.seed,
        )
    };
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = scale.warmup;
    // Pin the observability switches: the trajectory tracks the bare
    // kernel, not the audit/telemetry feature combinations.
    cfg.audit = false;
    cfg.telemetry = false;
    // Clone the arrival list once per repetition, outside the timed
    // section: the deep copy is bench plumbing, not kernel work — and
    // cloning lazily keeps one copy alive at a time (pre-cloning all
    // repetitions up front inflated peak RSS by reps × arrival list).
    best_of_with(
        name,
        || arrivals.clone(),
        |arr| {
            let mut events = 0u64;
            let _report = Machine::run_arrivals_observed(
                &cfg,
                &services,
                arr,
                scale.duration,
                scale.seed,
                |_, _| events += 1,
            );
            events
        },
    )
}

/// Open-loop arrival generation at the headline scale: one simulated
/// day (diurnal modulation) streamed through [`openloop_each`] and
/// *counted, not collected* — the generator must sustain 1M+ arrivals
/// without holding them, so this bench tracks generation throughput
/// and keeps the trajectory's peak-RSS figure honest. "Events" here
/// are generated arrivals, not kernel deliveries.
///
/// [`openloop_each`]: accelflow_workloads::openloop::openloop_each
fn bench_openloop_arrivals() -> Measure {
    use accelflow_accel::timing::ServiceTimeModel;
    use accelflow_trace::templates::TraceLibrary;
    use accelflow_workloads::openloop::{openloop_each, Diurnal};
    let services = socialnetwork::all();
    let lib = TraceLibrary::standard();
    let timing =
        ServiceTimeModel::calibrated(accelflow_arch::config::ArchConfig::icelake().core_clock);
    // all() has 8 services: 15.7k mean rps each over 8 s ≈ 1.0M total.
    let duration = SimDuration::from_millis(8_000);
    let process = Diurnal::day(duration, 0.8);
    best_of("openloop_1m_arrivals", || {
        let mut n = 0u64;
        openloop_each(
            &process,
            &services,
            &lib,
            &timing,
            15_700.0,
            duration,
            seed(),
            |_| n += 1,
        );
        n
    })
}

/// One full fig14-style throughput search with the warm-start mode
/// pinned: `warm` forks every probe from one shared prefix snapshot,
/// cold re-simulates the prefix per probe (`docs/CHECKPOINT.md`). The
/// machine is the determinism suite's narrow 2-core/1-PE box so the
/// search stays a few seconds; "events" is 1 (one search), so
/// `events_per_sec` is searches/second — the regression gate then
/// guards the search's wall-clock, and the warm/cold ratio is the
/// honest warm-start speedup quoted in `docs/BENCHMARKS.md`.
///
/// The warmup is stretched to 4 s of simulated conditioning — the
/// regime warm-starting exists for. At millisecond warmups the prefix
/// is noise next to the 80–2000 ms probe windows and the two modes
/// time within a few percent of each other (measured; see the
/// accounting in `docs/BENCHMARKS.md`).
fn bench_search(name: &'static str, warm: bool) -> Measure {
    let services = vec![socialnetwork::uniq_id()];
    let mut cfg = harness::machine_config(Policy::AccelFlow, Scale::quick());
    cfg.arch.cores = 2;
    cfg.arch.pes_per_accelerator = 1;
    cfg.warmup = SimDuration::from_millis(4000);
    best_of(name, || {
        let rps = harness::max_throughput_with_mode(&cfg, &services, 5.0, seed(), warm);
        assert!(rps > 0.0, "search found no sustainable load");
        1
    })
}

/// Peak resident set size in kB (`VmHWM`), or 0 where unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run_all() -> Vec<Measure> {
    eprintln!(
        "bench_record: {} reps, macro window {} ms",
        reps(),
        bench_ms()
    );
    let only = std::env::var("ACCELFLOW_BENCH_ONLY").ok();
    let want = |name: &str| {
        only.as_deref()
            .is_none_or(|f| f.split(',').any(|n| n.trim() == name))
    };
    let mut out = Vec::new();
    if want("engine_churn_1m") {
        out.push(bench_engine_churn());
    }
    if want("engine_schedule_pop_400k") {
        out.push(bench_schedule_pop());
    }
    if want("fig11_shape") {
        out.push(machine_run(
            "fig11_shape",
            Policy::AccelFlow,
            true,
            13_400.0,
        ));
    }
    if want("fig14_shape") {
        out.push(machine_run(
            "fig14_shape",
            Policy::AccelFlow,
            false,
            8_000.0,
        ));
    }
    if want("fig14_shape_relief") {
        out.push(machine_run(
            "fig14_shape_relief",
            Policy::Relief,
            false,
            4_000.0,
        ));
    }
    if want("openloop_1m_arrivals") {
        out.push(bench_openloop_arrivals());
    }
    if want("fig14_search_warm") {
        out.push(bench_search("fig14_search_warm", true));
    }
    if want("fig14_search_cold") {
        out.push(bench_search("fig14_search_cold", false));
    }
    out
}

/// Renders one snapshot section (`"current"` / `"baseline"`) with each
/// bench on a single line, which keeps the file greppable and lets
/// `check` parse it without a JSON library.
fn render_section(rev: &str, rss_kb: u64, ms: &[Measure]) -> String {
    let mut s = String::new();
    s.push_str(&format!("    \"git_rev\": \"{rev}\",\n"));
    s.push_str(&format!("    \"peak_rss_kb\": {rss_kb},\n"));
    s.push_str("    \"benches\": {\n");
    for (i, m) in ms.iter().enumerate() {
        let comma = if i + 1 == ms.len() { "" } else { "," };
        s.push_str(&format!(
            "      \"{}\": {{\"events\": {}, \"wall_s\": {:.4}, \"events_per_sec\": {:.1}}}{}\n",
            m.name, m.events, m.wall_s, m.events_per_sec, comma
        ));
    }
    s.push_str("    }\n");
    s
}

/// One bench entry parsed back out of a snapshot file.
#[derive(Clone, Debug)]
struct ParsedBench {
    name: String,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
}

/// The numeric value following `"key":` in a single-line JSON object.
fn json_num(rest: &str, key: &str) -> Option<f64> {
    let after = rest.split(&format!("\"{key}\":")).nth(1)?;
    let tok: String = after
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    tok.parse().ok()
}

/// Extracts the full bench measurements from a named section of a
/// snapshot file written by [`render_section`].
fn parse_section(text: &str, section: &str) -> Vec<ParsedBench> {
    let mut out = Vec::new();
    let mut in_section = false;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with(&format!("\"{section}\":")) {
            in_section = true;
            continue;
        }
        if in_section && (t.starts_with("\"current\":") || t.starts_with("\"baseline\":")) {
            break; // next section began
        }
        if !in_section {
            continue;
        }
        if let Some((name_part, rest)) = t.split_once("\": {\"events\"") {
            let name = name_part.trim_start_matches('"').to_string();
            let events = json_num(t, "events").unwrap_or(0.0) as u64;
            let wall_s = json_num(rest, "wall_s").unwrap_or(0.0);
            if let Some(events_per_sec) = json_num(rest, "events_per_sec") {
                out.push(ParsedBench {
                    name,
                    events,
                    wall_s,
                    events_per_sec,
                });
            }
        }
    }
    out
}

fn record(out: Option<String>, baseline_from: Option<String>) {
    let ms = run_all();
    let rss = peak_rss_kb();
    let rev = git_rev();
    let baseline = baseline_from.map(|p| {
        let text = std::fs::read_to_string(&p)
            .unwrap_or_else(|e| panic!("cannot read baseline file {p}: {e}"));
        let rev = text
            .lines()
            .skip_while(|l| !l.trim().starts_with("\"current\":"))
            .find_map(|l| l.trim().strip_prefix("\"git_rev\": \""))
            .map(|v| v.trim_end_matches("\",").to_string())
            .unwrap_or_else(|| "unknown".into());
        let rss = text
            .lines()
            .skip_while(|l| !l.trim().starts_with("\"current\":"))
            .find_map(|l| l.trim().strip_prefix("\"peak_rss_kb\": "))
            .and_then(|v| v.trim_end_matches(',').parse().ok())
            .unwrap_or(0);
        (parse_section(&text, "current"), rev, rss)
    });

    let mut json = String::from("{\n  \"schema\": 1,\n");
    json.push_str("  \"current\": {\n");
    json.push_str(&render_section(&rev, rss, &ms));
    json.push_str("  }");
    if let Some((benches, brev, brss)) = &baseline {
        json.push_str(",\n  \"baseline\": {\n");
        // Embed the baseline's full measurements verbatim — events and
        // wall-clock included, so `check` can verify the section is a
        // real measurement and not a zeroed husk.
        let bm: Vec<ParsedBench> = benches
            .iter()
            .filter(|b| ms.iter().any(|m| m.name == b.name.as_str()))
            .cloned()
            .collect();
        let mut s = String::new();
        s.push_str(&format!("    \"git_rev\": \"{brev}\",\n"));
        s.push_str(&format!("    \"peak_rss_kb\": {brss},\n"));
        s.push_str("    \"benches\": {\n");
        for (i, b) in bm.iter().enumerate() {
            let comma = if i + 1 == bm.len() { "" } else { "," };
            s.push_str(&format!(
                "      \"{}\": {{\"events\": {}, \"wall_s\": {:.4}, \"events_per_sec\": {:.1}}}{}\n",
                b.name, b.events, b.wall_s, b.events_per_sec, comma
            ));
        }
        s.push_str("    }\n");
        json.push_str(&s);
        json.push_str("  }");
        // Improvement ratio on the headline macro shape.
        if let (Some(cur), Some(base)) = (
            ms.iter().find(|m| m.name == "fig14_shape"),
            bm.iter().find(|b| b.name == "fig14_shape"),
        ) {
            if base.events_per_sec > 0.0 {
                json.push_str(&format!(
                    ",\n  \"fig14_speedup\": {:.2}",
                    cur.events_per_sec / base.events_per_sec
                ));
            }
        }
    }
    json.push_str("\n}\n");

    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => print!("{json}"),
    }
}

fn check(path: &str) {
    let tol: f64 = std::env::var("ACCELFLOW_BENCH_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let committed = parse_section(&text, "current");
    assert!(
        !committed.is_empty(),
        "no benches found in the committed snapshot {path}"
    );
    // Refuse snapshots whose baseline section is a zeroed husk: a
    // baseline with `events: 0` or `wall_s: 0.0` was never a real
    // measurement, so every comparison made against it is fiction.
    let corrupt: Vec<String> = parse_section(&text, "baseline")
        .iter()
        .filter(|b| b.events == 0 || b.wall_s <= 0.0)
        .map(|b| b.name.clone())
        .collect();
    if !corrupt.is_empty() {
        eprintln!(
            "corrupt baseline in {path}: zeroed events/wall_s for {}\n\
             (re-record with `bench_record record --baseline-from <real snapshot>`)",
            corrupt.join(", ")
        );
        std::process::exit(1);
    }
    let fresh = run_all();
    let mut failures = Vec::new();
    println!(
        "\n{:<24} {:>14} {:>14} {:>8}",
        "bench", "committed", "fresh", "ratio"
    );
    for b in &committed {
        let name = &b.name;
        let Some(f) = fresh.iter().find(|m| m.name == name.as_str()) else {
            failures.push(format!("{name}: bench missing from this build"));
            continue;
        };
        let ratio = f.events_per_sec / b.events_per_sec;
        println!(
            "{:<24} {:>14.0} {:>14.0} {:>7.2}x",
            name, b.events_per_sec, f.events_per_sec, ratio
        );
        if ratio < 1.0 - tol {
            failures.push(format!(
                "{name}: {:.0} events/s is {:.1}% below the committed {:.0}",
                f.events_per_sec,
                (1.0 - ratio) * 100.0,
                b.events_per_sec
            ));
        }
    }
    if failures.is_empty() {
        println!("\nbench check OK (tolerance {:.0}%)", tol * 100.0);
    } else {
        eprintln!("\nbench regression detected:\n  {}", failures.join("\n  "));
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => {
            let mut out = None;
            let mut baseline_from = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--out" => out = it.next().cloned(),
                    "--baseline-from" => baseline_from = it.next().cloned(),
                    other => panic!("unknown flag {other}"),
                }
            }
            record(out, baseline_from);
        }
        Some("check") => {
            let path = args.get(1).expect("usage: bench_record check <file>");
            check(path);
        }
        _ => {
            eprintln!("usage: bench_record record [--out FILE] [--baseline-from FILE]");
            eprintln!("       bench_record check FILE");
            std::process::exit(2);
        }
    }
}
