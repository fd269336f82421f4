//! What a run did: high-overhead event counts (§VII-B6), the
//! telemetry trace export, the latency-over-time view and the CSV
//! series for plotting.

use crate::{repo_path, Failed};
use accelflow_arch::config::CpuGeneration;
use accelflow_bench::harness::{self, Scale};
use accelflow_bench::paper;
use accelflow_bench::table::{pct, us, Table};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_core::stats::RunReport;
use accelflow_sim::stats::TimeSeries;
use accelflow_sim::telemetry::validate_chrome_trace;
use accelflow_sim::time::SimDuration;
use accelflow_workloads::socialnetwork;
use std::fs;
use std::io::Write as _;

/// §VII-B6: frequency of high-overhead events — overflow-area
/// fallbacks, page faults, TCP timeouts, TLB miss rates — under the
/// production-trace load and at peak load.
pub(crate) fn stats_events(scale: Scale) {
    let services = socialnetwork::all();
    let avg = harness::run_poisson(Policy::AccelFlow, &services, scale.rps, scale);
    let seed = scale.seed;
    let peak_rps = harness::max_throughput(Policy::AccelFlow, &services, 5.0, seed);
    let peak = harness::run_poisson(Policy::AccelFlow, &services, peak_rps, scale);

    let invocations =
        |r: &accelflow_core::stats::RunReport| r.totals.accel_jobs.iter().sum::<u64>().max(1);
    let overflow_share = |r: &accelflow_core::stats::RunReport| {
        (r.totals.overflows + r.totals.fallbacks) as f64 / invocations(r) as f64
    };
    let mut t = Table::new(
        "§VII-B6: high-overhead events",
        &["event", "measured", "paper"],
    );
    t.row(&[
        "overflow/fallback share (trace load)".into(),
        pct(overflow_share(&avg)),
        pct(paper::OVERFLOW_SHARE_AVG),
    ]);
    t.row(&[
        "overflow/fallback share (peak)".into(),
        pct(overflow_share(&peak)),
        pct(paper::OVERFLOW_SHARE_PEAK),
    ]);
    t.row(&[
        "page faults".into(),
        format!(
            "{} ({:.2}/M invocations)",
            avg.totals.page_faults,
            avg.totals.page_faults as f64 / invocations(&avg) as f64 * 1e6
        ),
        "0.13 / M instructions".into(),
    ]);
    t.row(&[
        "TCP timeouts".into(),
        format!(
            "{} ({:.1}/M requests)",
            avg.totals.tcp_timeouts,
            avg.totals.tcp_timeouts as f64 / avg.completed().max(1) as f64 * 1e6
        ),
        "3.2 / M requests".into(),
    ]);
    let (hits, misses) = avg
        .totals
        .tlb
        .iter()
        .fold((0u64, 0u64), |(h, m), (a, b)| (h + a, m + b));
    t.row(&[
        "accelerator TLB miss ratio".into(),
        pct(misses as f64 / (hits + misses).max(1) as f64),
        "(paper: 3.4 D-MPKI)".into(),
    ]);
    t.row(&[
        "tenant scratchpad wipes".into(),
        avg.totals.tenant_wipes.to_string(),
        String::new(),
    ]);
    t.row(&[
        "past-time events clamped".into(),
        format!(
            "{} (trace load) / {} (peak)",
            avg.totals.clamped_events, peak.totals.clamped_events
        ),
        "0 in a healthy model".into(),
    ]);
    t.print();
}

/// Sparkline ramp, dimmest to brightest.
const RAMP: &[char] = &['.', ':', '-', '=', '+', '*', '#', '@'];

fn print_profile(label: &str, path: &str, report: &RunReport) -> bool {
    let tel = &report.telemetry;
    println!(
        "\n=== {label}: {} completed, {} telemetry records ({} dropped) ===",
        report.completed(),
        tel.records.len(),
        tel.dropped,
    );

    // Per-component latency breakdown, busiest first.
    let mut t = Table::new(
        format!("{label}: per-component busy-time breakdown"),
        &[
            "component",
            "spans",
            "busy (us)",
            "mean (us)",
            "p99 (us)",
            "max (us)",
        ],
    );
    for row in tel.component_breakdown() {
        t.row(&[
            row.label.clone(),
            row.spans.to_string(),
            us(row.busy),
            us(row.mean),
            us(row.p99),
            us(row.max),
        ]);
    }
    t.print();

    // Textual timeline: one sparkline per utilization column, plus the
    // DMA-engine and live-request counters.
    if let (Some((first, _)), Some((last, _))) = (tel.samples.first(), tel.samples.last()) {
        println!(
            "timeline ({} samples, {} .. {}):",
            tel.samples.len(),
            first,
            last
        );
    }
    let interesting =
        |name: &str| name.starts_with("util%:") || name == "busy_dma" || name == "live_reqs";
    for (i, name) in tel.columns.iter().enumerate() {
        if !interesting(name) {
            continue;
        }
        let peak = tel.samples.iter().map(|(_, row)| row[i]).max().unwrap_or(0);
        if peak == 0 {
            continue; // nothing to draw
        }
        println!("  {:<12} |{}| peak {}", name, tel.sparkline(i, RAMP), peak);
    }

    // Validate before writing: a trace that fails the schema check is a
    // bug in the exporter, not a bad run.
    let json = tel.chrome_trace();
    match validate_chrome_trace(&json) {
        Ok(summary) => {
            if let Err(e) = fs::write(repo_path(path), &json) {
                println!("  FAILED to write {path}: {e}");
                return false;
            }
            println!(
                "wrote {path}: {} events ({} spans, {} counters, {} instants, {} flow arrows)",
                summary.events, summary.spans, summary.counters, summary.instants, summary.flows,
            );
            true
        }
        Err(e) => {
            println!("  INVALID chrome trace for {label}: {e}");
            false
        }
    }
}

/// Replays the paper's headline workload shapes with telemetry on and
/// writes a Perfetto-loadable Chrome trace plus a per-component
/// latency-breakdown table for each.
///
/// Two runs, mirroring `stats_audit`:
///
/// 1. Fig 11 shape: the eight SocialNetwork services under bursty
///    Alibaba-like arrivals, AccelFlow policy.
/// 2. Fig 14 shape: fixed-load Poisson with per-request SLO slack,
///    AccelFlow-Deadline policy.
///
/// Each run validates its own exported JSON against the Chrome
/// `trace_event` schema before writing it; a malformed trace exits
/// non-zero so CI can gate on the exporter. Traces land in
/// `results/trace_fig11.json` and `results/trace_fig14.json` — open
/// them at <https://ui.perfetto.dev>. Scale via `ACCELFLOW_DURATION_MS`
/// / `ACCELFLOW_RPS` / `ACCELFLOW_SEED` as usual.
pub(crate) fn stats_profile(scale: Scale) -> Result<(), Failed> {
    let services = socialnetwork::all();
    fs::create_dir_all(repo_path("results")).expect("create results/");
    let mut ok = true;

    // Fig 11 shape: shared bursty arrivals, AccelFlow.
    let arrivals = harness::shared_arrivals(&services, scale);
    println!(
        "fig11 shape: {} arrivals over {} at {} rps/service, telemetry on",
        arrivals.len(),
        scale.duration,
        scale.rps
    );
    let mut cfg = harness::machine_config(Policy::AccelFlow, scale);
    cfg.telemetry = true;
    let report = Machine::run_arrivals(&cfg, &services, arrivals, scale.duration, scale.seed);
    ok &= print_profile("fig11/AccelFlow", "results/trace_fig11.json", &report);

    // Fig 14 shape: Poisson with SLO deadlines, AccelFlow-Deadline.
    let mut slo_services = services.clone();
    for s in &mut slo_services {
        s.slo_slack = Some(5.0);
    }
    let mut cfg = MachineConfig::new(Policy::AccelFlowDeadline);
    cfg.warmup = scale.warmup;
    cfg.telemetry = true;
    let report = Machine::run_workload(&cfg, &slo_services, scale.rps, scale.duration, scale.seed);
    ok &= print_profile("fig14/AccelFlow-DL", "results/trace_fig14.json", &report);

    if ok {
        println!("\nboth traces schema-valid; load them at https://ui.perfetto.dev");
        Ok(())
    } else {
        println!("\ntrace export failed");
        Err(Failed)
    }
}

const BARS: [char; 8] = [
    '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}', '\u{2588}',
];

/// Diagnostic: latency-over-time view of the bursty headline workload.
///
/// Buckets completions into 4 ms windows and renders a sparkline of
/// each bucket's p95 latency for AccelFlow and RELIEF, making the
/// burst-driven tail behavior visible.
pub(crate) fn diag_timeline(scale: Scale) {
    let services = socialnetwork::all();
    let arrivals = harness::shared_arrivals(&services, scale);
    let bucket = SimDuration::from_millis(4);

    // Arrival-rate sparkline.
    let mut arr_series = TimeSeries::new(bucket, scale.duration);
    for a in &arrivals {
        arr_series.record(a.at, 1);
    }
    println!(
        "arrivals/4ms: {}",
        arr_series.sparkline(&BARS, |t, i| t.count(i) as f64)
    );

    for policy in [Policy::AccelFlow, Policy::Relief] {
        let mut cfg = harness::machine_config(policy, scale);
        cfg.sample_latencies = true;
        let r = accelflow_core::machine::Machine::run_arrivals(
            &cfg,
            &services,
            arrivals.clone(),
            scale.duration,
            scale.seed,
        );
        let mut ts = TimeSeries::new(bucket, scale.duration);
        let mut peak = 0.0f64;
        for s in &r.per_service {
            for &(at, lat) in &s.samples {
                ts.record(at, lat.as_picos());
            }
        }
        for i in 0..ts.buckets() {
            if let Some(p) = ts.percentile(i, 95.0) {
                peak = peak.max(p as f64 / 1e6);
            }
        }
        println!(
            "{:<10} p95: {}  (peak {:.0} us)",
            policy.name(),
            ts.sparkline(&BARS, |t, i| t.percentile(i, 95.0).unwrap_or(0) as f64),
            peak
        );
    }
    println!();
    println!("Bursts (tall arrival bars) line up with tail spikes; RELIEF's");
    println!("manager amplifies them far more than AccelFlow's dispatchers.");
}

fn write(path: &str, header: &str, rows: &[String]) {
    fs::create_dir_all(repo_path("results/csv")).expect("create results/csv");
    let mut f = fs::File::create(repo_path(path)).expect("create csv");
    writeln!(f, "{header}").expect("write");
    for row in rows {
        writeln!(f, "{row}").expect("write");
    }
    println!("wrote {path} ({} rows)", rows.len());
}

/// Exports the headline experiment series as CSV files under
/// `results/csv/` for plotting (Fig 11 per-service latencies, Fig 12
/// load sweep, Fig 13 ablation, Fig 19 PE sweep, Fig 20 generations).
pub(crate) fn export_csv(scale: Scale) {
    let services = socialnetwork::all();
    let arrivals = harness::shared_arrivals(&services, scale);

    // Fig 11: per-service p99/mean for the five architectures.
    let mut rows = Vec::new();
    for p in Policy::HEADLINE {
        let r = harness::run_policy(p, &services, arrivals.clone(), scale);
        for s in &r.per_service {
            rows.push(format!(
                "{},{},{:.1},{:.1}",
                p.name(),
                s.name,
                s.p99().as_micros_f64(),
                s.mean().as_micros_f64()
            ));
        }
    }
    write(
        "results/csv/fig11.csv",
        "policy,service,p99_us,mean_us",
        &rows,
    );

    // Fig 13: ablation ladder.
    let mut rows = Vec::new();
    for p in Policy::ABLATION {
        let r = harness::run_policy(p, &services, arrivals.clone(), scale);
        rows.push(format!("{},{:.1}", p.name(), harness::avg_p99(&r)));
    }
    write("results/csv/fig13.csv", "design,avg_p99_us", &rows);

    // Fig 20: generations.
    let mut rows = Vec::new();
    for generation in CpuGeneration::ALL {
        for p in [Policy::NonAcc, Policy::Relief, Policy::AccelFlow] {
            let mut cfg = harness::machine_config(p, scale);
            cfg.arch.generation = generation;
            let r = Machine::run_arrivals(
                &cfg,
                &services,
                arrivals.clone(),
                scale.duration,
                scale.seed,
            );
            rows.push(format!(
                "{},{},{:.1}",
                generation.name(),
                p.name(),
                harness::avg_p99(&r)
            ));
        }
    }
    write(
        "results/csv/fig20.csv",
        "generation,policy,avg_p99_us",
        &rows,
    );

    // Fig 19: PE sweep.
    let mut rows = Vec::new();
    for pes in [2usize, 4, 8] {
        let mut cfg = harness::machine_config(Policy::AccelFlow, scale);
        cfg.arch.pes_per_accelerator = pes;
        let r = Machine::run_arrivals(
            &cfg,
            &services,
            arrivals.clone(),
            scale.duration,
            scale.seed,
        );
        rows.push(format!(
            "{},{:.1},{:.4}",
            pes,
            harness::avg_p99(&r),
            r.fallback_fraction()
        ));
    }
    write(
        "results/csv/fig19.csv",
        "pes,avg_p99_us,fallback_fraction",
        &rows,
    );
}
