//! Gates on a single machine: the invariant auditor over the headline
//! workloads, and the fault-injection sweep.

use crate::Failed;
use accelflow_bench::harness::{self, Scale};
use accelflow_bench::sweep;
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_core::stats::RunReport;
use accelflow_core::{FaultClass, FaultConfig};
use accelflow_workloads::socialnetwork;

fn print_report(label: &str, r: &RunReport) -> bool {
    let a = &r.audit;
    println!(
        "{:<24} completed {:>7}/{:<7} checks {:>10}  violations {}",
        label,
        r.completed(),
        r.offered(),
        a.checks,
        a.violation_count,
    );
    for v in &a.violations {
        println!("    [{}] at {}: {}", v.invariant, v.at, v.detail);
    }
    if a.violation_count > a.violations.len() as u64 {
        println!(
            "    ... and {} more (recording capped)",
            a.violation_count - a.violations.len() as u64
        );
    }
    a.is_clean()
}

/// Runs the headline experiments with the invariant auditor forced on
/// and reports every violation it catches.
///
/// Two workload shapes, mirroring the paper's evaluation:
///
/// 1. Fig 11-style: the eight SocialNetwork services under bursty
///    Alibaba-like arrivals, one run per headline policy over shared
///    arrivals.
/// 2. Fig 14-style: fixed-load Poisson runs with per-request SLO slack
///    (deadline scheduling) plus the Ideal bound.
///
/// Exit status is non-zero if any run reports a violation, so CI can
/// gate on it. Scale via `ACCELFLOW_DURATION_MS` / `ACCELFLOW_RPS` /
/// `ACCELFLOW_SEED` as usual.
pub(crate) fn stats_audit(scale: Scale) -> Result<(), Failed> {
    let services = socialnetwork::all();
    let mut clean = true;

    // Fig 11 shape: shared bursty arrivals, headline policies.
    let arrivals = harness::shared_arrivals(&services, scale);
    println!(
        "fig11 shape: {} arrivals over {} at {} rps/service, audits on",
        arrivals.len(),
        scale.duration,
        scale.rps
    );
    let policies = Policy::HEADLINE;
    let reports = sweep::map(policies.to_vec(), |p| {
        let mut cfg = harness::machine_config(p, scale);
        cfg.audit = true;
        Machine::run_arrivals(
            &cfg,
            &services,
            arrivals.clone(),
            scale.duration,
            scale.seed,
        )
    });
    for (p, r) in policies.iter().zip(&reports) {
        clean &= print_report(p.name(), r);
    }

    // Fig 14 shape: fixed-load Poisson runs with SLO deadlines.
    let mut slo_services = services.clone();
    for s in &mut slo_services {
        s.slo_slack = Some(5.0);
    }
    println!(
        "\nfig14 shape: Poisson at {} rps/service, SLO slack 5x",
        scale.rps
    );
    let deadline_policies = [Policy::AccelFlowDeadline, Policy::AccelFlow, Policy::Ideal];
    let reports = sweep::map(deadline_policies.to_vec(), |p| {
        let mut cfg = MachineConfig::new(p);
        cfg.warmup = scale.warmup;
        cfg.audit = true;
        Machine::run_workload(&cfg, &slo_services, scale.rps, scale.duration, scale.seed)
    });
    for (p, r) in deadline_policies.iter().zip(&reports) {
        clean &= print_report(p.name(), r);
    }

    if clean {
        println!("\nall runs clean");
        Ok(())
    } else {
        println!("\ninvariant violations detected");
        Err(Failed)
    }
}

/// Fault fractions swept per class: faults per offered request.
const FRACTIONS: &[f64] = &[0.005, 0.01, 0.05];

fn run_cell(rate_per_ms: f64, class: Option<FaultClass>, scale: Scale) -> RunReport {
    let services = socialnetwork::all();
    let mut cfg = harness::machine_config(Policy::AccelFlow, scale);
    cfg.audit = true;
    // Narrow, slowed accelerators: input queues hold entries at this
    // load, so queue-entry drops find victims and stall/DMA faults
    // show up in the latency tail instead of vanishing into idle
    // capacity (an unloaded machine absorbs faults for free).
    cfg.arch.pes_per_accelerator = 2;
    cfg.speedup_scale = 0.25;
    cfg.faults = match class {
        Some(c) => FaultConfig::only(c, rate_per_ms),
        None => FaultConfig::disabled(),
    };
    Machine::run_workload(&cfg, &services, scale.rps, scale.duration, scale.seed)
}

/// Goodput in completed requests per simulated second.
fn goodput(r: &RunReport) -> f64 {
    let secs = r.measured.as_micros_f64() / 1e6;
    if secs <= 0.0 {
        return 0.0;
    }
    r.completed() as f64 / secs
}

fn print_row(label: &str, frac: f64, r: &RunReport) -> bool {
    let f = &r.faults;
    let p99 = r.aggregate_latency().percentile_duration(99.0);
    println!(
        "{label:<12} {frac:>6.3} {:>10.0} {:>12} {:>9} {:>8} {:>12} {:>9} {:>11}",
        goodput(r),
        format!("{p99}"),
        f.injected(),
        f.retries,
        f.redispatches,
        f.degraded,
        r.audit.violation_count,
    );
    for v in &r.audit.violations {
        println!("    [{}] at {}: {}", v.invariant, v.at, v.detail);
    }
    r.audit.is_clean()
}

/// Degradation curves under deterministic fault injection.
///
/// For each fault class, sweeps the injection rate from zero to well
/// past the resilience layer's comfort zone and prints goodput and P99
/// latency per cell, with the invariant auditor forced on — every run
/// must stay clean (no request lost or double-completed under any
/// injected fault) or the binary exits non-zero for CI to catch.
///
/// The sweep axis is faults per *offered request* (so the same
/// fractions stress a quick smoke run and a full-scale run equally);
/// each fraction is converted to the injector's faults-per-simulated-
/// millisecond rate from the offered load. Scale via
/// `ACCELFLOW_DURATION_MS` / `ACCELFLOW_RPS` / `ACCELFLOW_SEED`.
///
/// See `docs/RESILIENCE.md` for a worked walkthrough of the output.
pub(crate) fn stats_faults(scale: Scale) -> Result<(), Failed> {
    let n_services = socialnetwork::all().len() as f64;
    // faults/ms = (faults per request) x (requests per ms across all
    // services).
    let rate_of = |frac: f64| frac * scale.rps * n_services / 1000.0;

    println!(
        "fault sweep: {} at {} rps/service over {}, audits on",
        Policy::AccelFlow.name(),
        scale.rps,
        scale.duration
    );
    println!(
        "{:<12} {:>6} {:>10} {:>12} {:>9} {:>8} {:>12} {:>9} {:>11}",
        "class",
        "frac",
        "goodput/s",
        "p99",
        "injected",
        "retries",
        "redispatches",
        "degraded",
        "violations"
    );

    let mut cells: Vec<(Option<FaultClass>, f64)> = vec![(None, 0.0)];
    for &class in FaultClass::ALL.iter() {
        for &frac in FRACTIONS {
            cells.push((Some(class), frac));
        }
    }
    let reports = sweep::map(cells.clone(), |(class, frac)| {
        run_cell(rate_of(frac), class, scale)
    });

    let mut clean = true;
    let baseline = goodput(&reports[0]);
    for ((class, frac), r) in cells.iter().zip(&reports) {
        let label = class.map(|c| c.name()).unwrap_or("none");
        clean &= print_row(label, *frac, r);
        // Queue drops are no-ops against empty queues by design, so a
        // zero count at smoke scale is expected for that class only.
        if class.is_some_and(|c| c != FaultClass::QueueDrop)
            && *frac >= 0.01
            && r.faults.injected() == 0
        {
            println!("    warning: {label} at frac {frac} injected nothing");
        }
    }
    println!("\nbaseline goodput {baseline:.0}/s; degradation is the drop per class as frac grows");

    if clean {
        println!("all runs clean under the auditor");
        Ok(())
    } else {
        println!("invariant violations detected");
        Err(Failed)
    }
}
