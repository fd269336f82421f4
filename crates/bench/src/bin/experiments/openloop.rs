//! Open-loop traffic sweep: scenario × control policy × cluster size.
//!
//! Drives the arrival generators of `accelflow_workloads::openloop`
//! (`docs/WORKLOADS.md`) through clusters running the online-control
//! subsystem (`accelflow_core::control`): token-bucket rate limiting,
//! live-request shedding, and the telemetry-feedback autoscaler. Every
//! cell reports SLO-window compliance (fraction of windows whose
//! completions stay ≥99% under the latency target), tail latency,
//! ingress rejections, and scaling actions. The invariant auditor is
//! forced on in every node; any violation or cluster-layer clamp exits
//! non-zero for CI.
//!
//! The machines are deliberately *narrow* (2 PEs per station, 0.25×
//! speedup, 4 instances per kind): one lit station saturates at the
//! diurnal peak while the fully-lit fleet does not, so provisioning
//! policy is visible in the compliance column.
//!
//! After the sweep, the headline experiment: a one-day diurnal
//! scenario (the day mapped onto the run window) with ≥1M open-loop
//! arrivals at default scale on a 4-node cluster, comparing static
//! lean provisioning against the reactive autoscaler.
//!
//! `ACCELFLOW_RPS` is the **per-node** per-service mean: the generated
//! stream scales with the fleet (`rps × nodes`), so every cell offers
//! the same work per node. Byte-deterministic at any
//! `ACCELFLOW_THREADS` (cells fan out over [`sweep::map`]; each run is
//! single-threaded on seeded streams).
//!
//! The sweep grid also shards across processes:
//! `ACCELFLOW_SHARDS`/`ACCELFLOW_SHARD_INDEX` give each process a
//! contiguous slice of the cells, and concatenating the shards' result
//! rows in shard order reproduces the unsharded table byte-for-byte
//! (`docs/CHECKPOINT.md`; CI diffs two shards against one). The
//! headline experiment only runs unsharded — it is one cross-policy
//! comparison, not a grid.

use crate::Failed;
use accelflow_accel::timing::ServiceTimeModel;
use accelflow_bench::harness::{self, Scale};
use accelflow_bench::sweep;
use accelflow_core::cluster::{Cluster, ClusterConfig, ClusterReport};
use accelflow_core::control::{AutoscalerConfig, ControlConfig, RateLimit, SloTarget};
use accelflow_core::machine::MachineConfig;
use accelflow_core::policy::Policy;
use accelflow_core::Arrival;
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::openloop::{
    ArrivalProcess, ColdStartStorm, CorrelatedBursts, Diurnal, FlashCrowd,
};
use accelflow_workloads::socialnetwork;

/// The two-service mix every cell runs (one tenant per service).
fn core_pair() -> Vec<accelflow_core::request::ServiceSpec> {
    vec![socialnetwork::uniq_id(), socialnetwork::login()]
}

/// Stations per accelerator kind (the autoscaler's actuation range).
const INSTANCES: usize = 4;
/// Fleet sizes swept.
const NODE_COUNTS: &[usize] = &[1, 4];
/// Per-request latency target for SLO windows.
const P99_TARGET: SimDuration = SimDuration::from_micros(1_000);

/// The traffic scenarios of the gallery (`docs/WORKLOADS.md`).
const SCENARIOS: &[&str] = &["diurnal", "flash", "bursts", "coldstart"];

/// The control policies compared.
const POLICIES: &[&str] = &["static_lean", "static_full", "autoscale", "throttle"];

fn generator(name: &str, duration: SimDuration, seed: u64) -> Box<dyn ArrivalProcess> {
    match name {
        "diurnal" => Box::new(Diurnal::day(duration, 0.8)),
        "flash" => Box::new(FlashCrowd::for_run(duration, 4.0)),
        "bursts" => Box::new(CorrelatedBursts::alibaba(duration, seed)),
        "coldstart" => Box::new(ColdStartStorm::azure(duration, seed)),
        other => unreachable!("unknown scenario {other}"),
    }
}

fn control(policy: &str, window: SimDuration, node_rps: f64) -> ControlConfig {
    let slo = Some(SloTarget {
        window,
        p99_target: P99_TARGET,
    });
    match policy {
        "static_lean" => ControlConfig {
            autoscaler: Some(AutoscalerConfig::static_at(1)),
            slo,
            ..ControlConfig::disabled()
        },
        "static_full" => ControlConfig {
            autoscaler: Some(AutoscalerConfig::static_at(INSTANCES)),
            slo,
            ..ControlConfig::disabled()
        },
        "autoscale" => ControlConfig {
            autoscaler: Some(AutoscalerConfig::reactive()),
            slo,
            ..ControlConfig::disabled()
        },
        "throttle" => ControlConfig {
            // Lean provisioning, but ingress holds each tenant to ~75%
            // of its mean share and sheds past a live ceiling — tail
            // windows stay healthy by refusing the overload instead of
            // absorbing it.
            autoscaler: Some(AutoscalerConfig::static_at(1)),
            rate_limit: Some(RateLimit {
                tokens_per_sec: 0.75 * node_rps,
                burst: 64.0,
            }),
            max_live: Some(512),
            slo,
        },
        other => unreachable!("unknown policy {other}"),
    }
}

/// The narrow node: one lit station saturates at scenario peaks.
fn node_config(scale: Scale, policy: &str, window: SimDuration, node_rps: f64) -> MachineConfig {
    let mut cfg = harness::machine_config(Policy::AccelFlow, scale);
    cfg.audit = true;
    cfg.arch.pes_per_accelerator = 2;
    cfg.speedup_scale = 0.25;
    cfg.instances_per_accel = INSTANCES;
    cfg.control = control(policy, window, node_rps);
    cfg
}

/// Open-loop arrivals for one cell: the scenario modulates a mean of
/// `rps × nodes` per service (the fleet splits the stream).
fn arrivals_for(scenario: &str, scale: Scale, nodes: usize, duration: SimDuration) -> Vec<Arrival> {
    let services = core_pair();
    let lib = TraceLibrary::standard();
    let timing = ServiceTimeModel::calibrated(
        harness::machine_config(Policy::AccelFlow, scale)
            .arch
            .core_clock,
    );
    let process = generator(scenario, duration, scale.seed);
    accelflow_workloads::openloop::openloop_arrivals(
        process.as_ref(),
        &services,
        &lib,
        &timing,
        scale.rps * nodes as f64,
        duration,
        scale.seed,
    )
}

fn run_cell(scenario: &str, policy: &str, nodes: usize, scale: Scale) -> ClusterReport {
    let duration = scale.duration;
    let window = SimDuration::from_picos((duration.as_picos() / 64).max(1_000_000));
    let node = node_config(scale, policy, window, scale.rps);
    let cfg = ClusterConfig::new(nodes, node);
    let arrivals = arrivals_for(scenario, scale, nodes, duration);
    Cluster::run_arrivals(&cfg, &core_pair(), arrivals, duration, scale.seed)
}

/// Prints one result row; returns false when audits or clamps dirty it.
fn report_row(label: &str, report: &ClusterReport) -> bool {
    let control = report.control();
    let violations: u64 = report
        .per_node
        .iter()
        .map(|r| r.audit.violation_count)
        .sum();
    println!(
        "{label} {:>9} {:>9} {:>7} {:>7} {:>6.1}% {:>10} {:>5} {:>5} {:>10}",
        control.admitted,
        control.rate_limited,
        control.shed,
        control.slo_windows,
        100.0 * control.slo_compliance(),
        format!("{}", report.p99()),
        control.scale_ups,
        control.scale_downs,
        violations,
    );
    let mut clean = violations == 0 && report.clamped == 0;
    for node in &report.per_node {
        for v in &node.audit.violations {
            println!("    [{}] at {}: {}", v.invariant, v.at, v.detail);
        }
    }
    if report.clamped > 0 {
        println!(
            "    cluster kernel clamped {} events (dispatcher time-travel bug)",
            report.clamped
        );
        clean = false;
    }
    clean
}

/// Runs the open-loop sweep and its headline; fails on any
/// violation or clamp.
pub(crate) fn stats_openloop(scale: Scale) -> Result<(), Failed> {
    println!(
        "open-loop sweep: {} per-node rps/service (mean), {} window, audits on",
        scale.rps, scale.duration
    );
    println!(
        "{:<10} {:<12} {:>5} {:>9} {:>9} {:>7} {:>7} {:>7} {:>10} {:>5} {:>5} {:>10}",
        "scenario",
        "policy",
        "nodes",
        "admitted",
        "ratelim",
        "shed",
        "windows",
        "slo-ok",
        "p99",
        "up",
        "down",
        "violations"
    );

    let mut cells: Vec<(&str, &str, usize)> = Vec::new();
    for &scenario in SCENARIOS {
        for &policy in POLICIES {
            for &nodes in NODE_COUNTS {
                cells.push((scenario, policy, nodes));
            }
        }
    }
    let shard = sweep::Shard::from_env();
    if !shard.is_whole() {
        let range = shard.range(cells.len());
        println!(
            "shard {}/{}: cells {}..{} of {}",
            shard.index,
            shard.count,
            range.start,
            range.end,
            cells.len()
        );
    }
    let reports = sweep::map_sharded(cells.clone(), |(scenario, policy, nodes)| {
        run_cell(scenario, policy, nodes, scale)
    });

    let mut clean = true;
    for (i, report) in &reports {
        let (scenario, policy, nodes) = cells[*i];
        let label = format!("{scenario:<10} {policy:<12} {nodes:>5}");
        clean &= report_row(&label, report);
    }

    // The headline is one cross-policy comparison, not a grid cell:
    // a sharded launch runs only the grid slice and skips it.
    if !shard.is_whole() {
        if clean {
            println!(
                "\nall nodes clean under the auditor (shard {})",
                shard.index
            );
            return Ok(());
        }
        println!("\ninvariant violations detected (shard {})", shard.index);
        return Err(Failed);
    }

    // ----- headline: one-day diurnal, >=1M arrivals, 4 nodes -----
    //
    // The day maps onto a window 60x the sweep's; at the default scale
    // (13.4k rps/service/node over 160 ms) the 4-node stream carries
    // ~1.03M arrivals. Lean static provisioning saturates at the diurnal peak
    // while the autoscaler rides it, which shows up directly in the
    // SLO-window compliance gap.
    let day = SimDuration::from_picos(scale.duration.as_picos() * 60);
    let window = SimDuration::from_picos((day.as_picos() / 256).max(1_000_000));
    let nodes = 4usize;
    // Only the count is needed here: the list is dropped at once, since
    // each policy run below generates and owns its own copy.
    let offered = arrivals_for("diurnal", scale, nodes, day).len();
    println!(
        "\nheadline: one-day diurnal, {} arrivals over {} on {} nodes",
        offered, day, nodes
    );
    let headline = sweep::map(vec!["static_lean", "autoscale"], |policy| {
        let node = node_config(scale, policy, window, scale.rps);
        let cfg = ClusterConfig::new(nodes, node);
        Cluster::run_arrivals(
            &cfg,
            &core_pair(),
            arrivals_for("diurnal", scale, nodes, day),
            day,
            scale.seed,
        )
    });
    let mut compliance = Vec::new();
    for (policy, report) in ["static_lean", "autoscale"].iter().zip(&headline) {
        let label = format!("{:<10} {policy:<12} {nodes:>5}", "diurnal-1d");
        clean &= report_row(&label, report);
        compliance.push(report.control().slo_compliance());
    }
    let (lean, auto) = (compliance[0], compliance[1]);
    println!(
        "\nautoscaler SLO-window compliance {:.1}% vs static-lean {:.1}% ({})",
        100.0 * auto,
        100.0 * lean,
        if auto > lean {
            "autoscaler improves compliance"
        } else {
            "no improvement at this scale"
        }
    );

    if clean {
        println!("\nall nodes clean under the auditor");
        Ok(())
    } else {
        println!("\ninvariant violations detected");
        Err(Failed)
    }
}
