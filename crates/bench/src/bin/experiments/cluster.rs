//! Cluster-scale sweep: fleet size × balancer × fault rate.
//!
//! Drives the two-level orchestrator (`accelflow_core::cluster`,
//! `docs/CLUSTER.md`) over the social-network workload and prints, per
//! cell: aggregate goodput, fleet P99 (absolute and relative to the
//! single-machine unloaded P99, with a 5× SLO verdict like Fig 14's),
//! the dispatch imbalance, and the keep-alive health counters
//! (suspensions / recoveries / relocations). The invariant auditor is
//! forced on in every node; any violation exits non-zero for CI.
//!
//! `ACCELFLOW_RPS` is the **per-node** per-service load: the front
//! end's arrival stream scales with the fleet (`rps × nodes`), so
//! every cell offers the same work per node and goodput should scale
//! ~linearly with size until balancing or faults bite.
//!
//! Byte-deterministic at any `ACCELFLOW_THREADS`: cells fan out over
//! [`sweep::map`], each cluster runs single-threaded on seeded
//! streams, and the printed table is identical at any worker count
//! (the CI cluster job diffs two thread counts to prove it).

use crate::Failed;
use accelflow_bench::harness::{self, Scale};
use accelflow_bench::sweep;
use accelflow_core::cluster::{BalancerKind, Cluster, ClusterConfig, ClusterReport};
use accelflow_core::machine::Machine;
use accelflow_core::policy::Policy;
use accelflow_core::{FaultClass, FaultConfig};
use accelflow_sim::time::SimDuration;
use accelflow_workloads::socialnetwork;

/// Fleet sizes swept.
const NODE_COUNTS: &[usize] = &[1, 2, 4, 8];
/// Fault fractions swept: accelerator stalls per offered request.
const FAULT_FRACTIONS: &[f64] = &[0.0, 0.02];
/// SLO multiple over the unloaded P99 (paper Fig 14 uses 5×).
const SLO_MULT: f64 = 5.0;

fn cluster_config(scale: Scale, nodes: usize, balancer: BalancerKind, frac: f64) -> ClusterConfig {
    let services = socialnetwork::all().len() as f64;
    let mut node = harness::machine_config(Policy::AccelFlow, scale);
    node.audit = true;
    if frac > 0.0 {
        // stalls/ms per node = (stalls per request) × (requests per ms
        // offered to each node). Long dark windows so the keep-alive
        // poll actually catches suspended nodes at smoke scale.
        let mut faults =
            FaultConfig::only(FaultClass::AccelStall, frac * scale.rps * services / 1000.0);
        faults.stall_duration = SimDuration::from_micros(500);
        node.faults = faults;
    }
    let mut cfg = ClusterConfig::new(nodes, node);
    cfg.balancer = balancer;
    cfg.keepalive = Some(SimDuration::from_micros(100));
    cfg.suspend_dark_stations = 1;
    cfg
}

fn run_cell(scale: Scale, nodes: usize, balancer: BalancerKind, frac: f64) -> ClusterReport {
    let cfg = cluster_config(scale, nodes, balancer, frac);
    Cluster::run_workload(
        &cfg,
        &socialnetwork::all(),
        scale.rps * nodes as f64,
        scale.duration,
        scale.seed,
    )
}

/// Single-machine unloaded P99 over the merged workload — the SLO
/// anchor every cell's fleet P99 is judged against.
fn unloaded_p99_us(scale: Scale) -> f64 {
    let cfg = harness::machine_config(Policy::AccelFlow, scale);
    let report = Machine::run_workload(
        &cfg,
        &socialnetwork::all(),
        400.0,
        SimDuration::from_millis(300),
        scale.seed,
    );
    report
        .aggregate_latency()
        .percentile_duration(99.0)
        .as_micros_f64()
}

/// Runs the cluster sweep; fails on any violation or clamp.
pub(crate) fn stats_cluster(scale: Scale) -> Result<(), Failed> {
    println!(
        "cluster sweep: {} at {} rps/service/node over {}, keep-alive 100us, audits on",
        Policy::AccelFlow.name(),
        scale.rps,
        scale.duration
    );

    let mut cells: Vec<(usize, BalancerKind, f64)> = Vec::new();
    for &nodes in NODE_COUNTS {
        for balancer in BalancerKind::ALL {
            for &frac in FAULT_FRACTIONS {
                cells.push((nodes, balancer, frac));
            }
        }
    }

    // The unloaded anchor rides the same fan-out as the cells.
    enum Out {
        Unloaded(f64),
        Cell(Box<ClusterReport>),
    }
    let jobs: Vec<Option<(usize, BalancerKind, f64)>> = std::iter::once(None)
        .chain(cells.iter().copied().map(Some))
        .collect();
    let outs = sweep::map(jobs, |job| match job {
        None => Out::Unloaded(unloaded_p99_us(scale)),
        Some((nodes, balancer, frac)) => {
            Out::Cell(Box::new(run_cell(scale, nodes, balancer, frac)))
        }
    });
    let mut outs = outs.into_iter();
    let unloaded_us = match outs.next() {
        Some(Out::Unloaded(u)) => u,
        _ => unreachable!("first sweep job is the unloaded anchor"),
    };
    println!("unloaded single-machine p99: {unloaded_us:.1}us (SLO = {SLO_MULT}x)\n");
    println!(
        "{:>5} {:<15} {:>6} {:>11} {:>10} {:>7} {:>4} {:>7} {:>6} {:>6} {:>6} {:>10}",
        "nodes",
        "balancer",
        "frac",
        "goodput/s",
        "p99",
        "x-unl",
        "slo",
        "imbal",
        "susp",
        "recov",
        "reloc",
        "violations"
    );

    let mut clean = true;
    for ((nodes, balancer, frac), out) in cells.iter().zip(outs) {
        let report = match out {
            Out::Cell(r) => r,
            Out::Unloaded(_) => unreachable!("only one anchor job"),
        };
        let p99_us = report.p99().as_micros_f64();
        let ratio = if unloaded_us > 0.0 {
            p99_us / unloaded_us
        } else {
            0.0
        };
        let slo_ok = ratio <= SLO_MULT && report.completion_ratio() >= 0.97;
        let violations: u64 = report
            .per_node
            .iter()
            .map(|r| r.audit.violation_count)
            .sum();
        println!(
            "{nodes:>5} {:<15} {frac:>6.3} {:>11.0} {:>10} {ratio:>7.2} {:>4} {:>7.2} {:>6} {:>6} {:>6} {violations:>10}",
            balancer.name(),
            report.goodput_rps(),
            format!("{}", report.p99()),
            if slo_ok { "ok" } else { "MISS" },
            report.dispatch_imbalance(),
            report.health.suspensions,
            report.health.recoveries,
            report.health.relocations,
        );
        for node in &report.per_node {
            clean &= node.audit.is_clean();
            for v in &node.audit.violations {
                println!("    [{}] at {}: {}", v.invariant, v.at, v.detail);
            }
        }
        if report.clamped > 0 {
            clean = false;
            println!(
                "    cluster kernel clamped {} events (dispatcher time-travel bug)",
                report.clamped
            );
        }
    }

    if clean {
        println!("\nall nodes clean under the auditor");
        Ok(())
    } else {
        println!("\ninvariant violations detected");
        Err(Failed)
    }
}
