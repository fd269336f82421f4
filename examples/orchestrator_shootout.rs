//! Orchestrator shootout: the paper's headline experiment at laptop
//! scale — the eight SocialNetwork services under bursty load, across
//! all five architectures plus the Ideal bound.
//!
//! Run with: `cargo run --release --example orchestrator_shootout`

use accelflow::core::{Machine, MachineConfig, Policy};
use accelflow::sim::SimDuration;
use accelflow::trace::templates::TraceLibrary;
use accelflow::workloads::arrivals::{bursty_arrivals, BurstyProfile};
use accelflow::workloads::socialnetwork;

fn main() {
    let services = socialnetwork::all();
    let lib = TraceLibrary::standard();
    let duration = SimDuration::from_millis(60);

    // One bursty arrival trace shared by every policy, so differences
    // come from orchestration alone (common random numbers).
    let arrivals = bursty_arrivals(
        &services,
        &lib,
        13_400.0,
        duration,
        42,
        &BurstyProfile::alibaba_like(),
    );
    println!(
        "{} requests across {} services\n",
        arrivals.len(),
        services.len()
    );
    println!(
        "{:<13} {:>10} {:>12} {:>12} {:>10}",
        "architecture", "completed", "mean (us)", "p99 (us)", "vs AF p99"
    );

    let mut af_p99 = 0.0;
    let mut rows = Vec::new();
    for policy in [
        Policy::AccelFlow,
        Policy::Ideal,
        Policy::Cohort,
        Policy::Relief,
        Policy::CpuCentric,
        Policy::NonAcc,
    ] {
        let mut cfg = MachineConfig::new(policy);
        cfg.warmup = SimDuration::from_millis(5);
        let report = Machine::run_arrivals(&cfg, &services, arrivals.clone(), duration, 42);
        let agg = report.aggregate_latency();
        let p99 = agg.percentile_duration(99.0).as_micros_f64();
        if policy == Policy::AccelFlow {
            af_p99 = p99;
        }
        rows.push((
            policy,
            report.completed(),
            agg.mean_duration().as_micros_f64(),
            p99,
        ));
    }
    for (policy, completed, mean, p99) in rows {
        println!(
            "{:<13} {:>10} {:>12.1} {:>12.1} {:>9.2}x",
            policy.name(),
            completed,
            mean,
            p99,
            p99 / af_p99
        );
    }
}
