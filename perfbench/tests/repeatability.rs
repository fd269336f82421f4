//! The benchmark's own contract: simulated metrics and allocation
//! counts repeat exactly for one seed and change with the seed, and
//! the traced run's exact counts repeat too.
//!
//! Each case launches the release binary; run with
//! `cargo test --release` (a debug build is orders of magnitude slower
//! and also switches on the simulator's invariant auditor).

use std::collections::BTreeMap;
use std::process::Command;

const DEFAULT_SEED: &str = "42";
const HELD_OUT_SEED: &str = "1009";

/// The simulated end-to-end metrics, which must not depend on the host.
const SIM_METRICS: [&str; 4] = ["sim_p99_us", "served_pct", "slo_window_pct", "max_rps"];

/// Runs the benchmark once and returns its metrics by name.
fn run(workload: &str, seed: &str, trace: &str) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "0",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, "),
        "{last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Metrics print as `"name": {"value": v, "unit": "u"}`, joined by ", ".
    let (_, body) = last.split_once("\"metrics\": {").expect("a metrics object");
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry
                .split_once("\": {\"value\": ")
                .expect("a metric entry");
            let value = rest.split(',').next().expect("a value");
            (
                name.trim_start_matches('"').to_string(),
                value.parse().expect("a number"),
            )
        })
        .collect()
}

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root")
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs a release build")]
fn untraced_metrics_repeat_within_a_seed_and_move_with_it() {
    let declared = benchmark_json();
    for workload in ["fig11_crn", "fig14_search", "diurnal_cluster"] {
        let a = run(workload, DEFAULT_SEED, "0");
        let b = run(workload, DEFAULT_SEED, "0");
        let held = run(workload, HELD_OUT_SEED, "0");
        for name in a.keys() {
            assert!(
                declared.contains(&format!("\"name\": \"{name}\"")),
                "{name} undeclared"
            );
        }
        for name in SIM_METRICS.iter().chain(&["allocs_per_req"]) {
            assert_eq!(a[*name], b[*name], "{workload}: {name} must repeat exactly");
        }
        assert!(
            SIM_METRICS.iter().any(|n| a[*n] != held[*n]),
            "{workload}: the held-out seed must change the simulated results"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "needs a release build")]
fn traced_counts_repeat_within_a_seed() {
    let declared = benchmark_json();
    let a = run("fig11_crn", DEFAULT_SEED, "1");
    let b = run("fig11_crn", DEFAULT_SEED, "1");
    for name in a.keys() {
        assert!(
            declared.contains(&format!("\"name\": \"{name}\"")),
            "{name} undeclared"
        );
    }
    let exact = a.keys().filter(|n| {
        n.starts_with("machine.ev.")
            || n.starts_with("control.")
            || [
                "workloads.arrivals",
                "workloads.allocs_per_arrival",
                "workloads.heap_bytes_per_arrival",
                "sim.events",
                "sim.events_per_req",
                "machine.allocs_per_event",
                "snapshot.bytes",
                "cluster.outer_events",
                "cluster.node_events",
            ]
            .contains(&n.as_str())
    });
    for name in exact {
        assert_eq!(a[name], b[name], "{name} must repeat exactly");
    }
}
