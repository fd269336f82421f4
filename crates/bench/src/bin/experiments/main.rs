//! The experiment runner: `experiments <id>` regenerates one table or
//! figure of the paper's evaluation and prints it beside the paper's
//! numbers; `experiments --list` prints the ids whose output is
//! committed as `results/<id>.txt`, in the order `run_experiments.sh`
//! regenerates them. DESIGN.md §4 maps every id to the paper.
//!
//! The scale is read once from `ACCELFLOW_DURATION_MS`,
//! `ACCELFLOW_RPS` and `ACCELFLOW_SEED` ([`Scale::from_env`]), and the
//! sweep knobs `ACCELFLOW_THREADS`, `ACCELFLOW_SHARDS` and
//! `ACCELFLOW_SHARD_INDEX` are checked before any run; a value that
//! does not parse or that no run can use exits 2. Files an
//! experiment writes land under the repository's `results/`, whatever
//! the working directory.

mod characterization;
mod cluster;
mod latency;
mod observability;
mod openloop;
mod robustness;
mod throughput;

use accelflow_bench::harness::Scale;
use accelflow_bench::sweep;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use Run::{Check, Gate, Print};

/// A checking experiment found a fault (an invariant violation, a
/// clamped event or an invalid trace) and has printed it.
pub(crate) struct Failed;

/// How an experiment runs, and whether its output is committed as
/// `results/<id>.txt`.
enum Run {
    /// Prints tables; committed.
    Print(fn(Scale)),
    /// Prints tables and fails on a fault; committed.
    Check(fn(Scale) -> Result<(), Failed>),
    /// Fails on a fault; CI runs it at smoke scale, nothing committed.
    Gate(fn(Scale) -> Result<(), Failed>),
}

/// Every experiment by id, the committed ones in `--list` order.
const EXPERIMENTS: &[(&str, Run)] = &[
    (
        "table01_connectivity",
        Print(characterization::table01_connectivity),
    ),
    ("table02_traces", Print(characterization::table02_traces)),
    ("table03_params", Print(characterization::table03_params)),
    ("table04_paths", Print(characterization::table04_paths)),
    ("fig02_traces", Print(characterization::fig02_traces)),
    ("fig01_breakdown", Print(characterization::fig01_breakdown)),
    ("fig03_overhead", Print(characterization::fig03_overhead)),
    ("fig05_datasizes", Print(characterization::fig05_datasizes)),
    ("fig11_latency", Print(latency::fig11_latency)),
    ("fig12_loads", Print(latency::fig12_loads)),
    ("fig13_ablation", Print(latency::fig13_ablation)),
    ("fig14_throughput", Print(throughput::fig14_throughput)),
    ("fig15_relief_suite", Print(throughput::fig15_relief_suite)),
    ("fig16_serverless", Print(latency::fig16_serverless)),
    ("fig17_breakdown", Print(latency::fig17_breakdown)),
    ("fig18_chiplets", Print(latency::fig18_chiplets)),
    ("fig19_pes", Print(latency::fig19_pes)),
    ("fig20_generations", Print(latency::fig20_generations)),
    ("sens_interchiplet", Print(latency::sens_interchiplet)),
    ("sens_speedup", Print(throughput::sens_speedup)),
    ("sens_instances", Print(latency::sens_instances)),
    ("sens_overflow", Print(latency::sens_overflow)),
    ("ext_priority", Print(latency::ext_priority)),
    ("q2_branches", Print(characterization::q2_branches)),
    ("stats_glue", Print(characterization::stats_glue)),
    ("stats_utilization", Print(throughput::stats_utilization)),
    ("stats_energy", Print(throughput::stats_energy)),
    ("stats_events", Print(observability::stats_events)),
    ("stats_area", Print(characterization::stats_area)),
    ("stats_profile", Check(observability::stats_profile)),
    ("diag_timeline", Print(observability::diag_timeline)),
    ("export_csv", Print(observability::export_csv)),
    ("stats_audit", Gate(robustness::stats_audit)),
    ("stats_faults", Gate(robustness::stats_faults)),
    ("stats_cluster", Gate(cluster::stats_cluster)),
    ("stats_openloop", Gate(openloop::stats_openloop)),
];

/// The ids whose output is committed, in regeneration order.
fn listed() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS
        .iter()
        .filter(|(_, run)| !matches!(run, Gate(_)))
        .map(|(id, _)| *id)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = match args.as_slice() {
        [arg] => arg.as_str(),
        _ => "",
    };
    if arg == "--list" {
        listed().for_each(|id| println!("{id}"));
        return ExitCode::SUCCESS;
    }
    let Some((_, run)) = EXPERIMENTS.iter().find(|(id, _)| *id == arg) else {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        eprintln!(
            "usage: experiments <id> | --list\nunknown experiment {args:?}; valid ids: {}",
            ids.join(" ")
        );
        return ExitCode::from(2);
    };
    let scale = Scale::from_env();
    sweep::parallelism();
    sweep::Shard::from_env();
    match run {
        Print(run) => run(scale),
        Check(run) | Gate(run) => {
            if let Err(Failed) = run(scale) {
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `rel` under the repository root, wherever the binary runs from:
/// the files an experiment writes land beside the committed
/// `results/`, while the paths it prints stay relative.
pub(crate) fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

#[cfg(test)]
mod tests {
    use super::{listed, repo_path, Gate, EXPERIMENTS};
    use std::collections::BTreeSet;

    #[test]
    fn ids_are_unique() {
        let mut seen = BTreeSet::new();
        for (id, _) in EXPERIMENTS {
            assert!(seen.insert(id), "experiment id {id} is registered twice");
        }
    }

    /// `--list` names exactly the committed results files, so
    /// `run_experiments.sh` regenerates every one of them, and a gate
    /// has none.
    #[test]
    fn listed_ids_are_the_results_files() {
        let dir = repo_path("results");
        let files: BTreeSet<String> = std::fs::read_dir(&dir)
            .expect("results/ is readable")
            .map(|entry| entry.expect("results/ entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
            .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        for (id, run) in EXPERIMENTS {
            if matches!(run, Gate(_)) {
                assert!(!files.contains(*id), "gate {id} has a results file");
            }
        }
        let listed: BTreeSet<String> = listed().map(String::from).collect();
        assert_eq!(listed, files, "--list against results/*.txt");
    }
}
