//! §VII-C5: accelerator-speedup sensitivity — AccelFlow vs RELIEF
//! max throughput as every accelerator's speedup scales by 0.25x to 4x.

use accelflow_bench::harness::{self, Scale};
use accelflow_bench::paper;
use accelflow_bench::sweep;
use accelflow_bench::table::{ratio, Table};
use accelflow_core::machine::MachineConfig;
use accelflow_core::policy::Policy;
use accelflow_sim::time::SimDuration;
use accelflow_workloads::socialnetwork;

fn main() {
    let services = socialnetwork::all();
    let seed = Scale::from_env().seed;
    let points = [
        (0.25, Some(1.4)),
        (0.5, None),
        (1.0, Some(2.2)),
        (2.0, None),
        (4.0, Some(3.9)),
    ];
    // Ten independent throughput searches (5 scales × 2 policies).
    let jobs: Vec<(f64, Policy)> = points
        .iter()
        .flat_map(|&(scale_f, _)| {
            [Policy::Relief, Policy::AccelFlow]
                .iter()
                .map(move |&p| (scale_f, p))
        })
        .collect();
    let tputs = sweep::map(jobs, |(scale_f, p)| {
        let mut cfg = MachineConfig::new(p);
        cfg.warmup = SimDuration::from_millis(5);
        cfg.speedup_scale = scale_f;
        harness::max_throughput_with(&cfg, &services, 5.0, seed)
    });

    let mut t = Table::new(
        "Speedup sweep: AccelFlow gain over RELIEF (max throughput)",
        &[
            "speedup scale",
            "RELIEF kRPS",
            "AccelFlow kRPS",
            "gain",
            "paper",
        ],
    );
    for (i, (scale_f, paper_gain)) in points.into_iter().enumerate() {
        let relief = tputs[2 * i];
        let af = tputs[2 * i + 1];
        t.row(&[
            format!("{scale_f}x"),
            format!("{:.1}", relief / 1000.0),
            format!("{:.1}", af / 1000.0),
            ratio(af / relief),
            paper_gain.map(ratio).unwrap_or_default(),
        ]);
    }
    t.print();
    let _ = paper::SPEEDUP_SWEEP_GAINS;
}
