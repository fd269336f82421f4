//! Fig 15: maximum throughput of the coarse-grain image-processing and
//! RNN applications (the RELIEF gem5 suite stand-ins) under RELIEF and
//! AccelFlow orchestration.

use accelflow_bench::harness::{self, Scale};
use accelflow_bench::paper;
use accelflow_bench::sweep;
use accelflow_bench::table::{ratio, Table};
use accelflow_core::policy::Policy;
use accelflow_workloads::relief_suite;

fn main() {
    let seed = Scale::from_env().seed;
    let mut t = Table::new(
        "Fig 15: coarse-grain suite max throughput (kRPS)",
        &["application", "RELIEF", "AccelFlow", "gain", "paper avg"],
    );
    // Two independent throughput searches per application, fanned out
    // as one sweep.
    let apps = relief_suite::all();
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| [(app, Policy::Relief), (app, Policy::AccelFlow)])
        .collect();
    let tputs = sweep::map(jobs, |(app, p)| {
        harness::max_throughput(p, std::slice::from_ref(app), 5.0, seed)
    });
    let mut gains = Vec::new();
    for (app, pair) in apps.iter().zip(tputs.chunks(2)) {
        let (relief, af) = (pair[0], pair[1]);
        gains.push(af / relief);
        t.row(&[
            app.name.clone(),
            format!("{:.1}", relief / 1000.0),
            format!("{:.1}", af / 1000.0),
            ratio(af / relief),
            String::new(),
        ]);
    }
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    t.row(&[
        "AVERAGE".into(),
        String::new(),
        String::new(),
        ratio(avg),
        ratio(paper::FIG15_VS_RELIEF),
    ]);
    t.print();
}
