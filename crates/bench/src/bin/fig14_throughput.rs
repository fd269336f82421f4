//! Fig 14: maximum throughput (the largest load that meets the SLO of
//! 5x the unloaded execution time) for the five architectures plus the
//! Ideal bound, and the extra throughput from deadline-aware
//! scheduling (§VII-A3).

use accelflow_bench::harness::{self, Scale};
use accelflow_bench::paper;
use accelflow_bench::sweep;
use accelflow_bench::table::{pct, ratio, Table};
use accelflow_core::machine::MachineConfig;
use accelflow_core::policy::Policy;
use accelflow_sim::time::SimDuration;
use accelflow_workloads::socialnetwork;

fn main() {
    let services = socialnetwork::all();
    let seed = Scale::from_env().seed;

    let policies = [
        Policy::NonAcc,
        Policy::CpuCentric,
        Policy::Relief,
        Policy::Cohort,
        Policy::AccelFlow,
        Policy::Ideal,
    ];
    // Deadline-aware scheduling with per-request SLO slack (§IV-C).
    let mut slo_services = services.clone();
    for s in &mut slo_services {
        s.slo_slack = Some(5.0);
    }
    let mut cfg = MachineConfig::new(Policy::AccelFlowDeadline);
    cfg.warmup = SimDuration::from_millis(5);

    // Seven independent SLO-bounded searches (six policies plus the
    // deadline variant), fanned out as one sweep. Each inner search
    // runs sequentially on its worker (nested sweeps don't multiply
    // threads), so results match a fully sequential run bit for bit.
    let searches: Vec<Option<Policy>> = policies
        .iter()
        .map(|&p| Some(p))
        .chain(std::iter::once(None))
        .collect();
    let tputs = sweep::map(searches, |job| match job {
        Some(p) => harness::max_throughput(p, &services, 5.0, seed),
        None => harness::max_throughput_with(&cfg, &slo_services, 5.0, seed),
    });
    let dl = tputs[policies.len()];

    let mut results = Vec::new();
    let mut t = Table::new(
        "Fig 14: max throughput under SLO (kRPS per service)",
        &["architecture", "max kRPS/svc"],
    );
    for (p, &tput) in policies.iter().zip(&tputs) {
        println!(
            "  measured {:<12} {:>8.1} kRPS/service",
            p.name(),
            tput / 1000.0
        );
        t.row(&[p.name().to_string(), format!("{:.1}", tput / 1000.0)]);
        results.push((*p, tput));
    }
    t.row(&["AccelFlow+DL".into(), format!("{:.1}", dl / 1000.0)]);
    t.print();

    let get = |p: Policy| {
        results
            .iter()
            .find(|(q, _)| *q == p)
            .map(|(_, v)| *v)
            .unwrap()
    };
    let af = get(Policy::AccelFlow);
    let mut t = Table::new("Fig 14 ratios", &["comparison", "measured", "paper"]);
    t.row(&[
        "AccelFlow vs Non-acc".into(),
        ratio(af / get(Policy::NonAcc)),
        ratio(paper::FIG14_VS_NONACC),
    ]);
    t.row(&[
        "AccelFlow vs RELIEF".into(),
        ratio(af / get(Policy::Relief)),
        ratio(paper::FIG14_VS_RELIEF),
    ]);
    t.row(&[
        "AccelFlow within Ideal".into(),
        pct(1.0 - af / get(Policy::Ideal)),
        format!("within {}", pct(paper::FIG14_WITHIN_IDEAL)),
    ]);
    t.row(&[
        "deadline scheduling extra".into(),
        ratio(dl / af),
        ratio(paper::FIG14_DEADLINE_EXTRA),
    ]);
    t.print();
}
