//! SLO-bounded throughput experiments: Figs 14–15, speedup
//! sensitivity, and utilization and energy at peak (§VII-B4, §VII-B5).

use accelflow_bench::harness::{self, Scale};
use accelflow_bench::table::{pct, ratio, Table};
use accelflow_bench::{paper, sweep};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_sim::time::SimDuration;
use accelflow_trace::kind::AccelKind;
use accelflow_workloads::{relief_suite, socialnetwork};

/// Fig 14: maximum throughput (the largest load that meets the SLO of
/// 5x the unloaded execution time) for the five architectures plus the
/// Ideal bound, and the extra throughput from deadline-aware
/// scheduling (§VII-A3).
pub(crate) fn fig14_throughput(scale: Scale) {
    let services = socialnetwork::all();
    let seed = scale.seed;

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

/// Fig 15: maximum throughput of the coarse-grain image-processing and
/// RNN applications (the RELIEF gem5 suite stand-ins) under RELIEF and
/// AccelFlow orchestration.
pub(crate) fn fig15_relief_suite(scale: Scale) {
    let seed = scale.seed;
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

/// §VII-C5: accelerator-speedup sensitivity — AccelFlow vs RELIEF
/// max throughput as every accelerator's speedup scales by 0.25x to 4x.
pub(crate) fn sens_speedup(scale: Scale) {
    let services = socialnetwork::all();
    let seed = scale.seed;
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

/// §VII-B4: accelerator utilization when operating at peak throughput
/// without violating SLOs.
pub(crate) fn stats_utilization(mut scale: Scale) {
    let services = socialnetwork::all();
    let peak = harness::max_throughput(Policy::AccelFlow, &services, 5.0, scale.seed);
    println!("peak throughput: {:.1} kRPS/service\n", peak / 1000.0);
    scale.rps = peak;
    let r = harness::run_poisson(Policy::AccelFlow, &services, peak, scale);

    use AccelKind::*;
    let pair = |a: AccelKind, b: AccelKind| {
        (r.totals.accel_utilization[a.id() as usize] + r.totals.accel_utilization[b.id() as usize])
            / 2.0
    };
    let rows: Vec<(&str, f64)> = vec![
        ("TCP", r.totals.accel_utilization[Tcp.id() as usize]),
        ("(De)Encr", pair(Encr, Decr)),
        ("RPC", r.totals.accel_utilization[Rpc.id() as usize]),
        ("(De)Ser", pair(Ser, Dser)),
        ("(De)Cmp", pair(Cmp, Dcmp)),
        ("LdB", r.totals.accel_utilization[Ldb.id() as usize]),
    ];
    let mut t = Table::new(
        "§VII-B4: accelerator utilization at peak",
        &["accelerator", "measured", "paper"],
    );
    for ((name, util), (_, paper_util)) in rows.iter().zip(paper::UTILIZATION_AT_PEAK) {
        t.row(&[name.to_string(), pct(*util), pct(paper_util)]);
    }
    t.print();
}

/// §VII-B5: energy and performance-per-watt — a fixed request batch
/// run at each architecture's own near-peak sustainable rate (the
/// paper runs the services "for 400K requests": faster architectures
/// drain the batch sooner, so they also spend less static energy).
pub(crate) fn stats_energy(scale: Scale) {
    let services = socialnetwork::all();
    let seed = scale.seed;
    // Batch size per service (scaled down from the paper's 400K total).
    let batch_per_service = 3_000.0;

    // Drive each architecture at 85% of its own sustainable peak: one
    // throughput search and one batch run per architecture, fanned out
    // as one sweep.
    let policies = [Policy::NonAcc, Policy::Relief, Policy::AccelFlow];
    let runs = sweep::map(policies.to_vec(), |p| {
        let rate = harness::max_throughput(p, &services, 5.0, seed) * 0.85;
        let duration = SimDuration::from_secs_f64(batch_per_service / rate);
        let mut cfg = MachineConfig::new(p);
        cfg.warmup = SimDuration::ZERO;
        let r = Machine::run_workload(&cfg, &services, rate, duration, seed);
        (rate, r)
    });
    let mut rows = Vec::new();
    for (p, (rate, r)) in policies.into_iter().zip(runs) {
        let e = r.totals.energy;
        let ppw = r.completed() as f64 / e.total_j;
        println!(
            "  {:<10} rate {:>6.1} kRPS/svc  batch drained at {:>7.3}s  energy {:>7.1} J",
            p.name(),
            rate / 1000.0,
            r.ended_at.as_secs_f64(),
            e.total_j
        );
        rows.push((p, e.total_j, e.avg_power_w, ppw));
    }
    let mut t = Table::new(
        "§VII-B5: energy for the batch at each architecture's peak",
        &["architecture", "energy (J)", "avg power (W)", "req/J"],
    );
    for (p, j, w, ppw) in &rows {
        t.row(&[
            p.name().to_string(),
            format!("{j:.1}"),
            format!("{w:.0}"),
            format!("{ppw:.0}"),
        ]);
    }
    t.print();

    let energy = |p: Policy| rows.iter().find(|(q, ..)| *q == p).unwrap().1;
    let ppw = |p: Policy| rows.iter().find(|(q, ..)| *q == p).unwrap().3;
    let mut t = Table::new("§VII-B5 ratios", &["comparison", "measured", "paper"]);
    t.row(&[
        "energy reduction vs Non-acc".into(),
        pct(1.0 - energy(Policy::AccelFlow) / energy(Policy::NonAcc)),
        pct(paper::ENERGY_REDUCTION_VS_NONACC),
    ]);
    t.row(&[
        "perf/W vs Non-acc".into(),
        ratio(ppw(Policy::AccelFlow) / ppw(Policy::NonAcc)),
        ratio(paper::PERF_PER_WATT_VS_NONACC),
    ]);
    t.row(&[
        "perf/W vs RELIEF".into(),
        ratio(ppw(Policy::AccelFlow) / ppw(Policy::Relief)),
        ratio(paper::PERF_PER_WATT_VS_RELIEF),
    ]);
    t.print();
}
