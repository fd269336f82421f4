//! Tail-latency experiments: Figs 11–13 and 16–20, the sensitivity
//! sweeps over chiplet links, instances and overflow areas, and the
//! priority-scheduling extension.

use accelflow_accel::dispatcher::QueuePolicy;
use accelflow_arch::config::CpuGeneration;
use accelflow_bench::harness::{self, Scale};
use accelflow_bench::table::{pct, Table};
use accelflow_bench::{paper, sweep};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::arrivals::{bursty_arrivals, BurstyProfile};
use accelflow_workloads::{serverless, socialnetwork, suites};

/// Fig 11: P99 tail latency (and average latency) of the eight
/// SocialNetwork services under the five architectures, driven by
/// Alibaba-like production invocation rates (13.4 kRPS per service on
/// average).
pub(crate) fn fig11_latency(scale: Scale) {
    let services = socialnetwork::all();
    let arrivals = harness::shared_arrivals(&services, scale);
    println!(
        "arrivals: {} requests over {} at {} rps/service\n",
        arrivals.len(),
        scale.duration,
        scale.rps
    );

    // One independent simulation per policy; fan out across sweep
    // workers and print in the deterministic input order.
    let policies = Policy::HEADLINE;
    let reports = sweep::map(policies.to_vec(), |p| {
        harness::run_policy(p, &services, arrivals.clone(), scale)
    });
    for (p, r) in policies.iter().zip(&reports) {
        println!(
            "{:<12} completed {:>7}/{:<7} avg-p99 {:>9.1} us  avg-mean {:>8.1} us",
            p.name(),
            r.completed(),
            r.offered(),
            harness::avg_p99(r),
            harness::avg_mean(r),
        );
    }

    // Per-service P99 table.
    let mut t = Table::new(
        "Fig 11: P99 tail latency (us) per service",
        &[
            "service",
            "Non-acc",
            "CPU-Centric",
            "RELIEF",
            "Cohort",
            "AccelFlow",
            "avg(AF)",
        ],
    );
    for (i, svc) in services.iter().enumerate() {
        let mut row = vec![svc.name.clone()];
        for r in &reports {
            row.push(format!("{:.0}", r.per_service[i].p99().as_micros_f64()));
        }
        row.push(format!(
            "{:.0}",
            reports[4].per_service[i].mean().as_micros_f64()
        ));
        t.row(&row);
    }
    t.print();

    // Reductions vs paper.
    let mut t = Table::new(
        "AccelFlow reductions (average across services)",
        &[
            "baseline",
            "P99 paper",
            "P99 measured",
            "mean paper",
            "mean measured",
        ],
    );
    let af_p99 = harness::avg_p99(&reports[4]);
    let af_mean = harness::avg_mean(&reports[4]);
    for (i, (name, paper_p99)) in paper::FIG11_P99_REDUCTION.iter().enumerate() {
        let base_p99 = harness::avg_p99(&reports[i]);
        let base_mean = harness::avg_mean(&reports[i]);
        let red_p99 = 1.0 - af_p99 / base_p99;
        let red_mean = 1.0 - af_mean / base_mean;
        t.row(&[
            name.to_string(),
            pct(*paper_p99),
            pct(red_p99),
            pct(paper::FIG11_MEAN_REDUCTION[i].1),
            pct(red_mean),
        ]);
    }
    t.print();
}

/// Fig 12: P99 tail latency of the DeathStarBench suites under Low
/// (5 kRPS), Medium (10 kRPS), and High (15 kRPS) Poisson loads for
/// the five architectures.
pub(crate) fn fig12_loads(scale: Scale) {
    let services = suites::deathstarbench();
    let loads = [(5_000.0, "Low"), (10_000.0, "Medium"), (15_000.0, "High")];

    // All load × policy simulations are independent; run the full
    // cross product through one sweep and slice rows afterwards.
    let jobs: Vec<(f64, Policy)> = loads
        .iter()
        .flat_map(|&(rps, _)| Policy::HEADLINE.iter().map(move |&p| (rps, p)))
        .collect();
    let p99s = sweep::map(jobs, |(rps, p)| {
        harness::avg_p99(&harness::run_poisson(p, &services, rps, scale))
    });

    let mut t = Table::new(
        "Fig 12: avg P99 (us) under different loads",
        &[
            "load",
            "Non-acc",
            "CPU-Centric",
            "RELIEF",
            "Cohort",
            "AccelFlow",
            "AF vs RELIEF",
        ],
    );
    for (i, (rps, name)) in loads.iter().enumerate() {
        let mut row = vec![format!("{name} ({:.0}k)", rps / 1000.0)];
        let mut relief = 0.0;
        let mut af = 0.0;
        for (j, p) in Policy::HEADLINE.iter().enumerate() {
            let p99 = p99s[i * Policy::HEADLINE.len() + j];
            if *p == Policy::Relief {
                relief = p99;
            }
            if *p == Policy::AccelFlow {
                af = p99;
            }
            row.push(format!("{p99:.0}"));
        }
        row.push(format!(
            "{} (paper {})",
            pct(1.0 - af / relief),
            pct(paper::FIG12_VS_RELIEF[i].1)
        ));
        t.row(&row);
    }
    t.print();
}

/// Fig 13: P99 tail latency with the successive addition of AccelFlow
/// techniques: RELIEF -> +PerAccTypeQ -> +Direct (traces, direct
/// transfers) -> +CntrFlow (branches in dispatchers) -> AccelFlow
/// (transforms and large payloads in dispatchers).
pub(crate) fn fig13_ablation(scale: Scale) {
    let services = socialnetwork::all();
    let arrivals = harness::shared_arrivals(&services, scale);

    let mut relief_p99 = 0.0;
    let mut t = Table::new(
        "Fig 13: ablation ladder (avg P99 across services)",
        &["design", "avg P99 (us)", "cumulative reduction", "paper"],
    );
    for (i, p) in Policy::ABLATION.iter().enumerate() {
        let r = harness::run_policy(*p, &services, arrivals.clone(), scale);
        let p99 = harness::avg_p99(&r);
        if i == 0 {
            relief_p99 = p99;
        }
        let reduction = 1.0 - p99 / relief_p99;
        let paper_txt = if i == 0 {
            "baseline".to_string()
        } else {
            pct(paper::FIG13_CUMULATIVE_REDUCTION[i - 1].1)
        };
        t.row(&[
            p.name().to_string(),
            format!("{p99:.0}"),
            pct(reduction),
            paper_txt,
        ]);
    }
    t.print();
}

/// Fig 16: P99 tail latency of serverless functions (FunctionBench
/// stand-ins) under Azure-like bursty invocations, for Non-acc,
/// RELIEF, and AccelFlow.
pub(crate) fn fig16_serverless(mut scale: Scale) {
    let functions = serverless::all();
    scale.rps = Scale::rps_from_env(3_500.0);
    let lib = TraceLibrary::standard();
    // Azure invocation rates are heavily skewed toward short functions
    // (most production functions run for milliseconds or less), so the
    // short functions get proportionally higher rates.
    let weights = [10.0, 1.5, 0.4, 0.8, 5.0]; // ImgRot, MLServe, VidProc, DocConv, ApiAgg
    let azure = BurstyProfile::azure_like();
    let mut arr = Vec::new();
    for (i, (f, w)) in functions.iter().zip(weights).enumerate() {
        let sub = bursty_arrivals(
            std::slice::from_ref(f),
            &lib,
            scale.rps * w,
            scale.duration,
            scale.seed + i as u64,
            &azure,
        );
        arr.extend(sub.into_iter().map(|mut a| {
            a.service = accelflow_core::request::ServiceId(i);
            a
        }));
    }
    arr.sort_by_key(|a| a.at);
    println!("{} invocations over {}", arr.len(), scale.duration);

    let policies = [Policy::NonAcc, Policy::Relief, Policy::AccelFlow];
    let mut reports = Vec::new();
    for p in policies {
        let r = harness::run_policy(p, &functions, arr.clone(), scale);
        reports.push(r);
    }
    let mut t = Table::new(
        "Fig 16: serverless P99 (us)",
        &["function", "Non-acc", "RELIEF", "AccelFlow", "AF vs RELIEF"],
    );
    let mut reds = Vec::new();
    for (i, f) in functions.iter().enumerate() {
        let p99: Vec<f64> = reports
            .iter()
            .map(|r| r.per_service[i].p99().as_micros_f64())
            .collect();
        let red = 1.0 - p99[2] / p99[1];
        reds.push(red);
        t.row(&[
            f.name.clone(),
            format!("{:.0}", p99[0]),
            format!("{:.0}", p99[1]),
            format!("{:.0}", p99[2]),
            pct(red),
        ]);
    }
    let avg = reds.iter().sum::<f64>() / reds.len() as f64;
    t.row(&[
        "AVERAGE".into(),
        String::new(),
        String::new(),
        String::new(),
        pct(avg),
    ]);
    t.row(&[
        "paper".into(),
        String::new(),
        String::new(),
        String::new(),
        pct(paper::FIG16_VS_RELIEF),
    ]);
    t.print();
}

/// Fig 17: breakdown of a service's execution time in AccelFlow (CPU,
/// accelerators, orchestration logic, communication), measured on an
/// unloaded system — plus RELIEF's orchestration share for contrast.
pub(crate) fn fig17_breakdown(mut scale: Scale) {
    let services = socialnetwork::all();
    scale.rps = 120.0; // unloaded: one request at a time in expectation
    let af = harness::run_poisson(Policy::AccelFlow, &services, scale.rps, scale);
    let relief = harness::run_poisson(Policy::Relief, &services, scale.rps, scale);

    let mut t = Table::new(
        "Fig 17: AccelFlow on-server execution-time breakdown (unloaded)",
        &[
            "service",
            "CPU",
            "accelerators",
            "orchestration",
            "communication",
        ],
    );
    let mut orch_avg = 0.0;
    for s in &af.per_service {
        let b = &s.breakdown;
        let total = b.on_server().as_secs_f64().max(1e-12);
        orch_avg += b.orchestration.as_secs_f64() / total / af.per_service.len() as f64;
        t.row(&[
            s.name.clone(),
            pct(b.cpu.as_secs_f64() / total),
            pct(b.accel.as_secs_f64() / total),
            pct(b.orchestration.as_secs_f64() / total),
            pct(b.communication.as_secs_f64() / total),
        ]);
    }
    t.print();
    let relief_orch = relief.total_breakdown().orchestration_fraction();
    println!(
        "AccelFlow orchestration share: {} (paper {}); RELIEF: {} (paper ~{})",
        pct(orch_avg),
        pct(paper::FIG17_ORCH_SHARE),
        pct(relief_orch),
        pct(paper::FIG17_RELIEF_ORCH_SHARE),
    );
}

/// Fig 18: P99 tail latency for different organizations of the
/// accelerators into chiplets (1, 2, 3, 4, 6).
pub(crate) fn fig18_chiplets(scale: Scale) {
    let services = socialnetwork::all();
    let arrivals = harness::shared_arrivals(&services, scale);

    // One independent simulation per chiplet organization.
    let orgs = [1usize, 2, 3, 4, 6];
    let p99s = sweep::map(orgs.to_vec(), |chiplets| {
        let mut cfg = harness::machine_config(Policy::AccelFlow, scale);
        cfg.chiplets = chiplets;
        let r = Machine::run_arrivals(
            &cfg,
            &services,
            arrivals.clone(),
            scale.duration,
            scale.seed,
        );
        harness::avg_p99(&r)
    });

    let mut t = Table::new(
        "Fig 18: avg P99 (us) vs chiplet organization",
        &["chiplets", "avg P99 (us)", "vs 2-chiplet"],
    );
    let mut two = 0.0;
    for (&chiplets, &p99) in orgs.iter().zip(&p99s) {
        if chiplets == 2 {
            two = p99;
        }
        let delta = if two > 0.0 {
            format!("{:+.1}%", (p99 / two - 1.0) * 100.0)
        } else {
            "-".into()
        };
        t.row(&[chiplets.to_string(), format!("{p99:.0}"), delta]);
    }
    t.print();
    println!(
        "paper: 2 -> 6 chiplets increases tail latency by {} on average",
        pct(paper::FIG18_2_TO_6_CHIPLETS)
    );
}

/// Fig 19: P99 tail latency with 2, 4, or 8 PEs per accelerator, plus
/// the text's fallback rates, deadline misses, and throughput deltas.
pub(crate) fn fig19_pes(scale: Scale) {
    let services = socialnetwork::all();
    let arrivals = harness::shared_arrivals(&services, scale);

    let mut slo_services = services.clone();
    for s in &mut slo_services {
        s.slo_slack = Some(5.0);
    }

    // Each PE count needs a latency run and an SLO-bounded throughput
    // search; all six simulations fan out through one sweep.
    let pe_counts = [8usize, 4, 2];
    let rows = sweep::map(pe_counts.to_vec(), |pes| {
        let mut cfg = harness::machine_config(Policy::AccelFlow, scale);
        cfg.arch.pes_per_accelerator = pes;
        let r = Machine::run_arrivals(
            &cfg,
            &slo_services,
            arrivals.clone(),
            scale.duration,
            scale.seed,
        );
        let p99 = harness::avg_p99(&r);
        let fallback = r.fallback_fraction();
        let misses: u64 = r.per_service.iter().map(|s| s.deadline_misses).sum();
        let completed = r.completed().max(1);

        let mut tcfg = MachineConfig::new(Policy::AccelFlow);
        tcfg.warmup = SimDuration::from_millis(5);
        tcfg.arch.pes_per_accelerator = pes;
        let tput = harness::max_throughput_with(&tcfg, &services, 5.0, scale.seed);
        (p99, fallback, misses, completed, tput)
    });

    let mut t = Table::new(
        "Fig 19: PE-count sensitivity",
        &[
            "PEs",
            "avg P99 (us)",
            "vs 8 PEs",
            "fallback %",
            "deadline misses %",
            "max kRPS",
            "tput drop",
        ],
    );
    let (base_p99, _, _, _, base_tput) = rows[0];
    for (&pes, &(p99, fallback, misses, completed, tput)) in pe_counts.iter().zip(&rows) {
        t.row(&[
            pes.to_string(),
            format!("{p99:.0}"),
            format!("{:+.1}%", (p99 / base_p99 - 1.0) * 100.0),
            pct(fallback),
            pct(misses as f64 / completed as f64),
            format!("{:.1}", tput / 1000.0),
            format!("{:+.1}%", (tput / base_tput - 1.0) * 100.0),
        ]);
    }
    t.print();
    println!(
        "paper: P99 +{} (4 PEs) / +{} (2 PEs); deadline misses {} / {}; throughput -{} / -{}",
        pct(paper::FIG19_P99_4PES),
        pct(paper::FIG19_P99_2PES),
        pct(paper::FIG19_DEADLINE_MISSES[0].1),
        pct(paper::FIG19_DEADLINE_MISSES[1].1),
        pct(paper::FIG19_THROUGHPUT_DROP[0].1),
        pct(paper::FIG19_THROUGHPUT_DROP[1].1),
    );
}

/// Fig 20: P99 tail latency of Non-acc, RELIEF, and AccelFlow across
/// CPU generations (Haswell ... Emerald Rapids); AccelFlow's advantage
/// grows on newer cores because tax code benefits less than app logic.
pub(crate) fn fig20_generations(scale: Scale) {
    let services = socialnetwork::all();
    let arrivals = harness::shared_arrivals(&services, scale);

    let mut t = Table::new(
        "Fig 20: avg P99 (us) across CPU generations",
        &[
            "generation",
            "Non-acc",
            "RELIEF",
            "AccelFlow",
            "AF vs RELIEF",
        ],
    );
    for generation in CpuGeneration::ALL {
        let mut row = vec![generation.name().to_string()];
        let mut relief = 0.0;
        let mut af = 0.0;
        for p in [Policy::NonAcc, Policy::Relief, Policy::AccelFlow] {
            let mut cfg = harness::machine_config(p, scale);
            cfg.arch.generation = generation;
            let r = Machine::run_arrivals(
                &cfg,
                &services,
                arrivals.clone(),
                scale.duration,
                scale.seed,
            );
            let p99 = harness::avg_p99(&r);
            if p == Policy::Relief {
                relief = p99;
            }
            if p == Policy::AccelFlow {
                af = p99;
            }
            row.push(format!("{p99:.0}"));
        }
        row.push(pct(1.0 - af / relief));
        t.row(&row);
    }
    t.print();
    println!(
        "paper: AF vs RELIEF {} on IceLake -> {} on EmeraldRapids",
        pct(paper::FIG20_ICELAKE),
        pct(paper::FIG20_EMERALD)
    );
}

/// §VII-C2: inter-chiplet latency sensitivity — P99 for 2- and
/// 6-chiplet organizations as the inter-chiplet link latency sweeps
/// from 20 to 100 cycles.
pub(crate) fn sens_interchiplet(scale: Scale) {
    let services = socialnetwork::all();
    let arrivals = harness::shared_arrivals(&services, scale);

    // Full cycles × chiplets cross product as one sweep.
    let cycle_points = [20.0f64, 60.0, 100.0];
    let orgs = [2usize, 6];
    let jobs: Vec<(f64, usize)> = cycle_points
        .iter()
        .flat_map(|&cycles| orgs.iter().map(move |&chiplets| (cycles, chiplets)))
        .collect();
    let p99s = sweep::map(jobs, |(cycles, chiplets)| {
        let mut cfg = harness::machine_config(Policy::AccelFlow, scale);
        cfg.chiplets = chiplets;
        cfg.arch.inter_chiplet_cycles = cycles;
        // Slower links also carry less bandwidth (flit-clocked,
        // partially compensated by deeper pipelining).
        cfg.arch.inter_chiplet_bw *= (60.0 / cycles).powf(0.25);
        let r = Machine::run_arrivals(
            &cfg,
            &services,
            arrivals.clone(),
            scale.duration,
            scale.seed,
        );
        harness::avg_p99(&r)
    });

    let mut t = Table::new(
        "Inter-chiplet latency sweep: avg P99 (us)",
        &["cycles", "2-chiplet", "6-chiplet"],
    );
    let mut six_at = std::collections::BTreeMap::new();
    for (i, &cycles) in cycle_points.iter().enumerate() {
        let mut row = vec![format!("{cycles:.0}")];
        for (j, &chiplets) in orgs.iter().enumerate() {
            let p99 = p99s[i * orgs.len() + j];
            if chiplets == 6 {
                six_at.insert(cycles as u64, p99);
            }
            row.push(format!("{p99:.0}"));
        }
        t.row(&row);
    }
    t.print();
    let grow = six_at[&100] / six_at[&60] - 1.0;
    println!(
        "6-chiplet, 60 -> 100 cycles: {} (paper {})",
        pct(grow),
        pct(paper::INTERCHIPLET_60_TO_100)
    );
}

/// Extension: accelerator instance-count sensitivity (paper §IV-A
/// provisions "one or more instances of all the accelerators"; the
/// Enqueue retry loop spans instances of a type). Sweeps instance
/// count on a lean per-instance configuration.
pub(crate) fn sens_instances(_: Scale) {
    let services = socialnetwork::all();
    let counts = [1usize, 2, 4];
    let reports = sweep::map(counts.to_vec(), |instances| {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(5);
        cfg.instances_per_accel = instances;
        cfg.arch.pes_per_accelerator = 2;
        Machine::run_workload(&cfg, &services, 13_400.0, SimDuration::from_millis(80), 42)
    });

    let mut t = Table::new(
        "Instance-count sweep (2 PEs per instance, 13.4 kRPS/svc)",
        &[
            "instances/type",
            "avg p99 (us)",
            "mean (us)",
            "fallback share",
        ],
    );
    for (&instances, r) in counts.iter().zip(&reports) {
        let p99: f64 = r
            .per_service
            .iter()
            .map(|s| s.p99().as_micros_f64())
            .sum::<f64>()
            / r.per_service.len() as f64;
        let mean: f64 = r
            .per_service
            .iter()
            .map(|s| s.mean().as_micros_f64())
            .sum::<f64>()
            / r.per_service.len() as f64;
        t.row(&[
            instances.to_string(),
            format!("{p99:.0}"),
            format!("{mean:.0}"),
            pct(r.fallback_fraction()),
        ]);
    }
    t.print();
    println!("Four 2-PE instances match the capacity of the baseline 8-PE design");
    println!("while shortening per-instance queues.");
}

/// Extension: overflow-area sizing (paper §IV-A provisions an overflow
/// area per input queue; §VII-B6 reports how often it is exercised).
/// Sweeps the overflow capacity on a lean ensemble under heavy load.
pub(crate) fn sens_overflow(_: Scale) {
    let services = vec![socialnetwork::read_home_timeline(), socialnetwork::login()];
    let sizes = [0usize, 8, 64, 256];
    let reports = sweep::map(sizes.to_vec(), |overflow| {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(5);
        cfg.arch.pes_per_accelerator = 2;
        cfg.arch.input_queue_entries = 8;
        cfg.arch.overflow_entries = overflow;
        Machine::run_workload(&cfg, &services, 40_000.0, SimDuration::from_millis(60), 9)
    });

    let mut t = Table::new(
        "Overflow-area sizing (2-PE ensemble, heavy load)",
        &[
            "overflow entries",
            "overflows",
            "rejected->fallback",
            "fallback share",
            "p99 (us)",
        ],
    );
    for (&overflow, r) in sizes.iter().zip(&reports) {
        let p99: f64 = r
            .per_service
            .iter()
            .map(|s| s.p99().as_micros_f64())
            .sum::<f64>()
            / r.per_service.len() as f64;
        t.row(&[
            overflow.to_string(),
            r.totals.overflows.to_string(),
            r.totals.fallbacks.to_string(),
            pct(r.fallback_fraction()),
            format!("{p99:.0}"),
        ]);
    }
    t.print();
    println!("A larger overflow area trades CPU fallbacks for queueing: fallbacks");
    println!("drop as the area grows, and the tail reflects the queue depth.");
}

/// Extension (paper §V-1: "more advanced policies could process the
/// entries based on their Priority field"): priority scheduling in the
/// input dispatchers — a high-priority service sharing a lean ensemble
/// with bulk traffic.
pub(crate) fn ext_priority(_: Scale) {
    let mut latency_critical = socialnetwork::uniq_id();
    latency_critical.priority = 7;
    let bulk = socialnetwork::compose_post();
    let services = vec![latency_critical, bulk];

    let mut t = Table::new(
        "Priority scheduling on a lean (2-PE) ensemble",
        &[
            "dispatcher",
            "UniqId mean (us)",
            "UniqId p99 (us)",
            "CPost p99 (us)",
        ],
    );
    for (name, policy) in [
        ("FIFO", QueuePolicy::Fifo),
        ("priority", QueuePolicy::Priority),
    ] {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(5);
        cfg.arch.pes_per_accelerator = 2;
        cfg.queue_policy_override = Some(policy);
        let r = Machine::run_workload(&cfg, &services, 30_000.0, SimDuration::from_millis(80), 3);
        t.row(&[
            name.to_string(),
            format!("{:.1}", r.per_service[0].mean().as_micros_f64()),
            format!("{:.1}", r.per_service[0].p99().as_micros_f64()),
            format!("{:.0}", r.per_service[1].p99().as_micros_f64()),
        ]);
    }
    t.print();
    println!("High-priority entries jump the input queues; bulk traffic absorbs the delay.");
}
