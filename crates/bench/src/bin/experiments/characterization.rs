//! What the paper measures before it evaluates: the trace library and
//! its connectivity (Tables I–II, Figs 2/4/7), the architecture
//! (Table III, §VI area), service composition (Table IV, Figs 1, 3, 5,
//! §III Q2) and the dispatchers' glue instructions (§VII-B2).

use accelflow_arch::area::area_report;
use accelflow_arch::config::ArchConfig;
use accelflow_bench::harness::{self, Scale};
use accelflow_bench::paper;
use accelflow_bench::table::{pct, Table};
use accelflow_core::policy::Policy;
use accelflow_core::request::ServiceSpec;
use accelflow_sim::rng::SimRng;
use accelflow_trace::cond::PayloadFlags;
use accelflow_trace::ir::PathStep;
use accelflow_trace::kind::AccelKind;
use accelflow_trace::packed;
use accelflow_trace::templates::{Neighbor, TemplateId, TraceLibrary};
use accelflow_trace::viz::render;
use accelflow_workloads::{musuite, socialnetwork, suites, trainticket};

/// Table I: the source/destination accelerators of each accelerator,
/// derived from the T1–T12 trace library.
///
/// The paper derives this matrix from 80+ services; ours comes from
/// the twelve templates (which always run TLS, so e.g. TCP's only
/// accelerator source is Encr — the paper also sees plaintext Ser/Cmp
/// feeds). The point the table makes — inter-accelerator connections
/// must be flexible, many-to-many — holds identically.
pub(crate) fn table01_connectivity(_: Scale) {
    let lib = TraceLibrary::standard();
    let matrix = lib.connectivity();

    let paper: &[(&str, &str, &str)] = &[
        ("TCP", "Ser, Encr, Cmp", "LdB, Decr, Dser, Dcmp"),
        ("Encr", "TCP, RPC, Ser", "TCP, RPC"),
        ("Decr", "TCP", "RPC, Dser"),
        ("RPC", "Decr, Ser", "Encr, Deser, LdB"),
        ("Ser", "Deser, Cmp, CPU", "TCP, Encr, RPC"),
        ("Dser", "TCP, Decr, RPC", "Ser, Dcmp, LdB"),
        ("Cmp", "Deser, CPU", "Ser, LdB, CPU, TCP"),
        ("Dcmp", "Deser, TCP, CPU", "(De)Ser, LdB, CPU, TCP"),
        ("LdB", "TCP, Dser, Dcmp", "CPU"),
    ];

    let fmt = |set: &std::collections::BTreeSet<Neighbor>| {
        set.iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };

    let mut t = Table::new(
        "Table I: source/destination accelerators (measured from the trace library)",
        &[
            "accelerator",
            "src (measured)",
            "dst (measured)",
            "src (paper)",
            "dst (paper)",
        ],
    );
    for (i, kind) in AccelKind::ALL.iter().enumerate() {
        let (src, dst) = &matrix[kind];
        t.row(&[
            kind.to_string(),
            fmt(src),
            fmt(dst),
            paper[i].1.to_string(),
            paper[i].2.to_string(),
        ]);
    }
    t.print();

    let many_to_many = matrix
        .values()
        .filter(|(src, dst)| src.len() > 1 || dst.len() > 1)
        .count();
    println!(
        "{many_to_many}/9 accelerators have multiple sources or destinations \
         -> connections must be flexible (the paper's conclusion)."
    );
}

/// Table II: the complete list of traces the services use, with their
/// structure, branch conditions, packed encodings, and resolved paths.
pub(crate) fn table02_traces(_: Scale) {
    let lib = TraceLibrary::standard();
    let mut t = Table::new(
        "Table II: trace library",
        &[
            "trace",
            "explanation",
            "accels",
            "branches",
            "packed (bytes)",
            "paths",
        ],
    );
    for id in TemplateId::ALL {
        let trace = lib.entry(id);
        let bytes = packed::pack(trace).expect("all templates pack");
        t.row(&[
            id.name().to_string(),
            id.description().to_string(),
            trace.accelerator_count().to_string(),
            trace.branch_count().to_string(),
            bytes.len().to_string(),
            trace.all_paths().len().to_string(),
        ]);
    }
    t.print();

    // Show the resolved common path of each template.
    let mut t = Table::new("Common-case resolved paths", &["trace", "path"]);
    let common = PayloadFlags {
        hit: true,
        found: true,
        ..PayloadFlags::default()
    };
    for id in TemplateId::ALL {
        let path: Vec<String> = lib
            .entry(id)
            .resolve_path(&common)
            .iter()
            .map(|s| match s {
                PathStep::Accel(k) => k.to_string(),
                PathStep::Cpu => "CPU".into(),
                PathStep::Chain(a) => format!("chain({a})"),
            })
            .collect();
        t.row(&[id.name().to_string(), path.join(" -> ")]);
    }
    t.print();
    println!(
        "ATM holds {} resident traces; {} of 12 templates contain branches.",
        lib.atm().occupied(),
        TemplateId::ALL
            .iter()
            .filter(|&&id| lib.entry(id).branch_count() > 0)
            .count()
    );
}

/// Table III: the architectural parameters in force.
pub(crate) fn table03_params(_: Scale) {
    let c = ArchConfig::icelake();
    let mut t = Table::new(
        "Table III: architectural parameters",
        &["parameter", "value", "paper"],
    );
    let rows: Vec<(&str, String, &str)> = vec![
        (
            "cores",
            format!("{} @ {}", c.cores, c.core_clock),
            "36 @ 2.4GHz",
        ),
        (
            "accel queues",
            format!(
                "{} in / {} out",
                c.input_queue_entries, c.output_queue_entries
            ),
            "64 in / 64 out",
        ),
        (
            "queue entry inline",
            format!("{} B", c.queue_entry_inline_bytes),
            "2 KB",
        ),
        ("A-DMA engines", c.dma_engines.to_string(), "10"),
        ("PEs / accelerator", c.pes_per_accelerator.to_string(), "8"),
        (
            "scratchpad / PE",
            format!("{} KB", c.scratchpad_bytes / 1024),
            "64 KB",
        ),
        (
            "queue->scratchpad",
            format!(
                "{} + {:.0} GB/s",
                c.queue_to_scratchpad_latency,
                c.queue_to_scratchpad_bw / 1e9
            ),
            "10 ns, 100 GB/s",
        ),
        (
            "notification",
            format!("{} cycles", c.notification_cycles),
            "avg 80 cycles",
        ),
        (
            "intra-chiplet mesh",
            format!(
                "{} cycles/hop, {} B links",
                c.mesh_hop_cycles, c.mesh_link_bytes
            ),
            "3 cycles/hop, 16B",
        ),
        (
            "inter-chiplet",
            format!("{} cycles", c.inter_chiplet_cycles),
            "60 cycles",
        ),
        (
            "memory BW",
            format!("{:.1} GB/s", c.memory_bw / 1e9),
            "4 x 102.4 GB/s",
        ),
        (
            "accel TLB",
            format!("{} entries, {}-way", c.accel_tlb_entries, c.accel_tlb_ways),
            "2048, 8-way (L2/IOTLB)",
        ),
    ];
    for (k, v, p) in rows {
        t.row(&[k.to_string(), v, p.to_string()]);
    }
    t.print();
}

/// Table IV: most-common execution path per service and the number of
/// accelerators used per service invocation.
pub(crate) fn table04_paths(_: Scale) {
    let lib = TraceLibrary::standard();
    let paper = [87usize, 28, 18, 30, 29, 19, 9, 25];
    let mut t = Table::new(
        "Table IV: execution paths and accelerator counts",
        &["service", "path", "# accels (measured avg)", "# (paper)"],
    );
    let mut rng = SimRng::seed(1);
    for (svc, paper_n) in socialnetwork::all().iter().zip(paper) {
        let n = 400;
        let total: usize = (0..n)
            .map(|i| {
                svc.sample(&lib, &mut rng, (i as u64) << 32)
                    .accelerator_invocations()
            })
            .sum();
        t.row(&[
            svc.name.clone(),
            svc.path_string(&lib),
            format!("{:.1}", total as f64 / n as f64),
            paper_n.to_string(),
        ]);
    }
    t.print();
}

/// Fig 1: execution-time breakdown of SocialNetwork service
/// invocations on the Non-acc server (CPU-equivalent attribution per
/// tax category), with absolute unloaded execution times.
pub(crate) fn fig01_breakdown(mut scale: Scale) {
    let services = socialnetwork::all();
    scale.rps = 400.0; // unloaded: Fig 1 measures service composition
    let report = harness::run_poisson(Policy::NonAcc, &services, scale.rps, scale);

    let cat = |shares: &[f64; 9], a: AccelKind, b: Option<AccelKind>| {
        shares[a.id() as usize] + b.map(|k| shares[k.id() as usize]).unwrap_or(0.0)
    };

    let mut table = Table::new(
        "Fig 1: Non-acc execution-time breakdown",
        &[
            "service",
            "exec (us)",
            "TCP",
            "(De)Encr",
            "RPC",
            "(De)Ser",
            "(De)Cmp",
            "LdB",
            "AppLogic",
        ],
    );
    let mut avg = [0.0f64; 7];
    for s in &report.per_service {
        let (shares, app) = s.fig1_shares();
        use AccelKind::*;
        let row = [
            cat(&shares, Tcp, None),
            cat(&shares, Encr, Some(Decr)),
            cat(&shares, Rpc, None),
            cat(&shares, Ser, Some(Dser)),
            cat(&shares, Cmp, Some(Dcmp)),
            cat(&shares, Ldb, None),
            app,
        ];
        for (a, r) in avg.iter_mut().zip(row) {
            *a += r / report.per_service.len() as f64;
        }
        table.row(&[
            s.name.clone(),
            format!("{:.0}", s.mean().as_micros_f64()),
            pct(row[0]),
            pct(row[1]),
            pct(row[2]),
            pct(row[3]),
            pct(row[4]),
            pct(row[5]),
            pct(row[6]),
        ]);
    }
    table.row(&[
        "AVERAGE".into(),
        String::new(),
        pct(avg[0]),
        pct(avg[1]),
        pct(avg[2]),
        pct(avg[3]),
        pct(avg[4]),
        pct(avg[5]),
        pct(avg[6]),
    ]);
    table.row(&[
        "paper avg".into(),
        String::new(),
        pct(paper::FIG1_SHARES[0].1),
        pct(paper::FIG1_SHARES[1].1),
        pct(paper::FIG1_SHARES[2].1),
        pct(paper::FIG1_SHARES[3].1),
        pct(paper::FIG1_SHARES[4].1),
        pct(paper::FIG1_SHARES[5].1),
        pct(paper::FIG1_SHARES[6].1),
    ]);
    table.print();
}

/// Figures 2, 4, and 7: the trace shapes, rendered as flow diagrams
/// (the paper draws boxes and arrows; we render indented ASCII).
pub(crate) fn fig02_traces(_: Scale) {
    let lib = TraceLibrary::standard();
    println!(
        "Fig 2a / T2 (send function response):\n{}",
        render(lib.entry(TemplateId::T2))
    );
    println!(
        "Fig 2b / T4 (send read request to DB cache):\n{}",
        render(lib.entry(TemplateId::T4))
    );
    println!(
        "Fig 4a / T1 (receive function request):\n{}",
        render(lib.entry(TemplateId::T1))
    );
    println!(
        "Fig 7 / T5 (receive DB-cache read response):\n{}",
        render(lib.entry(TemplateId::T5))
    );
    println!(
        "Fig 7 / T6 (receive DB read response):\n{}",
        render(lib.entry(TemplateId::T6))
    );
    println!(
        "Fig 7 / T7 (receive write response):\n{}",
        render(lib.entry(TemplateId::T7))
    );
    println!(
        "Fig 7 / T10 (receive RPC response):\n{}",
        render(lib.entry(TemplateId::T10))
    );
    println!(
        "Split error subtrace (§IV-B):\n{}",
        render(
            lib.atm()
                .peek(lib.error_addr())
                .expect("error trace resident")
        )
    );
}

/// Fig 3: orchestration overhead as a fraction of service execution
/// time, for CPU-Centric, HW-Manager (RELIEF), and Direct, as the
/// processor load sweeps from 1 to 15 kRPS.
pub(crate) fn fig03_overhead(mut scale: Scale) {
    let services = socialnetwork::all();
    // The paper sweeps the load of the whole 36-core processor.
    let machine_loads = [1_000.0, 5_000.0, 10_000.0, 15_000.0, 60_000.0, 107_000.0];
    let policies = [Policy::CpuCentric, Policy::Relief, Policy::Direct];

    let mut t = Table::new(
        "Fig 3: orchestration overhead vs machine load (fraction of total service execution time)",
        &["machine kRPS", "CPU-Centric", "HW-Manager", "Direct"],
    );
    for total in machine_loads {
        let rps = total / services.len() as f64;
        scale.rps = rps;
        let mut row = vec![format!("{:.0}", total / 1000.0)];
        for p in policies {
            let r = harness::run_poisson(p, &services, rps, scale);
            // Fig 3 divides by the *total* execution time of the
            // service (including nested waits).
            let total_latency: f64 = r
                .per_service
                .iter()
                .map(|s| s.mean().as_secs_f64() * s.completed as f64)
                .sum();
            let frac = r.total_breakdown().orchestration.as_secs_f64() / total_latency.max(1e-12);
            row.push(pct(frac));
        }
        t.row(&row);
    }
    t.print();
    println!(
        "paper at 15 kRPS: CPU-Centric {} / HW-Manager {} (Direct small and flat)",
        pct(paper::FIG3_CPU_CENTRIC_AT_15K),
        pct(paper::FIG3_HW_MANAGER_AT_15K),
    );
}

/// Fig 5: minimum / median / maximum input and output data sizes per
/// accelerator, measured over sampled service programs.
pub(crate) fn fig05_datasizes(_: Scale) {
    let lib = TraceLibrary::standard();
    let mut rng = SimRng::seed(17);
    let mut ins: Vec<Vec<u64>> = vec![Vec::new(); AccelKind::COUNT];
    let mut outs: Vec<Vec<u64>> = vec![Vec::new(); AccelKind::COUNT];
    for svc in socialnetwork::all() {
        for i in 0..800u64 {
            let p = svc.sample(&lib, &mut rng, i << 36);
            for hop in p.hops() {
                ins[hop.kind.id() as usize].push(hop.in_bytes);
                outs[hop.kind.id() as usize].push(hop.out_bytes);
            }
        }
    }
    let stats = |v: &mut Vec<u64>| {
        v.sort_unstable();
        if v.is_empty() {
            (0, 0, 0)
        } else {
            (v[0], v[v.len() / 2], v[v.len() - 1])
        }
    };
    let mut t = Table::new(
        "Fig 5: per-accelerator data sizes (bytes) -- LdB carries no processed payload",
        &[
            "accelerator",
            "in min",
            "in med",
            "in max",
            "out min",
            "out med",
            "out max",
        ],
    );
    for kind in AccelKind::ALL {
        if kind == AccelKind::Ldb {
            continue; // Fig 5 has no LdB bar
        }
        let (imin, imed, imax) = stats(&mut ins[kind.id() as usize]);
        let (omin, omed, omax) = stats(&mut outs[kind.id() as usize]);
        t.row(&[
            kind.to_string(),
            imin.to_string(),
            imed.to_string(),
            imax.to_string(),
            omin.to_string(),
            omed.to_string(),
            omax.to_string(),
        ]);
    }
    t.print();
    println!("paper: median sizes are a few KB with long tails to tens of KB (as also observed by Google).");
}

fn branch_stats(services: &[ServiceSpec]) -> (f64, usize) {
    let lib = TraceLibrary::standard();
    let mut rng = SimRng::seed(1212);
    // A "sequence" is one trace call: the accelerators that run with
    // no intervening CPU involvement (chained response traces included,
    // since the TCP dispatcher arms them from the ATM).
    let (mut with, mut total, mut max_branches) = (0usize, 0usize, 0usize);
    for svc in services {
        for i in 0..400u64 {
            let p = svc.sample(&lib, &mut rng, i << 36);
            for c in p.calls() {
                total += 1;
                let branches: usize = c
                    .segments()
                    .flat_map(|seg| seg.hops())
                    .map(|h| h.branches_after as usize)
                    .sum();
                if branches > 0 {
                    with += 1;
                }
                max_branches = max_branches.max(branches);
            }
        }
    }
    (with as f64 / total as f64, max_branches)
}

/// §III Q2: the fraction of accelerator sequences containing at least
/// one conditional, per benchmark suite (paper: SocialNet 69.2%,
/// HotelReservation 62.5%, MediaServices 82.5%, TrainTicket 53.8%).
pub(crate) fn q2_branches(_: Scale) {
    let suites: Vec<(&str, Vec<ServiceSpec>, f64)> = vec![
        (
            "SocialNet",
            socialnetwork::all(),
            paper::BRANCHY_SEQUENCES[0].1,
        ),
        (
            "HotelReservation",
            suites::hotel_reservation(),
            paper::BRANCHY_SEQUENCES[1].1,
        ),
        (
            "MediaServices",
            suites::media_services(),
            paper::BRANCHY_SEQUENCES[2].1,
        ),
        (
            "TrainTicket",
            trainticket::all(),
            paper::BRANCHY_SEQUENCES[3].1,
        ),
        ("uSuite", musuite::all(), f64::NAN),
    ];
    let mut t = Table::new(
        "§III Q2: sequences with >=1 conditional",
        &["suite", "measured", "paper", "max branches/seq"],
    );
    for (name, services, paper_frac) in suites {
        let (frac, maxb) = branch_stats(&services);
        t.row(&[
            name.to_string(),
            pct(frac),
            if paper_frac.is_nan() {
                "-".into()
            } else {
                pct(paper_frac)
            },
            maxb.to_string(),
        ]);
    }
    t.print();
    println!("paper: \"Some sequences have up to four\" conditionals.");
}

/// §VI: area overhead of AccelFlow — the McPAT-derived accounting.
pub(crate) fn stats_area(_: Scale) {
    let r = area_report(&ArchConfig::icelake());
    let mut t = Table::new(
        "§VI: SoC area accounting (mm², 7nm-scaled)",
        &["component", "mm^2", "paper"],
    );
    t.row(&[
        "cores + private caches".into(),
        format!("{:.1}", r.cores.0),
        "83.1".into(),
    ]);
    t.row(&["LLC".into(), format!("{:.1}", r.llc.0), "38.2".into()]);
    t.row(&[
        "core network".into(),
        format!("{:.1}", r.core_network.0),
        "1.0".into(),
    ]);
    t.row(&[
        "nine accelerators (8 PEs each)".into(),
        format!("{:.1}", r.accelerators.0),
        "44.9".into(),
    ]);
    t.row(&[
        "queues + dispatchers".into(),
        format!("{:.1}", r.queues_dispatchers.0),
        "3.4".into(),
    ]);
    t.row(&[
        "10 A-DMA engines".into(),
        format!("{:.1}", r.dma_engines.0),
        "1.3".into(),
    ]);
    t.row(&[
        "accelerator network".into(),
        format!("{:.1}", r.accel_network.0),
        "0.4".into(),
    ]);
    t.row(&["TOTAL".into(), format!("{:.1}", r.total().0), "~173".into()]);
    t.print();

    let mut t = Table::new("§VI shares", &["metric", "measured", "paper"]);
    t.row(&[
        "ensemble share of SoC".into(),
        pct(r.ensemble_share()),
        "29.0%".into(),
    ]);
    t.row(&[
        "accelerators share".into(),
        pct(r.accelerator_share()),
        "26.1%".into(),
    ]);
    t.row(&[
        "AccelFlow orchestration overhead".into(),
        pct(r.orchestration_share()),
        "<=2.9%".into(),
    ]);
    t.print();
}

/// §VII-B2: glue-instruction accounting — average instructions per
/// output-dispatcher operation, ATM reads, and the cost taxonomy.
pub(crate) fn stats_glue(scale: Scale) {
    let services = socialnetwork::all();
    let r = harness::run_poisson(Policy::AccelFlow, &services, scale.rps, scale);
    let mut t = Table::new(
        "§VII-B2: dispatcher glue instructions",
        &["metric", "measured", "paper"],
    );
    t.row(&[
        "avg instructions / dispatch".into(),
        format!("{:.1}", r.totals.mean_glue_instructions()),
        format!("{:.0}", paper::GLUE_AVG_INSTRUCTIONS),
    ]);
    t.row(&[
        "dispatches".into(),
        r.totals.dispatches.to_string(),
        String::new(),
    ]);
    t.row(&[
        "ATM reads".into(),
        r.totals.atm_reads.to_string(),
        String::new(),
    ]);
    t.row(&["plain hop".into(), "15 instrs".into(), "~15".into()]);
    t.row(&[
        "branch".into(),
        "+7 (named) / +9 (custom)".into(),
        "+7".into(),
    ]);
    t.row(&[
        "end of trace".into(),
        "14 (chain) / 18 (to CPU)".into(),
        "12-20".into(),
    ]);
    t.row(&["transform (2KB)".into(), "+12".into(), "+12".into()]);
    t.print();
}
