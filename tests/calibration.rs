//! Cross-crate calibration tests: the workload models must reproduce
//! the paper's characterization numbers (Fig 1, Table IV, §III Q2)
//! within tolerance.

use accelflow::core::{Machine, MachineConfig, Policy};
use accelflow::sim::SimDuration;
use accelflow::trace::kind::AccelKind;
use accelflow::workloads::socialnetwork;

/// Fig 1 averages: TCP 25.6%, (De)Encr 14.6%, RPC 3.2%, (De)Ser 22.4%,
/// (De)Cmp 9.5%, LdB 3.9%, AppLogic 20.7%.
#[test]
fn fig1_breakdown_matches_paper_within_tolerance() {
    let services = socialnetwork::all();
    let mut cfg = MachineConfig::new(Policy::NonAcc);
    cfg.warmup = SimDuration::from_millis(2);
    let report = Machine::run_workload(&cfg, &services, 250.0, SimDuration::from_millis(60), 42);

    let n = report.per_service.len() as f64;
    let mut avg = [0.0f64; 7];
    for s in &report.per_service {
        assert!(s.completed > 0, "{} completed nothing", s.name);
        let (shares, app) = s.fig1_shares();
        use AccelKind::*;
        let cat = [
            shares[Tcp.id() as usize],
            shares[Encr.id() as usize] + shares[Decr.id() as usize],
            shares[Rpc.id() as usize],
            shares[Ser.id() as usize] + shares[Dser.id() as usize],
            shares[Cmp.id() as usize] + shares[Dcmp.id() as usize],
            shares[Ldb.id() as usize],
            app,
        ];
        for (a, c) in avg.iter_mut().zip(cat) {
            *a += c / n;
        }
    }
    let paper = [0.256, 0.146, 0.032, 0.224, 0.095, 0.039, 0.207];
    let names = [
        "TCP", "(De)Encr", "RPC", "(De)Ser", "(De)Cmp", "LdB", "AppLogic",
    ];
    for ((got, want), name) in avg.iter().zip(paper).zip(names) {
        assert!(
            (got - want).abs() < 0.05,
            "{name}: measured {got:.3}, paper {want:.3}"
        );
    }
    // Tax dominates: the paper's core finding.
    assert!(avg[6] < 0.30, "app logic must be a minority share");
}

/// Table IV: accelerator invocations per service (±20%).
#[test]
fn table_iv_invocation_counts() {
    use accelflow::sim::rng::SimRng;
    use accelflow::trace::templates::TraceLibrary;

    let lib = TraceLibrary::standard();
    let mut rng = SimRng::seed(99);
    let paper = [
        ("CPost", 87.0),
        ("ReadH", 28.0),
        ("StoreP", 18.0),
        ("Follow", 30.0),
        ("Login", 29.0),
        ("CUrls", 19.0),
        ("UniqId", 9.0),
        ("RegUsr", 25.0),
    ];
    for (svc, (name, want)) in socialnetwork::all().iter().zip(paper) {
        assert_eq!(svc.name, name);
        let n = 200;
        let got: f64 = (0..n)
            .map(|i| {
                svc.sample(&lib, &mut rng, (i as u64) << 32)
                    .accelerator_invocations() as f64
            })
            .sum::<f64>()
            / n as f64;
        assert!(
            (got - want).abs() / want < 0.20,
            "{name}: measured {got:.1}, paper {want}"
        );
    }
}

/// §III Q2: a majority of accelerator sequences contain at least one
/// branch (the paper reports 69.2% for SocialNetwork).
#[test]
fn branchy_sequence_fraction() {
    use accelflow::sim::rng::SimRng;
    use accelflow::trace::templates::TraceLibrary;

    let lib = TraceLibrary::standard();
    let mut rng = SimRng::seed(5);
    let (mut with, mut total) = (0usize, 0usize);
    for svc in socialnetwork::all() {
        for i in 0..60u64 {
            let p = svc.sample(&lib, &mut rng, i << 36);
            for call in p.calls() {
                for seg in call.segments() {
                    total += 1;
                    if seg.hops().any(|h| h.branches_after > 0) {
                        with += 1;
                    }
                }
            }
        }
    }
    let frac = with as f64 / total as f64;
    assert!(
        (0.45..0.90).contains(&frac),
        "branchy fraction {frac:.3} (paper: 0.692)"
    );
}

/// The fine-grained premise: tax operations take single-digit to
/// tens of µs, and whole service invocations tens to hundreds of µs.
#[test]
fn operations_are_fine_grained() {
    let services = vec![socialnetwork::uniq_id(), socialnetwork::compose_post()];
    let mut cfg = MachineConfig::new(Policy::AccelFlow);
    cfg.warmup = SimDuration::from_millis(1);
    let report = Machine::run_workload(&cfg, &services, 150.0, SimDuration::from_millis(80), 13);
    let uniq = report.per_service[0].mean();
    let cpost = report.per_service[1].mean();
    assert!(uniq.as_micros_f64() < 120.0, "UniqId unloaded mean {uniq}");
    assert!(
        cpost.as_micros_f64() < 3_000.0,
        "CPost unloaded mean {cpost}"
    );
    assert!(cpost > uniq * 4, "CPost must dwarf UniqId");
}
