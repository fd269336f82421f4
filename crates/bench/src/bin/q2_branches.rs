//! §III Q2: the fraction of accelerator sequences containing at least
//! one conditional, per benchmark suite (paper: SocialNet 69.2%,
//! HotelReservation 62.5%, MediaServices 82.5%, TrainTicket 53.8%).

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_bench::paper;
use accelflow_bench::table::{pct, Table};
use accelflow_core::request::ServiceSpec;
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::Frequency;
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::{musuite, socialnetwork, suites, trainticket};

fn branch_stats(services: &[ServiceSpec]) -> (f64, usize) {
    let lib = TraceLibrary::standard();
    let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
    let mut rng = SimRng::seed(1212);
    // A "sequence" is one trace call: the accelerators that run with
    // no intervening CPU involvement (chained response traces included,
    // since the TCP dispatcher arms them from the ATM).
    let (mut with, mut total, mut max_branches) = (0usize, 0usize, 0usize);
    for svc in services {
        for i in 0..400u64 {
            let p = svc.sample(&lib, &timing, &mut rng, i << 36);
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

fn main() {
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
