//! HotelReservation-like and MediaServices-like service mixes
//! (DeathStarBench), used by the Fig 12 load sweep and the §III Q2
//! branch statistics.
//!
//! These suites reuse the T1–T12 template library with paths and
//! parameters shaped after the respective applications: Hotel is
//! search/geo/rate/reserve (cache-heavy reads, small payloads); Media
//! is review/plot/rent (larger payloads, more compression).

use accelflow_core::request::{CallSpec, CyclesDist, FlagProbs, ServiceSpec, SizeDist, StageSpec};
use accelflow_trace::templates::TemplateId;

fn app(median_cycles: f64) -> StageSpec {
    StageSpec::Cpu(CyclesDist::new(median_cycles, 0.35))
}

/// HotelReservation-like services.
pub fn hotel_reservation() -> Vec<ServiceSpec> {
    let read_flags = FlagProbs {
        compressed: 0.2,
        hit: 0.9,
        found: 0.98,
        exception: 0.01,
        cache_compressed: 0.2,
    };
    vec![
        ServiceSpec::new(
            "Search",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                app(70_000.0),
                StageSpec::Parallel(vec![
                    CallSpec::new(TemplateId::T9).with_cmp_prob(0.2),
                    CallSpec::new(TemplateId::T9).with_cmp_prob(0.2),
                ]),
                app(40_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T3)),
            ],
        ),
        ServiceSpec::new(
            "Geo",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1).with_payload(SizeDist::new(
                    900.0,
                    0.5,
                    8 * 1024,
                ))),
                app(30_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T4).with_flags(read_flags)),
                app(15_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        ),
        ServiceSpec::new(
            "Rate",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                app(35_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T4).with_flags(read_flags)),
                app(20_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        ),
        ServiceSpec::new(
            "Reserve",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                app(50_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T8).with_cmp_prob(0.3)),
                app(25_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T9)),
                app(15_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        ),
    ]
}

/// MediaServices-like services.
pub fn media_services() -> Vec<ServiceSpec> {
    let big = SizeDist::new(6_000.0, 0.9, 128 * 1024);
    let cmp_heavy = FlagProbs {
        compressed: 0.7,
        hit: 0.8,
        found: 0.97,
        exception: 0.01,
        cache_compressed: 0.4,
    };
    vec![
        ServiceSpec::new(
            "ComposeReview",
            vec![
                StageSpec::Call(
                    CallSpec::new(TemplateId::T1)
                        .with_payload(big)
                        .with_flags(cmp_heavy),
                ),
                app(90_000.0),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9).with_cmp_prob(0.6); 3]),
                app(50_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T3).with_payload(big)),
            ],
        ),
        ServiceSpec::new(
            "ReadPlot",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                app(40_000.0),
                StageSpec::Call(
                    CallSpec::new(TemplateId::T4)
                        .with_flags(cmp_heavy)
                        .with_payload(big),
                ),
                app(20_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T3).with_payload(big)),
            ],
        ),
        ServiceSpec::new(
            "RentMovie",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                app(60_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T11).with_cmp_prob(0.4)),
                app(30_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T8).with_cmp_prob(0.5)),
                app(20_000.0),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        ),
    ]
}

/// The full DeathStarBench-like mix used by the Fig 12 load sweep.
pub fn deathstarbench() -> Vec<ServiceSpec> {
    let mut all = crate::socialnetwork::all();
    all.extend(hotel_reservation());
    all.extend(media_services());
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_sim::rng::SimRng;
    use accelflow_trace::templates::TraceLibrary;

    #[test]
    fn suites_are_well_formed() {
        assert_eq!(hotel_reservation().len(), 4);
        assert_eq!(media_services().len(), 3);
        assert_eq!(deathstarbench().len(), 15);
        for svc in deathstarbench() {
            assert!(!svc.stages.is_empty(), "{}", svc.name);
        }
    }

    #[test]
    fn media_uses_bigger_payloads_than_hotel() {
        let lib = TraceLibrary::standard();
        // Compare the entry payloads of each call (compression inside
        // a trace deliberately shrinks mid-trace hops).
        let avg_entry_bytes = |services: Vec<ServiceSpec>| {
            let mut rng = SimRng::seed(3);
            let mut total = 0u64;
            let mut calls = 0u64;
            for round in 0..20u64 {
                for (i, svc) in services.iter().enumerate() {
                    let p = svc.sample(&lib, &mut rng, (round * 64 + i as u64) << 40);
                    for call in p.calls() {
                        total += call.segment(0).entry_bytes();
                        calls += 1;
                    }
                }
            }
            total as f64 / calls as f64
        };
        let hotel = avg_entry_bytes(hotel_reservation());
        let media = avg_entry_bytes(media_services());
        assert!(media > hotel * 1.3, "media {media} vs hotel {hotel}");
    }

    #[test]
    fn branch_fractions_match_q2_ordering() {
        // §III Q2: Hotel 62.5%, Media 82.5% of sequences have ≥1
        // conditional — Media must be branchier than Hotel.
        let lib = TraceLibrary::standard();
        let frac = |services: Vec<ServiceSpec>| {
            let mut rng = SimRng::seed(11);
            let (mut with, mut total) = (0usize, 0usize);
            for svc in &services {
                for i in 0..80 {
                    let p = svc.sample(&lib, &mut rng, (i as u64) << 36);
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
            with as f64 / total as f64
        };
        let hotel = frac(hotel_reservation());
        let media = frac(media_services());
        assert!(hotel > 0.3, "hotel branch fraction {hotel}");
        assert!(media > 0.3, "media branch fraction {media}");
    }
}
