//! Train-Ticket-like services (paper §III runs "over 80 open-source
//! services from DeathStarBench, Train Ticket, and µSuite").
//!
//! Train Ticket is a Java microservice benchmark: heavier
//! application logic per stage (JVM), deep synchronous call chains
//! (order → seat → price → payment), and comparatively *fewer*
//! branchy tax sequences — the paper's §III Q2 reports 53.8% of its
//! sequences carry a conditional, the lowest of the four suites. We
//! shape these services accordingly: larger app-logic budgets, chains
//! of sequential RPC calls, and low compressed-payload probabilities.

use accelflow_core::request::{CallSpec, CyclesDist, FlagProbs, ServiceSpec, SizeDist, StageSpec};
use accelflow_trace::builder::TraceBuilder;
use accelflow_trace::kind::AccelKind::{Encr, Ser, Tcp};
use accelflow_trace::templates::TemplateId;

fn app(median_cycles: f64) -> StageSpec {
    StageSpec::Cpu(CyclesDist::new(median_cycles, 0.4))
}

/// Low-branch flags: mostly uncompressed payloads and warm caches, so
/// many sequences resolve with no conditional work.
fn tt_flags() -> FlagProbs {
    FlagProbs {
        compressed: 0.12,
        hit: 0.9,
        found: 0.99,
        exception: 0.008,
        cache_compressed: 0.1,
    }
}

fn call(template: TemplateId) -> CallSpec {
    CallSpec::new(template)
        .with_flags(tt_flags())
        .with_payload(SizeDist::new(1_700.0, 0.6, 24 * 1024))
}

/// A fire-and-forget audit/log message (Train Ticket logs every
/// operation to its tracing stack): serialize, encrypt, send — no
/// response trace, no branches.
fn async_log() -> CallSpec {
    let trace = TraceBuilder::new("audit_log")
        .seq([Ser, Encr, Tcp])
        .to_cpu()
        .build();
    let mut spec = CallSpec::custom(trace);
    spec.payload = SizeDist::new(700.0, 0.5, 8 * 1024);
    spec
}

/// Query available trains: route + price lookups.
pub fn query_trip() -> ServiceSpec {
    ServiceSpec::new(
        "QueryTrip",
        vec![
            StageSpec::Call(call(TemplateId::T1)),
            app(140_000.0),
            StageSpec::Call(call(TemplateId::T9)), // route service
            app(80_000.0),
            StageSpec::Call(call(TemplateId::T9)), // price service
            app(60_000.0),
            StageSpec::Call(async_log()),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// Book a ticket: seat allocation, order write, payment RPC.
pub fn book_ticket() -> ServiceSpec {
    ServiceSpec::new(
        "BookTicket",
        vec![
            StageSpec::Call(call(TemplateId::T1)),
            app(160_000.0),
            StageSpec::Call(call(TemplateId::T4)), // seat-map read
            app(90_000.0),
            StageSpec::Call(call(TemplateId::T8)), // order write
            app(70_000.0),
            StageSpec::Call(call(TemplateId::T9)), // payment service
            app(50_000.0),
            StageSpec::Call(async_log()),
            StageSpec::Call(async_log()),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// Check an order's status: one cached read.
pub fn order_status() -> ServiceSpec {
    ServiceSpec::new(
        "OrderStatus",
        vec![
            StageSpec::Call(call(TemplateId::T1)),
            app(70_000.0),
            StageSpec::Call(call(TemplateId::T4)),
            app(35_000.0),
            StageSpec::Call(async_log()),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// Cancel an order: order write plus refund RPC.
pub fn cancel_order() -> ServiceSpec {
    ServiceSpec::new(
        "CancelOrder",
        vec![
            StageSpec::Call(call(TemplateId::T1)),
            app(110_000.0),
            StageSpec::Call(call(TemplateId::T8)),
            app(60_000.0),
            StageSpec::Call(call(TemplateId::T9)),
            app(40_000.0),
            StageSpec::Call(async_log()),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// The Train-Ticket-like mix.
pub fn all() -> Vec<ServiceSpec> {
    vec![query_trip(), book_ticket(), order_status(), cancel_order()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_sim::rng::SimRng;
    use accelflow_trace::templates::TraceLibrary;

    fn branch_fraction(services: &[ServiceSpec]) -> f64 {
        let lib = TraceLibrary::standard();
        let mut rng = SimRng::seed(21);
        let (mut with, mut total) = (0usize, 0usize);
        for svc in services {
            for i in 0..120u64 {
                let p = svc.sample(&lib, &mut rng, i << 36);
                for c in p.calls() {
                    for seg in c.segments() {
                        total += 1;
                        if seg.hops().any(|h| h.branches_after > 0) {
                            with += 1;
                        }
                    }
                }
            }
        }
        with as f64 / total as f64
    }

    #[test]
    fn four_services() {
        assert_eq!(all().len(), 4);
        for s in all() {
            assert!(s.stages.len() >= 3, "{}", s.name);
        }
    }

    #[test]
    fn least_branchy_of_the_suites() {
        // §III Q2: TrainTicket 53.8% < SocialNet 69.2% < Media 82.5%.
        let tt = branch_fraction(&all());
        let social = branch_fraction(&crate::socialnetwork::all());
        let media = branch_fraction(&crate::suites::media_services());
        assert!(tt < social, "TrainTicket {tt:.3} vs SocialNet {social:.3}");
        assert!(tt < media, "TrainTicket {tt:.3} vs Media {media:.3}");
        assert!(tt > 0.2, "still a substantial branchy fraction: {tt:.3}");
    }

    #[test]
    fn app_logic_is_heavier_than_socialnetwork() {
        let lib = TraceLibrary::standard();
        let avg_app = |services: &[ServiceSpec]| {
            let mut rng = SimRng::seed(8);
            let mut total = 0.0;
            let mut n = 0usize;
            for svc in services {
                for i in 0..60u64 {
                    total += svc.sample(&lib, &mut rng, i << 36).app_cycles();
                    n += 1;
                }
            }
            total / n as f64
        };
        assert!(avg_app(&all()) > avg_app(&crate::socialnetwork::all()));
    }
}
