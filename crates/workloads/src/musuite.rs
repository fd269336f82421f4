//! µSuite-like services (Sriraman & Wenisch, IISWC'18) — the third
//! suite the paper characterizes (§III).
//!
//! µSuite's benchmarks are mid-tier/leaf pairs with tiny leaf
//! operations: HDSearch (high-dimensional similarity search), Router
//! (replicated key-value routing), Set Algebra (set intersections over
//! posting lists), and Recommend (collaborative filtering). The killer
//! property is *extreme* fine-granularity: leaf work is tens of µs, so
//! datacenter tax dominates even more than in DeathStarBench, and the
//! mid-tier fans out to several leaves per query.

use accelflow_core::request::{CallSpec, CyclesDist, FlagProbs, ServiceSpec, SizeDist, StageSpec};
use accelflow_trace::templates::TemplateId;

fn app(median_cycles: f64) -> StageSpec {
    StageSpec::Cpu(CyclesDist::new(median_cycles, 0.3))
}

fn leaf_flags() -> FlagProbs {
    FlagProbs {
        compressed: 0.2,
        hit: 0.85,
        found: 0.99,
        exception: 0.005,
        cache_compressed: 0.15,
    }
}

fn rpc() -> CallSpec {
    CallSpec::new(TemplateId::T9)
        .with_flags(leaf_flags())
        .with_payload(SizeDist::new(900.0, 0.6, 12 * 1024))
}

/// HDSearch mid-tier: fan out a feature vector to leaves, merge.
pub fn hdsearch() -> ServiceSpec {
    ServiceSpec::new(
        "HDSearch",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1).with_flags(leaf_flags())),
            app(30_000.0),
            StageSpec::Parallel(vec![rpc(); 4]),
            app(25_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T2).with_flags(leaf_flags())),
        ],
    )
}

/// Router: route a get/set to replicas.
pub fn router() -> ServiceSpec {
    ServiceSpec::new(
        "Router",
        vec![
            StageSpec::Call(
                CallSpec::new(TemplateId::T1)
                    .with_flags(leaf_flags())
                    .with_payload(SizeDist::new(400.0, 0.5, 4 * 1024)),
            ),
            app(12_000.0),
            StageSpec::Parallel(vec![rpc(); 2]),
            app(8_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T2).with_flags(leaf_flags())),
        ],
    )
}

/// Set Algebra: intersect posting lists across shards.
pub fn set_algebra() -> ServiceSpec {
    ServiceSpec::new(
        "SetAlgebra",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1).with_flags(leaf_flags())),
            app(18_000.0),
            StageSpec::Parallel(vec![rpc(); 3]),
            app(22_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T2).with_flags(leaf_flags())),
        ],
    )
}

/// Recommend: user/item lookup plus a scoring pass.
pub fn recommend() -> ServiceSpec {
    ServiceSpec::new(
        "Recommend",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1).with_flags(leaf_flags())),
            app(20_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T4).with_flags(leaf_flags())),
            app(35_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T2).with_flags(leaf_flags())),
        ],
    )
}

/// The µSuite-like mix.
pub fn all() -> Vec<ServiceSpec> {
    vec![hdsearch(), router(), set_algebra(), recommend()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_accel::timing::ServiceTimeModel;
    use accelflow_sim::rng::SimRng;
    use accelflow_sim::time::Frequency;
    use accelflow_trace::templates::TraceLibrary;

    #[test]
    fn four_services_with_fanout() {
        let services = all();
        assert_eq!(services.len(), 4);
        let fanouts = services
            .iter()
            .filter(|s| {
                s.stages
                    .iter()
                    .any(|st| matches!(st, StageSpec::Parallel(_)))
            })
            .count();
        assert!(fanouts >= 3, "µSuite is fan-out heavy");
    }

    #[test]
    fn tax_dominates_even_more_than_socialnetwork() {
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
        let tax_share = |services: &[ServiceSpec]| {
            let mut rng = SimRng::seed(31);
            let (mut tax, mut app) = (0.0, 0.0);
            for svc in services {
                for i in 0..80u64 {
                    let p = svc.sample(&lib, &mut rng, i << 36);
                    app += p.app_cycles();
                    for hop in p.hops() {
                        tax += timing.cpu_cycles(hop.kind, hop.in_bytes);
                    }
                }
            }
            tax / (tax + app)
        };
        let mu = tax_share(&all());
        let social = tax_share(&crate::socialnetwork::all());
        assert!(mu > social, "µSuite tax {mu:.3} vs SocialNet {social:.3}");
        assert!(mu > 0.8, "leaf services are almost all tax: {mu:.3}");
    }

    #[test]
    fn router_is_the_smallest_service() {
        let lib = TraceLibrary::standard();
        let mut rng = SimRng::seed(2);
        let mut mean_hops = |svc: &ServiceSpec| {
            (0..50u64)
                .map(|i| {
                    svc.sample(&lib, &mut rng, i << 36)
                        .accelerator_invocations()
                })
                .sum::<usize>() as f64
                / 50.0
        };
        let router = mean_hops(&router());
        let hd = mean_hops(&hdsearch());
        assert!(router < hd, "router {router} vs hdsearch {hd}");
    }
}
