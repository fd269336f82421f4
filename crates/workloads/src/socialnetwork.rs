//! The eight SocialNetwork services (DeathStarBench), modeled after
//! their Table IV execution paths and calibrated to Fig 1.
//!
//! | Service | Most common path | # accels |
//! |---|---|---|
//! | CPost  | T1-CPU-4x(T9-T10)-CPU-3x(T9-T10)-CPU-T2 | 87 |
//! | ReadH  | T1-CPU-T4-T5-CPU-T9-T10-CPU-T3 | 28 |
//! | StoreP | T1-CPU-T8-T7-CPU-T2 | 18 |
//! | Follow | T1-CPU-3x(T8-T7)-CPU-T2 | 30 |
//! | Login  | T1-CPU-T4-T5-T6-T7-CPU-T2 | 29 |
//! | CUrls  | T1-CPU-T8-T7-CPU-T3 | 19 |
//! | UniqId | T1-CPU-T2 | 9 |
//! | RegUsr | T1-CPU-T8-T7-CPU-T9-T10-CPU-T2 | 25 |
//!
//! App-logic budgets and per-call payload/flag distributions are
//! synthesized (DESIGN.md §5) so the Non-acc breakdown matches Fig 1's
//! averages (AppLogic 20.7%, TCP 25.6%, (De)Encr 14.6%, RPC 3.2%,
//! (De)Ser 22.4%, (De)Cmp 9.5%, LdB 3.9%) and the relative service
//! lengths follow the paper (UniqId short and tax-dominated; CPost the
//! longest with 7 nested RPCs).

use accelflow_core::request::{CallSpec, CyclesDist, FlagProbs, ServiceSpec, SizeDist, StageSpec};
use accelflow_trace::templates::TemplateId;

fn flags(compressed: f64, hit: f64) -> FlagProbs {
    FlagProbs {
        compressed,
        hit,
        found: 0.97,
        exception: 0.01,
        cache_compressed: 0.25,
    }
}

fn app(median_cycles: f64) -> StageSpec {
    StageSpec::Cpu(CyclesDist::new(median_cycles, 0.35))
}

fn call(template: TemplateId) -> CallSpec {
    CallSpec::new(template).with_flags(flags(0.3, 0.85))
}

/// ComposePost: the fan-out heavy service (7 nested RPCs in two
/// waves).
pub fn compose_post() -> ServiceSpec {
    let rpc = || {
        call(TemplateId::T9)
            .with_cmp_prob(0.5)
            .with_payload(SizeDist::new(2600.0, 0.7, 48 * 1024))
    };
    ServiceSpec::new(
        "CPost",
        vec![
            StageSpec::Call(call(TemplateId::T1).with_payload(SizeDist::new(
                3000.0,
                0.7,
                48 * 1024,
            ))),
            app(110_000.0),
            StageSpec::Parallel(vec![rpc(); 4]),
            app(90_000.0),
            StageSpec::Parallel(vec![rpc(); 3]),
            app(70_000.0),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// ReadHomeTimeline: one cached read plus one nested RPC, compressed
/// response.
pub fn read_home_timeline() -> ServiceSpec {
    ServiceSpec::new(
        "ReadH",
        vec![
            StageSpec::Call(call(TemplateId::T1)),
            app(55_000.0),
            StageSpec::Call(call(TemplateId::T4).with_flags(flags(0.35, 0.95))),
            app(30_000.0),
            StageSpec::Call(call(TemplateId::T9).with_cmp_prob(0.3)),
            app(25_000.0),
            StageSpec::Call(call(TemplateId::T3).with_payload(SizeDist::new(
                4200.0,
                0.8,
                64 * 1024,
            ))),
        ],
    )
}

/// StorePost: one DB-cache write.
pub fn store_post() -> ServiceSpec {
    ServiceSpec::new(
        "StoreP",
        vec![
            StageSpec::Call(call(TemplateId::T1).with_flags(flags(0.5, 0.85))),
            app(45_000.0),
            StageSpec::Call(call(TemplateId::T8).with_cmp_prob(0.5)),
            app(22_000.0),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// Follow: three parallel writes (follower/followee/graph edges).
pub fn follow() -> ServiceSpec {
    ServiceSpec::new(
        "Follow",
        vec![
            StageSpec::Call(call(TemplateId::T1)),
            app(40_000.0),
            StageSpec::Parallel(vec![call(TemplateId::T8).with_cmp_prob(0.25); 3]),
            app(25_000.0),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// Login: cache miss forces the DB round trip plus a cache refill —
/// the branch-heavy service (paper: frequent dynamic control flow).
pub fn login() -> ServiceSpec {
    ServiceSpec::new(
        "Login",
        vec![
            StageSpec::Call(call(TemplateId::T1)),
            app(35_000.0),
            // Sessions are cold: the cache essentially never hits, so
            // the chain runs T4-T5(miss)-T6-T7.
            StageSpec::Call(call(TemplateId::T4).with_flags(FlagProbs {
                compressed: 0.3,
                hit: 0.05,
                found: 0.995,
                exception: 0.005,
                cache_compressed: 0.3,
            })),
            app(30_000.0),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// ComposeUrls: shorten-and-store.
pub fn compose_urls() -> ServiceSpec {
    ServiceSpec::new(
        "CUrls",
        vec![
            StageSpec::Call(call(TemplateId::T1).with_payload(SizeDist::new(
                1200.0,
                0.6,
                16 * 1024,
            ))),
            app(38_000.0),
            StageSpec::Call(call(TemplateId::T8).with_cmp_prob(0.4)),
            app(18_000.0),
            StageSpec::Call(call(TemplateId::T3)),
        ],
    )
}

/// UniqueId: the shortest service — pure tax (paper: "the relative
/// weight of tax increases for microservices with short execution
/// times (e.g., UniqId)").
pub fn uniq_id() -> ServiceSpec {
    ServiceSpec::new(
        "UniqId",
        vec![
            StageSpec::Call(
                call(TemplateId::T1)
                    .with_flags(flags(0.05, 0.85))
                    .with_payload(SizeDist::new(600.0, 0.5, 8 * 1024)),
            ),
            app(9_000.0),
            StageSpec::Call(call(TemplateId::T2).with_payload(SizeDist::new(500.0, 0.5, 8 * 1024))),
        ],
    )
}

/// RegisterUser: a write plus a notification RPC.
pub fn register_user() -> ServiceSpec {
    ServiceSpec::new(
        "RegUsr",
        vec![
            StageSpec::Call(call(TemplateId::T1)),
            app(50_000.0),
            StageSpec::Call(call(TemplateId::T8).with_cmp_prob(0.3)),
            app(28_000.0),
            StageSpec::Call(call(TemplateId::T9).with_cmp_prob(0.3)),
            app(20_000.0),
            StageSpec::Call(call(TemplateId::T2)),
        ],
    )
}

/// All eight services, in the paper's order.
pub fn all() -> Vec<ServiceSpec> {
    vec![
        compose_post(),
        read_home_timeline(),
        store_post(),
        follow(),
        login(),
        compose_urls(),
        uniq_id(),
        register_user(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_sim::rng::SimRng;
    use accelflow_trace::templates::TraceLibrary;

    fn mean_invocations(svc: &ServiceSpec, n: usize) -> f64 {
        let lib = TraceLibrary::standard();
        let mut rng = SimRng::seed(1234);
        let total: usize = (0..n)
            .map(|i| {
                svc.sample(&lib, &mut rng, (i as u64) << 32)
                    .accelerator_invocations()
            })
            .sum();
        total as f64 / n as f64
    }

    #[test]
    fn eight_services_with_unique_names() {
        let services = all();
        assert_eq!(services.len(), 8);
        let mut names: Vec<&str> = services.iter().map(|s| s.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn invocation_counts_match_table_iv() {
        // Paper Table IV: # accelerators per service invocation.
        // Tolerance ±20% — the counts vary with branch outcomes.
        let expect = [
            (compose_post(), 87.0),
            (read_home_timeline(), 28.0),
            (store_post(), 18.0),
            (follow(), 30.0),
            (login(), 29.0),
            (compose_urls(), 19.0),
            (uniq_id(), 9.0),
            (register_user(), 25.0),
        ];
        for (svc, paper) in expect {
            let got = mean_invocations(&svc, 300);
            let err = (got - paper).abs() / paper;
            assert!(err < 0.20, "{}: paper {paper}, got {got:.1}", svc.name);
        }
    }

    #[test]
    fn paths_match_table_iv() {
        let lib = TraceLibrary::standard();
        assert_eq!(uniq_id().path_string(&lib), "T1-CPU-T2");
        assert_eq!(store_post().path_string(&lib), "T1-CPU-T8-T7-CPU-T2");
        assert_eq!(
            compose_post().path_string(&lib),
            "T1-CPU-4x(T9-T10)-CPU-3x(T9-T10)-CPU-T2"
        );
        assert_eq!(follow().path_string(&lib), "T1-CPU-3x(T8-T7)-CPU-T2");
        assert_eq!(
            register_user().path_string(&lib),
            "T1-CPU-T8-T7-CPU-T9-T10-CPU-T2"
        );
    }

    #[test]
    fn uniq_id_is_shortest_cpost_longest() {
        let uniq = mean_invocations(&uniq_id(), 100);
        let cpost = mean_invocations(&compose_post(), 100);
        for svc in all() {
            let n = mean_invocations(&svc, 100);
            assert!(n >= uniq * 0.95, "{} shorter than UniqId", svc.name);
            assert!(n <= cpost * 1.05, "{} longer than CPost", svc.name);
        }
    }

    #[test]
    fn most_sequences_have_branches() {
        // §III Q2: 69.2% of SocialNetwork accelerator sequences have at
        // least one conditional.
        let lib = TraceLibrary::standard();
        let mut rng = SimRng::seed(7);
        let mut with_branch = 0usize;
        let mut total = 0usize;
        for svc in all() {
            for i in 0..50 {
                let program = svc.sample(&lib, &mut rng, (i as u64) << 32);
                for call in program.calls() {
                    for seg in call.segments() {
                        total += 1;
                        if seg.hops().any(|h| h.branches_after > 0) {
                            with_branch += 1;
                        }
                    }
                }
            }
        }
        let frac = with_branch as f64 / total as f64;
        assert!((0.4..0.95).contains(&frac), "branch fraction {frac}");
    }
}
