//! FunctionBench-like serverless functions (paper §VII-A5, Fig 16).
//!
//! Serverless functions share the properties that make AccelFlow
//! effective: short executions, bursty invocations (Azure traces), and
//! heavy datacenter tax (each invocation enters and leaves through the
//! full TCP/TLS/RPC/serialization stack, often with compressed
//! payloads). We model representative FunctionBench workloads: image
//! rotation, ML model serving, video processing, and document
//! conversion — app-logic-heavy bodies between the ingress (T1) and
//! egress (T2/T3) tax traces, with storage fetches (T11-T12) for the
//! media functions.

use accelflow_core::request::{CallSpec, CyclesDist, FlagProbs, ServiceSpec, SizeDist, StageSpec};
use accelflow_trace::templates::TemplateId;

fn app(median_cycles: f64) -> StageSpec {
    StageSpec::Cpu(CyclesDist::new(median_cycles, 0.5))
}

fn media_flags() -> FlagProbs {
    FlagProbs {
        compressed: 0.8,
        hit: 0.7,
        found: 0.98,
        exception: 0.01,
        cache_compressed: 0.3,
    }
}

/// Image rotation: the short function the paper calls out ("AccelFlow
/// substantially reduces the tail latency ... particularly for
/// short-running functions such as ImgRot").
pub fn img_rot() -> ServiceSpec {
    ServiceSpec::new(
        "ImgRot",
        vec![
            StageSpec::Call(
                CallSpec::new(TemplateId::T1)
                    .with_flags(media_flags())
                    .with_payload(SizeDist::new(8_000.0, 0.8, 256 * 1024)),
            ),
            app(60_000.0), // the rotate kernel itself is tiny
            StageSpec::Call(CallSpec::new(TemplateId::T3).with_payload(SizeDist::new(
                8_000.0,
                0.8,
                256 * 1024,
            ))),
        ],
    )
}

/// ML model serving: fetch features, run inference, respond.
pub fn ml_serve() -> ServiceSpec {
    ServiceSpec::new(
        "MLServe",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            app(120_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T4)),
            app(700_000.0), // inference
            StageSpec::Call(CallSpec::new(TemplateId::T2)),
        ],
    )
}

/// Video processing: fetch a chunk over HTTP, transcode, store.
pub fn vid_proc() -> ServiceSpec {
    ServiceSpec::new(
        "VidProc",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1).with_flags(media_flags())),
            app(150_000.0),
            StageSpec::Call(
                CallSpec::new(TemplateId::T11)
                    .with_cmp_prob(0.5)
                    .with_payload(SizeDist::new(24_000.0, 0.9, 512 * 1024)),
            ),
            app(1_500_000.0), // transcode
            StageSpec::Call(CallSpec::new(TemplateId::T8).with_cmp_prob(0.8)),
            app(80_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T2)),
        ],
    )
}

/// Document conversion (e.g. markdown→PDF): fetch, convert, compress,
/// respond.
pub fn doc_conv() -> ServiceSpec {
    ServiceSpec::new(
        "DocConv",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            app(90_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T11).with_payload(SizeDist::new(
                12_000.0,
                0.8,
                256 * 1024,
            ))),
            app(500_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T3).with_payload(SizeDist::new(
                16_000.0,
                0.8,
                256 * 1024,
            ))),
        ],
    )
}

/// A JSON-heavy API aggregator (fan-out to two backends).
pub fn api_agg() -> ServiceSpec {
    ServiceSpec::new(
        "ApiAgg",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            app(50_000.0),
            StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 2]),
            app(40_000.0),
            StageSpec::Call(CallSpec::new(TemplateId::T2)),
        ],
    )
}

/// The Fig 16 function set.
pub fn all() -> Vec<ServiceSpec> {
    vec![img_rot(), ml_serve(), vid_proc(), doc_conv(), api_agg()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_accel::timing::ServiceTimeModel;
    use accelflow_sim::rng::SimRng;
    use accelflow_sim::time::Frequency;
    use accelflow_trace::templates::TraceLibrary;

    #[test]
    fn five_functions() {
        let fns = all();
        assert_eq!(fns.len(), 5);
        let mut names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn img_rot_is_the_shortest_function() {
        let lib = TraceLibrary::standard();
        let mut rng = SimRng::seed(2);
        let mut app_cycles = |svc: &ServiceSpec| {
            let mut total = 0.0;
            for i in 0..50u64 {
                total += svc.sample(&lib, &mut rng, i << 36).app_cycles();
            }
            total / 50.0
        };
        let rot = app_cycles(&img_rot());
        for f in [ml_serve(), vid_proc(), doc_conv()] {
            assert!(app_cycles(&f) > rot, "{} should outweigh ImgRot", f.name);
        }
    }

    #[test]
    fn functions_pay_substantial_tax() {
        // The premise of Fig 16: serverless functions carry heavy
        // datacenter tax. For ImgRot, tax must dominate app logic.
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
        let mut rng = SimRng::seed(4);
        let svc = img_rot();
        let mut tax = 0.0;
        let mut app = 0.0;
        for i in 0..100u64 {
            let p = svc.sample(&lib, &mut rng, i << 36);
            app += p.app_cycles();
            for hop in p.hops() {
                tax += timing.cpu_cycles(hop.kind, hop.in_bytes);
            }
        }
        assert!(tax > app, "tax {tax} must exceed app {app} for ImgRot");
    }
}
