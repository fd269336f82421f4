//! Coarse-grain accelerator chains standing in for the RELIEF gem5
//! benchmark suite (paper §VII-A4, Fig 15).
//!
//! The paper validates AccelFlow by re-running RELIEF's artifact —
//! image-processing and RNN applications over seven coarse-grain gem5
//! accelerators with fixed chains. We cannot ship gem5 models, so we
//! build the closest synthetic equivalent (DESIGN.md §2): fixed,
//! branch-free chains of *coarse* operations (hundreds-of-KB payloads,
//! hundreds-of-µs kernels) expressed as custom traces over the
//! existing accelerator stations. What Fig 15 measures — how much a
//! centralized manager (~1.5 µs per completion) costs relative to
//! direct chaining when each stage is long — depends only on the chain
//! shape and stage durations, which this substitution preserves.

use accelflow_core::request::{CallSpec, CyclesDist, ServiceSpec, SizeDist, StageSpec};
use accelflow_trace::builder::TraceBuilder;
use accelflow_trace::ir::Trace;
use accelflow_trace::kind::AccelKind;

/// Payloads for the coarse-grain suite: ~200 KB frames/tensors.
fn coarse_payload() -> SizeDist {
    SizeDist::new(200_000.0, 0.3, 1 << 20)
}

fn coarse_call(trace: Trace) -> CallSpec {
    CallSpec::custom(trace).with_payload(coarse_payload())
}

/// An image-processing pipeline: ingest → decompress (decode) →
/// deserialize (demosaic/convert) → serialize (filter output) →
/// compress (encode) → egress. Six coarse stages, fixed chain.
pub fn image_pipeline(name: &str, stages: &[AccelKind]) -> ServiceSpec {
    let trace = TraceBuilder::new(format!("{name}_chain"))
        .seq(stages.iter().copied())
        .to_cpu()
        .build();
    ServiceSpec::new(
        name,
        vec![
            StageSpec::Cpu(CyclesDist::new(30_000.0, 0.2)),
            StageSpec::Call(coarse_call(trace)),
            StageSpec::Cpu(CyclesDist::new(20_000.0, 0.2)),
        ],
    )
}

/// The suite: four image-processing apps and two RNN apps, with chain
/// shapes mirroring the RELIEF benchmarks (3–6 fixed stages).
pub fn all() -> Vec<ServiceSpec> {
    use AccelKind::*;
    vec![
        // Image apps: decode → transform(s) → encode.
        image_pipeline("EdgeDetect", &[Dcmp, Dser, Ser, Cmp]),
        image_pipeline("HarrisCorner", &[Dcmp, Dser, Dser, Ser, Cmp]),
        image_pipeline("Grayscale", &[Dcmp, Ser, Cmp]),
        image_pipeline("IspPipeline", &[Dcmp, Dser, Dser, Ser, Ser, Cmp]),
        // RNN apps: fetch weights → layered compute → emit.
        image_pipeline("RnnText", &[Dser, Ser, Dser, Ser]),
        image_pipeline("RnnSpeech", &[Dcmp, Dser, Ser, Dser, Ser]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_accel::timing::ServiceTimeModel;
    use accelflow_sim::rng::SimRng;
    use accelflow_sim::time::Frequency;
    use accelflow_trace::templates::TraceLibrary;

    #[test]
    fn suite_has_six_fixed_chain_apps() {
        let apps = all();
        assert_eq!(apps.len(), 6);
        let lib = TraceLibrary::standard();
        let mut rng = SimRng::seed(1);
        for (i, app) in apps.iter().enumerate() {
            let p = app.sample(&lib, &mut rng, (i as u64) << 36);
            let calls: Vec<_> = p.calls().collect();
            assert_eq!(calls.len(), 1, "{}", app.name);
            let seg = calls[0].segment(0);
            assert!(!seg.entry_is_network, "coarse chains are core-initiated");
            assert!(
                seg.hops().all(|h| h.branches_after == 0),
                "fixed chains have no branches"
            );
            assert!((3..=6).contains(&seg.hop_count()), "{}", app.name);
        }
    }

    #[test]
    fn stages_are_coarse_grained() {
        // RELIEF's accelerators run ms-scale kernels; our stand-ins
        // must be orders of magnitude coarser than the tax ops.
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
        let mut rng = SimRng::seed(2);
        let p = all()[0].sample(&lib, &mut rng, 0);
        let call = p.calls().next().unwrap();
        for hop in call.segment(0).hops() {
            let t = timing.accel_time(hop.kind, hop.in_bytes);
            assert!(t.as_micros_f64() > 20.0, "stage {} only {t}", hop.kind);
        }
    }
}
