//! Fig 16: P99 tail latency of serverless functions (FunctionBench
//! stand-ins) under Azure-like bursty invocations, for Non-acc,
//! RELIEF, and AccelFlow.

use accelflow_accel::timing::ServiceTimeModel;
use accelflow_bench::harness::{self, Scale};
use accelflow_bench::paper;
use accelflow_bench::table::{pct, Table};
use accelflow_core::policy::Policy;
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::arrivals::{bursty_arrivals, BurstyProfile};
use accelflow_workloads::serverless;

fn main() {
    let functions = serverless::all();
    let mut scale = Scale::from_env();
    scale.rps = std::env::var("ACCELFLOW_RPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3_500.0);
    let lib = TraceLibrary::standard();
    let timing =
        ServiceTimeModel::calibrated(accelflow_arch::config::ArchConfig::icelake().core_clock);
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
            &timing,
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
