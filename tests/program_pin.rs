//! Sampled-program pins: the FNV-1a hash of a machine snapshot taken
//! right after [`MachineRun::start`], for each of the three arrival
//! generators over all eight SocialNetwork services. The 6 ms windows
//! cover under one burst dwell; the longer ones run through many
//! segments of the Alibaba and Azure burst timelines and of the
//! open-loop burst and storm shapes.
//!
//! At that instant nothing has run, so the snapshot's pending arrival
//! list holds every field sampling draws for every request: trace
//! slots, payload flags, hops with their sizes and glue costs, segment
//! ends and external delays. A change to how programs are stored must
//! leave these bytes, and hence the hashes, exactly as they are; a
//! change to what sampling draws moves them.
//!
//! Recapture (only for a deliberate sampling or wire-format change):
//!
//! ```text
//! PROGRAM_PIN_PRINT=1 cargo test --test program_pin -- --nocapture
//! ```

use accelflow::accel::timing::ServiceTimeModel;
use accelflow::core::machine::{MachineConfig, MachineRun};
use accelflow::core::policy::Policy;
use accelflow::core::{poisson_arrivals, Arrival};
use accelflow::sim::snapshot::fnv1a;
use accelflow::sim::time::SimDuration;
use accelflow::trace::templates::TraceLibrary;
use accelflow::workloads::arrivals::{bursty_arrivals, BurstyProfile};
use accelflow::workloads::openloop::{
    openloop_arrivals, ArrivalProcess, ColdStartStorm, CorrelatedBursts, Diurnal,
};
use accelflow::workloads::socialnetwork;

const SEED: u64 = 17;
const RPS: f64 = 4_000.0;

fn window() -> SimDuration {
    SimDuration::from_millis(6)
}

fn fixtures() -> (MachineConfig, TraceLibrary, ServiceTimeModel) {
    let mut cfg = MachineConfig::new(Policy::AccelFlow);
    // The auditor is on by default in debug builds only, and telemetry
    // is on by default under the `telemetry` feature; both are part of
    // the snapshot, so pin them off to hash the same bytes under every
    // optimization level and feature set.
    cfg.audit = false;
    cfg.telemetry = false;
    let mut timing = ServiceTimeModel::calibrated(cfg.arch.core_clock);
    timing.set_speedup_scale(cfg.speedup_scale);
    (cfg, TraceLibrary::standard(), timing)
}

/// Hashes the snapshot of a run opened over `arrivals`, and checks the
/// list is big enough to reach every service.
fn pin(name: &str, arrivals: Vec<Arrival>, expected: u64) {
    pin_over(name, arrivals, window(), expected);
}

/// [`pin`] for a run of `duration`.
fn pin_over(name: &str, arrivals: Vec<Arrival>, duration: SimDuration, expected: u64) {
    let (cfg, _, _) = fixtures();
    let services = socialnetwork::all();
    for (i, svc) in services.iter().enumerate() {
        assert!(
            arrivals.iter().any(|a| a.service.0 == i),
            "{name}: no arrival for {}",
            svc.name
        );
    }
    let mut run = MachineRun::start(&cfg, &services, arrivals, duration, SEED, |_, _| {});
    let bytes = run.snapshot();
    let hash = fnv1a(&bytes);
    if std::env::var_os("PROGRAM_PIN_PRINT").is_some() {
        println!("{name}: {} bytes, {hash:#018x}", bytes.len());
    }
    assert_eq!(hash, expected, "{name}: sampled programs changed");
}

#[test]
fn poisson_programs_are_pinned() {
    let (_, lib, timing) = fixtures();
    let arrivals = poisson_arrivals(&socialnetwork::all(), &lib, &timing, RPS, window(), SEED);
    pin("poisson", arrivals, 0xa166_7aed_4dc4_d57e);
}

#[test]
fn bursty_programs_are_pinned() {
    let arrivals = bursty(&BurstyProfile::alibaba_like(), RPS, 6);
    pin("alibaba_like", arrivals, 0x9492_49de_3d58_a262);
}

#[test]
fn diurnal_programs_are_pinned() {
    let (_, lib, timing) = fixtures();
    let arrivals = openloop_arrivals(
        &Diurnal::day(window(), 0.8),
        &socialnetwork::all(),
        &lib,
        &timing,
        RPS,
        window(),
        SEED,
    );
    pin("diurnal", arrivals, 0x85b1_783e_0d1b_f9d0);
}

/// Bursty arrivals at `rps` over `ms` milliseconds under `profile`.
fn bursty(profile: &BurstyProfile, rps: f64, ms: u64) -> Vec<Arrival> {
    let (_, lib, timing) = fixtures();
    let duration = SimDuration::from_millis(ms);
    bursty_arrivals(
        &socialnetwork::all(),
        &lib,
        &timing,
        rps,
        duration,
        SEED,
        profile,
    )
}

#[test]
fn long_alibaba_programs_are_pinned() {
    // 100 ms is over twelve 8 ms mean dwells of the Alibaba profile.
    let arrivals = bursty(&BurstyProfile::alibaba_like(), 500.0, 100);
    pin_over(
        "alibaba_100ms",
        arrivals,
        SimDuration::from_millis(100),
        0x956e_527f_30ab_556e,
    );
}

#[test]
fn long_azure_programs_are_pinned() {
    // 200 ms is ten 20 ms mean dwells of the Azure profile.
    let arrivals = bursty(&BurstyProfile::azure_like(), 300.0, 200);
    pin_over(
        "azure_200ms",
        arrivals,
        SimDuration::from_millis(200),
        0x3bb5_dd9d_ae65_75f6,
    );
}

/// Open-loop arrivals at 400 rps over `duration` under `process`.
fn openloop(process: &dyn ArrivalProcess, duration: SimDuration) -> Vec<Arrival> {
    let (_, lib, timing) = fixtures();
    let services = socialnetwork::all();
    openloop_arrivals(process, &services, &lib, &timing, 400.0, duration, SEED)
}

#[test]
fn openloop_burst_programs_are_pinned() {
    let duration = SimDuration::from_millis(100);
    let arrivals = openloop(&CorrelatedBursts::alibaba(duration, SEED), duration);
    pin_over("openloop_bursts", arrivals, duration, 0x83eb_23a1_1fbf_526a);
}

#[test]
fn openloop_storm_programs_are_pinned() {
    let duration = SimDuration::from_millis(200);
    let arrivals = openloop(&ColdStartStorm::azure(duration, SEED), duration);
    pin_over("openloop_storms", arrivals, duration, 0xc0f4_6741_018a_5214);
}
