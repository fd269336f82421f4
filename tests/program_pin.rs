//! Sampled-program pins: the FNV-1a hash of the wire form of the
//! arrival list each of the three arrival generators draws over all
//! eight SocialNetwork services. The 6 ms windows cover under one
//! burst dwell; the longer ones run through many segments of the
//! Alibaba and Azure burst timelines and of the open-loop burst and
//! storm shapes.
//!
//! An arrival's wire form holds every field sampling draws for its
//! request: trace slots, payload flags, hops with their sizes and glue
//! costs, segment ends and external delays. A change to how programs
//! are stored must leave these bytes, and hence the hashes, exactly as
//! they are; a change to what sampling draws moves them. The hash does
//! not depend on how a run or its snapshot is laid out.
//!
//! Recapture (only for a deliberate sampling or wire-format change):
//!
//! ```text
//! PROGRAM_PIN_PRINT=1 cargo test --test program_pin -- --nocapture
//! ```

use accelflow::accel::timing::ServiceTimeModel;
use accelflow::core::machine::MachineConfig;
use accelflow::core::policy::Policy;
use accelflow::core::{poisson_arrivals, Arrival};
use accelflow::sim::snapshot::{fnv1a, SnapWriter, Snapshot};
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

fn fixtures() -> (TraceLibrary, ServiceTimeModel) {
    let cfg = MachineConfig::new(Policy::AccelFlow);
    let timing = ServiceTimeModel::calibrated(cfg.arch.core_clock);
    (TraceLibrary::standard(), timing)
}

/// Hashes the wire form of `arrivals` and checks it against
/// `expected`. The list must reach every service.
fn pin(name: &str, arrivals: Vec<Arrival>, expected: u64) {
    let services = socialnetwork::all();
    for (i, svc) in services.iter().enumerate() {
        assert!(
            arrivals.iter().any(|a| a.service.0 == i),
            "{name}: no arrival for {}",
            svc.name
        );
    }
    let mut w = SnapWriter::new();
    arrivals.save(&mut w);
    let bytes = w.into_bytes();
    let hash = fnv1a(&bytes);
    if std::env::var_os("PROGRAM_PIN_PRINT").is_some() {
        println!("{name}: {} bytes, {hash:#018x}", bytes.len());
    }
    assert_eq!(hash, expected, "{name}: sampled programs changed");
}

#[test]
fn poisson_programs_are_pinned() {
    let (lib, timing) = fixtures();
    let arrivals = poisson_arrivals(&socialnetwork::all(), &lib, &timing, RPS, window(), SEED);
    pin("poisson", arrivals, 0x21cd_2cc2_a82d_5a5b);
}

#[test]
fn bursty_programs_are_pinned() {
    let arrivals = bursty(&BurstyProfile::alibaba_like(), RPS, 6);
    pin("alibaba_like", arrivals, 0x7ad6_3c06_c997_4946);
}

#[test]
fn diurnal_programs_are_pinned() {
    let (lib, timing) = fixtures();
    let arrivals = openloop_arrivals(
        &Diurnal::day(window(), 0.8),
        &socialnetwork::all(),
        &lib,
        &timing,
        RPS,
        window(),
        SEED,
    );
    pin("diurnal", arrivals, 0x4613_1974_887a_f382);
}

/// Bursty arrivals at `rps` over `ms` milliseconds under `profile`.
fn bursty(profile: &BurstyProfile, rps: f64, ms: u64) -> Vec<Arrival> {
    let lib = TraceLibrary::standard();
    let duration = SimDuration::from_millis(ms);
    bursty_arrivals(&socialnetwork::all(), &lib, rps, duration, SEED, profile)
}

#[test]
fn long_alibaba_programs_are_pinned() {
    // 100 ms is over twelve 8 ms mean dwells of the Alibaba profile.
    let arrivals = bursty(&BurstyProfile::alibaba_like(), 500.0, 100);
    pin("alibaba_100ms", arrivals, 0xe5b5_5abf_1515_71e6);
}

#[test]
fn long_azure_programs_are_pinned() {
    // 200 ms is ten 20 ms mean dwells of the Azure profile.
    let arrivals = bursty(&BurstyProfile::azure_like(), 300.0, 200);
    pin("azure_200ms", arrivals, 0x6896_5750_9fbe_5b06);
}

/// Open-loop arrivals at 400 rps over `duration` under `process`.
fn openloop(process: &dyn ArrivalProcess, duration: SimDuration) -> Vec<Arrival> {
    let (lib, timing) = fixtures();
    let services = socialnetwork::all();
    openloop_arrivals(process, &services, &lib, &timing, 400.0, duration, SEED)
}

#[test]
fn openloop_burst_programs_are_pinned() {
    let duration = SimDuration::from_millis(100);
    let arrivals = openloop(&CorrelatedBursts::alibaba(duration, SEED), duration);
    pin("openloop_bursts", arrivals, 0x10fb_977b_f7c1_b583);
}

#[test]
fn openloop_storm_programs_are_pinned() {
    let duration = SimDuration::from_millis(200);
    let arrivals = openloop(&ColdStartStorm::azure(duration, SEED), duration);
    pin("openloop_storms", arrivals, 0xd0a5_44d8_6d21_29ac);
}
