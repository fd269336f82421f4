//! The throughput search's program memo draws exactly what a fresh
//! draw does: at every bracket rate, a memoized probe tail has the
//! wire form of `MachineConfig::poisson_arrivals` over the same
//! window, whichever rates filled the memo before.

use accelflow_bench::harness::{probe_window, ProgramMemo};
use accelflow_core::machine::MachineConfig;
use accelflow_core::policy::Policy;
use accelflow_core::request::ServiceSpec;
use accelflow_core::Arrival;
use accelflow_sim::snapshot::{SnapWriter, Snapshot};
use accelflow_workloads::socialnetwork;

const SEED: u64 = 3;

/// The search's bracket: 100 req/s doubled twelve times.
fn bracket() -> Vec<f64> {
    (0..=12).map(|k| 100.0 * f64::from(1u32 << k)).collect()
}

fn wire(arrivals: &Vec<Arrival>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    arrivals.save(&mut w);
    w.into_bytes()
}

/// Walks the bracket up, then down again over the filled memo.
fn memo_matches_fresh_draws(services: &[ServiceSpec]) {
    let cfg = MachineConfig::new(Policy::AccelFlow);
    let memo = ProgramMemo::new(services, SEED);
    let up = bracket();
    for &rps in up.iter().chain(up.iter().rev()) {
        let window = probe_window(rps);
        let fresh = cfg.poisson_arrivals(services, rps, window, SEED);
        let memoized = memo.poisson_arrivals(rps, window);
        assert!(!fresh.is_empty(), "{rps} req/s draws arrivals");
        assert!(
            wire(&memoized) == wire(&fresh),
            "{rps} req/s: the memoized tail differs from a fresh draw"
        );
    }
}

#[test]
fn memoized_tail_matches_a_fresh_draw_for_one_service() {
    memo_matches_fresh_draws(&[socialnetwork::uniq_id()]);
}

#[test]
fn memoized_tail_matches_a_fresh_draw_for_two_services() {
    // The second service's buffer bases count the first service's
    // arrivals, so they move with the rate while its programs do not.
    memo_matches_fresh_draws(&[socialnetwork::uniq_id(), socialnetwork::login()]);
}
