//! Open-loop arrival generation.
//!
//! The machine consumes a pre-generated, time-sorted [`Arrival`] list
//! rather than sampling arrivals inline: generating the list up front
//! makes common-random-number comparisons across policies trivial (run
//! the *same* arrivals under every design) and lets trace-driven or
//! bursty generators (see `accelflow-workloads`) feed the machine
//! without touching the event loop. An arrival's [`Program`] is a
//! shared handle, so cloning a list for a second design copies no
//! sampled record.
//!
//! Every generator, Poisson, bursty (MMPP) or thinned, calls
//! [`draw_arrivals`], the one place inter-arrival gaps are drawn. The
//! program sampler is its parameter: [`fresh_programs`] samples each
//! program with [`ServiceSpec::sample`], and a memo may hand out
//! programs it sampled before (the throughput search reuses one
//! program stream across its probes). A program belongs to the
//! workload: it follows from the service, the trace library and the
//! stream alone, and the machine charges its time when it runs.
//!
//! Such a memo is exact for Poisson draws ([`poisson_arrivals_with`]):
//! one segment and no thinning, so each gap is one
//! [`SimRng::exponential`] call, which takes the same uniform draws at
//! any rate. A service's `n`-th program therefore starts from the same
//! state of the service's stream whatever the rate, and a memo that
//! returns the records sampled there with the state sampling left
//! leaves every later draw as it was. The buffer base is not memoized:
//! it numbers arrivals across services, so it depends on the rate.

use accelflow_accel::queue::TenantId;
use accelflow_accel::timing::ServiceTimeModel;
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::{SimDuration, SimTime};
use accelflow_trace::templates::TraceLibrary;

use crate::request::{Program, ServiceId, ServiceSpec};

/// One request arrival: when, which service, and the sampled program.
#[derive(Clone, Debug)]
pub struct Arrival {
    /// Arrival instant.
    pub at: SimTime,
    /// The service invoked.
    pub service: ServiceId,
    /// The invoking tenant.
    pub tenant: TenantId,
    /// The sampled execution.
    pub program: Program,
}

/// Number of distinct payload arenas the runtime recycles buffers
/// through (RPC runtimes reuse message buffers, so accelerator TLB
/// entries stay useful across requests).
pub const BUFFER_POOL: u64 = 64;

/// Arrival rates above this many per second are drawn as no arrivals:
/// their mean gap is under the 1 ps tick of simulated time, so gaps
/// round to zero and a segment might never end.
pub const MAX_RATE_RPS: f64 = 1e12;

/// Generates open-loop Poisson arrivals for a service mix.
///
/// `rps_per_service` is the offered load of *each* service; a rate of
/// zero or less, or above [`MAX_RATE_RPS`] (infinity included), yields
/// no arrivals. `_timing` is ignored.
pub fn poisson_arrivals(
    services: &[ServiceSpec],
    lib: &TraceLibrary,
    _timing: &ServiceTimeModel,
    rps_per_service: f64,
    duration: SimDuration,
    seed: u64,
) -> Vec<Arrival> {
    let sample = fresh_programs(services, lib);
    poisson_arrivals_with(services, rps_per_service, duration, seed, sample)
}

/// [`poisson_arrivals`] with its program sampler as a parameter (see
/// [`draw_arrivals`]). Every draw at any rate from one `seed` asks for
/// a service's `n`-th program from the same stream state, which makes
/// a memo of sampled programs exact here (module docs).
pub fn poisson_arrivals_with(
    services: &[ServiceSpec],
    rps_per_service: f64,
    duration: SimDuration,
    seed: u64,
    sample: impl FnMut(usize, u64, &mut SimRng, u64) -> Program,
) -> Vec<Arrival> {
    let segments = [(SimTime::ZERO + duration, 1.0)];
    let master = SimRng::seed(seed);
    draw_arrivals(
        services,
        rps_per_service,
        &segments,
        master,
        |_, _| true,
        sample,
    )
}

/// The default program sampler of [`draw_arrivals`]: a fresh
/// [`ServiceSpec::sample`] of the service at the arrival's buffer base.
pub fn fresh_programs<'a>(
    services: &'a [ServiceSpec],
    lib: &'a TraceLibrary,
) -> impl FnMut(usize, u64, &mut SimRng, u64) -> Program + 'a {
    move |service, _, rng, base| services[service].sample(lib, rng, base)
}

/// Draws the time-sorted arrival list of a service mix, each service `i`
/// on its own stream `master.fork(i)`. `segments` are ascending
/// `(end, mult)` pairs, the first starting at zero and each next where
/// the last ended; inside one the service is a Poisson stream at
/// `mean_rps × mult`, a gap reaching its end is dropped, and one whose
/// rate is not positive or is above [`MAX_RATE_RPS`] (not finite
/// included) draws nothing. `keep` is asked about each instant, with
/// the service's stream, before a kept instant samples its program
/// from that stream: `sample(i, n, stream, base)` returns the program
/// of service `i`'s `n`-th kept arrival, counted from 0, at buffer base
/// `base` ([`fresh_programs`] samples it). One counter across all
/// services numbers the [`BUFFER_POOL`] arenas.
pub fn draw_arrivals(
    services: &[ServiceSpec],
    mean_rps: f64,
    segments: &[(SimTime, f64)],
    mut master: SimRng,
    mut keep: impl FnMut(SimTime, &mut SimRng) -> bool,
    mut sample: impl FnMut(usize, u64, &mut SimRng, u64) -> Program,
) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut counter = 0u64;
    for (idx, svc) in services.iter().enumerate() {
        let mut rng = master.fork(idx as u64);
        let mut t = SimTime::ZERO;
        let mut kept = 0u64;
        for &(end, mult) in segments {
            let rate = mean_rps * mult;
            if draws_at(rate) {
                let mean_gap_us = 1e6 / rate;
                loop {
                    let gap = SimDuration::from_micros_f64(rng.exponential(mean_gap_us));
                    // At a vanishing rate `gap` saturates, so compare it
                    // with the time left rather than add it first.
                    if gap >= end.saturating_since(t) {
                        break;
                    }
                    t += gap;
                    if !keep(t, &mut rng) {
                        continue;
                    }
                    counter += 1;
                    let buffer = (counter % BUFFER_POOL) << 24;
                    arrivals.push(Arrival {
                        at: t,
                        service: ServiceId(idx),
                        tenant: svc.tenant,
                        program: sample(idx, kept, &mut rng, buffer),
                    });
                    kept += 1;
                }
            }
            t = end;
        }
    }
    sort_by_time(&mut arrivals);
    arrivals
}

/// Whether a segment at `rate` arrivals per second draws any: a rate
/// must be positive and at most [`MAX_RATE_RPS`], which rules out NaN
/// and infinity too.
fn draws_at(rate: f64) -> bool {
    rate > 0.0 && rate <= MAX_RATE_RPS
}

/// Sorts `arrivals` by time, stably: the order `sort_by_key(|a| a.at)`
/// gives. It sorts `u32` indices in place, ties broken by index, and
/// then moves each arrival once, so its scratch is 4 bytes per arrival;
/// a stable sort of the list itself borrows up to half the list's
/// bytes, which the allocator then keeps resident beside the list.
///
/// # Panics
///
/// Panics if there are more than `u32::MAX` arrivals.
pub fn sort_by_time(arrivals: &mut [Arrival]) {
    // A single service's stream is generated in order.
    if arrivals.windows(2).all(|w| w[0].at <= w[1].at) {
        return;
    }
    let n = u32::try_from(arrivals.len()).expect("arrival count fits u32");
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_unstable_by_key(|&i| (arrivals[i as usize].at, i));
    // Position `i` takes the arrival at `order[i]`. Walk each cycle of
    // the permutation once, marking a filled position with `order[i] = i`.
    for start in 0..arrivals.len() {
        let mut cur = start;
        loop {
            let next = order[cur] as usize;
            order[cur] = cur as u32;
            if next == start {
                break;
            }
            arrivals.swap(cur, next);
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_sim::time::Frequency;

    #[test]
    fn sort_by_time_is_the_stable_sort() {
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
        let services = vec![ServiceSpec::new("a", vec![]), ServiceSpec::new("b", vec![])];
        let mut arrivals = poisson_arrivals(
            &services,
            &lib,
            &timing,
            20_000.0,
            SimDuration::from_millis(20),
            3,
        );
        // Coarse instants make ties; tenants number the arrivals; a
        // seeded shuffle leaves ties in no particular order.
        let mut rng = SimRng::seed(8);
        for (i, a) in arrivals.iter_mut().enumerate() {
            a.at = SimTime::ZERO + SimDuration::from_micros(a.at.as_picos() / 50_000_000 * 50);
            a.tenant = TenantId(i as u16);
        }
        for i in (1..arrivals.len()).rev() {
            arrivals.swap(i, rng.index(i + 1));
        }
        let mut expected = arrivals.clone();
        expected.sort_by_key(|a| a.at);
        sort_by_time(&mut arrivals);
        let key = |a: &Arrival| (a.at, a.tenant);
        assert!(expected.len() > 500);
        assert!(expected.windows(2).any(|w| w[0].at == w[1].at), "no ties");
        assert!(arrivals.iter().map(key).eq(expected.iter().map(key)));
    }

    #[test]
    fn rates_without_a_representable_gap_draw_nothing() {
        // Checked on the guard itself: a huge finite rate that got past
        // it would sample programs until memory ran out.
        for rate in [f64::INFINITY, 1e300, 1.01e12, f64::NAN, 0.0, -1.0] {
            assert!(!draws_at(rate), "{rate} req/s draws");
        }
        for rate in [1e-9, 13_400.0, MAX_RATE_RPS] {
            assert!(draws_at(rate), "{rate} req/s draws nothing");
        }
        // The largest drawable rate's mean gap is one tick.
        assert_eq!(
            SimDuration::from_micros_f64(1e6 / MAX_RATE_RPS),
            SimDuration::from_picos(1)
        );
        // An infinite rate used to panic in `SimRng::exponential`.
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(Frequency::from_ghz(2.4));
        let services = vec![ServiceSpec::new("a", vec![])];
        let window = SimDuration::from_millis(1);
        let drawn = poisson_arrivals(&services, &lib, &timing, f64::INFINITY, window, 1);
        assert!(drawn.is_empty());
    }

    #[test]
    fn buffer_pool_addresses_stay_disjoint_from_call_offsets() {
        // Arena bases are multiples of 1<<24. Per-call offsets are
        // (step << 20) + (par << 16); services have well under 16
        // steps, so a request's buffers stay inside its own arena.
        let base = (BUFFER_POOL - 1) << 24;
        assert_eq!(base % (1 << 24), 0, "bases aligned");
        let max_realistic_offset = (15u64 << 20) + (15u64 << 16);
        assert!(max_realistic_offset < 1 << 24, "offsets stay in-arena");
    }
}
