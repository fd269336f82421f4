//! Event-kernel throughput regression guards.
//!
//! Two shapes bracket the event queue's population range:
//!
//! - **Churn**: deliver one event, schedule one follow-on a few
//!   nanoseconds out, population hovering near one. This is the
//!   kernel's worst case for per-operation overhead; it exercises the
//!   parked front, which takes the event without touching the heap.
//! - **Large population**: pre-fill 200,000 events at pseudo-random
//!   times with same-time bursts, then drain. This shape exercises the
//!   deep heap: bottom-up pops through about 18 levels of keys, payload
//!   lookups in a slab too big for cache, and same-instant batches.
//!
//! In each, the engine's [`EventQueue`] must stay within a generous
//! factor of a plain `BinaryHeap` reference driven through the
//! identical pattern, **measured in the same process on the same
//! host**, so the ratio is robust to machine speed and build profile
//! even though absolute wall-clock is not.
//!
//! The ratio floor is deliberately loose: it only trips on a genuine
//! constant-factor collapse, not scheduler jitter.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use accelflow_sim::engine::EventQueue;
use accelflow_sim::time::{SimDuration, SimTime};

/// Deliveries per repetition — enough to swamp timer granularity in
/// debug builds while keeping the test under a second.
const OPS: u64 = 200_000;
/// Minimum acceptable engine/heap throughput ratio. A kernel as fast as
/// the reference scores 1.0; the regression this guards against (the
/// former calendar queue's, on the churn shape) was a >2× collapse.
const FLOOR: f64 = 0.5;
/// Best-of repetitions, filtering scheduler noise.
const REPS: usize = 3;

/// A deadline no event reaches: runs to it drain the queue.
const FOREVER: SimTime = SimTime::from_picos(u64::MAX);

/// Deliveries through the real engine: every delivery schedules one
/// follow-on at a staggered nanosecond delay.
fn engine_churn() -> u64 {
    let mut queue = EventQueue::with_capacity(0);
    queue.schedule(SimDuration::ZERO, 1u32);
    let mut left = OPS;
    queue.run_until(FOREVER, |_, ev, queue| {
        if left > 0 {
            left -= 1;
            queue.schedule(
                SimDuration::from_nanos(u64::from(ev % 97) + 1),
                ev.wrapping_add(1),
            );
        }
    });
    queue.delivered()
}

/// Deliveries through an inline `BinaryHeap` kernel driving the
/// identical pattern: min-heap on `(time, seq)`, same delays, same
/// event payloads.
fn heap_churn() -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut left = OPS;
    let mut delivered = 0u64;
    heap.push(Reverse((0, seq, 1u32)));
    seq += 1;
    while let Some(Reverse((now, _, ev))) = heap.pop() {
        delivered += 1;
        if left > 0 {
            left -= 1;
            let delay_ps = (u64::from(ev % 97) + 1) * 1_000;
            heap.push(Reverse((now + delay_ps, seq, ev.wrapping_add(1))));
            seq += 1;
        }
    }
    delivered
}

/// Events pre-filled by the large-population shape.
const POPULATION: u64 = 200_000;

/// The large-population shape's event times in picoseconds: an LCG
/// spread over one simulated millisecond, so distinct events often
/// share a time and must drain in insertion order.
fn population_times() -> impl Iterator<Item = u64> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..POPULATION).map(move |_| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 20) % 1_000_000_000
    })
}

/// Deliveries through the real engine: pre-fill, then drain.
fn engine_population() -> u64 {
    let mut queue = EventQueue::with_capacity(0);
    for (i, at) in population_times().enumerate() {
        queue.schedule_at(SimTime::from_picos(at), i as u32);
    }
    queue.run_until(FOREVER, |_, _, _| {});
    queue.delivered()
}

/// Deliveries through an inline `BinaryHeap` kernel over the same
/// times and payloads, ordered on `(time, seq)` like the engine.
fn heap_population() -> u64 {
    let mut heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    for (i, at) in population_times().enumerate() {
        heap.push(Reverse((at, i as u64, i as u32)));
    }
    let mut delivered = 0u64;
    while heap.pop().is_some() {
        delivered += 1;
    }
    delivered
}

/// Best-of-[`REPS`] events/second of `run`, which must deliver
/// exactly `expect` events.
fn best_rate(expect: u64, mut run: impl FnMut() -> u64) -> f64 {
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(run(), expect, "a kernel lost events");
            expect as f64 / t0.elapsed().as_secs_f64().max(1e-9)
        })
        .fold(0.0, f64::max)
}

/// Held while a shape is timed: the test harness runs tests on parallel
/// threads, and a shape timed beside another would measure contention.
static TIMING: Mutex<()> = Mutex::new(());

/// Fails when the engine's throughput on `shape` falls below [`FLOOR`]
/// times the heap reference's.
fn assert_keeps_pace(shape: &str, expect: u64, engine: fn() -> u64, heap: fn() -> u64) {
    let _timing = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let engine = best_rate(expect, engine);
    let heap = best_rate(expect, heap);
    let ratio = engine / heap;
    println!(
        "{shape} throughput: engine {engine:.0}/s, heap reference {heap:.0}/s, ratio {ratio:.2}"
    );
    assert!(
        ratio >= FLOOR,
        "event kernel regressed on the {shape} shape: {engine:.0}/s vs heap {heap:.0}/s \
         (ratio {ratio:.2} < floor {FLOOR})"
    );
}

#[test]
fn churn_keeps_pace_with_the_binary_heap() {
    assert_keeps_pace("churn", OPS + 1, engine_churn, heap_churn);
}

#[test]
fn large_population_keeps_pace_with_the_binary_heap() {
    assert_keeps_pace(
        "large-population",
        POPULATION,
        engine_population,
        heap_population,
    );
}
