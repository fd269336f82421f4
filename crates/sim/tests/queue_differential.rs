//! Differential test: the engine's `EventQueue` against a plain
//! `BinaryHeap` reference implementing the same delivery contract —
//! `(time, insertion-order)` with past-time schedules clamped to now.
//!
//! Both sides run the same reactive workload from the same `SimRng`
//! seed. The workload's scheduling decisions depend only on the rng
//! stream, which both sides consume in delivery order — so the logs
//! stay in lockstep exactly as long as delivery order is identical,
//! and any divergence (a reordering, a lost or duplicated event, a
//! clamp miscount) shows up as a log mismatch at the first bad pop.
//!
//! Two workloads cover the queue's population range:
//!
//! - **Sparse**: a handful of pending events with adversarial delay
//!   shapes: same-instant bursts (the fast lane), adjacent instants,
//!   power-of-two jumps, far-future events, and past-time schedules
//!   that clamp. The population stays small, so the parked front and
//!   the near-empty heap do most of the work.
//! - **Saturated backlog**: about 50,000 events pending over 40 ms on
//!   a 1 µs grid, so most timestamps are shared, with clamps and
//!   same-instant schedules mixed in. This checks the deep-heap path
//!   for order, not only for speed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use accelflow_sim::{EventQueue, SimRng, SimTime};

/// Reacts to one delivery at `now` by scheduling follow-ups through
/// `sched(at, id)`. Shared verbatim by both sides.
type React = fn(&mut SimRng, u64, &mut dyn FnMut(u64, u64));

/// The sparse workload's step: after an event fires at `now`, draw 0–3
/// follow-up events with adversarial delay shapes.
fn react(rng: &mut SimRng, now: u64, sched: &mut dyn FnMut(u64, u64)) {
    let n = rng.index(4);
    for _ in 0..n {
        let at = match rng.index(8) {
            0 => now,                                             // same-instant burst
            1 => now + 1 + rng.index(4) as u64,                   // adjacent slots
            2 => now + rng.index(512) as u64,                     // in-bucket
            3 => now + (1u64 << (6 + rng.index(22))),             // bucket/window edges
            4 => now + rng.index(60_000_000) as u64,              // overflow spill
            5 => now.saturating_sub(1 + rng.index(5_000) as u64), // past → clamp
            6 => now + rng.index(16) as u64,
            _ => now + rng.index(4_096) as u64,
        };
        sched(at, rng.index(1 << 30) as u64);
    }
}

const INITIAL: &[(u64, u64)] = &[
    (0, 100),
    (0, 101), // same-instant tie at t=0
    (17, 102),
    (1 << 20, 103),
    (1 << 20, 104), // tie at a power-of-two boundary
    (55_000_000, 105),
];

/// Events pending in the saturated-backlog workload.
const BACKLOG: usize = 50_000;
/// Its horizon in grid steps: 40 ms.
const BACKLOG_STEPS: usize = 40_000;
/// The grid step: 1 µs. Every event time stays on the grid (a clamp
/// lands on `now`, which is on it), so most timestamps are shared.
const STEP_PS: u64 = 1_000_000;

/// The saturated backlog's initial events: [`BACKLOG`] events on the
/// grid over 40 ms.
fn backlog(seed: u64) -> Vec<(u64, u64)> {
    let mut rng = SimRng::seed(seed);
    (0..BACKLOG as u64)
        .map(|id| (rng.index(BACKLOG_STEPS) as u64 * STEP_PS, id))
        .collect()
}

/// The saturated backlog's step: every delivery replaces itself with one
/// follow-up, so the population holds at [`BACKLOG`] until the budget
/// runs out.
fn react_backlog(rng: &mut SimRng, now: u64, sched: &mut dyn FnMut(u64, u64)) {
    let at = match rng.index(8) {
        0 => now,                                             // same-instant
        1 => now.saturating_sub(1 + rng.index(5_000) as u64), // past → clamp
        2 => now + rng.index(4) as u64 * STEP_PS,             // near ties
        _ => now + rng.index(BACKLOG_STEPS) as u64 * STEP_PS, // the backlog
    };
    sched(at, rng.index(1 << 30) as u64);
}

/// Runs a workload through the production engine.
fn engine_run(
    seed: u64,
    budget: usize,
    initial: &[(u64, u64)],
    react: React,
) -> (Vec<(u64, u64)>, u64) {
    let mut rng = SimRng::seed(seed);
    let mut queue = EventQueue::with_capacity(0);
    for &(at, id) in initial {
        queue.schedule_at(SimTime::from_picos(at), id);
    }
    let mut log = Vec::new();
    queue.run_until(SimTime::from_picos(u64::MAX), |now, ev, queue| {
        log.push((now.as_picos(), ev));
        if log.len() >= budget {
            return; // stop breeding; drain what is queued
        }
        react(&mut rng, now.as_picos(), &mut |at, id| {
            queue.schedule_at(SimTime::from_picos(at), id);
        });
    });
    (log, queue.clamped())
}

/// Runs a workload through a trivially-correct reference: a binary
/// heap of `(at, seq, id)` with the same clamp-to-now rule.
fn reference_run(
    seed: u64,
    budget: usize,
    initial: &[(u64, u64)],
    react: React,
) -> (Vec<(u64, u64)>, u64) {
    let mut rng = SimRng::seed(seed);
    let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut clamped = 0u64;
    let mut log = Vec::new();
    for &(at, id) in initial {
        heap.push(Reverse((at, seq, id)));
        seq += 1;
    }
    while let Some(Reverse((at, _, id))) = heap.pop() {
        let now = at;
        log.push((now, id));
        if log.len() >= budget {
            continue;
        }
        react(&mut rng, now, &mut |a, i| {
            if a < now {
                clamped += 1;
            }
            heap.push(Reverse((a.max(now), seq, i)));
            seq += 1;
        });
    }
    (log, clamped)
}

/// Asserts the engine and the reference deliver the same log and clamp
/// count for one seed and workload.
fn assert_matches(seed: u64, budget: usize, initial: &[(u64, u64)], react: React) {
    let (log, clamped) = engine_run(seed, budget, initial, react);
    let (ref_log, ref_clamped) = reference_run(seed, budget, initial, react);
    assert!(
        log.len() >= budget,
        "seed {seed}: workload fizzled at {} events",
        log.len()
    );
    let pops = log.len().max(ref_log.len());
    if let Some(i) = (0..pops).find(|&i| log.get(i) != ref_log.get(i)) {
        panic!(
            "seed {seed}: first divergence at pop {i}: engine {:?} vs reference {:?}",
            log.get(i),
            ref_log.get(i)
        );
    }
    assert_eq!(clamped, ref_clamped, "seed {seed}: clamp counts diverge");
    assert!(clamped > 0, "seed {seed}: the workload never clamped");
}

#[test]
fn sparse_workload_matches_reference_heap_exactly() {
    for seed in [1u64, 42, 0xDEAD_BEEF, 7_777_777] {
        assert_matches(seed, 20_000, INITIAL, react);
    }
}

#[test]
fn saturated_backlog_matches_reference_heap() {
    for seed in [3u64, 1009] {
        assert_matches(seed, 100_000, &backlog(seed), react_backlog);
    }
}

#[test]
fn monotone_and_fifo_within_timestamp() {
    // Structural sanity independent of the reference: time never goes
    // backwards across the log.
    let (log, _) = engine_run(99, 10_000, INITIAL, react);
    for w in log.windows(2) {
        assert!(w[1].0 >= w[0].0, "time regressed: {:?} -> {:?}", w[0], w[1]);
    }
}
