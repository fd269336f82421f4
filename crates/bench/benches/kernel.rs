//! Criterion micro-benchmarks of the simulation kernel's hot paths:
//! the event queue, the latency histogram, the RNG samplers, the
//! server-pool booking used for PEs/cores/DMA engines, and the
//! parallel sweep runner's scaling.

use accelflow_bench::sweep;
use accelflow_sim::engine::{EventQueue, Model, Simulation};
use accelflow_sim::resource::ServerPool;
use accelflow_sim::rng::SimRng;
use accelflow_sim::stats::Histogram;
use accelflow_sim::telemetry::{CompId, Telemetry};
use accelflow_sim::time::{SimDuration, SimTime};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

struct Churn {
    left: u64,
}

impl Model for Churn {
    type Event = u32;
    fn handle(&mut self, _now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
        if self.left > 0 {
            self.left -= 1;
            // Two follow-ons at staggered delays: keeps the heap busy.
            queue.schedule(
                SimDuration::from_nanos(u64::from(ev % 97) + 1),
                ev.wrapping_add(1),
            );
        }
    }
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("engine/100k_events", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Churn { left: 100_000 });
            sim.queue_mut().schedule(SimDuration::ZERO, 1);
            sim.run();
            black_box(sim.now())
        })
    });
}

/// The Churn model instrumented exactly the way `Machine` is: an
/// `Option<Box<Telemetry>>` field checked once per event, with the
/// record constructed inside the branch. Against the bare
/// `engine/100k_events` baseline, the `_off` variant measures the full
/// disabled-path tax (one `None` check per event) — the acceptance bar
/// is under 1%.
struct ChurnTelemetry {
    left: u64,
    tel: Option<Box<Telemetry>>,
}

impl Model for ChurnTelemetry {
    type Event = u32;
    fn handle(&mut self, now: SimTime, ev: u32, queue: &mut EventQueue<u32>) {
        if let Some(t) = self.tel.as_mut() {
            t.span(
                now,
                CompId::accelerator((ev % 9) as u16),
                "pe",
                SimDuration::from_nanos(u64::from(ev % 97) + 1),
                Some(ev),
                0,
            );
        }
        if self.left > 0 {
            self.left -= 1;
            queue.schedule(
                SimDuration::from_nanos(u64::from(ev % 97) + 1),
                ev.wrapping_add(1),
            );
        }
    }
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let run = |tel: Option<Box<Telemetry>>| {
        let mut sim = Simulation::new(ChurnTelemetry { left: 100_000, tel });
        sim.queue_mut().schedule(SimDuration::ZERO, 1);
        sim.run();
        black_box(sim.now())
    };
    c.bench_function("telemetry/100k_events_off", |b| b.iter(|| run(None)));
    c.bench_function("telemetry/100k_events_on", |b| {
        b.iter(|| run(Some(Box::new(Telemetry::new(1 << 18)))))
    });
}

fn bench_histogram(c: &mut Criterion) {
    let mut rng = SimRng::seed(1);
    let values: Vec<u64> = (0..100_000)
        .map(|_| (rng.log_normal(200_000_000.0, 1.0)) as u64)
        .collect();
    c.bench_function("stats/record_100k", |b| {
        b.iter(|| {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            black_box(h.percentile(99.0))
        })
    });
    let mut h = Histogram::new();
    for &v in &values {
        h.record(v);
    }
    c.bench_function("stats/p99", |b| b.iter(|| black_box(h.percentile(99.0))));
}

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/exponential_10k", |b| {
        let mut rng = SimRng::seed(2);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..10_000 {
                acc += rng.exponential(100.0);
            }
            black_box(acc)
        })
    });
    c.bench_function("rng/log_normal_10k", |b| {
        let mut rng = SimRng::seed(3);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..10_000 {
                acc += rng.log_normal(2048.0, 0.7);
            }
            black_box(acc)
        })
    });
}

fn bench_schedule_pop(c: &mut Criterion) {
    // Raw event-queue throughput, isolated from any model logic:
    // schedule a batch at pseudo-random offsets, then drain it.
    struct Sink;
    impl Model for Sink {
        type Event = u64;
        fn handle(&mut self, _now: SimTime, _ev: u64, _queue: &mut EventQueue<u64>) {}
    }
    c.bench_function("engine/schedule_pop_100k", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(Sink);
            let mut x = 0x9E3779B97F4A7C15u64;
            for i in 0..100_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                sim.queue_mut()
                    .schedule(SimDuration::from_nanos(x % 1_000_000), i);
            }
            sim.run();
            black_box(sim.queue_mut().delivered())
        })
    });
}

fn bench_sweep_scaling(c: &mut Criterion) {
    // The sweep runner over a CPU-bound deterministic task, at one
    // thread vs the configured parallelism. On a multi-core machine
    // the N-thread variant should approach a linear speedup; the
    // per-item work (~1M RNG draws) dwarfs the fan-out overhead.
    let work = |seed: u64| {
        let mut rng = SimRng::seed(seed);
        let mut acc = 0.0f64;
        for _ in 0..1_000_000 {
            acc += rng.uniform();
        }
        acc
    };
    let inputs: Vec<u64> = (0..8).collect();
    let mut group = c.benchmark_group("sweep");
    group.sample_size(10);
    group.bench_function("8x1M_draws_1_thread", |b| {
        std::env::set_var("ACCELFLOW_THREADS", "1");
        b.iter(|| black_box(sweep::map(inputs.clone(), work)));
        std::env::remove_var("ACCELFLOW_THREADS");
    });
    group.bench_function("8x1M_draws_N_threads", |b| {
        b.iter(|| black_box(sweep::map(inputs.clone(), work)));
    });
    group.finish();
}

fn bench_server_pool(c: &mut Criterion) {
    c.bench_function("resource/pool_acquire_10k", |b| {
        b.iter(|| {
            let mut pool = ServerPool::new(8);
            let mut t = SimTime::ZERO;
            for i in 0..10_000u64 {
                t += SimDuration::from_nanos(i % 300);
                black_box(pool.acquire(t, SimDuration::from_nanos(2_300)));
            }
            pool.jobs()
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_telemetry_overhead,
    bench_schedule_pop,
    bench_histogram,
    bench_rng,
    bench_server_pool,
    bench_sweep_scaling
);
criterion_main!(benches);
