//! Parallel sweep runner for independent simulations.
//!
//! The paper's evaluation is embarrassingly parallel: every figure is a
//! set of *independent* single-threaded simulations (policy × load ×
//! seed), so the harness fans them out across OS threads and collects
//! the results **in input order**. Each simulation still runs on one
//! thread with its own seeded RNG, so every result is bit-for-bit
//! identical to a sequential run — parallelism exists only *across*
//! simulations, never within one (see DESIGN.md, "Parallel harness").
//!
//! Thread count comes from `ACCELFLOW_THREADS`, defaulting to
//! [`std::thread::available_parallelism`]. `ACCELFLOW_THREADS=1`
//! degrades to a plain sequential loop with no threads spawned.
//!
//! A throughput search ([`max_throughput`](crate::harness::max_throughput))
//! is one sequential walk of dependent probes, so a figure with several
//! searches sends them through one sweep, a search per worker. A sweep
//! nested inside a sweep worker runs sequentially, so the total thread
//! count stays bounded by the configured parallelism instead of
//! multiplying per level.
//!
//! Two scale levers layer on top of the thread fan-out (both in
//! `docs/CHECKPOINT.md`):
//!
//! - **Process sharding** ([`Shard`], [`map_sharded`]):
//!   `ACCELFLOW_SHARDS`/`ACCELFLOW_SHARD_INDEX` deterministically
//!   partition an input grid across independent processes; each shard
//!   owns a contiguous slice and reports outputs with their original
//!   grid indices, so concatenating the shards in index order
//!   reproduces the unsharded sweep byte-for-byte.
//! - **Prefix warm-start** ([`WarmStart`]): when every grid point
//!   shares one configuration and one simulated warm-up prefix, the
//!   prefix is simulated once, snapshotted, and each point forks a
//!   restored copy and appends only its own tail — byte-identical to
//!   re-simulating the prefix per point (the snapshot round-trip is
//!   pinned by the equivalence suite) while paying the prefix cost
//!   once.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use accelflow_core::machine::{Ev, MachineConfig, MachineRun};
use accelflow_core::request::ServiceSpec;
use accelflow_core::stats::RunReport;
use accelflow_core::Arrival;
use accelflow_sim::time::{SimDuration, SimTime};

use crate::harness::{env_var, exit_on, parsed, EnvError};

/// The no-op event observer warm-start forks run under (a fn pointer,
/// so restore-vs-replay arms share one [`MachineRun`] type).
type NoObserve = fn(SimTime, &Ev);

fn no_observe(_: SimTime, _: &Ev) {}

thread_local! {
    /// True on sweep worker threads; makes nested sweeps sequential.
    static IN_SWEEP: Cell<bool> = const { Cell::new(false) };
}

/// The sweep's worker-thread budget: `ACCELFLOW_THREADS` if set (0 is
/// treated as 1), else the machine's available parallelism. A value
/// that does not parse as a whole number ends the process with a
/// message naming the variable.
pub fn parallelism() -> usize {
    threads_from_vars(env_var).unwrap_or_else(|err| exit_on(&err))
}

/// [`parallelism`] over any lookup of the variables.
fn threads_from_vars(var: impl Fn(&str) -> Option<String>) -> Result<usize, EnvError> {
    let threads = parsed(var, "ACCELFLOW_THREADS", "a whole number of threads")?;
    Ok(threads.map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |n: usize| n.max(1),
    ))
}

/// Whether the current thread is already inside a sweep worker.
fn in_sweep() -> bool {
    IN_SWEEP.with(|f| f.get())
}

/// Applies `f` to every input, returning outputs in input order.
///
/// Runs across up to [`parallelism`] worker threads; falls back to a
/// plain sequential loop when only one thread is configured, when there
/// are fewer than two inputs, or when called from inside another sweep
/// (nested parallelism would multiply thread counts).
///
/// # Determinism
///
/// `f` is invoked exactly once per input and outputs are returned in
/// input order, so for any `f` whose result depends only on its input
/// (which holds for every simulation in this repo: seeded RNG, no
/// shared mutable state) the result vector is identical — bit for bit —
/// to `inputs.into_iter().map(f).collect()`.
pub fn map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let threads = parallelism().min(inputs.len());
    if threads <= 1 || in_sweep() {
        return inputs.into_iter().map(f).collect();
    }

    let n = inputs.len();
    let slots: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    let slots = &slots;
    let outputs = &outputs;
    let next = &next;

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                IN_SWEEP.with(|flag| flag.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let input = slots[i]
                        .lock()
                        .expect("sweep input slot poisoned")
                        .take()
                        .expect("sweep input claimed twice");
                    let out = f(input);
                    *outputs[i].lock().expect("sweep output slot poisoned") = Some(out);
                }
            });
        }
    });

    outputs
        .iter()
        .map(|m| {
            m.lock()
                .expect("sweep output slot poisoned")
                .take()
                .expect("sweep worker left an output empty")
        })
        .collect()
}

// ----- process sharding -----

/// This process's slice of a sharded sweep: `index` of `count`
/// processes, each owning a contiguous range of the input grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Total number of cooperating processes (≥ 1).
    pub count: usize,
    /// This process's zero-based shard id (< `count`).
    pub index: usize,
}

impl Shard {
    /// The un-sharded singleton: one process owns the whole grid.
    pub fn whole() -> Self {
        Shard { count: 1, index: 0 }
    }

    /// Reads `ACCELFLOW_SHARDS` (total processes, default 1; 0 is
    /// treated as 1) and `ACCELFLOW_SHARD_INDEX` (this process, default
    /// 0). A count or index that does not parse as a whole number, or
    /// an index not below the count, ends the process with a message
    /// naming the variable: a misconfigured launcher must fail loudly,
    /// not run the whole grid or compute nothing.
    pub fn from_env() -> Self {
        Shard::from_vars(env_var).unwrap_or_else(|err| exit_on(&err))
    }

    /// [`Shard::from_env`] over any lookup of the variables.
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, EnvError> {
        let count = parsed(&var, "ACCELFLOW_SHARDS", "a whole number of processes")?
            .unwrap_or(1usize)
            .max(1);
        let expected = format!("a whole number below ACCELFLOW_SHARDS={count}");
        let index = parsed(&var, "ACCELFLOW_SHARD_INDEX", &expected)?.unwrap_or(0usize);
        if index >= count {
            return Err(EnvError {
                var: "ACCELFLOW_SHARD_INDEX",
                value: index.to_string(),
                expected,
            });
        }
        Ok(Shard { count, index })
    }

    /// Whether this process owns the entire grid (no sharding).
    pub fn is_whole(&self) -> bool {
        self.count == 1
    }

    /// The contiguous sub-range of `0..n` this shard owns. Balanced:
    /// sizes differ by at most one, earlier shards take the remainder,
    /// and the ranges of all shards tile `0..n` exactly in index order.
    pub fn range(&self, n: usize) -> std::ops::Range<usize> {
        let base = n / self.count;
        let rem = n % self.count;
        let start = self.index * base + self.index.min(rem);
        let len = base + usize::from(self.index < rem);
        start..start + len
    }
}

/// [`map`] over the slice of `inputs` owned by the [`Shard`] from the
/// environment, returning `(original grid index, output)` pairs in
/// input order.
///
/// Because shards own contiguous, tiling ranges and each pair carries
/// its grid index, concatenating every shard's output in shard order
/// reproduces `map(inputs, f)` with indices attached — byte for byte,
/// whatever the process count (pinned in the bench determinism suite).
pub fn map_sharded<I, O, F>(inputs: Vec<I>, f: F) -> Vec<(usize, O)>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let shard = Shard::from_env();
    let range = shard.range(inputs.len());
    let owned: Vec<(usize, I)> = inputs
        .into_iter()
        .enumerate()
        .skip(range.start)
        .take(range.len())
        .collect();
    map(owned, |(i, input)| (i, f(input)))
}

// ----- prefix warm-start -----

/// A shared simulated prefix that a grid of runs forks from.
///
/// Build one per (configuration, prefix-workload) pair, then call
/// [`WarmStart::fork`] once per grid point with that point's arrival
/// *tail* (everything at or after the prefix horizon). In warm mode
/// the prefix is simulated once and snapshotted; every fork restores
/// the snapshot and appends its tail. In cold mode every fork
/// re-simulates the prefix — same two-phase code path, no snapshot —
/// which is what makes warm-vs-cold byte-equality a meaningful check
/// of the snapshot subsystem (and the cold mode the honest baseline
/// for the warm-start speedup in `docs/BENCHMARKS.md`).
pub struct WarmStart {
    cfg: MachineConfig,
    services: Vec<ServiceSpec>,
    /// Prefix arrivals, retained for cold-mode replay (empty in warm
    /// mode — the snapshot already carries their consequences).
    prefix: Vec<Arrival>,
    prefix_duration: SimDuration,
    seed: u64,
    /// `Some` in warm mode: the serialized machine at the prefix
    /// horizon.
    snapshot: Option<Vec<u8>>,
}

impl WarmStart {
    /// Prepares a shared prefix. With `warm` set the prefix is
    /// simulated immediately (once) and held as a snapshot; otherwise
    /// the arrivals are held and re-simulated by every fork.
    pub fn new(
        cfg: MachineConfig,
        services: Vec<ServiceSpec>,
        prefix: Vec<Arrival>,
        prefix_duration: SimDuration,
        seed: u64,
        warm: bool,
    ) -> Self {
        let (prefix, snapshot) = if warm {
            let mut run = MachineRun::start(
                &cfg,
                &services,
                prefix,
                prefix_duration,
                seed,
                no_observe as NoObserve,
            );
            run.run_to(SimTime::ZERO + prefix_duration);
            (Vec::new(), Some(run.snapshot()))
        } else {
            (prefix, None)
        };
        WarmStart {
            cfg,
            services,
            prefix,
            prefix_duration,
            seed,
            snapshot,
        }
    }

    /// The prefix horizon: tails must start at or after this instant.
    pub fn prefix_end(&self) -> SimTime {
        SimTime::ZERO + self.prefix_duration
    }

    /// Runs one grid point: prefix (restored or replayed), then `tail`
    /// appended with the horizon extended to `end`, through the drain.
    pub fn fork(&self, tail: Vec<Arrival>, end: SimTime) -> RunReport {
        let mut run: MachineRun<NoObserve> = match &self.snapshot {
            Some(bytes) => {
                MachineRun::restore(&self.cfg, &self.services, bytes, no_observe as NoObserve)
                    .expect("a WarmStart snapshot always matches its own config")
            }
            None => {
                let mut run = MachineRun::start(
                    &self.cfg,
                    &self.services,
                    self.prefix.clone(),
                    self.prefix_duration,
                    self.seed,
                    no_observe as NoObserve,
                );
                run.run_to(self.prefix_end());
                run
            }
        };
        run.append_arrivals(tail, end);
        run.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Env vars are process-global: every test that pins one serializes
    /// through this lock.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Helper: run `body` with the given env vars pinned, restoring the
    /// prior values afterwards.
    fn with_env(vars: &[(&str, &str)], body: impl FnOnce()) {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev: Vec<(&str, Option<String>)> = vars
            .iter()
            .map(|(k, v)| {
                let old = std::env::var(k).ok();
                std::env::set_var(k, v);
                (*k, old)
            })
            .collect();
        body();
        for (k, old) in prev {
            match old {
                Some(v) => std::env::set_var(k, v),
                None => std::env::remove_var(k),
            }
        }
    }

    /// Helper: run `body` with `ACCELFLOW_THREADS` pinned.
    fn with_threads(n: &str, body: impl FnOnce()) {
        with_env(&[("ACCELFLOW_THREADS", n)], body);
    }

    #[test]
    fn preserves_input_order() {
        with_threads("4", || {
            let inputs: Vec<u64> = (0..64).collect();
            let out = map(inputs.clone(), |x| x * x);
            let expect: Vec<u64> = inputs.iter().map(|x| x * x).collect();
            assert_eq!(out, expect);
        });
    }

    #[test]
    fn single_thread_fallback_spawns_no_workers() {
        with_threads("1", || {
            // Sequential fallback runs f on the caller's thread, so a
            // thread-local write from f is visible here afterwards.
            thread_local! {
                static TOUCHED: Cell<u32> = const { Cell::new(0) };
            }
            TOUCHED.with(|t| t.set(0));
            let out = map(vec![1u32, 2, 3], |x| {
                TOUCHED.with(|t| t.set(t.get() + 1));
                x + 10
            });
            assert_eq!(out, vec![11, 12, 13]);
            assert_eq!(TOUCHED.with(|t| t.get()), 3, "must run on caller thread");
        });
    }

    #[test]
    fn parallel_equals_sequential() {
        // The determinism contract at the sweep level: same closure,
        // same inputs, same outputs, independent of thread count.
        let work = |seed: u64| {
            // A deterministic mini-workload (xorshift walk).
            let mut x = seed.wrapping_add(0x9E3779B97F4A7C15);
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            x
        };
        let inputs: Vec<u64> = (0..32).collect();
        let mut seq = Vec::new();
        with_threads("1", || seq = map(inputs.clone(), work));
        let mut par = Vec::new();
        with_threads("8", || par = map(inputs.clone(), work));
        assert_eq!(seq, par);
    }

    #[test]
    fn each_input_runs_exactly_once() {
        with_threads("8", || {
            let calls = AtomicU64::new(0);
            let out = map((0..100u64).collect(), |x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x
            });
            assert_eq!(calls.load(Ordering::Relaxed), 100);
            assert_eq!(out.len(), 100);
        });
    }

    #[test]
    fn nested_sweeps_run_sequentially() {
        with_threads("4", || {
            let out = map(vec![0u32, 1, 2, 3], |outer| {
                assert!(in_sweep() || parallelism() == 1);
                // The inner sweep must not spawn another thread layer.
                let inner = map(vec![10u32, 20], |x| {
                    assert!(in_sweep() || parallelism() == 1);
                    x + outer
                });
                inner.iter().sum::<u32>()
            });
            assert_eq!(out, vec![30, 32, 34, 36]);
        });
    }

    #[test]
    fn empty_and_singleton_inputs() {
        with_threads("4", || {
            let empty: Vec<u32> = map(Vec::new(), |x: u32| x);
            assert!(empty.is_empty());
            assert_eq!(map(vec![7u32], |x| x * 2), vec![14]);
        });
    }

    /// A lookup of the variables in `pairs`.
    fn vars<'a>(pairs: &'a [(&str, &str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |name| {
            let value = pairs.iter().find(|(k, _)| *k == name);
            value.map(|(_, v)| v.to_string())
        }
    }

    /// Asserts that `result` is an error naming `name` and `value`.
    fn rejects<T: std::fmt::Debug>(result: Result<T, EnvError>, name: &str, value: &str) {
        let err = result.unwrap_err();
        assert_eq!((err.var, err.value.as_str()), (name, value));
        assert!(err
            .to_string()
            .starts_with(&format!("{name}={value}: expected ")));
    }

    #[test]
    fn env_parsing_clamps_to_one() {
        let threads = |n| threads_from_vars(vars(&[("ACCELFLOW_THREADS", n)]));
        assert_eq!(threads("0"), Ok(1));
        assert_eq!(threads("3"), Ok(3));
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(threads_from_vars(vars(&[])), Ok(available));
    }

    #[test]
    fn an_unparsable_thread_count_is_an_error() {
        for n in ["abc", "garbage", "-1", "", "1.5", "2x"] {
            rejects(
                threads_from_vars(vars(&[("ACCELFLOW_THREADS", n)])),
                "ACCELFLOW_THREADS",
                n,
            );
        }
    }

    #[test]
    fn shard_ranges_tile_every_grid() {
        for n in [0usize, 1, 5, 7, 31, 32] {
            for count in [1usize, 2, 3, 5, 8, 40] {
                let mut covered = Vec::new();
                let mut sizes = Vec::new();
                for index in 0..count {
                    let r = Shard { count, index }.range(n);
                    sizes.push(r.len());
                    covered.extend(r);
                }
                // Contiguous tiling of 0..n in shard order, balanced to
                // within one item.
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} count={count}");
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "n={n} count={count} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn shard_env_defaults_and_validates() {
        let shard = |count, index| {
            Shard::from_vars(vars(&[
                ("ACCELFLOW_SHARDS", count),
                ("ACCELFLOW_SHARD_INDEX", index),
            ]))
        };
        assert_eq!(shard("3", "2"), Ok(Shard { count: 3, index: 2 }));
        assert!(shard("0", "0").unwrap().is_whole(), "count clamps up to 1");
        assert_eq!(Shard::from_vars(vars(&[])), Ok(Shard::whole()));
    }

    #[test]
    fn out_of_range_shard_index_is_rejected() {
        let env = [("ACCELFLOW_SHARDS", "2"), ("ACCELFLOW_SHARD_INDEX", "2")];
        rejects(Shard::from_vars(vars(&env)), "ACCELFLOW_SHARD_INDEX", "2");
        // Without a count, the only index is 0.
        let env = [("ACCELFLOW_SHARD_INDEX", "1")];
        rejects(Shard::from_vars(vars(&env)), "ACCELFLOW_SHARD_INDEX", "1");
    }

    #[test]
    fn an_unparsable_shard_count_is_an_error() {
        for count in ["2x", "abc", "-1", "", "1.5"] {
            let env = [("ACCELFLOW_SHARDS", count), ("ACCELFLOW_SHARD_INDEX", "0")];
            rejects(Shard::from_vars(vars(&env)), "ACCELFLOW_SHARDS", count);
        }
    }

    #[test]
    fn an_unparsable_shard_index_is_an_error() {
        for index in ["1x", "abc", "-1", "", "0.5"] {
            let env = [("ACCELFLOW_SHARDS", "2"), ("ACCELFLOW_SHARD_INDEX", index)];
            rejects(Shard::from_vars(vars(&env)), "ACCELFLOW_SHARD_INDEX", index);
        }
    }

    #[test]
    fn sharded_map_concatenates_to_the_whole() {
        let inputs: Vec<u64> = (0..17).collect();
        let whole: Vec<(usize, u64)> = inputs.iter().enumerate().map(|(i, x)| (i, x * 3)).collect();
        let mut merged = Vec::new();
        for index in 0..4 {
            with_env(
                &[
                    ("ACCELFLOW_SHARDS", "4"),
                    ("ACCELFLOW_SHARD_INDEX", &index.to_string()),
                    ("ACCELFLOW_THREADS", "2"),
                ],
                || merged.extend(map_sharded(inputs.clone(), |x| x * 3)),
            );
        }
        assert_eq!(merged, whole);
    }
}
