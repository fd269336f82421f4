//! Standard experiment plumbing: run scales, policy runs with common
//! random numbers, unloaded-latency probes, and the SLO-bounded
//! max-throughput search (paper Fig 14: "the maximum load without
//! violating the SLO", SLO = 5× the unloaded service execution time).

use std::cell::RefCell;

use accelflow_core::arrivals::{poisson_arrivals_with, Arrival, MAX_RATE_RPS};
use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_core::request::{Program, ServiceSpec};
use accelflow_core::stats::RunReport;
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::arrivals::{bursty_arrivals, BurstyProfile};

use crate::sweep;

/// The run scale of an experiment (duration, warmup, per-service load).
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Arrival window.
    pub duration: SimDuration,
    /// Warmup excluded from measurement.
    pub warmup: SimDuration,
    /// Mean requests/second per service (the paper's real-trace average
    /// is 13.4 kRPS).
    pub rps: f64,
    /// RNG seed.
    pub seed: u64,
}

/// The longest `ACCELFLOW_DURATION_MS` a run takes: half of what
/// simulated time holds, which leaves room for the drain and probe
/// windows a run adds past its horizon.
pub const MAX_DURATION_MS: u64 = u64::MAX / 2_000_000_000;

/// An experiment environment variable set to a value no run can use.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The variable.
    pub var: &'static str,
    /// Its value.
    pub value: String,
    /// What a usable value is.
    pub expected: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}: expected {}", self.var, self.value, self.expected)
    }
}

impl std::error::Error for EnvError {}

pub(crate) fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

pub(crate) fn exit_on(err: &EnvError) -> ! {
    eprintln!("{err}");
    std::process::exit(2)
}

/// Variable `name` parsed, or `None` when it is unset.
pub(crate) fn parsed<T: std::str::FromStr>(
    var: impl Fn(&str) -> Option<String>,
    name: &'static str,
    expected: &str,
) -> Result<Option<T>, EnvError> {
    var(name)
        .map(|value| {
            value.parse().map_err(|_| EnvError {
                var: name,
                value,
                expected: expected.to_string(),
            })
        })
        .transpose()
}

impl Scale {
    /// The default experiment scale; override with the environment
    /// variables `ACCELFLOW_DURATION_MS`, `ACCELFLOW_RPS`, and
    /// `ACCELFLOW_SEED`. A value that no run can use
    /// ([`Scale::from_vars`]) ends the process with a message naming
    /// the variable.
    pub fn from_env() -> Self {
        Scale::from_vars(env_var).unwrap_or_else(|err| exit_on(&err))
    }

    /// [`Scale::from_env`] over any lookup of the variables.
    ///
    /// # Errors
    ///
    /// A value that does not parse; a duration above
    /// [`MAX_DURATION_MS`], whose simulated time would overflow; and a
    /// rate that [`Scale::rps_from_vars`] rejects.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, EnvError> {
        let ms = parsed(
            &var,
            "ACCELFLOW_DURATION_MS",
            "a whole number of milliseconds",
        )?
        .unwrap_or(160u64);
        if ms > MAX_DURATION_MS {
            return Err(EnvError {
                var: "ACCELFLOW_DURATION_MS",
                value: ms.to_string(),
                expected: format!("at most {MAX_DURATION_MS} ms"),
            });
        }
        let rps = Scale::rps_from_vars(&var, 13_400.0)?;
        let seed = parsed(&var, "ACCELFLOW_SEED", "an unsigned 64-bit integer")?.unwrap_or(42u64);
        Ok(Scale {
            duration: SimDuration::from_millis(ms),
            warmup: SimDuration::from_millis((ms / 8).max(2)),
            rps,
            seed,
        })
    }

    /// `ACCELFLOW_RPS` from the environment, or `default` when it is
    /// unset, for an experiment whose default rate is not the scale's.
    /// A value no run can use ends the process, as in
    /// [`Scale::from_env`].
    pub fn rps_from_env(default: f64) -> f64 {
        Scale::rps_from_vars(env_var, default).unwrap_or_else(|err| exit_on(&err))
    }

    /// `ACCELFLOW_RPS` from `var`, or `default` when it is unset.
    ///
    /// # Errors
    ///
    /// A value that does not parse as a number, or one that is negative
    /// or above [`MAX_RATE_RPS`] (not finite included), whose gaps
    /// would not fit simulated time's 1 ps tick.
    pub fn rps_from_vars(
        var: impl Fn(&str) -> Option<String>,
        default: f64,
    ) -> Result<f64, EnvError> {
        let expected = || format!("a rate from 0 to {MAX_RATE_RPS:e} requests/s");
        let rps = parsed(&var, "ACCELFLOW_RPS", &expected())?.unwrap_or(default);
        if (0.0..=MAX_RATE_RPS).contains(&rps) {
            Ok(rps)
        } else {
            Err(EnvError {
                var: "ACCELFLOW_RPS",
                value: rps.to_string(),
                expected: expected(),
            })
        }
    }

    /// A small scale for tests.
    pub fn quick() -> Self {
        Scale {
            duration: SimDuration::from_millis(40),
            warmup: SimDuration::from_millis(4),
            rps: 2_000.0,
            seed: 42,
        }
    }
}

/// A machine config at this scale for a policy.
pub fn machine_config(policy: Policy, scale: Scale) -> MachineConfig {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = scale.warmup;
    cfg
}

/// Generates the Alibaba-like bursty arrivals once, so every policy
/// sees the same requests (common random numbers).
pub fn shared_arrivals(services: &[ServiceSpec], scale: Scale) -> Vec<Arrival> {
    let lib = TraceLibrary::standard();
    bursty_arrivals(
        services,
        &lib,
        scale.rps,
        scale.duration,
        scale.seed,
        &BurstyProfile::alibaba_like(),
    )
}

/// Runs one policy over a shared arrival list.
pub fn run_policy(
    policy: Policy,
    services: &[ServiceSpec],
    arrivals: Vec<Arrival>,
    scale: Scale,
) -> RunReport {
    let cfg = machine_config(policy, scale);
    Machine::run_arrivals(&cfg, services, arrivals, scale.duration, scale.seed)
}

/// Runs one policy with its own Poisson arrivals at `rps` per service.
pub fn run_poisson(policy: Policy, services: &[ServiceSpec], rps: f64, scale: Scale) -> RunReport {
    let cfg = machine_config(policy, scale);
    Machine::run_workload(&cfg, services, rps, scale.duration, scale.seed)
}

/// Per-service mean latency on an unloaded system (one request in
/// flight at a time, in expectation).
pub fn unloaded_means(policy: Policy, services: &[ServiceSpec], seed: u64) -> Vec<SimDuration> {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(1);
    let report = Machine::run_workload(
        &cfg,
        services,
        120.0, // light enough that requests almost never overlap
        SimDuration::from_millis(120),
        seed,
    );
    report.per_service.iter().map(|s| s.mean()).collect()
}

/// Per-service P99 latency on an unloaded system — the baseline for
/// the SLO check (comparing loaded P99 against unloaded P99 makes the
/// check robust to the workload's intrinsic stragglers).
pub fn unloaded_p99s(cfg: &MachineConfig, services: &[ServiceSpec], seed: u64) -> Vec<SimDuration> {
    let mut u = cfg.clone();
    u.warmup = SimDuration::from_millis(1);
    // Long light-load run: the P99 estimate needs enough samples per
    // service to capture the workload's intrinsic stragglers.
    let report = Machine::run_workload(&u, services, 400.0, SimDuration::from_millis(1_500), seed);
    report.per_service.iter().map(|s| s.p99()).collect()
}

/// Whether a run meets the SLO: every service's P99 within
/// `slo_mult ×` its unloaded mean, and (almost) nothing left behind.
pub fn meets_slo(report: &RunReport, unloaded: &[SimDuration], slo_mult: f64) -> bool {
    if report.completion_ratio() < 0.97 {
        return false;
    }
    report.per_service.iter().zip(unloaded).all(|(s, u)| {
        if s.completed < 200 {
            return true; // not enough signal to fail a service
        }
        s.p99() <= *u * slo_mult
    })
}

/// Binary-searches the maximum per-service load (requests/second) that
/// still meets the SLO (paper Fig 14; SLO = 5× unloaded).
pub fn max_throughput(policy: Policy, services: &[ServiceSpec], slo_mult: f64, seed: u64) -> f64 {
    let mut cfg = MachineConfig::new(policy);
    cfg.warmup = SimDuration::from_millis(5);
    max_throughput_with(&cfg, services, slo_mult, seed)
}

/// [`max_throughput`] with an explicit machine configuration (smaller
/// machines for tests, PE sweeps for Fig 19, deadline scheduling for
/// §VII-A3).
///
/// One search runs on the calling thread: an exponential bracket with
/// early exit, then bisection, every probe forked from one warm prefix
/// snapshot. Figures that need several searches fan them out with
/// [`sweep::map`], one search per worker.
pub fn max_throughput_with(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    slo_mult: f64,
    seed: u64,
) -> f64 {
    max_throughput_with_mode(cfg, services, slo_mult, seed, true)
}

/// [`max_throughput_with`] with the prefix start chosen: `warm` forks
/// every probe from one snapshot, cold re-simulates the prefix per
/// probe. Both land on the same result; the cold mode is the reference
/// for the determinism suite's warm-vs-cold equality check.
pub fn max_throughput_with_mode(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    slo_mult: f64,
    seed: u64,
    warm: bool,
) -> f64 {
    let prefix = probe_prefix(cfg, services, seed, warm);
    let unloaded = unloaded_p99s(cfg, services, seed);
    let memo = ProgramMemo::new(services, seed);
    let probe = |rps: f64| meets_slo(&probe_report(&prefix, &memo, rps), &unloaded, slo_mult);
    let mut lo = SEARCH_FLOOR_RPS;
    if !probe(lo) {
        return lo;
    }
    let mut hi = lo;
    for _ in 0..BRACKET_STEPS {
        hi *= 2.0;
        if !probe(hi) {
            break;
        }
        lo = hi;
    }
    for _ in 0..BISECT_STEPS {
        let mid = (lo + hi) / 2.0;
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Starting load of the throughput search (requests/second/service).
const SEARCH_FLOOR_RPS: f64 = 100.0;
/// Doubling steps in the exponential bracket phase.
const BRACKET_STEPS: usize = 12;
/// Halving steps in the bisection phase.
const BISECT_STEPS: usize = 7;
/// Load of the shared warm-up prefix every probe forks from — fixed
/// (not the probe's own load) so the prefix is common to the whole
/// search and can be simulated once.
const PREFIX_RPS: f64 = 400.0;

/// The shared probe prefix of one throughput search: `cfg.warmup` of
/// arrivals at a fixed light load, simulated once and
/// snapshotted when `warm` (see [`sweep::WarmStart`]).
///
/// Probes historically ran their own load from t = 0, so the queue
/// ramp-up transient fell inside the (excluded) warmup window; with a
/// shared light-load prefix the ramp to the probe's load happens at
/// the measurement boundary instead, which makes the probe marginally
/// more conservative — and identical for every probe, warm or cold.
fn probe_prefix(
    cfg: &MachineConfig,
    services: &[ServiceSpec],
    seed: u64,
    warm: bool,
) -> sweep::WarmStart {
    let prefix = cfg.poisson_arrivals(services, PREFIX_RPS, cfg.warmup, seed);
    sweep::WarmStart::new(
        cfg.clone(),
        services.to_vec(),
        prefix,
        cfg.warmup,
        seed,
        warm,
    )
}

/// The programs one throughput search samples, kept so that every
/// probe reuses them: service `i`'s `n`-th program, with the state of
/// the service's stream that sampling it left, for one service mix and
/// seed.
///
/// A probe's tail is a Poisson draw, which asks for the same programs
/// from the same stream states at every rate (`accelflow_core::arrivals`
/// explains why), so a memoized tail is the fresh draw's tail bit for
/// bit. Only the buffer base is the probe's own: it numbers arrivals
/// across services, so it depends on the rate. A search runs on one
/// thread, so the memo stays on it too.
pub struct ProgramMemo<'a> {
    services: &'a [ServiceSpec],
    lib: TraceLibrary,
    seed: u64,
    sampled: RefCell<Vec<Vec<(Program, SimRng)>>>,
}

impl<'a> ProgramMemo<'a> {
    /// An empty memo for `services` at `seed`.
    pub fn new(services: &'a [ServiceSpec], seed: u64) -> Self {
        ProgramMemo {
            services,
            lib: TraceLibrary::standard(),
            seed,
            sampled: RefCell::new(vec![Vec::new(); services.len()]),
        }
    }

    /// [`MachineConfig::poisson_arrivals`] of this memo's services and
    /// seed, sampling only the programs no earlier draw sampled.
    pub fn poisson_arrivals(&self, rps: f64, duration: SimDuration) -> Vec<Arrival> {
        poisson_arrivals_with(
            self.services,
            rps,
            duration,
            self.seed,
            |i, n, rng, base| self.program(i, n, rng, base),
        )
    }

    fn program(&self, service: usize, n: u64, rng: &mut SimRng, base: u64) -> Program {
        let n = usize::try_from(n).expect("arrival index fits usize");
        let mut sampled = self.sampled.borrow_mut();
        let sampled = &mut sampled[service];
        if let Some((program, after)) = sampled.get(n) {
            *rng = after.clone();
            return program.rebased(base);
        }
        // A draw asks for programs 0, 1, 2, … in turn, so the memo holds
        // every program before this one.
        assert_eq!(sampled.len(), n, "programs are asked for in order");
        let program = self.services[service].sample(&self.lib, rng, base);
        sampled.push((program.clone(), rng.clone()));
        program
    }
}

/// The measured window of a probe at `rps`: it adapts so that every
/// service collects enough samples for a stable P99 (low-rate probes
/// need longer windows).
pub fn probe_window(rps: f64) -> SimDuration {
    let ms = ((400.0 / rps) * 1000.0).clamp(80.0, 2_000.0) as u64;
    SimDuration::from_millis(ms)
}

/// One SLO probe at `rps`: fork the shared prefix and append a tail at
/// the probe load over [`probe_window`], its programs from `memo`.
/// Pure in `(prefix, rps)`.
fn probe_report(prefix: &sweep::WarmStart, memo: &ProgramMemo<'_>, rps: f64) -> RunReport {
    let window = probe_window(rps);
    let mut tail = memo.poisson_arrivals(rps, window);
    let offset = prefix.prefix_end();
    for a in &mut tail {
        a.at = offset + SimDuration::from_picos(a.at.as_picos());
    }
    prefix.fork(tail, offset + window)
}

/// Average P99 across services, as a single figure of merit.
pub fn avg_p99(report: &RunReport) -> f64 {
    let xs: Vec<f64> = report
        .per_service
        .iter()
        .filter(|s| s.completed > 0)
        .map(|s| s.p99().as_micros_f64())
        .collect();
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Average mean latency across services.
pub fn avg_mean(report: &RunReport) -> f64 {
    let xs: Vec<f64> = report
        .per_service
        .iter()
        .filter(|s| s.completed > 0)
        .map(|s| s.mean().as_micros_f64())
        .collect();
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use accelflow_workloads::socialnetwork;

    #[test]
    fn unloaded_means_are_finite_and_ordered() {
        let services = vec![socialnetwork::uniq_id(), socialnetwork::compose_post()];
        let means = unloaded_means(Policy::AccelFlow, &services, 1);
        assert_eq!(means.len(), 2);
        assert!(means[0] > SimDuration::ZERO);
        // CPost is a far longer service than UniqId.
        assert!(means[1] > means[0] * 2);
    }

    #[test]
    fn scales_read_env() {
        let s = Scale::quick();
        assert!(s.duration > s.warmup);
        let d = Scale::from_env();
        assert!(d.rps > 0.0);
    }

    /// [`Scale::from_vars`] over one set variable.
    fn scale_with(name: &'static str, value: &str) -> Result<Scale, EnvError> {
        Scale::from_vars(|var| (var == name).then(|| value.to_string()))
    }

    #[test]
    fn scales_reject_values_no_run_can_use() {
        for rps in ["inf", "1e300", "NaN", "-1", "1.5e12"] {
            let err = scale_with("ACCELFLOW_RPS", rps).unwrap_err();
            assert_eq!(err.var, "ACCELFLOW_RPS");
            assert!(err.to_string().starts_with("ACCELFLOW_RPS="), "{err}");
        }
        for ms in ["18446744074", "20000000000", "18446744073709551615"] {
            let err = scale_with("ACCELFLOW_DURATION_MS", ms).unwrap_err();
            assert_eq!(err.var, "ACCELFLOW_DURATION_MS", "{ms}");
        }
        // The bounds themselves and zero are usable.
        let top = scale_with("ACCELFLOW_DURATION_MS", &MAX_DURATION_MS.to_string()).unwrap();
        assert_eq!(top.duration.as_picos(), MAX_DURATION_MS * 1_000_000_000);
        assert_eq!(scale_with("ACCELFLOW_RPS", "1e12").unwrap().rps, 1e12);
        assert_eq!(scale_with("ACCELFLOW_RPS", "0").unwrap().rps, 0.0);
    }

    /// Asserts that `value` of `name` does not parse: an error naming
    /// the variable and the value.
    fn unparsable(name: &'static str, value: &str) {
        let err = scale_with(name, value).unwrap_err();
        assert_eq!((err.var, err.value.as_str()), (name, value));
        assert!(err
            .to_string()
            .starts_with(&format!("{name}={value}: expected ")));
    }

    #[test]
    fn an_unparsable_duration_is_an_error() {
        for ms in ["abc", "", "1.5", "-3", "18446744073709551616"] {
            unparsable("ACCELFLOW_DURATION_MS", ms);
        }
    }

    #[test]
    fn an_unparsable_rate_is_an_error() {
        for rps in ["abc", "", "1e", "4k"] {
            unparsable("ACCELFLOW_RPS", rps);
        }
        // A rate with its own default parses the same way.
        let with_default = |value: Option<&str>| {
            Scale::rps_from_vars(
                |var| value.filter(|_| var == "ACCELFLOW_RPS").map(String::from),
                3_500.0,
            )
        };
        assert!(with_default(Some("abc")).is_err());
        assert_eq!(with_default(Some("900")), Ok(900.0));
        assert_eq!(with_default(None), Ok(3_500.0));
    }

    #[test]
    fn an_unparsable_seed_is_an_error() {
        for seed in ["abc", "", "-1", "0x2a", "18446744073709551616"] {
            unparsable("ACCELFLOW_SEED", seed);
        }
        assert_eq!(scale_with("ACCELFLOW_SEED", "9").unwrap().seed, 9);
    }
}

#[cfg(test)]
mod slo_tests {
    use super::*;
    use accelflow_core::stats::{MachineTotals, ServiceStats};
    use accelflow_sim::time::SimTime;

    fn report_with(p99s_us: &[(u64, u64)]) -> RunReport {
        // (p99 in µs, completed count) per service.
        let per_service = p99s_us
            .iter()
            .enumerate()
            .map(|(i, &(p99, n))| {
                let mut s = ServiceStats::new(format!("s{i}"));
                for _ in 0..n {
                    s.latency.record_duration(SimDuration::from_micros(p99));
                }
                s.completed = n;
                s.offered = n;
                s
            })
            .collect();
        RunReport {
            per_service,
            totals: MachineTotals::default(),
            measured: SimDuration::from_millis(10),
            ended_at: SimTime::ZERO + SimDuration::from_millis(10),
            faults: accelflow_core::FaultStats::default(),
            control: accelflow_core::ControlStats::default(),
            audit: accelflow_core::audit::AuditReport::disabled(),
            telemetry: accelflow_sim::telemetry::TelemetryReport::disabled(),
        }
    }

    #[test]
    fn slo_passes_within_budget() {
        let unloaded = vec![SimDuration::from_micros(100)];
        let r = report_with(&[(400, 1000)]);
        assert!(meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn slo_fails_beyond_budget() {
        let unloaded = vec![SimDuration::from_micros(100)];
        let r = report_with(&[(600, 1000)]);
        assert!(!meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn slo_skips_thin_services() {
        // Too few samples to judge: pass.
        let unloaded = vec![SimDuration::from_micros(100)];
        let r = report_with(&[(900, 30)]);
        assert!(meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn slo_fails_on_incompletion() {
        let unloaded = vec![SimDuration::from_micros(100)];
        let mut r = report_with(&[(100, 1000)]);
        r.per_service[0].offered = 2000; // half the requests never finished
        assert!(!meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn one_bad_service_fails_the_whole_machine() {
        let unloaded = vec![SimDuration::from_micros(100), SimDuration::from_micros(100)];
        let r = report_with(&[(100, 1000), (5_000, 1000)]);
        assert!(!meets_slo(&r, &unloaded, 5.0));
    }

    #[test]
    fn averages_ignore_empty_services() {
        let r = report_with(&[(100, 1000), (0, 0)]);
        // avg_p99 must not divide by the empty service.
        let avg = avg_p99(&r);
        assert!((avg - 100.0).abs() / 100.0 < 0.05, "{avg}");
        let empty = RunReport {
            per_service: vec![],
            totals: MachineTotals::default(),
            measured: SimDuration::ZERO,
            ended_at: SimTime::ZERO,
            faults: accelflow_core::FaultStats::default(),
            control: accelflow_core::ControlStats::default(),
            audit: accelflow_core::audit::AuditReport::disabled(),
            telemetry: accelflow_sim::telemetry::TelemetryReport::disabled(),
        };
        assert_eq!(avg_p99(&empty), 0.0);
        assert_eq!(avg_mean(&empty), 0.0);
    }
}
