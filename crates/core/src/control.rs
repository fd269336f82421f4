//! Online traffic control: ingress admission, per-tenant rate
//! limiting, SLO-window tracking, and the telemetry-feedback
//! autoscaler.
//!
//! Open-loop traffic (see `accelflow-workloads::openloop` and
//! `docs/WORKLOADS.md`) keeps offering load no matter how congested
//! the machine gets, so a production server needs *control*: shed or
//! throttle work it cannot serve, and resize itself to the work it
//! can. This module defines the knobs ([`ControlConfig`], part of
//! [`MachineConfig`](crate::machine::MachineConfig)) and the counters
//! ([`ControlStats`], part of [`RunReport`](crate::stats::RunReport))
//! for three mechanisms, all enforced at request ingress or on a
//! periodic scale tick:
//!
//! | mechanism | knob | effect |
//! |---|---|---|
//! | per-tenant rate limiting | [`ControlConfig::rate_limit`] | token bucket per tenant; an empty bucket rejects the arrival |
//! | admission control | [`ControlConfig::max_live`] | arrivals beyond a live-request ceiling are shed |
//! | autoscaling | [`ControlConfig::autoscaler`] | periodic ticks light/darken accelerator stations from windowed utilization |
//! | SLO windows | [`ControlConfig::slo`] | completions are bucketed into fixed windows; a window is *met* when ≥99% beat the target |
//!
//! The autoscaler composes two existing subsystems: the PR 3
//! [`Sampler`] holds its windowed per-kind utilization signal, and the PR 5 darkness machinery (the
//! `station_available` gate and the [`StallEnd`] wake path) is its
//! actuator — a darkened station stops accepting work exactly like a
//! fault-stalled one, and relighting wakes the station's queues
//! through the same event.
//!
//! Like fault injection, the whole subsystem is **disabled by
//! default** and free when off: the machine builds no control state,
//! draws no randomness (control is entirely deterministic — it never
//! draws any), and emits a bit-identical event stream, enforced
//! against the committed golden hashes in `tests/golden_events.rs`.
//!
//! [`StallEnd`]: crate::machine::Ev
//! [`Sampler`]: accelflow_sim::telemetry::Sampler
//!
//! # Example
//!
//! A tight per-tenant budget rejects most of an aggressive open-loop
//! stream while the run stays audit-clean:
//!
//! ```
//! use accelflow_core::control::{ControlConfig, RateLimit};
//! use accelflow_core::machine::{Machine, MachineConfig};
//! use accelflow_core::policy::Policy;
//! use accelflow_core::request::{CallSpec, ServiceSpec, StageSpec};
//! use accelflow_sim::time::SimDuration;
//! use accelflow_trace::templates::TemplateId;
//!
//! let mut cfg = MachineConfig::new(Policy::AccelFlow);
//! cfg.warmup = SimDuration::from_millis(1);
//! cfg.audit = true;
//! cfg.control.rate_limit = Some(RateLimit {
//!     tokens_per_sec: 10_000.0, // well under the 100k rps offered
//!     burst: 4.0,
//! });
//! let svc = ServiceSpec::new(
//!     "Ping",
//!     vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
//! );
//! let report =
//!     Machine::run_workload(&cfg, &[svc], 100_000.0, SimDuration::from_millis(4), 7);
//! assert!(report.audit.is_clean());
//! assert!(report.control.rate_limited > 0);
//! assert!(report.control.admitted > 0);
//! ```

use accelflow_sim::telemetry::Sampler;
use accelflow_sim::time::{SimDuration, SimTime};

/// Per-tenant token-bucket rate limit, enforced at request ingress.
///
/// Each tenant owns a bucket holding up to `burst` tokens, refilled
/// continuously at `tokens_per_sec`; an arrival spends one token or is
/// rejected (counted in [`ControlStats::rate_limited`]). Buckets start
/// full, so a tenant's first `burst` arrivals always pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateLimit {
    /// Sustained per-tenant admission rate (tokens per second).
    pub tokens_per_sec: f64,
    /// Bucket depth: the largest burst admitted at once.
    pub burst: f64,
}

/// Autoscaler knobs: a periodic tick reads windowed per-kind PE
/// utilization and lights or darkens one station per kind per tick.
///
/// With `adaptive` false this is **static provisioning**: the fleet
/// runs with `initial_lit` stations per kind forever — the baseline an
/// adaptive run is compared against in `stats_openloop`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AutoscalerConfig {
    /// Tick period (also the utilization sampling window).
    pub interval: SimDuration,
    /// Stations of each kind lit at start, clamped to
    /// `1..=instances_per_accel`.
    pub initial_lit: usize,
    /// React to the signal. When false the lit set never changes.
    pub adaptive: bool,
    /// Light one more station of a kind when its windowed utilization
    /// (fraction of lit-PE capacity) exceeds this.
    pub light_above: f64,
    /// Darken one station of a kind when utilization falls below this
    /// (never below one lit station, and only a station whose input
    /// queue is empty — darkening never strands queued work).
    pub darken_below: f64,
}

impl AutoscalerConfig {
    /// Reasonable reactive defaults: 100 µs ticks, start at one lit
    /// station per kind, scale up past 55% utilization, down under 15%.
    pub fn reactive() -> Self {
        AutoscalerConfig {
            interval: SimDuration::from_micros(100),
            initial_lit: 1,
            adaptive: true,
            light_above: 0.55,
            darken_below: 0.15,
        }
    }

    /// Static provisioning at `lit` stations per kind: same ticks and
    /// signal, no actuation.
    pub fn static_at(lit: usize) -> Self {
        AutoscalerConfig {
            interval: SimDuration::from_micros(100),
            initial_lit: lit,
            adaptive: false,
            light_above: f64::INFINITY,
            darken_below: 0.0,
        }
    }
}

/// SLO-window tracking: completed (measured) requests are bucketed
/// into consecutive `window`-long intervals starting at warmup end; a
/// window is **met** when at least 99% of its completions finish
/// within `p99_target`. Windows with no completions are not counted.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloTarget {
    /// Window length.
    pub window: SimDuration,
    /// The per-request latency target (the "P99 ≤ target" condition).
    pub p99_target: SimDuration,
}

/// Online-control knobs, part of
/// [`MachineConfig`](crate::machine::MachineConfig). The default is
/// fully disabled: the machine then builds no control state, the hot
/// path pays one `None` check, and the event stream is bit-identical
/// to a build without the subsystem.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlConfig {
    /// Per-tenant token-bucket rate limiting at ingress.
    pub rate_limit: Option<RateLimit>,
    /// Admission ceiling: arrivals while this many requests are live
    /// are shed (counted in [`ControlStats::shed`]).
    pub max_live: Option<u64>,
    /// Telemetry-feedback station autoscaling.
    pub autoscaler: Option<AutoscalerConfig>,
    /// SLO-window compliance tracking.
    pub slo: Option<SloTarget>,
}

impl ControlConfig {
    /// The all-off default (no state, no cost, golden streams intact).
    pub fn disabled() -> Self {
        ControlConfig::default()
    }

    /// True when any mechanism is configured.
    pub fn enabled(&self) -> bool {
        self.rate_limit.is_some()
            || self.max_live.is_some()
            || self.autoscaler.is_some()
            || self.slo.is_some()
    }
}

/// Control counters reported in [`RunReport`](crate::stats::RunReport)
/// (all zeros when control is disabled). Ingress counters cover the
/// measurement window only, matching `offered`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ControlStats {
    /// Arrivals admitted past every ingress check.
    pub admitted: u64,
    /// Arrivals rejected by a tenant's empty token bucket.
    pub rate_limited: u64,
    /// Arrivals shed by the live-request admission ceiling.
    pub shed: u64,
    /// SLO windows observed (windows with ≥1 completion).
    pub slo_windows: u64,
    /// SLO windows where ≥99% of completions beat the target.
    pub slo_windows_met: u64,
    /// Stations relit by the autoscaler.
    pub scale_ups: u64,
    /// Stations darkened by the autoscaler.
    pub scale_downs: u64,
    /// Autoscaler ticks taken (rows in its utilization signal).
    pub scaler_samples: u64,
    /// Total station-time spent scaler-dark (per-station dark windows
    /// summed; initial-dark stations meter from time zero).
    pub scaler_dark_time: SimDuration,
}

impl ControlStats {
    /// All ingress rejections (rate-limited plus shed).
    pub fn rejected(&self) -> u64 {
        self.rate_limited + self.shed
    }

    /// Fraction of observed SLO windows met; 1.0 when no window was
    /// observed (an idle run violates nothing).
    pub fn slo_compliance(&self) -> f64 {
        if self.slo_windows == 0 {
            1.0
        } else {
            self.slo_windows_met as f64 / self.slo_windows as f64
        }
    }

    /// Accumulates another node's counters (cluster aggregation).
    pub fn absorb(&mut self, other: &ControlStats) {
        self.admitted += other.admitted;
        self.rate_limited += other.rate_limited;
        self.shed += other.shed;
        self.slo_windows += other.slo_windows;
        self.slo_windows_met += other.slo_windows_met;
        self.scale_ups += other.scale_ups;
        self.scale_downs += other.scale_downs;
        self.scaler_samples += other.scaler_samples;
        self.scaler_dark_time += other.scaler_dark_time;
    }
}

/// One tenant's token bucket.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TokenBucket {
    pub(crate) tokens: f64,
    pub(crate) refilled_at: SimTime,
}

/// Live control state, boxed behind an `Option` on the machine (the
/// [`FaultState`](crate::faults::FaultState) pattern): `None` when
/// [`ControlConfig`] is disabled, so the hot path pays one branch.
pub(crate) struct ControlState {
    pub(crate) cfg: ControlConfig,
    /// Token buckets dense-indexed by `TenantId.0`, grown on demand.
    pub(crate) buckets: Vec<TokenBucket>,
    /// Per-station lit flags; empty when no autoscaler is configured
    /// (every station then reads as lit).
    pub(crate) lit: Vec<bool>,
    /// When each currently-dark station went dark.
    pub(crate) dark_since: Vec<Option<SimTime>>,
    /// Cumulative per-station busy picoseconds at the previous tick,
    /// differenced into the windowed utilization signal.
    pub(crate) prev_busy: Vec<u64>,
    pub(crate) prev_tick: SimTime,
    /// The PR 3 sampler holding the per-kind utilization signal the
    /// scaling decisions read (one row per tick, `util%:<kind>`
    /// columns).
    pub(crate) signal: Sampler,
    /// Current SLO window: start, completions, completions over target.
    pub(crate) window_start: SimTime,
    pub(crate) window_total: u64,
    pub(crate) window_over: u64,
    pub(crate) stats: ControlStats,
}

impl ControlState {
    pub(crate) fn new(
        cfg: ControlConfig,
        stations: usize,
        instances_per_kind: usize,
        kind_names: &[&'static str],
        warmup_end: SimTime,
    ) -> Self {
        let (lit, dark_since) = match cfg.autoscaler {
            Some(auto) => {
                let keep = auto.initial_lit.clamp(1, instances_per_kind);
                let lit: Vec<bool> = (0..stations)
                    .map(|i| i % instances_per_kind < keep)
                    .collect();
                let dark_since = lit.iter().map(|&l| (!l).then_some(SimTime::ZERO)).collect();
                (lit, dark_since)
            }
            None => (Vec::new(), Vec::new()),
        };
        let columns = kind_names.iter().map(|k| format!("util%:{k}")).collect();
        let interval = cfg
            .autoscaler
            .map(|a| a.interval)
            .unwrap_or(SimDuration::from_millis(1));
        ControlState {
            cfg,
            buckets: Vec::new(),
            lit,
            dark_since,
            prev_busy: vec![0; stations],
            prev_tick: SimTime::ZERO,
            signal: Sampler::new(interval, columns),
            window_start: warmup_end,
            window_total: 0,
            window_over: 0,
            stats: ControlStats::default(),
        }
    }

    /// Whether the scaler may be holding stations dark (the
    /// darkness-aware dispatch paths only scan when this is true).
    #[inline]
    pub(crate) fn scaler_active(&self) -> bool {
        !self.lit.is_empty()
    }

    /// Whether `station` is lit (always true without an autoscaler).
    #[inline]
    pub(crate) fn station_lit(&self, station: usize) -> bool {
        self.lit.is_empty() || self.lit[station]
    }

    /// Spends one token from `tenant`'s bucket, refilling it first.
    /// Returns false (and leaves the bucket untouched) when the bucket
    /// is empty.
    pub(crate) fn take_token(&mut self, tenant: usize, now: SimTime) -> bool {
        let Some(rl) = self.cfg.rate_limit else {
            return true;
        };
        if tenant >= self.buckets.len() {
            self.buckets.resize(
                tenant + 1,
                TokenBucket {
                    tokens: rl.burst,
                    refilled_at: SimTime::ZERO,
                },
            );
        }
        let b = &mut self.buckets[tenant];
        let dt = now.saturating_since(b.refilled_at).as_secs_f64();
        b.tokens = (b.tokens + dt * rl.tokens_per_sec).min(rl.burst);
        b.refilled_at = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Buckets one measured completion into the current SLO window,
    /// finalizing any windows that elapsed since the last completion.
    pub(crate) fn observe_completion(&mut self, now: SimTime, latency: SimDuration) {
        let Some(slo) = self.cfg.slo else { return };
        while now >= self.window_start + slo.window {
            self.finalize_window();
            self.window_start += slo.window;
        }
        self.window_total += 1;
        if latency > slo.p99_target {
            self.window_over += 1;
        }
    }

    /// Closes the current window: a window with completions counts,
    /// and is met when over-target completions stay within 1%.
    fn finalize_window(&mut self) {
        if self.window_total == 0 {
            return;
        }
        self.stats.slo_windows += 1;
        if self.window_over * 100 <= self.window_total {
            self.stats.slo_windows_met += 1;
        }
        self.window_total = 0;
        self.window_over = 0;
    }

    /// End-of-run bookkeeping: close the trailing SLO window and meter
    /// still-dark stations through `now`.
    pub(crate) fn finalize(&mut self, now: SimTime) {
        self.finalize_window();
        for since in self.dark_since.iter_mut() {
            if let Some(at) = since.take() {
                self.stats.scaler_dark_time += now.saturating_since(at);
            }
        }
        self.stats.scaler_samples = self.signal.rows().len() as u64;
    }
}

// ----- checkpoint serialization (see docs/CHECKPOINT.md) -----

use accelflow_sim::impl_snapshot;
use accelflow_sim::snapshot::SnapshotError;

impl_snapshot! { struct RateLimit { tokens_per_sec, burst } }

impl_snapshot! {
    struct AutoscalerConfig { interval, initial_lit, adaptive, light_above, darken_below }
}

impl_snapshot! { struct SloTarget { window, p99_target } }

impl_snapshot! { struct ControlConfig { rate_limit, max_live, autoscaler, slo } }

impl_snapshot! {
    struct ControlStats {
        admitted, rate_limited, shed, slo_windows, slo_windows_met, scale_ups, scale_downs,
        scaler_samples, scaler_dark_time,
    }
}

impl_snapshot! { struct TokenBucket { tokens, refilled_at } }

// Control is deterministic (no RNG), so round-tripping the buckets,
// lit set, windowed signal, and the open SLO window is everything a
// restored run needs to keep making identical decisions.
impl_snapshot! {
    struct ControlState {
        cfg, buckets, lit, dark_since, prev_busy, prev_tick, signal, window_start, window_total,
        window_over, stats,
    } check ControlState::check_loaded
}

impl ControlState {
    /// Refuses a lit set and dark-since table of different lengths.
    fn check_loaded(&self) -> Result<(), SnapshotError> {
        if self.lit.len() != self.dark_since.len() {
            return Err(SnapshotError::Corrupt(format!(
                "lit set of {} stations with {} dark-since entries",
                self.lit.len(),
                self.dark_since.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_is_inert() {
        assert!(!ControlConfig::disabled().enabled());
        let mut cfg = ControlConfig::disabled();
        cfg.max_live = Some(10);
        assert!(cfg.enabled());
    }

    fn state(cfg: ControlConfig) -> ControlState {
        ControlState::new(cfg, 6, 3, &["a", "b"], SimTime::ZERO)
    }

    #[test]
    fn token_bucket_refills_at_rate() {
        let mut c = state(ControlConfig {
            rate_limit: Some(RateLimit {
                tokens_per_sec: 1_000.0,
                burst: 2.0,
            }),
            ..ControlConfig::default()
        });
        let t0 = SimTime::ZERO;
        // Burst of 2 passes, the third is dry.
        assert!(c.take_token(0, t0));
        assert!(c.take_token(0, t0));
        assert!(!c.take_token(0, t0));
        // 1 ms at 1000 tokens/s refills one token.
        let t1 = t0 + SimDuration::from_millis(1);
        assert!(c.take_token(0, t1));
        assert!(!c.take_token(0, t1));
        // Tenants are independent.
        assert!(c.take_token(7, t0));
    }

    #[test]
    fn slo_windows_count_and_skip_empty() {
        let mut c = state(ControlConfig {
            slo: Some(SloTarget {
                window: SimDuration::from_millis(1),
                p99_target: SimDuration::from_micros(100),
            }),
            ..ControlConfig::default()
        });
        let ms = SimDuration::from_millis(1);
        // Window 0: 3 fast completions -> met.
        for _ in 0..3 {
            c.observe_completion(SimTime::ZERO + SimDuration::from_micros(100), ms / 100);
        }
        // Windows 1..4 empty; window 5: one slow completion -> missed.
        c.observe_completion(SimTime::ZERO + ms * 5 + ms / 2, ms);
        c.finalize(SimTime::ZERO + ms * 6);
        assert_eq!(c.stats.slo_windows, 2, "empty windows are not counted");
        assert_eq!(c.stats.slo_windows_met, 1);
        assert!((c.stats.slo_compliance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn initial_lit_set_and_dark_metering() {
        let mut c = state(ControlConfig {
            autoscaler: Some(AutoscalerConfig {
                initial_lit: 2,
                ..AutoscalerConfig::reactive()
            }),
            ..ControlConfig::default()
        });
        // 2 kinds × 3 instances: stations 0,1,3,4 lit; 2,5 dark.
        assert!(c.scaler_active());
        for i in [0usize, 1, 3, 4] {
            assert!(c.station_lit(i), "station {i}");
        }
        for i in [2usize, 5] {
            assert!(!c.station_lit(i), "station {i}");
        }
        c.finalize(SimTime::ZERO + SimDuration::from_micros(10));
        assert_eq!(
            c.stats.scaler_dark_time,
            SimDuration::from_micros(20),
            "two stations dark from t=0"
        );
    }

    #[test]
    fn stats_absorb_sums() {
        let mut a = ControlStats {
            admitted: 5,
            rate_limited: 1,
            shed: 2,
            slo_windows: 4,
            slo_windows_met: 3,
            ..ControlStats::default()
        };
        let b = a.clone();
        a.absorb(&b);
        assert_eq!(a.admitted, 10);
        assert_eq!(a.rejected(), 6);
        assert!((a.slo_compliance() - 0.75).abs() < 1e-12);
    }
}
