//! Cluster-scale orchestration: a fleet of [`Machine`]s behind a
//! two-level orchestrator.
//!
//! The paper evaluates one 36-core server; microservices run on
//! fleets. This module composes N per-node machines under a single
//! *front-end dispatcher* that places every arriving request on a node
//! (one of the [`BalancerKind`] strategies), models the inter-node network
//! ([`NodeLink`]), and keep-alive-polls node health so work is
//! relocated away from fault-suspended nodes — the cluster-level
//! mirror of the per-machine sibling re-dispatch in
//! [`crate::faults`].
//!
//! # One shared kernel, not N simulations
//!
//! The whole fleet is ONE discrete-event model: a `ClusterModel` whose
//! event type wraps each node's [`Ev`] with its node id, plus a
//! keep-alive tick. Every node event flows through the one shared
//! outer [`EventQueue`], so cross-node causality (dispatch, relocation,
//! health) needs no clock synchronization protocol — there is only one
//! clock.
//!
//! Machine handlers schedule through [`Schedule`], not a concrete
//! queue. For each node event the cluster builds a `NodeSink` that
//! tags each event with the node id and pushes it straight into the
//! outer queue; past-time schedules the outer queue clamps during the
//! call are charged to the node. An [`Ev::Arrive`] is admitted through
//! a `Held` sink instead, which keeps the tagged schedules in one
//! reused `Vec` until the admission chain has placed the next arrival,
//! so the next `Arrive` always precedes the admitted request's
//! same-instant follow-ons (the order the golden event streams pin).
//! Handler calls never interleave.
//!
//! # A bare machine is a one-node fleet
//!
//! There is one run loop, one admission chain and one snapshot kind:
//! [`ClusterRun`]'s. A bare machine run
//! ([`MachineRun`](crate::machine::MachineRun),
//! [`Machine::run_arrivals`]) is a one-node, round-robin fleet over a
//! [`NodeLink::zero`] link with keep-alive off, reported as the
//! node's own [`RunReport`](crate::stats::RunReport).
//!
//! # Admission chain
//!
//! The front end holds the global arrival list and dispatches lazily:
//! arrival *k+1* is placed only when arrival *k* is delivered. Each
//! dispatch consults the balancer over all nodes, walks to the next
//! healthy node when the preferred one is suspended (counted as a
//! relocation, paying [`NodeLink::relocation_extra_hops`]), pushes the
//! payload onto the chosen machine with
//! `Machine::push_arrival`, and schedules its
//! [`Ev::Arrive`] at `max(arrival.at + link delay, now)` — FIFO
//! dispatch-queue semantics, so relocated arrivals paying extra hops
//! never time-travel.
//!
//! # Determinism
//!
//! Per-node machines are seeded `seed + node_id`; the dispatcher's own
//! randomness (weighted-random placement) draws from a private stream
//! salted off the run seed, so placement decisions never perturb any
//! node's event stream and runs are byte-deterministic at any host
//! thread count. See `docs/CLUSTER.md`.

mod balancer;
mod report;
mod snapshot;

pub use balancer::BalancerKind;
pub use report::{ClusterReport, HealthReport};
pub use snapshot::{ClusterRun, CLUSTER_SNAPSHOT_MAGIC};

use accelflow_sim::engine::{EventQueue, Schedule};
use accelflow_sim::rng::SimRng;
use accelflow_sim::time::{SimDuration, SimTime};

use crate::arrivals::Arrival;
use crate::machine::{Ev, Machine, MachineConfig};
use crate::request::ServiceSpec;

/// Salt for the dispatcher's private RNG stream — distinct from the
/// machine workload salt so cluster placement draws can never collide
/// with any node's event randomness.
const DISPATCH_RNG_SALT: u64 = 0xBA1A_4CE5;

/// Sees every delivered node event, in delivery order, before the node
/// handles it. Read-only, so it cannot perturb the run. Implemented for
/// every `FnMut(SimTime, u16, &Ev)`;
/// [`MachineRun`](crate::machine::MachineRun) adapts its one-node
/// `FnMut(SimTime, &Ev)` observers with an impl of its own.
pub trait Observe {
    /// Called with the delivery instant, the node id and the event.
    fn event(&mut self, now: SimTime, node: u16, ev: &Ev);
}

impl<F: FnMut(SimTime, u16, &Ev)> Observe for F {
    #[inline]
    fn event(&mut self, now: SimTime, node: u16, ev: &Ev) {
        self(now, node, ev)
    }
}

/// The inter-node network: per-hop switch latency plus payload
/// serialization, the two first-order terms of a datacenter fabric.
#[derive(Clone, Copy, Debug)]
pub struct NodeLink {
    /// One-way latency per switch hop.
    pub hop_latency: SimDuration,
    /// Serialization cost per payload byte (80 ps/B ≈ 100 Gb/s).
    pub ps_per_byte: u64,
    /// Bytes on the wire per dispatched request (envelope + payload).
    pub request_bytes: u64,
    /// Extra hops a relocated arrival pays on top of the direct path
    /// (the detour through the dispatcher's fallback route).
    pub relocation_extra_hops: u32,
}

impl NodeLink {
    /// A free network: zero latency, zero serialization. A bare machine
    /// run is a one-node fleet over this link.
    pub fn zero() -> Self {
        NodeLink {
            hop_latency: SimDuration::ZERO,
            ps_per_byte: 0,
            request_bytes: 0,
            relocation_extra_hops: 0,
        }
    }

    /// Typical intra-datacenter numbers: ~2 µs per switch hop,
    /// 100 Gb/s links (80 ps/byte), a 1 KiB request envelope, and a
    /// two-hop detour for relocated work.
    pub fn datacenter() -> Self {
        NodeLink {
            hop_latency: SimDuration::from_micros(2),
            ps_per_byte: 80,
            request_bytes: 1024,
            relocation_extra_hops: 2,
        }
    }

    /// Wire delay for a dispatch crossing `hops` switch hops.
    pub fn delay(&self, hops: u32) -> SimDuration {
        SimDuration::from_picos(
            self.hop_latency.as_picos() * hops as u64 + self.ps_per_byte * self.request_bytes,
        )
    }
}

/// Configuration of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Fleet size (≥ 1).
    pub nodes: usize,
    /// Per-node machine configuration (every node is identical
    /// hardware; seeds differ, so fault draws and service times
    /// diverge per node).
    pub node: MachineConfig,
    /// The inter-node network model.
    pub link: NodeLink,
    /// Placement strategy for the front-end dispatcher.
    pub balancer: BalancerKind,
    /// Dispatch weight per node for weighted-random placement. Empty
    /// means uniform; otherwise the length must equal `nodes`.
    pub weights: Vec<f64>,
    /// Keep-alive health-poll period; `None` disables polling (nodes
    /// are never suspended and no relocation happens).
    pub keepalive: Option<SimDuration>,
    /// A node is suspended while at least this many of its accelerator
    /// stations sit inside fault-stall windows (clamped to ≥ 1).
    pub suspend_dark_stations: usize,
}

impl ClusterConfig {
    /// A cluster of `nodes` identical machines over a datacenter link,
    /// round-robin placement, keep-alive polling off.
    pub fn new(nodes: usize, node: MachineConfig) -> Self {
        ClusterConfig {
            nodes,
            node,
            link: NodeLink::datacenter(),
            balancer: BalancerKind::RoundRobin,
            weights: Vec::new(),
            keepalive: None,
            suspend_dark_stations: 1,
        }
    }
}

/// Cluster events: a node's machine event tagged with its node id, or
/// the fleet-wide keep-alive tick. Module-private — the outer kernel's
/// vocabulary is an implementation detail.
#[derive(Clone, Debug)]
enum CEv {
    /// Deliver a machine event to node `.0`.
    Node(u16, Ev),
    /// Poll every node's health and re-arm the next tick.
    KeepAlive,
}

/// One node: its machine plus its fleet-side bookkeeping.
struct NodeSlot {
    machine: Machine,
    /// Past-time schedules this node's handlers made, which the outer
    /// queue clamped forward.
    clamped: u64,
    /// Set by the keep-alive poll while the node looks dark; the
    /// dispatcher routes around suspended nodes.
    suspended: bool,
}

/// One node's view of the outer queue for the length of one handler
/// call: tags each event with the node id and pushes it straight into
/// the outer queue, which clamps past-time schedules. Kept to the tag
/// and the push: every machine handler inlines it at each schedule.
struct NodeSink<'a> {
    outer: &'a mut EventQueue<CEv>,
    node: u16,
}

impl Schedule<Ev> for NodeSink<'_> {
    #[inline]
    fn now(&self) -> SimTime {
        self.outer.now()
    }

    #[inline]
    fn schedule_at(&mut self, at: SimTime, event: Ev) {
        self.outer.schedule_at(at, CEv::Node(self.node, event));
    }
}

/// A node's schedules held back, tagged, while the node admits an
/// arrival or arms, so the caller can chain the next global arrival
/// ahead of them. The outer queue clamps them when they are released.
struct Held<'a> {
    now: SimTime,
    node: u16,
    events: &'a mut Vec<(SimTime, CEv)>,
}

impl Schedule<Ev> for Held<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, event: Ev) {
        self.events.push((at, CEv::Node(self.node, event)));
    }
}

/// The fleet as one discrete-event model. See the module docs.
struct ClusterModel<O> {
    nodes: Vec<NodeSlot>,
    link: NodeLink,
    balancer: BalancerKind,
    weights: Vec<f64>,
    rr_cursor: usize,
    rng: SimRng,
    /// Undispatched arrivals, reversed so the admission chain pops the
    /// earliest next and frees each payload as it is dispatched.
    pending: Vec<Arrival>,
    keepalive: Option<SimDuration>,
    suspend_dark_stations: usize,
    health: HealthReport,
    /// Reused buffer for the per-decision live-load snapshot.
    live_scratch: Vec<u64>,
    /// Reused buffer for node schedules held until the next arrival is
    /// chained (see [`Held`]).
    held: Vec<(SimTime, CEv)>,
    observe: O,
}

impl<O> ClusterModel<O> {
    /// The fleet over `nodes` before its first dispatch: an empty
    /// backlog, the round-robin cursor at node 0, and the placement RNG
    /// salted off `seed`. [`ClusterRun::restore`] overwrites the
    /// dispatcher's dynamic fields from the snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.weights` is non-empty with a length other than
    /// `cfg.nodes`.
    fn new(cfg: &ClusterConfig, nodes: Vec<NodeSlot>, seed: u64, observe: O) -> Self {
        let weights = if cfg.weights.is_empty() {
            vec![1.0; cfg.nodes]
        } else {
            assert_eq!(
                cfg.weights.len(),
                cfg.nodes,
                "weights must match the node count"
            );
            cfg.weights.clone()
        };
        ClusterModel {
            nodes,
            link: cfg.link,
            balancer: cfg.balancer,
            weights,
            rr_cursor: 0,
            rng: SimRng::seed(seed ^ DISPATCH_RNG_SALT),
            pending: Vec::new(),
            keepalive: cfg.keepalive,
            suspend_dark_stations: cfg.suspend_dark_stations,
            health: HealthReport {
                dispatched: vec![0; cfg.nodes],
                ..HealthReport::default()
            },
            live_scratch: Vec::with_capacity(cfg.nodes),
            held: Vec::new(),
            observe,
        }
    }

    /// Places the next pending arrival: consult the balancer, route
    /// around suspended nodes, push the payload onto the target
    /// machine. Returns the event for the caller to schedule into the
    /// outer queue — `None` once the arrival list is exhausted.
    fn dispatch_next(&mut self, now: SimTime) -> Option<(SimTime, u16, u32)> {
        let arrival = self.pending.pop()?;
        self.live_scratch.clear();
        self.live_scratch
            .extend(self.nodes.iter().map(|n| n.machine.live_requests()));
        let preferred = self.balancer.pick(
            &self.live_scratch,
            &self.weights,
            &mut self.rr_cursor,
            &mut self.rng,
            arrival.service,
        );
        debug_assert!(preferred < self.nodes.len(), "balancer picked {preferred}");
        let (target, hops) = if self.nodes[preferred].suspended {
            // Walk forward from the preferred node to the next healthy
            // one; if the whole fleet is dark, the preferred node keeps
            // the work (it will queue behind the stall).
            let healthy = (1..self.nodes.len())
                .map(|d| (preferred + d) % self.nodes.len())
                .find(|&i| !self.nodes[i].suspended);
            match healthy {
                Some(t) => {
                    self.health.relocations += 1;
                    (t, 1 + self.link.relocation_extra_hops)
                }
                None => (preferred, 1),
            }
        } else {
            (preferred, 1)
        };
        // FIFO dispatch-queue semantics: the wire delay is paid from
        // the arrival instant, but admission never precedes the
        // dispatch decision itself.
        let at = (arrival.at + self.link.delay(hops)).max(now);
        self.health.dispatched[target] += 1;
        let local = self.nodes[target].machine.push_arrival(arrival);
        Some((at, target as u16, local))
    }

    /// Schedules the next global arrival on `outer`, then releases the
    /// node schedules held behind it.
    fn chain_next_arrival(&mut self, now: SimTime, outer: &mut EventQueue<CEv>) {
        if let Some((at, target, local)) = self.dispatch_next(now) {
            outer.schedule_at(at, CEv::Node(target, Ev::Arrive(local)));
        }
        for (at, event) in self.held.drain(..) {
            outer.schedule_at(at, event);
        }
    }

    /// Keep-alive round: re-arm the next tick, then poll every node's
    /// dark-station count against the suspension threshold.
    fn on_keepalive(&mut self, now: SimTime, outer: &mut EventQueue<CEv>) {
        self.health.polls += 1;
        let tick = self
            .keepalive
            .expect("keep-alive tick fired with polling disabled");
        outer.schedule_at(now + tick, CEv::KeepAlive);
        let threshold = self.suspend_dark_stations.max(1);
        for node in &mut self.nodes {
            let unhealthy = node.machine.dark_stations(now) >= threshold;
            if unhealthy != node.suspended {
                node.suspended = unhealthy;
                if unhealthy {
                    self.health.suspensions += 1;
                } else {
                    self.health.recoveries += 1;
                }
            }
        }
    }
}

impl<O: Observe> ClusterModel<O> {
    /// Delivers one fleet event, scheduling follow-ons on `outer`.
    #[inline(always)]
    fn handle(&mut self, now: SimTime, event: CEv, outer: &mut EventQueue<CEv>) {
        match event {
            CEv::Node(i, ev) => {
                self.observe.event(now, i, &ev);
                let before = outer.clamped();
                let machine = &mut self.nodes[i as usize].machine;
                if let Ev::Arrive(idx) = ev {
                    let mut held = Held {
                        now,
                        node: i,
                        events: &mut self.held,
                    };
                    machine.admit(now, idx, &mut held);
                    // The next Arrive goes ahead of the admitted
                    // request's follow-ons; the golden streams pin
                    // that sequence. Dispatch never clamps, so every
                    // clamp below is the node's.
                    self.chain_next_arrival(now, outer);
                } else {
                    machine.handle_event(now, ev, &mut NodeSink { outer, node: i });
                }
                self.nodes[i as usize].clamped += outer.clamped() - before;
            }
            CEv::KeepAlive => self.on_keepalive(now, outer),
        }
    }
}

/// Entry points for cluster runs (the fleet-level analog of
/// [`Machine::run_workload`] and friends).
pub struct Cluster;

impl Cluster {
    /// Convenience runner: one Poisson arrival stream at
    /// `rps_per_service` for each service, placed across the fleet.
    ///
    /// ```
    /// use accelflow_core::cluster::{Cluster, ClusterConfig};
    /// use accelflow_core::machine::MachineConfig;
    /// use accelflow_core::policy::Policy;
    /// use accelflow_core::request::{CallSpec, ServiceSpec, StageSpec};
    /// use accelflow_sim::time::SimDuration;
    /// use accelflow_trace::templates::TemplateId;
    ///
    /// let svc = ServiceSpec::new(
    ///     "Ping",
    ///     vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
    /// );
    /// let mut node = MachineConfig::new(Policy::AccelFlow);
    /// node.warmup = SimDuration::from_millis(1);
    /// let cfg = ClusterConfig::new(2, node);
    /// let report =
    ///     Cluster::run_workload(&cfg, &[svc], 500.0, SimDuration::from_millis(5), 7);
    /// assert!(report.offered() > 0);
    /// assert!(report.completion_ratio() > 0.99);
    /// ```
    pub fn run_workload(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        rps_per_service: f64,
        duration: SimDuration,
        seed: u64,
    ) -> ClusterReport {
        let arrivals = cfg
            .node
            .poisson_arrivals(services, rps_per_service, duration, seed);
        Self::run_arrivals(cfg, services, arrivals, duration, seed)
    }

    /// Runs a pre-generated arrival list through the fleet.
    pub fn run_arrivals(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
    ) -> ClusterReport {
        Self::run_arrivals_observed(cfg, services, arrivals, duration, seed, |_, _, _| {})
    }

    /// [`Cluster::run_arrivals`] with a per-node event observer:
    /// `observe(now, node, event)` fires for every delivered node
    /// event, in delivery order, before the node handles it. Read-only
    /// — this anchors the four-node fleet pins the same way
    /// [`Machine::run_arrivals_observed`] anchors the golden streams.
    ///
    /// One-shot wrapper over [`ClusterRun`]; hold the run open instead
    /// when you need mid-run checkpoints.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.nodes` is zero or `cfg.weights` is non-empty
    /// with a length other than `cfg.nodes`.
    pub fn run_arrivals_observed(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
        observe: impl FnMut(SimTime, u16, &Ev),
    ) -> ClusterReport {
        ClusterRun::start(cfg, services, arrivals, duration, seed, observe).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::request::{CallSpec, StageSpec};
    use accelflow_trace::templates::TemplateId;

    fn ping() -> ServiceSpec {
        ServiceSpec::new("Ping", vec![StageSpec::Call(CallSpec::new(TemplateId::T1))])
    }

    fn node_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(1);
        cfg.audit = true;
        cfg
    }

    /// Every pending event sits in the key heap's payload slab, so an
    /// event field that grows `Ev` past 24 bytes grows every slot of
    /// it, and `CEv` wraps `Ev` with the node id in 32.
    #[test]
    fn events_stay_within_their_slot_sizes() {
        let (ev, cev) = (std::mem::size_of::<Ev>(), std::mem::size_of::<CEv>());
        assert!(ev <= 24, "Ev is {ev} bytes");
        assert!(cev <= 32, "CEv is {cev} bytes");
    }

    #[test]
    fn link_delay_components() {
        let zero = NodeLink::zero();
        assert_eq!(zero.delay(1), SimDuration::ZERO);
        assert_eq!(zero.delay(4), SimDuration::ZERO);
        let dc = NodeLink::datacenter();
        let one = dc.delay(1);
        let three = dc.delay(3);
        // Serialization is paid once; hops scale linearly.
        assert_eq!(
            three.as_picos() - one.as_picos(),
            2 * dc.hop_latency.as_picos()
        );
        assert!(one > dc.hop_latency, "serialization term must be non-zero");
    }

    #[test]
    fn fleet_completes_offered_load() {
        let cfg = ClusterConfig::new(3, node_cfg());
        let report = Cluster::run_workload(&cfg, &[ping()], 600.0, SimDuration::from_millis(5), 7);
        assert!(report.offered() > 0);
        assert!(report.completion_ratio() > 0.99, "{report:?}");
        assert_eq!(report.clamped, 0, "cluster layer must never time-travel");
        // Round-robin spreads a uniform stream near-evenly.
        assert!(report.dispatch_imbalance() < 1.5);
        // Every dispatched arrival is accounted to some node.
        let dispatched: u64 = report.health.dispatched.iter().sum();
        let admitted: u64 = report
            .per_node
            .iter()
            .flat_map(|r| &r.per_service)
            .map(|s| s.offered)
            .sum();
        assert!(dispatched >= admitted, "{dispatched} < {admitted}");
        for node in &report.per_node {
            assert!(node.audit.is_clean(), "{:?}", node.audit);
        }
    }

    #[test]
    fn every_balancer_runs_and_dispatches_everything() {
        for kind in BalancerKind::ALL {
            let mut cfg = ClusterConfig::new(4, node_cfg());
            cfg.balancer = kind;
            let report =
                Cluster::run_workload(&cfg, &[ping()], 400.0, SimDuration::from_millis(4), 9);
            assert!(report.completed() > 0, "{kind} completed nothing");
            assert_eq!(report.health.relocations, 0, "no faults, no relocation");
        }
    }

    #[test]
    fn keepalive_polls_at_the_configured_period() {
        let mut cfg = ClusterConfig::new(2, node_cfg());
        cfg.keepalive = Some(SimDuration::from_micros(500));
        let report = Cluster::run_workload(&cfg, &[ping()], 200.0, SimDuration::from_millis(4), 5);
        // 4 ms window + 30 ms drain at 0.5 ms/tick: the poll count lands
        // in the mid-tens; pin the order of magnitude, not the exact
        // count (the final tick races the drain deadline).
        assert!(
            (30..=80).contains(&report.health.polls),
            "polls = {}",
            report.health.polls
        );
        assert_eq!(report.health.suspensions, 0, "no faults, no suspensions");
    }

    #[test]
    fn per_node_control_arms_and_aggregates() {
        let mut node = node_cfg();
        node.instances_per_accel = 4;
        node.control.rate_limit = Some(crate::control::RateLimit {
            tokens_per_sec: 20_000.0,
            burst: 4.0,
        });
        node.control.autoscaler = Some(crate::control::AutoscalerConfig::static_at(2));
        let cfg = ClusterConfig::new(3, node);
        let report =
            Cluster::run_workload(&cfg, &[ping()], 150_000.0, SimDuration::from_millis(4), 21);
        let control = report.control();
        // Each node's ingress throttles independently...
        assert!(report.per_node.iter().all(|n| n.control.rate_limited > 0));
        // ...and the fleet view sums them.
        assert_eq!(
            control.rate_limited,
            report.per_node.iter().map(|n| n.control.rate_limited).sum()
        );
        assert!(control.admitted > 0);
        // The per-node tick chains ran (armed through the outer kernel).
        assert!(control.scaler_samples > 0, "{control:?}");
        assert!(control.scaler_dark_time > SimDuration::ZERO);
        for node in &report.per_node {
            assert!(node.audit.is_clean(), "{:?}", node.audit);
        }
    }

    #[test]
    #[should_panic(expected = "weights must match the node count")]
    fn mismatched_weights_are_rejected() {
        let mut cfg = ClusterConfig::new(3, node_cfg());
        cfg.weights = vec![1.0, 2.0];
        let _ = Cluster::run_workload(&cfg, &[ping()], 100.0, SimDuration::from_millis(2), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_is_rejected() {
        let cfg = ClusterConfig::new(0, node_cfg());
        let _ = Cluster::run_workload(&cfg, &[ping()], 100.0, SimDuration::from_millis(2), 1);
    }
}
