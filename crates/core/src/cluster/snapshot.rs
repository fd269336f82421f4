//! The resumable [`ClusterRun`] handle — the one run loop, admission
//! chain and snapshot decoder; [`MachineRun`](crate::machine::MachineRun)
//! is its one-node view — and its checkpoint/restore.
//!
//! A snapshot nests every node's machine state (headerless, via the
//! crate-internal machine serializer) plus its clamp count under ONE
//! header, alongside the dispatcher's own
//! dynamics: the undispatched arrival backlog, the round-robin cursor,
//! the placement RNG, suspension flags, health counters, and the
//! shared outer event queue. Restoring rebuilds the fleet from the
//! same [`ClusterConfig`] and resumes byte-identically; the header's
//! configuration hash refuses anything else. Format details in
//! `docs/CHECKPOINT.md`.

use accelflow_sim::engine::EventQueue;
use accelflow_sim::snapshot::{
    check_header, write_header, SnapReader, SnapWriter, Snapshot, SnapshotError,
};
use accelflow_sim::time::{SimDuration, SimTime};

use crate::arrivals::Arrival;
use crate::machine::{config_hash, service_names, Ev, Machine, DRAIN_MARGIN};
use crate::request::ServiceSpec;

use super::{
    CEv, ClusterConfig, ClusterModel, ClusterReport, HealthReport, Held, NodeSlot, Observe,
};

/// Leading magic bytes of a run snapshot. Every run is a fleet, so
/// this is the only snapshot kind.
pub const CLUSTER_SNAPSHOT_MAGIC: [u8; 4] = *b"AFCS";

accelflow_sim::impl_snapshot! {
    struct HealthReport { polls, suspensions, recoveries, relocations, dispatched }
}

accelflow_sim::impl_snapshot! { enum CEv { 0 => Node(node, ev), 1 => KeepAlive } }

/// A fleet run held open for stepwise control: run to an instant,
/// snapshot, append arrivals, resume, finish.
/// [`Cluster::run_arrivals`](super::Cluster::run_arrivals) and friends
/// are one-shot wrappers over this, and so is every bare machine run
/// (see [`MachineRun`](crate::machine::MachineRun)).
///
/// The observer `O` sees every delivered node event in delivery order,
/// before the node handles it — pass `|_, _, _| {}` when the event
/// stream is not needed.
pub struct ClusterRun<O> {
    model: ClusterModel<O>,
    queue: EventQueue<CEv>,
    /// Arrival horizon (the measurement window end; excludes drain).
    end: SimTime,
    /// Configuration-identity hash, computed once at start/restore and
    /// stamped into every snapshot header.
    cfg_hash: u64,
}

impl<F: FnMut(SimTime, u16, &Ev)> ClusterRun<F> {
    /// Opens a fleet run over a pre-generated arrival list (the
    /// stepwise form of
    /// [`Cluster::run_arrivals_observed`](super::Cluster::run_arrivals_observed)).
    /// Arrivals stop at `duration`; [`ClusterRun::finish`] grants the
    /// drain margin.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.nodes` is zero, exceeds `u16::MAX`, or
    /// `cfg.weights` is non-empty with a length other than `cfg.nodes`.
    pub fn start(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
        observe: F,
    ) -> Self {
        Self::open(cfg, services, arrivals, duration, seed, observe)
    }

    /// Reopens a run from [`ClusterRun::snapshot`] bytes, rebuilding
    /// the fleet from `cfg` + `services`. The restored run continues
    /// exactly where the saved one stood; extend it with
    /// [`ClusterRun::append_arrivals`] for warm-started sweeps. Refuses
    /// snapshots whose magic, schema version, or configuration hash
    /// does not match, and returns a [`SnapshotError`] (never a panic)
    /// for any other malformed bytes.
    pub fn restore(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        bytes: &[u8],
        observe: F,
    ) -> Result<Self, SnapshotError> {
        Self::reopen(cfg, services, bytes, observe)
    }
}

impl<O: Observe> ClusterRun<O> {
    /// [`ClusterRun::start`] for any [`Observe`] impl.
    pub(crate) fn open(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
        observe: O,
    ) -> Self {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        assert!(
            cfg.nodes <= u16::MAX as usize,
            "node ids are u16: at most {} nodes",
            u16::MAX
        );
        let names = service_names(services);
        let end = SimTime::ZERO + duration;
        let nodes = (0..cfg.nodes)
            .map(|i| NodeSlot {
                // Per-node seeds are consecutive so node 0 of a
                // one-node cluster draws the exact streams a bare
                // machine at `seed` would.
                machine: Machine::new(
                    cfg.node.clone(),
                    names.clone(),
                    end,
                    seed.wrapping_add(i as u64),
                ),
                clamped: 0,
                suspended: false,
            })
            .collect();
        let mut model = ClusterModel::new(cfg, nodes, seed, observe);
        model.pending = arrivals;
        model.pending.reverse();
        let mut queue = EventQueue::with_capacity(0);

        // Seeding order: the first arrival, then each node's
        // `Machine::arm` schedules, then the first keep-alive tick. The
        // nodes arm before the first dispatch, while none of them holds
        // an arrival, into the held buffer the first arrival is chained
        // ahead of.
        for (i, node) in model.nodes.iter_mut().enumerate() {
            node.machine.arm(&mut Held {
                now: SimTime::ZERO,
                node: i as u16,
                events: &mut model.held,
            });
        }
        model.chain_next_arrival(SimTime::ZERO, &mut queue);
        if let Some(tick) = cfg.keepalive {
            queue.schedule_at(SimTime::ZERO + tick, CEv::KeepAlive);
        }
        ClusterRun {
            model,
            queue,
            end,
            cfg_hash: config_hash(cfg, &names),
        }
    }

    /// [`ClusterRun::restore`] for any [`Observe`] impl.
    pub(crate) fn reopen(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        bytes: &[u8],
        observe: O,
    ) -> Result<Self, SnapshotError> {
        let names = service_names(services);
        let cfg_hash = config_hash(cfg, &names);
        let mut r = SnapReader::new(bytes);
        check_header(&mut r, CLUSTER_SNAPSHOT_MAGIC, cfg_hash)?;
        let end = SimTime::load(&mut r)?;

        let node_count = r.seq_len()?;
        if node_count != cfg.nodes {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {node_count} nodes, config builds {}",
                cfg.nodes
            )));
        }
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let machine = Machine::restore_dynamic(&cfg.node, &names, &mut r)?;
            let clamped = r.u64()?;
            let suspended = r.bool()?;
            nodes.push(NodeSlot {
                machine,
                clamped,
                suspended,
            });
        }

        let mut model = ClusterModel::new(cfg, nodes, 0, observe);
        model.rr_cursor = r.usize()?;
        if model.rr_cursor >= cfg.nodes {
            // The cursor is always the index of the last node picked.
            return Err(SnapshotError::Corrupt(format!(
                "round-robin cursor {} on a {}-node fleet",
                model.rr_cursor, cfg.nodes
            )));
        }
        model.rng = Snapshot::load(&mut r)?;
        model.pending = Snapshot::load(&mut r)?;
        if let Some(a) = model.pending.iter().find(|a| a.service.0 >= names.len()) {
            return Err(SnapshotError::Corrupt(format!(
                "an undispatched arrival of service {} of {}",
                a.service.0,
                names.len()
            )));
        }
        model.health = Snapshot::load(&mut r)?;
        if model.health.dispatched.len() != cfg.nodes {
            return Err(SnapshotError::Corrupt(format!(
                "dispatch counters cover {} nodes, config builds {}",
                model.health.dispatched.len(),
                cfg.nodes
            )));
        }
        let nodes = &model.nodes;
        let queue = EventQueue::load_snapshot_checked(&mut r, |ev| match ev {
            CEv::Node(node, ev) => match nodes.get(*node as usize) {
                Some(slot) => slot.machine.check_pending(ev),
                None => Err(SnapshotError::Corrupt(format!(
                    "an event for node {node} of {}",
                    nodes.len()
                ))),
            },
            CEv::KeepAlive => Ok(()),
        })?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the outer event queue",
                bytes.len() - r.position()
            )));
        }
        Ok(ClusterRun {
            model,
            queue,
            end,
            cfg_hash,
        })
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Delivers every event strictly before `t`.
    pub fn run_to(&mut self, t: SimTime) {
        let model = &mut self.model;
        self.queue
            .run_until(t, |now, event, outer| model.handle(now, event, outer));
    }

    /// Takes a versioned snapshot of the whole fleet and its pending
    /// events. The run is not disturbed and may keep going.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let (model, outer) = (&self.model, &mut self.queue);
        let mut w = SnapWriter::new();
        write_header(&mut w, CLUSTER_SNAPSHOT_MAGIC, self.cfg_hash);
        self.end.save(&mut w);
        w.usize(model.nodes.len());
        for node in &model.nodes {
            node.machine.save_dynamic(&mut w);
            w.u64(node.clamped);
            w.bool(node.suspended);
        }
        w.usize(model.rr_cursor);
        model.rng.save(&mut w);
        model.pending.save(&mut w);
        model.health.save(&mut w);
        outer.save_snapshot(&mut w);
        w.into_bytes()
    }

    /// Appends later arrivals to a (typically restored) run and extends
    /// the horizon to `new_end` — the warm-start fork: simulate the
    /// shared prefix once, snapshot, then fork one restored copy per
    /// grid point and feed each its own tail.
    ///
    /// `tail` must be time-sorted and entirely at-or-after both the
    /// current clock and every undispatched arrival (it is a *tail*).
    /// If the admission chain already drained, the first appended
    /// arrival is dispatched at once, which re-arms it.
    pub fn append_arrivals(&mut self, tail: Vec<Arrival>, new_end: SimTime) {
        self.end = self.end.max(new_end);
        let model = &mut self.model;
        for node in &mut model.nodes {
            node.machine.extend_end(new_end);
        }
        if tail.is_empty() {
            return;
        }
        debug_assert!(tail.windows(2).all(|w| w[0].at <= w[1].at), "tail sorted");
        debug_assert!(
            model
                .pending
                .first()
                .is_none_or(|last| last.at <= tail[0].at),
            "tail starts after every undispatched arrival"
        );
        // An undispatched backlog implies an Arrive in flight, so the
        // chain drained exactly when no node holds a pushed arrival.
        let drained = !model.nodes.iter().any(|n| n.machine.holds_arrival());
        // The backlog is stored reversed (earliest at the back); the
        // tail is later than all of it, so its reversed form goes in
        // front.
        let mut merged = tail;
        merged.reverse();
        merged.append(&mut model.pending);
        model.pending = merged;
        if drained {
            model.chain_next_arrival(self.queue.now(), &mut self.queue);
        }
    }

    /// Runs through the drain window past the horizon and extracts the
    /// fleet report.
    pub fn finish(mut self) -> ClusterReport {
        self.run_to(self.end + DRAIN_MARGIN);
        let now = self.queue.now();
        // The outer queue clamped the nodes' past-time schedules too;
        // what is left is the dispatcher's own.
        let node_clamps: u64 = self.model.nodes.iter().map(|n| n.clamped).sum();
        let per_node = self
            .model
            .nodes
            .into_iter()
            .map(|slot| {
                let mut report = slot.machine.into_run_report(now, self.end);
                report.totals.clamped_events = slot.clamped;
                report
            })
            .collect();
        ClusterReport {
            per_node,
            health: self.model.health,
            events: self.queue.delivered(),
            clamped: self.queue.clamped().saturating_sub(node_clamps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{HopArrival, MachineConfig};
    use crate::policy::Policy;
    use crate::request::{CallSpec, StageSpec};
    use accelflow_trace::templates::TemplateId;

    fn ping() -> [ServiceSpec; 1] {
        [ServiceSpec::new(
            "Ping",
            vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
        )]
    }

    /// Splits a `nodes`-node run at `split_ms` and appends the same
    /// 4 ms tail twice: once to the run itself, once to a copy
    /// restored from its snapshot. Both must deliver the same events
    /// after the split and report the same. The prefix offers arrivals
    /// until `prefix_ms`, so a split before that leaves the admission
    /// chain live and one after it leaves the chain drained, for the
    /// append to re-arm.
    fn append_after_restore_matches(nodes: usize, prefix_ms: u64, split_ms: u64) {
        let mut node = MachineConfig::new(Policy::AccelFlow);
        node.warmup = SimDuration::from_millis(1);
        node.audit = true;
        let cfg = ClusterConfig::new(nodes, node);
        let services = ping();
        let rps = 1_500.0 * nodes as f64;
        let horizon = SimDuration::from_millis(prefix_ms);
        let prefix = cfg.node.poisson_arrivals(&services, rps, horizon, 3);
        let split = SimTime::ZERO + SimDuration::from_millis(split_ms);
        let shift = SimDuration::from_millis(prefix_ms.max(split_ms));
        let window = SimDuration::from_millis(4);
        let tail: Vec<Arrival> = cfg
            .node
            .poisson_arrivals(&services, rps, window, 5)
            .into_iter()
            .map(|a| Arrival {
                at: a.at + shift,
                ..a
            })
            .collect();
        let end = SimTime::ZERO + shift + window;
        let line = |now: SimTime, node: u16, ev: &Ev| format!("{now:?}|{node}|{ev:?}");

        let mut in_place = Vec::new();
        let mut run = ClusterRun::start(&cfg, &services, prefix, horizon, 3, |now, node, ev| {
            if now >= split {
                in_place.push(line(now, node, ev));
            }
        });
        run.run_to(split);
        let live = split_ms < prefix_ms;
        assert_eq!(
            run.model.nodes.iter().any(|n| n.machine.holds_arrival()),
            live,
            "the split must leave the chain {}",
            if live { "live" } else { "drained" }
        );
        let bytes = run.snapshot();
        run.append_arrivals(tail.clone(), end);
        let straight = run.finish();

        let mut restored = Vec::new();
        let mut fork = ClusterRun::restore(&cfg, &services, &bytes, |now, node, ev| {
            restored.push(line(now, node, ev));
        })
        .expect("snapshot restores");
        fork.append_arrivals(tail, end);
        let forked = fork.finish();

        let tail_arrivals = in_place.iter().filter(|l| l.contains("|Arrive(")).count();
        assert!(tail_arrivals > 4, "the tail was never admitted");
        assert!(
            in_place == restored,
            "event streams diverged after the split"
        );
        assert_eq!(format!("{straight:?}"), format!("{forked:?}"));
        for node in &straight.per_node {
            assert!(node.audit.is_clean(), "{:?}", node.audit);
        }
    }

    #[test]
    fn append_after_restore_matches_on_one_node() {
        append_after_restore_matches(1, 6, 3);
        append_after_restore_matches(1, 3, 4);
    }

    #[test]
    fn append_after_restore_matches_on_four_nodes() {
        append_after_restore_matches(4, 6, 3);
        append_after_restore_matches(4, 3, 4);
    }

    #[test]
    fn restore_rejects_a_round_robin_cursor_past_the_fleet() {
        let services = ping();
        let cfg = ClusterConfig::new(3, MachineConfig::new(Policy::AccelFlow));
        let duration = SimDuration::from_millis(2);
        let arrivals = cfg.node.poisson_arrivals(&services, 500.0, duration, 1);
        for cursor in [cfg.nodes, usize::MAX] {
            let mut run =
                ClusterRun::start(&cfg, &services, arrivals.clone(), duration, 1, |_, _, _| {});
            run.model.rr_cursor = cursor;
            let bytes = run.snapshot();
            match ClusterRun::restore(&cfg, &services, &bytes, |_, _, _| {}) {
                Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("cursor"), "{msg}"),
                other => panic!("cursor {cursor}: expected Corrupt, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn restore_rejects_an_undispatched_arrival_past_the_services() {
        let services = ping();
        let cfg = ClusterConfig::new(2, MachineConfig::new(Policy::AccelFlow));
        let duration = SimDuration::from_millis(2);
        let arrivals = cfg.node.poisson_arrivals(&services, 5_000.0, duration, 1);
        let mut run = ClusterRun::start(&cfg, &services, arrivals, duration, 1, |_, _, _| {});
        run.model.pending[0].service = crate::request::ServiceId(1);
        let bytes = run.snapshot();
        match ClusterRun::restore(&cfg, &services, &bytes, |_, _, _| {}) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("service 1 of 1"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }

    /// The pending hop arrivals of `run`'s outer queue, read through
    /// the queue's own decoder.
    fn pending_hop_arrivals<O: Observe>(run: &mut ClusterRun<O>) -> Vec<HopArrival> {
        let mut w = SnapWriter::new();
        run.queue.save_snapshot(&mut w);
        let bytes = w.into_bytes();
        let mut found = Vec::new();
        EventQueue::<CEv>::load_snapshot_checked(&mut SnapReader::new(&bytes), |ev| {
            if let CEv::Node(_, Ev::HopArrive(arrival)) = ev {
                found.push(*arrival);
            }
            Ok(())
        })
        .expect("the queue's own bytes load");
        found
    }

    fn save_bytes(value: &impl Snapshot) -> Vec<u8> {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_a_hop_arrival_size_off_the_walk() {
        let services = ping();
        let mut node = MachineConfig::new(Policy::AccelFlow);
        node.warmup = SimDuration::from_millis(1);
        let cfg = ClusterConfig::new(1, node);
        let duration = SimDuration::from_millis(4);
        let arrivals = cfg.node.poisson_arrivals(&services, 20_000.0, duration, 7);
        let mut run = ClusterRun::start(&cfg, &services, arrivals, duration, 7, |_, _, _| {});
        // Step until a payload is in flight between two hops.
        let mut at = SimTime::ZERO;
        let arrival = loop {
            at += SimDuration::from_micros(1);
            assert!(
                at < SimTime::ZERO + duration,
                "no hop arrival was ever pending"
            );
            run.run_to(at);
            if let Some(&arrival) = pending_hop_arrivals(&mut run).first() {
                break arrival;
            }
        };
        let mut bytes = run.snapshot();
        ClusterRun::restore(&cfg, &services, &bytes, |_, _, _| {})
            .expect("the run's own bytes restore");
        let (good, bad) = (
            save_bytes(&CEv::Node(0, Ev::HopArrive(arrival))),
            save_bytes(&CEv::Node(
                0,
                Ev::hop_arrive(arrival.addr, arrival.in_bytes + 1),
            )),
        );
        let at = bytes
            .windows(good.len())
            .position(|w| w == good)
            .expect("the pending arrival is in the snapshot's bytes");
        bytes[at..at + bad.len()].copy_from_slice(&bad);
        match ClusterRun::restore(&cfg, &services, &bytes, |_, _, _| {}) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("hop arrival"), "{msg}"),
            other => panic!("expected Corrupt, got {:?}", other.err()),
        }
    }

    #[test]
    fn restore_rejects_events_the_fleet_cannot_deliver() {
        let services = ping();
        let cfg = ClusterConfig::new(1, MachineConfig::new(Policy::AccelFlow));
        let duration = SimDuration::from_millis(2);
        let arrivals = cfg.node.poisson_arrivals(&services, 5_000.0, duration, 1);
        let mut run = ClusterRun::start(&cfg, &services, arrivals, duration, 1, |_, _, _| {});
        let bytes = run.snapshot();
        // The outer queue closes the snapshot: its clock and three
        // counts, then each pending `(time, event)` in delivery order.
        let mut w = SnapWriter::new();
        run.queue.save_snapshot(&mut w);
        let queue_at = bytes.len() - w.into_bytes().len();
        let first = queue_at + 5 * 8;
        let mut events = Vec::new();
        let queue = &bytes[queue_at..];
        EventQueue::<CEv>::load_snapshot_checked(&mut SnapReader::new(queue), |ev| {
            events.push(ev.clone());
            Ok(())
        })
        .expect("the run's own queue loads");
        let good = save_bytes(&events[0]);
        assert_eq!(bytes[first..first + good.len()], good[..]);
        let idle_pe = Ev::PeDone {
            addr: crate::request::CallAddr::from_tag(0),
            accel: 0,
            pe: 0,
            busy_ps: 1,
        };
        for (event, what) in [
            (CEv::Node(1, Ev::Arrive(0)), "node 1"),
            (CEv::Node(0, idle_pe), "idle PE"),
        ] {
            let mut spliced = bytes[..first].to_vec();
            spliced.extend(save_bytes(&event));
            spliced.extend(&bytes[first + good.len()..]);
            match ClusterRun::restore(&cfg, &services, &spliced, |_, _, _| {}) {
                Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
                other => panic!("{what}: expected Corrupt, got {:?}", other.err()),
            }
        }
    }
}
