//! Cluster-level checkpoint/restore and the resumable [`ClusterRun`]
//! handle — the fleet analog of
//! [`MachineRun`](crate::machine::MachineRun).
//!
//! A cluster snapshot nests every node's machine state (headerless,
//! via the crate-internal machine serializer) plus its clamp-count
//! record under ONE header, alongside the dispatcher's own
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

use super::{CEv, ClusterConfig, ClusterModel, ClusterReport, HealthReport, NodeSink, NodeSlot};

/// Leading magic bytes of a cluster snapshot — distinct from the
/// machine magic so the two snapshot kinds can never be confused.
pub const CLUSTER_SNAPSHOT_MAGIC: [u8; 4] = *b"AFCS";

accelflow_sim::impl_snapshot! {
    struct HealthReport { polls, suspensions, recoveries, relocations, dispatched }
}

accelflow_sim::impl_snapshot! { enum CEv { 0 => Node(node, ev), 1 => KeepAlive } }

/// Writes a node's per-node queue record. Nodes schedule straight into
/// the outer queue, so the record is always an empty event queue (the
/// [`EventQueue::save_snapshot`] layout: clock, delivered count, clamp
/// count, zero pending events) that carries the node's clamp count.
/// Keeping the layout keeps `SCHEMA_VERSION` and older snapshots
/// valid.
fn save_node_queue(w: &mut SnapWriter, now: SimTime, clamped: u64) {
    now.save(w);
    w.u64(0);
    w.u64(clamped);
    w.usize(0);
}

/// Reads a [`save_node_queue`] record and returns the clamp count. A
/// record holding pending events belongs to no run this code can
/// resume and is rejected.
fn load_node_queue(r: &mut SnapReader<'_>) -> Result<u64, SnapshotError> {
    SimTime::load(r)?;
    r.u64()?;
    let clamped = r.u64()?;
    match r.seq_len()? {
        0 => Ok(clamped),
        n => Err(SnapshotError::Corrupt(format!(
            "node queue record holds {n} pending events"
        ))),
    }
}

/// A cluster run held open for stepwise control: run to an instant,
/// snapshot, resume, finish.
/// [`Cluster::run_arrivals`](super::Cluster::run_arrivals) and friends
/// are one-shot wrappers over this, exactly as
/// [`Machine::run_arrivals`](crate::machine::Machine::run_arrivals)
/// wraps [`MachineRun`](crate::machine::MachineRun).
pub struct ClusterRun<F: FnMut(SimTime, u16, &Ev)> {
    model: ClusterModel<F>,
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
                    Vec::new(),
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

        // Seeding order mirrors a bare machine run: the first arrival,
        // then each node's `Machine::arm` schedules, then (cluster-only)
        // the first keep-alive tick. The nodes arm before the first
        // dispatch, while none of them holds an arrival, into the held
        // buffer the first arrival is chained ahead of.
        for (i, node) in model.nodes.iter_mut().enumerate() {
            node.machine.arm(&mut NodeSink {
                outer: &mut queue,
                node: i as u16,
                clamped: &mut node.clamped,
                held: Some(&mut model.held),
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

    /// Reopens a run from [`ClusterRun::snapshot`] bytes. Refuses
    /// snapshots whose magic, schema version, or configuration hash
    /// does not match.
    pub fn restore(
        cfg: &ClusterConfig,
        services: &[ServiceSpec],
        bytes: &[u8],
        observe: F,
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
            let clamped = load_node_queue(&mut r)?;
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
        model.health = Snapshot::load(&mut r)?;
        if model.health.dispatched.len() != cfg.nodes {
            return Err(SnapshotError::Corrupt(format!(
                "dispatch counters cover {} nodes, config builds {}",
                model.health.dispatched.len(),
                cfg.nodes
            )));
        }
        let queue = EventQueue::load_snapshot(&mut r)?;
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
            save_node_queue(&mut w, outer.now(), node.clamped);
            w.bool(node.suspended);
        }
        w.usize(model.rr_cursor);
        model.rng.save(&mut w);
        model.pending.save(&mut w);
        model.health.save(&mut w);
        outer.save_snapshot(&mut w);
        w.into_bytes()
    }

    /// Runs through the drain window past the horizon and extracts the
    /// fleet report.
    pub fn finish(mut self) -> ClusterReport {
        self.run_to(self.end + DRAIN_MARGIN);
        let now = self.queue.now();
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
            clamped: self.queue.clamped(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_queue_record_keeps_the_empty_event_queue_layout() {
        let mut w = SnapWriter::new();
        EventQueue::<Ev>::with_capacity(0).save_snapshot(&mut w);
        let mut record = SnapWriter::new();
        save_node_queue(&mut record, SimTime::ZERO, 0);
        assert_eq!(record.into_bytes(), w.into_bytes());

        let mut w = SnapWriter::new();
        save_node_queue(&mut w, SimTime::from_picos(5_000), 7);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(load_node_queue(&mut r).unwrap(), 7);
        assert!(r.is_exhausted());
    }

    #[test]
    fn restore_rejects_a_round_robin_cursor_past_the_fleet() {
        use crate::machine::MachineConfig;
        use crate::policy::Policy;
        use crate::request::{CallSpec, StageSpec};
        use accelflow_trace::templates::TemplateId;

        let services = [ServiceSpec::new(
            "Ping",
            vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
        )];
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
    fn node_queue_record_with_pending_events_is_corrupt() {
        let mut q = EventQueue::<Ev>::with_capacity(0);
        q.schedule_at(SimTime::from_picos(10), Ev::ScaleTick);
        let mut w = SnapWriter::new();
        q.save_snapshot(&mut w);
        let bytes = w.into_bytes();
        match load_node_queue(&mut SnapReader::new(&bytes)) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.contains("pending"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }
}
