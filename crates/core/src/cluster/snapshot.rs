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

use accelflow_sim::engine::{EventQueue, Simulation};
use accelflow_sim::rng::SimRng;
use accelflow_sim::snapshot::{
    check_header, fnv1a, write_header, SnapReader, SnapWriter, Snapshot, SnapshotError,
};
use accelflow_sim::time::{SimDuration, SimTime};

use crate::arrivals::Arrival;
use crate::machine::{Ev, Machine};
use crate::request::ServiceSpec;

use super::{
    CEv, Cluster, ClusterConfig, ClusterModel, ClusterReport, HealthReport, NodeSlot,
    DISPATCH_RNG_SALT,
};

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

impl Cluster {
    /// The configuration-identity hash carried in cluster snapshot
    /// headers: FNV-1a over the cluster config's `Debug` rendering plus
    /// the service names (the seed is excluded — every RNG stream
    /// position is serialized).
    pub fn config_hash(cfg: &ClusterConfig, service_names: &[String]) -> u64 {
        let mut buf = format!("{cfg:?}").into_bytes();
        for name in service_names {
            buf.push(0);
            buf.extend_from_slice(name.as_bytes());
        }
        fnv1a(&buf)
    }
}

/// A cluster run held open for stepwise control: run to an instant,
/// snapshot, resume, finish. [`Cluster::run_arrivals`] and friends are
/// one-shot wrappers over this, exactly as
/// [`Machine::run_arrivals`](crate::machine::Machine::run_arrivals)
/// wraps [`MachineRun`](crate::machine::MachineRun).
pub struct ClusterRun<F: FnMut(SimTime, u16, &Ev)> {
    sim: Simulation<ClusterModel<F>>,
    /// Arrival horizon (the measurement window end; excludes drain).
    end: SimTime,
    /// Configuration-identity hash, computed once at start/restore and
    /// stamped into every snapshot header.
    cfg_hash: u64,
}

impl<F: FnMut(SimTime, u16, &Ev)> ClusterRun<F> {
    /// Opens a fleet run over a pre-generated arrival list (the
    /// stepwise form of [`Cluster::run_arrivals_observed`]).
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

        let names: Vec<String> = services.iter().map(|s| s.name.clone()).collect();
        let cfg_hash = Cluster::config_hash(cfg, &names);
        let end = SimTime::ZERO + duration;
        let nodes: Vec<NodeSlot> = (0..cfg.nodes)
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

        let mut pending = arrivals;
        pending.reverse();
        let model = ClusterModel {
            nodes,
            link: cfg.link,
            balancer: cfg.balancer,
            weights,
            rr_cursor: 0,
            rng: SimRng::seed(seed ^ DISPATCH_RNG_SALT),
            pending,
            keepalive: cfg.keepalive,
            suspend_dark_stations: cfg.suspend_dark_stations,
            health: HealthReport {
                dispatched: vec![0; cfg.nodes],
                ..HealthReport::default()
            },
            live_scratch: Vec::with_capacity(cfg.nodes),
            held: Vec::new(),
            observe,
        };
        let mut sim = Simulation::new(model);

        // Seeding order mirrors a bare machine run: the first arrival,
        // then each node's fault-stream and autoscaler arming, then
        // (cluster-only) the first keep-alive tick.
        if let Some((at, target, local)) = sim.model_mut().dispatch_next(SimTime::ZERO) {
            sim.queue_mut()
                .schedule_at(at, CEv::Node(target, Ev::Arrive(local)));
        }
        for i in 0..cfg.nodes {
            let armed = sim.model_mut().nodes[i].machine.arm_initial_faults();
            for (at, class) in armed {
                sim.queue_mut()
                    .schedule_at(at, CEv::Node(i as u16, Ev::FaultInject(class)));
            }
            if let Some(at) = sim.model().nodes[i].machine.arm_autoscaler() {
                sim.queue_mut()
                    .schedule_at(at, CEv::Node(i as u16, Ev::ScaleTick));
            }
        }
        if let Some(tick) = cfg.keepalive {
            sim.queue_mut()
                .schedule_at(SimTime::ZERO + tick, CEv::KeepAlive);
        }
        ClusterRun { sim, end, cfg_hash }
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
        let names: Vec<String> = services.iter().map(|s| s.name.clone()).collect();
        let expected = Cluster::config_hash(cfg, &names);
        let mut r = SnapReader::new(bytes);
        check_header(&mut r, CLUSTER_SNAPSHOT_MAGIC, expected)?;
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

        let rr_cursor = r.usize()?;
        let rng = Snapshot::load(&mut r)?;
        let pending: Vec<Arrival> = Snapshot::load(&mut r)?;
        let health: HealthReport = Snapshot::load(&mut r)?;
        if health.dispatched.len() != cfg.nodes {
            return Err(SnapshotError::Corrupt(format!(
                "dispatch counters cover {} nodes, config builds {}",
                health.dispatched.len(),
                cfg.nodes
            )));
        }
        let outer = EventQueue::load_snapshot(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after the outer event queue",
                bytes.len() - r.position()
            )));
        }

        let weights = if cfg.weights.is_empty() {
            vec![1.0; cfg.nodes]
        } else {
            cfg.weights.clone()
        };
        let model = ClusterModel {
            nodes,
            link: cfg.link,
            balancer: cfg.balancer,
            weights,
            rr_cursor,
            rng,
            pending,
            keepalive: cfg.keepalive,
            suspend_dark_stations: cfg.suspend_dark_stations,
            health,
            live_scratch: Vec::with_capacity(cfg.nodes),
            held: Vec::new(),
            observe,
        };
        Ok(ClusterRun {
            sim: Simulation::from_parts(model, outer),
            end,
            cfg_hash: expected,
        })
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Delivers every event strictly before `t`.
    pub fn run_to(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// Takes a versioned snapshot of the whole fleet and its pending
    /// events. The run is not disturbed and may keep going.
    pub fn snapshot(&mut self) -> Vec<u8> {
        let cfg_hash = self.cfg_hash;
        let (model, outer) = self.sim.parts_mut();
        let mut w = SnapWriter::new();
        write_header(&mut w, CLUSTER_SNAPSHOT_MAGIC, cfg_hash);
        self.end.save(&mut w);
        w.usize(model.nodes.len());
        for node in &mut model.nodes {
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
        let drain = self.end + SimDuration::from_millis(30);
        self.sim.run_until(drain);
        let now = self.sim.now();
        let events = self.sim.queue_mut().delivered();
        let clamped = self.sim.queue_mut().clamped();
        let model = self.sim.into_model();
        let health = model.health;
        let per_node = model
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
            health,
            events,
            clamped,
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
