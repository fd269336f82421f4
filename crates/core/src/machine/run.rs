//! [`MachineRun`]: a bare machine run is a one-node fleet.
//!
//! The handle holds no loop, admission chain or snapshot format of its
//! own. It opens a [`ClusterRun`] over one round-robin node behind a
//! [`NodeLink::zero`] link with keep-alive off, adapts the two-argument
//! observer to the fleet's [`Observe`], and reports that node's
//! [`RunReport`].

use accelflow_sim::snapshot::SnapshotError;
use accelflow_sim::time::{SimDuration, SimTime};

use crate::arrivals::Arrival;
use crate::cluster::{ClusterConfig, ClusterRun, NodeLink, Observe};
use crate::request::ServiceSpec;
use crate::stats::RunReport;

use super::{Ev, MachineConfig};

/// A machine run held open for stepwise control: run to an instant,
/// snapshot, append arrivals, resume, finish.
/// [`Machine::run_arrivals`](super::Machine::run_arrivals) and friends
/// are one-shot wrappers over this.
///
/// The observer `F` is invoked for every delivered event in delivery
/// order, before the machine handles it — pass `|_, _| {}` when the
/// event stream is not needed.
///
/// # Example: checkpoint mid-run, fork, resume
///
/// ```
/// use accelflow_core::machine::{MachineConfig, MachineRun};
/// use accelflow_core::policy::Policy;
/// use accelflow_core::request::{CallSpec, ServiceSpec, StageSpec};
/// use accelflow_sim::time::{SimDuration, SimTime};
/// use accelflow_trace::templates::TemplateId;
///
/// let mut cfg = MachineConfig::new(Policy::AccelFlow);
/// cfg.warmup = SimDuration::from_millis(1);
/// let services = vec![ServiceSpec::new(
///     "Ping",
///     vec![StageSpec::Call(CallSpec::new(TemplateId::T1))],
/// )];
/// let duration = SimDuration::from_millis(4);
/// let arrivals = cfg.poisson_arrivals(&services, 2_000.0, duration, 7);
/// let mut run = MachineRun::start(&cfg, &services, arrivals, duration, 7, |_, _| {});
/// run.run_to(SimTime::ZERO + SimDuration::from_millis(2));
/// let bytes = run.snapshot();
///
/// // The original continues; a fork resumes from the same instant.
/// let straight = run.finish();
/// let mut fork = MachineRun::restore(&cfg, &services, &bytes, |_, _| {}).unwrap();
/// let forked = fork.finish();
/// assert_eq!(straight.completed(), forked.completed());
/// ```
pub struct MachineRun<F> {
    fleet: ClusterRun<OneNode<F>>,
}

/// The fleet observer of a one-node run: drops the node id.
struct OneNode<F>(F);

impl<F: FnMut(SimTime, &Ev)> Observe for OneNode<F> {
    #[inline]
    fn event(&mut self, now: SimTime, _node: u16, ev: &Ev) {
        (self.0)(now, ev)
    }
}

/// The one-node fleet a bare run of `cfg` is.
fn one_node(cfg: &MachineConfig) -> ClusterConfig {
    ClusterConfig {
        link: NodeLink::zero(),
        ..ClusterConfig::new(1, cfg.clone())
    }
}

impl<F: FnMut(SimTime, &Ev)> MachineRun<F> {
    /// Opens a run over a pre-generated arrival list. Arrivals stop at
    /// `duration`; [`MachineRun::finish`] grants the drain margin.
    pub fn start(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        arrivals: Vec<Arrival>,
        duration: SimDuration,
        seed: u64,
        observe: F,
    ) -> Self {
        let fleet = ClusterRun::open(
            &one_node(cfg),
            services,
            arrivals,
            duration,
            seed,
            OneNode(observe),
        );
        MachineRun { fleet }
    }

    /// Reopens a run from a snapshot taken by [`MachineRun::snapshot`]
    /// (see [`ClusterRun::restore`]).
    pub fn restore(
        cfg: &MachineConfig,
        services: &[ServiceSpec],
        bytes: &[u8],
        observe: F,
    ) -> Result<Self, SnapshotError> {
        let fleet = ClusterRun::reopen(&one_node(cfg), services, bytes, OneNode(observe))?;
        Ok(MachineRun { fleet })
    }

    /// Delivers every event strictly before `t`.
    pub fn run_to(&mut self, t: SimTime) {
        self.fleet.run_to(t);
    }

    /// Takes a versioned snapshot: a one-node fleet snapshot.
    pub fn snapshot(&mut self) -> Vec<u8> {
        self.fleet.snapshot()
    }

    /// Appends a later arrival tail and extends the horizon (see
    /// [`ClusterRun::append_arrivals`]).
    pub fn append_arrivals(&mut self, tail: Vec<Arrival>, new_end: SimTime) {
        self.fleet.append_arrivals(tail, new_end);
    }

    /// Runs through the drain window past the horizon and extracts the
    /// node's report.
    pub fn finish(self) -> RunReport {
        let mut per_node = self.fleet.finish().per_node;
        per_node.pop().expect("a one-node fleet reports one node")
    }
}
