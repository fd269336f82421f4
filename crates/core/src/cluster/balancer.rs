//! Cluster-level placement strategies.
//!
//! Every fleet design the cluster evaluates differs only in *where the
//! front-end dispatcher sends the next request*, so a strategy is one
//! [`BalancerKind`] value and placement is one `match`
//! ([`BalancerKind::pick`]), consulted once per dispatched arrival. All
//! mutable placement state (the round-robin cursor, the dispatcher's
//! private RNG stream) lives in the cluster and is lent to `pick` for
//! the duration of one decision.
//!
//! # Contract
//!
//! * `pick` is consulted with *every* node visible, healthy or not;
//!   health-based relocation is the cluster's job (uniform across
//!   strategies), so a strategy stays a pure preference function.
//! * Decisions are deterministic in their arguments: the only
//!   randomness allowed is the dispatcher's seeded RNG stream, which is
//!   isolated from every workload stream (same discipline as fault
//!   injection), so placement never perturbs per-node event streams.

use accelflow_sim::rng::SimRng;

use crate::request::ServiceId;

/// The placement strategies the cluster front-end can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BalancerKind {
    /// Rotate through nodes in index order.
    RoundRobin,
    /// Draw a node from the configured weight distribution.
    WeightedRandom,
    /// Send to the node with the fewest in-flight requests.
    LeastLoaded,
    /// Pin each service to a home node (keeps that node's accelerator
    /// scratchpads and TLBs warm for the service's traces).
    LocalityAware,
}

impl BalancerKind {
    /// Every strategy, in sweep order.
    pub const ALL: [BalancerKind; 4] = [
        BalancerKind::RoundRobin,
        BalancerKind::WeightedRandom,
        BalancerKind::LeastLoaded,
        BalancerKind::LocalityAware,
    ];

    /// Preferred node for an arrival of `service`, given each node's
    /// in-flight request count (`live`, never empty) and dispatch
    /// weight (same length). `rr_cursor` is the most recently picked
    /// node; `rng` is the dispatcher's private stream. Ties and health
    /// are resolved by the cluster.
    pub(crate) fn pick(
        self,
        live: &[u64],
        weights: &[f64],
        rr_cursor: &mut usize,
        rng: &mut SimRng,
        service: ServiceId,
    ) -> usize {
        match self {
            BalancerKind::RoundRobin => {
                *rr_cursor = (*rr_cursor + 1) % live.len();
                *rr_cursor
            }
            BalancerKind::WeightedRandom => rng.weighted_index(weights),
            // min_by_key keeps the first minimum: ties break to the
            // lowest node index, deterministically.
            BalancerKind::LeastLoaded => live
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                .map(|(i, _)| i)
                .expect("cluster has at least one node"),
            BalancerKind::LocalityAware => service.0 % live.len(),
        }
    }

    /// Short stable identifier (tables, CI output).
    pub fn name(self) -> &'static str {
        match self {
            BalancerKind::RoundRobin => "round_robin",
            BalancerKind::WeightedRandom => "weighted_random",
            BalancerKind::LeastLoaded => "least_loaded",
            BalancerKind::LocalityAware => "locality",
        }
    }
}

impl std::fmt::Display for BalancerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_all_nodes() {
        let (live, weights) = ([0u64; 3], [1.0; 3]);
        let (mut cursor, mut rng) = (0usize, SimRng::seed(1));
        let picks: Vec<usize> = (0..6)
            .map(|_| {
                BalancerKind::RoundRobin.pick(&live, &weights, &mut cursor, &mut rng, ServiceId(0))
            })
            .collect();
        assert_eq!(picks, vec![1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_picks_minimum_and_breaks_ties_low() {
        let (live, weights) = ([5u64, 2, 7, 2], [1.0; 4]);
        let (mut cursor, mut rng) = (0usize, SimRng::seed(1));
        let pick =
            BalancerKind::LeastLoaded.pick(&live, &weights, &mut cursor, &mut rng, ServiceId(0));
        assert_eq!(pick, 1, "first minimum wins the tie");
    }

    #[test]
    fn locality_pins_services_to_home_nodes() {
        let (live, weights) = ([0u64; 3], [1.0; 3]);
        let (mut cursor, mut rng) = (0usize, SimRng::seed(1));
        for svc in 0..9 {
            let pick = BalancerKind::LocalityAware.pick(
                &live,
                &weights,
                &mut cursor,
                &mut rng,
                ServiceId(svc),
            );
            assert_eq!(pick, svc % 3, "service {svc} must stay on its home node");
        }
    }

    #[test]
    fn weighted_random_respects_zero_weights_and_seed() {
        let (live, weights) = ([0u64; 3], [1.0, 0.0, 3.0]);
        let draw = |rng: &mut SimRng| {
            BalancerKind::WeightedRandom.pick(&live, &weights, &mut 0, rng, ServiceId(0))
        };
        let mut rng = SimRng::seed(7);
        let mut counts = [0u32; 3];
        for _ in 0..2000 {
            counts[draw(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0, "zero-weight node must never be picked");
        assert!(
            counts[2] > counts[0] * 2,
            "weight-3 node must dominate: {counts:?}"
        );
        // Same seed, same picks: the stream is deterministic.
        assert_eq!(draw(&mut SimRng::seed(7)), draw(&mut SimRng::seed(7)));
    }
}
