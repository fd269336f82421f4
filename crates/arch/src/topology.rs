//! Chiplet layouts and on-package placement.
//!
//! The baseline processor (paper Fig 6) has two chiplets: one with the
//! 36 cores (plus the load balancer, which is tightly coupled to the
//! cores) and one with the remaining eight accelerators. The Fig 18
//! sensitivity study re-partitions the accelerators into 1, 2, 3, 4, or
//! 6 chiplets. This module models placement generically: hardware units
//! are opaque [`UnitId`]s placed on per-chiplet 2D meshes; the crate
//! that knows about accelerator kinds maps kinds to units.

use std::fmt;

/// Identifies a chiplet on the package.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChipletId(pub u8);

/// Identifies a placed hardware unit (an accelerator instance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UnitId(pub u8);

accelflow_sim::impl_snapshot! { struct UnitId { 0 } }

/// A communication endpoint on the package: the core complex or a
/// placed unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// The CPU cores (and their caches), treated as one mesh stop on
    /// the core chiplet.
    Cores,
    /// A placed hardware unit.
    Unit(UnitId),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Cores => write!(f, "cores"),
            Endpoint::Unit(u) => write!(f, "unit{}", u.0),
        }
    }
}

#[derive(Clone, Debug)]
struct Placement {
    chiplet: ChipletId,
    x: u8,
    y: u8,
}

/// The placement of the core complex and all units onto chiplets, with
/// mesh coordinates within each chiplet.
///
/// # Example
///
/// ```
/// use accelflow_arch::topology::{ChipletLayout, Endpoint, UnitId};
///
/// // Core chiplet holds the cores and unit 8 (the load balancer);
/// // the other chiplet holds units 0..8.
/// let layout = ChipletLayout::new(vec![vec![8], (0..8).collect()], 9);
/// assert_eq!(layout.chiplets(), 2);
/// assert!(layout.same_chiplet(Endpoint::Cores, Endpoint::Unit(UnitId(8))));
/// assert!(!layout.same_chiplet(Endpoint::Cores, Endpoint::Unit(UnitId(0))));
/// ```
#[derive(Clone, Debug)]
pub struct ChipletLayout {
    placements: Vec<Placement>,
    cores: Placement,
    chiplet_count: usize,
}

impl ChipletLayout {
    /// Builds a layout from `groups`: `groups[0]` is the list of units
    /// co-located with the cores on chiplet 0; each subsequent group is
    /// its own chiplet. Every unit in `0..units` must appear exactly
    /// once.
    ///
    /// Units within a chiplet are placed on a square-ish 2D mesh in
    /// index order; the core complex occupies position (0, 0) of
    /// chiplet 0.
    ///
    /// # Panics
    ///
    /// Panics if a unit is missing, duplicated, or out of range.
    pub fn new(groups: Vec<Vec<u8>>, units: u8) -> Self {
        let mut placements: Vec<Option<Placement>> = (0..units).map(|_| None).collect();
        let mut seen = vec![false; units as usize];
        for (c, group) in groups.iter().enumerate() {
            // Chiplet 0 also hosts the core complex at slot 0.
            let slot_offset = if c == 0 { 1 } else { 0 };
            let side = ceil_sqrt(group.len() + slot_offset);
            for (i, &u) in group.iter().enumerate() {
                assert!((u as usize) < units as usize, "unit {u} out of range");
                assert!(!seen[u as usize], "unit {u} placed twice");
                seen[u as usize] = true;
                let slot = i + slot_offset;
                placements[u as usize] = Some(Placement {
                    chiplet: ChipletId(c as u8),
                    x: (slot % side) as u8,
                    y: (slot / side) as u8,
                });
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "every unit must be placed on some chiplet"
        );
        ChipletLayout {
            placements: placements.into_iter().map(Option::unwrap).collect(),
            cores: Placement {
                chiplet: ChipletId(0),
                x: 0,
                y: 0,
            },
            chiplet_count: groups.len(),
        }
    }

    /// Number of chiplets (including the core chiplet).
    pub fn chiplets(&self) -> usize {
        self.chiplet_count
    }

    /// Number of placed units.
    pub fn units(&self) -> usize {
        self.placements.len()
    }

    fn placement(&self, e: Endpoint) -> &Placement {
        match e {
            Endpoint::Cores => &self.cores,
            Endpoint::Unit(UnitId(u)) => &self.placements[u as usize],
        }
    }

    /// The chiplet an endpoint lives on.
    pub fn chiplet_of(&self, e: Endpoint) -> ChipletId {
        self.placement(e).chiplet
    }

    /// Whether two endpoints share a chiplet.
    pub fn same_chiplet(&self, a: Endpoint, b: Endpoint) -> bool {
        self.chiplet_of(a) == self.chiplet_of(b)
    }

    /// Manhattan mesh distance between two endpoints on the *same*
    /// chiplet.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the endpoints are on different chiplets.
    pub fn mesh_hops(&self, a: Endpoint, b: Endpoint) -> u32 {
        let pa = self.placement(a);
        let pb = self.placement(b);
        debug_assert_eq!(pa.chiplet, pb.chiplet, "mesh_hops across chiplets");
        (pa.x.abs_diff(pb.x) + pa.y.abs_diff(pb.y)) as u32
    }

    /// Mesh distance from an endpoint to its chiplet's edge router
    /// (position (0,0)), used for inter-chiplet transfers.
    pub fn hops_to_edge(&self, e: Endpoint) -> u32 {
        let p = self.placement(e);
        (p.x + p.y) as u32
    }
}

fn ceil_sqrt(n: usize) -> usize {
    let mut s = 1;
    while s * s < n {
        s += 1;
    }
    s.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_chiplet() -> ChipletLayout {
        ChipletLayout::new(vec![vec![8], (0..8).collect()], 9)
    }

    #[test]
    fn paper_two_chiplet_layout() {
        let l = two_chiplet();
        assert_eq!(l.chiplets(), 2);
        assert_eq!(l.units(), 9);
        assert_eq!(l.chiplet_of(Endpoint::Cores), ChipletId(0));
        assert_eq!(l.chiplet_of(Endpoint::Unit(UnitId(8))), ChipletId(0));
        for u in 0..8 {
            assert_eq!(l.chiplet_of(Endpoint::Unit(UnitId(u))), ChipletId(1));
        }
    }

    #[test]
    fn mesh_distances_are_manhattan() {
        let l = two_chiplet();
        // Units 0..8 on chiplet 1 in a 3x3 mesh: unit 0 at (0,0),
        // unit 4 at (1,1), unit 8 would be at (2,2) but lives on chiplet 0.
        assert_eq!(
            l.mesh_hops(Endpoint::Unit(UnitId(0)), Endpoint::Unit(UnitId(4))),
            2
        );
        assert_eq!(
            l.mesh_hops(Endpoint::Unit(UnitId(0)), Endpoint::Unit(UnitId(0))),
            0
        );
        // Cores at (0,0) of chiplet 0, unit 8 at (1,0).
        assert_eq!(l.mesh_hops(Endpoint::Cores, Endpoint::Unit(UnitId(8))), 1);
    }

    #[test]
    fn hops_to_edge() {
        let l = two_chiplet();
        assert_eq!(l.hops_to_edge(Endpoint::Cores), 0);
        assert!(l.hops_to_edge(Endpoint::Unit(UnitId(4))) >= 1);
    }

    #[test]
    fn single_chiplet_layout() {
        let l = ChipletLayout::new(vec![(0..9).collect()], 9);
        assert_eq!(l.chiplets(), 1);
        for u in 0..9 {
            assert!(l.same_chiplet(Endpoint::Cores, Endpoint::Unit(UnitId(u))));
        }
    }

    #[test]
    fn six_chiplet_layout() {
        // Fig 18's 6-chiplet organization shape: cores+LdB, then 5
        // accelerator chiplets.
        let l = ChipletLayout::new(
            vec![
                vec![8],
                vec![0, 1],
                vec![2, 3],
                vec![4],
                vec![5, 6],
                vec![7],
            ],
            9,
        );
        assert_eq!(l.chiplets(), 6);
        assert!(!l.same_chiplet(Endpoint::Unit(UnitId(0)), Endpoint::Unit(UnitId(2))));
        assert!(l.same_chiplet(Endpoint::Unit(UnitId(5)), Endpoint::Unit(UnitId(6))));
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn duplicate_unit_rejected() {
        let _ = ChipletLayout::new(vec![vec![0, 0], vec![1]], 2);
    }

    #[test]
    #[should_panic(expected = "every unit must be placed")]
    fn missing_unit_rejected() {
        let _ = ChipletLayout::new(vec![vec![0]], 2);
    }

    #[test]
    fn ceil_sqrt_works() {
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_sqrt(2), 2);
        assert_eq!(ceil_sqrt(4), 2);
        assert_eq!(ceil_sqrt(5), 3);
        assert_eq!(ceil_sqrt(9), 3);
        assert_eq!(ceil_sqrt(10), 4);
    }
}
