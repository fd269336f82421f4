//! The Accelerator Trace Memory (paper §IV-A).
//!
//! The ATM is a special on-chip memory where cores pre-store follow-on
//! traces. When an output dispatcher reaches a trace tail holding an
//! ATM address, it loads the stored trace and deposits it into the next
//! accelerator's input queue — no CPU involvement.

use std::fmt;
use std::sync::Arc;

use crate::ir::Trace;

/// Address of a trace in the ATM.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtmAddr(pub u16);

impl fmt::Display for AtmAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "atm:{:#06x}", self.0)
    }
}

/// The on-chip trace memory.
///
/// Stored traces are shared, immutable [`Arc<Trace>`]s: a load hands
/// out the resident trace itself, so a queue entry that refers to it
/// costs a reference count, not a copy. Cloning an `Atm` copies the
/// handles; the read/write counters are per copy.
///
/// # Example
///
/// ```
/// use accelflow_trace::atm::Atm;
/// use accelflow_trace::ir::{Slot, Trace};
/// use accelflow_trace::kind::AccelKind;
///
/// let mut atm = Atm::new(64);
/// let t = Trace::new("resp", vec![Slot::Accel(AccelKind::Ser)]);
/// let addr = atm.store(t).unwrap();
/// assert_eq!(atm.load(addr).unwrap().name(), "resp");
/// ```
#[derive(Clone, Debug)]
pub struct Atm {
    entries: Vec<Option<Arc<Trace>>>,
    reads: u64,
    writes: u64,
}

impl Atm {
    /// Creates an ATM with room for `capacity` traces.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds `u16::MAX + 1`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ATM capacity must be positive");
        assert!(
            capacity <= u16::MAX as usize + 1,
            "ATM capacity exceeds addressing"
        );
        Atm {
            entries: vec![None; capacity],
            reads: 0,
            writes: 0,
        }
    }

    /// Stores `trace` (a [`Trace`] or an already shared
    /// [`Arc<Trace>`]) in the first free entry.
    ///
    /// # Errors
    ///
    /// Returns the shared trace back if the ATM is full.
    pub fn store(&mut self, trace: impl Into<Arc<Trace>>) -> Result<AtmAddr, Arc<Trace>> {
        let trace = trace.into();
        match self.entries.iter().position(Option::is_none) {
            Some(i) => {
                self.entries[i] = Some(trace);
                self.writes += 1;
                Ok(AtmAddr(i as u16))
            }
            None => Err(trace),
        }
    }

    /// Stores `trace` at a specific address, replacing any previous
    /// occupant. Returns this ATM's handle to the previous occupant;
    /// the trace itself lives on while other handles share it.
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond capacity.
    pub fn store_at(&mut self, addr: AtmAddr, trace: impl Into<Arc<Trace>>) -> Option<Arc<Trace>> {
        self.writes += 1;
        self.entries[addr.0 as usize].replace(trace.into())
    }

    /// Loads the trace at `addr`, counting the access.
    pub fn load(&mut self, addr: AtmAddr) -> Option<&Arc<Trace>> {
        self.reads += 1;
        self.entries.get(addr.0 as usize).and_then(Option::as_ref)
    }

    /// Looks at the trace at `addr` without counting an access.
    pub fn peek(&self, addr: AtmAddr) -> Option<&Arc<Trace>> {
        self.entries.get(addr.0 as usize).and_then(Option::as_ref)
    }

    /// Frees the entry at `addr`. Returns this ATM's handle to its
    /// occupant; the trace itself lives on while other handles share
    /// it.
    pub fn free(&mut self, addr: AtmAddr) -> Option<Arc<Trace>> {
        self.entries.get_mut(addr.0 as usize).and_then(Option::take)
    }

    /// The resident traces, in address order.
    pub fn resident(&self) -> impl Iterator<Item = &Arc<Trace>> {
        self.entries.iter().flatten()
    }

    /// Number of occupied entries.
    pub fn occupied(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Total capacity in traces.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Lifetime reads (dispatcher trace fetches).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Lifetime writes (core trace stores).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Overwrites the lifetime access counters. Checkpoint-restore
    /// hook: the stored traces themselves are rebuilt from the trace
    /// library (they never change during a run), but the counters are
    /// run state and must resume from their saved values.
    pub fn restore_counters(&mut self, reads: u64, writes: u64) {
        self.reads = reads;
        self.writes = writes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Slot;
    use crate::kind::AccelKind;

    fn t(name: &str) -> Trace {
        Trace::new(name, vec![Slot::Accel(AccelKind::Tcp)])
    }

    #[test]
    fn store_load_free_cycle() {
        let mut atm = Atm::new(4);
        let a = atm.store(t("a")).unwrap();
        let b = atm.store(t("b")).unwrap();
        assert_ne!(a, b);
        assert_eq!(atm.occupied(), 2);
        assert_eq!(atm.load(a).unwrap().name(), "a");
        assert_eq!(atm.free(a).unwrap().name(), "a");
        assert_eq!(atm.occupied(), 1);
        assert!(atm.load(a).is_none());
        assert_eq!(atm.reads(), 2);
    }

    #[test]
    fn full_atm_rejects() {
        let mut atm = Atm::new(1);
        atm.store(t("a")).unwrap();
        let rejected = atm.store(t("b")).unwrap_err();
        assert_eq!(rejected.name(), "b");
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut atm = Atm::new(1);
        let a = atm.store(t("a")).unwrap();
        atm.free(a);
        let b = atm.store(t("b")).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn store_at_replaces() {
        let mut atm = Atm::new(8);
        assert!(atm.store_at(AtmAddr(5), t("x")).is_none());
        let old = atm.store_at(AtmAddr(5), t("y")).unwrap();
        assert_eq!(old.name(), "x");
        assert_eq!(atm.peek(AtmAddr(5)).unwrap().name(), "y");
        assert_eq!(atm.writes(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Atm::new(0);
    }
}
