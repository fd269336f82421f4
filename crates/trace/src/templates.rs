//! The paper's complete trace library (Table II, Figures 2, 4, and 7).
//!
//! The services use twelve trace shapes, T1–T12. Traces that run in
//! response to a *message arrival* (T5, T6, T7, T10, T12 — responses to
//! requests this machine sent) are pre-stored in the ATM and referenced
//! from the tails of the request traces that elicit them (paper §IV-B:
//! the TCP output dispatcher loads the stored trace into its own input
//! queue after sending the request). The rarely-exercised
//! error-reporting subsequence of T6/T7/T10 is split into a trace of
//! its own, exactly as §IV-B prescribes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use crate::atm::{Atm, AtmAddr};
use crate::builder::TraceBuilder;
use crate::cond::BranchCond;
use crate::format::DataFormat;
use crate::ir::{PathStep, Trace};
use crate::kind::AccelKind;

/// Identifies one of the paper's twelve trace templates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TemplateId {
    /// Receive function request (with or without Dcmp). Fig 4a.
    T1,
    /// Send function response without Cmp. Fig 2a.
    T2,
    /// Send function response with Cmp.
    T3,
    /// Send read request to DB cache. Fig 2b.
    T4,
    /// Receive response to a read to the DB cache (± Dcmp). Fig 7.
    T5,
    /// Receive response to a read to the DB (± Dcmp or Cmp). Fig 7.
    T6,
    /// Receive response to a write to the DB cache or DB. Fig 7.
    T7,
    /// Send write request to DB cache or DB (± Cmp).
    T8,
    /// Send RPC request (± Cmp).
    T9,
    /// Receive RPC response.
    T10,
    /// Send HTTP request (± Cmp).
    T11,
    /// Receive HTTP response.
    T12,
}

impl TemplateId {
    /// All templates in order.
    pub const ALL: [TemplateId; 12] = [
        TemplateId::T1,
        TemplateId::T2,
        TemplateId::T3,
        TemplateId::T4,
        TemplateId::T5,
        TemplateId::T6,
        TemplateId::T7,
        TemplateId::T8,
        TemplateId::T9,
        TemplateId::T10,
        TemplateId::T11,
        TemplateId::T12,
    ];

    /// The paper's name (T1–T12).
    pub fn name(self) -> &'static str {
        match self {
            TemplateId::T1 => "T1",
            TemplateId::T2 => "T2",
            TemplateId::T3 => "T3",
            TemplateId::T4 => "T4",
            TemplateId::T5 => "T5",
            TemplateId::T6 => "T6",
            TemplateId::T7 => "T7",
            TemplateId::T8 => "T8",
            TemplateId::T9 => "T9",
            TemplateId::T10 => "T10",
            TemplateId::T11 => "T11",
            TemplateId::T12 => "T12",
        }
    }

    /// Table II's explanation column.
    pub fn description(self) -> &'static str {
        match self {
            TemplateId::T1 => "Receive function request (with or without Dcmp)",
            TemplateId::T2 => "Send function response without Cmp",
            TemplateId::T3 => "Send function response with Cmp",
            TemplateId::T4 => "Send read request to DB cache",
            TemplateId::T5 => "Receive response to a read to the DB cache (with or without Dcmp)",
            TemplateId::T6 => "Receive response to a read to the DB (with or without Dcmp or Cmp)",
            TemplateId::T7 => "Receive response to a write to the DB cache or DB",
            TemplateId::T8 => "Send write request to DB cache or to DB (with or without Cmp)",
            TemplateId::T9 => "Send RPC request (with or without Cmp)",
            TemplateId::T10 => "Receive RPC response",
            TemplateId::T11 => "Send HTTP request (with or without Cmp)",
            TemplateId::T12 => "Receive HTTP response",
        }
    }

    /// Whether this trace is triggered by a message arrival (and hence
    /// lives in the ATM, pre-loaded by the request trace that elicits
    /// the message) rather than initiated by a CPU core.
    pub fn message_triggered(self) -> bool {
        matches!(
            self,
            TemplateId::T1
                | TemplateId::T5
                | TemplateId::T6
                | TemplateId::T7
                | TemplateId::T10
                | TemplateId::T12
        )
    }
}

impl fmt::Display for TemplateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An endpoint in the Table I connectivity matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Neighbor {
    /// Another accelerator.
    Accel(AccelKind),
    /// A CPU core.
    Cpu,
    /// The network (for TCP's external side and trace chains that wait
    /// for a response message).
    Network,
}

impl fmt::Display for Neighbor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Neighbor::Accel(k) => write!(f, "{k}"),
            Neighbor::Cpu => write!(f, "CPU"),
            Neighbor::Network => write!(f, "Net"),
        }
    }
}

/// Per-accelerator sources and destinations, the reproduction's
/// equivalent of paper Table I.
pub type ConnectivityMatrix = BTreeMap<AccelKind, (BTreeSet<Neighbor>, BTreeSet<Neighbor>)>;

/// The assembled trace library: entry traces plus the ATM pre-populated
/// with message-triggered continuations.
///
/// Every trace is a shared, immutable [`Arc<Trace>`], and a
/// message-triggered template's entry *is* its ATM-resident trace.
/// Sampled requests refer to these traces rather than copying them,
/// the way a queue entry refers to a trace resident in the ATM
/// (paper §IV-A).
///
/// # Example
///
/// ```
/// use accelflow_trace::templates::{TemplateId, TraceLibrary};
///
/// let lib = TraceLibrary::standard();
/// let t1 = lib.entry(TemplateId::T1);
/// assert_eq!(t1.branch_count(), 1); // the Dcmp-or-not branch of Fig 4a
/// assert!(lib.addr(TemplateId::T5).is_some()); // T5 waits in the ATM
/// ```
#[derive(Clone, Debug)]
pub struct TraceLibrary {
    atm: Atm,
    entries: BTreeMap<TemplateId, Arc<Trace>>,
    cmp_variants: BTreeMap<TemplateId, Arc<Trace>>,
    addrs: BTreeMap<TemplateId, AtmAddr>,
    error_addr: AtmAddr,
}

impl TraceLibrary {
    /// Builds the full T1–T12 library with a 64-entry ATM.
    ///
    /// The build walks every template through the trace compiler, so
    /// it is far too expensive for a per-simulation hot path (the
    /// harness constructs one library per probe). The first call does
    /// the real build; later calls clone a memoized copy, which copies
    /// trace handles, not traces. The traces are shared immutable
    /// `Arc`s; only the ATM's access counters are per copy, so counting
    /// stays simulation-local.
    pub fn standard() -> Self {
        Self::memoized().clone()
    }

    fn memoized() -> &'static TraceLibrary {
        static STANDARD: std::sync::OnceLock<TraceLibrary> = std::sync::OnceLock::new();
        STANDARD.get_or_init(|| Self::with_atm(Atm::new(64)))
    }

    /// The standard library's shared handle to a trace equal to
    /// `trace` (same name, same slots), if it has one. Checkpoint
    /// restore swaps decoded traces for these, so restored programs
    /// share traces the way freshly sampled ones do.
    pub fn standard_shared(trace: &Trace) -> Option<&'static Arc<Trace>> {
        Self::memoized().traces().find(|t| ***t == *trace)
    }

    /// Builds the library into the provided ATM.
    ///
    /// # Panics
    ///
    /// Panics if the ATM cannot hold the six resident traces.
    pub fn with_atm(mut atm: Atm) -> Self {
        use AccelKind::*;
        let mut addrs = BTreeMap::new();

        // The split-out error-reporting subsequence (§IV-B): serialize
        // the error, frame it, encrypt, send — then tell the CPU.
        let error_trace = TraceBuilder::new("report_error")
            .seq([Ser, Rpc, Encr, Tcp])
            .to_cpu()
            .build();
        let error_addr = atm
            .store(error_trace)
            .expect("ATM too small for error trace");

        // T7: receive response to a write.
        let t7 = TraceBuilder::new("T7")
            .seq([Tcp, Decr, Dser])
            .branch(
                BranchCond::Exception,
                |b| b.next_trace(error_addr),
                |b| b.seq([Ldb]).to_cpu(),
            )
            .build();
        let t7 = Arc::new(t7);
        let t7_addr = atm.store(Arc::clone(&t7)).expect("ATM too small");
        addrs.insert(TemplateId::T7, t7_addr);

        // T10: receive RPC response.
        let t10 = TraceBuilder::new("T10")
            .seq([Tcp, Decr, Rpc, Dser])
            .branch(
                BranchCond::Exception,
                |b| b.next_trace(error_addr),
                |b| {
                    b.branch(BranchCond::Compressed, |b| b.seq([Dcmp]), |b| b)
                        .seq([Ldb])
                        .to_cpu()
                },
            )
            .build();
        let t10 = Arc::new(t10);
        let t10_addr = atm.store(Arc::clone(&t10)).expect("ATM too small");
        addrs.insert(TemplateId::T10, t10_addr);

        // T6: receive response to a read to the DB. Found → maybe
        // decompress, hand to the CPU *and* write the DB cache in
        // parallel (re-compressing if the cache stores compressed
        // data); the cache write elicits a T7 response. Not found →
        // report the error.
        let t6 = TraceBuilder::new("T6")
            .seq([Tcp, Decr, Dser])
            .branch(
                BranchCond::Found,
                |b| {
                    b.branch(BranchCond::Compressed, |b| b.seq([Dcmp]), |b| b)
                        .fork_to_cpu()
                        .branch(BranchCond::CacheCompressed, |b| b.seq([Cmp]), |b| b)
                        .seq([Ser, Encr, Tcp])
                        .next_trace(t7_addr)
                },
                |b| b.next_trace(error_addr),
            )
            .build();
        let t6 = Arc::new(t6);
        let t6_addr = atm.store(Arc::clone(&t6)).expect("ATM too small");
        addrs.insert(TemplateId::T6, t6_addr);

        // T5: receive response to a read to the DB cache. Hit → maybe
        // decompress, pick a core, notify. Miss → send the read to the
        // DB and arm T6.
        let t5 = TraceBuilder::new("T5")
            .seq([Tcp, Decr, Dser])
            .branch(
                BranchCond::Hit,
                |b| {
                    b.branch(BranchCond::Compressed, |b| b.seq([Dcmp]), |b| b)
                        .seq([Ldb])
                        .to_cpu()
                },
                |b| b.seq([Ser, Encr, Tcp]).next_trace(t6_addr),
            )
            .build();
        let t5 = Arc::new(t5);
        let t5_addr = atm.store(Arc::clone(&t5)).expect("ATM too small");
        addrs.insert(TemplateId::T5, t5_addr);

        // T12: receive HTTP response (errors handled by the CPU).
        let t12 = TraceBuilder::new("T12")
            .seq([Tcp, Decr, Dser])
            .branch(BranchCond::Compressed, |b| b.seq([Dcmp]), |b| b)
            .seq([Ldb])
            .to_cpu()
            .build();
        let t12 = Arc::new(t12);
        let t12_addr = atm.store(Arc::clone(&t12)).expect("ATM too small");
        addrs.insert(TemplateId::T12, t12_addr);

        let mut entries: BTreeMap<TemplateId, Arc<Trace>> = BTreeMap::new();
        let mut cmp_variants: BTreeMap<TemplateId, Arc<Trace>> = BTreeMap::new();

        // T1: receive function request (Fig 4a / Listing 1).
        entries.insert(
            TemplateId::T1,
            TraceBuilder::new("T1")
                .seq([Tcp, Decr, Rpc, Dser])
                .branch(
                    BranchCond::Compressed,
                    |b| b.trans(DataFormat::Json, DataFormat::Str).seq([Dcmp]),
                    |b| b,
                )
                .seq([Ldb])
                .to_cpu()
                .build()
                .into(),
        );
        // T2 / T3: send function response (Fig 2a), without / with Cmp.
        entries.insert(
            TemplateId::T2,
            TraceBuilder::new("T2")
                .seq([Ser, Rpc, Encr, Tcp])
                .to_cpu()
                .build()
                .into(),
        );
        entries.insert(
            TemplateId::T3,
            TraceBuilder::new("T3")
                .seq([Cmp, Ser, Rpc, Encr, Tcp])
                .to_cpu()
                .build()
                .into(),
        );
        // T4: send read request to the DB cache (Fig 2b), arming T5.
        entries.insert(
            TemplateId::T4,
            TraceBuilder::new("T4")
                .seq([Ser, Encr, Tcp])
                .next_trace(t5_addr)
                .build()
                .into(),
        );
        entries.insert(TemplateId::T5, t5);
        entries.insert(TemplateId::T6, t6);
        entries.insert(TemplateId::T7, t7);
        // T8: send write request, arming T7.
        entries.insert(
            TemplateId::T8,
            TraceBuilder::new("T8")
                .seq([Ser, Encr, Tcp])
                .next_trace(t7_addr)
                .build()
                .into(),
        );
        cmp_variants.insert(
            TemplateId::T8,
            TraceBuilder::new("T8+Cmp")
                .seq([Cmp, Ser, Encr, Tcp])
                .next_trace(t7_addr)
                .build()
                .into(),
        );
        // T9: send RPC request, arming T10.
        entries.insert(
            TemplateId::T9,
            TraceBuilder::new("T9")
                .seq([Ser, Rpc, Encr, Tcp])
                .next_trace(t10_addr)
                .build()
                .into(),
        );
        cmp_variants.insert(
            TemplateId::T9,
            TraceBuilder::new("T9+Cmp")
                .seq([Cmp, Ser, Rpc, Encr, Tcp])
                .next_trace(t10_addr)
                .build()
                .into(),
        );
        entries.insert(TemplateId::T10, t10);
        // T11: send HTTP request, arming T12.
        entries.insert(
            TemplateId::T11,
            TraceBuilder::new("T11")
                .seq([Ser, Encr, Tcp])
                .next_trace(t12_addr)
                .build()
                .into(),
        );
        cmp_variants.insert(
            TemplateId::T11,
            TraceBuilder::new("T11+Cmp")
                .seq([Cmp, Ser, Encr, Tcp])
                .next_trace(t12_addr)
                .build()
                .into(),
        );
        entries.insert(TemplateId::T12, t12);

        TraceLibrary {
            atm,
            entries,
            cmp_variants,
            addrs,
            error_addr,
        }
    }

    /// The entry trace of a template.
    pub fn entry(&self, id: TemplateId) -> &Arc<Trace> {
        &self.entries[&id]
    }

    /// The with-compression variant of T8/T9/T11 (other templates
    /// return their base form — T1/T5/T6/T10/T12 branch at run time,
    /// and T3 *is* T2's compressed form).
    pub fn entry_with_cmp(&self, id: TemplateId) -> &Arc<Trace> {
        self.cmp_variants.get(&id).unwrap_or_else(|| self.entry(id))
    }

    /// The ATM address of a message-triggered continuation trace.
    pub fn addr(&self, id: TemplateId) -> Option<AtmAddr> {
        self.addrs.get(&id).copied()
    }

    /// The ATM address of the split-out error-reporting trace.
    pub fn error_addr(&self) -> AtmAddr {
        self.error_addr
    }

    /// Every trace of the library: the entries, the compression
    /// variants and the ATM-resident continuations (a trace that is
    /// several of these is listed once per role).
    pub fn traces(&self) -> impl Iterator<Item = &Arc<Trace>> {
        self.entries
            .values()
            .chain(self.cmp_variants.values())
            .chain(self.atm.resident())
    }

    /// The ATM holding the resident traces.
    pub fn atm(&self) -> &Atm {
        &self.atm
    }

    /// Mutable access to the ATM (the machine counts reads through it).
    pub fn atm_mut(&mut self) -> &mut Atm {
        &mut self.atm
    }

    /// Derives the Table I connectivity matrix: for every accelerator,
    /// which neighbors feed it and which consume its output, across all
    /// templates and all resolved paths.
    pub fn connectivity(&self) -> ConnectivityMatrix {
        let mut matrix: ConnectivityMatrix = AccelKind::ALL
            .iter()
            .map(|&k| (k, (BTreeSet::new(), BTreeSet::new())))
            .collect();
        for (&id, trace) in &self.entries {
            let origin = if id.message_triggered() {
                Neighbor::Network
            } else {
                Neighbor::Cpu
            };
            for path in trace.all_paths() {
                let mut prev = origin;
                for step in &path {
                    match step {
                        PathStep::Accel(kind) => {
                            matrix
                                .get_mut(kind)
                                .expect("all kinds present")
                                .0
                                .insert(prev);
                            if let Neighbor::Accel(p) = prev {
                                matrix
                                    .get_mut(&p)
                                    .expect("all kinds present")
                                    .1
                                    .insert(Neighbor::Accel(*kind));
                            }
                            prev = Neighbor::Accel(*kind);
                        }
                        PathStep::Cpu => {
                            if let Neighbor::Accel(p) = prev {
                                matrix
                                    .get_mut(&p)
                                    .expect("all kinds present")
                                    .1
                                    .insert(Neighbor::Cpu);
                            }
                        }
                        PathStep::Chain(_) => {
                            if let Neighbor::Accel(p) = prev {
                                matrix
                                    .get_mut(&p)
                                    .expect("all kinds present")
                                    .1
                                    .insert(Neighbor::Network);
                            }
                        }
                    }
                }
            }
        }
        matrix
    }

    /// Fraction of templates containing at least one branch (§III Q2
    /// reports 54–83% of *sequences*; the template library itself is
    /// branch-heavy).
    pub fn branch_fraction(&self) -> f64 {
        let with = self
            .entries
            .values()
            .filter(|t| t.branch_count() > 0)
            .count();
        with as f64 / self.entries.len() as f64
    }
}

impl Default for TraceLibrary {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::PayloadFlags;

    #[test]
    fn all_twelve_templates_exist() {
        let lib = TraceLibrary::standard();
        for id in TemplateId::ALL {
            let t = lib.entry(id);
            assert!(t.accelerator_count() > 0, "{id}");
            assert!(t.validate().is_ok(), "{id}");
        }
    }

    #[test]
    fn message_triggered_traces_live_in_atm() {
        let lib = TraceLibrary::standard();
        for id in [
            TemplateId::T5,
            TemplateId::T6,
            TemplateId::T7,
            TemplateId::T10,
            TemplateId::T12,
        ] {
            let addr = lib
                .addr(id)
                .unwrap_or_else(|| panic!("{id} must be ATM-resident"));
            assert_eq!(lib.atm().peek(addr).unwrap().name(), id.name());
        }
        // T1 is message-triggered but pre-armed in every TCP, not chained.
        assert!(lib.addr(TemplateId::T1).is_none());
    }

    #[test]
    fn request_traces_chain_to_their_responses() {
        let lib = TraceLibrary::standard();
        let flags = PayloadFlags::default();
        // T4 miss-path: ... → chain to T5's address.
        let t4_path = lib.entry(TemplateId::T4).resolve_path(&flags);
        assert_eq!(
            t4_path.last(),
            Some(&PathStep::Chain(lib.addr(TemplateId::T5).unwrap()))
        );
        let t9_path = lib.entry(TemplateId::T9).resolve_path(&flags);
        assert_eq!(
            t9_path.last(),
            Some(&PathStep::Chain(lib.addr(TemplateId::T10).unwrap()))
        );
        let t8_path = lib.entry_with_cmp(TemplateId::T8).resolve_path(&flags);
        assert_eq!(
            t8_path.last(),
            Some(&PathStep::Chain(lib.addr(TemplateId::T7).unwrap()))
        );
        assert_eq!(t8_path[0], PathStep::Accel(AccelKind::Cmp));
    }

    #[test]
    fn t5_miss_chains_to_t6_and_t6_write_chains_to_t7() {
        let lib = TraceLibrary::standard();
        let miss = lib
            .entry(TemplateId::T5)
            .resolve_path(&PayloadFlags::default());
        assert_eq!(
            miss.last(),
            Some(&PathStep::Chain(lib.addr(TemplateId::T6).unwrap()))
        );

        let found = lib.entry(TemplateId::T6).resolve_path(&PayloadFlags {
            found: true,
            ..Default::default()
        });
        assert_eq!(
            found.last(),
            Some(&PathStep::Chain(lib.addr(TemplateId::T7).unwrap()))
        );
        // Fork delivered the data to the CPU mid-path.
        assert!(found.contains(&PathStep::Cpu));
    }

    #[test]
    fn exception_paths_use_the_split_error_trace() {
        let lib = TraceLibrary::standard();
        for id in [TemplateId::T7, TemplateId::T10] {
            let path = lib.entry(id).resolve_path(&PayloadFlags {
                exception: true,
                ..Default::default()
            });
            assert_eq!(
                path.last(),
                Some(&PathStep::Chain(lib.error_addr())),
                "{id}"
            );
        }
        // T6 not-found also reports the error.
        let path = lib
            .entry(TemplateId::T6)
            .resolve_path(&PayloadFlags::default());
        assert_eq!(path.last(), Some(&PathStep::Chain(lib.error_addr())));
        // The error trace is the four-accelerator subsequence of §IV-B.
        let err = lib.atm().peek(lib.error_addr()).unwrap();
        assert_eq!(err.accelerator_count(), 4);
    }

    #[test]
    fn branch_conditions_match_section_vii_b2() {
        // §VII-B2: "The possible branch conditions are: Compressed?,
        // Exception?, Hit?, and Found?" (plus T6's C-Compressed).
        let lib = TraceLibrary::standard();
        let mut seen = BTreeSet::new();
        for id in TemplateId::ALL {
            for slot in lib.entry(id).slots() {
                if let crate::ir::Slot::Branch { cond, .. } = slot {
                    seen.insert(format!("{cond}"));
                }
            }
        }
        assert!(seen.contains("Compressed?"));
        assert!(seen.contains("Exception?"));
        assert!(seen.contains("Hit?"));
        assert!(seen.contains("Found?"));
        assert!(seen.contains("C-Compressed?"));
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn connectivity_matches_table_i_shape() {
        let lib = TraceLibrary::standard();
        let m = lib.connectivity();
        use AccelKind::*;
        use Neighbor::*;
        // Spot-check rows against Table I's structure.
        let (tcp_src, tcp_dst) = &m[&Tcp];
        assert!(
            tcp_src.contains(&Accel(Encr)),
            "Encr feeds TCP on every send"
        );
        assert!(tcp_src.contains(&Network), "TCP receives from the network");
        assert!(tcp_dst.contains(&Accel(Decr)), "TCP feeds Decr on receive");

        let (ldb_src, ldb_dst) = &m[&Ldb];
        assert!(ldb_src.contains(&Accel(Dser)) || ldb_src.contains(&Accel(Dcmp)));
        assert_eq!(
            ldb_dst.iter().collect::<Vec<_>>(),
            vec![&Cpu],
            "LdB only feeds the CPU"
        );

        let (dser_src, dser_dst) = &m[&Dser];
        assert!(dser_src.contains(&Accel(Decr)) || dser_src.contains(&Accel(Rpc)));
        assert!(dser_dst.contains(&Accel(Ldb)));
        assert!(dser_dst.contains(&Accel(Dcmp)));
        assert!(dser_dst.contains(&Accel(Ser)), "T5 miss: Dser → Ser");

        // Every accelerator both consumes and produces somewhere.
        for kind in AccelKind::ALL {
            let (src, dst) = &m[&kind];
            assert!(!src.is_empty(), "{kind} has no sources");
            assert!(!dst.is_empty(), "{kind} has no destinations");
        }
    }

    #[test]
    fn copies_share_traces_but_count_atm_accesses_apart() {
        let lib = TraceLibrary::standard();
        let mut copy = TraceLibrary::standard();
        for id in TemplateId::ALL {
            assert!(Arc::ptr_eq(lib.entry(id), copy.entry(id)), "{id}");
            assert!(
                Arc::ptr_eq(lib.entry_with_cmp(id), copy.entry_with_cmp(id)),
                "{id}"
            );
            // A message-triggered template's entry is its ATM resident.
            if let Some(addr) = lib.addr(id) {
                assert!(
                    Arc::ptr_eq(lib.entry(id), lib.atm().peek(addr).unwrap()),
                    "{id}"
                );
            }
        }
        let reads = lib.atm().reads();
        copy.atm_mut().load(lib.error_addr()).unwrap();
        assert_eq!(copy.atm().reads(), reads + 1);
        assert_eq!(lib.atm().reads(), reads, "counters are per copy");
    }

    #[test]
    fn library_is_branch_heavy() {
        let lib = TraceLibrary::standard();
        assert!(lib.branch_fraction() > 0.4);
    }

    #[test]
    fn template_metadata() {
        assert_eq!(TemplateId::T1.name(), "T1");
        assert!(TemplateId::T5.message_triggered());
        assert!(!TemplateId::T4.message_triggered());
        assert!(TemplateId::T8.description().contains("write"));
        assert_eq!(TemplateId::ALL.len(), 12);
    }

    #[test]
    fn all_templates_pack_within_budget() {
        // Every template (including branches/transform/tail fields)
        // packs; the pure-sequence ones fit the paper's 8 bytes.
        let lib = TraceLibrary::standard();
        for id in TemplateId::ALL {
            let bytes = crate::packed::pack(lib.entry(id)).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert!(bytes.len() <= 20, "{id} packs to {} bytes", bytes.len());
        }
        let t2 = crate::packed::pack(lib.entry(TemplateId::T2)).unwrap();
        assert!(t2.len() <= 8, "T2 is a simple sequence: {} bytes", t2.len());
    }
}
