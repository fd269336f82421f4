//! Checkpoint serialization for trace-IR types.
//!
//! [`Snapshot`] impls for everything of this crate that appears in a
//! machine checkpoint: sampled request programs embed [`Trace`]s (via
//! `Arc`, serialized by content — traces are immutable once built, so a
//! restored copy in a fresh `Arc` is behaviorally identical), and queue
//! entries carry [`PositionMark`]s, [`AtmAddr`]s, and [`PayloadFlags`].
//! Plain layouts are declared once with [`impl_snapshot!`]: field
//! lists for the structs, a stable one-byte tag table for [`Slot`],
//! independent of `as`-cast discriminants, with unknown tags rejected
//! as corrupt rather than wrapped. The code tables of [`AccelKind`],
//! [`DataFormat`] and [`BranchCond`] and the revalidating [`Trace`]
//! load are written by hand. See `docs/CHECKPOINT.md` for the wire
//! format.

use accelflow_sim::impl_snapshot;
use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};

use crate::atm::AtmAddr;
use crate::cond::{BranchCond, PayloadFlags};
use crate::format::{DataFormat, Transform};
use crate::ir::{PositionMark, Slot, Trace};
use crate::kind::AccelKind;

impl Snapshot for AccelKind {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.id());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let id = r.u8()?;
        AccelKind::from_id(id)
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown AccelKind id {id}")))
    }
}

impl Snapshot for DataFormat {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.code());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let code = r.u8()?;
        DataFormat::from_code(code)
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown DataFormat code {code}")))
    }
}

impl_snapshot! { struct Transform { src, dst } }

impl Snapshot for BranchCond {
    fn save(&self, w: &mut SnapWriter) {
        let (mask, expect) = match self {
            BranchCond::Custom { mask, expect } => (*mask, *expect),
            _ => (0, 0),
        };
        w.u8(self.code());
        w.u8(mask);
        w.u8(expect);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let code = r.u8()?;
        let mask = r.u8()?;
        let expect = r.u8()?;
        BranchCond::from_code(code, mask, expect)
            .ok_or_else(|| SnapshotError::Corrupt(format!("unknown BranchCond code {code}")))
    }
}

impl_snapshot! { struct AtmAddr { 0 } }

impl_snapshot! { struct PositionMark { 0 } }

impl_snapshot! {
    struct PayloadFlags { compressed, hit, found, exception, cache_compressed, custom_field }
}

impl_snapshot! {
    enum Slot {
        0 => Accel(kind),
        1 => Branch { cond, on_true, on_false },
        2 => Jump(target),
        3 => Transform(t),
        4 => ForkToCpu,
        5 => ToCpu,
        6 => NextTrace(addr),
    }
}

impl Snapshot for Trace {
    /// Serializes by content (name + slot program); [`Trace::load`]
    /// revalidates the program, so corrupt control flow (backward
    /// jumps, out-of-range targets) is rejected instead of trusted.
    fn save(&self, w: &mut SnapWriter) {
        w.str(self.name());
        w.usize(self.slots().len());
        for slot in self.slots() {
            slot.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let name = r.str()?;
        let slots = Vec::<Slot>::load(r)?;
        Trace::try_new(name, slots).map_err(SnapshotError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::TraceLibrary;

    fn roundtrip<T: Snapshot>(value: &T) -> T {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let out = T::load(&mut r).expect("roundtrip failed");
        assert!(r.is_exhausted(), "trailing bytes after roundtrip");
        out
    }

    #[test]
    fn every_library_trace_roundtrips() {
        let lib = TraceLibrary::standard();
        for template in crate::templates::TemplateId::ALL {
            let trace = lib.entry(template);
            assert_eq!(&roundtrip(trace), trace, "{template}");
        }
    }

    #[test]
    fn slot_tags_roundtrip() {
        for slot in [
            Slot::Accel(AccelKind::Ldb),
            Slot::Branch {
                cond: BranchCond::Custom {
                    mask: 0xF0,
                    expect: 0x30,
                },
                on_true: 2,
                on_false: 3,
            },
            Slot::Jump(7),
            Slot::Transform(Transform {
                src: DataFormat::Json,
                dst: DataFormat::Protobuf,
            }),
            Slot::ForkToCpu,
            Slot::ToCpu,
            Slot::NextTrace(AtmAddr(513)),
        ] {
            assert_eq!(roundtrip(&slot), slot);
        }
    }

    #[test]
    fn corrupt_trace_program_rejected() {
        // A hand-built byte stream encoding a backward jump must fail
        // revalidation on load.
        let mut w = SnapWriter::new();
        w.str("evil");
        w.usize(2);
        Slot::Accel(AccelKind::Tcp).save(&mut w);
        Slot::Jump(0).save(&mut w); // backward: invalid
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Trace::load(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn payload_flags_roundtrip() {
        let flags = PayloadFlags {
            compressed: true,
            hit: false,
            found: true,
            exception: false,
            cache_compressed: true,
            custom_field: 0xA5,
        };
        assert_eq!(roundtrip(&flags), flags);
    }
}
