//! Versioned checkpoint serialization for simulation state.
//!
//! Long runs and wide parameter sweeps re-simulate identical prefixes;
//! a checkpoint lets a run snapshot its full dynamic state and a later
//! process (or a forked sweep probe) resume byte-identically. This
//! module is the wire layer: a small hand-rolled binary format (the
//! build environment has no serde) with a [`Snapshot`] trait over the
//! state-bearing types, a length-checked [`SnapReader`], and a
//! versioned header carrying a configuration hash that
//! [`check_header`] refuses on mismatch — restoring state into a
//! machine built from a *different* configuration would silently
//! diverge, so it is an error, never a best-effort merge.
//!
//! Format rules (see `docs/CHECKPOINT.md` for the full contract):
//!
//! - All integers are little-endian and fixed-width; `usize` travels
//!   as `u64`; `f64` travels as its IEEE-754 bit pattern (exact
//!   round-trip, no text formatting).
//! - Sequences are a `u64` length followed by the elements.
//! - There is no self-description: reader and writer must agree on the
//!   layout, which is what [`SCHEMA_VERSION`] pins. Any layout change
//!   must bump it.
//!
//! Most layouts are declared once with [`impl_snapshot!`](crate::impl_snapshot):
//! a struct's field list, or an enum's tag table, generates both
//! `save` and `load`, so the two directions cannot disagree. Only
//! primitives, containers and types that hide a format or rebuild
//! state on load write their impls by hand.

use std::collections::VecDeque;

/// Current layout version; bump on any wire-format change. Version 2:
/// every run snapshot is a fleet snapshot, and a node's record is its
/// clamp count. Version 3: a pending hop arrival carries its payload
/// size, each PE record the size of the entry it runs, and a queue
/// entry no trace.
pub const SCHEMA_VERSION: u32 = 3;

/// Why a snapshot failed to load.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the expected data.
    UnexpectedEof {
        /// Read position where the data ran out.
        at: usize,
    },
    /// The leading magic bytes did not match.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The snapshot was written by a different layout version.
    SchemaVersion {
        /// Version recorded in the snapshot.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// The snapshot was taken under a different configuration.
    ConfigHash {
        /// Hash recorded in the snapshot.
        found: u64,
        /// Hash of the configuration the restore target was built from.
        expected: u64,
    },
    /// A decoded value was structurally impossible (bad enum tag,
    /// non-UTF-8 string, inconsistent lengths).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnexpectedEof { at } => {
                write!(f, "snapshot truncated at byte {at}")
            }
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot (magic {found:?})")
            }
            SnapshotError::SchemaVersion { found, expected } => {
                write!(f, "snapshot schema v{found}, this binary reads v{expected}")
            }
            SnapshotError::ConfigHash { found, expected } => {
                write!(
                    f,
                    "snapshot config hash {found:#018x} != restore target {expected:#018x}"
                )
            }
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only encoder producing the snapshot byte stream.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer into its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes with no length prefix (header fields).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Bounds-checked decoder over a snapshot byte stream.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Current read position (for error reporting).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(SnapshotError::UnexpectedEof { at: self.pos })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("usize overflow: {v}")))
    }

    /// Reads a length that must be plausible for the remaining bytes —
    /// each sequence element occupies at least one byte, so a length
    /// beyond the remainder is corruption, caught *before* allocating.
    pub fn seq_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError::Corrupt(format!(
                "sequence of {n} elements with only {} bytes left",
                self.buf.len() - self.pos
            )));
        }
        Ok(n)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting anything but 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string".into()))
    }

    /// Reads `n` raw bytes (header fields).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        self.take(n)
    }
}

/// State that can round-trip through a snapshot byte stream.
///
/// `load` must reproduce a value observably identical to the one
/// `save` captured — the restore-equivalence tests pin the composed
/// machine-level guarantee (run-to-T, snapshot, restore, run-to-end is
/// byte-identical to a straight run).
pub trait Snapshot: Sized {
    /// Appends this value's state to `w`.
    fn save(&self, w: &mut SnapWriter);
    /// Reads a value back from `r`.
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;
}

/// Declares a [`Snapshot`] impl from one layout: a struct's fields in
/// wire order, or an enum's one-byte tag table. `save` and `load` are
/// both generated from the same list, so they cannot disagree.
///
/// - `struct Ty { a, b, c }` writes and reads the listed fields in the
///   listed order; tuple structs name fields by position (`{ 0 }`).
///   Every field must be listed. An optional trailing `check path`
///   names a `fn(&Ty) -> Result<(), SnapshotError>` run on the loaded
///   value, for invariants the restore must refuse to trust.
/// - `enum Ty { 0 => A(x), 1 => B { f, g }, 2 => C }` writes the tag
///   byte, then the variant's fields in order. A tag outside the table
///   fails to load with `Corrupt("unknown Ty tag N")`.
///
/// The list order *is* the wire order: adding, removing or reordering
/// an entry changes the format, which means bumping [`SCHEMA_VERSION`].
///
/// ```
/// use accelflow_sim::impl_snapshot;
/// use accelflow_sim::snapshot::{SnapReader, SnapWriter, Snapshot, SnapshotError};
///
/// #[derive(Debug, PartialEq)]
/// struct Celsius(u16);
/// impl_snapshot! { struct Celsius { 0 } }
///
/// #[derive(Debug, PartialEq)]
/// struct Range { lo: u32, hi: u32, unit: Celsius }
/// impl_snapshot! { struct Range { lo, hi, unit } check ordered }
/// fn ordered(r: &Range) -> Result<(), SnapshotError> {
///     if r.lo > r.hi {
///         return Err(SnapshotError::Corrupt("lo above hi".into()));
///     }
///     Ok(())
/// }
///
/// #[derive(Debug, PartialEq)]
/// enum Reading { Missing, One(Celsius), Span { range: Range, stale: bool } }
/// impl_snapshot! {
///     enum Reading { 0 => Missing, 1 => One(c), 7 => Span { range, stale } }
/// }
///
/// let value = Reading::Span { range: Range { lo: 3, hi: 9, unit: Celsius(1) }, stale: true };
/// let mut w = SnapWriter::new();
/// value.save(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes[0], 7, "the tag byte leads");
/// assert_eq!(Reading::load(&mut SnapReader::new(&bytes)).unwrap(), value);
///
/// // The check refuses an inverted range...
/// let mut w = SnapWriter::new();
/// Range { lo: 9, hi: 3, unit: Celsius(1) }.save(&mut w);
/// let bytes = w.into_bytes();
/// assert!(Range::load(&mut SnapReader::new(&bytes)).is_err());
///
/// // ...and an unknown tag is corruption, not a panic.
/// assert_eq!(
///     Reading::load(&mut SnapReader::new(&[4])).unwrap_err(),
///     SnapshotError::Corrupt("unknown Reading tag 4".into()),
/// );
/// ```
#[macro_export]
macro_rules! impl_snapshot {
    (struct $ty:ty { $($field:tt),* $(,)? } $(check $check:path)?) => {
        impl $crate::snapshot::Snapshot for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                $( $crate::snapshot::Snapshot::save(&self.$field, w); )*
            }
            fn load(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                let value = Self { $( $field: $crate::snapshot::Snapshot::load(r)? ),* };
                $( $check(&value)?; )?
                Ok(value)
            }
        }
    };
    (enum $ty:ty {
        $( $tag:literal => $variant:ident
            $( ( $($tuple:ident),* ) )?
            $( { $($named:ident),* } )?
        ),* $(,)?
    }) => {
        impl $crate::snapshot::Snapshot for $ty {
            fn save(&self, w: &mut $crate::snapshot::SnapWriter) {
                match self {
                    $( Self::$variant $( ( $($tuple),* ) )? $( { $($named),* } )? => {
                        w.u8($tag);
                        $( $( $crate::snapshot::Snapshot::save($tuple, w); )* )?
                        $( $( $crate::snapshot::Snapshot::save($named, w); )* )?
                    } )*
                }
            }
            fn load(
                r: &mut $crate::snapshot::SnapReader<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                match r.u8()? {
                    $( $tag => {
                        $( $( let $tuple = $crate::snapshot::Snapshot::load(r)?; )* )?
                        $( $( let $named = $crate::snapshot::Snapshot::load(r)?; )* )?
                        Ok(Self::$variant $( ( $($tuple),* ) )? $( { $($named),* } )?)
                    } )*
                    other => Err($crate::snapshot::SnapshotError::Corrupt(format!(
                        "unknown {} tag {other}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

macro_rules! prim_snapshot {
    ($t:ty, $w:ident, $r:ident) => {
        impl Snapshot for $t {
            #[inline]
            fn save(&self, w: &mut SnapWriter) {
                w.$w(*self);
            }
            #[inline]
            fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$r()
            }
        }
    };
}

prim_snapshot!(u8, u8, u8);
prim_snapshot!(u16, u16, u16);
prim_snapshot!(u32, u32, u32);
prim_snapshot!(u64, u64, u64);
prim_snapshot!(usize, usize, usize);
prim_snapshot!(f64, f64, f64);
prim_snapshot!(bool, bool, bool);

impl Snapshot for u128 {
    /// Two `u64` halves, low word first.
    fn save(&self, w: &mut SnapWriter) {
        w.u64(*self as u64);
        w.u64((*self >> 64) as u64);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let lo = r.u64()?;
        let hi = r.u64()?;
        Ok(lo as u128 | (hi as u128) << 64)
    }
}

impl Snapshot for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.str()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.save(w);
            }
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::load(r)?)),
            b => Err(SnapshotError::Corrupt(format!("Option tag {b}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len()?;
        let mut out = VecDeque::with_capacity(n);
        for _ in 0..n {
            out.push_back(T::load(r)?);
        }
        Ok(out)
    }
}

impl<T: Snapshot> Snapshot for std::sync::Arc<T> {
    /// Serialized by content. Sharing is not preserved: two `Arc`s to
    /// the same allocation restore as two independent allocations.
    /// Checkpoint users only share immutable values (e.g. traces), so
    /// the duplicated copy is behaviorally identical.
    fn save(&self, w: &mut SnapWriter) {
        T::save(self, w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(std::sync::Arc::new(T::load(r)?))
    }
}

impl<T: Snapshot> Snapshot for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        T::save(self, w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Box::new(T::load(r)?))
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<T: Snapshot + Copy + Default, const N: usize> Snapshot for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        for v in self {
            v.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::load(r)?;
        }
        Ok(out)
    }
}

impl Snapshot for crate::time::SimTime {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_picos());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::time::SimTime::from_picos(r.u64()?))
    }
}

impl Snapshot for crate::time::SimDuration {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.as_picos());
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(crate::time::SimDuration::from_picos(r.u64()?))
    }
}

impl Snapshot for crate::stats::BusyTracker {
    fn save(&self, w: &mut SnapWriter) {
        self.busy().save(w);
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut t = crate::stats::BusyTracker::new();
        t.add_busy(crate::time::SimDuration::load(r)?);
        Ok(t)
    }
}

/// FNV-1a over `bytes` — the configuration-identity hash carried in
/// snapshot headers. Stable, dependency-free, and good enough to catch
/// a mismatched restore target (the guard is against *accidents*, not
/// adversaries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes the versioned snapshot header: 4 magic bytes,
/// [`SCHEMA_VERSION`], and the configuration hash.
pub fn write_header(w: &mut SnapWriter, magic: [u8; 4], config_hash: u64) {
    w.raw(&magic);
    w.u32(SCHEMA_VERSION);
    w.u64(config_hash);
}

/// Checks a snapshot header against the expected magic and the restore
/// target's configuration hash, refusing version or config mismatches.
pub fn check_header(
    r: &mut SnapReader<'_>,
    magic: [u8; 4],
    expected_config_hash: u64,
) -> Result<(), SnapshotError> {
    let found: [u8; 4] = r.raw(4)?.try_into().expect("len 4");
    if found != magic {
        return Err(SnapshotError::BadMagic { found });
    }
    let version = r.u32()?;
    if version != SCHEMA_VERSION {
        return Err(SnapshotError::SchemaVersion {
            found: version,
            expected: SCHEMA_VERSION,
        });
    }
    let hash = r.u64()?;
    if hash != expected_config_hash {
        return Err(SnapshotError::ConfigHash {
            found: hash,
            expected: expected_config_hash,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(513);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.usize(usize::MAX);
        w.f64(-0.1);
        w.bool(true);
        w.str("héllo");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 513);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), usize::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn containers_round_trip() {
        let mut w = SnapWriter::new();
        vec![1u64, 2, 3].save(&mut w);
        Option::<u32>::None.save(&mut w);
        Some(9u8).save(&mut w);
        VecDeque::from([4u16, 5]).save(&mut w);
        (1u8, 2u64).save(&mut w);
        [7u32; 3].save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Vec::<u64>::load(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(Option::<u32>::load(&mut r).unwrap(), None);
        assert_eq!(Option::<u8>::load(&mut r).unwrap(), Some(9));
        assert_eq!(
            VecDeque::<u16>::load(&mut r).unwrap(),
            VecDeque::from([4, 5])
        );
        assert_eq!(<(u8, u64)>::load(&mut r).unwrap(), (1, 2));
        assert_eq!(<[u32; 3]>::load(&mut r).unwrap(), [7; 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn u128_travels_as_two_halves_low_word_first() {
        let v = (7u128 << 64) | 9;
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes[..8], 9u64.to_le_bytes());
        assert_eq!(bytes[8..], 7u64.to_le_bytes());
        assert_eq!(u128::load(&mut SnapReader::new(&bytes)).unwrap(), v);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = SnapWriter::new();
        w.u64(42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        assert!(matches!(r.u64(), Err(SnapshotError::UnexpectedEof { .. })));
    }

    #[test]
    fn absurd_sequence_length_is_rejected_before_allocation() {
        let mut w = SnapWriter::new();
        w.u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert!(matches!(
            Vec::<u8>::load(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn header_guards_magic_version_and_config() {
        let mut w = SnapWriter::new();
        write_header(&mut w, *b"AFSN", 0xABCD);
        let good = w.into_bytes();
        assert!(check_header(&mut SnapReader::new(&good), *b"AFSN", 0xABCD).is_ok());
        assert!(matches!(
            check_header(&mut SnapReader::new(&good), *b"XXXX", 0xABCD),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            check_header(&mut SnapReader::new(&good), *b"AFSN", 0x1234),
            Err(SnapshotError::ConfigHash { .. })
        ));
        // Corrupt the version field in place.
        let mut stale = good.clone();
        stale[4] = 0xFF;
        assert!(matches!(
            check_header(&mut SnapReader::new(&stale), *b"AFSN", 0xABCD),
            Err(SnapshotError::SchemaVersion { .. })
        ));
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"accelflow"), fnv1a(b"accelflow"));
    }
}
