//! Data formats and the transformations between them (paper §III Q3,
//! §V-2).
//!
//! Data produced by one accelerator is sometimes consumed by the next
//! in a different representation; the transformations are simple
//! (string ↔ BSON ↔ JSON and similar), so AccelFlow's output dispatcher
//! performs them with a small Data Transform Engine (a simplified
//! (De)Ser accelerator without nested-message support).

use std::fmt;

/// A wire/application data representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum DataFormat {
    /// JSON text.
    Json = 0,
    /// Binary JSON (MongoDB's BSON).
    Bson = 1,
    /// Plain string/bytes.
    Str = 2,
    /// Protocol-buffer wire format.
    Protobuf = 3,
    /// Raw/opaque bytes (no structure).
    Raw = 4,
}

impl DataFormat {
    /// All formats, in code order.
    pub const ALL: [DataFormat; 5] = [
        DataFormat::Json,
        DataFormat::Bson,
        DataFormat::Str,
        DataFormat::Protobuf,
        DataFormat::Raw,
    ];

    /// 4-bit code for the packed encoding.
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// Inverse of [`DataFormat::code`].
    pub fn from_code(code: u8) -> Option<DataFormat> {
        DataFormat::ALL.get(code as usize).copied()
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DataFormat::Json => "JSON",
            DataFormat::Bson => "BSON",
            DataFormat::Str => "string",
            DataFormat::Protobuf => "protobuf",
            DataFormat::Raw => "raw",
        }
    }
}

impl fmt::Display for DataFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A data-format transformation node in a trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Transform {
    /// Source representation.
    pub src: DataFormat,
    /// Destination representation.
    pub dst: DataFormat,
}

impl Transform {
    /// Dispatcher glue instructions to orchestrate the transformation
    /// of `bytes` of payload (paper §VII-B2: "12 RISC instructions for
    /// 2KB payloads" — bulk load, DTE invocation, bulk store; larger
    /// payloads repeat the bulk moves per 2 KB chunk). Saturates at
    /// `u32::MAX` for sizes no payload reaches.
    #[inline]
    pub fn dispatcher_instructions(&self, bytes: u64) -> u32 {
        let chunks = u32::try_from(bytes.div_ceil(2048).max(1)).unwrap_or(u32::MAX);
        chunks.saturating_mul(12)
    }

    /// Size ratio of the output relative to the input. Text→binary
    /// densifies slightly; binary→text inflates; same-format is
    /// identity.
    #[inline]
    pub fn size_ratio(&self) -> f64 {
        use DataFormat::*;
        let density = |f: DataFormat| match f {
            Json => 1.0,
            Str => 0.95,
            Bson => 0.8,
            Protobuf => 0.7,
            Raw => 1.0,
        };
        density(self.dst) / density(self.src)
    }
}

impl fmt::Display for Transform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.src, self.dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for fmt in DataFormat::ALL {
            assert_eq!(DataFormat::from_code(fmt.code()), Some(fmt));
        }
        assert_eq!(DataFormat::from_code(9), None);
    }

    #[test]
    fn dispatcher_instruction_count_matches_paper() {
        let t = Transform {
            src: DataFormat::Json,
            dst: DataFormat::Str,
        };
        assert_eq!(t.dispatcher_instructions(2048), 12);
        assert_eq!(t.dispatcher_instructions(0), 12);
        assert_eq!(t.dispatcher_instructions(4096), 24);
        assert_eq!(t.dispatcher_instructions(4097), 36);
    }

    #[test]
    fn size_ratio_direction() {
        let densify = Transform {
            src: DataFormat::Json,
            dst: DataFormat::Protobuf,
        };
        let inflate = Transform {
            src: DataFormat::Protobuf,
            dst: DataFormat::Json,
        };
        let identity = Transform {
            src: DataFormat::Str,
            dst: DataFormat::Str,
        };
        assert!(densify.size_ratio() < 1.0);
        assert!(inflate.size_ratio() > 1.0);
        assert_eq!(identity.size_ratio(), 1.0);
    }

    #[test]
    fn display() {
        let t = Transform {
            src: DataFormat::Json,
            dst: DataFormat::Str,
        };
        assert_eq!(t.to_string(), "JSON→string");
    }
}
