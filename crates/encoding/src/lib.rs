//! `vdb-encoding` — Vertica's column encoding schemes (§3.4 of the paper).
//!
//! Each column of each projection has a specific encoding. This crate
//! implements the six encoding types enumerated in §3.4.1:
//!
//! 1. **Auto** — the system picks the most advantageous type from the data.
//! 2. **RLE** — run-length encoding; best for low-cardinality sorted columns.
//! 3. **Delta Value** — difference from the smallest value in a block; best
//!    for many-valued unsorted integer columns.
//! 4. **Block Dictionary** — per-block dictionary of distinct values; best
//!    for few-valued unsorted columns.
//! 5. **Compressed Delta Range** — delta from the previous value; ideal for
//!    many-valued float columns that are sorted or range-confined.
//! 6. **Compressed Common Delta** — dictionary of deltas with entropy-coded
//!    indexes; best for sorted data with predictable sequences (timestamps
//!    at periodic intervals, primary keys).
//!
//! Plus **Plain** (uncompressed) as the fallback.
//!
//! Columns are encoded in fixed-size *blocks* ([`block`]), and every block
//! records `(start position, row count, min, max)` in the per-column
//! [`position_index`] — "approximately 1/1000 the size of the raw column
//! data" (§3.7) — which the scan operator uses for fast tuple reconstruction
//! and container pruning.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod auto;
pub mod block;
pub mod block_dict;
pub mod column;
pub mod common_delta;
pub mod delta_delta;
pub mod delta_range;
pub mod delta_value;
pub mod for_bitpack;
mod kernels;
pub mod plain;
pub mod position_index;
pub mod rle;
pub mod typed;

pub use auto::choose_encoding;
pub use block::{
    decode_block, decode_block_native, decode_block_native_selected, encode_block,
    encode_typed_block, DecodedBlock, NativeBlock,
};
pub use column::{ColumnReader, ColumnWriter, BLOCK_SIZE};
pub use position_index::{BlockMeta, PositionIndex};
pub use typed::{TypedColumn, TypedSlice};

use vdb_types::{DbError, DbResult};

/// Identifies an encoding scheme (§3.4.1). `Auto` is resolved to a concrete
/// scheme at encode time and never appears on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingType {
    /// Resolve per block based on data properties.
    Auto,
    /// Uncompressed tagged values.
    Plain,
    Rle,
    DeltaValue,
    BlockDict,
    DeltaRange,
    CommonDelta,
    /// Frame-of-reference + fixed-width bit-packing for integers.
    ForBitPack,
    /// Delta-of-delta with variable-width buckets for timestamp-like data.
    DeltaDelta,
}

impl EncodingType {
    pub fn tag(self) -> u8 {
        match self {
            EncodingType::Auto => 0,
            EncodingType::Plain => 1,
            EncodingType::Rle => 2,
            EncodingType::DeltaValue => 3,
            EncodingType::BlockDict => 4,
            EncodingType::DeltaRange => 5,
            EncodingType::CommonDelta => 6,
            EncodingType::ForBitPack => 7,
            EncodingType::DeltaDelta => 8,
        }
    }

    pub fn from_tag(tag: u8) -> DbResult<EncodingType> {
        Ok(match tag {
            0 => EncodingType::Auto,
            1 => EncodingType::Plain,
            2 => EncodingType::Rle,
            3 => EncodingType::DeltaValue,
            4 => EncodingType::BlockDict,
            5 => EncodingType::DeltaRange,
            6 => EncodingType::CommonDelta,
            7 => EncodingType::ForBitPack,
            8 => EncodingType::DeltaDelta,
            t => return Err(DbError::Corrupt(format!("unknown encoding tag {t}"))),
        })
    }

    /// All concrete (non-Auto) encodings, in trial order for the Database
    /// Designer's empirical storage-optimization phase (§6.3).
    pub const CONCRETE: [EncodingType; 8] = [
        EncodingType::Plain,
        EncodingType::Rle,
        EncodingType::DeltaValue,
        EncodingType::BlockDict,
        EncodingType::DeltaRange,
        EncodingType::CommonDelta,
        EncodingType::ForBitPack,
        EncodingType::DeltaDelta,
    ];

    pub fn name(self) -> &'static str {
        match self {
            EncodingType::Auto => "AUTO",
            EncodingType::Plain => "PLAIN",
            EncodingType::Rle => "RLE",
            EncodingType::DeltaValue => "DELTAVAL",
            EncodingType::BlockDict => "BLOCKDICT",
            EncodingType::DeltaRange => "DELTARANGE",
            EncodingType::CommonDelta => "COMMONDELTA",
            EncodingType::ForBitPack => "FORBITPACK",
            EncodingType::DeltaDelta => "DELTADELTA",
        }
    }

    pub fn parse(name: &str) -> Option<EncodingType> {
        Some(match name.to_ascii_uppercase().as_str() {
            "AUTO" => EncodingType::Auto,
            "PLAIN" | "NONE" => EncodingType::Plain,
            "RLE" => EncodingType::Rle,
            "DELTAVAL" | "DELTA_VALUE" => EncodingType::DeltaValue,
            "BLOCKDICT" | "BLOCK_DICT" => EncodingType::BlockDict,
            "DELTARANGE" | "DELTA_RANGE" => EncodingType::DeltaRange,
            "COMMONDELTA" | "COMMON_DELTA" => EncodingType::CommonDelta,
            "FORBITPACK" | "FOR_BITPACK" => EncodingType::ForBitPack,
            "DELTADELTA" | "DELTA_DELTA" => EncodingType::DeltaDelta,
            _ => return None,
        })
    }
}

impl std::fmt::Display for EncodingType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_round_trip() {
        for e in EncodingType::CONCRETE {
            assert_eq!(EncodingType::from_tag(e.tag()).unwrap(), e);
        }
        assert!(EncodingType::from_tag(99).is_err());
    }

    #[test]
    fn parse_names() {
        assert_eq!(EncodingType::parse("rle"), Some(EncodingType::Rle));
        assert_eq!(
            EncodingType::parse("COMMONDELTA"),
            Some(EncodingType::CommonDelta)
        );
        assert_eq!(EncodingType::parse("nope"), None);
    }
}
