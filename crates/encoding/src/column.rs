//! Whole-column encode/decode: the data file + position index pair (§3.7).
//!
//! [`ColumnWriter`] buffers cells in a typed block buffer, cuts them into
//! [`BLOCK_SIZE`] blocks, encodes each with the column's encoding
//! (resolving Auto per block) through the typed encoders, and produces the
//! two byte streams a ROS container stores per column. Cells arrive typed
//! ([`ColumnWriter::extend_gathered`] — the storage write path, no `Value`
//! per cell) or as `Value`s
//! ([`ColumnWriter::push`], which classifies each into the same buffer);
//! the bytes are the same either way. [`ColumnReader`] supports full scans,
//! block-pruned scans and positional fetches (tuple reconstruction "by
//! fetching values with the same position from each column file").

use crate::block::{decode_block_native_selected, encode_typed_block, DecodedBlock, NativeBlock};
use crate::position_index::PositionIndex;
use crate::typed::TypedColumn;
use crate::EncodingType;
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult, Value};

/// Rows per encoded block. With typical value widths this keeps the
/// position index within the paper's "~1/1000 of raw data" budget.
pub const BLOCK_SIZE: usize = 1024;

/// Streams values into an encoded column (data bytes + position index).
pub struct ColumnWriter {
    encoding: EncodingType,
    block_size: usize,
    /// The block being filled, already in typed form.
    pending: TypedColumn,
    data: Writer,
    index: PositionIndex,
    rows_written: u64,
}

impl ColumnWriter {
    pub fn new(encoding: EncodingType) -> ColumnWriter {
        ColumnWriter::with_block_size(encoding, BLOCK_SIZE)
    }

    pub fn with_block_size(encoding: EncodingType, block_size: usize) -> ColumnWriter {
        assert!(block_size > 0);
        ColumnWriter {
            encoding,
            block_size,
            pending: TypedColumn::new(),
            data: Writer::new(),
            index: PositionIndex::default(),
            rows_written: 0,
        }
    }

    pub fn push(&mut self, v: Value) {
        self.pending.push(&v);
        if self.pending.len() >= self.block_size {
            self.flush_block();
        }
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = Value>) {
        for v in values {
            self.push(v);
        }
    }

    /// Append cells `rows` of a typed column, in that order: each block is
    /// gathered into the block buffer natively and encoded from there.
    pub fn extend_gathered(&mut self, column: &TypedColumn, mut rows: &[u32]) {
        while !rows.is_empty() {
            let room = self.block_size - self.pending.len();
            let (now, later) = rows.split_at(room.min(rows.len()));
            self.pending.extend_gather(column, now);
            if self.pending.len() >= self.block_size {
                self.flush_block();
            }
            rows = later;
        }
    }

    fn flush_block(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let meta = encode_typed_block(
            &self.pending.view(),
            self.encoding,
            self.rows_written,
            &mut self.data,
        )
        .expect("the block buffer is well-formed");
        self.rows_written += u64::from(meta.count);
        self.index.blocks.push(meta);
        self.pending.clear();
    }

    /// Finish the column, returning `(data_bytes, position_index)`.
    pub fn finish(mut self) -> (Vec<u8>, PositionIndex) {
        self.flush_block();
        (self.data.into_bytes(), self.index)
    }
}

/// Reads an encoded column given its data bytes and position index.
///
/// `data` may be the whole column file or any byte range of it that
/// starts at file offset `base`: blocks are located by their position
/// index offsets minus `base`, so a scan decodes straight from a ranged
/// read of just the blocks it needs. Asking for a block that lies outside
/// the loaded range is a [`DbError::Corrupt`], never a panic.
pub struct ColumnReader<'a> {
    data: &'a [u8],
    base: u64,
    index: &'a PositionIndex,
}

impl<'a> ColumnReader<'a> {
    /// Reader over the whole column file.
    pub fn new(data: &'a [u8], index: &'a PositionIndex) -> ColumnReader<'a> {
        ColumnReader::with_base(data, 0, index)
    }

    /// Reader over a partial buffer holding the file's bytes from offset
    /// `base` on.
    pub fn with_base(data: &'a [u8], base: u64, index: &'a PositionIndex) -> ColumnReader<'a> {
        ColumnReader { data, base, index }
    }

    pub fn num_blocks(&self) -> usize {
        self.index.blocks.len()
    }

    pub fn total_rows(&self) -> u64 {
        self.index.total_rows()
    }

    /// Decode block `i` (runs stay runs for the encoded-execution path).
    pub fn read_block(&self, i: usize) -> DbResult<DecodedBlock> {
        Ok(self.read_block_native(i)?.into_decoded())
    }

    /// Decode block `i` into type-native buffers (no per-row `Value`
    /// construction for specialized codecs) — the scan operator's typed
    /// vector fast path.
    pub fn read_block_native(&self, i: usize) -> DbResult<NativeBlock> {
        Ok(self.read_block_native_selected(i, None)?.0)
    }

    /// Selection-pushdown decode of block `i`: only the rows listed in
    /// `sel` (sorted indexes within the block) are guaranteed to be
    /// materialized; positions outside the selection hold unspecified
    /// padding. Returns the block plus the number of rows whose decode was
    /// skipped.
    pub fn read_block_native_selected(
        &self,
        i: usize,
        sel: Option<&[u32]>,
    ) -> DbResult<(NativeBlock, u64)> {
        let meta = self
            .index
            .blocks
            .get(i)
            .ok_or_else(|| DbError::Corrupt(format!("block {i} out of range")))?;
        let bytes = meta
            .byte_offset
            .checked_sub(self.base)
            .and_then(|start| usize::try_from(start).ok())
            .and_then(|start| Some(start..start.checked_add(meta.byte_len as usize)?))
            .and_then(|range| self.data.get(range))
            .ok_or_else(|| DbError::Corrupt(format!("block {i} lies outside the loaded bytes")))?;
        let (block, skipped) = decode_block_native_selected(&mut Reader::new(bytes), sel)?;
        if block.len() != meta.count as usize {
            return Err(DbError::Corrupt(format!(
                "block {i} decoded {} rows, index says {}",
                block.len(),
                meta.count
            )));
        }
        Ok((block, skipped))
    }

    /// Decode the whole column to values.
    pub fn read_all(&self) -> DbResult<Vec<Value>> {
        let mut out = Vec::with_capacity(self.total_rows() as usize);
        for i in 0..self.num_blocks() {
            out.extend(self.read_block(i)?.into_values());
        }
        Ok(out)
    }

    /// Fetch the value at an ordinal position (tuple reconstruction).
    pub fn value_at(&self, position: u64) -> DbResult<Value> {
        let bi = self
            .index
            .block_for_position(position)
            .ok_or_else(|| DbError::Corrupt(format!("position {position} out of range")))?;
        let meta = &self.index.blocks[bi];
        let within = (position - meta.start_position) as usize;
        match self.read_block(bi)? {
            DecodedBlock::Values(vals) => Ok(vals[within].clone()),
            DecodedBlock::Runs(runs) => {
                let mut remaining = within;
                for (v, n) in runs {
                    if remaining < n as usize {
                        return Ok(v);
                    }
                    remaining -= n as usize;
                }
                Err(DbError::Corrupt("position past run total".into()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_column(values: &[Value], enc: EncodingType) -> (Vec<u8>, PositionIndex) {
        let mut w = ColumnWriter::with_block_size(enc, 100);
        w.extend(values.iter().cloned());
        w.finish()
    }

    #[test]
    fn multi_block_round_trip() {
        let vals: Vec<Value> = (0..550).map(|i| Value::Integer(i % 13)).collect();
        let (data, index) = write_column(&vals, EncodingType::Auto);
        assert_eq!(index.blocks.len(), 6, "550 rows / 100-row blocks");
        let r = ColumnReader::new(&data, &index);
        assert_eq!(r.read_all().unwrap(), vals);
        assert_eq!(r.total_rows(), 550);
    }

    #[test]
    fn positional_fetch() {
        let vals: Vec<Value> = (0..550).map(Value::Integer).collect();
        let (data, index) = write_column(&vals, EncodingType::CommonDelta);
        let r = ColumnReader::new(&data, &index);
        for pos in [0u64, 99, 100, 101, 549] {
            assert_eq!(r.value_at(pos).unwrap(), Value::Integer(pos as i64));
        }
        assert!(r.value_at(550).is_err());
    }

    #[test]
    fn positional_fetch_through_rle_runs() {
        let mut vals = Vec::new();
        for d in 0..5 {
            vals.extend(std::iter::repeat_n(Value::Integer(d), 50));
        }
        let (data, index) = write_column(&vals, EncodingType::Rle);
        let r = ColumnReader::new(&data, &index);
        assert_eq!(r.value_at(0).unwrap(), Value::Integer(0));
        assert_eq!(r.value_at(49).unwrap(), Value::Integer(0));
        assert_eq!(r.value_at(50).unwrap(), Value::Integer(1));
        assert_eq!(r.value_at(249).unwrap(), Value::Integer(4));
    }

    #[test]
    fn block_min_max_supports_pruning() {
        // Sorted data: each 100-row block covers a disjoint range.
        let vals: Vec<Value> = (0..300).map(Value::Integer).collect();
        let (_, index) = write_column(&vals, EncodingType::Auto);
        assert_eq!(index.blocks[0].min, Value::Integer(0));
        assert_eq!(index.blocks[0].max, Value::Integer(99));
        assert_eq!(index.blocks[2].min, Value::Integer(200));
        // A predicate `col >= 250` must prune blocks 0 and 1.
        let kept: Vec<usize> = (0..3)
            .filter(|&i| index.blocks[i].might_contain_range(Some(&Value::Integer(250)), None))
            .collect();
        assert_eq!(kept, vec![2]);
    }

    #[test]
    fn position_index_is_small_fraction_of_data() {
        // Paper: "approximately 1/1000 the size of the raw column data".
        // With plain-encoded wide-ish strings and 1024-row blocks the index
        // is a tiny fraction; assert an order-of-magnitude bound.
        let vals: Vec<Value> = (0..20_000)
            .map(|i| Value::Varchar(format!("customer-name-{i:08}")))
            .collect();
        let mut w = ColumnWriter::new(EncodingType::Plain);
        w.extend(vals);
        let (data, index) = w.finish();
        let index_bytes = index.encode().len();
        assert!(
            index_bytes * 100 < data.len(),
            "index {} vs data {}",
            index_bytes,
            data.len()
        );
    }

    #[test]
    fn corrupt_data_detected() {
        let vals: Vec<Value> = (0..200).map(Value::Integer).collect();
        let (data, index) = write_column(&vals, EncodingType::Plain);
        let r = ColumnReader::new(&data[..data.len() / 2], &index);
        assert!(r.read_all().is_err());
    }

    #[test]
    fn partial_buffer_decodes_with_base_offset() {
        let vals: Vec<Value> = (0..550).map(|i| Value::Integer(i * 3)).collect();
        let (data, index) = write_column(&vals, EncodingType::Auto);
        let whole = ColumnReader::new(&data, &index);
        // Blocks 2..4 only: the buffer starts at block 2's offset.
        let base = index.blocks[2].byte_offset;
        let end = index.blocks[3].byte_offset + u64::from(index.blocks[3].byte_len);
        let part = ColumnReader::with_base(&data[base as usize..end as usize], base, &index);
        for b in 2..4 {
            assert_eq!(
                part.read_block(b).unwrap().into_values(),
                whole.read_block(b).unwrap().into_values()
            );
        }
        assert_eq!(part.value_at(250).unwrap(), Value::Integer(750));
        // Blocks before and after the loaded range are errors, not panics.
        assert!(matches!(part.read_block(1), Err(DbError::Corrupt(_))));
        assert!(matches!(part.read_block(4), Err(DbError::Corrupt(_))));
        assert!(matches!(part.value_at(0), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn empty_column() {
        let (data, index) = write_column(&[], EncodingType::Auto);
        let r = ColumnReader::new(&data, &index);
        assert_eq!(r.read_all().unwrap(), Vec::<Value>::new());
        assert_eq!(r.total_rows(), 0);
    }
}
