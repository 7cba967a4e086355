//! ROS containers (§3.7).
//!
//! "Data in the ROS is physically stored in multiple ROS containers on a
//! standard file system. Each ROS container logically contains some number
//! of complete tuples sorted by the projection's sort order, stored as a
//! pair of files per column ... one with the actual column data, and one
//! with a position index." Containers are immutable once written; data is
//! identified by implicit ordinal position.
//!
//! A container is written from typed columns and a row permutation
//! ([`RosContainer::write_columns`]): each column is gathered block by
//! block into the typed encoders. [`RosContainer::write`] is the
//! row-shaped door onto it.
//!
//! The rarely-used hybrid row-column mode ("grouping multiple columns
//! together into the same file", §3.7) is supported via
//! [`RosContainer::write_grouped`].

use crate::backend::StorageBackend;
use crate::projection::ProjectionDef;
use std::ops::Range;
use vdb_encoding::{ColumnReader, ColumnWriter, PositionIndex, TypedColumn};
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult, Epoch, Row, Value};

/// Identifies a ROS container within a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u64);

impl std::fmt::Display for ContainerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ros{}", self.0)
    }
}

/// The bytes of a run of neighbouring blocks of one column file, fetched
/// by one ranged read ([`RosContainer::read_blocks`]). Decodes through
/// [`ColumnChunk::reader`], which knows where in the file the bytes start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnChunk {
    base: u64,
    bytes: Vec<u8>,
}

impl ColumnChunk {
    /// Reader for the blocks this chunk holds; `index` is the column's
    /// position index (`container.indexes[col]`).
    pub fn reader<'a>(&'a self, index: &'a PositionIndex) -> ColumnReader<'a> {
        ColumnReader::with_base(&self.bytes, self.base, index)
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Metadata for one immutable ROS container. Column data lives on the
/// backend; position indexes are cached in memory (they are tiny, §3.7).
#[derive(Debug, Clone, PartialEq)]
pub struct RosContainer {
    pub id: ContainerId,
    pub projection: String,
    /// `PARTITION BY` key all tuples in this container evaluate to (§3.5).
    pub partition_key: Option<Value>,
    /// Local segment index within the node (§3.6).
    pub local_segment: u32,
    /// Epoch of the committing transaction; the container is invisible to
    /// snapshots before it.
    pub commit_epoch: Epoch,
    pub row_count: u64,
    /// Hybrid row-column mode: all columns in one file.
    pub grouped: bool,
    /// Cached per-column position indexes (empty for grouped containers).
    pub indexes: Vec<PositionIndex>,
}

impl RosContainer {
    fn dir(projection: &str, id: ContainerId) -> String {
        format!("{projection}/{id}")
    }

    /// Path of a column's data file.
    pub fn data_path(&self, col: usize) -> String {
        format!("{}/c{col}.dat", Self::dir(&self.projection, self.id))
    }

    /// Path of a column's position index file.
    pub fn index_path(&self, col: usize) -> String {
        format!("{}/c{col}.idx", Self::dir(&self.projection, self.id))
    }

    fn grouped_path(&self) -> String {
        format!("{}/rows.grp", Self::dir(&self.projection, self.id))
    }

    fn meta_path(&self) -> String {
        format!("{}/container.meta", Self::dir(&self.projection, self.id))
    }

    /// Write a new column-oriented container from rows already sorted by
    /// the projection's sort order: the row-shaped door, which pivots the
    /// rows once and hands the typed columns to
    /// [`RosContainer::write_columns`].
    pub fn write(
        backend: &dyn StorageBackend,
        def: &ProjectionDef,
        id: ContainerId,
        rows: &[Row],
        commit_epoch: Epoch,
        partition_key: Option<Value>,
        local_segment: u32,
    ) -> DbResult<RosContainer> {
        debug_assert!(
            rows.windows(2).all(|w| {
                vdb_types::schema::compare_rows(&w[0], &w[1], &def.sort_keys)
                    != std::cmp::Ordering::Greater
            }),
            "rows must be sorted by the projection sort order"
        );
        let columns: Vec<TypedColumn> = (0..def.arity())
            .map(|col| TypedColumn::from_values(rows.iter().map(|r| &r[col])))
            .collect();
        let in_order: Vec<u32> = (0..rows.len() as u32).collect();
        Self::write_columns(
            backend,
            def,
            id,
            columns.iter(),
            &in_order,
            commit_epoch,
            partition_key,
            local_segment,
        )
    }

    /// Write a new column-oriented container holding cells `rows` of each
    /// typed column, in that order (which must be the projection's sort
    /// order): every column is gathered block by block into the typed
    /// encoders.
    #[allow(clippy::too_many_arguments)]
    pub fn write_columns<'a>(
        backend: &dyn StorageBackend,
        def: &ProjectionDef,
        id: ContainerId,
        columns: impl Iterator<Item = &'a TypedColumn>,
        rows: &[u32],
        commit_epoch: Epoch,
        partition_key: Option<Value>,
        local_segment: u32,
    ) -> DbResult<RosContainer> {
        let mut container = RosContainer {
            id,
            projection: def.name.clone(),
            partition_key,
            local_segment,
            commit_epoch,
            row_count: rows.len() as u64,
            grouped: false,
            indexes: Vec::with_capacity(def.arity()),
        };
        for (col, column) in columns.enumerate() {
            let mut w = ColumnWriter::new(def.encodings[col]);
            w.extend_gathered(column, rows);
            let (data, index) = w.finish();
            backend.write_file(&container.data_path(col), &data)?;
            backend.write_file(&container.index_path(col), &index.encode())?;
            container.indexes.push(index);
        }
        backend.write_file(&container.meta_path(), &container.encode_meta())?;
        Ok(container)
    }

    /// Write a grouped (hybrid row-column) container: one file holding all
    /// columns row by row.
    pub fn write_grouped(
        backend: &dyn StorageBackend,
        def: &ProjectionDef,
        id: ContainerId,
        rows: &[Row],
        commit_epoch: Epoch,
        partition_key: Option<Value>,
        local_segment: u32,
    ) -> DbResult<RosContainer> {
        let container = RosContainer {
            id,
            projection: def.name.clone(),
            partition_key,
            local_segment,
            commit_epoch,
            row_count: rows.len() as u64,
            grouped: true,
            indexes: Vec::new(),
        };
        let mut w = Writer::new();
        w.put_uvarint(rows.len() as u64);
        w.put_uvarint(def.arity() as u64);
        for row in rows {
            for v in row {
                w.put_value(v);
            }
        }
        backend.write_file(&container.grouped_path(), &w.into_bytes())?;
        backend.write_file(&container.meta_path(), &container.encode_meta())?;
        Ok(container)
    }

    /// Read one column's values (decoding every block).
    pub fn read_column(&self, backend: &dyn StorageBackend, col: usize) -> DbResult<Vec<Value>> {
        if self.grouped {
            let rows = self.read_rows_grouped(backend)?;
            return Ok(rows.into_iter().map(|mut r| r.swap_remove(col)).collect());
        }
        self.read_block_values(backend, col, 0..self.block_count())
    }

    /// Read a whole column file's bytes (probes and tools; scans fetch
    /// block ranges through [`RosContainer::read_blocks`]).
    pub fn read_column_bytes(&self, backend: &dyn StorageBackend, col: usize) -> DbResult<Vec<u8>> {
        if self.grouped {
            return Err(DbError::Execution(
                "grouped containers have no per-column files".into(),
            ));
        }
        backend.read_file(&self.data_path(col))
    }

    /// Fetch blocks `blocks` of column `col` with one ranged read: blocks
    /// are appended back to back, so a run of neighbours is one byte range
    /// `first.byte_offset .. last.byte_offset + last.byte_len`. An empty
    /// run reads nothing.
    pub fn read_blocks(
        &self,
        backend: &dyn StorageBackend,
        col: usize,
        blocks: Range<usize>,
    ) -> DbResult<ColumnChunk> {
        let metas = self
            .indexes
            .get(col)
            .and_then(|index| index.blocks.get(blocks.clone()))
            .ok_or_else(|| {
                DbError::Corrupt(format!("{}: no blocks {blocks:?} in column {col}", self.id))
            })?;
        let (Some(first), Some(last)) = (metas.first(), metas.last()) else {
            return Ok(ColumnChunk {
                base: 0,
                bytes: Vec::new(),
            });
        };
        let base = first.byte_offset;
        let len = (last.byte_offset + u64::from(last.byte_len))
            .checked_sub(base)
            .and_then(|len| usize::try_from(len).ok())
            .ok_or_else(|| {
                DbError::Corrupt(format!(
                    "{}: column {col} block offsets go backwards",
                    self.id
                ))
            })?;
        Ok(ColumnChunk {
            base,
            bytes: backend.read_range(&self.data_path(col), base, len)?,
        })
    }

    /// Decode blocks `blocks` of column `col` to values.
    fn read_block_values(
        &self,
        backend: &dyn StorageBackend,
        col: usize,
        blocks: Range<usize>,
    ) -> DbResult<Vec<Value>> {
        let chunk = self.read_blocks(backend, col, blocks.clone())?;
        let reader = chunk.reader(&self.indexes[col]);
        let mut values = Vec::new();
        for b in blocks {
            values.extend(reader.read_block(b)?.into_values());
        }
        Ok(values)
    }

    /// Reconstruct complete rows (all columns).
    pub fn read_rows(&self, backend: &dyn StorageBackend) -> DbResult<Vec<Row>> {
        self.read_leading_rows(backend, usize::MAX)
    }

    /// Reconstruct the first `limit` rows: one ranged read per column,
    /// covering only the leading blocks that hold them.
    pub fn read_leading_rows(
        &self,
        backend: &dyn StorageBackend,
        limit: usize,
    ) -> DbResult<Vec<Row>> {
        if self.grouped {
            let mut rows = self.read_rows_grouped(backend)?;
            rows.truncate(limit);
            return Ok(rows);
        }
        let n = (self.row_count as usize).min(limit);
        let mut columns = Vec::with_capacity(self.indexes.len());
        for (c, index) in self.indexes.iter().enumerate() {
            let blocks = match n.checked_sub(1) {
                // Past-the-end means the index holds fewer rows than the
                // container claims; reading every block shows how many.
                Some(last) => index
                    .block_for_position(last as u64)
                    .map_or(index.blocks.len(), |b| b + 1),
                None => 0,
            };
            let values = self.read_block_values(backend, c, 0..blocks)?;
            if values.len() < n {
                return Err(DbError::Corrupt(format!(
                    "{}: column {c} holds {} rows, container says {}",
                    self.id,
                    values.len(),
                    self.row_count
                )));
            }
            columns.push(values.into_iter());
        }
        Ok((0..n)
            .map(|_| {
                columns
                    .iter_mut()
                    .map(|c| c.next().expect("length checked above"))
                    .collect()
            })
            .collect())
    }

    fn read_rows_grouped(&self, backend: &dyn StorageBackend) -> DbResult<Vec<Row>> {
        let bytes = backend.read_file(&self.grouped_path())?;
        let mut r = Reader::new(&bytes);
        let n = r.get_uvarint()? as usize;
        let arity = r.get_uvarint()? as usize;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let mut row = Vec::with_capacity(arity);
            for _ in 0..arity {
                row.push(r.get_value()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }

    /// Reconstruct the tuple at `position` by fetching the value with the
    /// same position from each column file (§3.7).
    pub fn read_row_at(&self, backend: &dyn StorageBackend, position: u64) -> DbResult<Row> {
        if self.grouped {
            let rows = self.read_rows_grouped(backend)?;
            return rows
                .get(position as usize)
                .cloned()
                .ok_or_else(|| DbError::Corrupt(format!("position {position} out of range")));
        }
        // One block per column: the one holding `position`.
        let mut row = Vec::with_capacity(self.indexes.len());
        for (c, index) in self.indexes.iter().enumerate() {
            let block = index
                .block_for_position(position)
                .ok_or_else(|| DbError::Corrupt(format!("position {position} out of range")))?;
            let chunk = self.read_blocks(backend, c, block..block + 1)?;
            row.push(chunk.reader(index).value_at(position)?);
        }
        Ok(row)
    }

    /// Delete all files (rollback / post-mergeout reclamation; "removing a
    /// specific month of data is as simple as deleting files", §3.5).
    pub fn delete_files(&self, backend: &dyn StorageBackend) -> DbResult<()> {
        if self.grouped {
            backend.delete_file(&self.grouped_path())?;
        } else {
            for c in 0..self.indexes.len() {
                backend.delete_file(&self.data_path(c))?;
                backend.delete_file(&self.index_path(c))?;
            }
        }
        backend.delete_file(&self.meta_path())?;
        Ok(())
    }

    /// Container-level min/max of a column (SMA pruning at plan time, §3.5).
    pub fn column_min_max(&self, col: usize) -> Option<(Value, Value)> {
        self.indexes.get(col)?.column_min_max()
    }

    /// Number of 1024-row storage blocks per column. Blocks are row-aligned
    /// across a container's columns, so block `b` means the same rows in
    /// every column file — which is what lets a scan morsel be a
    /// (container, block range) pair: pruned, fetched and decoded block
    /// by block without touching the rest of the container.
    pub fn block_count(&self) -> usize {
        self.indexes.first().map_or(0, |idx| idx.blocks.len())
    }

    /// Serialize container metadata.
    pub fn encode_meta(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_uvarint(self.id.0);
        w.put_str(&self.projection);
        match &self.partition_key {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                w.put_value(v);
            }
        }
        w.put_u32(self.local_segment);
        w.put_uvarint(self.commit_epoch.0);
        w.put_uvarint(self.row_count);
        w.put_u8(u8::from(self.grouped));
        w.put_uvarint(self.indexes.len() as u64);
        for idx in &self.indexes {
            w.put_bytes(&idx.encode());
        }
        w.into_bytes()
    }

    pub fn decode_meta(bytes: &[u8]) -> DbResult<RosContainer> {
        let mut r = Reader::new(bytes);
        let id = ContainerId(r.get_uvarint()?);
        let projection = r.get_str()?;
        let partition_key = match r.get_u8()? {
            0 => None,
            _ => Some(r.get_value()?),
        };
        let local_segment = r.get_u32()?;
        let commit_epoch = Epoch(r.get_uvarint()?);
        let row_count = r.get_uvarint()?;
        let grouped = r.get_u8()? != 0;
        let n = r.get_uvarint()? as usize;
        let mut indexes = Vec::with_capacity(n);
        for _ in 0..n {
            indexes.push(PositionIndex::decode(r.get_bytes()?)?);
        }
        Ok(RosContainer {
            id,
            projection,
            partition_key,
            local_segment,
            commit_epoch,
            row_count,
            grouped,
            indexes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use vdb_types::{ColumnDef, DataType, TableSchema};

    fn def() -> ProjectionDef {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Varchar),
            ],
        );
        ProjectionDef::super_projection(&schema, "t_super", &[0], &[0])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Integer(i), Value::Varchar(format!("s{}", i % 3))])
            .collect()
    }

    #[test]
    fn write_read_round_trip() {
        let backend = MemBackend::new();
        let c = RosContainer::write(
            &backend,
            &def(),
            ContainerId(1),
            &rows(100),
            Epoch(1),
            None,
            0,
        )
        .unwrap();
        assert_eq!(c.row_count, 100);
        assert_eq!(c.read_rows(&backend).unwrap(), rows(100));
        assert_eq!(c.read_column(&backend, 0).unwrap()[5], Value::Integer(5));
        // Two files per column + meta.
        assert_eq!(backend.list_files("t_super/").len(), 5);
    }

    #[test]
    fn positional_tuple_reconstruction() {
        let backend = MemBackend::new();
        let c = RosContainer::write(
            &backend,
            &def(),
            ContainerId(2),
            &rows(50),
            Epoch(1),
            None,
            0,
        )
        .unwrap();
        assert_eq!(
            c.read_row_at(&backend, 49).unwrap(),
            vec![Value::Integer(49), Value::Varchar("s1".into())]
        );
        assert!(c.read_row_at(&backend, 50).is_err());
    }

    /// A container of 5000 rows: five blocks per column.
    fn five_block_container(backend: &dyn StorageBackend) -> RosContainer {
        RosContainer::write(
            backend,
            &def(),
            ContainerId(9),
            &rows(5000),
            Epoch(1),
            None,
            0,
        )
        .unwrap()
    }

    #[test]
    fn block_range_reads_fetch_only_their_bytes() {
        use crate::backend::{CountingBackend, IoOp};
        let backend = CountingBackend::default();
        let c = five_block_container(&backend);
        let whole = c.read_column_bytes(&backend, 0).unwrap();
        let reference = ColumnReader::new(&whole, &c.indexes[0]);
        backend.reset();
        let chunk = c.read_blocks(&backend, 0, 2..4).unwrap();
        let blocks = &c.indexes[0].blocks;
        assert_eq!(
            chunk.len() as u64,
            u64::from(blocks[2].byte_len) + u64::from(blocks[3].byte_len)
        );
        assert_eq!(backend.count(IoOp::ReadRange), 1, "neighbours coalesce");
        assert_eq!(backend.bytes_read(), chunk.len() as u64);
        for b in 2..4 {
            assert_eq!(
                chunk.reader(&c.indexes[0]).read_block(b).unwrap(),
                reference.read_block(b).unwrap()
            );
        }
        // An empty run reads nothing; a run past the index is an error.
        backend.reset();
        assert!(c.read_blocks(&backend, 0, 3..3).unwrap().is_empty());
        assert_eq!(backend.calls(), vec![]);
        assert!(matches!(
            c.read_blocks(&backend, 0, 4..6),
            Err(DbError::Corrupt(_))
        ));
        assert!(matches!(
            c.read_blocks(&backend, 7, 0..1),
            Err(DbError::Corrupt(_))
        ));
    }

    #[test]
    fn leading_rows_and_row_at_read_only_the_blocks_they_need() {
        use crate::backend::{CountingBackend, IoOp};
        let backend = CountingBackend::default();
        let c = five_block_container(&backend);
        let block_bytes = |col: usize, b: usize| u64::from(c.indexes[col].blocks[b].byte_len);
        backend.reset();
        assert_eq!(c.read_leading_rows(&backend, 1000).unwrap(), rows(1000));
        assert_eq!(backend.count(IoOp::ReadFile), 0);
        assert_eq!(backend.count(IoOp::ReadRange), 2, "one read per column");
        assert_eq!(backend.bytes_read(), block_bytes(0, 0) + block_bytes(1, 0));
        // 1025 rows reach into the second block.
        backend.reset();
        assert_eq!(c.read_leading_rows(&backend, 1025).unwrap(), rows(1025));
        assert_eq!(
            backend.bytes_read(),
            (0..2)
                .map(|b| block_bytes(0, b) + block_bytes(1, b))
                .sum::<u64>()
        );
        backend.reset();
        assert_eq!(c.read_leading_rows(&backend, 0).unwrap(), Vec::<Row>::new());
        assert_eq!(backend.calls(), vec![]);
        // One value is one block per column.
        backend.reset();
        assert_eq!(c.read_row_at(&backend, 3000).unwrap(), rows(3001)[3000]);
        assert_eq!(backend.count(IoOp::ReadRange), 2);
        assert_eq!(backend.bytes_read(), block_bytes(0, 2) + block_bytes(1, 2));
        assert_eq!(c.read_rows(&backend).unwrap(), rows(5000));
    }

    #[test]
    fn container_min_max_for_pruning() {
        let backend = MemBackend::new();
        let c = RosContainer::write(
            &backend,
            &def(),
            ContainerId(3),
            &rows(100),
            Epoch(1),
            None,
            0,
        )
        .unwrap();
        assert_eq!(
            c.column_min_max(0),
            Some((Value::Integer(0), Value::Integer(99)))
        );
    }

    #[test]
    fn grouped_mode_round_trip() {
        let backend = MemBackend::new();
        let c = RosContainer::write_grouped(
            &backend,
            &def(),
            ContainerId(4),
            &rows(20),
            Epoch(1),
            None,
            0,
        )
        .unwrap();
        assert!(c.grouped);
        assert_eq!(c.read_rows(&backend).unwrap(), rows(20));
        assert_eq!(c.read_column(&backend, 1).unwrap().len(), 20);
        // One grouped file + meta: no per-column files.
        assert_eq!(backend.list_files("t_super/").len(), 2);
    }

    #[test]
    fn grouped_mode_pays_compression_penalty() {
        // §3.7: hybrid row-column mode exacts a compression penalty — the
        // columnar form compresses sorted data; the grouped form cannot.
        let backend = MemBackend::new();
        let many = rows(5000);
        RosContainer::write(&backend, &def(), ContainerId(5), &many, Epoch(1), None, 0).unwrap();
        RosContainer::write_grouped(&backend, &def(), ContainerId(6), &many, Epoch(1), None, 0)
            .unwrap();
        let (col, grp) = (
            backend.total_size("t_super/ros5/"),
            backend.total_size("t_super/ros6/"),
        );
        assert!(col < grp / 2, "columnar {col} vs grouped {grp}");
    }

    #[test]
    fn meta_round_trip() {
        let backend = MemBackend::new();
        let c = RosContainer::write(
            &backend,
            &def(),
            ContainerId(7),
            &rows(10),
            Epoch(3),
            Some(Value::Integer(201_203)),
            2,
        )
        .unwrap();
        let bytes = c.encode_meta();
        assert_eq!(RosContainer::decode_meta(&bytes).unwrap(), c);
    }

    #[test]
    fn delete_files_reclaims_storage() {
        let backend = MemBackend::new();
        let c = RosContainer::write(
            &backend,
            &def(),
            ContainerId(8),
            &rows(10),
            Epoch(1),
            None,
            0,
        )
        .unwrap();
        assert!(backend.total_size("t_super/") > 0);
        c.delete_files(&backend).unwrap();
        assert_eq!(backend.list_files("t_super/").len(), 0);
    }
}
