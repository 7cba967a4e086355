//! ROS containers (§3.7).
//!
//! "Data in the ROS is physically stored in multiple ROS containers on a
//! standard file system. Each ROS container logically contains some number
//! of complete tuples sorted by the projection's sort order, stored as a
//! pair of files per column ... one with the actual column data, and one
//! with a position index." Containers are immutable once written; data is
//! identified by implicit ordinal position.
//!
//! The rarely-used hybrid row-column mode ("grouping multiple columns
//! together into the same file", §3.7) is supported via
//! [`RosContainer::write_grouped`].

use crate::backend::StorageBackend;
use crate::projection::ProjectionDef;
use vdb_encoding::{ColumnReader, ColumnWriter, PositionIndex};
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
    /// the projection's sort order.
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
        for col in 0..def.arity() {
            let mut w = ColumnWriter::new(def.encodings[col]);
            w.extend(rows.iter().map(|r| r[col].clone()));
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
        let data = backend.read_file(&self.data_path(col))?;
        let index = &self.indexes[col];
        ColumnReader::new(&data, index).read_all()
    }

    /// Read the raw column file bytes (for block-pruned scans, which need
    /// the bytes plus the cached index).
    pub fn read_column_bytes(&self, backend: &dyn StorageBackend, col: usize) -> DbResult<Vec<u8>> {
        if self.grouped {
            return Err(DbError::Execution(
                "grouped containers have no per-column files".into(),
            ));
        }
        backend.read_file(&self.data_path(col))
    }

    /// Reconstruct complete rows (all columns).
    pub fn read_rows(&self, backend: &dyn StorageBackend) -> DbResult<Vec<Row>> {
        self.read_leading_rows(backend, usize::MAX)
    }

    /// Reconstruct the first `limit` rows: one read per column file,
    /// decoding only the leading blocks that hold them.
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
            let data = backend.read_file(&self.data_path(c))?;
            let reader = ColumnReader::new(&data, index);
            let mut values = Vec::with_capacity(n);
            for b in 0..reader.num_blocks() {
                if values.len() >= n {
                    break;
                }
                values.extend(reader.read_block(b)?.into_values());
            }
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
        let mut row = Vec::with_capacity(self.indexes.len());
        for c in 0..self.indexes.len() {
            let data = backend.read_file(&self.data_path(c))?;
            row.push(ColumnReader::new(&data, &self.indexes[c]).value_at(position)?);
        }
        Ok(row)
    }

    /// Total bytes of this container's user-data files (data + index).
    pub fn total_bytes(&self, backend: &dyn StorageBackend) -> u64 {
        if self.grouped {
            return backend.file_size(&self.grouped_path()).unwrap_or(0);
        }
        (0..self.indexes.len())
            .map(|c| {
                backend.file_size(&self.data_path(c)).unwrap_or(0)
                    + backend.file_size(&self.index_path(c)).unwrap_or(0)
            })
            .sum()
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

    /// Number of 1024-row storage blocks per column — the work granularity
    /// inside one scan morsel (a morsel is one container; workers stream it
    /// block by block).
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
        let col = RosContainer::write(&backend, &def(), ContainerId(5), &many, Epoch(1), None, 0)
            .unwrap();
        let grp =
            RosContainer::write_grouped(&backend, &def(), ContainerId(6), &many, Epoch(1), None, 0)
                .unwrap();
        assert!(
            col.total_bytes(&backend) < grp.total_bytes(&backend) / 2,
            "columnar {} vs grouped {}",
            col.total_bytes(&backend),
            grp.total_bytes(&backend)
        );
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
        assert!(c.total_bytes(&backend) > 0);
        c.delete_files(&backend).unwrap();
        assert_eq!(backend.list_files("t_super/").len(), 0);
    }
}
