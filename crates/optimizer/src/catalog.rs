//! The optimizer's view of the catalog: schemas, projections and their
//! statistics. Built by `vdb-core` from live storage; kept as plain data so
//! the planner is a pure function (easy to test, easy to re-run for
//! node-down replans).

use crate::stats::{column_stats_of, ColumnStatsData};
use std::collections::BTreeMap;
use vdb_storage::projection::ProjectionDef;
use vdb_types::{Row, TableSchema, Value};

pub type ColumnStats = ColumnStatsData;

/// Statistics + definition of one projection.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionMeta {
    pub def: ProjectionDef,
    pub row_count: u64,
    /// Encoded bytes on disk per projection column (compression-aware I/O
    /// costing, §6.2).
    pub column_bytes: Vec<u64>,
    /// Per projection column.
    pub stats: Vec<ColumnStats>,
    /// Observed concrete encodings per projection column: `(encoding name,
    /// rows)` as reported by storage's position indexes. Empty when the
    /// projection has no ROS data (or the catalog was built from a sample
    /// only). The Database Designer reads this to compare what `Auto`
    /// actually chose against its trial-encoding pick (§6.3).
    pub column_encodings: Vec<Vec<(String, u64)>>,
    /// Scan morsels an unpruned snapshot of this projection yields on a
    /// single node (max across nodes): one per 16-block range of every ROS
    /// container, rounded up, plus the WOS tail
    /// (`ProjectionStore::morsel_count`). The planner caps a parallel
    /// scan's degree of parallelism at this — more workers than morsels
    /// cannot help; pruning can only lower the count at run time, where
    /// the operator clamps again.
    pub scan_morsels: usize,
}

impl ProjectionMeta {
    /// Build from a sample of projection-shaped rows.
    pub fn from_sample(
        def: ProjectionDef,
        row_count: u64,
        column_bytes: Vec<u64>,
        sample: &[Row],
    ) -> ProjectionMeta {
        let rows: Vec<&[Value]> = sample.iter().map(Vec::as_slice).collect();
        ProjectionMeta::from_sample_rows(def, row_count, column_bytes, &rows)
    }

    /// [`ProjectionMeta::from_sample`] over rows the caller only borrows —
    /// the shape the cluster gets from storage's per-container summaries.
    pub fn from_sample_rows(
        def: ProjectionDef,
        row_count: u64,
        column_bytes: Vec<u64>,
        sample: &[&[Value]],
    ) -> ProjectionMeta {
        let stats = (0..def.arity())
            .map(|c| column_stats_of(sample.iter().map(|r| &r[c]), row_count))
            .collect();
        ProjectionMeta {
            def,
            row_count,
            column_bytes,
            stats,
            column_encodings: Vec::new(),
            scan_morsels: 1,
        }
    }

    /// Record the block-range morsel count storage reported.
    pub fn with_scan_morsels(mut self, morsels: usize) -> ProjectionMeta {
        self.scan_morsels = morsels.max(1);
        self
    }

    /// Record the observed per-column encodings storage reported.
    pub fn with_column_encodings(mut self, encodings: Vec<Vec<(String, u64)>>) -> ProjectionMeta {
        self.column_encodings = encodings;
        self
    }

    /// The encoding covering the most rows of column `col`, if known.
    pub fn dominant_encoding(&self, col: usize) -> Option<&str> {
        self.column_encodings
            .get(col)?
            .iter()
            .max_by_key(|(_, rows)| *rows)
            .map(|(name, _)| name.as_str())
    }
}

/// One logical table with its projections.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    pub schema: TableSchema,
    pub partition_by: Option<vdb_types::Expr>,
    pub projections: Vec<ProjectionMeta>,
}

impl TableMeta {
    pub fn row_count(&self) -> u64 {
        self.projections
            .iter()
            .map(|p| p.row_count)
            .max()
            .unwrap_or(0)
    }
}

/// The catalog snapshot the planner works against.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OptimizerCatalog {
    pub tables: BTreeMap<String, TableMeta>,
}

impl OptimizerCatalog {
    pub fn table(&self, name: &str) -> Option<&TableMeta> {
        self.tables.get(name)
    }

    /// Block-range morsel count recorded for a projection (1 when the
    /// projection is unknown). The planner caps every parallel scan's —
    /// and parallel join side's — degree of parallelism at this.
    pub fn scan_morsels(&self, projection: &str) -> usize {
        self.tables
            .values()
            .flat_map(|t| &t.projections)
            .find(|p| p.def.name == projection)
            .map_or(1, |p| p.scan_morsels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_types::{ColumnDef, DataType};

    #[test]
    fn projection_meta_builds_per_column_stats() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Varchar),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "t_super", &[0], &[0]);
        let sample: Vec<Row> = (0..100)
            .map(|i| vec![Value::Integer(i), Value::Varchar(format!("v{}", i % 3))])
            .collect();
        let meta = ProjectionMeta::from_sample(def, 10_000, vec![800, 120], &sample);
        assert_eq!(meta.stats.len(), 2);
        assert_eq!(meta.stats[0].rows, 10_000);
        assert!(meta.stats[1].distinct < meta.stats[0].distinct);
    }

    #[test]
    fn observed_encodings_expose_dominant_codec() {
        let schema = TableSchema::new("t", vec![ColumnDef::new("a", DataType::Integer)]);
        let def = ProjectionDef::super_projection(&schema, "t_super", &[0], &[0]);
        let meta = ProjectionMeta::from_sample(def, 100, vec![80], &[]);
        assert_eq!(meta.dominant_encoding(0), None);
        let meta = meta.with_column_encodings(vec![vec![
            ("PLAIN".into(), 100),
            ("DELTADELTA".into(), 3000),
            ("RLE".into(), 40),
        ]]);
        assert_eq!(meta.dominant_encoding(0), Some("DELTADELTA"));
        assert_eq!(meta.dominant_encoding(1), None);
    }
}
