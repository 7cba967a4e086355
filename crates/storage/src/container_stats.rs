//! Once-computed summaries of immutable ROS containers — the storage half
//! of the optimizer's statistics (§6.2).
//!
//! "ROS containers are never modified" (§3.7), so whatever the planner
//! wants to know about one is computed once. Sizes, encodings and value
//! ranges are folded from the position indexes (already in memory) when
//! the container is written or attached; its leading rows — its share of
//! the planner's sample — are decoded the first time a catalog rebuild
//! reaches it, and kept. A [`ContainerStats`] lives beside the container's
//! pin in the [`crate::ProjectionStore`] and is **never persisted**: every
//! field is recomputable from files the container already has, so the
//! manifest and file formats know nothing of it.

use crate::backend::StorageBackend;
use crate::ros::RosContainer;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use vdb_types::{DbResult, Row, Value};

/// Leading rows a container keeps as its share of the planner's sample —
/// also the size of the sample the catalog assembles per projection.
pub const STATS_SAMPLE_ROWS: usize = 1000;

/// What one column's position index says about the column as a whole.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSummary {
    /// Data file plus position-index file bytes.
    pub bytes: u64,
    /// `(concrete encoding, rows)` summed over blocks, sorted by name.
    pub encodings: Vec<(&'static str, u64)>,
    /// Smallest and largest non-null value; `None` when every row is null.
    pub min_max: Option<(Value, Value)>,
    pub nulls: u64,
}

/// Summary of one ROS container. `columns` has one entry per *physical*
/// column (the hidden epoch column is last) and is empty for a grouped
/// container, which has no per-column files.
#[derive(Debug)]
pub struct ContainerStats {
    pub row_count: u64,
    pub columns: Vec<ColumnSummary>,
    /// The leading ≤ [`STATS_SAMPLE_ROWS`] physical rows, once asked for.
    /// Not filled when the container is written, although the rows are at
    /// hand: the sample walk stops at the first container or two, and a
    /// copy held for every container of every projection was 6 MB (14 %)
    /// of `cluster_join`'s resident set.
    sample: OnceLock<Vec<Row>>,
}

impl ContainerStats {
    /// Summarize `container` from its in-memory position indexes — no I/O.
    pub(crate) fn new(container: &RosContainer) -> ContainerStats {
        let columns = container
            .indexes
            .iter()
            .map(|index| {
                let mut encodings: BTreeMap<&'static str, u64> = BTreeMap::new();
                for b in &index.blocks {
                    *encodings.entry(b.encoding.name()).or_insert(0) += u64::from(b.count);
                }
                // Blocks are appended back to back, so the last one ends
                // where the data file does.
                let data_bytes = index
                    .blocks
                    .last()
                    .map_or(0, |b| b.byte_offset + u64::from(b.byte_len));
                ColumnSummary {
                    bytes: data_bytes + index.encode().len() as u64,
                    encodings: encodings.into_iter().collect(),
                    min_max: index.column_min_max(),
                    nulls: index.blocks.iter().map(|b| u64::from(b.null_count)).sum(),
                }
            })
            .collect();
        ContainerStats {
            row_count: container.row_count,
            columns,
            sample: OnceLock::new(),
        }
    }

    /// Bytes of the container's data and position-index files together —
    /// what `stat`ing each of them would add up to.
    pub fn total_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.bytes).sum()
    }

    /// The container's leading rows: one ranged read per column file
    /// covering only the leading block, the first time; from memory
    /// afterwards.
    pub(crate) fn sample(
        &self,
        container: &RosContainer,
        backend: &dyn StorageBackend,
    ) -> DbResult<&[Row]> {
        if let Some(rows) = self.sample.get() {
            return Ok(rows);
        }
        let rows = container.read_leading_rows(backend, STATS_SAMPLE_ROWS)?;
        Ok(self.sample.get_or_init(|| rows))
    }
}
