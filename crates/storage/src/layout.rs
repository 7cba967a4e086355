//! Physical-layout reporting: the Figure 2 view of a projection's storage.
//!
//! Figure 2 of the paper shows one node's storage for a projection
//! partitioned by month/year and segmented by `HASH(cid)` into three local
//! segments: 14 ROS containers × 2 columns = 28 data files. This module
//! renders exactly that inventory from a live [`ProjectionStore`].

use crate::store::ProjectionStore;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vdb_types::Value;

/// Summary counts for a projection's physical layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutSummary {
    pub containers: usize,
    pub partition_keys: usize,
    pub local_segments: usize,
    /// Column data files (data only, matching the paper's "28 files of
    /// user data" count; position indexes double it).
    pub column_data_files: usize,
    pub total_bytes: u64,
    pub wos_rows: usize,
}

/// Compute the layout summary of a projection store.
pub fn summarize(store: &ProjectionStore) -> LayoutSummary {
    let mut partition_keys = std::collections::BTreeSet::new();
    let mut local_segments = std::collections::BTreeSet::new();
    let mut containers = 0usize;
    let mut column_data_files = 0usize;
    let mut total_bytes = 0u64;
    for (c, stats) in store.container_summaries() {
        containers += 1;
        partition_keys.insert(format!("{:?}", c.partition_key));
        local_segments.insert(c.local_segment);
        column_data_files += if c.grouped { 1 } else { c.indexes.len() };
        total_bytes += stats.total_bytes();
    }
    LayoutSummary {
        containers,
        partition_keys: partition_keys.len(),
        local_segments: local_segments.len(),
        column_data_files,
        total_bytes,
        wos_rows: store.wos_row_count(),
    }
}

/// Render a Figure-2 style tree: partition → local segment → containers.
pub fn render(store: &ProjectionStore) -> String {
    let def = store.def();
    let mut out = String::new();
    let _ = writeln!(out, "{}", def.describe());
    // (partition, segment) → container lines.
    let mut tree: BTreeMap<(Option<Value>, u32), Vec<String>> = BTreeMap::new();
    for (c, stats) in store.container_summaries() {
        let bytes = stats.total_bytes();
        let files = if c.grouped { 1 } else { c.indexes.len() };
        tree.entry((c.partition_key.clone(), c.local_segment))
            .or_default()
            .push(format!(
                "{} rows={} files={} bytes={} epoch={}",
                c.id, c.row_count, files, bytes, c.commit_epoch
            ));
    }
    let mut last_partition: Option<Option<Value>> = None;
    for ((pkey, seg), containers) in tree {
        if last_partition.as_ref() != Some(&pkey) {
            match &pkey {
                Some(v) => {
                    let _ = writeln!(out, "  partition {v}");
                }
                None => {
                    let _ = writeln!(out, "  (unpartitioned)");
                }
            }
            last_partition = Some(pkey);
        }
        let _ = writeln!(out, "    local segment {seg}");
        for line in containers {
            let _ = writeln!(out, "      {line}");
        }
    }
    let s = summarize(store);
    let _ = writeln!(
        out,
        "  total: {} containers, {} column data files, {} bytes on disk, {} WOS rows",
        s.containers, s.column_data_files, s.total_bytes, s.wos_rows
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::partition::PartitionSpec;
    use crate::projection::ProjectionDef;
    use std::sync::Arc;
    use vdb_types::date::timestamp_from_civil;
    use vdb_types::{ColumnDef, DataType, Epoch, Row, TableSchema};

    /// Recreate Figure 2's scenario: 2-column projection, month/year
    /// partitions 3/2012..6/2012, HASH(cid) segmentation, 3 local segments.
    fn figure2_store() -> ProjectionStore {
        let schema = TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("cid", DataType::Integer),
                ColumnDef::new("ts", DataType::Timestamp),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "sales_b0", &[1], &[0]);
        let spec = PartitionSpec::by_year_month(1, "ts");
        let mut s = ProjectionStore::new(def, Some(spec), 3, Arc::new(MemBackend::new()));
        let mut rows: Vec<Row> = Vec::new();
        for m in 3..=6u32 {
            for d in 0..200 {
                rows.push(vec![
                    Value::Integer(i64::from(d) * 7919),
                    Value::Timestamp(timestamp_from_civil(2012, m, 1 + d % 27, 0, 0, 0)),
                ]);
            }
        }
        s.insert_direct_ros(rows, Epoch(1)).unwrap();
        s
    }

    #[test]
    fn figure2_layout_counts() {
        let s = figure2_store();
        let summary = summarize(&s);
        assert_eq!(summary.partition_keys, 4, "3/2012..6/2012");
        assert_eq!(summary.local_segments, 3);
        // 4 partitions × 3 local segments = 12 containers (the paper shows
        // 14 because two partitions had a second container from a later
        // load; one load here gives the clean cross product).
        assert_eq!(summary.containers, 12);
        // 2 user columns + hidden epoch column per container.
        assert_eq!(summary.column_data_files, 12 * 3);
        assert!(summary.total_bytes > 0);
    }

    #[test]
    fn render_mentions_partitions_and_segments() {
        let s = figure2_store();
        let text = render(&s);
        assert!(text.contains("partition 201203"));
        assert!(text.contains("partition 201206"));
        assert!(text.contains("local segment 0"));
        assert!(text.contains("local segment 2"));
        assert!(text.contains("total: 12 containers"));
    }
}
