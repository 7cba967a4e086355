//! The cost model (§6.2): "a pruning strategy using a cost-model, based on
//! compression aware I/O, CPU and Network transfer costs".
//!
//! Costs are abstract units; only relative comparisons matter. I/O is
//! charged on *encoded* bytes (a projection whose needed columns are RLE'd
//! to nothing scans almost for free — the compression-aware part), CPU on
//! rows touched, network on bytes shipped between nodes.

use crate::catalog::ProjectionMeta;

/// Relative weights.
pub const IO_WEIGHT: f64 = 1.0;
pub const CPU_WEIGHT: f64 = 0.01;
pub const NETWORK_WEIGHT: f64 = 2.0;

/// Total cost of one plan alternative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    pub io_bytes: f64,
    pub cpu_rows: f64,
    pub network_bytes: f64,
}

impl Cost {
    pub fn total(&self) -> f64 {
        self.io_bytes * IO_WEIGHT + self.cpu_rows * CPU_WEIGHT + self.network_bytes * NETWORK_WEIGHT
    }

    pub fn add(&mut self, other: Cost) {
        self.io_bytes += other.io_bytes;
        self.cpu_rows += other.cpu_rows;
        self.network_bytes += other.network_bytes;
    }
}

/// Cost of scanning `columns` of a projection, with an estimated fraction
/// of containers/blocks surviving pruning and a predicate selectivity.
pub fn scan_cost(
    meta: &ProjectionMeta,
    columns: &[usize],
    prune_fraction: f64,
    selectivity: f64,
) -> Cost {
    let io: u64 = columns
        .iter()
        .map(|&c| meta.column_bytes.get(c).copied().unwrap_or(0))
        .sum();
    Cost {
        io_bytes: io as f64 * prune_fraction.clamp(0.0, 1.0),
        cpu_rows: meta.row_count as f64 * prune_fraction * selectivity,
        network_bytes: 0.0,
    }
}

/// Cost of a hash join: build the smaller side, probe with the larger.
pub fn hash_join_cost(probe_rows: f64, build_rows: f64, build_row_bytes: f64) -> Cost {
    Cost {
        io_bytes: 0.0,
        cpu_rows: probe_rows + build_rows * 1.5,
        network_bytes: 0.0,
    }
    .plus_build_memory_pressure(build_rows * build_row_bytes)
}

impl Cost {
    fn plus_build_memory_pressure(mut self, build_bytes: f64) -> Cost {
        // Externalization risk is charged as extra I/O.
        const BUDGET: f64 = 64.0 * 1024.0 * 1024.0;
        if build_bytes > BUDGET {
            self.io_bytes += build_bytes * 2.0;
        }
        self
    }
}

/// Cost of a merge join over pre-sorted inputs: linear, no build.
pub fn merge_join_cost(left_rows: f64, right_rows: f64) -> Cost {
    Cost {
        io_bytes: 0.0,
        cpu_rows: left_rows + right_rows,
        network_bytes: 0.0,
    }
}

/// Cost of broadcasting `rows` of `row_bytes` to `nodes` nodes.
pub fn broadcast_cost(rows: f64, row_bytes: f64, nodes: usize) -> Cost {
    Cost {
        io_bytes: 0.0,
        cpu_rows: rows,
        network_bytes: rows * row_bytes * nodes.saturating_sub(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_storage::projection::ProjectionDef;
    use vdb_types::{ColumnDef, DataType, TableSchema};

    fn meta(bytes: Vec<u64>, rows: u64) -> ProjectionMeta {
        let schema = TableSchema::new(
            "t",
            (0..bytes.len())
                .map(|i| ColumnDef::new(format!("c{i}"), DataType::Integer))
                .collect(),
        );
        let def = ProjectionDef::super_projection(&schema, "p", &[0], &[0]);
        ProjectionMeta::from_sample(def, rows, bytes, &[])
    }

    #[test]
    fn compression_aware_scan_prefers_smaller_encoding() {
        // Same logical data: projection A stores column 0 in 1MB, B in 10KB
        // (better encoding). B must cost less.
        let a = scan_cost(&meta(vec![1 << 20, 500], 100_000), &[0], 1.0, 1.0);
        let b = scan_cost(&meta(vec![10 << 10, 500], 100_000), &[0], 1.0, 1.0);
        assert!(b.total() < a.total());
    }

    #[test]
    fn pruning_reduces_cost() {
        let m = meta(vec![1 << 20], 100_000);
        let full = scan_cost(&m, &[0], 1.0, 1.0);
        let pruned = scan_cost(&m, &[0], 0.1, 1.0);
        assert!(pruned.total() < full.total() / 5.0);
    }

    #[test]
    fn narrow_scan_cheaper_than_wide() {
        let m = meta(vec![1 << 20, 1 << 20, 1 << 20], 100_000);
        let narrow = scan_cost(&m, &[0], 1.0, 1.0);
        let wide = scan_cost(&m, &[0, 1, 2], 1.0, 1.0);
        assert!(narrow.total() < wide.total());
    }

    #[test]
    fn oversized_build_side_penalized() {
        let small = hash_join_cost(1e6, 1e3, 100.0);
        let huge = hash_join_cost(1e6, 1e7, 100.0);
        assert!(huge.total() > small.total() * 10.0);
    }

    #[test]
    fn broadcast_charges_network() {
        let c = broadcast_cost(1000.0, 50.0, 4);
        assert_eq!(c.network_bytes, 1000.0 * 50.0 * 3.0);
        assert!(c.total() > merge_join_cost(1000.0, 1000.0).total());
    }
}
