//! An architectural reconstruction of the 2005 C-Store research
//! prototype, used as the baseline for Table 3.
//!
//! §8.1 of the paper explains what separated the prototype from Vertica;
//! this baseline faithfully reproduces those *architectural* gaps rather
//! than the original bits:
//!
//! * **single-threaded** — "the C-Store prototype is a single-threaded
//!   program and cannot take advantage of MPP hardware";
//! * **tuple-at-a-time** Volcano iterators instead of vectorized batches;
//! * **decode-before-process** — no direct execution on encoded data;
//! * **fewer, simpler encodings** — RLE and plain only (no delta
//!   dictionaries, no entropy coding: "more sophisticated compression
//!   algorithms" are one of the ways Vertica reclaimed performance);
//! * **join indexes** — projections store an explicit 64-bit row id per
//!   tuple (§3.2: "explicitly storing row ids consumed significant disk
//!   space for large tables"), which Vertica eliminated.
//!
//! The query surface is programmatic (scan / select / group / join
//! iterators); [`crate::workloads::cstore7`] drives both engines through
//! equivalent physical plans.

use std::collections::HashMap;
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult, Expr, Row, TableSchema, Value};

/// Tuple-at-a-time Volcano iterator.
pub trait RowIter {
    fn next_row(&mut self) -> DbResult<Option<Row>>;
}

/// One stored projection: per-column encoded byte buffers plus the explicit
/// row-id column C-Store's join indexes require.
pub struct CStoreProjection {
    pub name: String,
    /// Encoded column buffers (RLE for the leading sort column when it
    /// helps, plain otherwise) — one buffer per column, whole column per
    /// buffer (no blocks, no position index: the prototype had B-trees but
    /// no SMA pruning).
    columns: Vec<Vec<u8>>,
    /// Explicit row ids (the join-index overhead).
    row_ids: Vec<u8>,
    pub row_count: usize,
    arity: usize,
}

/// The baseline engine: tables of sorted projections.
#[derive(Default)]
pub struct CStoreDb {
    tables: HashMap<String, (TableSchema, CStoreProjection)>,
}

impl CStoreDb {
    pub fn new() -> CStoreDb {
        CStoreDb::default()
    }

    /// Load a table as one projection sorted by `sort_columns`.
    pub fn load_table(
        &mut self,
        schema: TableSchema,
        mut rows: Vec<Row>,
        sort_columns: &[usize],
    ) -> DbResult<()> {
        let keys: Vec<vdb_types::SortKey> = sort_columns
            .iter()
            .map(|&c| vdb_types::SortKey::asc(c))
            .collect();
        rows.sort_by(|a, b| vdb_types::schema::compare_rows(a, b, &keys));
        let arity = schema.arity();
        let mut columns = Vec::with_capacity(arity);
        for c in 0..arity {
            let col: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
            let mut w = Writer::new();
            // Prototype-era encoding choice: RLE if the column is sorted
            // and low-cardinality, else plain. (No delta/dictionary/entropy
            // schemes.)
            let sorted = col.windows(2).all(|w| w[0] <= w[1]);
            let typed = vdb_encoding::TypedColumn::from_values(&col);
            let runs = vdb_encoding::rle::runs_in(&typed.view());
            if sorted && runs * 4 <= col.len().max(1) {
                w.put_u8(1);
                vdb_encoding::rle::encode(&typed.view(), &mut w);
            } else {
                w.put_u8(0);
                vdb_encoding::plain::encode(&typed.view(), &mut w);
            }
            columns.push(w.into_bytes());
        }
        // Explicit row ids, stored plainly (8 bytes each — the join-index
        // disk cost §3.2 describes).
        let mut w = Writer::new();
        for i in 0..rows.len() {
            w.put_u64(i as u64);
        }
        let projection = CStoreProjection {
            name: format!("{}_proj", schema.name),
            columns,
            row_ids: w.into_bytes(),
            row_count: rows.len(),
            arity,
        };
        self.tables
            .insert(schema.name.clone(), (schema, projection));
        Ok(())
    }

    pub fn table(&self, name: &str) -> DbResult<&CStoreProjection> {
        self.tables
            .get(name)
            .map(|(_, p)| p)
            .ok_or_else(|| DbError::NotFound(format!("table {name}")))
    }

    /// Total stored bytes (columns + row ids) — the Table 3 disk metric.
    pub fn disk_bytes(&self) -> u64 {
        self.tables
            .values()
            .map(|(_, p)| {
                p.columns.iter().map(Vec::len).sum::<usize>() as u64 + p.row_ids.len() as u64
            })
            .sum()
    }

    /// Decode selected columns fully (decode-before-process), returning a
    /// tuple-at-a-time scan with an optional predicate.
    pub fn scan(
        &self,
        table: &str,
        columns: &[usize],
        predicate: Option<Expr>,
    ) -> DbResult<CStoreScan> {
        let p = self.table(table)?;
        let mut decoded = Vec::with_capacity(columns.len());
        for &c in columns {
            if c >= p.arity {
                return Err(DbError::Execution(format!("column {c} out of range")));
            }
            let bytes = &p.columns[c];
            let mut r = Reader::new(bytes);
            let tag = r.get_u8()?;
            let col = if tag == 1 {
                vdb_encoding::rle::decode(&mut r, p.row_count)?
            } else {
                vdb_encoding::plain::decode(&mut r, p.row_count)?
            };
            decoded.push(col);
        }
        Ok(CStoreScan {
            columns: decoded,
            predicate,
            pos: 0,
            len: p.row_count,
        })
    }
}

/// Tuple-at-a-time scan over decoded columns.
pub struct CStoreScan {
    columns: Vec<Vec<Value>>,
    predicate: Option<Expr>,
    pos: usize,
    len: usize,
}

impl RowIter for CStoreScan {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        while self.pos < self.len {
            let i = self.pos;
            self.pos += 1;
            let row: Row = self.columns.iter().map(|c| c[i].clone()).collect();
            match &self.predicate {
                Some(p) if !p.matches(&row)? => continue,
                _ => return Ok(Some(row)),
            }
        }
        Ok(None)
    }
}

/// Tuple-at-a-time hash GROUP BY (materializes everything, emits at end).
pub struct CStoreGroupBy {
    output: std::vec::IntoIter<Row>,
}

impl CStoreGroupBy {
    /// `group_cols`/`agg` operate on the input iterator's row layout.
    /// Aggregates: reuse the shared AggState machinery one value at a time.
    pub fn new(
        mut input: impl RowIter,
        group_cols: Vec<usize>,
        aggs: Vec<vdb_exec::aggregate::AggCall>,
    ) -> DbResult<CStoreGroupBy> {
        use vdb_exec::aggregate::{AggFunc, AggState};
        let mut table: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        while let Some(row) = input.next_row()? {
            let key: Vec<Value> = group_cols.iter().map(|&c| row[c].clone()).collect();
            let states = table
                .entry(key)
                .or_insert_with(|| aggs.iter().map(|a| AggState::new(a.func)).collect());
            for (a, s) in aggs.iter().zip(states.iter_mut()) {
                let v = if a.func == AggFunc::CountStar {
                    &Value::Null
                } else {
                    &row[a.input]
                };
                s.update(a.func, v)?;
            }
        }
        let mut rows: Vec<Row> = table
            .into_iter()
            .map(|(mut key, states)| {
                key.extend(states.into_iter().map(|s| s.finish()));
                key
            })
            .collect();
        rows.sort();
        Ok(CStoreGroupBy {
            output: rows.into_iter(),
        })
    }
}

impl RowIter for CStoreGroupBy {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        Ok(self.output.next())
    }
}

/// Tuple-at-a-time hash join (inner), building on the right.
pub struct CStoreHashJoin<L: RowIter> {
    left: L,
    table: HashMap<Value, Vec<Row>>,
    left_key: usize,
    pending: Vec<Row>,
}

impl<L: RowIter> CStoreHashJoin<L> {
    pub fn new(
        left: L,
        mut right: impl RowIter,
        left_key: usize,
        right_key: usize,
    ) -> DbResult<CStoreHashJoin<L>> {
        let mut table: HashMap<Value, Vec<Row>> = HashMap::new();
        while let Some(row) = right.next_row()? {
            let k = row[right_key].clone();
            if !k.is_null() {
                table.entry(k).or_default().push(row);
            }
        }
        Ok(CStoreHashJoin {
            left,
            table,
            left_key,
            pending: Vec::new(),
        })
    }
}

impl<L: RowIter> RowIter for CStoreHashJoin<L> {
    fn next_row(&mut self) -> DbResult<Option<Row>> {
        loop {
            if let Some(r) = self.pending.pop() {
                return Ok(Some(r));
            }
            let Some(row) = self.left.next_row()? else {
                return Ok(None);
            };
            let k = &row[self.left_key];
            if let Some(matches) = self.table.get(k) {
                for m in matches {
                    let mut out = row.clone();
                    out.extend(m.iter().cloned());
                    self.pending.push(out);
                }
            }
        }
    }
}

/// Drain an iterator (the harness's collect).
pub fn collect(mut it: impl RowIter) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(r) = it.next_row()? {
        out.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_exec::aggregate::{AggCall, AggFunc};
    use vdb_types::{BinOp, ColumnDef, DataType};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Integer),
            ],
        )
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Integer(i % 10), Value::Integer(i)])
            .collect()
    }

    #[test]
    fn scan_with_predicate() {
        let mut db = CStoreDb::new();
        db.load_table(schema(), rows(100), &[0]).unwrap();
        let scan = db
            .scan(
                "t",
                &[0, 1],
                Some(Expr::binary(BinOp::Eq, Expr::col(0, "a"), Expr::int(3))),
            )
            .unwrap();
        let got = collect(scan).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|r| r[0] == Value::Integer(3)));
    }

    #[test]
    fn group_by_matches_expected() {
        let mut db = CStoreDb::new();
        db.load_table(schema(), rows(100), &[0]).unwrap();
        let scan = db.scan("t", &[0, 1], None).unwrap();
        let gb = CStoreGroupBy::new(
            scan,
            vec![0],
            vec![AggCall::new(AggFunc::CountStar, 0, "cnt")],
        )
        .unwrap();
        let got = collect(gb).unwrap();
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|r| r[1] == Value::Integer(10)));
    }

    #[test]
    fn join_produces_matches() {
        let mut db = CStoreDb::new();
        db.load_table(schema(), rows(20), &[0]).unwrap();
        let dim_schema = TableSchema::new(
            "d",
            vec![
                ColumnDef::new("k", DataType::Integer),
                ColumnDef::new("v", DataType::Varchar),
            ],
        );
        db.load_table(
            dim_schema,
            vec![
                vec![Value::Integer(1), Value::Varchar("one".into())],
                vec![Value::Integer(2), Value::Varchar("two".into())],
            ],
            &[0],
        )
        .unwrap();
        let left = db.scan("t", &[0, 1], None).unwrap();
        let right = db.scan("d", &[0, 1], None).unwrap();
        let join = CStoreHashJoin::new(left, right, 0, 0).unwrap();
        let got = collect(join).unwrap();
        assert_eq!(got.len(), 4, "keys 1 and 2, twice each in t");
        assert!(got.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn row_id_overhead_is_real() {
        let mut db = CStoreDb::new();
        db.load_table(schema(), rows(10_000), &[0]).unwrap();
        let p = db.table("t").unwrap();
        assert_eq!(p.row_ids.len(), 10_000 * 8, "8 bytes per explicit row id");
        assert!(db.disk_bytes() > 80_000);
    }

    #[test]
    fn rle_used_for_sorted_leading_column() {
        let mut db = CStoreDb::new();
        db.load_table(schema(), rows(10_000), &[0]).unwrap();
        let p = db.table("t").unwrap();
        // Column 0 (sorted, 10 distinct): tiny. Column 1 (unsorted after
        // the leading sort): plain, big.
        assert!(p.columns[0].len() < 200);
        assert!(p.columns[1].len() > 10_000);
    }
}
