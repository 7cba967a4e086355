//! Node-level storage engine: the catalog of tables and projection stores
//! on one node of the cluster.
//!
//! Loads fan table rows out to every projection of the table (projecting,
//! prejoining against dimension tables, and segment-filtering happens at
//! the cluster layer; this engine stores whatever rows it is handed).

use crate::backend::StorageBackend;
use crate::columnar::LoadBatch;
use crate::partition::PartitionSpec;
use crate::projection::ProjectionDef;
use crate::store::ProjectionStore;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vdb_types::{DbError, DbResult, Epoch, Expr, Row, TableSchema, Value};

/// Catalog entry for one logical table.
#[derive(Debug, Clone)]
pub struct TableEntry {
    pub schema: TableSchema,
    /// Table-level `PARTITION BY` expression over table columns (§3.5).
    pub partition_by: Option<Expr>,
}

/// The storage engine of one node.
pub struct StorageEngine {
    backend: Arc<dyn StorageBackend>,
    tables: RwLock<BTreeMap<String, TableEntry>>,
    projections: RwLock<HashMap<String, Arc<RwLock<ProjectionStore>>>>,
    /// table name → projection names anchored on it.
    by_table: RwLock<BTreeMap<String, Vec<String>>>,
    n_local_segments: u32,
}

impl StorageEngine {
    pub fn new(backend: Arc<dyn StorageBackend>, n_local_segments: u32) -> StorageEngine {
        StorageEngine {
            backend,
            tables: RwLock::new(BTreeMap::new()),
            projections: RwLock::new(HashMap::new()),
            by_table: RwLock::new(BTreeMap::new()),
            n_local_segments,
        }
    }

    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    pub fn n_local_segments(&self) -> u32 {
        self.n_local_segments
    }

    // ----- tables ---------------------------------------------------------

    pub fn create_table(&self, schema: TableSchema, partition_by: Option<Expr>) -> DbResult<()> {
        let mut tables = self.tables.write();
        if tables.contains_key(&schema.name) {
            return Err(DbError::AlreadyExists(format!("table {}", schema.name)));
        }
        self.by_table
            .write()
            .insert(schema.name.clone(), Vec::new());
        tables.insert(
            schema.name.clone(),
            TableEntry {
                schema,
                partition_by,
            },
        );
        Ok(())
    }

    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let entry = self
            .tables
            .write()
            .remove(name)
            .ok_or_else(|| DbError::NotFound(format!("table {name}")))?;
        let _ = entry;
        let projs = self.by_table.write().remove(name).unwrap_or_default();
        let mut map = self.projections.write();
        for p in projs {
            if let Some(store) = map.remove(&p) {
                // Best-effort file cleanup.
                let store = store.read();
                let prefix = format!("{}/", store.def().name);
                for f in self.backend.list_files(&prefix) {
                    let _ = self.backend.delete_file(&f);
                }
            }
        }
        Ok(())
    }

    pub fn table(&self, name: &str) -> DbResult<TableEntry> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NotFound(format!("table {name}")))
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    // ----- projections ----------------------------------------------------

    /// Register a projection. The table's `PARTITION BY` expression is
    /// remapped onto the projection's columns; since partitioning must be
    /// identical across projections for fast bulk delete (§3.5), a
    /// projection that omits a partition column is rejected.
    pub fn create_projection(&self, def: ProjectionDef) -> DbResult<()> {
        let entry = self.table(&def.anchor_table)?;
        for &c in &def.columns[..def.num_anchor_columns()] {
            if c >= entry.schema.arity() {
                return Err(DbError::Binder(format!(
                    "projection {} references column {c} not in table {}",
                    def.name, def.anchor_table
                )));
            }
        }
        if self.projections.read().contains_key(&def.name) {
            return Err(DbError::AlreadyExists(format!("projection {}", def.name)));
        }
        let partition = match &entry.partition_by {
            None => None,
            Some(expr) => {
                let remapped = expr
                    .remap_columns(&|table_col| def.projection_column_of(table_col))
                    .ok_or_else(|| {
                        DbError::Binder(format!(
                            "projection {} must contain the PARTITION BY columns of {}",
                            def.name, def.anchor_table
                        ))
                    })?;
                Some(PartitionSpec::new(remapped))
            }
        };
        // `open` attaches to durable state when the backend already holds
        // this projection's manifest (database reopen replaying the DDL
        // log); on a fresh backend it is identical to `new`.
        let store = ProjectionStore::open(
            def.clone(),
            partition,
            self.n_local_segments,
            self.backend.clone(),
        )?;
        self.by_table
            .write()
            .entry(def.anchor_table.clone())
            .or_default()
            .push(def.name.clone());
        self.projections
            .write()
            .insert(def.name.clone(), Arc::new(RwLock::new(store)));
        Ok(())
    }

    pub fn drop_projection(&self, name: &str) -> DbResult<()> {
        let store = self
            .projections
            .write()
            .remove(name)
            .ok_or_else(|| DbError::NotFound(format!("projection {name}")))?;
        {
            let store = store.read();
            let mut by_table = self.by_table.write();
            if let Some(list) = by_table.get_mut(&store.def().anchor_table) {
                list.retain(|p| p != name);
            }
            let prefix = format!("{name}/");
            for f in self.backend.list_files(&prefix) {
                let _ = self.backend.delete_file(&f);
            }
        }
        Ok(())
    }

    pub fn projection(&self, name: &str) -> DbResult<Arc<RwLock<ProjectionStore>>> {
        self.projections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::NotFound(format!("projection {name}")))
    }

    pub fn projection_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.projections.read().keys().cloned().collect();
        v.sort();
        v
    }

    pub fn projections_of(&self, table: &str) -> Vec<String> {
        self.by_table.read().get(table).cloned().unwrap_or_default()
    }

    /// Definitions of all projections anchored on `table`.
    pub fn projection_defs_of(&self, table: &str) -> Vec<ProjectionDef> {
        self.projections_of(table)
            .iter()
            .filter_map(|p| self.projection(p).ok())
            .map(|s| s.read().def().clone())
            .collect()
    }

    /// Does the table have a super projection (required before loading)?
    pub fn has_super_projection(&self, table: &str) -> bool {
        let Ok(entry) = self.table(table) else {
            return false;
        };
        self.projection_defs_of(table)
            .iter()
            .any(|d| d.is_super(entry.schema.arity()))
    }

    // ----- loading --------------------------------------------------------

    /// Store table rows into every projection of the table on this node.
    /// Rows are assumed to already be segment-filtered for this node by the
    /// cluster layer. Prejoin projections look up dimension rows from the
    /// dimension table's projections *on this node* (prejoins require
    /// replicated dimensions, which the designer enforces).
    pub fn insert_table_rows(
        &self,
        table: &str,
        rows: &[Row],
        epoch: Epoch,
        direct_ros: bool,
    ) -> DbResult<()> {
        let batch = LoadBatch::new(&self.table(table)?.schema, rows, epoch, direct_ros)?;
        for pname in self.projections_of(table) {
            self.insert_batch(&pname, &batch, None, epoch, direct_ros)?;
        }
        Ok(())
    }

    /// Store rows `rows` (all of them when `None`) of a validated batch
    /// into *one* projection on this node — the cluster layer routes
    /// per-projection row subsets by segmentation + buddy offset. A direct
    /// load hands the store the batch's typed columns in projection order;
    /// a WOS load and a prejoin projection take projected rows.
    pub fn insert_batch(
        &self,
        projection: &str,
        batch: &LoadBatch,
        rows: Option<&[u32]>,
        epoch: Epoch,
        direct_ros: bool,
    ) -> DbResult<()> {
        let store = self.projection(projection)?;
        let def = store.read().def().clone();
        let all: Vec<u32>;
        let rows = match rows {
            Some(rows) => rows,
            None => {
                all = (0..batch.len() as u32).collect();
                &all
            }
        };
        if let (Some(chunk), true) = (batch.chunk(), def.prejoin.is_empty()) {
            let view = chunk.project(&def.columns);
            store.write().insert_direct_ros_chunk(&view, rows, epoch)?;
            return Ok(());
        }
        let table_rows = rows.iter().map(|&r| &batch.rows()[r as usize]);
        let projected: Vec<Row> = if def.prejoin.is_empty() {
            table_rows
                .map(|r| def.project_row(r))
                .collect::<DbResult<_>>()?
        } else {
            self.prejoin_rows(&def, table_rows, epoch)?
        };
        let mut store = store.write();
        if direct_ros {
            store.insert_direct_ros(projected, epoch)?;
        } else {
            store.insert_wos(projected, epoch)?;
        }
        Ok(())
    }

    fn prejoin_rows<'a>(
        &self,
        def: &ProjectionDef,
        fact_rows: impl Iterator<Item = &'a Row>,
        epoch: Epoch,
    ) -> DbResult<Vec<Row>> {
        // Build a key → row map per dimension from its super projection.
        let mut dim_maps: Vec<HashMap<Value, Row>> = Vec::with_capacity(def.prejoin.len());
        for dim in &def.prejoin {
            let entry = self.table(&dim.dim_table)?;
            let super_def = self
                .projection_defs_of(&dim.dim_table)
                .into_iter()
                .find(|d| d.is_super(entry.schema.arity()) && d.prejoin.is_empty())
                .ok_or_else(|| {
                    DbError::Plan(format!(
                        "prejoin {} needs a super projection on {}",
                        def.name, dim.dim_table
                    ))
                })?;
            let store = self.projection(&super_def.name)?;
            let rows = store.read().visible_rows(epoch)?;
            let mut map = HashMap::with_capacity(rows.len());
            for prow in rows {
                // Reorder the projection row back to table column order.
                let mut table_row = vec![Value::Null; entry.schema.arity()];
                for (pi, &tc) in super_def.columns.iter().enumerate() {
                    table_row[tc] = prow[pi].clone();
                }
                map.insert(table_row[dim.dim_key].clone(), table_row);
            }
            dim_maps.push(map);
        }
        let mut out = Vec::new();
        for fact in fact_rows {
            let mut dims: Vec<&[Value]> = Vec::with_capacity(def.prejoin.len());
            for (dim, map) in def.prejoin.iter().zip(&dim_maps) {
                let key = &fact[dim.fact_key];
                let dim_row = map.get(key).ok_or_else(|| {
                    DbError::Constraint(format!(
                        "prejoin {}: no {} row with key {key}",
                        def.name, dim.dim_table
                    ))
                })?;
                dims.push(dim_row);
            }
            out.push(def.project_row_prejoin(fact, &dims)?);
        }
        Ok(out)
    }

    /// Fast bulk delete of a partition across every projection (§3.5).
    pub fn drop_partition(&self, table: &str, key: &Value, epoch: Epoch) -> DbResult<usize> {
        let mut dropped = 0;
        for pname in self.projections_of(table) {
            let store = self.projection(&pname)?;
            dropped += store.write().drop_partition(key, epoch)?;
        }
        Ok(dropped)
    }

    /// Minimum Last Good Epoch across projections (§5.1: LGE is tracked per
    /// projection; the node's LGE is the minimum).
    pub fn last_good_epoch(&self, current: Epoch) -> Epoch {
        self.projection_names()
            .iter()
            .filter_map(|p| self.projection(p).ok())
            .map(|s| s.read().last_good_epoch(current))
            .min()
            .unwrap_or(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::projection::{PrejoinDim, ProjectionDef, Segmentation};
    use vdb_types::{ColumnDef, DataType, Func, SortKey};

    fn engine() -> StorageEngine {
        StorageEngine::new(Arc::new(MemBackend::new()), 1)
    }

    fn sales_schema() -> TableSchema {
        TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("cust_id", DataType::Integer),
                ColumnDef::new("amt", DataType::Float),
                ColumnDef::new("ts", DataType::Timestamp),
            ],
        )
    }

    #[test]
    fn table_and_projection_lifecycle() {
        let e = engine();
        e.create_table(sales_schema(), None).unwrap();
        assert!(e.create_table(sales_schema(), None).is_err());
        let def = ProjectionDef::super_projection(&sales_schema(), "sales_super", &[3], &[0]);
        e.create_projection(def.clone()).unwrap();
        assert!(e.create_projection(def).is_err());
        assert!(e.has_super_projection("sales"));
        assert_eq!(e.projections_of("sales"), vec!["sales_super".to_string()]);
        e.drop_projection("sales_super").unwrap();
        assert!(!e.has_super_projection("sales"));
        e.drop_table("sales").unwrap();
        assert!(e.table("sales").is_err());
    }

    #[test]
    fn load_fans_out_to_all_projections() {
        let e = engine();
        e.create_table(sales_schema(), None).unwrap();
        e.create_projection(ProjectionDef::super_projection(
            &sales_schema(),
            "sales_super",
            &[3],
            &[0],
        ))
        .unwrap();
        // Narrow projection (cust_id, amt) sorted by cust_id.
        e.create_projection(ProjectionDef {
            name: "sales_cust".into(),
            anchor_table: "sales".into(),
            columns: vec![1, 2],
            column_names: vec!["cust_id".into(), "amt".into()],
            column_types: vec![DataType::Integer, DataType::Float],
            sort_keys: vec![SortKey::asc(0)],
            encodings: vec![vdb_encoding::EncodingType::Auto; 2],
            segmentation: Segmentation::ByExpr(Expr::call(
                Func::Hash,
                vec![Expr::col(0, "cust_id")],
            )),
            prejoin: vec![],
        })
        .unwrap();
        let rows: Vec<Row> = (0..10)
            .map(|i| {
                vec![
                    Value::Integer(i),
                    Value::Integer(i % 3),
                    Value::Float(i as f64),
                    Value::Timestamp(i * 1000),
                ]
            })
            .collect();
        e.insert_table_rows("sales", &rows, Epoch(1), true).unwrap();
        let sup = e.projection("sales_super").unwrap();
        assert_eq!(sup.read().visible_rows(Epoch(1)).unwrap().len(), 10);
        let narrow = e.projection("sales_cust").unwrap();
        let nrows = narrow.read().visible_rows(Epoch(1)).unwrap();
        assert_eq!(nrows.len(), 10);
        assert_eq!(nrows[0].len(), 2, "narrow projection has 2 columns");
    }

    #[test]
    fn partition_by_remaps_and_enforces_coverage() {
        let e = engine();
        let schema = sales_schema();
        let part = Expr::call(Func::YearMonth, vec![Expr::col(3, "ts")]);
        e.create_table(schema.clone(), Some(part)).unwrap();
        e.create_projection(ProjectionDef::super_projection(
            &schema,
            "sales_super",
            &[3],
            &[0],
        ))
        .unwrap();
        // A projection without the ts column must be rejected.
        let bad = ProjectionDef {
            name: "no_ts".into(),
            anchor_table: "sales".into(),
            columns: vec![0, 1],
            column_names: vec!["id".into(), "cust_id".into()],
            column_types: vec![DataType::Integer, DataType::Integer],
            sort_keys: vec![SortKey::asc(0)],
            encodings: vec![vdb_encoding::EncodingType::Auto; 2],
            segmentation: Segmentation::Replicated,
            prejoin: vec![],
        };
        assert!(matches!(e.create_projection(bad), Err(DbError::Binder(_))));
    }

    #[test]
    fn drop_partition_across_projections() {
        let e = engine();
        let schema = sales_schema();
        let part = Expr::call(Func::YearMonth, vec![Expr::col(3, "ts")]);
        e.create_table(schema.clone(), Some(part)).unwrap();
        e.create_projection(ProjectionDef::super_projection(
            &schema,
            "sales_super",
            &[3],
            &[0],
        ))
        .unwrap();
        let mar = vdb_types::date::timestamp_from_civil(2012, 3, 10, 0, 0, 0);
        let apr = vdb_types::date::timestamp_from_civil(2012, 4, 10, 0, 0, 0);
        let rows: Vec<Row> = [mar, apr]
            .iter()
            .enumerate()
            .flat_map(|(i, &ts)| {
                (0..5).map(move |j| {
                    vec![
                        Value::Integer((i * 5 + j) as i64),
                        Value::Integer(0),
                        Value::Float(1.0),
                        Value::Timestamp(ts),
                    ]
                })
            })
            .collect();
        e.insert_table_rows("sales", &rows, Epoch(1), true).unwrap();
        let dropped = e
            .drop_partition("sales", &Value::Integer(201_203), Epoch(1))
            .unwrap();
        assert!(dropped >= 1);
        let sup = e.projection("sales_super").unwrap();
        let left = sup.read().visible_rows(Epoch(1)).unwrap();
        assert_eq!(left.len(), 5, "only April rows remain");
    }

    #[test]
    fn prejoin_load_denormalizes() {
        let e = engine();
        // Dimension: customer(cid, name) — replicated super projection.
        let cust = TableSchema::new(
            "customer",
            vec![
                ColumnDef::new("cid", DataType::Integer),
                ColumnDef::new("name", DataType::Varchar),
            ],
        );
        e.create_table(cust.clone(), None).unwrap();
        e.create_projection(ProjectionDef::super_projection(
            &cust,
            "cust_super",
            &[0],
            &[],
        ))
        .unwrap();
        e.insert_table_rows(
            "customer",
            &[
                vec![Value::Integer(1), Value::Varchar("ann".into())],
                vec![Value::Integer(2), Value::Varchar("bob".into())],
            ],
            Epoch(1),
            true,
        )
        .unwrap();
        // Fact with a prejoin projection.
        e.create_table(sales_schema(), None).unwrap();
        e.create_projection(ProjectionDef::super_projection(
            &sales_schema(),
            "sales_super",
            &[0],
            &[0],
        ))
        .unwrap();
        e.create_projection(ProjectionDef {
            name: "sales_prejoin".into(),
            anchor_table: "sales".into(),
            columns: vec![0, 1, 2, 3],
            column_names: vec![
                "id".into(),
                "cust_id".into(),
                "amt".into(),
                "ts".into(),
                "name".into(),
            ],
            column_types: vec![
                DataType::Integer,
                DataType::Integer,
                DataType::Float,
                DataType::Timestamp,
                DataType::Varchar,
            ],
            sort_keys: vec![SortKey::asc(0)],
            encodings: vec![vdb_encoding::EncodingType::Auto; 5],
            segmentation: Segmentation::Replicated,
            prejoin: vec![PrejoinDim {
                dim_table: "customer".into(),
                fact_key: 1,
                dim_key: 0,
                dim_columns: vec![1],
            }],
        })
        .unwrap();
        e.insert_table_rows(
            "sales",
            &[vec![
                Value::Integer(100),
                Value::Integer(2),
                Value::Float(9.5),
                Value::Timestamp(0),
            ]],
            Epoch(2),
            true,
        )
        .unwrap();
        let pj = e.projection("sales_prejoin").unwrap();
        let rows = pj.read().visible_rows(Epoch(2)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][4], Value::Varchar("bob".into()));
        // A fact row with a dangling key is rejected.
        let err = e.insert_table_rows(
            "sales",
            &[vec![
                Value::Integer(101),
                Value::Integer(99),
                Value::Float(1.0),
                Value::Timestamp(0),
            ]],
            Epoch(3),
            true,
        );
        assert!(matches!(err, Err(DbError::Constraint(_))));
    }
}
