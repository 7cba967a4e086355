//! Columnar write path ≡ row write path, on the container files.
//!
//! The store pivots rows into typed columns once, groups row indexes,
//! orders each group with a stable permutation sort over the typed
//! sort-key columns, gathers and encodes natively, and merges containers
//! by native block decode. None of that may change a byte: every case
//! here replays the same operations on a **row reference kept in this
//! file** — group `(Row, Epoch, Option<Epoch>)` triples in a `BTreeMap`,
//! `sort_by(compare_rows)`, push every cell as a `Value` through
//! `ColumnWriter` — and compares
//!
//! * the container ids, and every byte of every `c*.dat`, `c*.idx`,
//!   `container.meta` and `deletes.dv`;
//! * the catalog's `RosContainer`s and `ContainerStats`;
//! * `visible_rows` at every epoch;
//! * all of it again after kill-and-reopen.
//!
//! A case is generated from one `u64` seed — printed by every assertion,
//! replayable by adding it to [`SEED_CORPUS`] — and draws: a schema over
//! all five types with its projection's columns permuted, 1–3 sort keys
//! ASC/DESC over NULL-bearing, duplicate-heavy columns (so tie order
//! matters), an optional `PARTITION BY`, hash or no segmentation into 1–3
//! local segments, per-column encodings, INT literals into FLOAT and
//! TIMESTAMP columns, rows arriving as bulk loads and as WOS inserts +
//! moveout (with WOS deletes), ROS deletes stamped before and after the
//! AHM, then mergeout of 2–6 containers per group.
//!
//! Two pins that fail at the parent: a bulk load pivots rows × columns
//! cells exactly once and validates each row once; a mergeout pivots none.

use std::collections::BTreeMap;
use std::sync::Arc;
use vdb_encoding::{ColumnWriter, EncodingType};
use vdb_storage::columnar::{cells_pivoted, rows_validated};
use vdb_storage::projection::{ProjectionDef, Segmentation};
use vdb_storage::{
    ContainerId, DeleteVector, MemBackend, RosContainer, RowLocation, StorageBackend,
    StorageEngine, TupleMover, TupleMoverConfig,
};
use vdb_types::schema::{compare_rows, SortDirection, SortKey};
use vdb_types::{BinOp, ColumnDef, DataType, Epoch, Expr, Row, TableSchema, Value};

/// Seeds that once failed, or that pin a shape worth keeping. Add a
/// printed seed here to replay it.
const SEED_CORPUS: [u64; 4] = [0, 1, 14, 0xC01D_C0DE_5EED_0001];
/// Generated seeds run after the corpus.
const GENERATED_CASES: u64 = 40;

const TABLE: &str = "t";
const PROJECTION: &str = "t_p";

/// SplitMix64: the whole case derives from the seed through this.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

type History = Vec<(Row, Epoch, Option<Epoch>)>;

/// One container as the row reference believes it to be.
struct ModelContainer {
    partition_key: Option<Value>,
    local_segment: u32,
    /// In stored (sorted) order, with current delete marks.
    rows: History,
    /// Everything but `deletes.dv`, as written.
    files: BTreeMap<String, Vec<u8>>,
    meta: RosContainer,
}

/// The row reference: the write path as it was before it went columnar.
struct Model {
    def: ProjectionDef,
    physical_encodings: Vec<EncodingType>,
    partition: Option<Expr>,
    n_local_segments: u32,
    next_container: u64,
    containers: BTreeMap<ContainerId, ModelContainer>,
    wos: History,
}

impl Model {
    fn local_segment_of(&self, row: &Row) -> u32 {
        match self.def.segment_value(row).unwrap() {
            None => 0,
            Some(v) => ((u128::from(v) * u128::from(self.n_local_segments)) >> 64) as u32,
        }
    }

    /// Group, `sort_by(compare_rows)`, and encode every cell as a `Value`.
    fn write_containers(&mut self, history: History, commit_epoch: Epoch) {
        let mut groups: BTreeMap<(Option<Value>, u32), History> = BTreeMap::new();
        for (row, e, d) in history {
            let pkey = self.partition.as_ref().map(|p| p.eval(&row).unwrap());
            let lseg = self.local_segment_of(&row);
            groups.entry((pkey, lseg)).or_default().push((row, e, d));
        }
        for ((partition_key, local_segment), mut rows) in groups {
            rows.sort_by(|a, b| compare_rows(&a.0, &b.0, &self.def.sort_keys));
            let id = ContainerId(self.next_container);
            self.next_container += 1;
            let mut meta = RosContainer {
                id,
                projection: self.def.name.clone(),
                partition_key: partition_key.clone(),
                local_segment,
                commit_epoch,
                row_count: rows.len() as u64,
                grouped: false,
                indexes: Vec::new(),
            };
            let mut files = BTreeMap::new();
            for (col, &encoding) in self.physical_encodings.iter().enumerate() {
                let mut w = ColumnWriter::new(encoding);
                for (row, e, _) in &rows {
                    w.push(match row.get(col) {
                        Some(v) => v.clone(),
                        None => Value::Integer(e.0 as i64),
                    });
                }
                let (data, index) = w.finish();
                files.insert(meta.data_path(col), data);
                files.insert(meta.index_path(col), index.encode());
                meta.indexes.push(index);
            }
            files.insert(
                format!("{}/{id}/container.meta", self.def.name),
                meta.encode_meta(),
            );
            self.containers.insert(
                id,
                ModelContainer {
                    partition_key,
                    local_segment,
                    rows,
                    files,
                    meta,
                },
            );
        }
    }

    /// Every file the projection's containers should consist of.
    fn expected_files(&self) -> BTreeMap<String, Vec<u8>> {
        let mut files = BTreeMap::new();
        for (id, c) in &self.containers {
            files.extend(c.files.clone());
            let mut dv = DeleteVector::new();
            for (position, (_, _, d)) in c.rows.iter().enumerate() {
                if let Some(d) = d {
                    dv.mark(position as u64, *d);
                }
            }
            if !dv.is_empty() {
                files.insert(format!("{}/{id}/deletes.dv", self.def.name), dv.encode());
            }
        }
        files
    }

    fn visible(&self, snapshot: Epoch) -> Vec<Row> {
        let containers = self.containers.values().flat_map(|c| c.rows.iter());
        let mut rows: Vec<Row> = containers
            .chain(self.wos.iter())
            .filter(|(_, e, d)| *e <= snapshot && !d.is_some_and(|d| d <= snapshot))
            .map(|(row, _, _)| row.clone())
            .collect();
        rows.sort();
        rows
    }

    /// Mergeout as the tuple mover picks it with every container in one
    /// stratum: per (partition, segment) group of ≥ `threshold` containers,
    /// victims in id order, rows deleted at or before the AHM dropped.
    fn mergeout(&mut self, threshold: usize, ahm: Epoch) -> u64 {
        let mut groups: BTreeMap<(Option<Value>, u32), Vec<ContainerId>> = BTreeMap::new();
        for (id, c) in &self.containers {
            groups
                .entry((c.partition_key.clone(), c.local_segment))
                .or_default()
                .push(*id);
        }
        let mut purged = 0;
        for victims in groups.into_values().filter(|g| g.len() >= threshold) {
            let mut merged = History::new();
            for id in victims {
                for (row, e, d) in self.containers.remove(&id).unwrap().rows {
                    match d.is_some_and(|d| d <= ahm) {
                        true => purged += 1,
                        false => merged.push((row, e, d)),
                    }
                }
            }
            let commit = merged.iter().map(|(_, e, _)| *e).max();
            self.write_containers(merged, commit.unwrap_or(Epoch::ZERO));
        }
        purged
    }
}

/// A value for a column of `ty`. Small domains make duplicates; one cell in
/// seven is NULL; FLOAT and TIMESTAMP columns sometimes get INT literals.
fn cell(ty: DataType, nullable: bool, rng: &mut Rng) -> Value {
    if nullable && rng.below(7) == 0 {
        return Value::Null;
    }
    let small = rng.below(5) as i64 - 2;
    let wide = (rng.below(1 << 40) as i64) - (1 << 39);
    match ty {
        DataType::Integer => Value::Integer(rng.pick(&[small, small, wide])),
        DataType::Timestamp => match rng.below(3) {
            0 => Value::Integer(1_600_000_000 + small * 300),
            _ => Value::Timestamp(1_600_000_000 + small * 300),
        },
        DataType::Float => match rng.below(4) {
            0 => Value::Integer(small),
            1 => Value::Float(rng.pick(&[-0.0, 0.0, f64::INFINITY, -1.5])),
            _ => Value::Float(small as f64 * 0.25),
        },
        DataType::Varchar => Value::Varchar(format!("s{}", rng.below(4))),
        DataType::Boolean => Value::Boolean(rng.below(2) == 1),
    }
}

struct Case {
    seed: u64,
    schema: TableSchema,
    def: ProjectionDef,
    partition_by: Option<Expr>,
    n_local_segments: u32,
}

fn generate(seed: u64) -> Case {
    let mut rng = Rng(seed);
    const TYPES: [DataType; 5] = [
        DataType::Integer,
        DataType::Float,
        DataType::Timestamp,
        DataType::Varchar,
        DataType::Boolean,
    ];
    // Column 0 is an INT that is never NULL (the partition key's input).
    let arity = 2 + rng.below(4) as usize;
    let mut columns = vec![ColumnDef::new("c0", DataType::Integer)];
    for i in 1..arity {
        columns.push(ColumnDef::new(format!("c{i}"), rng.pick(&TYPES)));
    }
    let schema = TableSchema::new(TABLE, columns);
    // The projection stores the table's columns in another order.
    let mut order: Vec<usize> = (0..arity).collect();
    for i in (1..arity).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let n_keys = 1 + rng.below(arity.min(3) as u64) as usize;
    let sort_keys = (0..n_keys)
        .map(|k| match rng.below(3) {
            0 => SortKey::desc(k),
            _ => SortKey::asc(k),
        })
        .collect();
    let seg_column = rng.below(arity as u64) as usize;
    let segmentation = match rng.below(2) {
        0 => Segmentation::Replicated,
        _ => Segmentation::hash_of(&[(seg_column, "seg")]),
    };
    const ENCODINGS: [EncodingType; 6] = [
        EncodingType::Auto,
        EncodingType::Auto,
        EncodingType::Rle,
        EncodingType::BlockDict,
        EncodingType::DeltaValue,
        EncodingType::Plain,
    ];
    let def = ProjectionDef {
        name: PROJECTION.into(),
        anchor_table: TABLE.into(),
        column_names: order.iter().map(|&c| format!("c{c}")).collect(),
        column_types: order.iter().map(|&c| schema.columns[c].data_type).collect(),
        encodings: (0..arity).map(|_| rng.pick(&ENCODINGS)).collect(),
        columns: order,
        sort_keys,
        segmentation,
        prejoin: Vec::new(),
    };
    let partition_by =
        (rng.below(2) == 0).then(|| Expr::binary(BinOp::Mod, Expr::col(0, "c0"), Expr::int(2)));
    Case {
        seed,
        schema,
        def,
        partition_by,
        n_local_segments: 1 + rng.below(3) as u32,
    }
}

impl Case {
    fn table_rows(&self, n: usize, rng: &mut Rng) -> Vec<Row> {
        (0..n)
            .map(|_| {
                let columns = self.schema.columns.iter().enumerate();
                columns
                    .map(|(i, c)| cell(c.data_type, i > 0, rng))
                    .collect()
            })
            .collect()
    }

    /// Validate and project the way a load does.
    fn projected(&self, table_rows: &[Row]) -> Vec<Row> {
        table_rows
            .iter()
            .map(|row| {
                let mut row = row.clone();
                self.schema.validate_row(&mut row).unwrap();
                self.def.project_row(&row).unwrap()
            })
            .collect()
    }

    fn open(&self, backend: &Arc<MemBackend>) -> StorageEngine {
        let engine = StorageEngine::new(backend.clone(), self.n_local_segments);
        engine
            .create_table(self.schema.clone(), self.partition_by.clone())
            .unwrap();
        engine.create_projection(self.def.clone()).unwrap();
        engine
    }
}

/// Files of the projection's containers on the backend.
fn container_files(backend: &MemBackend) -> BTreeMap<String, Vec<u8>> {
    backend
        .list_files(&format!("{PROJECTION}/ros"))
        .into_iter()
        .map(|f| {
            let bytes = backend.read_file(&f).unwrap();
            (f, bytes)
        })
        .collect()
}

/// Compare the store with the model: ids, files, catalog, stats, rows.
fn check(case: &Case, engine: &StorageEngine, backend: &MemBackend, model: &Model, step: &str) {
    let what = format!("seed {:#x} after {step}", case.seed);
    let store = engine.projection(PROJECTION).unwrap();
    let store = store.read();
    let ids: Vec<ContainerId> = store.containers().map(|c| c.id).collect();
    let expected_ids: Vec<ContainerId> = model.containers.keys().copied().collect();
    assert_eq!(ids, expected_ids, "{what}: container ids");
    let (actual, expected) = (container_files(backend), model.expected_files());
    for (path, want) in &expected {
        let got = actual
            .get(path)
            .unwrap_or_else(|| panic!("{what}: {path} is missing"));
        if let Some(at) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
            panic!(
                "{what}: {path} differs at byte {at} ({} bytes written, {} expected)",
                got.len(),
                want.len()
            );
        }
    }
    let extra: Vec<&String> = actual
        .keys()
        .filter(|p| !expected.contains_key(*p))
        .collect();
    assert!(extra.is_empty(), "{what}: unexpected files {extra:?}");
    for (container, stats) in store.container_summaries() {
        let reference = &model.containers[&container.id];
        assert_eq!(container, &reference.meta, "{what}: {}", container.id);
        assert_eq!(stats.row_count, reference.rows.len() as u64, "{what}");
        for (col, summary) in stats.columns.iter().enumerate() {
            let index = &reference.meta.indexes[col];
            let files = &reference.files;
            let bytes =
                files[&container.data_path(col)].len() + files[&container.index_path(col)].len();
            assert_eq!(summary.bytes, bytes as u64, "{what}: column {col} bytes");
            assert_eq!(
                summary.min_max,
                index.column_min_max(),
                "{what}: column {col}"
            );
            let nulls: u64 = index.blocks.iter().map(|b| u64::from(b.null_count)).sum();
            assert_eq!(summary.nulls, nulls, "{what}: column {col} nulls");
            let encoded: u64 = summary.encodings.iter().map(|(_, n)| n).sum();
            assert_eq!(
                encoded, container.row_count,
                "{what}: column {col} encodings"
            );
        }
    }
    assert_eq!(store.wos_row_count(), model.wos.len(), "{what}: WOS rows");
    let last = model
        .containers
        .values()
        .flat_map(|c| c.rows.iter())
        .chain(model.wos.iter())
        .flat_map(|(_, e, d)| [Some(*e), *d])
        .flatten()
        .max()
        .unwrap_or(Epoch::ZERO);
    for e in 0..=last.0 + 1 {
        let mut rows = store.visible_rows(Epoch(e)).unwrap();
        rows.sort();
        let expected = model.visible(Epoch(e));
        assert_eq!(
            rows.len(),
            expected.len(),
            "{what}: visible rows at epoch {e}"
        );
        if let Some(at) = (0..rows.len()).find(|&i| cells(&rows[i]) != cells(&expected[i])) {
            panic!(
                "{what}: visible rows at epoch {e} differ at sorted row {at}: {:?} vs {:?}",
                rows[at], expected[at]
            );
        }
    }
}

/// A row by its bits, so `-0.0`/`0.0` and `1`/`1.0` are told apart.
fn cells(row: &Row) -> Vec<String> {
    row.iter()
        .map(|v| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        })
        .collect()
}

fn run_case(seed: u64) -> Coverage {
    let case = generate(seed);
    let mut rng = Rng(seed ^ 0xDA7A);
    let backend = Arc::new(MemBackend::new());
    let mut engine = case.open(&backend);
    let partition = {
        let store = engine.projection(PROJECTION).unwrap();
        let spec = store.read().partition_spec().cloned();
        spec.map(|s| s.expr)
    };
    let mut physical_encodings = case.def.encodings.clone();
    physical_encodings.push(EncodingType::Auto);
    let mut model = Model {
        def: case.def.clone(),
        physical_encodings,
        partition,
        n_local_segments: case.n_local_segments,
        next_container: 1,
        containers: BTreeMap::new(),
        wos: History::new(),
    };
    let what = format!("seed {seed:#x}");
    let mut epoch = 0u64;

    // 2–6 rounds, each adding containers by bulk load or WOS + moveout.
    let rounds = 2 + rng.below(5);
    for round in 0..rounds {
        epoch += 1;
        let n = rng.pick(&[1usize, 40, 300, 1100, 2300]);
        let rows = case.table_rows(n, &mut rng);
        let projected = case.projected(&rows);
        if rng.below(3) > 0 {
            // Bulk load: one validation per row, one pivot per cell.
            let (validated, pivoted) = (rows_validated(), cells_pivoted());
            engine
                .insert_table_rows(TABLE, &rows, Epoch(epoch), true)
                .unwrap();
            assert_eq!(
                rows_validated() - validated,
                n as u64,
                "{what}: validations"
            );
            assert_eq!(
                cells_pivoted() - pivoted,
                (n * case.schema.arity()) as u64,
                "{what}: a bulk load pivots each cell once"
            );
            let history = projected.into_iter().map(|r| (r, Epoch(epoch), None));
            model.write_containers(history.collect(), Epoch(epoch));
            check(
                &case,
                &engine,
                &backend,
                &model,
                &format!("bulk load {round}"),
            );
        } else {
            // Trickle: two WOS inserts, WOS deletes, then moveout.
            let (first, second) = projected.split_at(n / 2);
            let (rows_a, rows_b) = rows.split_at(n / 2);
            engine
                .insert_table_rows(TABLE, rows_a, Epoch(epoch), false)
                .unwrap();
            model
                .wos
                .extend(first.iter().map(|r| (r.clone(), Epoch(epoch), None)));
            epoch += 1;
            engine
                .insert_table_rows(TABLE, rows_b, Epoch(epoch), false)
                .unwrap();
            model
                .wos
                .extend(second.iter().map(|r| (r.clone(), Epoch(epoch), None)));
            epoch += 1;
            let victims: Vec<u64> = (0..model.wos.len() as u64)
                .filter(|_| rng.below(9) == 0)
                .collect();
            let store = engine.projection(PROJECTION).unwrap();
            let locations: Vec<RowLocation> =
                victims.iter().map(|&p| RowLocation::Wos(p)).collect();
            store
                .write()
                .mark_deleted_many(&locations, Epoch(epoch))
                .unwrap();
            for p in victims {
                model.wos[p as usize].2 = Some(Epoch(epoch));
            }
            check(
                &case,
                &engine,
                &backend,
                &model,
                &format!("WOS inserts {round}"),
            );
            store.write().moveout(Epoch(epoch)).unwrap();
            let moved = std::mem::take(&mut model.wos);
            let commit = moved.iter().map(|(_, e, _)| *e).max();
            model.write_containers(moved, commit.unwrap_or(Epoch::ZERO));
            check(
                &case,
                &engine,
                &backend,
                &model,
                &format!("moveout {round}"),
            );
        }
    }

    // Deletes on ROS rows, at two epochs: one at or before the AHM (those
    // rows are purged by the mergeout), one after it.
    let ahm = Epoch(epoch + 1);
    for delete_epoch in [ahm, Epoch(epoch + 3)] {
        let mut locations = Vec::new();
        for (id, c) in model.containers.iter_mut() {
            for (position, row) in c.rows.iter_mut().enumerate() {
                if row.2.is_none() && rng.below(6) == 0 {
                    row.2 = Some(delete_epoch);
                    locations.push(RowLocation::Ros(*id, position as u64));
                }
            }
        }
        let store = engine.projection(PROJECTION).unwrap();
        store
            .write()
            .mark_deleted_many(&locations, delete_epoch)
            .unwrap();
        check(
            &case,
            &engine,
            &backend,
            &model,
            &format!("deletes at {delete_epoch}"),
        );
    }

    // Kill and reopen, then merge: 2–6 containers per group into one.
    drop(engine);
    engine = case.open(&backend);
    check(&case, &engine, &backend, &model, "reopen before mergeout");
    let mover = TupleMover::new(TupleMoverConfig {
        strata_base_bytes: u64::MAX / 2,
        merge_threshold: 2,
        ..TupleMoverConfig::default()
    });
    let pivoted = cells_pivoted();
    let stats = {
        let store = engine.projection(PROJECTION).unwrap();
        let mut store = store.write();
        mover.run_mergeout(&mut store, ahm).unwrap()
    };
    assert_eq!(
        cells_pivoted(),
        pivoted,
        "{what}: a mergeout pivots no cell"
    );
    let purged = model.mergeout(2, ahm);
    assert_eq!(stats.rows_purged, purged, "{what}: rows purged");
    check(&case, &engine, &backend, &model, "mergeout");
    drop(engine);
    engine = case.open(&backend);
    check(&case, &engine, &backend, &model, "reopen after mergeout");
    Coverage {
        merges: stats.merges,
        purged,
        partitioned: usize::from(case.partition_by.is_some()),
        groups: model
            .containers
            .values()
            .map(|c| (c.partition_key.clone(), c.local_segment))
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
    }
}

/// What a case exercised, summed over the run so a generator that stops
/// reaching a path fails the suite instead of passing vacuously.
#[derive(Default)]
struct Coverage {
    merges: usize,
    purged: u64,
    partitioned: usize,
    groups: usize,
}

#[test]
fn columnar_write_path_matches_the_row_reference() {
    let mut seeds = Rng(0x05EE_D0F5_EED5);
    let generated: Vec<u64> = (0..GENERATED_CASES).map(|_| seeds.next()).collect();
    let mut total = Coverage::default();
    let mut multi_group_cases = 0;
    for seed in SEED_CORPUS.into_iter().chain(generated) {
        let c = run_case(seed);
        total.merges += c.merges;
        total.purged += c.purged;
        total.partitioned += c.partitioned;
        multi_group_cases += usize::from(c.groups > 1);
    }
    assert!(total.merges > 20, "{} merges", total.merges);
    assert!(total.purged > 100, "{} rows purged", total.purged);
    assert!(total.partitioned > 5 && multi_group_cases > 10);
}

/// The sort the store runs is stable and compares only the typed key
/// columns: rows that tie on every key keep arrival order, so two loads of
/// the same keys with different payloads stay distinguishable on disk.
#[test]
fn ties_keep_arrival_order_across_merged_containers() {
    let schema = TableSchema::new(
        TABLE,
        vec![
            ColumnDef::new("k", DataType::Integer),
            ColumnDef::new("payload", DataType::Integer),
        ],
    );
    let mut def = ProjectionDef::super_projection(&schema, PROJECTION, &[0], &[]);
    def.sort_keys = vec![SortKey {
        column: 0,
        direction: SortDirection::Desc,
    }];
    let backend = Arc::new(MemBackend::new());
    let engine = StorageEngine::new(backend.clone(), 1);
    engine.create_table(schema, None).unwrap();
    engine.create_projection(def).unwrap();
    for load in 0..3i64 {
        let rows: Vec<Row> = (0..50)
            .map(|i| vec![Value::Integer(i % 5), Value::Integer(load * 1000 + i)])
            .collect();
        engine
            .insert_table_rows(TABLE, &rows, Epoch(load as u64 + 1), true)
            .unwrap();
    }
    let store = engine.projection(PROJECTION).unwrap();
    let mover = TupleMover::new(TupleMoverConfig {
        strata_base_bytes: u64::MAX / 2,
        merge_threshold: 3,
        ..TupleMoverConfig::default()
    });
    mover.run_mergeout(&mut store.write(), Epoch::ZERO).unwrap();
    let store = store.read();
    let merged: Vec<&RosContainer> = store.containers().collect();
    assert_eq!(merged.len(), 1);
    let rows = merged[0].read_rows(backend.as_ref()).unwrap();
    let payloads: Vec<i64> = rows.iter().map(|r| r[1].as_i64().unwrap()).collect();
    let mut expected = Vec::new();
    for k in (0..5).rev() {
        for load in 0..3 {
            expected.extend((0..50).filter(|i| i % 5 == k).map(|i| load * 1000 + i));
        }
    }
    assert_eq!(payloads, expected);
}
