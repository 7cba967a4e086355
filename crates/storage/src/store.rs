//! Per-projection storage management: WOS + ROS containers + delete
//! vectors, with epoch-based visibility (§3.7, §5).
//!
//! "Every tuple in Vertica is timestamped with the logical time at which it
//! was committed ... implemented as implicit 64-bit integral columns on the
//! projection" — each ROS container here carries a hidden trailing epoch
//! column, so historical snapshots work even for containers holding rows
//! from several epochs (as moveout produces). Container-level epoch min/max
//! (from the epoch column's position index) lets scans skip the per-row
//! check for fully-visible containers, which is the common case.
//!
//! Every container is written by one writer, `write_containers`, from a
//! [`crate::columnar::WriteChunk`] of typed columns and a list of row
//! indexes: direct load, moveout and the row-shaped recovery entry points
//! pivot their rows into a chunk once at the door; mergeout hands over
//! chunks decoded natively from the victims (`merge_input`). Grouping,
//! ordering and gathering work on row indexes (see [`crate::columnar`]).

use crate::backend::StorageBackend;
use crate::columnar::{self, ChunkView, RowOrder, WriteChunk};
use crate::container_stats::ContainerStats;
use crate::delete_vector::DeleteVector;
use crate::fault;
use crate::partition::PartitionSpec;
use crate::projection::ProjectionDef;
use crate::redo::{RedoLog, RedoRecord};
use crate::ros::{ContainerId, RosContainer};
use crate::wos::Wos;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use vdb_encoding::{EncodingType, BLOCK_SIZE};
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult, Epoch, Row, Value};

/// Where a row physically lives (for delete targeting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowLocation {
    Wos(u64),
    Ros(ContainerId, u64),
}

/// Visibility of a run of rows at a snapshot. A mask's index 0 is the
/// first row of the run it was computed for — position 0 of the container
/// for [`ScanContainer::visible`], the first row of the block range for
/// [`ScanContainer::visible_in`].
#[derive(Debug, Clone, PartialEq)]
pub enum VisibleSet {
    /// Every position visible.
    All,
    /// No position visible.
    None,
    /// Per-position mask.
    Mask(Vec<bool>),
}

impl VisibleSet {
    pub fn is_visible(&self, pos: u64) -> bool {
        match self {
            VisibleSet::All => true,
            VisibleSet::None => false,
            VisibleSet::Mask(m) => m.get(pos as usize).copied().unwrap_or(false),
        }
    }
}

/// What a container's epoch range and delete vector say about a snapshot
/// before any row is looked at. Decided once per (container, snapshot) in
/// [`ProjectionStore::scan_snapshot`] and carried by every morsel cut from
/// the container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Every row was committed after the snapshot.
    None,
    /// Every row is committed at the snapshot and nothing is deleted.
    All,
    /// Rows must be checked: the container straddles the snapshot epoch,
    /// or has a delete vector.
    PerRow,
}

/// Keeps a removed container's files alive until its last holder drops.
///
/// Mergeout and partition drops remove a container from the catalog
/// immediately, but in-flight scans may still hold a [`ScanContainer`]
/// clone referencing its files. Each live container owns one pin; scans
/// clone the `Arc`. Removal *dooms* the pin instead of deleting files —
/// the files are reclaimed when the last `Arc` drops, so a concurrent
/// reader never loses a container mid-scan.
pub struct ContainerPin {
    backend: Arc<dyn StorageBackend>,
    dir_prefix: String,
    doomed: AtomicBool,
}

impl ContainerPin {
    fn new(backend: Arc<dyn StorageBackend>, projection: &str, id: ContainerId) -> ContainerPin {
        ContainerPin {
            backend,
            dir_prefix: format!("{projection}/{id}/"),
            doomed: AtomicBool::new(false),
        }
    }

    fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }
}

impl Drop for ContainerPin {
    fn drop(&mut self) {
        if *self.doomed.get_mut() {
            for f in self.backend.list_files(&self.dir_prefix) {
                let _ = self.backend.delete_file(&f);
            }
        }
    }
}

impl std::fmt::Debug for ContainerPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContainerPin")
            .field("dir", &self.dir_prefix)
            .field("doomed", &self.doomed)
            .finish()
    }
}

/// One container plus its delete vector, pinned to a snapshot epoch — what
/// scan morsels are cut from. Containers and delete vectors are immutable
/// once published, so this holds them by `Arc`: taking a snapshot, cloning
/// it and cutting it into morsels copies pointers, never position indexes.
/// Carries the owning node's backend so a scan can mix containers sourced
/// from several nodes (buddy-projection reads and broadcast gathers in
/// the cluster layer).
#[derive(Clone)]
pub struct ScanContainer {
    pub container: Arc<RosContainer>,
    pub deletes: Arc<DeleteVector>,
    pub snapshot: Epoch,
    pub backend: Arc<dyn StorageBackend>,
    /// Holds the container's files alive if the tuple mover retires it
    /// while this scan is in flight.
    pub pin: Option<Arc<ContainerPin>>,
    visibility: Visibility,
}

impl std::fmt::Debug for ScanContainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanContainer")
            .field("container", &self.container)
            .field("deletes", &self.deletes)
            .field("snapshot", &self.snapshot)
            .field("visibility", &self.visibility)
            .finish()
    }
}

/// Smallest and largest commit epoch a block (or container) holds.
fn epoch_range(min_max: Option<(&Value, &Value)>, fallback: Epoch) -> (Epoch, Epoch) {
    match min_max {
        Some((Value::Integer(a), Value::Integer(b))) => (Epoch(*a as u64), Epoch(*b as u64)),
        _ => (fallback, fallback),
    }
}

impl ScanContainer {
    fn new(
        container: Arc<RosContainer>,
        deletes: Arc<DeleteVector>,
        snapshot: Epoch,
        backend: Arc<dyn StorageBackend>,
        pin: Option<Arc<ContainerPin>>,
        epochs: Option<&(Value, Value)>,
    ) -> ScanContainer {
        let (min_e, max_e) = epoch_range(epochs.map(|(a, b)| (a, b)), container.commit_epoch);
        let visibility = if min_e > snapshot {
            Visibility::None
        } else if max_e <= snapshot && deletes.is_empty() {
            Visibility::All
        } else {
            Visibility::PerRow
        };
        ScanContainer {
            container,
            deletes,
            snapshot,
            backend,
            pin,
            visibility,
        }
    }

    /// Index of the hidden epoch column.
    pub fn epoch_column(&self) -> usize {
        self.container.indexes.len() - 1
    }

    /// The container-level verdict (no I/O, already decided).
    pub fn visibility(&self) -> Visibility {
        self.visibility
    }

    /// Which positions of the whole container are visible at the snapshot.
    pub fn visible(&self, backend: &dyn StorageBackend) -> DbResult<VisibleSet> {
        self.visible_in(backend, 0..self.container.block_count())
    }

    /// Which rows of blocks `blocks` are visible at the snapshot, as a set
    /// over that run's rows. Consults the delete vector by position range
    /// and the epoch column only for the blocks whose epoch range straddles
    /// the snapshot (one ranged read over them), so the cost follows the
    /// run, not the container.
    pub fn visible_in(
        &self,
        backend: &dyn StorageBackend,
        blocks: Range<usize>,
    ) -> DbResult<VisibleSet> {
        match self.visibility {
            Visibility::None => return Ok(VisibleSet::None),
            Visibility::All => return Ok(VisibleSet::All),
            Visibility::PerRow => {}
        }
        let epoch_col = self.epoch_column();
        let index = &self.container.indexes[epoch_col];
        let metas = index.blocks.get(blocks.clone()).ok_or_else(|| {
            DbError::Corrupt(format!("{}: no blocks {blocks:?}", self.container.id))
        })?;
        let (Some(first), Some(last)) = (metas.first(), metas.last()) else {
            return Ok(VisibleSet::None);
        };
        let start = first.start_position;
        let end = last.start_position + u64::from(last.count);
        let mut mask = vec![true; (end - start) as usize];
        let rows_of = |meta: &vdb_encoding::BlockMeta| {
            let lo = (meta.start_position - start) as usize;
            lo..lo + meta.count as usize
        };
        // Epochs: a block is wholly committed, wholly in the future, or
        // straddles the snapshot — only the last kind is read.
        let mut straddling: Vec<usize> = Vec::new();
        for (b, meta) in blocks.clone().zip(metas) {
            let (min_e, max_e) =
                epoch_range(Some((&meta.min, &meta.max)), self.container.commit_epoch);
            if min_e > self.snapshot {
                mask[rows_of(meta)].fill(false);
            } else if max_e > self.snapshot {
                straddling.push(b);
            }
        }
        if let (Some(&lo), Some(&hi)) = (straddling.first(), straddling.last()) {
            let chunk = self.container.read_blocks(backend, epoch_col, lo..hi + 1)?;
            let reader = chunk.reader(index);
            for b in straddling {
                let rows = rows_of(&index.blocks[b]);
                let epochs = reader.read_block(b)?.into_values();
                for (visible, e) in mask[rows].iter_mut().zip(epochs) {
                    if e.as_i64().is_none_or(|v| Epoch(v as u64) > self.snapshot) {
                        *visible = false;
                    }
                }
            }
        }
        for &(pos, del_epoch) in self.deletes.range(start..end) {
            if del_epoch <= self.snapshot {
                mask[(pos - start) as usize] = false;
            }
        }
        if mask.iter().all(|&b| b) {
            Ok(VisibleSet::All)
        } else if mask.iter().all(|&b| !b) {
            Ok(VisibleSet::None)
        } else {
            Ok(VisibleSet::Mask(mask))
        }
    }

    /// Cut `surviving` — ascending block indexes a scan still wants after
    /// pruning — into morsels of at most [`MORSEL_BLOCKS`] blocks each, in
    /// block order.
    pub fn morsels<'a>(&'a self, surviving: &'a [usize]) -> impl Iterator<Item = ScanMorsel> + 'a {
        let row_index = self.container.indexes.first();
        surviving.chunks(MORSEL_BLOCKS).map(move |chunk| {
            let mut runs: Vec<Range<usize>> = Vec::new();
            for &b in chunk {
                match runs.last_mut() {
                    Some(run) if run.end == b => run.end = b + 1,
                    _ => runs.push(b..b + 1),
                }
            }
            let rows = chunk
                .iter()
                .filter_map(|&b| row_index?.blocks.get(b))
                .map(|meta| u64::from(meta.count))
                .sum();
            ScanMorsel::Blocks {
                container: self.clone(),
                runs,
                rows,
            }
        })
    }
}

/// Everything a scan needs from one projection at one snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotScan {
    pub containers: Vec<ScanContainer>,
    /// Visible WOS rows (projection-shaped, no epoch column).
    pub wos_rows: Vec<Row>,
}

/// Target size of a scan morsel in storage blocks (16 × [`BLOCK_SIZE`] ≈
/// 16 k rows): large enough that queue traffic and per-morsel reads
/// vanish beside the decode, small enough that one mergeout-sized
/// container spreads over every worker.
pub const MORSEL_BLOCKS: usize = 16;

impl SnapshotScan {
    /// Split into independently scannable units of parallel work, **after**
    /// pruning: `surviving` names, per container, the blocks the scan still
    /// wants (none = the container is pruned), and each container's
    /// survivors are cut into morsels of at most [`MORSEL_BLOCKS`] blocks,
    /// so one large container spreads across workers while a pruned point
    /// query is a single morsel. The WOS tail, if any, is the last morsel.
    /// Morsels keep snapshot order — container order, then block order —
    /// so concatenating per-morsel scan output in morsel order reproduces
    /// the serial scan exactly.
    pub fn morsels(
        &self,
        mut surviving: impl FnMut(&ScanContainer) -> DbResult<Vec<usize>>,
    ) -> DbResult<Vec<ScanMorsel>> {
        let mut out = Vec::new();
        for sc in &self.containers {
            out.extend(sc.morsels(&surviving(sc)?));
        }
        if !self.wos_rows.is_empty() {
            out.push(ScanMorsel::Wos(self.wos_rows.clone()));
        }
        Ok(out)
    }
}

/// One unit of scan work handed to an execution worker. Produced by
/// [`SnapshotScan::morsels`]; consumed by the executor's morsel queue.
#[derive(Debug, Clone)]
pub enum ScanMorsel {
    /// Up to [`MORSEL_BLOCKS`] surviving blocks of one container, as runs
    /// of neighbouring block indexes — each run is one ranged read per
    /// column. The container handle is shared (`Arc`s) with every other
    /// morsel cut from it.
    Blocks {
        container: ScanContainer,
        runs: Vec<Range<usize>>,
        /// Rows covered before visibility and predicates.
        rows: u64,
    },
    /// The visible WOS rows (projection-shaped): the snapshot's tail.
    Wos(Vec<Row>),
}

impl ScanMorsel {
    /// Rows covered before visibility/predicates — the scheduling weight.
    pub fn rows(&self) -> u64 {
        match self {
            ScanMorsel::Blocks { rows, .. } => *rows,
            ScanMorsel::Wos(rows) => rows.len() as u64,
        }
    }
}

/// WOS + ROS + delete vectors for one projection on one node.
pub struct ProjectionStore {
    def: ProjectionDef,
    /// Physical definition: `def` plus the hidden epoch column.
    physical: ProjectionDef,
    /// Partition clause, already remapped to projection column indexes.
    partition: Option<PartitionSpec>,
    n_local_segments: u32,
    backend: Arc<dyn StorageBackend>,
    wos: Wos,
    /// Immutable once inserted; scans share them by `Arc`.
    containers: BTreeMap<ContainerId, Arc<RosContainer>>,
    /// Replaced whole (copy-on-write) by every delete mark.
    delete_vectors: BTreeMap<ContainerId, Arc<DeleteVector>>,
    pins: BTreeMap<ContainerId, Arc<ContainerPin>>,
    /// One summary per live container, inserted and removed with its pin.
    stats: BTreeMap<ContainerId, ContainerStats>,
    next_container: u64,
    /// WOS durability (§5.1): every WOS mutation is logged; moveout
    /// checkpoints and truncates.
    redo: RedoLog,
    /// Redo sequence the durable WOS starts at (the committed checkpoint).
    wos_start_seq: u64,
    /// Set when a multi-step durable operation (moveout, mergeout,
    /// truncation, partition drop) failed partway, leaving the in-memory
    /// state out of sync with disk. Every subsequent operation refuses to
    /// run until the store is reopened from durable state — serving from
    /// the divergent image would leak uncommitted rows to readers.
    poisoned: Option<String>,
}

const MANIFEST_VERSION: u64 = 1;

/// Every row index of a chunk, in arrival order.
fn all_rows(chunk: &WriteChunk) -> Vec<u32> {
    (0..chunk.len() as u32).collect()
}

impl ProjectionStore {
    pub fn new(
        def: ProjectionDef,
        partition: Option<PartitionSpec>,
        n_local_segments: u32,
        backend: Arc<dyn StorageBackend>,
    ) -> ProjectionStore {
        assert!(n_local_segments >= 1);
        let mut physical = def.clone();
        physical.columns.push(usize::MAX); // not a real anchor column
        physical.column_names.push("__epoch".into());
        physical.column_types.push(vdb_types::DataType::Integer);
        physical.encodings.push(EncodingType::Auto);
        let redo = RedoLog::new(&def.name);
        ProjectionStore {
            def,
            physical,
            partition,
            n_local_segments,
            backend,
            wos: Wos::new(),
            containers: BTreeMap::new(),
            delete_vectors: BTreeMap::new(),
            pins: BTreeMap::new(),
            stats: BTreeMap::new(),
            next_container: 1,
            redo,
            wos_start_seq: 0,
            poisoned: None,
        }
    }

    /// Refuse to operate on a store whose in-memory state diverged from
    /// disk. The only way out is to drop the store and reattach via
    /// [`ProjectionStore::open`] — exactly what crash recovery does.
    pub fn ensure_usable(&self) -> DbResult<()> {
        match &self.poisoned {
            None => Ok(()),
            Some(why) => Err(DbError::NeedsReopen(format!(
                "projection {}: {why}",
                self.def.name
            ))),
        }
    }

    fn poison(&mut self, op: &str, err: &DbError) {
        if self.poisoned.is_none() {
            self.poisoned = Some(format!("{op} failed partway ({err})"));
        }
    }

    /// Open a projection store, attaching to durable state when the backend
    /// holds a manifest (the reopen path) and starting fresh otherwise.
    ///
    /// Attach re-reads container metadata and delete vectors for every
    /// manifest-listed container, garbage-collects container directories a
    /// crashed moveout/mergeout left orphaned, and rebuilds the WOS by
    /// replaying the redo log from the committed checkpoint.
    pub fn open(
        def: ProjectionDef,
        partition: Option<PartitionSpec>,
        n_local_segments: u32,
        backend: Arc<dyn StorageBackend>,
    ) -> DbResult<ProjectionStore> {
        let mut store = Self::new(def, partition, n_local_segments, backend);
        let Ok(bytes) = store.backend.read_file(&store.manifest_path()) else {
            // No manifest yet — nothing ever reached the ROS. WOS inserts
            // may still have redo records (a moveout has to run before the
            // first manifest exists), so replay them: an insert-only
            // projection must survive reopen too.
            let (wos, redo) = RedoLog::replay(store.backend.as_ref(), &store.def.name, 0)?;
            store.wos = wos;
            store.redo = redo;
            return Ok(store);
        };
        let mut r = Reader::new(&bytes);
        let version = r.get_uvarint()?;
        if version != MANIFEST_VERSION {
            return Err(DbError::Corrupt(format!(
                "projection {} manifest version {version}",
                store.def.name
            )));
        }
        store.next_container = r.get_uvarint()?;
        store.wos_start_seq = r.get_uvarint()?;
        let n = r.get_uvarint()?;
        let mut live = BTreeSet::new();
        for _ in 0..n {
            live.insert(ContainerId(r.get_uvarint()?));
        }
        for &id in &live {
            let meta = store
                .backend
                .read_file(&format!("{}/{}/container.meta", store.def.name, id))?;
            let container = RosContainer::decode_meta(&meta)?;
            let dv = match store
                .backend
                .read_file(&format!("{}/{}/deletes.dv", store.def.name, id))
            {
                Ok(b) => DeleteVector::decode(&b)?,
                Err(_) => DeleteVector::new(),
            };
            store.pins.insert(
                id,
                Arc::new(ContainerPin::new(
                    store.backend.clone(),
                    &store.def.name,
                    id,
                )),
            );
            store.stats.insert(id, ContainerStats::new(&container));
            store.containers.insert(id, Arc::new(container));
            store.delete_vectors.insert(id, Arc::new(dv));
        }
        store.gc_orphans(&live);
        let (wos, redo) =
            RedoLog::replay(store.backend.as_ref(), &store.def.name, store.wos_start_seq)?;
        store.wos = wos;
        store.redo = redo;
        store
            .redo
            .gc_before(store.backend.as_ref(), store.wos_start_seq);
        Ok(store)
    }

    fn manifest_path(&self) -> String {
        format!("{}/manifest", self.def.name)
    }

    /// Persist the durable catalog: live container ids, the container id
    /// allocator and the redo checkpoint sequence. A single whole-file
    /// rewrite, so under the simulated-crash model this is the atomic
    /// commit point for every container-set or WOS-truncation change.
    fn save_manifest(&self) -> DbResult<()> {
        let mut w = Writer::new();
        w.put_uvarint(MANIFEST_VERSION);
        w.put_uvarint(self.next_container);
        w.put_uvarint(self.wos_start_seq);
        w.put_uvarint(self.containers.len() as u64);
        for id in self.containers.keys() {
            w.put_uvarint(id.0);
        }
        self.backend
            .write_file(&self.manifest_path(), &w.into_bytes())
    }

    /// Delete files of container directories the manifest does not list —
    /// debris from operations that crashed between writing containers and
    /// committing the manifest. Without this, reopen would eventually
    /// re-allocate an orphan's id and inherit its stale files.
    fn gc_orphans(&self, live: &BTreeSet<ContainerId>) {
        for file in self.backend.list_files(&format!("{}/", self.def.name)) {
            let rel = &file[self.def.name.len() + 1..];
            let Some((dir, _)) = rel.split_once('/') else {
                continue; // the manifest itself
            };
            let Some(id) = dir.strip_prefix("ros").and_then(|s| s.parse::<u64>().ok()) else {
                continue; // redo/ and anything non-container
            };
            if !live.contains(&ContainerId(id)) {
                let _ = self.backend.delete_file(&file);
            }
        }
    }

    pub fn def(&self) -> &ProjectionDef {
        &self.def
    }

    pub fn partition_spec(&self) -> Option<&PartitionSpec> {
        self.partition.as_ref()
    }

    pub fn backend(&self) -> &Arc<dyn StorageBackend> {
        &self.backend
    }

    pub fn wos_row_count(&self) -> usize {
        self.wos.len()
    }

    pub fn wos_bytes(&self) -> usize {
        self.wos.approx_bytes()
    }

    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// How many scan morsels an unpruned snapshot of this store yields
    /// right now — the storage-side input to the planner's
    /// degree-of-parallelism choice: every container contributes one
    /// morsel per [`MORSEL_BLOCKS`] blocks (rounded up), plus one for the
    /// WOS tail. From the summaries; no I/O.
    pub fn morsel_count(&self) -> usize {
        let morsel_rows = (MORSEL_BLOCKS * BLOCK_SIZE) as u64;
        let ros: u64 = self
            .stats
            .values()
            .map(|st| st.row_count.div_ceil(morsel_rows))
            .sum();
        ros as usize + usize::from(!self.wos.is_empty())
    }

    pub fn containers(&self) -> impl Iterator<Item = &RosContainer> {
        self.containers.values().map(Arc::as_ref)
    }

    /// Every live container beside its summary, in container order.
    pub fn container_summaries(&self) -> impl Iterator<Item = (&RosContainer, &ContainerStats)> {
        debug_assert!(self.containers.keys().eq(self.stats.keys()));
        self.containers().zip(self.stats.values())
    }

    /// Total on-backend bytes of this projection's containers (data and
    /// position-index files), from the summaries — no `stat`.
    pub fn ros_bytes(&self) -> u64 {
        self.stats.values().map(ContainerStats::total_bytes).sum()
    }

    /// Local segment of a segmentation-ring value: the ring is cut into
    /// `n_local_segments` equal ranges so segments transfer wholesale when
    /// the cluster resizes (§3.6).
    pub fn local_segment_of(&self, seg_value: Option<u64>) -> u32 {
        match seg_value {
            None => 0,
            Some(v) => ((v as u128 * u128::from(self.n_local_segments)) >> 64) as u32,
        }
    }

    fn alloc_container(&mut self) -> ContainerId {
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        id
    }

    /// Insert projection-shaped rows at `epoch`, buffered in the WOS. The
    /// batch is logged to the redo log first (the WOS itself is volatile,
    /// §5.1).
    pub fn insert_wos(&mut self, rows: Vec<Row>, epoch: Epoch) -> DbResult<()> {
        self.ensure_usable()?;
        for row in &rows {
            self.check_arity(row)?;
        }
        self.redo.append(
            self.backend.as_ref(),
            &RedoRecord::Insert {
                epoch,
                rows: rows.clone(),
            },
        )?;
        for row in rows {
            self.wos.insert(row, epoch);
        }
        Ok(())
    }

    /// Insert projection-shaped rows at `epoch` directly into new ROS
    /// containers, bypassing the WOS (the §7 "Direct Loading to the ROS"
    /// path for bulk loads). The row-shaped door: pivots the rows once.
    pub fn insert_direct_ros(
        &mut self,
        rows: Vec<Row>,
        epoch: Epoch,
    ) -> DbResult<Vec<ContainerId>> {
        self.ensure_usable()?;
        for row in &rows {
            self.check_arity(row)?;
        }
        let chunk = WriteChunk::from_rows(self.def.arity(), rows.iter().map(Vec::as_slice), epoch);
        self.insert_direct_ros_chunk(&chunk.view(), &all_rows(&chunk), epoch)
    }

    /// Direct load of rows `rows` of an already-pivoted chunk (in this
    /// projection's column order) whose rows commit at `epoch`.
    pub fn insert_direct_ros_chunk(
        &mut self,
        chunk: &ChunkView<'_>,
        rows: &[u32],
        epoch: Epoch,
    ) -> DbResult<Vec<ContainerId>> {
        self.ensure_usable()?;
        if chunk.arity() != self.def.arity() {
            return Err(DbError::Execution(format!(
                "projection {} expects {} columns, chunk has {}",
                self.def.name,
                self.def.arity(),
                chunk.arity()
            )));
        }
        let result = self
            .write_containers(chunk, rows, epoch)
            .and_then(|created| self.save_manifest().map(|()| created));
        if let Err(e) = &result {
            self.poison("direct load", e);
        }
        result
    }

    fn check_arity(&self, row: &Row) -> DbResult<()> {
        if row.len() != self.def.arity() {
            return Err(DbError::Execution(format!(
                "projection {} expects {} columns, row has {}",
                self.def.name,
                self.def.arity(),
                row.len()
            )));
        }
        Ok(())
    }

    /// Pivot `(row, commit epoch, delete epoch)` history — what the WOS
    /// drains to and what recovery copies — into a chunk.
    fn pivot_history(&self, history: &[(Row, Epoch, Option<Epoch>)]) -> WriteChunk {
        let mut chunk = WriteChunk::new(self.def.arity());
        for (row, epoch, deleted) in history {
            chunk.push_row(row, *epoch, *deleted);
        }
        chunk
    }

    /// The one container writer. Split `rows` of the chunk by (partition
    /// key, local segment), order each group by the sort order with a
    /// stable sort of the row indexes over the typed sort-key columns, and
    /// write one container per group by gathering every column (the epoch
    /// column last) through that permutation into the typed encoders.
    /// Deleted rows carry their delete epochs into the new container's
    /// delete vector.
    fn write_containers(
        &mut self,
        chunk: &ChunkView<'_>,
        rows: &[u32],
        commit_epoch: Epoch,
    ) -> DbResult<Vec<ContainerId>> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let groups = columnar::group_rows(
            chunk,
            rows,
            &self.def,
            self.partition.as_ref(),
            self.n_local_segments,
        )?;
        let order = RowOrder::new(chunk, rows, &self.def.sort_keys);
        let mut created = Vec::with_capacity(groups.len());
        for ((pkey, lseg), mut group) in groups {
            order.sort(&mut group);
            let group: Vec<u32> = group.into_iter().map(|at| rows[at as usize]).collect();
            let mut dv = DeleteVector::new();
            for (position, &row) in group.iter().enumerate() {
                if let Some(deleted) = chunk.delete_epoch(row) {
                    dv.mark(position as u64, deleted);
                }
            }
            let id = self.alloc_container();
            // Stage the group's files fully before touching the catalog, so
            // a failed write leaves only orphan files (GC'd on reopen). A
            // failure once earlier groups are catalog-visible is a
            // different story: the catalog is ahead of the manifest, so the
            // store must poison itself until reopened.
            let staged = RosContainer::write_columns(
                self.backend.as_ref(),
                &self.physical,
                id,
                chunk.physical_columns(),
                &group,
                commit_epoch,
                pkey,
                lseg,
            )
            .and_then(|container| {
                if !dv.is_empty() {
                    self.persist_delete_vector(id, &dv)?;
                }
                Ok(container)
            });
            let container = match staged {
                Ok(c) => c,
                Err(e) => {
                    if !created.is_empty() {
                        self.poison("container write", &e);
                    }
                    return Err(e);
                }
            };
            self.pins.insert(
                id,
                Arc::new(ContainerPin::new(self.backend.clone(), &self.def.name, id)),
            );
            self.stats.insert(id, ContainerStats::new(&container));
            self.containers.insert(id, Arc::new(container));
            self.delete_vectors.insert(id, Arc::new(dv));
            created.push(id);
        }
        Ok(created)
    }

    fn persist_delete_vector(&self, id: ContainerId, dv: &DeleteVector) -> DbResult<()> {
        self.backend.write_file(
            &format!("{}/{}/deletes.dv", self.def.name, id),
            &dv.encode(),
        )
    }

    /// Moveout (§4): move WOS rows committed at or before `up_to` into new
    /// ROS containers. Returns created container ids.
    ///
    /// Durable protocol: write containers → checkpoint the surviving WOS →
    /// commit both by rewriting the manifest. A crash anywhere before the
    /// manifest write recovers to the pre-moveout state (orphan containers
    /// and the uncommitted checkpoint are ignored on reopen); after it, to
    /// the post-moveout state. Fault points mark the two crash windows.
    pub fn moveout(&mut self, up_to: Epoch) -> DbResult<Vec<ContainerId>> {
        self.ensure_usable()?;
        let moved = self.wos.drain_up_to(up_to)?;
        if moved.is_empty() {
            return Ok(Vec::new());
        }
        // The drain already mutated the in-memory WOS; any failure from
        // here on leaves memory ahead of disk, so the store poisons
        // itself and demands a reopen.
        match self.moveout_drained(moved) {
            Ok(created) => Ok(created),
            Err(e) => {
                self.poison("moveout", &e);
                Err(e)
            }
        }
    }

    fn moveout_drained(
        &mut self,
        moved: Vec<(Row, Epoch, Option<Epoch>)>,
    ) -> DbResult<Vec<ContainerId>> {
        let max_epoch = moved.iter().map(|(_, e, _)| *e).max().unwrap();
        let chunk = self.pivot_history(&moved);
        drop(moved);
        let created = self.write_containers(&chunk.view(), &all_rows(&chunk), max_epoch)?;
        drop(chunk);
        fault::fire(fault::MOVEOUT_BEFORE_MANIFEST)?;
        let image: Vec<(Row, Epoch, Option<Epoch>)> = self
            .wos
            .all_rows()
            .map(|(_, wr, d)| (wr.row.clone(), wr.epoch, d))
            .collect();
        let ckpt = self.redo.append(
            self.backend.as_ref(),
            &RedoRecord::Checkpoint { rows: image },
        )?;
        fault::fire(fault::MOVEOUT_BEFORE_WOS_TRUNCATE)?;
        self.wos_start_seq = ckpt;
        self.save_manifest()?;
        self.redo.gc_before(self.backend.as_ref(), ckpt);
        Ok(created)
    }

    /// Mark a row deleted (§3.7.1). UPDATE = delete + insert at exec level.
    pub fn mark_deleted(&mut self, loc: RowLocation, epoch: Epoch) -> DbResult<()> {
        self.mark_deleted_many(&[loc], epoch)
    }

    /// Mark one statement's victims deleted at `epoch`. ROS marks are
    /// grouped by container: one copy of the container's delete vector,
    /// every mark, one sidecar write — and the in-memory vector is replaced
    /// only after that write succeeded, so a failed write never serves a
    /// delete that did not reach disk. WOS marks log one redo record each.
    pub fn mark_deleted_many(&mut self, locations: &[RowLocation], epoch: Epoch) -> DbResult<()> {
        self.ensure_usable()?;
        let mut by_container: BTreeMap<ContainerId, Vec<u64>> = BTreeMap::new();
        for loc in locations {
            match *loc {
                RowLocation::Ros(id, pos) => by_container.entry(id).or_default().push(pos),
                RowLocation::Wos(pos) => {
                    if pos >= self.wos.len() as u64 {
                        return Err(DbError::Execution(format!(
                            "WOS position {pos} out of range"
                        )));
                    }
                    self.redo.append(
                        self.backend.as_ref(),
                        &RedoRecord::DeleteWos {
                            position: pos,
                            epoch,
                        },
                    )?;
                    self.wos.mark_deleted(pos, epoch);
                }
            }
        }
        for (id, positions) in by_container {
            let container = self
                .containers
                .get(&id)
                .ok_or_else(|| DbError::NotFound(format!("container {id}")))?;
            if let Some(pos) = positions.iter().find(|&&p| p >= container.row_count) {
                return Err(DbError::Execution(format!(
                    "position {pos} out of range for {id}"
                )));
            }
            let mut dv = self.delete_vector_of(id);
            for pos in positions {
                dv.mark(pos, epoch);
            }
            self.persist_delete_vector(id, &dv)?;
            self.delete_vectors.insert(id, Arc::new(dv));
        }
        Ok(())
    }

    /// Snapshot of everything a scan needs at `snapshot`: pointer copies
    /// of the containers and their delete vectors, each with its
    /// container-level [`Visibility`] already decided, plus the visible
    /// WOS rows.
    pub fn scan_snapshot(&self, snapshot: Epoch) -> SnapshotScan {
        let containers = self
            .containers
            .iter()
            .map(|(id, c)| {
                let epochs = self.stats.get(id).and_then(|st| st.columns.last());
                ScanContainer::new(
                    c.clone(),
                    self.delete_vectors.get(id).cloned().unwrap_or_default(),
                    snapshot,
                    self.backend.clone(),
                    self.pins.get(id).cloned(),
                    epochs.and_then(|col| col.min_max.as_ref()),
                )
            })
            .collect();
        SnapshotScan {
            containers,
            wos_rows: self.wos.visible_rows(snapshot),
        }
    }

    /// All rows visible at `snapshot` (projection-shaped, epoch column
    /// stripped), in no particular order. Recovery, refresh and tests use
    /// this; queries go through the execution engine's scan instead.
    pub fn visible_rows(&self, snapshot: Epoch) -> DbResult<Vec<Row>> {
        self.ensure_usable()?;
        let scan = self.scan_snapshot(snapshot);
        let mut out = Vec::new();
        for sc in &scan.containers {
            let visible = sc.visible(self.backend.as_ref())?;
            if matches!(visible, VisibleSet::None) {
                continue;
            }
            let rows = sc.container.read_rows(self.backend.as_ref())?;
            for (i, mut row) in rows.into_iter().enumerate() {
                if visible.is_visible(i as u64) {
                    row.pop(); // strip epoch column
                    out.push(row);
                }
            }
        }
        out.extend(scan.wos_rows);
        Ok(out)
    }

    /// Visible rows together with their physical locations (DELETE/UPDATE
    /// targeting).
    pub fn visible_rows_with_locations(
        &self,
        snapshot: Epoch,
    ) -> DbResult<Vec<(RowLocation, Row)>> {
        self.ensure_usable()?;
        let scan = self.scan_snapshot(snapshot);
        let mut out = Vec::new();
        for sc in &scan.containers {
            let visible = sc.visible(self.backend.as_ref())?;
            if matches!(visible, VisibleSet::None) {
                continue;
            }
            let rows = sc.container.read_rows(self.backend.as_ref())?;
            for (i, mut row) in rows.into_iter().enumerate() {
                if visible.is_visible(i as u64) {
                    row.pop();
                    out.push((RowLocation::Ros(sc.container.id, i as u64), row));
                }
            }
        }
        for (pos, wr, del) in self.wos.all_rows() {
            let deleted = del.is_some_and(|d| d <= snapshot);
            if wr.epoch <= snapshot && !deleted {
                out.push((RowLocation::Wos(pos), wr.row.clone()));
            }
        }
        Ok(out)
    }

    /// Encoded bytes per projection column (data + index files), summed
    /// across containers — the optimizer's compression-aware I/O input.
    pub fn column_bytes(&self) -> Vec<u64> {
        let mut bytes = vec![0u64; self.def.arity()];
        for st in self.stats.values() {
            for (total, col) in bytes.iter_mut().zip(&st.columns) {
                *total += col.bytes;
            }
        }
        bytes
    }

    /// Observed concrete encodings per projection column: `(encoding name,
    /// rows)` pairs summed over every ROS block's position-index entry.
    /// This is the Database Designer feedback loop (§6.3): what `Auto`
    /// actually picked on real data, surfaced to the optimizer catalog so
    /// encoding choices are inspectable and re-designable.
    pub fn column_encodings(&self) -> Vec<Vec<(String, u64)>> {
        let mut per_col: Vec<BTreeMap<&'static str, u64>> = vec![BTreeMap::new(); self.def.arity()];
        for st in self.stats.values() {
            for (counts, col) in per_col.iter_mut().zip(&st.columns) {
                for &(name, rows) in &col.encodings {
                    *counts.entry(name).or_insert(0) += rows;
                }
            }
        }
        per_col
            .into_iter()
            .map(|m| m.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
            .collect()
    }

    /// Upper bound on the visible row count: container row counts plus
    /// the WOS, deletes not subtracted.
    pub fn row_count_estimate(&self) -> u64 {
        self.stats.values().map(|st| st.row_count).sum::<u64>() + self.wos.len() as u64
    }

    /// This store's share of the planner's statistics sample, borrowed and
    /// projection-shaped: the rows visible at `snapshot` among each
    /// container's leading
    /// [`STATS_SAMPLE_ROWS`](crate::container_stats::STATS_SAMPLE_ROWS),
    /// in container order, then the visible WOS rows — at most `limit`.
    ///
    /// This is `visible_rows(snapshot)` cut to `limit`, except that a
    /// container longer than its leading window is not read past it: rows
    /// of the window that are invisible at `snapshot` shorten that
    /// container's share instead of being replaced by later rows. A
    /// container pays one leading-block read per column the first time the
    /// walk reaches it; after that the walk does no I/O.
    pub fn sample_rows(&self, snapshot: Epoch, limit: usize) -> DbResult<Vec<&[Value]>> {
        self.ensure_usable()?;
        debug_assert_eq!(self.stats.len(), self.containers.len());
        let arity = self.def.arity();
        let mut out: Vec<&[Value]> = Vec::new();
        for (id, st) in &self.stats {
            if out.len() == limit {
                break;
            }
            let deletes = self.delete_vectors.get(id);
            let rows = st.sample(&self.containers[id], self.backend.as_ref())?;
            let visible = rows.iter().enumerate().filter(|(pos, row)| {
                let committed = row
                    .get(arity)
                    .and_then(Value::as_i64)
                    .is_some_and(|e| Epoch(e as u64) <= snapshot);
                committed && !deletes.is_some_and(|dv| dv.is_deleted(*pos as u64, snapshot))
            });
            let room = limit - out.len();
            out.extend(visible.map(|(_, row)| &row[..arity]).take(room));
        }
        let room = limit - out.len();
        let wos = self.wos.visible_iter(snapshot);
        out.extend(wos.map(Vec::as_slice).take(room));
        Ok(out)
    }

    /// Fast bulk delete of one partition (§3.5): moveout any WOS rows, then
    /// retire every container with the given partition key.
    ///
    /// Uses the same durable protocol as mergeout: detach the victims from
    /// the catalog, commit by rewriting the manifest, and only then doom
    /// the pins — the manifest must never list a container whose files a
    /// crash-interrupted delete already reclaimed.
    pub fn drop_partition(&mut self, key: &Value, current: Epoch) -> DbResult<usize> {
        self.ensure_usable()?;
        self.moveout(current)?;
        let victims: Vec<ContainerId> = self
            .containers
            .values()
            .filter(|c| c.partition_key.as_ref() == Some(key))
            .map(|c| c.id)
            .collect();
        if victims.is_empty() {
            return Ok(0);
        }
        match self.commit_removal(
            &victims,
            fault::DROP_PARTITION_BEFORE_MANIFEST,
            fault::DROP_PARTITION_BEFORE_CLEANUP,
        ) {
            Ok(()) => Ok(victims.len()),
            Err(e) => {
                self.poison("drop partition", &e);
                Err(e)
            }
        }
    }

    /// Durably retire a set of containers: detach them from the catalog,
    /// commit via the manifest rewrite, then doom the pins so files are
    /// reclaimed once in-flight scans let go. The two fault points bracket
    /// the manifest write — the single atomic commit step.
    fn commit_removal(
        &mut self,
        victims: &[ContainerId],
        before_manifest: &str,
        before_cleanup: &str,
    ) -> DbResult<()> {
        fault::fire(before_manifest)?;
        let pins: Vec<Arc<ContainerPin>> = victims
            .iter()
            .filter_map(|id| self.detach_container(*id))
            .collect();
        self.save_manifest()?;
        fault::fire(before_cleanup)?;
        for pin in pins {
            pin.doom();
        }
        Ok(())
    }

    /// Remove a container from the catalog and hand back its (undoomed)
    /// pin. Callers commit the removal with a manifest save and only then
    /// doom the pin — dooming first would let a crash delete files the
    /// manifest still references.
    fn detach_container(&mut self, id: ContainerId) -> Option<Arc<ContainerPin>> {
        self.containers.remove(&id)?;
        self.delete_vectors.remove(&id);
        self.stats.remove(&id);
        self.pins.remove(&id)
    }

    /// Drop a container from the catalog. File reclamation is deferred to
    /// the last pin holder — an in-flight scan keeps the files alive.
    /// Callers changing the durable container set must follow up with a
    /// manifest save.
    #[cfg(test)]
    pub(crate) fn remove_container(&mut self, id: ContainerId) {
        if let Some(pin) = self.detach_container(id) {
            pin.doom();
        }
    }

    /// The side map holds exactly the live containers, and each summary
    /// says what the container's files and rows say.
    #[cfg(test)]
    pub(crate) fn assert_stats_track_containers(&self) {
        let ids = |keys: Vec<&ContainerId>| keys.into_iter().copied().collect::<Vec<_>>();
        assert_eq!(
            ids(self.stats.keys().collect()),
            ids(self.containers.keys().collect())
        );
        assert_eq!(
            ids(self.pins.keys().collect()),
            ids(self.containers.keys().collect())
        );
        let backend = self.backend.as_ref();
        for (id, c) in &self.containers {
            let st = &self.stats[id];
            assert_eq!(st.row_count, c.row_count);
            assert_eq!(st.columns.len(), c.indexes.len());
            let rows = c.read_rows(backend).unwrap();
            for (col, summary) in st.columns.iter().enumerate() {
                let files = backend.file_size(&c.data_path(col)).unwrap()
                    + backend.file_size(&c.index_path(col)).unwrap();
                assert_eq!(summary.bytes, files, "{id} column {col}");
                let encoded: u64 = summary.encodings.iter().map(|(_, n)| n).sum();
                assert_eq!(encoded, c.row_count);
                let values = rows.iter().map(|r| &r[col]).filter(|v| !v.is_null());
                let min_max = values.clone().min().cloned().zip(values.max().cloned());
                assert_eq!(summary.min_max, min_max, "{id} column {col}");
                let nulls = rows.iter().filter(|r| r[col].is_null()).count() as u64;
                assert_eq!(summary.nulls, nulls);
            }
            let window = rows.len().min(crate::STATS_SAMPLE_ROWS);
            assert_eq!(st.sample(c, backend).unwrap(), &rows[..window]);
        }
    }

    /// Read a container's rows together with per-row `(epoch, delete)`
    /// history — the mergeout and recovery input.
    pub(crate) fn container_history(
        &self,
        id: ContainerId,
    ) -> DbResult<Vec<(Row, Epoch, Option<Epoch>)>> {
        let c = self
            .containers
            .get(&id)
            .ok_or_else(|| DbError::NotFound(format!("container {id}")))?;
        let dv = self.delete_vectors.get(&id).cloned().unwrap_or_default();
        let commit_epoch = c.commit_epoch;
        let rows = c.read_rows(self.backend.as_ref())?;
        Ok(rows
            .into_iter()
            .enumerate()
            .map(|(i, mut row)| {
                let e = row
                    .pop()
                    .and_then(|v| v.as_i64())
                    .map(|v| Epoch(v as u64))
                    .unwrap_or(commit_epoch);
                (row, e, dv.delete_epoch(i as u64))
            })
            .collect())
    }

    /// The tuple mover's mergeout input: every row of `victims`, victim
    /// after victim, decoded block by block into typed columns.
    pub(crate) fn merge_input(&self, victims: &[ContainerId]) -> DbResult<WriteChunk> {
        let mut chunk = WriteChunk::new(self.def.arity());
        for id in victims {
            let container = self
                .containers
                .get(id)
                .ok_or_else(|| DbError::NotFound(format!("container {id}")))?;
            let deletes = self.delete_vectors.get(id).cloned().unwrap_or_default();
            chunk.append_container(self.backend.as_ref(), container, &deletes)?;
        }
        Ok(chunk)
    }

    /// Replace a set of containers with rows `rows` of their merged
    /// history (tuple mover).
    ///
    /// Durable protocol: write the merged containers, then commit by
    /// rewriting the manifest with the victims dropped, then reclaim victim
    /// files. Crashing before the manifest recovers pre-merge (the merged
    /// containers are orphans); after it, post-merge (leftover victim files
    /// are GC'd on reopen). An error after the merged containers became
    /// catalog-visible poisons the store — the in-memory image is ahead of
    /// the manifest and only a reopen reconverges them.
    pub(crate) fn replace_containers(
        &mut self,
        victims: &[ContainerId],
        merged: &WriteChunk,
        rows: &[u32],
        commit_epoch: Epoch,
    ) -> DbResult<Vec<ContainerId>> {
        self.ensure_usable()?;
        let created = self.write_containers(&merged.view(), rows, commit_epoch)?;
        match self.commit_removal(
            victims,
            fault::MERGEOUT_BEFORE_MANIFEST,
            fault::MERGEOUT_BEFORE_CLEANUP,
        ) {
            Ok(()) => Ok(created),
            Err(e) => {
                self.poison("mergeout", &e);
                Err(e)
            }
        }
    }

    pub(crate) fn delete_vector_of(&self, id: ContainerId) -> DeleteVector {
        self.delete_vectors
            .get(&id)
            .map(|dv| DeleteVector::clone(dv))
            .unwrap_or_default()
    }

    /// Truncate all effects after `epoch`: recovery's first step ("the node
    /// truncates all tuples that were inserted after its LGE", §5.2). Rows
    /// committed after `epoch` disappear; delete marks stamped after
    /// `epoch` are undone.
    pub fn truncate_after(&mut self, epoch: Epoch) -> DbResult<()> {
        self.ensure_usable()?;
        match self.truncate_after_inner(epoch) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.poison("truncate", &e);
                Err(e)
            }
        }
    }

    fn truncate_after_inner(&mut self, epoch: Epoch) -> DbResult<()> {
        // WOS: drop rows after epoch, undo later deletes.
        let kept = self.wos.drain_up_to(Epoch(u64::MAX))?;
        let mut new_wos = Wos::new();
        for (row, e, d) in kept {
            if e <= epoch {
                let pos = new_wos.insert(row, e);
                if let Some(de) = d {
                    if de <= epoch {
                        new_wos.mark_deleted(pos, de);
                    }
                }
            }
        }
        self.wos = new_wos;
        // ROS: rewrite containers that contain post-epoch rows or deletes.
        // Victims are detached but their dooms wait until the manifest
        // commits — before that, their files are the only durable copy of
        // the surviving rows.
        let mut detached: Vec<Arc<ContainerPin>> = Vec::new();
        let ids: Vec<ContainerId> = self.containers.keys().copied().collect();
        for id in ids {
            let hist = self.container_history(id)?;
            let needs_rewrite = hist
                .iter()
                .any(|(_, e, d)| *e > epoch || d.is_some_and(|de| de > epoch));
            if !needs_rewrite {
                continue;
            }
            let filtered: Vec<(Row, Epoch, Option<Epoch>)> = hist
                .into_iter()
                .filter(|(_, e, _)| *e <= epoch)
                .map(|(r, e, d)| (r, e, d.filter(|de| *de <= epoch)))
                .collect();
            detached.extend(self.detach_container(id));
            let chunk = self.pivot_history(&filtered);
            self.write_containers(&chunk.view(), &all_rows(&chunk), epoch)?;
        }
        fault::fire(fault::TRUNCATE_BEFORE_MANIFEST)?;
        // Durable commit of the truncation: checkpoint the rebuilt WOS and
        // rewrite the manifest in one step; only then reclaim the
        // rewritten containers' files.
        let image: Vec<(Row, Epoch, Option<Epoch>)> = self
            .wos
            .all_rows()
            .map(|(_, wr, d)| (wr.row.clone(), wr.epoch, d))
            .collect();
        let ckpt = self.redo.append(
            self.backend.as_ref(),
            &RedoRecord::Checkpoint { rows: image },
        )?;
        self.wos_start_seq = ckpt;
        self.save_manifest()?;
        for pin in detached {
            pin.doom();
        }
        self.redo.gc_before(self.backend.as_ref(), ckpt);
        Ok(())
    }

    /// Complete history of the projection (for recovery copy): every row
    /// with commit epoch in `(from, to]`, including deleted rows and their
    /// delete epochs — "an execution plan similar to INSERT...SELECT is
    /// used to move rows (including deleted rows)" (§5.2).
    pub fn history_between(
        &self,
        from: Epoch,
        to: Epoch,
    ) -> DbResult<Vec<(Row, Epoch, Option<Epoch>)>> {
        self.ensure_usable()?;
        let mut out = Vec::new();
        let ids: Vec<ContainerId> = self.containers.keys().copied().collect();
        for id in ids {
            for (row, e, d) in self.container_history(id)? {
                if e > from && e <= to {
                    out.push((row, e, d.filter(|de| *de <= to)));
                }
            }
        }
        for (_, wr, d) in self.wos.all_rows() {
            if wr.epoch > from && wr.epoch <= to {
                out.push((wr.row.clone(), wr.epoch, d.filter(|de| *de <= to)));
            }
        }
        Ok(out)
    }

    /// Deletes that hit *old* rows during an interval: rows committed at or
    /// before `from` whose delete epoch lies in `(from, to]`. Recovery must
    /// replay these separately — `history_between` only carries rows whose
    /// *commit* falls in the window.
    pub fn late_deletes_between(
        &self,
        from: Epoch,
        to: Epoch,
    ) -> DbResult<Vec<(Row, Epoch, Epoch)>> {
        self.ensure_usable()?;
        let mut out = Vec::new();
        let ids: Vec<ContainerId> = self.containers.keys().copied().collect();
        for id in ids {
            for (row, e, d) in self.container_history(id)? {
                if let Some(de) = d {
                    if e <= from && de > from && de <= to {
                        out.push((row, e, de));
                    }
                }
            }
        }
        for (_, wr, d) in self.wos.all_rows() {
            if let Some(de) = d {
                if wr.epoch <= from && de > from && de <= to {
                    out.push((wr.row.clone(), wr.epoch, de));
                }
            }
        }
        Ok(out)
    }

    /// Replay late deletes gathered from a buddy: find each (row, commit
    /// epoch) pair without a delete mark and mark it. Returns marks applied.
    pub fn apply_late_deletes(&mut self, items: &[(Row, Epoch, Epoch)]) -> DbResult<u64> {
        self.ensure_usable()?;
        let mut applied = 0;
        for (row, commit, delete) in items {
            let mut target: Option<RowLocation> = None;
            let ids: Vec<ContainerId> = self.containers.keys().copied().collect();
            'search: for id in ids {
                for (i, (r, e, d)) in self.container_history(id)?.into_iter().enumerate() {
                    if d.is_none() && &r == row && &e == commit {
                        target = Some(RowLocation::Ros(id, i as u64));
                        break 'search;
                    }
                }
            }
            if target.is_none() {
                for (pos, wr, d) in self.wos.all_rows() {
                    if d.is_none() && &wr.row == row && &wr.epoch == commit {
                        target = Some(RowLocation::Wos(pos));
                        break;
                    }
                }
            }
            if let Some(loc) = target {
                self.mark_deleted(loc, *delete)?;
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Drop all WOS contents (simulated node crash: "data that exists only
    /// in the WOS is lost in the event of a node failure", §5.1).
    ///
    /// This models a *volatile* WOS for the cluster-level fail/recover
    /// tests and deliberately leaves the redo log untouched: those tests
    /// never reopen the store from disk, and the buddy-replay recovery that
    /// follows ends in [`ProjectionStore::truncate_after`], which rewrites
    /// the checkpoint and re-converges durable state.
    pub fn lose_wos(&mut self) {
        self.wos = Wos::new();
    }

    /// Apply copied history (recovery's historical/current phases).
    pub fn apply_history(&mut self, rows: Vec<(Row, Epoch, Option<Epoch>)>) -> DbResult<()> {
        self.ensure_usable()?;
        if rows.is_empty() {
            return Ok(());
        }
        let max_epoch = rows.iter().map(|(_, e, _)| *e).max().unwrap();
        for (row, _, _) in &rows {
            self.check_arity(row)?;
        }
        let chunk = self.pivot_history(&rows);
        drop(rows);
        self.write_containers(&chunk.view(), &all_rows(&chunk), max_epoch)?;
        if let Err(e) = self.save_manifest() {
            self.poison("history apply", &e);
            return Err(e);
        }
        Ok(())
    }

    /// Last Good Epoch (§5.1): everything at or below this epoch is safely
    /// in ROS containers on disk. Data only in the WOS would be lost on
    /// failure.
    pub fn last_good_epoch(&self, current: Epoch) -> Epoch {
        match self.wos.min_epoch() {
            Some(e) => e.prev(),
            None => current,
        }
    }

    /// Hard-link every file of this projection under `backup/<tag>/`
    /// (§5.2's backup mechanism). Returns the number of files linked.
    pub fn backup(&self, tag: &str) -> DbResult<usize> {
        let files = self.backend.list_files(&format!("{}/", self.def.name));
        for f in &files {
            self.backend.hard_link(f, &format!("backup/{tag}/{f}"))?;
        }
        Ok(files.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use vdb_types::{ColumnDef, DataType, TableSchema};

    fn schema() -> TableSchema {
        TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("amt", DataType::Integer),
            ],
        )
    }

    fn store() -> ProjectionStore {
        let def = ProjectionDef::super_projection(&schema(), "sales_super", &[0], &[0]);
        ProjectionStore::new(def, None, 3, Arc::new(MemBackend::new()))
    }

    fn row(id: i64, amt: i64) -> Row {
        vec![Value::Integer(id), Value::Integer(amt)]
    }

    #[test]
    fn wos_insert_then_moveout() {
        let mut s = store();
        s.insert_wos(vec![row(1, 10), row(2, 20)], Epoch(1))
            .unwrap();
        s.insert_wos(vec![row(3, 30)], Epoch(2)).unwrap();
        assert_eq!(s.wos_row_count(), 3);
        assert_eq!(s.container_count(), 0);
        let created = s.moveout(Epoch(2)).unwrap();
        assert!(!created.is_empty());
        assert_eq!(s.wos_row_count(), 0);
        let mut rows = s.visible_rows(Epoch(2)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row(1, 10), row(2, 20), row(3, 30)]);
    }

    #[test]
    fn snapshot_isolation_across_epochs() {
        let mut s = store();
        s.insert_wos(vec![row(1, 10)], Epoch(1)).unwrap();
        s.moveout(Epoch(1)).unwrap();
        s.insert_wos(vec![row(2, 20)], Epoch(2)).unwrap();
        s.moveout(Epoch(2)).unwrap();
        assert_eq!(s.visible_rows(Epoch(1)).unwrap(), vec![row(1, 10)]);
        assert_eq!(s.visible_rows(Epoch(2)).unwrap().len(), 2);
        assert_eq!(s.visible_rows(Epoch(0)).unwrap().len(), 0);
    }

    #[test]
    fn mixed_epoch_container_visibility() {
        // Moveout bundles epochs 1..3 into one container; per-row epoch
        // column must keep historical snapshots exact.
        let mut s = store();
        s.insert_wos(vec![row(1, 1)], Epoch(1)).unwrap();
        s.insert_wos(vec![row(2, 2)], Epoch(2)).unwrap();
        s.insert_wos(vec![row(3, 3)], Epoch(3)).unwrap();
        s.moveout(Epoch(3)).unwrap();
        assert_eq!(s.visible_rows(Epoch(2)).unwrap().len(), 2);
        assert_eq!(s.visible_rows(Epoch(3)).unwrap().len(), 3);
    }

    #[test]
    fn direct_ros_load() {
        let mut s = store();
        let rows: Vec<Row> = (0..100).map(|i| row(i, i * 2)).collect();
        let created = s.insert_direct_ros(rows.clone(), Epoch(1)).unwrap();
        assert!(!created.is_empty());
        assert_eq!(s.wos_row_count(), 0);
        let mut got = s.visible_rows(Epoch(1)).unwrap();
        got.sort();
        assert_eq!(got, rows);
    }

    /// Unsegmented single-local-segment store: one container per load, rows
    /// in sort order (position semantics are deterministic).
    fn flat_store() -> ProjectionStore {
        let def = ProjectionDef::super_projection(&schema(), "sales_flat", &[0], &[]);
        ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()))
    }

    #[test]
    fn deletes_and_historical_reads() {
        let mut s = flat_store();
        s.insert_direct_ros(vec![row(1, 10), row(2, 20)], Epoch(1))
            .unwrap();
        let id = s.containers().next().unwrap().id;
        // Row order inside the container is sorted by id: position 0 = id 1.
        s.mark_deleted(RowLocation::Ros(id, 0), Epoch(3)).unwrap();
        assert_eq!(s.visible_rows(Epoch(2)).unwrap().len(), 2);
        assert_eq!(s.visible_rows(Epoch(3)).unwrap(), vec![row(2, 20)]);
    }

    /// One statement's marks on one container are one sidecar write, and
    /// leave on disk and after reopen exactly what marking row by row does.
    #[test]
    fn many_marks_on_a_container_are_one_sidecar_write() {
        use crate::backend::{CountingBackend, IoOp};
        let def = ProjectionDef::super_projection(&schema(), "sales_flat", &[0], &[]);
        let rows: Vec<Row> = (0..200).map(|i| row(i, i * 10)).collect();
        let victims: Vec<u64> = (0..200).filter(|p| p % 4 == 1).collect();
        assert_eq!(victims.len(), 50);
        let loaded = |backend: Arc<dyn StorageBackend>| {
            let mut s = ProjectionStore::new(def.clone(), None, 1, backend);
            s.insert_direct_ros(rows.clone(), Epoch(1)).unwrap();
            s.insert_direct_ros(vec![row(1000, 1)], Epoch(2)).unwrap();
            s
        };
        let counting = Arc::new(CountingBackend::default());
        let mut batched = loaded(counting.clone());
        let ids: Vec<ContainerId> = batched.containers().map(|c| c.id).collect();
        let mut locations: Vec<RowLocation> = victims
            .iter()
            .map(|&p| RowLocation::Ros(ids[0], p))
            .collect();
        locations.push(RowLocation::Ros(ids[1], 0));
        counting.reset();
        batched.mark_deleted_many(&locations, Epoch(3)).unwrap();
        let sidecars: Vec<String> = counting
            .calls()
            .into_iter()
            .filter(|c| c.op == IoOp::WriteFile)
            .map(|c| c.path)
            .collect();
        assert_eq!(
            sidecars,
            vec![
                format!("sales_flat/{}/deletes.dv", ids[0]),
                format!("sales_flat/{}/deletes.dv", ids[1])
            ],
            "one write per container, nothing else"
        );

        let plain: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let mut one_by_one = loaded(plain.clone());
        for loc in &locations {
            one_by_one.mark_deleted(*loc, Epoch(3)).unwrap();
        }
        for id in &ids {
            let path = format!("sales_flat/{id}/deletes.dv");
            assert_eq!(
                counting.read_file(&path).unwrap(),
                plain.read_file(&path).unwrap()
            );
        }
        batched.save_manifest().unwrap();
        drop(batched);
        let reopened = ProjectionStore::open(def.clone(), None, 1, counting).unwrap();
        for e in 1..=3 {
            assert_eq!(
                reopened.visible_rows(Epoch(e)).unwrap(),
                one_by_one.visible_rows(Epoch(e)).unwrap(),
                "epoch {e}"
            );
        }
        assert_eq!(reopened.visible_rows(Epoch(3)).unwrap().len(), 150);
    }

    /// A position past the container's end fails the statement before any
    /// sidecar of that container is written or its vector replaced.
    #[test]
    fn a_bad_position_marks_nothing_in_its_container() {
        let mut s = flat_store();
        s.insert_direct_ros(vec![row(1, 10), row(2, 20)], Epoch(1))
            .unwrap();
        let id = s.containers().next().unwrap().id;
        let err = s
            .mark_deleted_many(
                &[RowLocation::Ros(id, 0), RowLocation::Ros(id, 2)],
                Epoch(2),
            )
            .unwrap_err();
        assert!(matches!(err, DbError::Execution(_)), "{err}");
        assert_eq!(s.visible_rows(Epoch(2)).unwrap().len(), 2);
        assert!(s.backend.read_file("sales_flat/ros1/deletes.dv").is_err());
    }

    #[test]
    fn wos_deletes_survive_moveout() {
        let mut s = store();
        s.insert_wos(vec![row(1, 10), row(2, 20)], Epoch(1))
            .unwrap();
        s.mark_deleted(RowLocation::Wos(0), Epoch(2)).unwrap();
        s.moveout(Epoch(2)).unwrap();
        assert_eq!(s.visible_rows(Epoch(1)).unwrap().len(), 2);
        assert_eq!(s.visible_rows(Epoch(2)).unwrap(), vec![row(2, 20)]);
    }

    #[test]
    fn partitioned_containers_per_key() {
        let def = ProjectionDef::super_projection(&schema(), "p", &[0], &[0]);
        let spec = PartitionSpec::new(vdb_types::Expr::binary(
            vdb_types::BinOp::Mod,
            vdb_types::Expr::col(0, "id"),
            vdb_types::Expr::int(2),
        ));
        let mut s = ProjectionStore::new(def, Some(spec), 1, Arc::new(MemBackend::new()));
        s.insert_direct_ros((0..10).map(|i| row(i, i)).collect(), Epoch(1))
            .unwrap();
        // Two partitions (even/odd), one local segment each.
        assert_eq!(s.container_count(), 2);
        let keys: Vec<Option<Value>> = s.containers().map(|c| c.partition_key.clone()).collect();
        assert!(keys.contains(&Some(Value::Integer(0))));
        assert!(keys.contains(&Some(Value::Integer(1))));
    }

    #[test]
    fn drop_partition_is_file_deletion() {
        let def = ProjectionDef::super_projection(&schema(), "p", &[0], &[0]);
        let spec = PartitionSpec::new(vdb_types::Expr::binary(
            vdb_types::BinOp::Mod,
            vdb_types::Expr::col(0, "id"),
            vdb_types::Expr::int(2),
        ));
        let mut s = ProjectionStore::new(def, Some(spec), 1, Arc::new(MemBackend::new()));
        s.insert_direct_ros((0..10).map(|i| row(i, i)).collect(), Epoch(1))
            .unwrap();
        let dropped = s.drop_partition(&Value::Integer(0), Epoch(1)).unwrap();
        assert_eq!(dropped, 1);
        let rows = s.visible_rows(Epoch(1)).unwrap();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r[0].as_i64().unwrap() % 2 == 1));
    }

    #[test]
    fn local_segments_split_direct_loads() {
        let mut s = store(); // 3 local segments, segmented by HASH(id)
        s.insert_direct_ros((0..300).map(|i| row(i, i)).collect(), Epoch(1))
            .unwrap();
        let segs: std::collections::BTreeSet<u32> =
            s.containers().map(|c| c.local_segment).collect();
        assert!(
            segs.len() > 1,
            "hash range should hit several local segments"
        );
        assert_eq!(s.visible_rows(Epoch(1)).unwrap().len(), 300);
    }

    #[test]
    fn truncate_after_restores_consistent_state() {
        let mut s = store();
        s.insert_direct_ros(vec![row(1, 1)], Epoch(1)).unwrap();
        s.insert_direct_ros(vec![row(2, 2)], Epoch(3)).unwrap();
        let id = s.containers().next().unwrap().id;
        s.mark_deleted(RowLocation::Ros(id, 0), Epoch(4)).unwrap();
        s.insert_wos(vec![row(9, 9)], Epoch(5)).unwrap();
        s.truncate_after(Epoch(2)).unwrap();
        // Epoch-3 insert, epoch-4 delete and epoch-5 WOS row all gone.
        assert_eq!(s.visible_rows(Epoch(10)).unwrap(), vec![row(1, 1)]);
        assert_eq!(s.wos_row_count(), 0);
    }

    #[test]
    fn history_between_and_apply() {
        let mut s = store();
        s.insert_direct_ros(vec![row(1, 1)], Epoch(1)).unwrap();
        s.insert_direct_ros(vec![row(2, 2)], Epoch(2)).unwrap();
        s.insert_wos(vec![row(3, 3)], Epoch(3)).unwrap();
        let hist = s.history_between(Epoch(1), Epoch(3)).unwrap();
        assert_eq!(hist.len(), 2, "rows committed in (1,3]");
        let mut other = store();
        other.insert_direct_ros(vec![row(1, 1)], Epoch(1)).unwrap();
        other.apply_history(hist).unwrap();
        let mut rows = other.visible_rows(Epoch(3)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row(1, 1), row(2, 2), row(3, 3)]);
    }

    #[test]
    fn last_good_epoch_tracks_wos() {
        let mut s = store();
        assert_eq!(s.last_good_epoch(Epoch(5)), Epoch(5));
        s.insert_wos(vec![row(1, 1)], Epoch(3)).unwrap();
        assert_eq!(s.last_good_epoch(Epoch(5)), Epoch(2));
        s.moveout(Epoch(5)).unwrap();
        assert_eq!(s.last_good_epoch(Epoch(5)), Epoch(5));
    }

    #[test]
    fn backup_hard_links_files() {
        let mut s = store();
        s.insert_direct_ros(vec![row(1, 1)], Epoch(1)).unwrap();
        let n = s.backup("snap1").unwrap();
        assert!(n > 0);
        let backend = s.backend().clone();
        assert!(!backend.list_files("backup/snap1/").is_empty());
    }

    #[test]
    fn reopen_attaches_durable_state() {
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        let def = ProjectionDef::super_projection(&schema(), "sales_super", &[0], &[0]);
        let mut s = ProjectionStore::new(def.clone(), None, 3, backend.clone());
        s.insert_wos(vec![row(1, 10), row(2, 20)], Epoch(1))
            .unwrap();
        s.moveout(Epoch(1)).unwrap();
        s.insert_wos(vec![row(3, 30)], Epoch(2)).unwrap();
        s.mark_deleted(RowLocation::Wos(0), Epoch(3)).unwrap();
        drop(s);
        let s2 = ProjectionStore::open(def, None, 3, backend).unwrap();
        let mut rows = s2.visible_rows(Epoch(2)).unwrap();
        rows.sort();
        assert_eq!(rows, vec![row(1, 10), row(2, 20), row(3, 30)]);
        assert_eq!(
            s2.visible_rows(Epoch(3)).unwrap().len(),
            2,
            "replayed WOS delete respected"
        );
        assert_eq!(s2.wos_row_count(), 1, "moved-out rows not resurrected");
    }

    #[test]
    fn open_without_manifest_is_fresh() {
        let def = ProjectionDef::super_projection(&schema(), "sales_super", &[0], &[0]);
        let s = ProjectionStore::open(def, None, 3, Arc::new(MemBackend::new())).unwrap();
        assert_eq!(s.container_count(), 0);
        assert_eq!(s.wos_row_count(), 0);
    }

    #[test]
    fn inflight_scan_survives_container_removal() {
        let mut s = flat_store();
        s.insert_direct_ros(vec![row(1, 1), row(2, 2)], Epoch(1))
            .unwrap();
        let id = s.containers().next().unwrap().id;
        let scan = s.scan_snapshot(Epoch(1));
        s.remove_container(id);
        // The in-flight scan pins the files: reads still work.
        let sc = &scan.containers[0];
        assert_eq!(
            sc.container.read_rows(s.backend().as_ref()).unwrap().len(),
            2
        );
        let prefix = format!("sales_flat/{id}/");
        assert!(!s.backend().list_files(&prefix).is_empty());
        // Last pin dropped → files reclaimed.
        drop(scan);
        assert!(s.backend().list_files(&prefix).is_empty());
    }

    #[test]
    fn scan_container_visibility_fast_paths() {
        let mut s = store();
        s.insert_direct_ros(vec![row(1, 1), row(2, 2)], Epoch(1))
            .unwrap();
        let scan = s.scan_snapshot(Epoch(1));
        let sc = &scan.containers[0];
        assert_eq!(sc.visible(s.backend().as_ref()).unwrap(), VisibleSet::All);
        let older = s.scan_snapshot(Epoch(0));
        assert_eq!(
            older.containers[0].visible(s.backend().as_ref()).unwrap(),
            VisibleSet::None
        );
    }

    #[test]
    fn morsels_are_block_ranges_cut_after_pruning() {
        let mut s = flat_store();
        let morsel_rows = (MORSEL_BLOCKS * BLOCK_SIZE) as i64;
        // 2 full morsels + 5 blocks, a second small container, a WOS tail.
        let big = 2 * morsel_rows + 5 * BLOCK_SIZE as i64 - 3;
        s.insert_direct_ros((0..big).map(|i| row(i, i)).collect(), Epoch(1))
            .unwrap();
        s.insert_direct_ros((big..big + 100).map(|i| row(i, i)).collect(), Epoch(1))
            .unwrap();
        s.insert_wos(vec![row(-1, 0), row(-2, 0)], Epoch(1))
            .unwrap();
        assert_eq!(s.morsel_count(), 3 + 1 + 1);
        let snap = s.scan_snapshot(Epoch(1));
        // Nothing pruned: exactly `morsel_count` morsels, in snapshot order,
        // covering every row once.
        let all = snap
            .morsels(|sc| Ok((0..sc.container.block_count()).collect()))
            .unwrap();
        assert_eq!(all.len(), s.morsel_count());
        // (first block, one past the last block, rows); the WOS tail has
        // no blocks.
        let shapes: Vec<(usize, usize, u64)> = all
            .iter()
            .map(|m| match m {
                ScanMorsel::Blocks { runs, .. } => {
                    assert_eq!(runs.len(), 1, "unpruned blocks are one run");
                    (runs[0].start, runs[0].end, m.rows())
                }
                ScanMorsel::Wos(_) => (0, 0, m.rows()),
            })
            .collect();
        assert_eq!(
            shapes,
            vec![
                (0, 16, morsel_rows as u64),
                (16, 32, morsel_rows as u64),
                (32, 37, 5 * BLOCK_SIZE as u64 - 3),
                (0, 1, 100),
                (0, 0, 2),
            ]
        );
        // Pruned: scattered survivors of the first container, none of the
        // second — one morsel, neighbours coalesced into runs.
        let first = snap.containers[0].container.id;
        let pruned = snap
            .morsels(|sc| {
                Ok(if sc.container.id == first {
                    vec![0, 1, 5, 6, 7, 30]
                } else {
                    vec![]
                })
            })
            .unwrap();
        assert_eq!(pruned.len(), 2, "one block morsel + the WOS tail");
        let ScanMorsel::Blocks { runs, rows, .. } = &pruned[0] else {
            panic!("blocks first");
        };
        assert_eq!(runs, &vec![0..2, 5..8, 30..31]);
        assert_eq!(*rows, 6 * BLOCK_SIZE as u64);
    }

    #[test]
    fn snapshots_share_containers_and_delete_vectors() {
        let mut s = flat_store();
        s.insert_direct_ros((0..3000).map(|i| row(i, i)).collect(), Epoch(1))
            .unwrap();
        let (a, b) = (s.scan_snapshot(Epoch(1)), s.scan_snapshot(Epoch(1)));
        assert!(Arc::ptr_eq(
            &a.containers[0].container,
            &b.containers[0].container
        ));
        assert!(Arc::ptr_eq(
            &a.containers[0].deletes,
            &b.containers[0].deletes
        ));
        assert_eq!(a.containers[0].visibility(), Visibility::All);
        // A delete replaces the vector; the snapshots already taken keep
        // the one they saw.
        let id = a.containers[0].container.id;
        s.mark_deleted(RowLocation::Ros(id, 7), Epoch(2)).unwrap();
        let c = s.scan_snapshot(Epoch(2));
        assert!(!Arc::ptr_eq(
            &a.containers[0].deletes,
            &c.containers[0].deletes
        ));
        assert!(a.containers[0].deletes.is_empty());
        assert_eq!(c.containers[0].visibility(), Visibility::PerRow);
        assert_eq!(
            s.scan_snapshot(Epoch(0)).containers[0].visibility(),
            Visibility::None
        );
    }

    /// Visibility of a block range looks at that range only: the delete
    /// marks inside it, and the epoch column just where a block's epochs
    /// straddle the snapshot.
    #[test]
    fn visibility_of_a_block_range_reads_only_straddling_epoch_blocks() {
        use crate::backend::{CountingBackend, IoOp};
        let counting = Arc::new(CountingBackend::default());
        let def = ProjectionDef::super_projection(&schema(), "sales_flat", &[0], &[]);
        let mut s = ProjectionStore::new(def, None, 1, counting.clone());
        // One container of 4 blocks through the WOS: block 0 committed at
        // epoch 1, block 1 mixed 1/3, blocks 2 and 3 at epoch 3.
        let b = BLOCK_SIZE as i64;
        s.insert_wos(
            (0..2 * b)
                .filter(|i| *i < b || i % 2 == 0)
                .map(|i| row(i, i))
                .collect(),
            Epoch(1),
        )
        .unwrap();
        s.insert_wos(
            (b..4 * b)
                .filter(|i| *i >= 2 * b || i % 2 == 1)
                .map(|i| row(i, i))
                .collect(),
            Epoch(3),
        )
        .unwrap();
        s.moveout(Epoch(3)).unwrap();
        let id = s.containers().next().unwrap().id;
        s.mark_deleted(RowLocation::Ros(id, 5), Epoch(2)).unwrap();
        s.mark_deleted(RowLocation::Ros(id, 3 * b as u64 + 1), Epoch(4))
            .unwrap();

        let at = |snapshot: u64| s.scan_snapshot(Epoch(snapshot)).containers.remove(0);
        let backend = counting.as_ref();
        let sc = at(2);
        assert_eq!(sc.visibility(), Visibility::PerRow);
        let epoch_blocks = &sc.container.indexes[sc.epoch_column()].blocks;
        // Block 0: committed, one delete — no I/O.
        counting.reset();
        let VisibleSet::Mask(mask) = sc.visible_in(backend, 0..1).unwrap() else {
            panic!("row 5 is deleted");
        };
        assert_eq!(mask.iter().filter(|v| !**v).count(), 1);
        assert!(!mask[5]);
        assert_eq!(counting.calls(), vec![]);
        // Blocks 2..4: wholly in the future — no I/O either.
        assert_eq!(sc.visible_in(backend, 2..4).unwrap(), VisibleSet::None);
        assert_eq!(counting.calls(), vec![]);
        // Block 1 straddles: exactly its epoch bytes are read.
        let VisibleSet::Mask(mask) = sc.visible_in(backend, 1..3).unwrap() else {
            panic!("half of block 1 is visible");
        };
        assert_eq!(
            mask.len(),
            2 * BLOCK_SIZE,
            "index 0 is the range's first row"
        );
        assert_eq!(mask.iter().filter(|v| **v).count(), BLOCK_SIZE / 2);
        assert!(mask[0] && !mask[1] && !mask[BLOCK_SIZE]);
        assert_eq!(counting.count(IoOp::ReadRange), 1);
        assert_eq!(counting.bytes_read(), u64::from(epoch_blocks[1].byte_len));
        // The whole-container answer is the ranges' answers laid end to end.
        let VisibleSet::Mask(whole) = sc.visible(backend).unwrap() else {
            panic!("mixed");
        };
        assert_eq!(whole.len(), 4 * BLOCK_SIZE);
        assert_eq!(&whole[BLOCK_SIZE..3 * BLOCK_SIZE], &mask[..]);
        assert_eq!(
            whole.iter().filter(|v| **v).count(),
            BLOCK_SIZE - 1 + BLOCK_SIZE / 2
        );
        // Later snapshots: everything committed; the second delete shows at 4.
        counting.reset();
        assert_eq!(at(3).visible_in(backend, 3..4).unwrap(), VisibleSet::All);
        assert!(matches!(
            at(4).visible_in(backend, 3..4).unwrap(),
            VisibleSet::Mask(_)
        ));
        assert_eq!(counting.calls(), vec![]);
        assert!(at(4).visible_in(backend, 3..9).is_err(), "no such blocks");
    }

    fn nullable_row(id: i64) -> Row {
        let amt = if id % 7 == 0 {
            Value::Null
        } else {
            Value::Integer(id % 50)
        };
        vec![Value::Integer(id), amt]
    }

    #[test]
    fn container_stats_agree_with_files_and_survive_reopen() {
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        let def = ProjectionDef::super_projection(&schema(), "sales_flat", &[0], &[]);
        let mut s = ProjectionStore::new(def.clone(), None, 1, backend.clone());
        let rows: Vec<Row> = (0..2500).rev().map(nullable_row).collect();
        s.insert_direct_ros(rows, Epoch(1)).unwrap();
        s.insert_wos(vec![nullable_row(9000)], Epoch(2)).unwrap();
        s.assert_stats_track_containers();
        assert_eq!(s.row_count_estimate(), 2501);
        assert_eq!(s.morsel_count(), 2);
        let (bytes, encodings) = (s.column_bytes(), s.column_encodings());
        assert_eq!(bytes.len(), 2, "the hidden epoch column is not reported");
        assert!(encodings
            .iter()
            .all(|col| col.iter().map(|(_, n)| n).sum::<u64>() == 2500));
        let sample: Vec<Row> = s
            .sample_rows(Epoch(2), 5000)
            .unwrap()
            .into_iter()
            .map(<[Value]>::to_vec)
            .collect();
        let mut want: Vec<Row> = (0..1000).map(nullable_row).collect();
        want.push(nullable_row(9000));
        assert_eq!(sample, want, "leading window in sort order, then the WOS");
        drop(s);
        // Nothing of the summary was persisted; it is rebuilt from the
        // container's own files and says the same.
        let s2 = ProjectionStore::open(def, None, 1, backend).unwrap();
        s2.assert_stats_track_containers();
        assert_eq!(
            (s2.column_bytes(), s2.column_encodings()),
            (bytes, encodings)
        );
        let again: Vec<Row> = s2
            .sample_rows(Epoch(2), 5000)
            .unwrap()
            .into_iter()
            .map(<[Value]>::to_vec)
            .collect();
        assert_eq!(again, want);
    }

    /// `sample_rows` is `visible_rows` cut to the limit as long as every
    /// row of a long container's leading window is visible; an invisible
    /// row there makes that container's share shorter by one instead of
    /// pulling in row 1001.
    #[test]
    fn sample_is_visible_rows_cut_to_leading_windows() {
        let mut s = flat_store();
        s.insert_direct_ros((0..1500).map(|i| row(i, i)).collect(), Epoch(1))
            .unwrap();
        s.insert_direct_ros((2000..2300).map(|i| row(i, i)).collect(), Epoch(2))
            .unwrap();
        s.insert_wos((5000..5005).map(|i| row(i, i)).collect(), Epoch(3))
            .unwrap();
        let sample = |s: &ProjectionStore, snapshot: u64, limit: usize| -> Vec<Row> {
            s.sample_rows(Epoch(snapshot), limit)
                .unwrap()
                .into_iter()
                .map(<[Value]>::to_vec)
                .collect()
        };
        for snapshot in 0..=3 {
            let mut visible = s.visible_rows(Epoch(snapshot)).unwrap();
            visible.truncate(1000);
            assert_eq!(sample(&s, snapshot, 1000), visible, "snapshot {snapshot}");
        }
        // Past the window the walk moves on to the next container.
        let ids: Vec<i64> = sample(&s, 3, 5000)
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        let want: Vec<i64> = (0..1000).chain(2000..2300).chain(5000..5005).collect();
        assert_eq!(ids, want);

        let first = s.containers().next().unwrap().id;
        for pos in [0, 10, 999] {
            s.mark_deleted(RowLocation::Ros(first, pos), Epoch(4))
                .unwrap();
        }
        s.mark_deleted(RowLocation::Ros(first, 1200), Epoch(4))
            .unwrap();
        s.mark_deleted(RowLocation::Wos(0), Epoch(4)).unwrap();
        let ids: Vec<i64> = sample(&s, 4, 1000)
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        let want: Vec<i64> = (0..1000)
            .filter(|i| ![0, 10, 999].contains(i))
            .chain(2000..2003)
            .collect();
        assert_eq!(ids, want, "997 of the window, then the next container");
        assert_eq!(sample(&s, 3, 1000).len(), 1000, "older snapshot unaffected");
        assert_eq!(sample(&s, 4, 5000).len(), 997 + 300 + 4);
    }

    #[test]
    fn stats_never_outlive_their_containers() {
        let def = ProjectionDef::super_projection(&schema(), "p", &[0], &[0]);
        let spec = PartitionSpec::new(vdb_types::Expr::binary(
            vdb_types::BinOp::Mod,
            vdb_types::Expr::col(0, "id"),
            vdb_types::Expr::int(2),
        ));
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        let mut s = ProjectionStore::new(def.clone(), Some(spec.clone()), 2, backend.clone());
        s.insert_direct_ros((0..40).map(|i| row(i, i)).collect(), Epoch(1))
            .unwrap();
        s.insert_wos((40..60).map(|i| row(i, i)).collect(), Epoch(2))
            .unwrap();
        s.assert_stats_track_containers();
        s.moveout(Epoch(2)).unwrap();
        s.assert_stats_track_containers();
        let before = s.container_count();
        assert!(s.drop_partition(&Value::Integer(0), Epoch(2)).unwrap() > 0);
        assert!(s.container_count() < before);
        s.assert_stats_track_containers();
        s.insert_direct_ros((61..80).map(|i| row(i, i)).collect(), Epoch(3))
            .unwrap();
        s.truncate_after(Epoch(2)).unwrap();
        s.assert_stats_track_containers();
        let id = s.containers().next().unwrap().id;
        s.remove_container(id);
        s.assert_stats_track_containers();
        s.save_manifest().unwrap();
        drop(s);
        let s = ProjectionStore::open(def, Some(spec), 2, backend).unwrap();
        s.assert_stats_track_containers();
    }
}
