//! Data movement operators (§6.1 #7).
//!
//! * [`SendOp`] — "Sends tuples from one node to another. Both broadcast
//!   and sending to nodes based on segmentation expression evaluation is
//!   supported." Channels are in-process (the cluster is simulated) with
//!   byte counters so the optimizer's network-cost model can be validated;
//!   the cluster drains the receiving ends.
//! * [`UnionOp`] — StorageUnion: drains child pipelines in order.
//!
//! Intra-node parallelism (Figure 3's ParallelUnion) is the morsel pool's
//! job: see [`crate::parallel`].

use crate::batch::{Batch, ColumnSlice};
use crate::operator::{BoxedOperator, Operator};
use crossbeam::channel::{Sender, TrySendError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use vdb_types::{DbError, DbResult};

/// How a Send routes rows.
#[derive(Debug, Clone)]
pub enum Routing {
    /// Every destination receives every row.
    Broadcast,
    /// Row goes to `hash(key columns) % destinations` (local resegment) —
    /// alike values co-locate.
    HashColumns(Vec<usize>),
    /// Ring segmentation (§3.6): destination owns a contiguous range of the
    /// unsigned 64-bit expression value. `dests` ranges are equal slices.
    Ring(vdb_types::Expr),
}

/// Shared byte counter for network accounting.
pub type ByteCounter = Arc<AtomicU64>;

/// Cooperative abort signal for an exchange. The cluster sets it when a
/// downstream node is declared dead; routers observe it instead of blocking
/// forever on a channel the dead node's consumer will never drain, so
/// exchange workers drain and join cleanly and the query can be retried
/// against buddy replicas.
pub type ShutdownFlag = Arc<AtomicBool>;

/// Pulls from a child and pushes batches to N channels by routing rule
/// (a sink: [`SendOp::run`] drives it to completion).
pub struct SendOp {
    input: BoxedOperator,
    routing: Routing,
    senders: Vec<Sender<Batch>>,
    bytes_sent: ByteCounter,
    shutdown: Option<ShutdownFlag>,
}

impl SendOp {
    pub fn new(
        input: BoxedOperator,
        routing: Routing,
        senders: Vec<Sender<Batch>>,
        bytes_sent: ByteCounter,
    ) -> SendOp {
        SendOp {
            input,
            routing,
            senders,
            bytes_sent,
            shutdown: None,
        }
    }

    /// Attach a shutdown flag: once set, the router stops pulling input and
    /// every in-flight send aborts with a retryable [`DbError::Unavailable`]
    /// instead of blocking on a full channel whose consumer died.
    pub fn with_shutdown(mut self, flag: ShutdownFlag) -> SendOp {
        self.shutdown = Some(flag);
        self
    }

    fn shutting_down(&self) -> bool {
        self.shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// Deliver one batch to one lane. Without a shutdown flag this is the
    /// plain blocking send; with one, the send polls so a declared-dead
    /// downstream can't wedge the router on a full channel.
    fn deliver(&self, lane: usize, piece: Batch) -> DbResult<()> {
        let Some(flag) = &self.shutdown else {
            return self.senders[lane].send(piece).map_err(closed);
        };
        let mut msg = piece;
        loop {
            if flag.load(Ordering::Acquire) {
                return Err(aborted());
            }
            match self.senders[lane].try_send(msg) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => {
                    return Err(closed(crossbeam::channel::SendError(())))
                }
                Err(TrySendError::Full(m)) => {
                    msg = m;
                    std::thread::sleep(std::time::Duration::from_micros(100));
                }
            }
        }
    }

    /// Run the send loop to completion (blocking). Channels close when the
    /// senders drop. Typically spawned on a router thread — keep the
    /// `JoinHandle<DbResult<()>>` and join it so a routing failure surfaces
    /// as an error instead of a silently truncated stream.
    ///
    /// Routing is columnar: the per-row lane is computed from column
    /// accessors (typed key columns hash natively via
    /// [`crate::vector::TypedVector::hash64_at`]; the ring expression
    /// evaluates through the vectorized engine) and each lane receives a
    /// column-sliced sub-batch — no row is pivoted in the router.
    pub fn run(mut self) -> DbResult<()> {
        let n = self.senders.len();
        while let Some(batch) = self.input.next_batch()? {
            if self.shutting_down() {
                return Err(aborted());
            }
            if batch.is_empty() {
                continue;
            }
            match &self.routing {
                Routing::Broadcast => {
                    self.bytes_sent
                        .fetch_add((batch.approx_bytes() * n) as u64, Ordering::Relaxed);
                    for lane in 0..n {
                        self.deliver(lane, batch.clone())?;
                    }
                }
                Routing::HashColumns(cols) => {
                    let lanes: Vec<usize> = (0..batch.len())
                        .map(|li| {
                            let pi = batch.physical_index(li);
                            let mut h = 0u64;
                            for &c in cols {
                                let hv = match &batch.columns[c] {
                                    ColumnSlice::Typed(tv) => tv.hash64_at(pi),
                                    other => other.value_at(pi).hash64(),
                                };
                                h = h.rotate_left(21) ^ hv;
                            }
                            (h % n as u64) as usize
                        })
                        .collect();
                    self.send_lanes(&batch, &lanes)?;
                }
                Routing::Ring(expr) => {
                    let ring_col = crate::expr_vec::eval_expr_column(&batch, expr)?;
                    let mut lanes = Vec::with_capacity(batch.len());
                    for i in 0..ring_col.len() {
                        let ring = ring_col.value_at(i).as_i64().ok_or_else(|| {
                            DbError::Execution("ring expression must be integral".into())
                        })? as u64;
                        lanes.push(((ring as u128 * n as u128) >> 64) as usize);
                    }
                    self.send_lanes(&batch, &lanes)?;
                }
            }
        }
        Ok(())
    }

    /// Send each lane its slice of the batch (`lanes` is aligned with the
    /// batch's logical rows). One pass buckets physical row positions per
    /// lane (O(rows + lanes)); slices are materialized with their column
    /// representations preserved — RLE runs shorten, typed buffers gather.
    fn send_lanes(&self, batch: &Batch, lanes: &[usize]) -> DbResult<()> {
        let mut per_lane: Vec<Vec<u32>> = vec![Vec::new(); self.senders.len()];
        for (li, &lane) in lanes.iter().enumerate() {
            per_lane[lane].push(batch.physical_index(li) as u32);
        }
        for (lane, idx) in per_lane.into_iter().enumerate() {
            if idx.is_empty() {
                continue;
            }
            let piece = batch.materialized(&crate::vector::SelectionVector::new(idx));
            self.bytes_sent
                .fetch_add(piece.approx_bytes() as u64, Ordering::Relaxed);
            self.deliver(lane, piece)?;
        }
        Ok(())
    }
}

fn closed<T>(_: crossbeam::channel::SendError<T>) -> DbError {
    DbError::Execution("receiver hung up (node ejected?)".into())
}

fn aborted() -> DbError {
    DbError::Unavailable("exchange shut down: downstream node declared dead".into())
}

/// Plain serial union (StorageUnion without threads): drains children in
/// order. Used where determinism matters more than parallelism.
pub struct UnionOp {
    children: Vec<BoxedOperator>,
    current: usize,
}

impl UnionOp {
    pub fn new(children: Vec<BoxedOperator>) -> UnionOp {
        UnionOp {
            children,
            current: 0,
        }
    }
}

impl Operator for UnionOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        while self.current < self.children.len() {
            match self.children[self.current].next_batch()? {
                Some(b) => return Ok(Some(b)),
                None => self.current += 1,
            }
        }
        Ok(None)
    }

    fn name(&self) -> String {
        format!("StorageUnion({} inputs)", self.children.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use crossbeam::channel::{bounded, Receiver};
    use vdb_types::{Row, Value};

    /// Every row a lane received, until its sender hung up.
    fn drain(rx: Receiver<Batch>) -> Vec<Row> {
        rx.iter().flat_map(|b| b.rows()).collect()
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Integer(i % 17), Value::Integer(i)])
            .collect()
    }

    #[test]
    fn send_recv_hash_routing_partitions_keys() {
        let (tx1, rx1) = bounded(64);
        let (tx2, rx2) = bounded(64);
        let bytes = Arc::new(AtomicU64::new(0));
        let send = SendOp::new(
            Box::new(ValuesOp::from_rows(rows(1000))),
            Routing::HashColumns(vec![0]),
            vec![tx1, tx2],
            bytes.clone(),
        );
        let router = std::thread::spawn(move || send.run());
        let a = drain(rx1);
        let b = drain(rx2);
        assert!(router.join().expect("no panic").is_ok());
        assert_eq!(a.len() + b.len(), 1000);
        assert!(bytes.load(Ordering::Relaxed) > 0, "bytes accounted");
        // No key appears in both lanes.
        let keys_a: std::collections::HashSet<i64> =
            a.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let keys_b: std::collections::HashSet<i64> =
            b.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert!(keys_a.is_disjoint(&keys_b));
    }

    #[test]
    fn broadcast_duplicates_to_all() {
        let (tx1, rx1) = bounded(64);
        let (tx2, rx2) = bounded(64);
        let send = SendOp::new(
            Box::new(ValuesOp::from_rows(rows(100))),
            Routing::Broadcast,
            vec![tx1, tx2],
            Arc::new(AtomicU64::new(0)),
        );
        let router = std::thread::spawn(move || send.run());
        assert_eq!(drain(rx1).len(), 100);
        assert_eq!(drain(rx2).len(), 100);
        assert!(router.join().expect("no panic").is_ok());
    }

    #[test]
    fn ring_routing_uses_contiguous_ranges() {
        // Ring on column 1 values scaled to the top of the u64 range.
        let data: Vec<Row> = vec![
            vec![Value::Integer(0)],        // ring position 0 → lane 0
            vec![Value::Integer(i64::MIN)], // as u64 = 2^63 → lane 1
            vec![Value::Integer(-1)],       // as u64 = MAX → lane 1
        ];
        let (tx1, rx1) = bounded(8);
        let (tx2, rx2) = bounded(8);
        let send = SendOp::new(
            Box::new(ValuesOp::from_rows(data)),
            Routing::Ring(vdb_types::Expr::col(0, "k")),
            vec![tx1, tx2],
            Arc::new(AtomicU64::new(0)),
        );
        let router = std::thread::spawn(move || send.run());
        let a = drain(rx1);
        let b = drain(rx2);
        assert!(router.join().expect("no panic").is_ok());
        assert_eq!(a.len(), 1, "low half: only 0");
        assert_eq!(b.len(), 2, "high half: 2^63 and MAX");
    }

    #[test]
    fn shutdown_flag_unblocks_router_stuck_on_full_channel() {
        // A one-slot channel whose consumer never drains: the dead-node
        // scenario. Without the flag the router would block in send()
        // forever; with it, the router drains and joins with a retryable
        // Unavailable error.
        let (tx, rx) = bounded(1);
        let flag: ShutdownFlag = Arc::new(AtomicBool::new(false));
        let send = SendOp::new(
            Box::new(ValuesOp::from_rows(rows(5000))),
            Routing::Broadcast,
            vec![tx],
            Arc::new(AtomicU64::new(0)),
        )
        .with_shutdown(flag.clone());
        let router = std::thread::spawn(move || send.run());
        // Let the router wedge on the full channel, then declare the
        // downstream dead.
        std::thread::sleep(std::time::Duration::from_millis(20));
        flag.store(true, Ordering::Release);
        let got = router.join().expect("router joins instead of hanging");
        match got {
            Err(e @ DbError::Unavailable(_)) => {
                assert!(e.is_retryable(), "exchange abort must be retryable: {e}")
            }
            other => panic!("expected Unavailable from aborted exchange, got {other:?}"),
        }
        drop(rx);
    }

    #[test]
    fn shutdown_flag_clear_leaves_routing_intact() {
        let (tx1, rx1) = bounded(64);
        let (tx2, rx2) = bounded(64);
        let send = SendOp::new(
            Box::new(ValuesOp::from_rows(rows(1000))),
            Routing::HashColumns(vec![0]),
            vec![tx1, tx2],
            Arc::new(AtomicU64::new(0)),
        )
        .with_shutdown(Arc::new(AtomicBool::new(false)));
        let router = std::thread::spawn(move || send.run());
        let a = drain(rx1);
        let b = drain(rx2);
        assert!(router.join().expect("no panic").is_ok());
        assert_eq!(a.len() + b.len(), 1000);
    }

    #[test]
    fn failed_router_surfaces_as_error_not_truncation() {
        // Ring routing over a varchar column fails inside the router
        // thread. Joining the router reports it, so a consumer that joins
        // its routers (as the cluster exchange does) never takes the short
        // stream for a complete one.
        let rows: Vec<Row> = (0..100)
            .map(|i| vec![Value::Varchar(format!("v{i}"))])
            .collect();
        let (tx, rx) = bounded(4);
        let send = SendOp::new(
            Box::new(ValuesOp::from_rows(rows)),
            Routing::Ring(vdb_types::Expr::col(0, "k")),
            vec![tx],
            Arc::new(AtomicU64::new(0)),
        );
        let router = std::thread::spawn(move || send.run());
        assert!(drain(rx).is_empty(), "nothing routed before the failure");
        let err = router.join().expect("no panic").unwrap_err();
        assert!(err.to_string().contains("integral"), "{err}");
    }

    #[test]
    fn serial_union_preserves_child_order() {
        let mut op = UnionOp::new(vec![
            Box::new(ValuesOp::from_rows(vec![vec![Value::Integer(1)]])),
            Box::new(ValuesOp::from_rows(vec![vec![Value::Integer(2)]])),
        ]);
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got, vec![vec![Value::Integer(1)], vec![Value::Integer(2)]]);
    }
}
