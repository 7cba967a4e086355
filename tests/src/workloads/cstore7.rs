//! Table 3 workload: the C-Store paper's simplified-TPC-H test harness.
//!
//! The 2005 C-Store paper (§9) evaluated on a simplified TPC-H schema —
//! `lineitem` and `orders` with a reduced column set — with seven queries
//! mixing single-table aggregations over `l_shipdate`/`l_suppkey` and
//! fact-fact joins grouped by order date and return flag. The exact
//! constants are scale-dependent; we reconstruct the query *shapes* from
//! the paper's description (documented per query below) and pick constants
//! with comparable selectivities.
//!
//! Both engines run equivalent physical work: Vertica through SQL against
//! its projections, C-Store through the tuple-at-a-time iterators of
//! [`crate::cstore`].

use crate::cstore::{collect, CStoreDb, CStoreGroupBy, CStoreHashJoin};
use rand::{Rng, SeedableRng};
use vdb_core::Engine;
use vdb_exec::aggregate::{AggCall, AggFunc};
use vdb_types::{BinOp, ColumnDef, DataType, DbResult, Expr, Row, TableSchema, Value};

pub const DAY: i64 = 86_400;
/// Dates span 1992-01-01 .. ~1998 in day-granular timestamps.
pub const BASE_DATE: i64 = 694_224_000;
pub const N_DAYS: i64 = 2_400;
pub const N_SUPPLIERS: i64 = 100;

/// lineitem(l_orderkey, l_suppkey, l_shipdate, l_extendedprice,
///          l_returnflag)
pub fn lineitem_schema() -> TableSchema {
    TableSchema::new(
        "lineitem",
        vec![
            ColumnDef::new("l_orderkey", DataType::Integer),
            ColumnDef::new("l_suppkey", DataType::Integer),
            ColumnDef::new("l_shipdate", DataType::Timestamp),
            ColumnDef::new("l_extendedprice", DataType::Float),
            ColumnDef::new("l_returnflag", DataType::Varchar),
        ],
    )
}

/// orders(o_orderkey, o_orderdate)
pub fn orders_schema() -> TableSchema {
    TableSchema::new(
        "orders",
        vec![
            ColumnDef::new("o_orderkey", DataType::Integer),
            ColumnDef::new("o_orderdate", DataType::Timestamp),
        ],
    )
}

/// Generate (lineitem, orders): ~4 lineitems per order.
pub fn generate(lineitem_rows: usize, seed: u64) -> (Vec<Row>, Vec<Row>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_orders = (lineitem_rows / 4).max(1);
    let flags = ["A", "N", "R"];
    let mut orders = Vec::with_capacity(n_orders);
    let mut order_dates = Vec::with_capacity(n_orders);
    for ok in 0..n_orders as i64 {
        let date = BASE_DATE + rng.gen_range(0..N_DAYS) * DAY;
        order_dates.push(date);
        orders.push(vec![Value::Integer(ok), Value::Timestamp(date)]);
    }
    let mut lineitems = Vec::with_capacity(lineitem_rows);
    for _ in 0..lineitem_rows {
        let ok = rng.gen_range(0..n_orders as i64);
        // Ship within ~0..60 days of the order date.
        let ship = order_dates[ok as usize] + rng.gen_range(1..60i64) * DAY;
        lineitems.push(vec![
            Value::Integer(ok),
            Value::Integer(rng.gen_range(0..N_SUPPLIERS)),
            Value::Timestamp(ship),
            Value::Float((rng.gen_range(100..100_000) as f64) / 100.0),
            Value::Varchar(flags[rng.gen_range(0..3usize)].to_string()),
        ]);
    }
    (lineitems, orders)
}

/// Reference dates with paper-comparable selectivities.
pub struct QueryConstants {
    /// Q1: shipdate > d1 (selective tail, ~2% of days).
    pub d1: i64,
    /// Q2: shipdate = d2 (one day).
    pub d2: i64,
    /// Q3: shipdate > d3 (~25%).
    pub d3: i64,
    /// Q4: orderdate > d4 (~10%).
    pub d4: i64,
    /// Q5: orderdate = d5 (one day).
    pub d5: i64,
    /// Q6: shipdate > d6 (~25%).
    pub d6: i64,
    /// Q7: orderdate > d7 (~50%).
    pub d7: i64,
}

pub fn constants() -> QueryConstants {
    QueryConstants {
        d1: BASE_DATE + (N_DAYS - 50) * DAY,
        d2: BASE_DATE + 1000 * DAY,
        d3: BASE_DATE + (N_DAYS * 3 / 4) * DAY,
        d4: BASE_DATE + (N_DAYS * 9 / 10) * DAY,
        d5: BASE_DATE + 1000 * DAY,
        d6: BASE_DATE + (N_DAYS * 3 / 4) * DAY,
        d7: BASE_DATE + (N_DAYS / 2) * DAY,
    }
}

/// Install schema + projections and bulk load the Vertica-side database.
///
/// One executor thread, like the experiment (a single-core Pentium 4
/// against the single-threaded C-Store prototype) — and so that the two
/// engines' answers can be compared exactly: a serial plan adds a float
/// SUM's terms in row order, as the baseline does, while a parallel one
/// adds per-worker partials, whose last bits depend on which worker took
/// which morsel.
pub fn setup_vertica(lineitems: &[Row], orders: &[Row]) -> DbResult<Engine> {
    let db = Engine::builder().threads(1).open()?;
    db.execute(
        "CREATE TABLE lineitem (l_orderkey INT, l_suppkey INT, l_shipdate TIMESTAMP, \
         l_extendedprice FLOAT, l_returnflag VARCHAR)",
    )?;
    db.execute(
        "CREATE PROJECTION lineitem_super AS \
         SELECT l_orderkey, l_suppkey, l_shipdate, l_extendedprice, l_returnflag \
         FROM lineitem ORDER BY l_shipdate, l_suppkey \
         SEGMENTED BY HASH(l_orderkey) ALL NODES",
    )?;
    db.execute("CREATE TABLE orders (o_orderkey INT, o_orderdate TIMESTAMP)")?;
    db.execute(
        "CREATE PROJECTION orders_super AS SELECT o_orderkey, o_orderdate FROM orders \
         ORDER BY o_orderdate UNSEGMENTED ALL NODES",
    )?;
    db.load("lineitem", lineitems)?;
    db.load("orders", orders)?;
    Ok(db)
}

/// Load the C-Store-side database (same logical sort orders).
pub fn setup_cstore(lineitems: Vec<Row>, orders: Vec<Row>) -> DbResult<CStoreDb> {
    let mut db = CStoreDb::new();
    db.load_table(lineitem_schema(), lineitems, &[2, 1])?;
    db.load_table(orders_schema(), orders, &[1])?;
    Ok(db)
}

/// The seven queries as SQL (Vertica side).
pub fn vertica_sql(q: usize, c: &QueryConstants) -> String {
    match q {
        // Q1: ship-date histogram over a recent window.
        1 => format!(
            "SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > {} \
             GROUP BY l_shipdate",
            c.d1
        ),
        // Q2: supplier activity on one day.
        2 => format!(
            "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = {} \
             GROUP BY l_suppkey",
            c.d2
        ),
        // Q3: supplier activity since a date.
        3 => format!(
            "SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > {} \
             GROUP BY l_suppkey",
            c.d3
        ),
        // Q4: order-date histogram over the recent tail.
        4 => format!(
            "SELECT o_orderdate, COUNT(*) FROM orders WHERE o_orderdate > {} \
             GROUP BY o_orderdate",
            c.d4
        ),
        // Q5: per-supplier lineitems for orders placed on one day (join).
        5 => format!(
            "SELECT l_suppkey, COUNT(*) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND o_orderdate = {} GROUP BY l_suppkey",
            c.d5
        ),
        // Q6: order-date histogram of recently shipped lineitems (join).
        6 => format!(
            "SELECT o_orderdate, COUNT(*) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND l_shipdate > {} GROUP BY o_orderdate",
            c.d6
        ),
        // Q7: revenue by return flag for the newer half of orders (join).
        7 => format!(
            "SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem, orders \
             WHERE l_orderkey = o_orderkey AND o_orderdate > {} GROUP BY l_returnflag",
            c.d7
        ),
        _ => panic!("queries are 1..=7"),
    }
}

/// The seven queries as C-Store iterator pipelines.
pub fn run_cstore(db: &CStoreDb, q: usize, c: &QueryConstants) -> DbResult<Vec<Row>> {
    let count = |input: usize| AggCall::new(AggFunc::CountStar, input, "cnt");
    match q {
        1 => {
            let scan = db.scan(
                "lineitem",
                &[2],
                Some(Expr::binary(
                    BinOp::Gt,
                    Expr::col(0, "l_shipdate"),
                    Expr::lit(Value::Timestamp(c.d1)),
                )),
            )?;
            collect(CStoreGroupBy::new(scan, vec![0], vec![count(0)])?)
        }
        2 => {
            let scan = db.scan(
                "lineitem",
                &[1, 2],
                Some(Expr::eq(
                    Expr::col(1, "l_shipdate"),
                    Expr::lit(Value::Timestamp(c.d2)),
                )),
            )?;
            collect(CStoreGroupBy::new(scan, vec![0], vec![count(0)])?)
        }
        3 => {
            let scan = db.scan(
                "lineitem",
                &[1, 2],
                Some(Expr::binary(
                    BinOp::Gt,
                    Expr::col(1, "l_shipdate"),
                    Expr::lit(Value::Timestamp(c.d3)),
                )),
            )?;
            collect(CStoreGroupBy::new(scan, vec![0], vec![count(0)])?)
        }
        4 => {
            let scan = db.scan(
                "orders",
                &[1],
                Some(Expr::binary(
                    BinOp::Gt,
                    Expr::col(0, "o_orderdate"),
                    Expr::lit(Value::Timestamp(c.d4)),
                )),
            )?;
            collect(CStoreGroupBy::new(scan, vec![0], vec![count(0)])?)
        }
        5 => {
            let left = db.scan("lineitem", &[0, 1], None)?;
            let right = db.scan(
                "orders",
                &[0, 1],
                Some(Expr::eq(
                    Expr::col(1, "o_orderdate"),
                    Expr::lit(Value::Timestamp(c.d5)),
                )),
            )?;
            let join = CStoreHashJoin::new(left, right, 0, 0)?;
            collect(CStoreGroupBy::new(join, vec![1], vec![count(1)])?)
        }
        6 => {
            let left = db.scan(
                "lineitem",
                &[0, 2],
                Some(Expr::binary(
                    BinOp::Gt,
                    Expr::col(1, "l_shipdate"),
                    Expr::lit(Value::Timestamp(c.d6)),
                )),
            )?;
            let right = db.scan("orders", &[0, 1], None)?;
            let join = CStoreHashJoin::new(left, right, 0, 0)?;
            // join layout: l_orderkey, l_shipdate, o_orderkey, o_orderdate.
            collect(CStoreGroupBy::new(join, vec![3], vec![count(3)])?)
        }
        7 => {
            let left = db.scan("lineitem", &[0, 3, 4], None)?;
            let right = db.scan(
                "orders",
                &[0, 1],
                Some(Expr::binary(
                    BinOp::Gt,
                    Expr::col(1, "o_orderdate"),
                    Expr::lit(Value::Timestamp(c.d7)),
                )),
            )?;
            let join = CStoreHashJoin::new(left, right, 0, 0)?;
            // layout: l_orderkey, l_extendedprice, l_returnflag, o_*, o_*.
            collect(CStoreGroupBy::new(
                join,
                vec![2],
                vec![AggCall::new(AggFunc::Sum, 1, "rev")],
            )?)
        }
        _ => panic!("queries are 1..=7"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both engines must agree on every query — the baseline is a
    /// correctness oracle as well as a performance comparator.
    #[test]
    fn engines_agree_on_all_seven_queries() {
        let (li, ord) = generate(4_000, 7);
        let vertica = setup_vertica(&li, &ord).unwrap();
        let cstore = setup_cstore(li, ord).unwrap();
        let c = constants();
        for q in 1..=7 {
            let mut v = vertica.query(&vertica_sql(q, &c)).unwrap();
            let mut s = run_cstore(&cstore, q, &c).unwrap();
            v.sort();
            s.sort();
            assert_eq!(v, s, "query Q{q} diverged");
            if q != 2 && q != 5 {
                assert!(!v.is_empty(), "Q{q} returned nothing");
            }
        }
    }

    #[test]
    fn generator_shape() {
        let (li, ord) = generate(1000, 1);
        assert_eq!(li.len(), 1000);
        assert_eq!(ord.len(), 250);
        // Every lineitem points at a real order.
        let max_ok = ord.len() as i64;
        assert!(li.iter().all(|r| r[0].as_i64().unwrap() < max_ok));
    }
}
