//! Quick-scale reproduction checks of the evaluation tables, run as unit
//! tests of the workload generators: each builds the table's inputs at a
//! size a debug build handles in seconds and asserts the shape the paper
//! reports. The full-size checks live in the `paper_claims` suite.

#[cfg(test)]
mod tests {
    use crate::workloads::{cstore7, meter, random_ints};
    use vdb_encoding::{ColumnWriter, EncodingType};
    use vdb_types::Value;

    /// Column footprint under the Database Designer's empirical encoding
    /// choice: try every encoding, keep the smallest (§6.3).
    fn vertica_column_bytes(values: &[Value]) -> usize {
        let mut best = usize::MAX;
        for enc in EncodingType::CONCRETE
            .iter()
            .copied()
            .chain([EncodingType::Auto])
        {
            let mut w = ColumnWriter::new(enc);
            w.extend(values.iter().cloned());
            let (data, index) = w.finish();
            best = best.min(data.len() + index.encode().len());
        }
        best
    }

    /// Table 3 at 20k lineitem rows: both engines give the same answer to
    /// each of the seven queries, and C-Store needs more disk.
    #[test]
    fn table3_small_scale_shape_holds() {
        let (li, ord) = cstore7::generate(20_000, 7);
        let vertica = cstore7::setup_vertica(&li, &ord).unwrap();
        let cstore = cstore7::setup_cstore(li, ord).unwrap();
        let c = cstore7::constants();
        for q in 1..=7 {
            let mut vr = vertica.query(&cstore7::vertica_sql(q, &c)).unwrap();
            let mut cr = cstore7::run_cstore(&cstore, q, &c).unwrap();
            vr.sort();
            cr.sort();
            assert_eq!(vr, cr, "Q{q} results diverged");
        }
        // Paper: 1987MB vs 949MB ≈ 2.1x.
        let ratio = cstore.disk_bytes() as f64 / vertica.disk_bytes().max(1) as f64;
        assert!(ratio > 1.2, "C-Store should need >1.2x disk, got {ratio}");
    }

    /// Table 4 at 50k integers and 50k meter records: type-aware encoding
    /// beats the byte compressor on both datasets.
    #[test]
    fn table4_small_scale_shape_holds() {
        let mut ints = random_ints::generate(50_000, 42);
        let gz = vdb_compress::compress(random_ints::as_text(&ints).as_bytes()).len();
        ints.sort_unstable();
        let col: Vec<Value> = ints.iter().map(|&v| Value::Integer(v)).collect();
        let vertica = vertica_column_bytes(&col);
        assert!(
            vertica < gz,
            "random integers: Vertica ({vertica}) must beat gzip-class ({gz})"
        );

        let rows = meter::generate(50_000, &meter::scaled_config(50_000));
        let gz = vdb_compress::compress(meter::as_csv(&rows).as_bytes()).len();
        let vertica: usize = (0..4)
            .map(|c| {
                let col: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
                vertica_column_bytes(&col)
            })
            .sum();
        assert!(
            vertica < gz,
            "meter data: Vertica ({vertica}) must beat gzip-class ({gz})"
        );
    }
}
