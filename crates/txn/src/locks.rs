//! The 7-mode table lock model (Tables 1 and 2 of the paper).
//!
//! * **S** (Shared) — prevents concurrent modification; SERIALIZABLE reads.
//! * **I** (Insert) — required to insert; compatible with itself so
//!   parallel loads coexist.
//! * **SI** (SharedInsert) — read + insert, but not update/delete.
//! * **X** (Exclusive) — deletes and updates.
//! * **T** (Tuple mover) — short tuple-mover operations on delete vectors;
//!   compatible with everything except X and O.
//! * **U** (Usage) — parts of moveout/mergeout; compatible with everything
//!   except O.
//! * **O** (Owner) — significant DDL; compatible with nothing.

use parking_lot::Mutex;
use std::collections::HashMap;
use vdb_types::{DbError, DbResult, TxnId};

/// Table lock modes, in the matrix order of the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockMode {
    S,
    I,
    SI,
    X,
    T,
    U,
    O,
}

pub use LockMode::*;

/// All modes in matrix order.
pub const ALL_MODES: [LockMode; 7] = [S, I, SI, X, T, U, O];

impl LockMode {
    pub fn name(self) -> &'static str {
        match self {
            S => "S",
            I => "I",
            SI => "SI",
            X => "X",
            T => "T",
            U => "U",
            O => "O",
        }
    }

    /// Table 1: may a `self` request be granted while `granted` is held by
    /// another transaction?
    pub fn compatible_with(self, granted: LockMode) -> bool {
        // Rows: requested mode; columns: granted mode.
        const YES: bool = true;
        const NO: bool = false;
        const TABLE1: [[bool; 7]; 7] = [
            // granted:  S    I    SI   X    T    U    O
            /* S  */
            [YES, NO, NO, NO, YES, YES, NO],
            /* I  */ [NO, YES, NO, NO, YES, YES, NO],
            /* SI */ [NO, NO, NO, NO, YES, YES, NO],
            /* X  */ [NO, NO, NO, NO, NO, YES, NO],
            /* T  */ [YES, YES, YES, NO, YES, YES, NO],
            /* U  */ [YES, YES, YES, YES, YES, YES, NO],
            /* O  */ [NO, NO, NO, NO, NO, NO, NO],
        ];
        TABLE1[self.index()][granted.index()]
    }

    /// Table 2: the mode held after a transaction already holding
    /// `granted` requests `self`.
    pub fn convert_from(self, granted: LockMode) -> LockMode {
        const TABLE2: [[LockMode; 7]; 7] = [
            // granted:  S   I   SI  X  T   U   O
            /* S  */
            [S, SI, SI, X, S, S, O],
            /* I  */ [SI, I, SI, X, I, I, O],
            /* SI */ [SI, SI, SI, X, SI, SI, O],
            /* X  */ [X, X, X, X, X, X, O],
            /* T  */ [S, I, SI, X, T, T, O],
            /* U  */ [S, I, SI, X, T, U, O],
            /* O  */ [O, O, O, O, O, O, O],
        ];
        TABLE2[self.index()][granted.index()]
    }

    fn index(self) -> usize {
        match self {
            S => 0,
            I => 1,
            SI => 2,
            X => 3,
            T => 4,
            U => 5,
            O => 6,
        }
    }
}

impl std::fmt::Display for LockMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Per-table lock state: which transactions hold which modes.
#[derive(Debug, Default)]
struct TableLocks {
    holders: HashMap<TxnId, LockMode>,
}

/// Try-lock table lock manager. Conflicts return
/// [`DbError::LockConflict`] immediately (analytic workloads prefer fast
/// failure + retry over blocking queues; queries never take locks at all).
#[derive(Debug, Default)]
pub struct LockManager {
    tables: Mutex<HashMap<String, TableLocks>>,
}

impl LockManager {
    pub fn new() -> LockManager {
        LockManager::default()
    }

    /// Acquire (or upgrade via Table 2) `mode` on `table` for `txn`.
    pub fn acquire(&self, txn: TxnId, table: &str, mode: LockMode) -> DbResult<LockMode> {
        let mut tables = self.tables.lock();
        let entry = tables.entry(table.to_string()).or_default();
        let effective = match entry.holders.get(&txn) {
            Some(&held) => mode.convert_from(held),
            None => mode,
        };
        for (&other, &held) in &entry.holders {
            if other == txn {
                continue;
            }
            if !effective.compatible_with(held) {
                return Err(DbError::LockConflict {
                    table: table.to_string(),
                    requested: effective.name().to_string(),
                    held: held.name().to_string(),
                });
            }
        }
        entry.holders.insert(txn, effective);
        Ok(effective)
    }

    /// Mode `txn` currently holds on `table`.
    pub fn held(&self, txn: TxnId, table: &str) -> Option<LockMode> {
        self.tables
            .lock()
            .get(table)
            .and_then(|t| t.holders.get(&txn).copied())
    }

    /// Release every lock held by `txn` (commit/rollback).
    pub fn release_all(&self, txn: TxnId) {
        let mut tables = self.tables.lock();
        tables.retain(|_, t| {
            t.holders.remove(&txn);
            !t.holders.is_empty()
        });
    }

    /// Release `txn`'s lock on one table (tuple mover's short T/U locks).
    pub fn release(&self, txn: TxnId, table: &str) {
        let mut tables = self.tables.lock();
        if let Some(t) = tables.get_mut(table) {
            t.holders.remove(&txn);
            if t.holders.is_empty() {
                tables.remove(table);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1 exactly as printed in the paper.
    #[test]
    fn compatibility_matrix_matches_table1() {
        let expected: [[bool; 7]; 7] = [
            [true, false, false, false, true, true, false],
            [false, true, false, false, true, true, false],
            [false, false, false, false, true, true, false],
            [false, false, false, false, false, true, false],
            [true, true, true, false, true, true, false],
            [true, true, true, true, true, true, false],
            [false, false, false, false, false, false, false],
        ];
        for (i, req) in ALL_MODES.iter().enumerate() {
            for (j, granted) in ALL_MODES.iter().enumerate() {
                assert_eq!(
                    req.compatible_with(*granted),
                    expected[i][j],
                    "requested {req} vs granted {granted}"
                );
            }
        }
    }

    /// Table 2 exactly as printed in the paper.
    #[test]
    fn conversion_matrix_matches_table2() {
        let expected: [[LockMode; 7]; 7] = [
            [S, SI, SI, X, S, S, O],
            [SI, I, SI, X, I, I, O],
            [SI, SI, SI, X, SI, SI, O],
            [X, X, X, X, X, X, O],
            [S, I, SI, X, T, T, O],
            [S, I, SI, X, T, U, O],
            [O, O, O, O, O, O, O],
        ];
        for (i, req) in ALL_MODES.iter().enumerate() {
            for (j, granted) in ALL_MODES.iter().enumerate() {
                assert_eq!(
                    req.convert_from(*granted),
                    expected[i][j],
                    "requested {req} converting from {granted}"
                );
            }
        }
    }

    #[test]
    fn insert_locks_enable_parallel_loads() {
        let lm = LockManager::new();
        // Three concurrent bulk loads on the same table all get I.
        for t in 1..=3 {
            assert_eq!(lm.acquire(TxnId(t), "sales", I).unwrap(), I);
        }
        // An updater (X) must fail while inserts are in flight.
        assert!(matches!(
            lm.acquire(TxnId(9), "sales", X),
            Err(DbError::LockConflict { .. })
        ));
        // The tuple mover (T, U) slips through.
        assert_eq!(lm.acquire(TxnId(10), "sales", T).unwrap(), T);
        assert_eq!(lm.acquire(TxnId(11), "sales", U).unwrap(), U);
    }

    #[test]
    fn exclusive_blocks_everything_but_usage() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), "t", X).unwrap();
        for (mode, ok) in [
            (S, false),
            (I, false),
            (SI, false),
            (X, false),
            (T, false),
            (U, true),
            (O, false),
        ] {
            let r = lm.acquire(TxnId(2), "t", mode);
            assert_eq!(r.is_ok(), ok, "mode {mode} against held X");
            lm.release(TxnId(2), "t");
            // Re-grant X holder state is untouched.
            assert_eq!(lm.held(TxnId(1), "t"), Some(X));
        }
    }

    #[test]
    fn upgrade_follows_conversion_matrix() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), "t", S).unwrap();
        // S + I request → SI.
        assert_eq!(lm.acquire(TxnId(1), "t", I).unwrap(), SI);
        assert_eq!(lm.held(TxnId(1), "t"), Some(SI));
        // SI + X request → X.
        assert_eq!(lm.acquire(TxnId(1), "t", X).unwrap(), X);
    }

    #[test]
    fn upgrade_respects_other_holders() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), "t", I).unwrap();
        lm.acquire(TxnId(2), "t", I).unwrap();
        // Txn 1 upgrading to X (I→X = X) conflicts with txn 2's I.
        assert!(lm.acquire(TxnId(1), "t", X).is_err());
        // Failed upgrade must not have changed the held mode.
        assert_eq!(lm.held(TxnId(1), "t"), Some(I));
    }

    #[test]
    fn owner_lock_requires_solitude() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), "t", U).unwrap();
        assert!(lm.acquire(TxnId(2), "t", O).is_err(), "O vs U conflicts");
        lm.release_all(TxnId(1));
        assert_eq!(lm.acquire(TxnId(2), "t", O).unwrap(), O);
        // Nothing can join while O is held.
        for mode in ALL_MODES {
            assert!(lm.acquire(TxnId(3), "t", mode).is_err(), "{mode} vs O");
        }
    }

    #[test]
    fn release_all_frees_every_table() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), "a", X).unwrap();
        lm.acquire(TxnId(1), "b", I).unwrap();
        lm.release_all(TxnId(1));
        assert_eq!(lm.acquire(TxnId(2), "a", X).unwrap(), X);
        assert_eq!(lm.acquire(TxnId(2), "b", X).unwrap(), X);
    }

    #[test]
    fn locks_are_per_table() {
        let lm = LockManager::new();
        lm.acquire(TxnId(1), "a", X).unwrap();
        assert_eq!(lm.acquire(TxnId(2), "b", X).unwrap(), X);
    }

    /// Table 1 rendered from the live implementation in the paper's layout.
    fn render_compatibility_table() -> String {
        let mut out = String::from("Requested\\Granted  S    I    SI   X    T    U    O\n");
        for req in ALL_MODES {
            out.push_str(&format!("{:<18}", req.name()));
            for granted in ALL_MODES {
                let cell = if req.compatible_with(granted) {
                    "Yes"
                } else {
                    "No"
                };
                out.push_str(&format!("{cell:<5}"));
            }
            out.push('\n');
        }
        out
    }

    /// Table 2, likewise.
    fn render_conversion_table() -> String {
        let mut out = String::from("Requested\\Granted  S    I    SI   X    T    U    O\n");
        for req in ALL_MODES {
            out.push_str(&format!("{:<18}", req.name()));
            for granted in ALL_MODES {
                out.push_str(&format!("{:<5}", req.convert_from(granted).name()));
            }
            out.push('\n');
        }
        out
    }

    #[test]
    fn rendered_tables_match_paper_shape() {
        let t1 = render_compatibility_table();
        assert!(t1.lines().count() == 8);
        assert!(t1.contains("Yes"));
        let t2 = render_conversion_table();
        assert!(t2.lines().count() == 8);
        // Spot checks against the printed tables.
        assert!(t1.lines().nth(1).unwrap().starts_with('S'));
        assert!(t2
            .lines()
            .nth(4)
            .unwrap()
            .split_whitespace()
            .all(|c| c == "X" || c == "O"));
    }

    #[test]
    fn compatibility_asymmetry_of_x_and_u() {
        // Table 1 is asymmetric: requesting X while U is held is allowed,
        // and requesting U while X is held is also allowed — but requesting
        // X while S is held is not, while S-while-U is.
        assert!(X.compatible_with(U));
        assert!(U.compatible_with(X));
        assert!(!X.compatible_with(S));
        assert!(S.compatible_with(U));
        assert!(!S.compatible_with(I));
    }
}
