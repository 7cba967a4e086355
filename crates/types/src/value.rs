//! Logical values and data types.
//!
//! The engine is value-generic: batches and rows carry [`Value`]s, while the
//! encoding layer (`vdb-encoding`) specializes on the underlying
//! [`DataType`] to produce compact byte representations. Vertica's original
//! C-Store prototype supported only 32-bit integers; §8.1 of the paper lists
//! "multiple data types such as FLOAT and VARCHAR" and "processing SQL
//! NULLs" among the product features Vertica added — this module implements
//! exactly that widened model (64-bit integral types included).

use crate::error::{DbError, DbResult};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A row is simply a vector of values, one per column of some schema.
pub type Row = Vec<Value>;

/// Logical column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Integer,
    /// 64-bit IEEE-754 float.
    Float,
    /// Variable-length UTF-8 string.
    Varchar,
    /// Boolean.
    Boolean,
    /// Seconds since the Unix epoch (see [`crate::date`] for calendar math).
    Timestamp,
}

impl DataType {
    /// Parse a SQL type name (`INT`, `INTEGER`, `FLOAT`, `DOUBLE`,
    /// `VARCHAR`, `BOOLEAN`, `TIMESTAMP`, `DATE`).
    pub fn parse_sql(name: &str) -> DbResult<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Ok(DataType::Integer),
            "FLOAT" | "DOUBLE" | "REAL" | "NUMERIC" => Ok(DataType::Float),
            "VARCHAR" | "TEXT" | "CHAR" | "STRING" => Ok(DataType::Varchar),
            "BOOLEAN" | "BOOL" => Ok(DataType::Boolean),
            "TIMESTAMP" | "DATE" | "DATETIME" => Ok(DataType::Timestamp),
            other => Err(DbError::Parse(format!("unknown type name {other}"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format!("{self:?}").to_ascii_uppercase())
    }
}

/// A single typed value, including SQL NULL.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL (untyped; compatible with any column type).
    Null,
    Integer(i64),
    Float(f64),
    Varchar(String),
    Boolean(bool),
    /// Seconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// The value's data type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Integer(_) => Some(DataType::Integer),
            Value::Float(_) => Some(DataType::Float),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Boolean(_) => Some(DataType::Boolean),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integral view used by segmentation and integer encodings. Timestamps
    /// and booleans are integral; floats are not.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Integer(v) | Value::Timestamp(v) => Some(*v),
            Value::Boolean(b) => Some(i64::from(*b)),
            _ => None,
        }
    }

    /// Numeric view: integers widen to floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Integer(v) | Value::Timestamp(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Varchar(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Truthiness under SQL three-valued logic: NULL is not true.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Boolean(true))
    }

    /// 64-bit deterministic hash used by `SEGMENTED BY HASH(...)` and by the
    /// execution engine's hash tables. FNV-1a over a type tag plus the
    /// canonical byte representation, so equal values hash equally across
    /// nodes and across process restarts (required for the ring mapping of
    /// §3.6 to be stable).
    pub fn hash64(&self) -> u64 {
        match self {
            Value::Null => Value::hash64_null(),
            // Integers and timestamps share a representation so that a
            // prejoin between INT and TIMESTAMP keys co-locates.
            Value::Integer(v) | Value::Timestamp(v) => Value::hash64_of_i64(*v),
            Value::Float(v) => Value::hash64_of_f64(*v),
            Value::Varchar(s) => Value::hash64_of_str(s),
            Value::Boolean(b) => Value::hash64_of_i64(i64::from(*b)),
        }
    }

    /// [`Value::hash64`] of NULL without constructing a `Value`.
    pub fn hash64_null() -> u64 {
        hash_feed(HASH_OFFSET, &[0])
    }

    /// [`Value::hash64`] of an integral value (`Integer`, `Timestamp`, or
    /// `Boolean` as 0/1) without constructing a `Value` — the typed-vector
    /// hot path for SIP filters and hash keys.
    pub fn hash64_of_i64(v: i64) -> u64 {
        hash_feed(hash_feed(HASH_OFFSET, &[1]), &v.to_le_bytes())
    }

    /// [`Value::hash64`] of a float without constructing a `Value`.
    /// Hashes by the integral value when exact so that 1.0 and 1 co-locate;
    /// otherwise by bits.
    pub fn hash64_of_f64(v: f64) -> u64 {
        if v.fract() == 0.0 && v >= i64::MIN as f64 && v <= i64::MAX as f64 {
            Value::hash64_of_i64(v as i64)
        } else {
            hash_feed(hash_feed(HASH_OFFSET, &[2]), &v.to_bits().to_le_bytes())
        }
    }

    /// [`Value::hash64`] of a string without constructing a `Value`.
    pub fn hash64_of_str(s: &str) -> u64 {
        hash_feed(hash_feed(HASH_OFFSET, &[3]), s.as_bytes())
    }

    /// Parse a textual field (as found in CSV bulk loads) into a value of
    /// the given type. Empty strings load as NULL, matching the bulk loader
    /// semantics described in §7 ("Bulk Loading and Rejected Records").
    pub fn parse_typed(text: &str, ty: DataType) -> DbResult<Value> {
        if text.is_empty() || text.eq_ignore_ascii_case("null") {
            return Ok(Value::Null);
        }
        let err = |found: &str| DbError::TypeMismatch {
            expected: ty.to_string(),
            found: found.to_string(),
        };
        match ty {
            DataType::Integer => text
                .parse::<i64>()
                .map(Value::Integer)
                .map_err(|_| err(text)),
            DataType::Float => text.parse::<f64>().map(Value::Float).map_err(|_| err(text)),
            DataType::Varchar => Ok(Value::Varchar(text.to_string())),
            DataType::Boolean => match text.to_ascii_lowercase().as_str() {
                "t" | "true" | "1" => Ok(Value::Boolean(true)),
                "f" | "false" | "0" => Ok(Value::Boolean(false)),
                _ => Err(err(text)),
            },
            DataType::Timestamp => {
                // Accept either raw seconds or `YYYY-MM-DD[ hh:mm:ss]`.
                if let Ok(secs) = text.parse::<i64>() {
                    return Ok(Value::Timestamp(secs));
                }
                crate::date::parse_timestamp(text)
                    .map(Value::Timestamp)
                    .ok_or_else(|| err(text))
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Integer(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Varchar(s) => write!(f, "{s}"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Timestamp(v) => {
                let (y, m, d, hh, mm, ss) = crate::date::to_civil(*v);
                write!(f, "{y:04}-{m:02}-{d:02} {hh:02}:{mm:02}:{ss:02}")
            }
        }
    }
}

/// Equality treats NULL == NULL as true. This is *storage* equality (used by
/// sorting, RLE, dictionaries and group-by keys), not SQL `=` semantics —
/// SQL three-valued comparison lives in `expr::BinOp::eval`.
impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Total order used by projection sort orders, merge joins and external
/// sorts: NULL sorts first; numeric types compare by numeric value (so an
/// Integer column can be compared against Float literals); floats use IEEE
/// total order for NaN stability.
impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Integer(a), Integer(b)) | (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (Integer(a), Timestamp(b)) | (Timestamp(a), Integer(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Integer(a) | Timestamp(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Integer(b) | Timestamp(b)) => a.total_cmp(&(*b as f64)),
            (Varchar(a), Varchar(b)) => a.cmp(b),
            (Boolean(a), Boolean(b)) => a.cmp(b),
            (Boolean(a), Integer(b)) => i64::from(*a).cmp(b),
            (Integer(a), Boolean(b)) => a.cmp(&i64::from(*b)),
            // Heterogeneous comparisons outside the numeric family order by
            // a fixed type rank so the total order stays consistent.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }
}

const HASH_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const HASH_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a inner loop shared by [`Value::hash64`] and the typed no-`Value`
/// variants.
fn hash_feed(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(HASH_PRIME);
    }
    h
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Boolean(_) => 1,
        Value::Integer(_) => 2,
        Value::Timestamp(_) => 3,
        Value::Float(_) => 4,
        Value::Varchar(_) => 5,
    }
}

/// Hash agrees with `Eq` (delegates to [`Value::hash64`]).
impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sorts_first() {
        let mut vals = [
            Value::Integer(3),
            Value::Null,
            Value::Integer(-1),
            Value::Null,
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Null);
        assert_eq!(vals[2], Value::Integer(-1));
    }

    #[test]
    fn numeric_cross_type_ordering() {
        assert_eq!(Value::Integer(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Integer(2).cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Timestamp(100).cmp(&Value::Integer(99)),
            Ordering::Greater
        );
    }

    #[test]
    fn hash_is_deterministic_and_discriminates() {
        assert_eq!(Value::Integer(42).hash64(), Value::Integer(42).hash64());
        assert_ne!(Value::Integer(42).hash64(), Value::Integer(43).hash64());
        assert_ne!(
            Value::Varchar("a".into()).hash64(),
            Value::Varchar("b".into()).hash64()
        );
        // ints and equal-valued floats co-locate (prejoin key stability)
        assert_eq!(Value::Integer(7).hash64(), Value::Float(7.0).hash64());
    }

    #[test]
    fn native_hash_helpers_agree_with_value_hash() {
        assert_eq!(Value::hash64_of_i64(42), Value::Integer(42).hash64());
        assert_eq!(Value::hash64_of_i64(42), Value::Timestamp(42).hash64());
        assert_eq!(Value::hash64_of_i64(1), Value::Boolean(true).hash64());
        assert_eq!(Value::hash64_of_f64(2.5), Value::Float(2.5).hash64());
        assert_eq!(Value::hash64_of_f64(7.0), Value::Integer(7).hash64());
        assert_eq!(
            Value::hash64_of_str("x"),
            Value::Varchar("x".into()).hash64()
        );
        assert_eq!(Value::hash64_null(), Value::Null.hash64());
    }

    #[test]
    fn parse_typed_round_trips() {
        assert_eq!(
            Value::parse_typed("123", DataType::Integer).unwrap(),
            Value::Integer(123)
        );
        assert_eq!(
            Value::parse_typed("1.5", DataType::Float).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            Value::parse_typed("", DataType::Integer).unwrap(),
            Value::Null
        );
        assert_eq!(
            Value::parse_typed("true", DataType::Boolean).unwrap(),
            Value::Boolean(true)
        );
        assert!(Value::parse_typed("abc", DataType::Integer).is_err());
    }

    #[test]
    fn parse_timestamp_date_form() {
        let v = Value::parse_typed("2012-03-15", DataType::Timestamp).unwrap();
        assert_eq!(v.to_string(), "2012-03-15 00:00:00");
    }

    #[test]
    fn data_type_parse_sql() {
        assert_eq!(DataType::parse_sql("int").unwrap(), DataType::Integer);
        assert_eq!(DataType::parse_sql("VARCHAR").unwrap(), DataType::Varchar);
        assert!(DataType::parse_sql("blob").is_err());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Boolean(true).is_true());
        assert!(!Value::Boolean(false).is_true());
        assert!(!Value::Null.is_true(), "NULL is not true (3VL)");
    }
}
