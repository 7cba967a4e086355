//! Hand-rolled binary serialization used by every on-disk format.
//!
//! The paper's storage formats are explicit (per-column data files, position
//! index files with per-block metadata, delete vectors), so we control the
//! byte layout directly rather than going through a generic serializer: the
//! compression experiments of §8.2 measure exactly these bytes.
//!
//! Integers use LEB128 varints with zig-zag for signed values — the natural
//! fit for delta-encoded columns.

use crate::error::{DbError, DbResult};
use crate::value::Value;

/// Append-only byte sink with primitive put operations.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Unsigned LEB128 varint.
    pub fn put_uvarint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zig-zag signed varint.
    pub fn put_ivarint(&mut self, v: i64) {
        self.put_uvarint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Length-prefixed byte slice.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_uvarint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Raw bytes without length prefix (caller knows the length).
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Tagged value: 1 type byte + payload. NULL is tag 0.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.put_u8(0),
            Value::Integer(i) => {
                self.put_u8(1);
                self.put_ivarint(*i);
            }
            Value::Float(f) => {
                self.put_u8(2);
                self.put_f64(*f);
            }
            Value::Varchar(s) => {
                self.put_u8(3);
                self.put_str(s);
            }
            Value::Boolean(b) => {
                self.put_u8(4);
                self.put_u8(u8::from(*b));
            }
            Value::Timestamp(t) => {
                self.put_u8(5);
                self.put_ivarint(*t);
            }
        }
    }
}

/// Cursor over a byte slice with primitive get operations; every read is
/// bounds-checked and surfaces [`DbError::Corrupt`] on truncation.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> DbResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DbError::Corrupt(format!(
                "unexpected end of buffer: wanted {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> DbResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> DbResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self) -> DbResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self) -> DbResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    pub fn get_uvarint(&mut self) -> DbResult<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift >= 64 {
                return Err(DbError::Corrupt("varint overflow".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn get_ivarint(&mut self) -> DbResult<i64> {
        let u = self.get_uvarint()?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    pub fn get_bytes(&mut self) -> DbResult<&'a [u8]> {
        let n = self.get_uvarint()? as usize;
        self.take(n)
    }

    pub fn get_str(&mut self) -> DbResult<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| DbError::Corrupt("invalid utf8".into()))
    }

    pub fn get_raw(&mut self, n: usize) -> DbResult<&'a [u8]> {
        self.take(n)
    }

    pub fn get_value(&mut self) -> DbResult<Value> {
        match self.get_u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Integer(self.get_ivarint()?)),
            2 => Ok(Value::Float(self.get_f64()?)),
            3 => Ok(Value::Varchar(self.get_str()?)),
            4 => Ok(Value::Boolean(self.get_u8()? != 0)),
            5 => Ok(Value::Timestamp(self.get_ivarint()?)),
            t => Err(DbError::Corrupt(format!("unknown value tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_f64(2.5);
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert!(r.is_empty());
    }

    #[test]
    fn varint_edge_cases() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let mut w = Writer::new();
            w.put_uvarint(v);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).get_uvarint().unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -300, 300] {
            let mut w = Writer::new();
            w.put_ivarint(v);
            let bytes = w.into_bytes();
            assert_eq!(Reader::new(&bytes).get_ivarint().unwrap(), v);
        }
    }

    #[test]
    fn small_varints_are_small() {
        let mut w = Writer::new();
        w.put_uvarint(100);
        assert_eq!(w.len(), 1);
        let mut w = Writer::new();
        w.put_ivarint(-3);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn value_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Integer(-42),
            Value::Float(1.25),
            Value::Varchar("abc".into()),
            Value::Boolean(true),
            Value::Timestamp(1_000_000),
        ];
        let mut w = Writer::new();
        for v in &vals {
            w.put_value(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in &vals {
            assert_eq!(&r.get_value().unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let mut w = Writer::new();
        w.put_str("hello world");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..4]);
        assert!(matches!(r.get_str(), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        let bytes = [0xff; 11];
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.get_uvarint(), Err(DbError::Corrupt(_))));
    }
}
