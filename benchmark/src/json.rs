//! Hand-rolled JSON output (the build has no registry access, so no serde).
//!
//! Only what the benchmark emits: flat objects of numbers, strings, bools
//! and nested raw values, plus the one reader `aa` needs to pull a metric
//! back out of a run's result line.

/// A JSON number with all the digits the measurement has. Non-finite
/// values cannot be written as JSON numbers and become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builder for one JSON object; fields keep insertion order.
#[derive(Default)]
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Add a field whose value is already JSON text.
    pub fn raw(mut self, key: &str, value: &str) -> Obj {
        if !self.buf.is_empty() {
            self.buf.push_str(", ");
        }
        self.buf.push_str(&string(key));
        self.buf.push_str(": ");
        self.buf.push_str(value);
        self
    }

    pub fn num(self, key: &str, value: f64) -> Obj {
        self.raw(key, &num(value))
    }

    pub fn int(self, key: &str, value: u64) -> Obj {
        self.raw(key, &value.to_string())
    }

    pub fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, &string(value))
    }

    pub fn bool(self, key: &str, value: bool) -> Obj {
        self.raw(key, if value { "true" } else { "false" })
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// A JSON array of already-rendered values.
pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// Read `"<name>": {"value": <number>` back out of a result line written
/// by [`Obj`] (the exact spacing this module writes).
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let needle = format!("{}: {{\"value\": ", string(name));
    let rest = &line[line.find(&needle)? + needle.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_roundtrip() {
        let metric = Obj::new().num("value", 1.25).str("unit", "ms").finish();
        let line = Obj::new()
            .bool("correct", true)
            .raw("metrics", &Obj::new().raw("a.b", &metric).finish())
            .finish();
        assert_eq!(
            line,
            r#"{"correct": true, "metrics": {"a.b": {"value": 1.25, "unit": "ms"}}}"#
        );
        assert_eq!(metric_value(&line, "a.b"), Some(1.25));
        assert_eq!(metric_value(&line, "b"), None);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(string("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(num(f64::NAN), "null");
    }
}
