//! Spans recorded from outside the engine, around the calls into each
//! crate's public functions. They stay in memory while the workload runs
//! and are written out when it ends.

use crate::json::Obj;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is 0 for a root span; `stmt` numbers the
/// statement execution the span belongs to (ticks use the execution
/// before them).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub stmt: u32,
    pub class: u8,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
    next_id: u32,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }
}

impl SpanLog {
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// An id for a span whose children are recorded before it closes.
    fn reserve(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    pub fn close(&mut self, mut span: Span) {
        span.end_ns = self.now();
        self.spans.push(span);
    }

    /// Time `work` as a child of `parent`.
    pub fn child<T>(
        &mut self,
        parent: &Span,
        layer: &'static str,
        name: &'static str,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.reserve();
        let start_ns = self.now();
        let out = work();
        self.close(Span {
            id,
            parent: parent.id,
            layer,
            name,
            start_ns,
            end_ns: 0,
            ..*parent
        });
        out
    }

    /// An open root span; pass it to [`SpanLog::close`] when done.
    pub fn root(&mut self, stmt: u32, class: u8, layer: &'static str, name: &'static str) -> Span {
        Span {
            id: self.reserve(),
            parent: 0,
            stmt,
            class,
            layer,
            name,
            start_ns: self.now(),
            end_ns: 0,
        }
    }

    pub fn named<'a>(&'a self, name: &'static str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// One JSON object per line: `meta` first, then every span.
    pub fn write_jsonl(&self, path: &Path, meta: &str, classes: &[&str]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{meta}")?;
        for s in &self.spans {
            let line = Obj::new()
                .int("id", u64::from(s.id))
                .int("parent", u64::from(s.parent))
                .int("stmt", u64::from(s.stmt))
                .str(
                    "class",
                    classes.get(s.class as usize).copied().unwrap_or(""),
                )
                .str("layer", s.layer)
                .str("name", s.name)
                .int("start_ns", s.start_ns)
                .int("end_ns", s.end_ns)
                .finish();
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
