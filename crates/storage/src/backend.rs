//! Storage backends: where ROS container files physically live.
//!
//! The paper stores ROS containers "on a standard file system" (§3.7) and
//! implements backup by hard-linking data files (§5.2). [`FsBackend`] does
//! exactly that; [`MemBackend`] is a drop-in in-memory implementation used
//! by tests and by benchmarks that measure logical byte counts.
//! [`CountingBackend`] wraps either and records what was read, so tests
//! can assert the I/O shape of a code path.

use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use vdb_types::{DbError, DbResult};

/// Abstract flat file store. Paths are slash-separated logical names.
///
/// The durability protocol (manifest rewrites, commit markers, redo
/// records, the DDL log) treats every write as a whole-file atomic commit
/// point: after a crash, a file either holds its complete new contents or
/// whatever was there before — never a torn mix. Implementations must
/// uphold that; [`FsBackend`] does so with write-temp → fsync → rename →
/// fsync-directory.
pub trait StorageBackend: Send + Sync {
    /// Atomically replace (or create) `path` with `bytes`.
    fn write_file(&self, path: &str, bytes: &[u8]) -> DbResult<()>;
    fn read_file(&self, path: &str) -> DbResult<Vec<u8>>;
    /// Exactly the `len` bytes of `path` starting at `offset`. A range that
    /// reaches past the end of the file is an error, never a short result.
    fn read_range(&self, path: &str, offset: u64, len: usize) -> DbResult<Vec<u8>>;
    fn delete_file(&self, path: &str) -> DbResult<()>;
    fn file_size(&self, path: &str) -> DbResult<u64>;
    /// All file paths under a prefix, sorted.
    fn list_files(&self, prefix: &str) -> Vec<String>;
    /// Hard-link `src` to `dst` (backup mechanism, §5.2). For backends
    /// without links this copies.
    fn hard_link(&self, src: &str, dst: &str) -> DbResult<()>;
    /// Total bytes across all files under a prefix.
    fn total_size(&self, prefix: &str) -> u64 {
        self.list_files(prefix)
            .iter()
            .filter_map(|p| self.file_size(p).ok())
            .sum()
    }
}

/// In-memory backend: a path → bytes map.
#[derive(Default)]
pub struct MemBackend {
    files: RwLock<BTreeMap<String, Vec<u8>>>,
}

impl MemBackend {
    pub fn new() -> MemBackend {
        MemBackend::default()
    }
}

impl StorageBackend for MemBackend {
    fn write_file(&self, path: &str, bytes: &[u8]) -> DbResult<()> {
        self.files.write().insert(path.to_string(), bytes.to_vec());
        Ok(())
    }

    fn read_file(&self, path: &str) -> DbResult<Vec<u8>> {
        self.files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| DbError::NotFound(format!("file {path}")))
    }

    fn read_range(&self, path: &str, offset: u64, len: usize) -> DbResult<Vec<u8>> {
        let files = self.files.read();
        let file = files
            .get(path)
            .ok_or_else(|| DbError::NotFound(format!("file {path}")))?;
        usize::try_from(offset)
            .ok()
            .and_then(|start| file.get(start..start.checked_add(len)?))
            .map(<[u8]>::to_vec)
            .ok_or_else(|| range_past_end(path, offset, len))
    }

    fn delete_file(&self, path: &str) -> DbResult<()> {
        self.files
            .write()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| DbError::NotFound(format!("file {path}")))
    }

    fn file_size(&self, path: &str) -> DbResult<u64> {
        self.files
            .read()
            .get(path)
            .map(|b| b.len() as u64)
            .ok_or_else(|| DbError::NotFound(format!("file {path}")))
    }

    fn list_files(&self, prefix: &str) -> Vec<String> {
        self.files
            .read()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    fn hard_link(&self, src: &str, dst: &str) -> DbResult<()> {
        let bytes = self.read_file(src)?;
        self.files.write().insert(dst.to_string(), bytes);
        Ok(())
    }
}

fn range_past_end(path: &str, offset: u64, len: usize) -> DbError {
    DbError::Io(format!(
        "read of {len} bytes at offset {offset} reaches past the end of {path}"
    ))
}

/// Filesystem backend rooted at a directory.
pub struct FsBackend {
    root: PathBuf,
}

impl FsBackend {
    pub fn new(root: impl Into<PathBuf>) -> DbResult<FsBackend> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FsBackend { root })
    }

    fn resolve(&self, path: &str) -> DbResult<PathBuf> {
        if path.contains("..") {
            return Err(DbError::Io(format!("path escapes root: {path}")));
        }
        Ok(self.root.join(path))
    }
}

impl StorageBackend for FsBackend {
    fn write_file(&self, path: &str, bytes: &[u8]) -> DbResult<()> {
        use std::io::Write;

        let full = self.resolve(path)?;
        let parent = full
            .parent()
            .ok_or_else(|| DbError::Io(format!("no parent directory for {path}")))?
            .to_path_buf();
        std::fs::create_dir_all(&parent)?;

        // Write-temp → fsync → rename → fsync-directory, so a kill -9 or
        // power loss leaves either the old file or the new one, never a
        // torn mix. Every manifest/marker/redo commit point relies on
        // this. The temp name carries pid + a counter so concurrent
        // writers to the same path can't clobber each other's temp file.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let base = full
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let tmp = parent.join(format!(
            ".{base}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let result = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &full)?;
            // The rename is only durable once the directory entry is; on
            // platforms where directories can't be fsynced this is
            // best-effort.
            if let Ok(dir) = std::fs::File::open(&parent) {
                let _ = dir.sync_all();
            }
            Ok(())
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        Ok(result?)
    }

    fn read_file(&self, path: &str) -> DbResult<Vec<u8>> {
        Ok(std::fs::read(self.resolve(path)?)?)
    }

    fn read_range(&self, path: &str, offset: u64, len: usize) -> DbResult<Vec<u8>> {
        let file = std::fs::File::open(self.resolve(path)?)?;
        // Checked against the file's size before the buffer is allocated:
        // `len` comes from a position index, which may be corrupt.
        let size = file.metadata()?.len();
        if offset.checked_add(len as u64).is_none_or(|end| end > size) {
            return Err(range_past_end(path, offset, len));
        }
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(&file, &mut buf, offset)?;
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let mut file = file;
            file.seek(SeekFrom::Start(offset))?;
            file.read_exact(&mut buf)?;
        }
        Ok(buf)
    }

    fn delete_file(&self, path: &str) -> DbResult<()> {
        Ok(std::fs::remove_file(self.resolve(path)?)?)
    }

    fn file_size(&self, path: &str) -> DbResult<u64> {
        Ok(std::fs::metadata(self.resolve(path)?)?.len())
    }

    fn list_files(&self, prefix: &str) -> Vec<String> {
        fn walk(dir: &std::path::Path, root: &std::path::Path, out: &mut Vec<String>) {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return;
            };
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, root, out);
                } else if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &self.root, &mut out);
        // Hide temp files a crash mid-write_file may have stranded: they
        // are debris, not logical files, and must not confuse recovery.
        out.retain(|p| {
            p.starts_with(prefix)
                && !p
                    .rsplit('/')
                    .next()
                    .is_some_and(|name| name.starts_with('.') && name.contains(".tmp."))
        });
        out.sort();
        out
    }

    fn hard_link(&self, src: &str, dst: &str) -> DbResult<()> {
        let s = self.resolve(src)?;
        let d = self.resolve(dst)?;
        if let Some(parent) = d.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::hard_link(s, d)?;
        Ok(())
    }
}

/// Which call a [`CountingBackend`] recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    ReadFile,
    ReadRange,
    FileSize,
    WriteFile,
}

/// One recorded call: what was asked of which file, and how many bytes
/// came back or went in (0 for [`IoOp::FileSize`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoCall {
    pub op: IoOp,
    pub path: String,
    pub bytes: u64,
}

/// A backend that forwards to another and records every call that touches
/// a file's contents or size — the instrument behind the I/O-shape tests
/// ("a point query reads < 5 % of its columns", "a mover tick with nothing
/// to merge stats no file").
pub struct CountingBackend {
    inner: Arc<dyn StorageBackend>,
    calls: Mutex<Vec<IoCall>>,
}

impl CountingBackend {
    pub fn new(inner: Arc<dyn StorageBackend>) -> CountingBackend {
        CountingBackend {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Forget everything recorded so far.
    pub fn reset(&self) {
        self.calls.lock().clear();
    }

    /// Every call recorded since the last reset, in call order.
    pub fn calls(&self) -> Vec<IoCall> {
        self.calls.lock().clone()
    }

    /// How many calls of one kind were recorded.
    pub fn count(&self, op: IoOp) -> usize {
        self.calls.lock().iter().filter(|c| c.op == op).count()
    }

    /// Bytes returned by whole-file and ranged reads together.
    pub fn bytes_read(&self) -> u64 {
        let calls = self.calls.lock();
        let reads = calls.iter().filter(|c| c.op != IoOp::WriteFile);
        reads.map(|c| c.bytes).sum()
    }

    fn record(&self, op: IoOp, path: &str, bytes: u64) {
        self.calls.lock().push(IoCall {
            op,
            path: path.to_string(),
            bytes,
        });
    }
}

impl Default for CountingBackend {
    /// Counting over a fresh [`MemBackend`].
    fn default() -> CountingBackend {
        CountingBackend::new(Arc::new(MemBackend::new()))
    }
}

impl StorageBackend for CountingBackend {
    fn write_file(&self, path: &str, bytes: &[u8]) -> DbResult<()> {
        self.inner.write_file(path, bytes)?;
        self.record(IoOp::WriteFile, path, bytes.len() as u64);
        Ok(())
    }
    fn read_file(&self, path: &str) -> DbResult<Vec<u8>> {
        let bytes = self.inner.read_file(path)?;
        self.record(IoOp::ReadFile, path, bytes.len() as u64);
        Ok(bytes)
    }
    fn read_range(&self, path: &str, offset: u64, len: usize) -> DbResult<Vec<u8>> {
        let bytes = self.inner.read_range(path, offset, len)?;
        self.record(IoOp::ReadRange, path, bytes.len() as u64);
        Ok(bytes)
    }
    fn delete_file(&self, path: &str) -> DbResult<()> {
        self.inner.delete_file(path)
    }
    fn file_size(&self, path: &str) -> DbResult<u64> {
        self.record(IoOp::FileSize, path, 0);
        self.inner.file_size(path)
    }
    fn list_files(&self, prefix: &str) -> Vec<String> {
        self.inner.list_files(prefix)
    }
    fn hard_link(&self, src: &str, dst: &str) -> DbResult<()> {
        self.inner.hard_link(src, dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(backend: &dyn StorageBackend) {
        backend.write_file("proj/a/1.dat", b"hello").unwrap();
        backend.write_file("proj/a/1.idx", b"xy").unwrap();
        backend.write_file("proj/b/2.dat", b"zzz").unwrap();
        assert_eq!(backend.read_file("proj/a/1.dat").unwrap(), b"hello");
        assert_eq!(backend.read_range("proj/a/1.dat", 1, 3).unwrap(), b"ell");
        assert_eq!(backend.read_range("proj/a/1.dat", 0, 5).unwrap(), b"hello");
        assert_eq!(backend.read_range("proj/a/1.dat", 5, 0).unwrap(), b"");
        // Short, out-of-range, overflowing, missing and escaping reads are
        // structured errors, never panics or short results.
        for (path, offset, len) in [
            ("proj/a/1.dat", 3, 3),
            ("proj/a/1.dat", 6, 1),
            ("proj/a/1.dat", u64::MAX, 2),
            ("proj/a/1.dat", 1, usize::MAX),
            ("proj/a/missing.dat", 0, 1),
            ("../proj/a/1.dat", 0, 1),
            ("proj/../../etc/passwd", 0, 1),
        ] {
            let err = backend.read_range(path, offset, len).unwrap_err();
            assert!(
                matches!(err, DbError::Io(_) | DbError::NotFound(_)),
                "{path} @{offset}+{len}: {err:?}"
            );
        }
        assert_eq!(backend.file_size("proj/a/1.idx").unwrap(), 2);
        assert_eq!(
            backend.list_files("proj/a/"),
            vec!["proj/a/1.dat".to_string(), "proj/a/1.idx".to_string()]
        );
        assert_eq!(backend.total_size("proj/"), 10);
        backend.hard_link("proj/a/1.dat", "backup/1.dat").unwrap();
        assert_eq!(backend.read_file("backup/1.dat").unwrap(), b"hello");
        // Deleting the original leaves the backup readable (link semantics).
        backend.delete_file("proj/a/1.dat").unwrap();
        assert_eq!(backend.read_file("backup/1.dat").unwrap(), b"hello");
        assert!(backend.read_file("proj/a/1.dat").is_err());
        // Deleting a missing file may error or no-op depending on backend.
        let _ = backend.delete_file("nope");
    }

    #[test]
    fn mem_backend() {
        exercise(&MemBackend::new());
    }

    #[test]
    fn fs_backend() {
        let dir = std::env::temp_dir().join(format!("vdb-fs-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&FsBackend::new(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counting_backend_records_reads_writes_and_sizes() {
        let counting = CountingBackend::default();
        exercise(&counting);
        counting.reset();
        counting.write_file("f", b"0123456789").unwrap();
        counting.read_file("f").unwrap();
        counting.read_range("f", 2, 3).unwrap();
        counting.file_size("f").unwrap();
        assert!(
            counting.read_range("f", 8, 3).is_err(),
            "failures not counted"
        );
        let call = |op, bytes| IoCall {
            op,
            path: "f".into(),
            bytes,
        };
        assert_eq!(
            counting.calls(),
            vec![
                call(IoOp::WriteFile, 10),
                call(IoOp::ReadFile, 10),
                call(IoOp::ReadRange, 3),
                call(IoOp::FileSize, 0)
            ]
        );
        assert_eq!(counting.bytes_read(), 13);
        assert_eq!(counting.count(IoOp::ReadRange), 1);
    }

    #[test]
    fn fs_backend_overwrite_is_clean() {
        let dir = std::env::temp_dir().join(format!("vdb-fs-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = FsBackend::new(&dir).unwrap();
        b.write_file("p/manifest", b"v1").unwrap();
        b.write_file("p/manifest", b"version two, longer").unwrap();
        assert_eq!(b.read_file("p/manifest").unwrap(), b"version two, longer");
        // No temp debris visible, and a stranded temp file from a
        // simulated crash stays hidden from logical listings.
        std::fs::write(dir.join("p/.manifest.tmp.999.0"), b"torn").unwrap();
        assert_eq!(b.list_files("p/"), vec!["p/manifest".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fs_backend_rejects_escape() {
        let dir = std::env::temp_dir().join(format!("vdb-fs-esc-{}", std::process::id()));
        let b = FsBackend::new(&dir).unwrap();
        assert!(b.write_file("../evil", b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
