//! What the harness reads from the host: `/proc` counters, the warm-up
//! rule that un-parks idle vCPUs, and the data directory guard.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// `/proc/self/io` counters (whole process, all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcIo {
    pub rchar: u64,
    pub wchar: u64,
    pub syscr: u64,
    pub syscw: u64,
}

impl ProcIo {
    /// Errors (rather than reporting zeros) when the kernel does not
    /// expose the counters.
    pub fn read() -> Result<ProcIo, String> {
        let text = std::fs::read_to_string("/proc/self/io").map_err(|e| {
            format!("/proc/self/io is unreadable ({e}); the byte and syscall metrics need it")
        })?;
        let field = |name: &str| -> Result<u64, String> {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(':')?.trim().parse().ok())
                .ok_or_else(|| format!("/proc/self/io has no `{name}` field"))
        };
        Ok(ProcIo {
            rchar: field("rchar")?,
            wchar: field("wchar")?,
            syscr: field("syscr")?,
            syscw: field("syscw")?,
        })
    }

    pub fn since(&self, earlier: &ProcIo) -> ProcIo {
        ProcIo {
            rchar: self.rchar - earlier.rchar,
            wchar: self.wchar - earlier.wchar,
            syscr: self.syscr - earlier.syscr,
            syscw: self.syscw - earlier.syscw,
        }
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole process (user + system, every thread, exited
/// ones too) in milliseconds. `/proc/self/stat` has the same number in
/// 10 ms ticks, too coarse to divide by a round's statements.
pub fn cpu_ms() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly laid out `Timespec`
    // (two 64-bit fields on the 64-bit Linux targets this harness, which
    // needs `/proc`, runs on); it keeps no reference to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
        / 1024.0
}

/// Reset the peak-RSS high-water mark to the current RSS. Returns false
/// when the kernel refuses, in which case `VmHWM` is whole-process.
pub fn reset_rss_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed pure-CPU kernel (no memory traffic), about 30 ms.
fn kernel() -> Duration {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..16_000_000u64 {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed()
}

/// Slowest of `threads` kernels started together.
fn kernel_on(threads: usize) -> Duration {
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    kernel()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up kernel does not panic"))
            .max()
            .unwrap_or_default()
    })
}

/// Outcome of [`warm_up`].
#[derive(Debug, Clone, Copy)]
pub struct HostWarm {
    pub nproc: usize,
    /// Kernel time on `nproc` threads at once ÷ on one thread; 1.0 on a
    /// host whose cores are all awake and free.
    pub par_ratio: f64,
    pub seconds: f64,
}

/// Above this ratio the host is not giving the process its cores.
pub const PAR_RATIO_LIMIT: f64 = 1.25;

/// After about a minute idle this box parks its second vCPU for seconds:
/// a 2-node query then runs at half speed for a whole run. Time the
/// kernel alone and on every core at once; while the ratio is off, keep
/// every core spinning and try again, for at most 10 s.
pub fn warm_up() -> HostWarm {
    let started = Instant::now();
    let nproc = nproc();
    loop {
        let alone = kernel_on(1).as_secs_f64();
        let together = kernel_on(nproc).as_secs_f64();
        let par_ratio = together / alone.max(1e-9);
        if par_ratio <= PAR_RATIO_LIMIT || started.elapsed() > Duration::from_secs(10) {
            return HostWarm {
                nproc,
                par_ratio,
                seconds: started.elapsed().as_secs_f64(),
            };
        }
        let until = Instant::now() + Duration::from_secs(1);
        std::thread::scope(|s| {
            for _ in 0..nproc {
                s.spawn(|| {
                    while Instant::now() < until {
                        kernel();
                    }
                });
            }
        });
    }
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best = (0usize, "unknown".to_string());
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_), Some(mount), Some(fs)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        if path.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fs.to_string());
        }
    }
    best.1
}

/// A data directory that is removed when the guard drops — at normal exit
/// and while a panic unwinds.
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    /// A fresh, empty directory `<root>/data-<pid>-<n>`.
    pub fn create(root: &Path, n: usize) -> Result<DataDir, String> {
        let path = root.join(format!("data-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(DataDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
