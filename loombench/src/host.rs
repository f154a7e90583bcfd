//! Host and run facts, data directories, and on-disk footprint.

use std::path::{Path, PathBuf};

/// Root of every data directory the benchmark creates, relative to the
/// working directory (the repository checkout).
pub const DATA_ROOT: &str = ".bench_data";

/// A scratch data directory under [`DATA_ROOT`], removed on drop.
pub struct DataDir {
    path: PathBuf,
}

impl DataDir {
    /// Creates a fresh, empty directory named after `tag` and this process.
    pub fn new(tag: &str) -> std::io::Result<DataDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(DATA_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leaves the root behind only while another run still uses it.
        let _ = std::fs::remove_dir(DATA_ROOT);
    }
}

/// Bytes allocated on disk under `dir`: `st_blocks × 512` summed over
/// every file, so punched holes and sparse tails do not count.
pub fn allocated_bytes(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => allocated_bytes(&e.path()),
            Ok(m) => m.blocks() * 512,
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, total)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`. Time stolen by the hypervisor is the
/// usual cause of a run slower than its neighbours on a shared VM.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of CPU time stolen since `start` (from [`cpu_ticks`]), in percent.
pub fn steal_pct(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 * 100.0 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(reference) {
        return sha.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Build profile of this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// CPU the benchmark's own thread (pusher, client, queries) runs on.
pub const LOAD_CPU: usize = 0;

/// CPU the engine's and the server's threads are spawned on.
pub const ENGINE_CPU: usize = 1;

/// Runs `f` on [`ENGINE_CPU`], so every thread it spawns (log flushers,
/// the server's accept and connection threads) stays there, then moves
/// the caller back to [`LOAD_CPU`]. With the load and the engine each on
/// a CPU of its own, every run places every thread the same way; left to
/// the scheduler, the hand-off between them ran on one CPU in some runs
/// and across two in others, which moved TCP batch times by 10–40 %.
pub fn on_engine_cpu<T>(f: impl FnOnce() -> T) -> T {
    let pinned = pin_to_cpu(ENGINE_CPU);
    let out = f();
    if pinned {
        pin_to_cpu(LOAD_CPU);
    }
    out
}

/// Pins the calling thread to logical CPU `cpu` (threads it spawns
/// afterwards inherit the pin). Returns false when the host has no such
/// CPU or refuses the pin; the thread then keeps its previous mask.
pub fn pin_to_cpu(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 || cpu >= nproc() {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised buffer of exactly `size`
    // bytes, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
