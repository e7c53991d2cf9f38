//! Run context recorded with every result: what was measured, where and
//! on how much machine.

use std::hint::black_box;
use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Spin iterations per calibration thread (about 20 ms on one core).
const SPIN_ITERS: u64 = 20_000_000;

/// Host facts a result is meaningless without.
#[derive(Clone, Debug)]
pub struct Context {
    /// `git rev-parse` of the measured tree, or `unknown`.
    pub rev: String,
    /// Cores the process may use.
    pub nproc: usize,
    /// Seconds since the Unix epoch at the start of the run.
    pub unix_ts: u64,
    /// Filesystem type holding the job root.
    pub root_fs: String,
    /// Fixed spin work on one thread, ms.
    pub spin_1t_ms: f64,
    /// The same work on each of two threads at once, ms.
    pub spin_2t_ms: f64,
}

impl Context {
    /// Captures the context; `root` must exist.
    pub fn capture(root: &Path) -> Self {
        let (spin_1t_ms, spin_2t_ms) = spin_calibration();
        Self {
            rev: git_rev(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            unix_ts: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            root_fs: fs_type(root).unwrap_or_else(|| "unknown".to_string()),
            spin_1t_ms,
            spin_2t_ms,
        }
    }

    /// Two threads' work per unit time over one thread's: about 2 when
    /// both cores are really available, about 1 when they are shared.
    pub fn parallel_speedup(&self) -> f64 {
        2.0 * self.spin_1t_ms / self.spin_2t_ms.max(1e-9)
    }

    /// The context as JSON object members (no braces).
    pub fn json_members(&self) -> String {
        format!(
            "\"rev\":\"{}\",\"nproc\":{},\"unix_ts\":{},\"root_fs\":\"{}\",\"spin_1t_ms\":{},\"spin_2t_ms\":{},\"host.parallel_speedup\":{}",
            self.rev,
            self.nproc,
            self.unix_ts,
            self.root_fs,
            self.spin_1t_ms,
            self.spin_2t_ms,
            self.parallel_speedup()
        )
    }
}

fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x2545_F491_4F6C_DD1D_u64);
    for i in 0..iters {
        x = x.rotate_left(7) ^ black_box(i);
    }
    x
}

/// The fastest of three timings of each, after one untimed spin that
/// brings the core up to speed: `(one thread, two threads)` in ms.
fn spin_calibration() -> (f64, f64) {
    black_box(spin(SPIN_ITERS));
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    };
    let one = best(&|| {
        black_box(spin(SPIN_ITERS));
    });
    let two = best(&|| {
        std::thread::scope(|scope| {
            let other = scope.spawn(|| black_box(spin(SPIN_ITERS)));
            black_box(spin(SPIN_ITERS));
            other.join().expect("calibration spin thread panicked");
        });
    });
    (one, two)
}

/// The revision of the checkout the benchmark was built in; `unknown`
/// outside a git work tree (git is not asked to look further up).
fn git_rev() -> String {
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../..");
    if !Path::new(repo).join(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["-C", repo, "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The filesystem type of the longest mount point containing `path`.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mount_point = line.split(' ').nth(4)?;
            let fs = line.split(" - ").nth(1)?.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Peak resident set (VmHWM) in MB of process `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
