//! The one durable-write path. Every write to a campaign-service job
//! directory — submission, journal, results file, lock sidecar — goes
//! through this module, and each call that puts bytes on disk or fsyncs
//! them is one *durable step*, the unit an injected crash is counted in.
//! A file created here is followed by an fsync of its directory; no
//! in-process test can observe that fsync, which only matters when the
//! machine itself crashes.
//!
//! [`arm`] a directory with a [`CrashFault`] and its `step`-th durable
//! step writes only its first `bytes` bytes, then unwinds with
//! [`InjectedKill`] — `SIGKILL` in the middle of a `write(2)`: `bytes = 0`
//! is a kill, `bytes > 0` a torn write. Every later step there unwinds
//! before writing, since a dead process writes nothing more. Unarmed, a
//! step costs one atomic load. I/O errors are returned, never injected.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::InjectedKill;

/// One injected crash: durable step `step` (counted from zero after
/// [`arm`]) writes its first `bytes` bytes, then the process dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashFault {
    /// Zero-based durable step the crash fires at.
    pub step: usize,
    /// Bytes of that step's write that land before the crash.
    pub bytes: usize,
}

struct Slot {
    fault: CrashFault,
    steps: AtomicUsize,
    fired: AtomicBool,
}

/// Armed directories: the count is the one load an unarmed step pays.
static ARMED: AtomicUsize = AtomicUsize::new(0);
static REGISTRY: Mutex<Vec<(PathBuf, Arc<Slot>)>> = Mutex::new(Vec::new());

fn registry() -> MutexGuard<'static, Vec<(PathBuf, Arc<Slot>)>> {
    REGISTRY.lock().unwrap_or_else(|p| p.into_inner())
}

/// The guard of one armed directory; dropping it disarms the directory.
pub struct Armed(Arc<Slot>);

/// Arms `dir`: durable steps on paths under it are counted, and step
/// `fault.step` crashes. Keyed by directory, so faults armed on
/// different directories never see each other's steps.
pub fn arm(dir: &Path, fault: CrashFault) -> Armed {
    let slot = Arc::new(Slot {
        fault,
        steps: AtomicUsize::new(0),
        fired: AtomicBool::new(false),
    });
    registry().push((dir.to_path_buf(), Arc::clone(&slot)));
    ARMED.fetch_add(1, Ordering::SeqCst);
    Armed(slot)
}

impl Armed {
    /// Whether the crash has fired.
    pub fn fired(&self) -> bool {
        self.0.fired.load(Ordering::SeqCst)
    }

    /// Durable steps counted under the directory so far.
    pub fn steps(&self) -> usize {
        self.0.steps.load(Ordering::SeqCst)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        registry().retain(|(_, slot)| !Arc::ptr_eq(slot, &self.0));
        ARMED.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Counts one durable step on `path`: `Some(n)` when the process dies
/// after the step's first `n` bytes.
fn crash_point(path: &Path) -> Option<usize> {
    if ARMED.load(Ordering::SeqCst) == 0 {
        return None;
    }
    let slot = registry()
        .iter()
        .find(|(dir, _)| path.starts_with(dir))
        .map(|(_, slot)| Arc::clone(slot))?;
    let step = slot.steps.fetch_add(1, Ordering::SeqCst);
    if slot.fired.load(Ordering::SeqCst) {
        return Some(0);
    }
    (step == slot.fault.step).then(|| {
        slot.fired.store(true, Ordering::SeqCst);
        slot.fault.bytes
    })
}

/// Writes `bytes` to `file` (which lives at `path`) as one step, unsynced.
pub(crate) fn write(file: &mut File, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    match crash_point(path) {
        None => file.write_all(bytes),
        Some(keep) => {
            let _ = file.write_all(&bytes[..keep.min(bytes.len())]);
            std::panic::panic_any(InjectedKill)
        }
    }
}

/// Fsyncs `file` (which lives at `path`) as one step.
pub(crate) fn sync(file: &File, path: &Path) -> std::io::Result<()> {
    match crash_point(path) {
        None => file.sync_all(),
        Some(_) => std::panic::panic_any(InjectedKill),
    }
}

/// Fsyncs the directory holding `path`, so a name created there is
/// durable.
fn sync_parent(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Creates `dir` and its missing parents, then fsyncs its parent.
pub(crate) fn create_dir(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    sync_parent(dir)
}

/// Appends `bytes` to `path` as one step, then fsyncs it (and its
/// directory, when the append created it). A last byte that is not a
/// newline ends a torn append, so a newline goes first: the fragment
/// never runs into this record. Only that last byte is read.
pub(crate) fn append(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut file = OpenOptions::new()
        .create(true)
        .append(true)
        .read(true)
        .open(path)?;
    let len = file.metadata()?.len();
    let mut out = Vec::with_capacity(bytes.len() + 1);
    if len > 0 {
        let mut last = [0u8];
        file.seek(SeekFrom::End(-1))?;
        file.read_exact(&mut last)?;
        if last[0] != b'\n' {
            out.push(b'\n');
        }
    }
    out.extend_from_slice(bytes);
    write(&mut file, path, &out)?;
    file.sync_all()?;
    if len == 0 {
        sync_parent(path)?;
    }
    Ok(())
}

/// Replaces `path` with `bytes` as one step: a temp file beside it is
/// written, fsynced and renamed over it, then the directory is fsynced.
/// A crash leaves the old file or the new one, never a torn one.
pub(crate) fn replace(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    write(&mut file, path, bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    sync_parent(path)
}

/// Opens `path` for [`write`] and [`sync`], cut back to its first `keep`
/// bytes: a torn tail is dropped and the kept prefix never rewritten.
/// Creating the file fsyncs its directory.
pub(crate) fn open_truncated(path: &Path, keep: u64) -> std::io::Result<File> {
    let created = !path.exists();
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    file.set_len(keep)?;
    if created {
        sync_parent(path)?;
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pllbist_durable_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn crashes(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .is_err_and(|payload| payload.is::<InjectedKill>())
    }

    #[test]
    fn append_heals_a_torn_tail_and_replace_is_all_or_nothing() {
        let dir = tmp_dir("paths");
        let log = dir.join("log.jsonl");
        append(&log, b"one\n").expect("append");
        std::fs::write(&log, b"one\ntw").expect("tear");
        append(&log, b"three\n").expect("append");
        assert_eq!(std::fs::read(&log).expect("read"), b"one\ntw\nthree\n");

        let file = dir.join("file.jsonl");
        replace(&file, b"old\n").expect("replace");
        let armed = arm(&dir, CrashFault { step: 0, bytes: 2 });
        assert!(crashes(|| replace(&file, b"new\n").expect("replace")));
        assert!(armed.fired());
        drop(armed);
        assert_eq!(std::fs::read(&file).expect("read"), b"old\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_armed_directory_dies_at_its_step_and_writes_nothing_after() {
        let dir = tmp_dir("armed");
        let other = tmp_dir("unarmed");
        let path = dir.join("results.jsonl");
        let mut file = open_truncated(&path, 0).expect("open");
        let armed = arm(&dir, CrashFault { step: 1, bytes: 3 });
        write(&mut file, &path, b"line0\n").expect("step 0");
        // Another directory's steps are neither counted nor killed.
        append(&other.join("j.jsonl"), b"x\n").expect("unarmed append");
        assert!(crashes(
            || write(&mut file, &path, b"line1\n").expect("step 1")
        ));
        assert!(crashes(
            || write(&mut file, &path, b"line2\n").expect("step 2")
        ));
        assert!(crashes(|| sync(&file, &path).expect("step 3")));
        assert_eq!(armed.steps(), 4);
        drop(armed);
        assert_eq!(std::fs::read(&path).expect("read"), b"line0\nlin");
        // Disarmed: the same file takes writes again, and a reopen cuts
        // the torn tail.
        let mut file = open_truncated(&path, 6).expect("reopen");
        write(&mut file, &path, b"line1\n").expect("write");
        sync(&file, &path).expect("sync");
        assert_eq!(std::fs::read(&path).expect("read"), b"line0\nline1\n");
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&other);
    }
}
