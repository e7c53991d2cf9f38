//! `--progress` terminal status line for long-running ablation bins.
//!
//! Passing `--progress` to a bench bin (abl05, abl11, abl12, …) spawns
//! one background thread that rewrites a single stderr line (`\r`, no
//! scrolling) from a [`CampaignProgress`] snapshot source at ~10 Hz —
//! the same snapshot type the campaign service's live
//! `GET /jobs/<id>/progress` view serves, so a bin watched in a
//! terminal and a job polled over HTTP report through one code path.
//! The snapshot source is a closure, so a bin can feed it from a full
//! `CampaignObserver` or from a coarse standalone
//! [`pllbist_telemetry::ProgressBoard`] ticked per work unit.
//!
//! The line goes to **stderr** so `--jsonl`-style stdout consumers and
//! piped tables never see control characters. Dropping the handle stops
//! the thread and terminates the line with a newline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pllbist_telemetry::CampaignProgress;

/// Snapshot source a [`ProgressLine`] polls.
pub type ProgressSource = Arc<dyn Fn() -> CampaignProgress + Send + Sync>;

/// Whether the process was invoked with `--progress`.
pub fn progress_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--progress")
}

/// A live single-line progress display; stops on drop.
pub struct ProgressLine {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressLine {
    /// Starts the refresh thread unconditionally.
    pub fn start(label: &str, source: ProgressSource) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let label = label.to_string();
        let handle = std::thread::Builder::new()
            .name("pllbist-progress".to_string())
            .spawn(move || {
                while !thread_stop.load(Ordering::Relaxed) {
                    eprint!("\r{}", source().render_line(&label));
                    std::thread::sleep(Duration::from_millis(100));
                }
                // Final refresh so the last state survives on screen.
                eprintln!("\r{}", source().render_line(&label));
            })
            .expect("spawn progress thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Starts a line only when `--progress` was passed; `None` otherwise
    /// (callers hold the `Option` and let it drop).
    pub fn if_requested(label: &str, source: ProgressSource) -> Option<Self> {
        progress_requested().then(|| Self::start(label, source))
    }
}

impl Drop for ProgressLine {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pllbist_telemetry::ProgressBoard;

    #[test]
    fn progress_line_runs_and_stops() {
        let board = Arc::new(ProgressBoard::new(4, 1, &[]));
        board.point_done(0, true, 0.01);
        let source_board = Arc::clone(&board);
        let line = ProgressLine::start(
            "test",
            Arc::new(move || source_board.snapshot()) as ProgressSource,
        );
        board.point_done(0, true, 0.01);
        std::thread::sleep(Duration::from_millis(20));
        drop(line); // must join cleanly, not hang
        assert_eq!(board.snapshot().done, 2);
    }

    #[test]
    fn requested_flag_reads_argv() {
        // The test binary was not invoked with --progress.
        assert!(!progress_requested());
    }
}
