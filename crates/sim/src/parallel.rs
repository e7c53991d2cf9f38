//! The workspace's one `std::thread` executor.
//!
//! The closed-loop |H(jω)| sweep (paper §4–§5) evaluates one independent
//! FM modulation point per step — an embarrassingly parallel shape (the
//! same one batched across parameter grids by the closed-form CP-PLL
//! models of Kuznetsov et al.). [`par_map_points_worker`] schedules those
//! points by **work stealing**: a shared atomic work index over the
//! point list; each worker repeatedly claims the next unclaimed point
//! and writes its result into that point's pre-sized slot, so a
//! straggler point (e.g. a quarantine-and-retry cascade) delays only the
//! worker that owns it. [`par_try_map_points_worker`] adds per-point
//! panic containment. The campaign runner
//! ([`crate::scenario::Scenario::run_points`]) is built on it, and every
//! sweep in the workspace — the Table 2 monitor included — runs through
//! that runner.
//!
//! Determinism contract: when the per-item function is a pure function of
//! the item (as every runner capture is — each point starts from its own
//! settled loop), the output vector is **bitwise identical** for every
//! thread count, including `1`. Scheduling only changes *which worker*
//! computes an item and *when*, never the item's inputs, and results are
//! reassembled in input order.
//!
//! `threads` convention used across the workspace: `0` means "auto"
//! (use [`available_parallelism`]), `1` runs every point inline on the
//! caller's thread (no threads spawned — useful for debugging), and any
//! other value is an explicit worker count.

/// The host's available parallelism (1 if it cannot be determined).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a `threads` knob: `0` → [`available_parallelism`], anything
/// else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_parallelism()
    } else {
        threads
    }
}

/// Work-stealing per-point map: `f` is applied to every
/// `(worker, index, item)` triple by up to `threads` workers pulling from
/// a **shared atomic work index**, and results are written into a
/// pre-sized slot vector so the output is in input order regardless of
/// which worker computed what. When `f` is a pure function of
/// `(index, item)`, output is **bitwise identical** at every thread
/// count.
///
/// `f` receives the index of the worker executing the point so observers
/// (e.g. the campaign progress board's per-worker utilization and
/// heartbeat cells) can attribute work without thread-locals. The worker
/// index is **observational only** — a pure `f` must not let it
/// influence the result, or the bitwise-determinism contract across
/// thread counts breaks (the same point lands on different workers on
/// different runs).
///
/// Telemetry: one `parallel.worker` span per worker, per-worker wall
/// times in the `parallel.worker_wall_secs` histogram, per-worker
/// claimed-point counts in `parallel.points` and
/// `parallel.worker.<w>.points`, plus the scope-level
/// `parallel.workers` / `parallel.utilization` gauges (the worker count
/// reported is the count actually spawned). Telemetry never influences
/// the work.
///
/// # Panics
///
/// Re-raises a panic from `f` (the scope joins all workers first). For
/// typed per-point containment use [`par_try_map_points_worker`].
pub fn par_map_points_worker<T, R, F>(
    items: &[T],
    threads: usize,
    telemetry: &pllbist_telemetry::Collector,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> R + Sync,
{
    let workers = resolve_threads(threads).max(1).min(items.len().max(1));
    if workers <= 1 {
        let _scope = pllbist_telemetry::span!(telemetry, "parallel.scope", workers = 1u64);
        let start = std::time::Instant::now();
        let out: Vec<R> = {
            let _worker = pllbist_telemetry::span!(telemetry, "parallel.worker", worker = 0u64);
            items
                .iter()
                .enumerate()
                .map(|(i, item)| f(0, i, item))
                .collect()
        };
        if telemetry.is_enabled() {
            telemetry.observe("parallel.worker_wall_secs", start.elapsed().as_secs_f64());
            telemetry.add("parallel.points", items.len() as u64);
            telemetry.add("parallel.worker.0.points", items.len() as u64);
            telemetry.gauge("parallel.workers", 1.0);
            telemetry.gauge("parallel.utilization", 1.0);
        }
        return out;
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let scope_start = std::time::Instant::now();
    let _scope = pllbist_telemetry::span!(telemetry, "parallel.scope", workers = workers as u64);
    let f = &f;
    let next = &next;
    let (mut slots, busy): (Vec<Option<R>>, f64) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let tel = telemetry.clone();
                scope.spawn(move || {
                    let start = std::time::Instant::now();
                    let mut claimed: Vec<(usize, R)> = Vec::new();
                    {
                        let _span =
                            pllbist_telemetry::span!(tel, "parallel.worker", worker = worker);
                        loop {
                            let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            let result = f(worker, i, &items[i]);
                            claimed.push((i, result));
                        }
                    }
                    let wall = start.elapsed().as_secs_f64();
                    if tel.is_enabled() {
                        tel.observe("parallel.worker_wall_secs", wall);
                        tel.add("parallel.points", claimed.len() as u64);
                        tel.add(
                            &format!("parallel.worker.{worker}.points"),
                            claimed.len() as u64,
                        );
                    }
                    (claimed, wall)
                })
            })
            .collect();
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        let mut busy = 0.0;
        for h in handles {
            // Re-raise a worker panic with its original payload so a
            // `catch_unwind` upstream (or a `#[should_panic]` test) sees
            // the real message, not a generic join error.
            let (claimed, wall) = match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            };
            for (i, result) in claimed {
                debug_assert!(slots[i].is_none(), "point {i} claimed twice");
                slots[i] = Some(result);
            }
            busy += wall;
        }
        (slots, busy)
    });
    if telemetry.is_enabled() {
        let scope_wall = scope_start.elapsed().as_secs_f64();
        telemetry.gauge("parallel.workers", workers as f64);
        if scope_wall > 0.0 {
            telemetry.gauge("parallel.utilization", busy / (workers as f64 * scope_wall));
        }
    }
    slots
        .iter_mut()
        .enumerate()
        .map(|(i, slot)| match slot.take() {
            Some(r) => r,
            // Unreachable: the atomic index hands every i in 0..len to
            // exactly one worker, and a panicking worker re-raised above.
            None => unreachable!("point {i} was never claimed"),
        })
        .collect()
}

/// Panic-isolating variant of [`par_map_points_worker`] for per-point
/// `Result` pipelines: each point runs inside its own `catch_unwind`, so
/// a panic is rendered as
/// [`SweepPointError::from_panic`](crate::error::SweepPointError::from_panic)
/// for **that point alone**. An injected kill is re-raised
/// ([`crate::error::rethrow_if_kill`]), never contained.
///
/// Output order and the bitwise-determinism contract match
/// [`par_map_points_worker`]: on panic-free runs the two are
/// call-for-call identical.
pub fn par_try_map_points_worker<T, R, F>(
    items: &[T],
    threads: usize,
    telemetry: &pllbist_telemetry::Collector,
    f: F,
) -> Vec<Result<R, crate::error::SweepPointError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, usize, &T) -> Result<R, crate::error::SweepPointError> + Sync,
{
    par_map_points_worker(items, threads, telemetry, |worker, i, item| {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(worker, i, item))) {
            Ok(result) => result,
            // An injected SIGKILL-equivalent must *not* be contained as a
            // per-point failure: it re-raises here and unwinds the whole
            // sweep, exactly as a real process kill would end it.
            Err(payload) => Err(crate::error::SweepPointError::from_panic(
                crate::error::rethrow_if_kill(payload),
            )),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SweepPointError;
    use pllbist_telemetry::{Collector, Record, Value};

    /// [`par_map_points_worker`] with the worker index dropped.
    fn map<T: Sync, R: Send>(
        items: &[T],
        threads: usize,
        telemetry: &Collector,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<R> {
        par_map_points_worker(items, threads, telemetry, |_, i, item| f(i, item))
    }

    #[test]
    fn resolve_zero_is_auto() {
        assert_eq!(resolve_threads(0), available_parallelism());
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn par_map_preserves_order_for_any_thread_count() {
        // Early points cost the most, so workers finish out of order;
        // the slots still come back in input order.
        let items: Vec<u64> = (0..37).collect();
        let work = |_: usize, &x: &u64| (0..(37 - x) * 2_000).fold(x, |acc, k| acc ^ k) ^ x;
        let expect: Vec<u64> = items.iter().map(|x| work(0, x)).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let got = map(&items, threads, &Collector::disabled(), work);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_inputs() {
        let tel = Collector::disabled();
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, 4, &tel, |_, &x| x).is_empty());
        assert_eq!(map(&[5u32], 4, &tel, |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn float_results_are_bitwise_stable_across_thread_counts() {
        // The determinism contract the sweep paths rely on.
        let items: Vec<f64> = (1..=25).map(|k| k as f64 * 0.1).collect();
        let work = |_: usize, &x: &f64| (x.sin() * x.exp()).sqrt().to_bits();
        let tel = Collector::disabled();
        let serial = map(&items, 1, &tel, work);
        for threads in [2, 4, 16] {
            assert_eq!(
                map(&items, threads, &tel, work),
                serial,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn worker_count_clamps_to_item_count() {
        // More threads than items must not spawn idle workers: the
        // reported worker count and the worker spans stay within the
        // item count, and results are unchanged.
        let items: Vec<u32> = (0..3).collect();
        let tel = Collector::enabled();
        let got = map(&items, 64, &tel, |_, &x| x * 2);
        assert_eq!(got, vec![0, 2, 4]);
        let records = tel.drain();
        let worker_spans = records
            .iter()
            .filter(|r| matches!(r, Record::Span { name, .. } if name == "parallel.worker"))
            .count();
        assert_eq!(worker_spans, 3, "one worker span per item");
        assert!(records.iter().any(|r| matches!(
            r,
            Record::Gauge { name, value } if name == "parallel.workers" && *value == 3.0
        )));
    }

    #[test]
    fn observed_map_is_identical_with_and_without_telemetry() {
        let items: Vec<f64> = (1..=25).map(|k| k as f64 * 0.1).collect();
        let work = |_: usize, x: &f64| (x.sin() * x.exp()).sqrt().to_bits();
        let quiet = map(&items, 1, &Collector::disabled(), work);
        for threads in [1, 2, 4, 16] {
            let tel = Collector::enabled();
            let got = map(&items, threads, &tel, work);
            assert_eq!(got, quiet, "threads = {threads}");
            assert!(!tel.drain().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        // One thread runs inline on the caller's stack; the panic must
        // still surface with its own message.
        let items: Vec<u32> = (0..8).collect();
        let _ = map(&items, 1, &Collector::disabled(), |_, &x| {
            assert!(x < 6, "boom");
            x
        });
    }

    #[test]
    fn stealing_map_spawns_every_worker_it_reports() {
        // With 9 items on 4 threads, all four worker spans must appear.
        let items: Vec<u32> = (0..9).collect();
        let tel = Collector::enabled();
        let got = map(&items, 4, &tel, |_, &x| x + 1);
        assert_eq!(got, (1..=9).collect::<Vec<u32>>());
        let workers: std::collections::BTreeSet<u64> = tel
            .drain()
            .iter()
            .filter_map(|r| match r {
                Record::Span { name, fields, .. } if name == "parallel.worker" => {
                    fields.iter().find_map(|(k, v)| match v {
                        Value::U64(w) if *k == "worker" => Some(*w),
                        _ => None,
                    })
                }
                _ => None,
            })
            .collect();
        assert_eq!(workers, (0..4).collect(), "every reported worker runs");
    }

    #[test]
    fn stealing_map_preserves_order_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        let tel = Collector::disabled();
        for threads in [1, 2, 3, 4, 8, 16, 64] {
            let got = map(&items, threads, &tel, |_, &x| x * x);
            assert_eq!(got, expect, "threads = {threads}");
        }
        let empty: Vec<u64> = Vec::new();
        assert!(map(&empty, 4, &tel, |_, &x| x).is_empty());
    }

    #[test]
    fn stealing_map_is_bitwise_stable_across_thread_counts() {
        let items: Vec<f64> = (1..=41).map(|k| k as f64 * 0.07).collect();
        let work = |i: usize, x: &f64| (x.sin() * (x + i as f64).exp()).sqrt().to_bits();
        let tel = Collector::disabled();
        let serial = map(&items, 1, &tel, work);
        for threads in [2, 4, 16] {
            let tel_on = Collector::enabled();
            let got = map(&items, threads, &tel_on, work);
            assert_eq!(got, serial, "threads = {threads}");
            let records = tel_on.drain();
            // Per-worker telemetry: claimed points sum to the item count.
            let total: u64 = records
                .iter()
                .filter_map(|r| match r {
                    Record::Counter { name, value } if name == "parallel.points" => Some(*value),
                    _ => None,
                })
                .sum();
            assert_eq!(total, items.len() as u64, "threads = {threads}");
        }
    }

    #[test]
    fn stealing_try_map_contains_panics_per_point() {
        let items: Vec<u32> = (0..8).collect();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let tel = Collector::disabled();
        let results: Vec<Vec<_>> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                par_try_map_points_worker(&items, threads, &tel, |_, _, &x| {
                    assert!(x != 6, "poisoned point {x}");
                    Ok(x * 10)
                })
            })
            .collect();
        std::panic::set_hook(prev);
        for (result, &threads) in results.iter().zip(&[1usize, 2, 4]) {
            assert_eq!(result.len(), items.len(), "threads = {threads}");
            // Exactly ONE point fails — per-point containment.
            for (i, r) in result.iter().enumerate() {
                if i == 6 {
                    assert!(
                        matches!(
                            r,
                            Err(SweepPointError::WorkerPanic { message })
                                if message.contains("poisoned point 6")
                        ),
                        "threads = {threads}"
                    );
                } else {
                    assert_eq!(
                        r.as_ref().ok(),
                        Some(&(i as u32 * 10)),
                        "threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn worker_aware_map_reports_valid_workers_and_identical_results() {
        let items: Vec<f64> = (1..=33).map(|k| k as f64 * 0.11).collect();
        let tel = Collector::disabled();
        let work = |i: usize, x: &f64| (x.cos() + i as f64).to_bits();
        let plain = map(&items, 1, &tel, work);
        for threads in [1, 2, 4, 16] {
            let seen = std::sync::Mutex::new(std::collections::BTreeSet::new());
            let got = par_map_points_worker(&items, threads, &tel, |worker, i, x| {
                assert!(worker < threads, "worker {worker} out of range");
                if let Ok(mut set) = seen.lock() {
                    set.insert(worker);
                }
                work(i, x)
            });
            assert_eq!(got, plain, "threads = {threads}");
            let seen = seen.into_inner().unwrap_or_default();
            assert!(!seen.is_empty());
        }
        // Typed variant matches too when nothing fails.
        let tried = par_try_map_points_worker(&items, 4, &tel, |_, i, x| Ok(work(i, x)));
        let unwrapped: Vec<u64> = tried.into_iter().map(|r| r.unwrap_or(0)).collect();
        assert_eq!(unwrapped, plain);
    }

    #[test]
    #[should_panic(expected = "stealing boom")]
    fn stealing_map_propagates_uncontained_panics() {
        let items: Vec<u32> = (0..8).collect();
        let tel = Collector::disabled();
        let _ = map(&items, 2, &tel, |_, &x| {
            assert!(x < 6, "stealing boom");
            x
        });
    }
}
