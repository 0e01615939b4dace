//! A scoped work-stealing-free thread pool over `std::thread::scope`.
//!
//! The pipeline's parallelism is embarrassingly simple: N workers pull item
//! indexes from a shared atomic counter until the queue drains (exactly the
//! structure the paper ran on 3×8-core EC2 instances, §6). What `crossbeam`
//! provided — scoped spawns borrowing the caller's stack — `std::thread::scope`
//! has provided natively since Rust 1.63, so this module adds only the
//! work-queue loop and per-worker observability.
//!
//! The pool is the harness's fault boundary: each item runs under
//! `catch_unwind`, so a panicking item becomes a [`QuarantineRecord`] on the
//! [`PoolRun`] — item index, panic payload, and a flight-recorder dump —
//! while the worker repairs itself and keeps draining the queue. One bad
//! instruction implementation yields a *finding*, never a dead campaign.
//! An optional deadline stops dispatch when the run budget is exhausted;
//! items never claimed are counted in [`PoolRun::skipped`] so callers can
//! report a partial run honestly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::fault;
use crate::flight;

/// What one worker did during a [`for_each`] run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// Items this worker processed (successfully; quarantined items are
    /// counted on [`PoolRun::quarantined`] instead).
    pub items: usize,
    /// Wall time this worker spent inside the item closure.
    pub busy: Duration,
}

/// One quarantined failure: an item whose closure panicked (or a worker
/// thread that died outside the item boundary), recorded instead of
/// aborting the run.
#[derive(Debug, Clone)]
pub struct QuarantineRecord {
    /// The item that panicked; `None` when a worker thread died outside
    /// the per-item `catch_unwind` boundary (so the item, if any, is
    /// unknown).
    pub item: Option<usize>,
    /// The worker that hit the panic.
    pub worker: usize,
    /// The panic payload, downcast to a string when possible.
    pub message: String,
    /// Flight-recorder snapshot taken at quarantine time: the last events
    /// every thread recorded before the failure (empty when flight
    /// recording is disabled).
    pub flight: Vec<flight::FlightEvent>,
}

/// The result of a [`for_each`] run.
#[derive(Debug, Default, Clone)]
pub struct PoolRun {
    /// Per-worker statistics, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Wall time of the whole run (spawn to last join).
    pub wall: Duration,
    /// Items that panicked, in item order (deterministic regardless of
    /// which worker hit them). Empty on a healthy run.
    pub quarantined: Vec<QuarantineRecord>,
    /// Items never dispatched because the deadline expired first.
    pub skipped: usize,
    /// Whether the deadline stopped dispatch before the queue drained.
    pub deadline_hit: bool,
}

impl PoolRun {
    /// Total items processed successfully across all workers.
    pub fn items(&self) -> usize {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Total busy time summed over workers (CPU-time-like; exceeds `wall`
    /// when the run actually parallelized).
    pub fn busy(&self) -> Duration {
        self.workers.iter().map(|w| w.busy).sum()
    }
}

/// Renders a panic payload as text (`&str` / `String` payloads pass
/// through; anything else gets a placeholder).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Runs `f(i)` for every `i in 0..items` on `threads` scoped workers.
///
/// Items are claimed from a shared counter, so long items load-balance
/// naturally. `f` observes items in an unspecified order; runs with the same
/// inputs produce the same *set* of calls (callers needing deterministic
/// output must index results by item, as the pipeline does).
///
/// A panicking item is quarantined, not fatal: see [`for_each_budgeted`].
pub fn for_each(threads: usize, items: usize, f: impl Fn(usize) + Sync) -> PoolRun {
    for_each_budgeted(threads, items, None, f)
}

/// [`for_each`] with an optional dispatch deadline.
///
/// Each item runs under `catch_unwind` inside an ambient fault scope keyed
/// by its index (see [`crate::fault::scope`]), after passing the
/// `pool.item` fault point. A panicking item lands in
/// [`PoolRun::quarantined`] with the panic message and a flight-recorder
/// dump; the worker then continues with the next item — the panic poisons
/// nothing because all per-item state is owned by the closure invocation.
/// A worker thread that somehow dies outside the item boundary surfaces as
/// a quarantine record with `item: None`, never as a harness abort.
///
/// When `deadline` is given, workers stop claiming new items once it
/// passes; unclaimed items are counted in [`PoolRun::skipped`] and
/// [`PoolRun::deadline_hit`] is set. In-flight items always finish.
///
/// The pool never spawns a worker that cannot receive an item: the thread
/// count is clamped to the item count, and zero items spawn zero workers —
/// so [`PoolRun::workers`] reports live workers only, never idle padding.
/// Each worker hands its trace events and profile aggregate to the global
/// tables with one [`crate::scope::flush_thread`] as it exits, so scopes
/// closed inside `f` are visible to a subsequent export without further
/// coordination.
pub fn for_each_budgeted(
    threads: usize,
    items: usize,
    deadline: Option<Instant>,
    f: impl Fn(usize) + Sync,
) -> PoolRun {
    let started = Instant::now();
    if items == 0 {
        return PoolRun {
            workers: Vec::new(),
            wall: started.elapsed(),
            ..PoolRun::default()
        };
    }
    let threads = threads.max(1).min(items);
    let next = AtomicUsize::new(0);
    let deadline_hit = AtomicBool::new(false);
    let quarantine: Mutex<Vec<QuarantineRecord>> = Mutex::new(Vec::new());
    let attempted = AtomicUsize::new(0);
    let mut workers = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let next = &next;
                let f = &f;
                let quarantine = &quarantine;
                let deadline_hit = &deadline_hit;
                let attempted = &attempted;
                scope.spawn(move || {
                    if crate::trace::enabled() {
                        crate::trace::set_thread_name(format!("worker-{worker}"));
                    }
                    let mut stats = WorkerStats {
                        worker,
                        ..WorkerStats::default()
                    };
                    loop {
                        if let Some(d) = deadline {
                            if Instant::now() >= d {
                                deadline_hit.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        attempted.fetch_add(1, Ordering::Relaxed);
                        let t = Instant::now();
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            let _scope = fault::scope(i as u64);
                            fault::inject("pool.item", i as u64);
                            f(i)
                        }));
                        stats.busy += t.elapsed();
                        match run {
                            Ok(()) => stats.items += 1,
                            Err(payload) => {
                                crate::metrics::counter("pool.quarantined").inc();
                                let message = payload_message(payload.as_ref());
                                flight::note("pool.quarantine", || {
                                    format!("item {i} worker {worker}: {message}")
                                });
                                quarantine.lock().unwrap_or_else(|e| e.into_inner()).push(
                                    QuarantineRecord {
                                        item: Some(i),
                                        worker,
                                        message,
                                        flight: flight::snapshot(),
                                    },
                                );
                            }
                        }
                    }
                    crate::scope::flush_thread();
                    stats
                })
            })
            .collect();
        for (worker, h) in handles.into_iter().enumerate() {
            // Even the join path must not abort the harness: a worker that
            // died outside the per-item catch_unwind (a panic in the pool's
            // own epilogue, or a foreign unwind) becomes a quarantine
            // record attributed to the worker, with no item index.
            match h.join() {
                Ok(stats) => workers.push(stats),
                Err(payload) => {
                    crate::metrics::counter("pool.quarantined").inc();
                    let message = payload_message(payload.as_ref());
                    quarantine
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(QuarantineRecord {
                            item: None,
                            worker,
                            message,
                            flight: flight::snapshot(),
                        });
                }
            }
        }
    });
    let mut quarantined = quarantine.into_inner().unwrap_or_else(|e| e.into_inner());
    // Item order, not arrival order: deterministic across thread counts.
    quarantined.sort_by_key(|q| q.item);
    let skipped = items - attempted.load(Ordering::Relaxed);
    PoolRun {
        workers,
        wall: started.elapsed(),
        quarantined,
        skipped,
        deadline_hit: deadline_hit.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn processes_every_item_exactly_once() {
        let _g = crate::fault::test_lock();
        let seen = Mutex::new(vec![0u32; 100]);
        let run = for_each(4, 100, |i| {
            seen.lock().unwrap()[i] += 1;
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
        assert_eq!(run.items(), 100);
        assert_eq!(run.workers.len(), 4);
        assert!(run.quarantined.is_empty());
        assert_eq!(run.skipped, 0);
        assert!(!run.deadline_hit);
    }

    #[test]
    fn zero_items_is_a_no_op() {
        let _g = crate::fault::test_lock();
        let run = for_each(8, 0, |_| panic!("must not be called"));
        assert_eq!(run.items(), 0);
        assert!(
            run.workers.is_empty(),
            "zero items must spawn zero workers, not report idle ones"
        );
    }

    #[test]
    fn clamps_thread_count_to_items() {
        let _g = crate::fault::test_lock();
        let run = for_each(16, 3, |_| {});
        assert_eq!(run.workers.len(), 3);
        assert_eq!(run.items(), 3);
    }

    #[test]
    fn single_thread_is_sequential() {
        let _g = crate::fault::test_lock();
        let order = Mutex::new(Vec::new());
        for_each(1, 10, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_item_is_quarantined_and_the_rest_complete() {
        let _g = crate::fault::test_lock();
        for threads in [1, 2, 8] {
            let run = for_each(threads, 20, |i| {
                if i == 7 {
                    panic!("boom on {i}");
                }
            });
            assert_eq!(run.items(), 19, "{threads} threads");
            assert_eq!(run.quarantined.len(), 1);
            let q = &run.quarantined[0];
            assert_eq!(q.item, Some(7));
            assert_eq!(q.message, "boom on 7");
            assert_eq!(run.skipped, 0);
        }
    }

    #[test]
    fn multiple_quarantines_sort_by_item() {
        let _g = crate::fault::test_lock();
        let run = for_each(4, 30, |i| {
            if i % 10 == 3 {
                panic!("bad item");
            }
        });
        assert_eq!(run.items(), 27);
        let items: Vec<_> = run.quarantined.iter().map(|q| q.item).collect();
        assert_eq!(items, vec![Some(3), Some(13), Some(23)]);
    }

    #[test]
    fn expired_deadline_skips_all_items() {
        let _g = crate::fault::test_lock();
        let ran = Mutex::new(0usize);
        let run = for_each_budgeted(4, 50, Some(Instant::now()), |_| {
            *ran.lock().unwrap() += 1;
        });
        assert_eq!(*ran.lock().unwrap(), 0);
        assert_eq!(run.skipped, 50);
        assert!(run.deadline_hit);
    }

    #[test]
    fn in_flight_items_finish_past_the_deadline() {
        let _g = crate::fault::test_lock();
        // Deadline in the near future: the first claims happen before it,
        // their items run to completion, and the remainder is skipped.
        let run = for_each_budgeted(
            1,
            50,
            Some(Instant::now() + Duration::from_millis(5)),
            |_| std::thread::sleep(Duration::from_millis(2)),
        );
        assert!(run.items() >= 1, "work started before the deadline runs");
        assert_eq!(run.items() + run.skipped, 50);
        assert!(run.deadline_hit);
    }

    #[test]
    fn fault_point_panics_are_quarantined() {
        let _g = crate::fault::test_lock();
        crate::fault::arm("pool.item:panic:3").unwrap();
        let run = for_each(2, 8, |_| {});
        crate::fault::disarm();
        assert_eq!(run.items(), 7);
        assert_eq!(run.quarantined.len(), 1);
        let q = &run.quarantined[0];
        assert_eq!(q.item, Some(3));
        assert!(
            q.message.contains("pool.item"),
            "message names the fault point: {}",
            q.message
        );
    }
}
