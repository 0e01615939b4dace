//! The one instrumentation primitive: an RAII [`Scope`] opened by
//! [`scope!`](crate::scope).
//!
//! A scope reads the clock once when it opens and once when it closes.
//! While open it sits on the thread's one scope stack, which gives trace
//! spans their parent and profile frames their `;`-joined stack path. When
//! it closes it feeds every sink that was on when it opened:
//!
//! * [`crate::trace`]: one Chrome-trace [`SpanEvent`](crate::trace::SpanEvent)
//!   with its parent link and `key = value` attributes (`POKEMU_TRACE`);
//! * [`crate::prof`]: the folded-profile aggregate of calls, total and self
//!   time per stack path (`POKEMU_PROF`);
//! * an attached [`Timer`] ([`Scope::timer`]), in every run.
//!
//! With both sinks off a scope costs two relaxed loads, two clock reads
//! and its timer add; it touches no thread-local state and its attribute
//! expressions are never evaluated. [`Scope::elapsed`] and
//! [`Scope::close`] hand the measured time to callers in every run, which
//! is what keeps `StageStats` populated with tracing off. Scopes never feed
//! counters, so the deterministic-replay guarantees hold with any sink on.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use crate::metrics::Timer;
use crate::{prof, trace};

struct Frame {
    /// Trace span id, or 0 when the trace sink was off at open.
    id: u64,
    /// Time spent in closed child scopes, subtracted for self time.
    child_ns: u64,
    /// Length of the stack path before this frame was pushed; closing
    /// truncates back to it.
    path_len: usize,
}

#[derive(Default)]
struct Stack {
    frames: Vec<Frame>,
    /// The open frames' names joined by `;`, maintained incrementally so
    /// the profile sink never re-joins them.
    path: String,
}

thread_local! {
    static STACK: RefCell<Stack> = RefCell::new(Stack::default());
}

/// One timed interval. Open it with [`scope!`](crate::scope); it closes
/// when dropped or through [`Scope::close`].
#[derive(Debug)]
#[must_use = "dropping the scope immediately records a zero-length interval"]
pub struct Scope {
    name: &'static str,
    start: Instant,
    /// This scope's index on the thread's stack; `None` when neither
    /// trace nor profile was on at open.
    depth: Option<usize>,
    profiled: bool,
    /// Trace span id and parent; id 0 when tracing was off at open.
    id: u64,
    parent: u64,
    attrs: Vec<(&'static str, String)>,
    timer: Option<Timer>,
}

impl Scope {
    /// Opens a scope. `attrs` is evaluated only when tracing is on; prefer
    /// the [`scope!`](crate::scope) macro, which builds it.
    pub fn open(name: &'static str, attrs: impl FnOnce() -> Vec<(&'static str, String)>) -> Scope {
        let traced = trace::enabled();
        let profiled = prof::enabled();
        let (id, attrs) = if traced {
            (trace::next_span_id(), attrs())
        } else {
            (0, Vec::new())
        };
        let mut parent = 0;
        let depth = (traced || profiled).then(|| {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                // The nearest enclosing scope that is a trace span.
                parent = s
                    .frames
                    .iter()
                    .rev()
                    .map(|f| f.id)
                    .find(|&id| id != 0)
                    .unwrap_or(0);
                let path_len = s.path.len();
                if path_len > 0 {
                    s.path.push(';');
                }
                s.path.push_str(name);
                s.frames.push(Frame {
                    id,
                    child_ns: 0,
                    path_len,
                });
                s.frames.len() - 1
            })
        });
        // The one clock read at open, after the bookkeeping above.
        let start = Instant::now();
        Scope {
            name,
            start,
            depth,
            profiled,
            id,
            parent,
            attrs,
            timer: None,
        }
    }

    /// Attaches a timer that accumulates this scope's duration when it
    /// closes, whatever sinks are on.
    pub fn timer(mut self, timer: Timer) -> Scope {
        self.timer = Some(timer);
        self
    }

    /// Time since the scope opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the scope now and returns the duration every sink recorded.
    pub fn close(mut self) -> Duration {
        let dur = self.finish();
        // Everything `finish` did not consume is plain data (the attribute
        // vector is already empty), so skipping `Drop` leaks nothing.
        std::mem::forget(self);
        dur
    }

    fn finish(&mut self) -> Duration {
        let dur = self.start.elapsed();
        let ns = dur.as_nanos() as u64;
        if let Some(timer) = self.timer {
            timer.add_ns(ns);
        }
        if let Some(depth) = self.depth {
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                // Truncating to this scope's own depth also pops inner
                // scopes that leaked, so a parent never closes a child's frame.
                let Some(frame) = s.frames.drain(depth..).next() else {
                    return;
                };
                if self.profiled {
                    prof::record(&s.path, ns, ns.saturating_sub(frame.child_ns));
                }
                s.path.truncate(frame.path_len);
                if let Some(parent) = s.frames.last_mut() {
                    parent.child_ns += ns;
                }
            });
        }
        if self.id != 0 {
            trace::record(
                self.name,
                self.id,
                self.parent,
                trace::ns_since_epoch(self.start),
                ns,
                std::mem::take(&mut self.attrs),
            );
        }
        dur
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Hands this thread's trace events and profile aggregate to the global
/// tables (blocking). Pool workers call it as they exit; call it on other
/// long-lived threads before [`trace::export`] or [`prof::export`].
pub fn flush_thread() {
    trace::flush_thread();
    prof::flush_thread();
}

/// Opens a [`Scope`] named `name` with optional `key = value` attributes:
///
/// ```
/// let insn = "push_r32";
/// let scope = pokemu_rt::scope!("explore_state_space", insn = insn, paths = 42)
///     .timer(pokemu_rt::metrics::timer("example.ns"));
/// let took = scope.close();
/// assert!(pokemu_rt::metrics::timer("example.ns").get_ns() >= took.as_nanos() as u64);
/// ```
///
/// The attribute expressions are evaluated only when tracing is on.
#[macro_export]
macro_rules! scope {
    ($name:expr) => {
        $crate::scope::Scope::open($name, ::std::vec::Vec::new)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::scope::Scope::open($name, || {
            vec![$((stringify!($key), format!("{}", $value))),+]
        })
    };
}

/// Trace and profile enablement is process-global; every test that turns
/// a sink on or reads a global table serializes on this one lock.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn one_close_feeds_every_sink_with_one_duration() {
        let _g = test_lock();
        let timer = metrics::timer("test.scope.sinks.ns");

        trace::set_enabled(true);
        prof::set_enabled(true);
        trace::drain();
        prof::take();
        let before = timer.get_ns();
        let dur = crate::scope!("test.scope.sinks", k = 1)
            .timer(timer)
            .close();
        trace::set_enabled(false);
        prof::set_enabled(false);
        let ns = dur.as_nanos() as u64;
        let events: Vec<_> = trace::drain()
            .into_iter()
            .filter(|e| e.name == "test.scope.sinks")
            .collect();
        assert_eq!(events.len(), 1, "one span event");
        assert_eq!(events[0].dur_ns, ns);
        assert_eq!(events[0].attrs, vec![("k", "1".to_owned())]);
        let table = prof::take();
        let frames: Vec<_> = table
            .iter()
            .filter(|(p, _)| p.ends_with("test.scope.sinks"))
            .collect();
        assert_eq!(frames.len(), 1, "one folded entry: {table:?}");
        let stat = frames[0].1;
        assert_eq!((stat.calls, stat.total_ns, stat.self_ns), (1, ns, ns));
        assert_eq!(timer.get_ns() - before, ns, "one timer increment");

        if trace::env_enabled() || prof::env_enabled() {
            return; // the sinks cannot be turned off under POKEMU_TRACE/PROF
        }
        let before = timer.get_ns();
        let dur = crate::scope!("test.scope.sinks", k = 2)
            .timer(timer)
            .close();
        assert_eq!(timer.get_ns() - before, dur.as_nanos() as u64);
        assert!(trace::drain().iter().all(|e| e.name != "test.scope.sinks"));
        assert!(prof::take().is_empty(), "no frame with profiling off");
        assert!(STACK.with(|s| s.borrow().frames.is_empty()));
    }
}
