//! The trace sink: Chrome `trace_event` spans recorded by closing
//! [`Scope`](crate::scope::Scope)s.
//!
//! Design (the whole layer is zero-dependency and safe Rust):
//!
//! * Each scope that opens while tracing is on becomes one *complete*
//!   [`SpanEvent`] when it closes: begin timestamp, duration, parent span
//!   id (the nearest enclosing traced scope on the thread's scope stack)
//!   and `key=value` attributes.
//! * Each thread owns a bounded event buffer (a flat ring: events append
//!   until capacity; when full, new events are *dropped and counted* in the
//!   `trace.dropped_events` metric rather than blocking the instrumented
//!   code). The recording hot path never takes a lock: buffers drain to the
//!   global collector in batches with `try_lock`, at the half-full
//!   high-water mark, and with a blocking flush only at explicit sync
//!   points ([`crate::scope::flush_thread`], pool-worker exit, [`export`]).
//! * Recording is **off by default**; a scope then pays one relaxed atomic
//!   load for this sink. Enable with `POKEMU_TRACE=1` in the environment or
//!   [`set_enabled`] (the pipeline does this for
//!   `PipelineConfig { trace: true }`).
//! * [`export`] serializes everything collected so far to
//!   `target/trace/<run>.trace.json` (Chrome `trace_event` JSON, loadable
//!   in `chrome://tracing` or <https://ui.perfetto.dev>) and
//!   `target/trace/<run>.metrics.jsonl` (one metric per line, see
//!   [`crate::metrics::MetricsSnapshot::to_jsonl`]).
//!
//! Timestamps are relative to a process-wide epoch fixed at first use, so
//! they are monotonic and comparable across threads but carry no wall-clock
//! meaning — golden comparisons must only ever look at metric *counters*,
//! never at timestamps.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::metrics;

/// Environment variable that turns span recording on (any non-empty value
/// other than `0`) and makes the pipeline export a trace when it finishes.
pub const TRACE_ENV: &str = "POKEMU_TRACE";

/// Default per-thread event-buffer capacity (events, not bytes).
pub const DEFAULT_BUFFER_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_CHECKED: OnceLock<bool> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// `true` when `POKEMU_TRACE` was set in the environment at first check.
pub fn env_enabled() -> bool {
    *ENV_CHECKED.get_or_init(|| {
        std::env::var(TRACE_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Whether span recording is currently on. One relaxed load — this is the
/// per-scope cost of this sink when tracing is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || env_enabled()
}

/// Turns span recording on or off process-wide. The environment variable
/// [`TRACE_ENV`] wins over `set_enabled(false)`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
pub fn now_ns() -> u64 {
    ns_since_epoch(Instant::now())
}

/// `t` as nanoseconds since the process trace epoch.
pub(crate) fn ns_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// A fresh process-wide span id (never 0).
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// One completed span, as stored in the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static: instrumentation sites name their spans in code).
    pub name: &'static str,
    /// Unique span id (process-wide).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root span.
    pub parent: u64,
    /// Trace thread id (small dense integers assigned at first use).
    pub tid: u64,
    /// Begin timestamp, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// `key=value` attributes captured at span entry.
    pub attrs: Vec<(&'static str, String)>,
}

struct ThreadBuf {
    tid: u64,
    buf: Vec<SpanEvent>,
    cap: usize,
}

thread_local! {
    static THREAD: RefCell<ThreadBuf> = RefCell::new(ThreadBuf {
        tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
        buf: Vec::new(),
        cap: DEFAULT_BUFFER_CAPACITY,
    });
}

fn collector() -> &'static Mutex<Vec<SpanEvent>> {
    static COLLECTOR: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

fn thread_names() -> &'static Mutex<BTreeMap<u64, String>> {
    static NAMES: OnceLock<Mutex<BTreeMap<u64, String>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Names the current thread in exported traces (e.g. `worker-3`).
pub fn set_thread_name(name: impl Into<String>) {
    let tid = THREAD.with(|t| t.borrow().tid);
    thread_names()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(tid, name.into());
}

/// Overrides the current thread's event-buffer capacity. Intended for tests
/// (tiny capacities make drop behavior observable); production code keeps
/// [`DEFAULT_BUFFER_CAPACITY`].
pub fn set_thread_buffer_capacity(cap: usize) {
    THREAD.with(|t| t.borrow_mut().cap = cap.max(1));
}

/// Buffers one closed span on the current thread.
pub(crate) fn record(
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    dur_ns: u64,
    attrs: Vec<(&'static str, String)>,
) {
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        if t.buf.len() >= t.cap {
            // Buffer full and the collector is busy: drop rather than block
            // or reallocate. The count makes the loss visible (CI fails a
            // traced run with any drops).
            if let Ok(mut g) = collector().try_lock() {
                g.append(&mut t.buf);
            } else {
                metrics::counter("trace.dropped_events").inc();
                return;
            }
        }
        let tid = t.tid;
        t.buf.push(SpanEvent {
            name,
            id,
            parent,
            tid,
            start_ns,
            dur_ns,
            attrs,
        });
        if t.buf.len() * 2 >= t.cap {
            // High-water mark: drain opportunistically, never blocking.
            if let Ok(mut g) = collector().try_lock() {
                g.append(&mut t.buf);
            }
        }
    });
}

/// Drains the current thread's buffer into the global collector (blocking).
pub(crate) fn flush_thread() {
    THREAD.with(|t| {
        let mut t = t.borrow_mut();
        if !t.buf.is_empty() {
            collector()
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .append(&mut t.buf);
        }
    });
}

/// Flushes the current thread and takes every event collected so far.
pub fn drain() -> Vec<SpanEvent> {
    flush_thread();
    std::mem::take(&mut *collector().lock().unwrap_or_else(|e| e.into_inner()))
}

/// The span guard: the one instrumentation [`Scope`](crate::scope::Scope),
/// under the name trace consumers know it by.
pub type SpanGuard = crate::scope::Scope;

/// Opens a scope with pre-built attributes when tracing is on; `None`
/// otherwise. Instrumentation sites use [`scope!`](crate::scope), which
/// also opens a scope when only profiling or a timer wants it.
pub fn span_with(name: &'static str, attrs: Vec<(&'static str, String)>) -> Option<SpanGuard> {
    enabled().then(|| SpanGuard::open(name, || attrs))
}

/// Paths written by [`export`].
#[derive(Debug, Clone)]
pub struct TracePaths {
    /// The Chrome `trace_event` JSON file.
    pub trace_json: PathBuf,
    /// The metrics JSONL dump.
    pub metrics_jsonl: PathBuf,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes one event as a Chrome `trace_event` *complete* event object.
fn event_json(ev: &SpanEvent) -> String {
    let mut args = format!("\"span\":{},\"parent\":{}", ev.id, ev.parent);
    for (k, v) in &ev.attrs {
        args.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
    }
    format!(
        "{{\"name\":\"{}\",\"cat\":\"pokemu\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
         \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
        json_escape(ev.name),
        ev.tid,
        ev.start_ns as f64 / 1000.0,
        ev.dur_ns as f64 / 1000.0,
    )
}

/// The directory trace exports land in: `target/trace/` next to the other
/// build artifacts (honors `CARGO_TARGET_DIR`). `pokemu-report` reads the
/// files back from here.
pub fn trace_dir() -> PathBuf {
    crate::bench::target_dir().join("trace")
}

/// Drains all collected spans and the metrics registry to
/// `target/trace/<run>.trace.json` + `target/trace/<run>.metrics.jsonl`.
///
/// The trace file is a Chrome `trace_event` JSON object — open it in
/// `chrome://tracing` or drop it onto <https://ui.perfetto.dev>. Events
/// recorded by threads that are still alive and have not flushed are not
/// included; the pool flushes its workers automatically.
///
/// # Errors
///
/// Propagates filesystem errors creating or writing the output files.
pub fn export(run: &str) -> std::io::Result<TracePaths> {
    let events = drain();
    let dir = trace_dir();
    std::fs::create_dir_all(&dir)?;
    let trace_json = dir.join(format!("{run}.trace.json"));
    let metrics_jsonl = dir.join(format!("{run}.metrics.jsonl"));

    let mut f = std::io::BufWriter::new(std::fs::File::create(&trace_json)?);
    write!(f, "{{\"traceEvents\":[")?;
    let mut first = true;
    for (tid, name) in thread_names()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
    {
        if !first {
            write!(f, ",")?;
        }
        first = false;
        write!(
            f,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        )?;
    }
    for ev in &events {
        if !first {
            write!(f, ",")?;
        }
        first = false;
        write!(f, "{}", event_json(ev))?;
    }
    write!(
        f,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"run\":\"{}\"}}}}",
        json_escape(run)
    )?;
    f.flush()?;

    std::fs::write(&metrics_jsonl, metrics::snapshot().to_jsonl())?;
    Ok(TracePaths {
        trace_json,
        metrics_jsonl,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::test_lock as serialize;

    #[test]
    fn disabled_span_macro_returns_none() {
        let _g = serialize();
        set_enabled(false);
        if env_enabled() {
            return; // cannot observe the disabled path under POKEMU_TRACE=1
        }
        drain();
        assert!(span_with("test.disabled", Vec::new()).is_none());
        drop(crate::scope!("test.disabled", ignored = 1));
        assert!(drain().iter().all(|e| e.name != "test.disabled"));
    }

    #[test]
    fn spans_nest_within_a_thread() {
        let _g = serialize();
        set_enabled(true);
        drain();
        {
            let _outer = crate::scope!("test.outer");
            let _inner = crate::scope!("test.inner", depth = 2);
        }
        set_enabled(false);
        let events = drain();
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        assert_eq!(inner.parent, outer.id, "inner span links to outer");
        assert_eq!(outer.parent, 0, "outer span is a root");
        assert_eq!(inner.tid, outer.tid);
        assert!(inner.start_ns >= outer.start_ns);
        assert_eq!(inner.attrs, vec![("depth", "2".to_owned())]);
        // Inner drops first, so it is recorded first.
        let io = events.iter().position(|e| e.name == "test.inner").unwrap();
        let oo = events.iter().position(|e| e.name == "test.outer").unwrap();
        assert!(io < oo);
    }

    #[test]
    fn spans_on_other_threads_get_their_own_stack() {
        let _g = serialize();
        set_enabled(true);
        drain();
        let main_tid = THREAD.with(|t| t.borrow().tid);
        {
            let _outer = crate::scope!("test.cross_outer");
            std::thread::spawn(|| {
                let _child = crate::scope!("test.cross_child");
                drop(_child);
                flush_thread();
            })
            .join()
            .unwrap();
        }
        set_enabled(false);
        let events = drain();
        let child = events
            .iter()
            .find(|e| e.name == "test.cross_child")
            .unwrap();
        assert_eq!(
            child.parent, 0,
            "a span on a fresh thread is a root, not a child of another thread's span"
        );
        assert_ne!(child.tid, main_tid);
    }

    #[test]
    fn wraparound_drops_are_counted() {
        let _g = serialize();
        set_enabled(true);
        drain();
        let dropped = metrics::counter("trace.dropped_events");
        let before = dropped.get();
        // Hold the collector lock so buffers cannot drain, with a tiny
        // capacity so the ring fills immediately.
        let hold = collector().lock().unwrap_or_else(|e| e.into_inner());
        set_thread_buffer_capacity(4);
        for _ in 0..10 {
            let _s = crate::scope!("test.dropped");
        }
        drop(hold);
        set_thread_buffer_capacity(DEFAULT_BUFFER_CAPACITY);
        set_enabled(false);
        let kept = drain().iter().filter(|e| e.name == "test.dropped").count();
        let dropped_now = dropped.get() - before;
        assert!(dropped_now > 0, "overflow must be counted");
        assert_eq!(kept as u64 + dropped_now, 10, "kept + dropped = recorded");
    }

    #[test]
    fn export_writes_parseable_chrome_trace() {
        let _g = serialize();
        set_enabled(true);
        drain();
        {
            let _s = crate::scope!("test.export", insn = "push \"eax\"");
        }
        set_enabled(false);
        let paths = export("rt-trace-selftest").expect("export succeeds");
        let text = std::fs::read_to_string(&paths.trace_json).unwrap();
        let v = crate::json::parse(&text).expect("trace JSON parses");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let ours = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("test.export"))
            .expect("exported span present");
        assert_eq!(ours.get("ph").and_then(|p| p.as_str()), Some("X"));
        let args = ours.get("args").unwrap();
        assert_eq!(
            args.get("insn").and_then(|i| i.as_str()),
            Some("push \"eax\""),
            "attribute quoting survives the round trip"
        );
        let metrics_text = std::fs::read_to_string(&paths.metrics_jsonl).unwrap();
        for line in metrics_text.lines() {
            crate::json::parse(line).expect("every metrics line parses");
        }
    }

    #[test]
    fn timed_measures_even_when_disabled() {
        let _g = serialize();
        set_enabled(false);
        let scope = crate::scope!("test.timed");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(scope.elapsed() >= std::time::Duration::from_millis(2));
        assert!(scope.close() >= std::time::Duration::from_millis(2));
    }
}
