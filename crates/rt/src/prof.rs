//! The profile sink: wall-time attribution per call-site stack, exported
//! as a collapsed-stack profile.
//!
//! Where [`crate::trace`] records *individual* span events for timeline
//! visualization (every event is kept, bounded by the ring), `prof`
//! *aggregates in place*: each [`Scope`](crate::scope::Scope) that opened
//! while profiling was on adds, when it closes, one call, its total time
//! and its **self time** (total minus time spent in child scopes) to the
//! entry for its stack path (`root;child;leaf`) on the thread's scope
//! stack. The thread's aggregate is merged into a process-global table
//! when the thread flushes, and [`export`] writes the table as a
//! collapsed-stack `.folded` file under `target/prof/` — the format
//! `inferno`, speedscope, and `flamegraph.pl` all consume (one line per
//! stack: `frame;frame;frame <self-µs>`).
//!
//! Design constraints, matching the rest of the observability layer:
//!
//! * **Off by default, one relaxed load per scope.** Enable with
//!   `POKEMU_PROF=1` or [`set_enabled`]. Profiling never feeds back into
//!   counter metrics or exploration decisions, so the deterministic-replay
//!   guarantees are untouched.
//! * **No locks and no allocation on the hot path.** A close looks its
//!   path up in a thread-local `BTreeMap` by `&str` and allocates only the
//!   first time a path is seen; the global table is only touched by
//!   [`crate::scope::flush_thread`] (pool workers flush on exit) and
//!   [`export`].
//! * **Wall time only.** Self-time is wall-clock nanoseconds; the folded
//!   export rounds to microseconds because that is what flamegraph
//!   tooling expects as integer sample counts.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable that turns profiling on (any non-empty value
/// other than `0`) and makes the pipeline export a `.folded` profile when
/// it finishes.
pub const PROF_ENV: &str = "POKEMU_PROF";

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_CHECKED: OnceLock<bool> = OnceLock::new();

/// `true` when `POKEMU_PROF` was set in the environment at first check.
pub fn env_enabled() -> bool {
    *ENV_CHECKED.get_or_init(|| {
        std::env::var(PROF_ENV)
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false)
    })
}

/// Whether profiling is currently on. One relaxed load — this is the
/// per-scope cost of this sink when profiling is disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) || env_enabled()
}

/// Turns profiling on or off process-wide. The environment variable
/// [`PROF_ENV`] wins over `set_enabled(false)`.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Accumulated statistics for one stack path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStat {
    /// Number of times this exact stack path was entered.
    pub calls: u64,
    /// Total wall nanoseconds with this path on top of the stack,
    /// including time spent in child frames.
    pub total_ns: u64,
    /// Wall nanoseconds attributed to this path itself (total minus
    /// children) — the collapsed-stack "sample count".
    pub self_ns: u64,
}

impl FrameStat {
    fn add(&mut self, other: FrameStat) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
    }
}

thread_local! {
    static THREAD: RefCell<BTreeMap<String, FrameStat>> = const { RefCell::new(BTreeMap::new()) };
}

fn global() -> &'static Mutex<BTreeMap<String, FrameStat>> {
    static GLOBAL: Mutex<BTreeMap<String, FrameStat>> = Mutex::new(BTreeMap::new());
    &GLOBAL
}

/// Adds one closed scope at stack path `path` to the thread's aggregate.
pub(crate) fn record(path: &str, total_ns: u64, self_ns: u64) {
    let stat = FrameStat {
        calls: 1,
        total_ns,
        self_ns,
    };
    THREAD.with(|agg| {
        let mut agg = agg.borrow_mut();
        match agg.get_mut(path) {
            Some(slot) => slot.add(stat),
            None => {
                agg.insert(path.to_owned(), stat);
            }
        }
    });
}

/// Merges the current thread's aggregate into the process-global table
/// (blocking).
pub(crate) fn flush_thread() {
    THREAD.with(|agg| {
        let agg = std::mem::take(&mut *agg.borrow_mut());
        if agg.is_empty() {
            return;
        }
        let mut g = global().lock().unwrap_or_else(|e| e.into_inner());
        for (path, stat) in agg {
            g.entry(path).or_default().add(stat);
        }
    });
}

/// Flushes the current thread and takes the merged table collected so far,
/// leaving the global table empty.
pub fn take() -> BTreeMap<String, FrameStat> {
    flush_thread();
    std::mem::take(&mut *global().lock().unwrap_or_else(|e| e.into_inner()))
}

/// The directory profile exports land in: `target/prof/` next to the other
/// build artifacts (honors `CARGO_TARGET_DIR`).
pub fn prof_dir() -> PathBuf {
    crate::bench::target_dir().join("prof")
}

/// Renders a merged table in collapsed-stack format: one line per stack
/// path, `frame;frame;frame <self-µs>`, sorted by path (BTreeMap order) so
/// the output is stable for a given set of measurements. Paths whose
/// self-time rounds to zero microseconds are kept with count 0 so the call
/// structure stays visible.
pub fn render_folded(table: &BTreeMap<String, FrameStat>) -> String {
    let mut out = String::new();
    for (path, stat) in table {
        out.push_str(path);
        out.push(' ');
        out.push_str(&(stat.self_ns / 1_000).to_string());
        out.push('\n');
    }
    out
}

/// Drains the merged profile and writes it to `target/prof/<run>.folded`
/// (collapsed-stack format — feed it to `inferno-flamegraph`, speedscope,
/// or `flamegraph.pl`). Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors creating or writing the output file.
pub fn export(run: &str) -> std::io::Result<PathBuf> {
    let table = take();
    let dir = prof_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{run}.folded"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    f.write_all(render_folded(&table).as_bytes())?;
    f.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{flush_thread, test_lock as serialize};
    use std::time::Duration;

    #[test]
    fn disabled_frame_returns_none() {
        let _g = serialize();
        set_enabled(false);
        if env_enabled() {
            return; // cannot observe the disabled path under POKEMU_PROF=1
        }
        take();
        crate::trace::set_enabled(true);
        drop(crate::scope!("test.prof.disabled"));
        crate::trace::set_enabled(false);
        let spans = crate::trace::drain();
        assert!(
            spans.iter().any(|e| e.name == "test.prof.disabled"),
            "the trace sink records independently of the profile sink"
        );
        assert!(take().is_empty(), "no frame with profiling off");
    }

    #[test]
    fn frames_aggregate_under_their_stack_path() {
        let _g = serialize();
        set_enabled(true);
        take(); // reset
        std::thread::spawn(|| {
            {
                let _outer = crate::scope!("outer");
                std::thread::sleep(Duration::from_millis(4));
                for _ in 0..2 {
                    let _inner = crate::scope!("inner");
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            flush_thread();
        })
        .join()
        .unwrap();
        set_enabled(false);
        let table = take();
        let outer = table["outer"];
        let inner = table["outer;inner"];
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 2, "two inner entries aggregate on one path");
        assert!(
            inner.total_ns >= 4_000_000,
            "inner total covers both sleeps"
        );
        assert!(
            outer.total_ns >= outer.self_ns + inner.total_ns,
            "outer self excludes child time: total={} self={} child={}",
            outer.total_ns,
            outer.self_ns,
            inner.total_ns
        );
        assert!(
            outer.self_ns >= 4_000_000,
            "outer keeps its own 4 ms: {}",
            outer.self_ns
        );
    }

    #[test]
    fn folded_export_is_sorted_and_parseable() {
        let _g = serialize();
        set_enabled(true);
        take();
        std::thread::spawn(|| {
            {
                let _a = crate::scope!("pipeline");
                {
                    let _b = crate::scope!("stage_b");
                    std::thread::sleep(Duration::from_millis(2));
                }
                let _c = crate::scope!("stage_a");
                std::thread::sleep(Duration::from_millis(2));
            }
            flush_thread();
        })
        .join()
        .unwrap();
        set_enabled(false);
        let path = export("rt-prof-selftest").expect("export succeeds");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "three stack paths: {text:?}");
        // Every line is `path <integer-µs>` and lines are sorted by path.
        let mut paths = Vec::new();
        for line in &lines {
            let (p, count) = line.rsplit_once(' ').expect("folded line shape");
            count.parse::<u64>().expect("integer self-µs");
            paths.push(p.to_owned());
        }
        let mut sorted = paths.clone();
        sorted.sort();
        assert_eq!(paths, sorted, "folded output is path-sorted");
        assert!(paths.iter().any(|p| p == "pipeline;stage_a"));
        assert!(paths.iter().any(|p| p == "pipeline;stage_b"));
    }
}
