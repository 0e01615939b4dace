//! Metric assembly: the end-to-end figures of an untraced run and the
//! per-layer figures of a traced one, plus the result line.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;

use pokemu_rt::metrics::{HistogramSnapshot, MetricsSnapshot};
use pokemu_rt::trace::SpanEvent;

use crate::layers::{Tally, ID_ATTR, TARGETS};

/// One benchmark span, read back from the `rt::trace` events.
#[derive(Debug, Clone)]
pub struct Span {
    /// The trace layer's span id.
    pub sid: u64,
    /// Layer or glue name (see [`GLUE`]).
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch.
    pub end: u64,
    /// The nearest enclosing benchmark span on the same thread (0 = none).
    pub parent: u64,
    /// Shared id of the instruction or program the span served (0 = none).
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans that structure the run but are no layer of the program: the run
/// root, the main thread waiting on the pool, and one pool item.
pub const GLUE: [&str; 3] = ["run", "pool.wait", "pool.item"];

/// The benchmark's spans among the trace events, in start order. A span
/// the crates record themselves (no [`ID_ATTR`]) is left out, and its
/// time stays in the benchmark span around it; each benchmark span's
/// parent is its nearest benchmark ancestor, and an id of 0 is inherited
/// from that ancestor.
pub fn benchmark_spans(mut events: Vec<SpanEvent>) -> Vec<Span> {
    // Span ids are handed out as spans open, so a parent sorts before its
    // children. Per span: (nearest benchmark span, inclusive; its id).
    events.sort_by_key(|e| e.id);
    let mut nearest: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        let (parent, inherited) = nearest.get(&e.parent).copied().unwrap_or((0, 0));
        let own = e
            .attrs
            .iter()
            .find(|(k, _)| *k == ID_ATTR)
            .map(|(_, v)| v.parse::<u64>().unwrap_or(0));
        let Some(own) = own else {
            nearest.insert(e.id, (parent, inherited));
            continue;
        };
        let id = if own == 0 { inherited } else { own };
        nearest.insert(e.id, (e.id, id));
        out.push(Span {
            sid: e.id,
            name: e.name,
            start: e.start_ns,
            end: e.start_ns + e.dur_ns,
            parent,
            id,
        });
    }
    out.sort_by_key(|s| (s.start, s.sid));
    out
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_ns(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child.entry(s.parent).or_default() += s.ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = child.get(&s.sid).copied().unwrap_or(0);
            (s.sid, s.ns().saturating_sub(covered))
        })
        .collect()
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"sid\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":\"{:016x}\"}}",
            s.sid, s.name, s.start, s.end, s.parent, s.id
        )?;
    }
    out.flush()
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Builds a metric.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Median of a sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile of a sample (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

/// Prints the result line and returns the exit code.
pub fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> i32 {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Wall-clock split of one pipeline-shaped pass: a parallel section that
/// generates and executes, then a sequential analysis.
#[derive(Debug, Default, Clone, Copy)]
pub struct StageSums {
    /// Worker time generating and executing tests.
    pub work_ns: u64,
    /// Wall time of the parallel sections.
    pub parallel_ns: u64,
    /// Wall time of the sequential analysis.
    pub analyze_ns: u64,
    /// Wall time of the whole pass.
    pub total_ns: u64,
}

impl StageSums {
    /// Adds another pass or call.
    pub fn add(&mut self, o: StageSums) {
        self.work_ns += o.work_ns;
        self.parallel_ns += o.parallel_ns;
        self.analyze_ns += o.analyze_ns;
        self.total_ns += o.total_ns;
    }
}

/// Everything the per-layer figures are computed from.
pub struct Traced<'a> {
    /// Spans of the traced set-up and traced pass.
    pub spans: &'a [Span],
    /// Registry delta over the traced set-up and traced pass.
    pub delta: &'a MetricsSnapshot,
    /// Replica tallies over the same window.
    pub tally: &'a Tally,
    /// Pipeline stage split.
    pub stages: StageSums,
    /// Untraced pass wall, seconds.
    pub untraced_s: f64,
    /// Traced pass wall, seconds.
    pub traced_s: f64,
}

fn hist(delta: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    delta.histograms.get(name).cloned().unwrap_or_default()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(t: &Traced) -> Vec<Metric> {
    let selfs = self_ns(t.spans);
    let mut durs: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut self_sum: HashMap<&str, u64> = HashMap::new();
    for s in t.spans {
        durs.entry(s.name).or_default().push(s.ns() as f64);
        *self_sum.entry(s.name).or_default() += selfs[&s.sid];
    }
    let d = |name: &str| durs.get(name).cloned().unwrap_or_default();
    let total_ms = |name: &str| d(name).iter().sum::<f64>() / 1e6;
    let self_ms = |name: &str| self_sum.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let c = |name: &str| t.delta.counter(name) as f64;

    let explore = d("explore.state_space");
    let solver_ns: u64 = pokemu::solver::origin::ORIGINS
        .iter()
        .map(|o| t.delta.timer_ns(&format!("solver.ns.{o}")))
        .sum();
    let compares = d("compare");
    let mut out = vec![
        metric(
            "explore.state_space.insn_p50_ms",
            quantile(&explore, 0.5) / 1e6,
            "ms",
        ),
        metric(
            "explore.state_space.insn_p70_ms",
            quantile(&explore, 0.7) / 1e6,
            "ms",
        ),
        metric("symx.forks", c("symx.forks"), "count"),
        metric("symx.summary_hits", c("symx.summary_hits"), "count"),
        metric("solver.queries", c("solver.queries"), "count"),
        metric("solver.unknown", c("solver.unknown"), "count"),
        metric("solver.self_ms", solver_ns as f64 / 1e6, "ms"),
        metric(
            "solver.query_p99_us",
            hist(t.delta, "solver.query_ns").p99() as f64 / 1e3,
            "us",
        ),
        metric("testgen.programs", t.tally.programs as f64, "count"),
        metric("testgen.code_bytes", t.tally.code_bytes as f64, "bytes"),
    ];
    for (i, tgt) in TARGETS.iter().enumerate() {
        let [run, boot, exec, snapshot] = tgt.spans();
        let k = tgt.key();
        let runs = d(run);
        out.extend([
            metric(
                format!("target.{k}.run_p50_ms"),
                quantile(&runs, 0.5) / 1e6,
                "ms",
            ),
            metric(
                format!("target.{k}.run_p99_ms"),
                quantile(&runs, 0.99) / 1e6,
                "ms",
            ),
            metric(format!("target.{k}.boot_ms"), total_ms(boot), "ms"),
            metric(format!("target.{k}.exec_ms"), total_ms(exec), "ms"),
            metric(format!("target.{k}.snapshot_ms"), total_ms(snapshot), "ms"),
            metric(
                format!("target.{k}.guest_insns"),
                t.tally.insns[i] as f64,
                "count",
            ),
            metric(
                format!("target.{k}.step_limited"),
                t.tally.step_limited[i] as f64,
                "count",
            ),
        ]);
    }
    let lookups = t.tally.lofi_hits + t.tally.lofi_translations;
    out.extend([
        metric(
            "lofi.tb_hit_ratio",
            ratio(t.tally.lofi_hits as f64, lookups as f64),
            "ratio",
        ),
        metric(
            "lofi.translations",
            t.tally.lofi_translations as f64,
            "count",
        ),
        metric("lofi.chain_hits", c("lofi.chain.hits"), "count"),
        metric(
            "lofi.superblock_execs",
            c("lofi.chain.superblock_execs"),
            "count",
        ),
        metric("lofi.irskip_execs", c("lofi.chain.irskip_execs"), "count"),
        metric(
            "snapshot.mem_bytes",
            ratio(t.tally.snap_bytes as f64, t.tally.snaps as f64),
            "bytes",
        ),
        metric("compare.calls", compares.len() as f64, "count"),
        metric("compare.p50_us", quantile(&compares, 0.5) / 1e3, "us"),
        metric("compare.p99_us", quantile(&compares, 0.99) / 1e3, "us"),
        metric("compare.self_ms", self_ms("compare"), "ms"),
        metric(
            "pipeline.analyze_share",
            ratio(t.stages.analyze_ns as f64, t.stages.total_ns as f64),
            "ratio",
        ),
        metric(
            "pipeline.parallel_eff",
            ratio(
                t.stages.work_ns as f64,
                (crate::THREADS as u64 * t.stages.parallel_ns) as f64,
            ),
            "ratio",
        ),
        metric(
            "pool.busy_share",
            ratio(t.tally.pool_busy_ns as f64, t.tally.pool_capacity_ns as f64),
            "ratio",
        ),
        metric(
            "pool.straggler_share",
            ratio(
                t.tally.pool_straggler_ns as f64,
                t.tally.pool_wall_ns as f64,
            ),
            "ratio",
        ),
        metric("setup.baseline_ms", total_ms("setup.baseline"), "ms"),
        metric("setup.suite_ms", total_ms("setup.suite"), "ms"),
        metric(
            "trace.attributed_share",
            attributed_share(t.spans, &selfs),
            "ratio",
        ),
        metric(
            "trace.overhead_share",
            ratio(t.traced_s, t.untraced_s) - 1.0,
            "ratio",
        ),
    ]);
    out
}

/// Layer self time over busy time. Busy time is the run roots' wall,
/// minus the main thread's wait on the pool, plus every pool item on the
/// workers; layer self time is the self time of every span that is not
/// glue.
fn attributed_share(spans: &[Span], selfs: &HashMap<u64, u64>) -> f64 {
    let sum = |name: &str| -> u64 { spans.iter().filter(|s| s.name == name).map(Span::ns).sum() };
    let busy = sum("run") + sum("pool.item") - sum("pool.wait");
    let attributed: u64 = spans
        .iter()
        .filter(|s| !GLUE.contains(&s.name))
        .map(|s| selfs[&s.sid])
        .sum();
    ratio(attributed as f64, busy as f64)
}

/// Adds two registry deltas.
pub fn add_deltas(a: &MetricsSnapshot, b: &MetricsSnapshot) -> MetricsSnapshot {
    let mut out = a.clone();
    for (k, v) in &b.counters {
        *out.counters.entry(k.clone()).or_default() += v;
    }
    for (k, v) in &b.timers {
        *out.timers.entry(k.clone()).or_default() += v;
    }
    for (k, h) in &b.histograms {
        let e = out.histograms.entry(k.clone()).or_default();
        e.count += h.count;
        e.sum += h.sum;
        if e.buckets.len() < h.buckets.len() {
            e.buckets.resize(h.buckets.len(), 0);
        }
        for (i, n) in h.buckets.iter().enumerate() {
            e.buckets[i] += n;
        }
    }
    out
}
