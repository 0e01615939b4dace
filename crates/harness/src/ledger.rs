//! Manifest → run-ledger bridge: folds one finished cross-validation run
//! into a [`pokemu_rt::history::RunRecord`] and appends it to the
//! append-only history store (`target/history/ledger.jsonl`, DESIGN.md §12).
//!
//! The record's `det` section carries only fields that are byte-identical
//! across thread counts and repeat runs of the same config — work counts,
//! coverage populations, deviation clusters, run-delta counters, hot-TB
//! execution deltas — so the `pokemu-report trend` gate can compare them
//! exactly (MAD 0 ⇒ any change is a regression). Stage wall times,
//! per-origin solver nanoseconds, and histogram percentiles go into the
//! `timing` section, which is only ever banded.

use std::collections::BTreeMap;
use std::time::Duration;

use pokemu_rt::coverage::CoverageSnapshot;
use pokemu_rt::history::{self, RunRecord};
use pokemu_rt::{metrics, MetricsSnapshot};

use crate::pipeline::{CrossValidation, PipelineConfig};

/// Counter namespaces excluded from the `det` section: trace bookkeeping is
/// scheduling-dependent, and the manifest/history writers must not observe
/// their own side effects.
const EXCLUDED_COUNTER_PREFIXES: [&str; 3] = ["trace.", "manifest.", "history."];

/// Config fingerprint for a pipeline run: the workload-shaping config
/// fields plus the process context and tracked environment (see
/// [`history::fingerprint`]). The thread count is deliberately excluded —
/// deterministic fields are thread-invariant by the repo's replay contract,
/// so runs at 1/2/8 threads belong to one trend group.
pub fn config_fingerprint(config: &PipelineConfig) -> String {
    history::fingerprint(&[
        format!("first_byte={:?}", config.first_byte),
        format!("second_byte={:?}", config.second_byte),
        format!("max_instructions={}", config.max_instructions),
        format!("max_paths_per_insn={}", config.max_paths_per_insn),
        format!("lofi_fidelity={:?}", config.lofi_fidelity),
    ])
}

/// Per-TB execution-count delta for this run: `after` (cumulative hot-TB
/// table) minus `before` (the table snapshotted at run start), dropping
/// zero rows. Sorted by count descending then eip ascending — the same
/// deterministic order `pokemu_lofi::hot_tbs` guarantees.
pub fn hot_tb_delta(before: &BTreeMap<u32, u64>, after: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut out: Vec<(u32, u64)> = after
        .iter()
        .filter_map(|&(eip, n)| {
            let d = n.saturating_sub(before.get(&eip).copied().unwrap_or(0));
            (d > 0).then_some((eip, d))
        })
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Hot-TB rows recorded per run record (level-3 attribution material).
const HOT_TB_ROWS: usize = 16;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Builds the ledger record for one finished run. Pure — no I/O, no global
/// reads — so tests can assert determinism without touching a ledger file.
pub fn build_record(
    run_id: &str,
    config: &PipelineConfig,
    out: &CrossValidation,
    delta: &MetricsSnapshot,
    coverage: &CoverageSnapshot,
    hot_delta: &[(u32, u64)],
) -> RunRecord {
    let mut r = RunRecord::new("pipeline", run_id, config_fingerprint(config));

    // Headline work counts (§6 numbers, all deterministic).
    r.det("count.candidates", out.candidates as u64);
    r.det("count.unique_instructions", out.unique_instructions as u64);
    r.det("count.fully_explored", out.fully_explored as u64);
    r.det("count.total_paths", out.total_paths as u64);
    r.det("count.lofi_differences", out.lofi_differences as u64);
    r.det("count.hifi_differences", out.hifi_differences as u64);
    r.det("count.lofi_filtered", out.lofi_filtered as u64);
    r.det("count.hifi_filtered", out.hifi_filtered as u64);
    r.det("count.deviations", out.deviations.len() as u64);
    r.det("count.solver_queries", out.stages.solver_queries);

    // Robustness outcome: deterministic under a deterministic fault plan.
    r.det("robust.completed", out.completed as u64);
    r.det("robust.quarantined", out.quarantined.len() as u64);
    r.det("robust.skipped", out.skipped_instructions as u64);
    r.det("robust.unknown_queries", out.unknown_queries);
    r.det("robust.infeasible_paths", out.infeasible_paths as u64);

    // Run-delta counters (queries by origin, chain/lookup hit rates, …).
    for (name, value) in &delta.counters {
        if EXCLUDED_COUNTER_PREFIXES
            .iter()
            .any(|p| name.starts_with(p))
        {
            continue;
        }
        r.det(format!("ctr.{name}"), *value);
    }

    // Coverage population per layer (cumulative bit count, idempotent).
    for (name, map) in &coverage.maps {
        let short = name.strip_prefix("coverage.").unwrap_or(name);
        r.det(format!("cov.{short}.set"), map.set_count() as u64);
    }

    // Deviation clusters by root cause.
    for (cause, count, _) in out.lofi_clusters.iter() {
        r.det(format!("cluster.lofi.{cause}"), count as u64);
    }
    for (cause, count, _) in out.hifi_clusters.iter() {
        r.det(format!("cluster.hifi.{cause}"), count as u64);
    }

    // Hot-TB execution deltas: which generated code ran, and how much.
    for &(eip, execs) in hot_delta.iter().take(HOT_TB_ROWS) {
        r.det(format!("hot_tb.0x{eip:08x}"), execs);
    }

    // Timing: stage wall clocks from StageStats…
    r.timing("wall.total", ns(out.stages.total_wall));
    r.timing("wall.explore_insns", ns(out.stages.explore_insns));
    r.timing("wall.parallel", ns(out.stages.parallel_wall));
    r.timing("wall.analyze", ns(out.stages.analyze));
    r.timing("wall.generate", ns(out.stages.generate));
    r.timing("wall.execute", ns(out.stages.execute));
    // …plus every run-delta timer (per-origin solver time, per-target
    // time) and histogram percentiles under documented names.
    for (name, value) in &delta.timers {
        r.timing(name.clone(), *value as f64);
    }
    for (name, h) in &delta.histograms {
        if h.count > 0 {
            r.timing(format!("p50.{name}"), h.p50() as f64);
            r.timing(format!("p95.{name}"), h.p95() as f64);
            r.timing(format!("p99.{name}"), h.p99() as f64);
        }
    }
    r
}

/// Appends a record to the default ledger, degrading like the manifest
/// writer: a failed write feeds `history.write_failures` and stderr, never
/// a panic — a full disk at campaign end still leaves the in-memory result.
pub fn append_record(record: RunRecord) {
    match history::append(record) {
        Ok(_) => {}
        Err(e) => {
            metrics::counter("history.write_failures").inc();
            eprintln!("[history] append failed: {e}");
        }
    }
}
