//! `pokemu-rt` — self-contained runtime support for the PokeEMU-rs
//! workspace, replacing every external crate the repo once pulled from
//! crates.io so that `cargo build && cargo test && cargo bench` work with
//! no network access:
//!
//! | was | now |
//! |---|---|
//! | `rand` | [`rng`]: seedable SplitMix64 / xoshiro256** with the small `Rng` surface the repo uses |
//! | `crossbeam` (scoped threads) | [`pool`]: `std::thread::scope` work queue with per-worker stats |
//! | `proptest` | [`prop`]: the [`prop!`] macro — N cases, PRNG generators, shrink-by-halving, `POKEMU_PROP_SEED` replay |
//! | `criterion` | [`bench`]: warm-up + K timed samples, median/p95, JSON lines in `target/bench/` |
//! | `tracing` + `metrics` + `serde_json` | [`trace`]: structured spans with Chrome `trace_event` export; [`metrics`]: counters / timers / log-scale histograms with snapshot-diff; [`json`]: the matching zero-dep JSON reader |
//!
//! On top of the replacements, two observability primitives with no
//! external equivalent in the old dependency set: [`coverage`] (fixed-size
//! atomic bitmaps recording opcode / path / µop / exception-class coverage,
//! snapshot-diffable and JSONL-exportable for the run manifest and the CI
//! coverage gate), [`flight`] (a per-thread ring buffer of recent events,
//! dumped post-hoc on panic or cross-validation deviation), and [`fault`]
//! (named deterministic fault-injection points, armed via `POKEMU_FAULT`,
//! that chaos-test the quarantine and budget layers), [`scope`] (the one
//! instrumentation primitive: the [`scope!`] guard, whose close feeds the
//! [`trace`] spans, the [`prof`] collapsed-stack profile and an attached
//! timer metric), and [`history`] (an append-only, content-hashed cross-run ledger under
//! `target/history/` — the substrate for `pokemu-report compare`, `trend`,
//! and the CI trend gate).
//!
//! Determinism is the point, not just offline builds: the same seeds produce
//! the same exploration choices, the same random-baseline tests (E5), and
//! the same property-test cases on every machine, so experiment results and
//! failures are exactly reproducible.

#![warn(missing_docs)]

pub mod bench;
pub mod coverage;
pub mod fault;
pub mod flight;
pub mod history;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod prof;
pub mod prop;
pub mod rng;
pub mod scope;
pub mod trace;

pub use coverage::{CoverageMap, CoverageSnapshot, MapSnapshot};
pub use fault::FaultKind;
pub use flight::FlightEvent;
pub use history::RunRecord;
pub use metrics::{Counter, Histogram, MetricsSnapshot, Timer};
pub use pool::{for_each, PoolRun, QuarantineRecord, WorkerStats};
pub use prof::FrameStat;
pub use prop::Gen;
pub use rng::{mix64, Rng, SplitMix64};
pub use trace::{SpanEvent, SpanGuard, TracePaths};
