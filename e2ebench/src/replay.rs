//! `replay`: re-checks a stored suite. Set-up lifts the suite once — the
//! seed draw's single-instruction programs at a small path cap plus the
//! conformance corpus — and every pass runs `run_conformance` over it. No
//! solver work is timed: per-program target cost and `compare` dominate,
//! and the targets re-run code they have run before.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use pokemu::explore::{
    explore_instruction_space, explore_state_space, to_test_programs, InsnSpaceConfig,
    StateSpaceConfig,
};
use pokemu::harness::{
    baseline_snapshot, build_corpus, check_conformance, find_roms_dir, run_conformance,
    ProgramResult,
};
use pokemu::testgen::{fnv1a, TestProgram};
use pokemu_rt::metrics;

use crate::inputs;
use crate::layers::{self, TARGETS};
use crate::reference::{dev_line, Reference};
use crate::report::StageSums;
use crate::{Pass, Unit, Workload, THREADS};

/// Per-instruction path cap for the suite's single-instruction programs.
pub const MAX_PATHS: usize = 16;

/// Programs per `run_conformance` call of a pass: a pass re-checks the
/// suite batch by batch, so each batch is a timed unit of ≈0.1 s.
pub const BATCH: usize = 16;

/// The `replay` workload.
pub struct Replay;

/// The stored suite: lifted single-instruction programs first, then the
/// conformance corpus.
pub struct Suite {
    programs: Vec<TestProgram>,
    singles: usize,
}

impl Workload for Replay {
    type Suite = Suite;
    const NAME: &'static str = "replay";
    const TRACE_PASSES: usize = 1;

    fn reference_name(seed: u64) -> String {
        format!("replay-v{}.tsv", inputs::variant(seed))
    }

    fn setup(seed: u64) -> Result<Suite, String> {
        let baseline = layers::spanned("setup.baseline", 0, baseline_snapshot);
        let _suite = layers::span("setup.suite", 0);
        let reps: Vec<_> = inputs::draw(inputs::variant(seed))
            .into_iter()
            .flat_map(|(first, second)| {
                layers::spanned("explore.insn_space", 0, || {
                    explore_instruction_space(InsnSpaceConfig {
                        first_byte: Some(first),
                        second_byte: second,
                        ..InsnSpaceConfig::default()
                    })
                    .classes
                })
            })
            .collect();
        let ids: Vec<u64> = reps.iter().map(|r| fnv1a(&r.bytes)).collect();
        let slots: Vec<OnceLock<Vec<TestProgram>>> = reps.iter().map(|_| OnceLock::new()).collect();
        let pool = layers::traced_pool(THREADS, &ids, |i| {
            let space = layers::spanned("explore.state_space", 0, || {
                explore_state_space(
                    &reps[i].bytes,
                    &baseline,
                    StateSpaceConfig {
                        max_paths: MAX_PATHS,
                        ..StateSpaceConfig::default()
                    },
                )
            });
            let name = reps[i].class.to_string();
            let programs = layers::spanned("testgen", 0, || to_test_programs(&space, &name));
            layers::tally_programs(&programs);
            assert!(
                slots[i].set(programs).is_ok(),
                "pool delivered item {i} twice"
            );
        });
        if !pool.quarantined.is_empty() {
            return Err(format!(
                "replay: lifting the suite quarantined {} instructions",
                pool.quarantined.len()
            ));
        }
        let mut programs: Vec<TestProgram> = slots
            .into_iter()
            .flat_map(|s| s.into_inner().expect("every item finished"))
            .collect();
        let singles = programs.len();
        let corpus = build_corpus();
        layers::tally_programs(&corpus);
        programs.extend(corpus);
        Ok(Suite { programs, singles })
    }

    fn pass(suite: &Suite) -> Pass {
        let start = Instant::now();
        let mut units = Vec::new();
        let mut results = Vec::with_capacity(suite.programs.len());
        let mut failed = 0;
        for (i, batch) in suite.programs.chunks(BATCH).enumerate() {
            crate::calib::sample();
            let before = metrics::snapshot();
            let t = Instant::now();
            let run = run_conformance(batch, THREADS);
            units.push(Unit {
                name: i.to_string(),
                wall_ns: t.elapsed().as_nanos() as u64,
                target_ns: layers::target_ns_since(&before),
            });
            failed += run.quarantined.len() as u64;
            results.extend(run.results);
        }
        let mut pass = Pass::new(start.elapsed());
        pass.units = units;
        pass.failed = failed;
        split_results(suite, results, &mut pass);
        pass
    }

    fn traced_pass(suite: &Suite) -> Pass {
        let start = Instant::now();
        let ids: Vec<u64> = suite
            .programs
            .iter()
            .map(|p| fnv1a(p.name.as_bytes()))
            .collect();
        let slots: Vec<OnceLock<ProgramResult>> =
            suite.programs.iter().map(|_| OnceLock::new()).collect();
        let work_ns = AtomicU64::new(0);
        // Batch by batch, as the untraced pass runs.
        let (mut failed, mut parallel_ns) = (0, 0);
        for base in (0..ids.len()).step_by(BATCH) {
            let batch = &ids[base..(base + BATCH).min(ids.len())];
            let pool = layers::traced_pool(THREADS, batch, |k| {
                let i = base + k;
                let prog = &suite.programs[i];
                // `result_of` scopes Lo-Fi hot-block accounting per program.
                let _hot = pokemu::lofi::hot_scope(ids[i]);
                let t = Instant::now();
                let [hw, hifi, lofi] = TARGETS.map(|t| {
                    let run = layers::run_phased(t, prog);
                    layers::tally_run(t, &run);
                    run
                });
                work_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let deviations = [("lofi", &lofi), ("hifi", &hifi)]
                    .into_iter()
                    .filter_map(|(key, run)| {
                        layers::compare_traced(ids[i], key, &hw.snap, &run.snap, prog)
                    })
                    .collect();
                let result = ProgramResult {
                    name: prog.name.clone(),
                    path_id: prog.path_id,
                    code_len: prog.code.len(),
                    code_fnv: fnv1a(&prog.code),
                    segments: prog.segments.clone(),
                    deviations,
                };
                assert!(
                    slots[i].set(result).is_ok(),
                    "pool delivered item {i} twice"
                );
            });
            failed += pool.quarantined.len() as u64;
            parallel_ns += pool.wall.as_nanos() as u64;
        }
        let analyze = Instant::now();
        let results: Vec<ProgramResult> = layers::spanned("pipeline.analyze", 0, || {
            slots.into_iter().filter_map(OnceLock::into_inner).collect()
        });
        let analyze_ns = analyze.elapsed().as_nanos() as u64;
        let mut pass = Pass::new(start.elapsed());
        pass.failed = failed;
        pass.stages = Some(StageSums {
            work_ns: work_ns.into_inner(),
            parallel_ns,
            analyze_ns,
            total_ns: pass.wall.as_nanos() as u64,
        });
        pass.programs_run = suite.programs.clone();
        split_results(suite, results, &mut pass);
        pass
    }

    fn check(suite: &Suite, reference: &Reference, pass: &Pass) -> Result<(), String> {
        if pass.programs != suite.programs.len() as u64 {
            return Err(format!(
                "replay: {} of {} programs finished",
                pass.programs,
                suite.programs.len()
            ));
        }
        reference.check(Self::NAME, pass.programs, &pass.lines)?;
        let dir = find_roms_dir().ok_or("replay: tests/roms not found")?;
        let violations = check_conformance(&dir, &pass.corpus)
            .map_err(|e| format!("replay: cannot read {}: {e}", dir.display()))?;
        match violations.first() {
            None => Ok(()),
            Some(v) => Err(format!(
                "replay: program {} breaks its conformance baseline: {}",
                v.program, v.reason
            )),
        }
    }
}

/// Lifted programs' deviations become reference lines; corpus results go
/// to the conformance check.
fn split_results(suite: &Suite, results: Vec<ProgramResult>, pass: &mut Pass) {
    pass.programs = results.len() as u64;
    pass.attempted = suite.programs.len() as u64;
    for (i, r) in results.into_iter().enumerate() {
        if i < suite.singles {
            pass.lines.extend(r.deviations.iter().map(dev_line));
        } else {
            pass.corpus.push(r);
        }
    }
}
