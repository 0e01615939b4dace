//! `lift`: the paper's campaign. Each pass calls `run_cross_validation`
//! once per opcode group of the seed's draw, at a fixed path cap, so
//! instruction exploration, state-space exploration (symx + solver), test
//! generation, the three targets and the sequential compare all run on
//! fresh code.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pokemu::explore::{
    explore_instruction_space, explore_state_space, to_test_programs, InsnSpaceConfig,
    StateSpaceConfig,
};
use pokemu::harness::{baseline_snapshot, run_cross_validation, CrossValidation, PipelineConfig};
use pokemu::testgen::{fnv1a, TestProgram};
use pokemu_rt::metrics;

use crate::inputs::{self, Group};
use crate::layers::{self, PhasedRun, TARGETS};
use crate::reference::dev_line;
use crate::report::StageSums;
use crate::{Pass, Unit, Workload, THREADS};

/// Per-instruction path cap.
pub const MAX_PATHS: usize = 64;

/// The `lift` workload.
pub struct Lift;

/// The opcode groups one pass lifts.
pub struct Suite {
    groups: Vec<Group>,
}

impl Workload for Lift {
    type Suite = Suite;
    const NAME: &'static str = "lift";
    const TRACE_PASSES: usize = 1;

    fn reference_name(seed: u64) -> String {
        format!("lift-v{}.tsv", inputs::variant(seed))
    }

    fn setup(seed: u64) -> Result<Suite, String> {
        layers::spanned("setup.baseline", 0, baseline_snapshot);
        let groups = layers::spanned("setup.suite", 0, || {
            let groups = inputs::draw(inputs::variant(seed));
            // A campaign over the draw's one-path group finishes every
            // layer's lazy initialisation (decoder, symbolic engine,
            // solver, targets, pool) before the clock starts.
            campaign(groups[inputs::ONE_PATH_SLOT]);
            groups
        });
        Ok(Suite { groups })
    }

    fn pass(suite: &Suite) -> Pass {
        let start = Instant::now();
        let mut units = Vec::new();
        let runs: Vec<_> = suite
            .groups
            .iter()
            .enumerate()
            .map(|(i, &group)| {
                crate::calib::sample();
                let before = metrics::snapshot();
                let t = Instant::now();
                let cv = campaign(group);
                units.push(Unit {
                    name: i.to_string(),
                    wall_ns: t.elapsed().as_nanos() as u64,
                    target_ns: layers::target_ns_since(&before),
                });
                cv
            })
            .collect();
        let mut pass = Pass::new(start.elapsed());
        pass.units = units;
        let mut stages = StageSums::default();
        for cv in &runs {
            pass.programs += cv.total_paths as u64;
            pass.attempted +=
                (cv.total_paths + cv.unique_instructions) as u64 + cv.stages.solver_queries;
            pass.failed +=
                (cv.quarantined.len() + cv.skipped_instructions) as u64 + cv.unknown_queries;
            pass.lines.extend(cv.deviations.iter().map(dev_line));
            let s = &cv.stages;
            stages.add(StageSums {
                work_ns: (s.generate + s.execute).as_nanos() as u64,
                parallel_ns: s.parallel_wall.as_nanos() as u64,
                analyze_ns: s.analyze.as_nanos() as u64,
                total_ns: s.total_wall.as_nanos() as u64,
            });
        }
        pass.stages = Some(stages);
        pass
    }

    fn traced_pass(suite: &Suite) -> Pass {
        let start = Instant::now();
        let mut pass = Pass::new(Duration::ZERO);
        for &group in &suite.groups {
            traced_group(group, &mut pass);
        }
        pass.wall = start.elapsed();
        pass
    }
}

/// `run_cross_validation` over one opcode group.
fn campaign((first, second): Group) -> CrossValidation {
    run_cross_validation(PipelineConfig {
        first_byte: Some(first),
        second_byte: second,
        max_paths_per_insn: MAX_PATHS,
        threads: THREADS,
        ..PipelineConfig::default()
    })
}

/// What one instruction produced in the traced replica.
struct Item {
    programs: Vec<TestProgram>,
    runs: Vec<[PhasedRun; 3]>,
    queries: u64,
    unknown: u64,
}

/// One `run_cross_validation` call, rebuilt from the layers' public
/// functions with a span around each call.
fn traced_group((first, second): Group, pass: &mut Pass) {
    let baseline = layers::spanned("pipeline.setup", 0, baseline_snapshot);
    let reps = layers::spanned("explore.insn_space", 0, || {
        explore_instruction_space(InsnSpaceConfig {
            first_byte: Some(first),
            second_byte: second,
            ..InsnSpaceConfig::default()
        })
        .classes
    });
    let ids: Vec<u64> = reps.iter().map(|r| fnv1a(&r.bytes)).collect();
    let slots: Vec<OnceLock<Item>> = reps.iter().map(|_| OnceLock::new()).collect();
    let pool = layers::traced_pool(THREADS, &ids, |i| {
        let name = reps[i].class.to_string();
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
        let programs = layers::spanned("testgen", 0, || to_test_programs(&space, &name));
        layers::tally_programs(&programs);
        let runs = programs
            .iter()
            .map(|p| {
                TARGETS.map(|t| {
                    let run = layers::run_phased(t, p);
                    layers::tally_run(t, &run);
                    run
                })
            })
            .collect();
        let item = Item {
            programs,
            runs,
            queries: space.solver_queries,
            unknown: space.unknown_queries,
        };
        assert!(slots[i].set(item).is_ok(), "pool delivered item {i} twice");
    });
    pass.failed += pool.quarantined.len() as u64;

    // The sequential analysis, in instruction order, as the pipeline does
    // it: the raw behaviour check, then the filtered compare per emulator.
    let _analyze = layers::span("pipeline.analyze", 0);
    for (slot, id) in slots.into_iter().zip(ids) {
        let Some(item) = slot.into_inner() else {
            continue;
        };
        pass.attempted += 1 + item.programs.len() as u64 + item.queries;
        pass.failed += item.unknown;
        for (prog, [hw, hifi, lofi]) in item.programs.iter().zip(&item.runs) {
            std::hint::black_box(hw.snap.same_behavior(&lofi.snap));
            std::hint::black_box(hw.snap.same_behavior(&hifi.snap));
            for (key, run) in [("lofi", lofi), ("hifi", hifi)] {
                if let Some(d) = layers::compare_traced(id, key, &hw.snap, &run.snap, prog) {
                    pass.lines.push(dev_line(&d));
                }
            }
        }
        pass.programs += item.programs.len() as u64;
        pass.programs_run.extend(item.programs);
    }
}
