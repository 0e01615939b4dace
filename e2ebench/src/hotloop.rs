//! `hotloop`: guest execution dominates. Each pass runs the five hot-loop
//! programs of `exec_throughput` and the two corpus programs that exhaust
//! the step budget through every target's `run_program`. Per-run fixed
//! cost is small next to the guest work, so throughput here is per guest
//! instruction per host second of each target. The two chain programs
//! retire 8× more instructions on Lo-Fi than on the interpreters and
//! retranslate almost every block, so a plain sum would let them drown
//! out the five loops; each program's rate counts equally instead
//! (geometric mean over programs).

use std::sync::OnceLock;
use std::time::Instant;

use pokemu::harness::{baseline_snapshot, build_corpus, compare};
use pokemu::isa::snapshot::Snapshot;
use pokemu::testgen::{fnv1a, TestProgram};

use crate::inputs;
use crate::layers::{self, digest, outcome_str, TARGETS};
use crate::report::StageSums;
use crate::{Pass, Unit, Workload, THREADS};

/// The corpus programs that exhaust the step budget.
const HOT_CHAINS: [&str; 2] = ["chain/flags-popf-branch", "chain/shift-then-branch"];

/// The `hotloop` workload.
pub struct Hotloop;

/// The programs, and the seed's dispatch order over them.
pub struct Suite {
    programs: Vec<TestProgram>,
    order: Vec<usize>,
}

impl Workload for Hotloop {
    type Suite = Suite;
    const NAME: &'static str = "hotloop";
    const TRACE_PASSES: usize = 8;
    // A unit is one program on one worker, with the other worker running
    // another program beside it.
    const UNIT_WORKERS: usize = THREADS;
    const PER_UNIT_RATES: bool = true;

    fn reference_name(_seed: u64) -> String {
        "hotloop.tsv".to_owned()
    }

    fn setup(seed: u64) -> Result<Suite, String> {
        layers::spanned("setup.baseline", 0, baseline_snapshot);
        let _suite = layers::span("setup.suite", 0);
        let mut programs = inputs::loop_programs();
        let loops = programs.len();
        let corpus = build_corpus();
        layers::tally_programs(&corpus);
        for name in HOT_CHAINS {
            let prog = corpus
                .iter()
                .find(|p| p.name == name)
                .ok_or(format!("hotloop: build_corpus has no program {name}"))?;
            programs.push(prog.clone());
        }
        let order = inputs::order(seed, loops, programs.len() - loops);
        Ok(Suite { programs, order })
    }

    fn pass(suite: &Suite) -> Pass {
        crate::calib::sample();
        run_pass(suite, false)
    }

    fn traced_pass(suite: &Suite) -> Pass {
        run_pass(suite, true)
    }
}

/// One program's results: per target, `(outcome line, guest
/// instructions, host ns in the target)`, and the program's wall time.
type Item = ([(String, u64, u64); 3], u64);

fn run_pass(suite: &Suite, traced: bool) -> Pass {
    let start = Instant::now();
    let slots: Vec<OnceLock<Item>> = suite.programs.iter().map(|_| OnceLock::new()).collect();
    let ids: Vec<u64> = suite
        .order
        .iter()
        .map(|&i| fnv1a(suite.programs[i].name.as_bytes()))
        .collect();
    let item = |k: usize| {
        let i = suite.order[k];
        let prog = &suite.programs[i];
        let wall = Instant::now();
        let runs: [(Snapshot, u64, u64); 3] = std::array::from_fn(|j| {
            let t = TARGETS[j];
            let clock = Instant::now();
            let (snap, insns) = if traced {
                let run = layers::run_phased(t, prog);
                layers::tally_run(t, &run);
                (run.snap, run.insns)
            } else {
                (t.run_program(prog), 0)
            };
            (snap, insns, clock.elapsed().as_nanos() as u64)
        });
        for (key, j) in [("lofi", 2), ("hifi", 1)] {
            if traced {
                layers::compare_traced(ids[k], key, &runs[0].0, &runs[j].0, prog);
            } else {
                std::hint::black_box(compare(&runs[0].0, &runs[j].0, &prog.test_insn));
            }
        }
        let lines = std::array::from_fn(|j| {
            let (snap, insns, ns) = &runs[j];
            (
                format!(
                    "{}\t{}\t{}\t{:016x}",
                    prog.name,
                    TARGETS[j].key(),
                    outcome_str(snap.outcome),
                    digest(snap)
                ),
                *insns,
                *ns,
            )
        });
        let item = (lines, wall.elapsed().as_nanos() as u64);
        assert!(slots[i].set(item).is_ok(), "pool delivered item {i} twice");
    };
    let pool = if traced {
        layers::traced_pool(THREADS, &ids, item)
    } else {
        pokemu_rt::pool::for_each(THREADS, ids.len(), item)
    };
    let analyze = Instant::now();
    let items: Vec<Option<Item>> = layers::spanned("pipeline.analyze", 0, || {
        slots.into_iter().map(OnceLock::into_inner).collect()
    });
    let analyze_ns = analyze.elapsed().as_nanos() as u64;
    let mut pass = Pass::new(start.elapsed());
    pass.attempted = suite.programs.len() as u64;
    pass.failed = pool.quarantined.len() as u64;
    let mut work_ns = 0;
    for (prog, item) in suite.programs.iter().zip(items) {
        let Some((item, wall_ns)) = item else {
            continue;
        };
        pass.programs += 1;
        pass.units.push(Unit {
            name: prog.name.clone(),
            wall_ns,
            target_ns: item.each_ref().map(|r| r.2),
        });
        for (j, (line, insns, ns)) in item.into_iter().enumerate() {
            work_ns += ns;
            pass.lines.push(line);
            if traced {
                pass.lines.push(format!(
                    "{}\t{}\tinsns\t{insns}",
                    prog.name,
                    TARGETS[j].key()
                ));
            }
        }
    }
    if traced {
        pass.stages = Some(StageSums {
            work_ns,
            parallel_ns: pool.wall.as_nanos() as u64,
            analyze_ns,
            total_ns: pass.wall.as_nanos() as u64,
        });
        pass.programs_run = suite.programs.clone();
    }
    pass
}
