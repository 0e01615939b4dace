//! End-to-end benchmark of the PokeEMU-rs pipeline.
//!
//! ```text
//! e2ebench --workload lift|replay|hotloop --seed N --seconds S --trace 0|1 [--write-reference]
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up repeatedly for
//! about [`SETUP_BUDGET`] (reporting the median set-up time), then runs
//! closed-loop passes for `--seconds` seconds on two worker threads,
//! checks every pass against the committed reference, and prints the
//! end-to-end metrics: rates from each timed [`Unit`]'s median over the
//! passes, scaled to a reference host speed by [`calib`]. A traced
//! run (`--trace 1`) sets up once under spans, runs untraced passes and
//! the same number of traced replica passes, checks that both produce
//! the reference output and that the phase-split replica reproduces
//! every `run_program` snapshot, writes the spans out, and prints the
//! per-layer metrics. The last line of standard output is the result
//! object; a failed check names the workload and program on standard
//! error and exits 1. `--write-reference` makes a traced run rewrite the
//! reference file instead of checking against it. See `README.md`.

mod calib;
mod hotloop;
mod inputs;
mod layers;
mod lift;
mod reference;
mod replay;
mod report;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use pokemu::harness::ProgramResult;
use pokemu::testgen::TestProgram;
use pokemu_rt::{metrics, pool, prof, trace};

use reference::Reference;
use report::{metric, Metric, StageSums};

/// Worker threads every workload runs with.
pub const THREADS: usize = 2;

/// Set-up time an untraced run spends on repeated set-ups (at least
/// [`Workload::SETUP_MIN_REPS`] of them): enough repetitions that their
/// median is steady even where one set-up takes milliseconds.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the timed calls.
    pub wall: Duration,
    /// Programs run on all three targets and compared.
    pub programs: u64,
    /// Operations attempted: programs, plus instructions and solver
    /// queries where the pass explores.
    pub attempted: u64,
    /// Operations failed: quarantined or skipped instructions and
    /// programs, and solver queries that returned `Unknown`.
    pub failed: u64,
    /// The pass's timed units, the same units in the same order on
    /// every pass.
    pub units: Vec<Unit>,
    /// Output records, compared with the reference.
    pub lines: Vec<String>,
    /// Pipeline stage split, where the pass measures one.
    pub stages: Option<StageSums>,
    /// Programs the pass ran (traced passes: the fidelity check's input).
    pub programs_run: Vec<TestProgram>,
    /// Conformance-corpus results (`replay` only).
    pub corpus: Vec<ProgramResult>,
}

impl Pass {
    /// An empty pass of the given wall time.
    pub fn new(wall: Duration) -> Pass {
        Pass {
            wall,
            ..Pass::default()
        }
    }
}

/// A timed part of a pass: one opcode group's campaign (`lift`), one
/// batch of the suite (`replay`) or one program (`hotloop`). Rates are
/// computed from each unit's median times over the run's passes, summed
/// over units, so that every unit is timed across the whole run.
#[derive(Debug)]
pub struct Unit {
    /// The program's name (`hotloop`), or the unit's position.
    pub name: String,
    /// Wall time of the unit.
    pub wall_ns: u64,
    /// Host time per target inside `run_program` (summed over both
    /// workers on `lift` and `replay`, from the harness's own timers).
    pub target_ns: [u64; 3],
}

/// One unit's times over the run's passes, in ns.
struct Series {
    name: String,
    wall: Vec<f64>,
    target: [Vec<f64>; 3],
}

/// One workload.
pub trait Workload {
    /// The set-up's product, shared by every pass.
    type Suite: Sync;
    /// Workload name.
    const NAME: &'static str;
    /// Fewest set-ups per untraced run; `setup_s` is their median.
    const SETUP_MIN_REPS: usize = 3;
    /// Untraced and traced passes in a traced run.
    const TRACE_PASSES: usize;
    /// Workers a unit's wall time stands for: 1 where a unit runs on the
    /// pool, [`THREADS`] where it is one program on one worker.
    const UNIT_WORKERS: usize = 1;
    /// Whether the instruction rates are per unit (each program weighing
    /// the same) rather than over the whole pass.
    const PER_UNIT_RATES: bool = false;

    /// The reference file for a seed.
    fn reference_name(seed: u64) -> String;
    /// Builds the inputs, with spans around each layer call when tracing.
    fn setup(seed: u64) -> Result<Self::Suite, String>;
    /// One timed pass through the program's public entry points.
    fn pass(suite: &Self::Suite) -> Pass;
    /// The same pass rebuilt from the layers, under spans.
    fn traced_pass(suite: &Self::Suite) -> Pass;
    /// Checks one pass's output.
    fn check(_suite: &Self::Suite, reference: &Reference, pass: &Pass) -> Result<(), String> {
        reference.check(Self::NAME, pass.programs, &pass.lines)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? != "0",
            "--write-reference" => args.write_reference = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    // The run ledger would append a record per pipeline run under the
    // target directory; the benchmark keeps its own output only.
    std::env::set_var(pokemu_rt::history::HISTORY_ENV, "0");
    // Timing instrumentation stays on in every run, traced or not: the
    // harness's per-target timers are what `lift` and `replay` compute
    // their instruction rates from, and the traced run reads the symx and
    // solver timers.
    prof::set_enabled(true);
    let code = match parse_args() {
        Err(e) => {
            eprintln!("e2ebench: {e}");
            2
        }
        Ok(args) => match args.workload.as_str() {
            "lift" => run::<lift::Lift>(&args),
            "replay" => run::<replay::Replay>(&args),
            "hotloop" => run::<hotloop::Hotloop>(&args),
            other => {
                eprintln!("e2ebench: unknown workload {other:?} (lift, replay, hotloop)");
                2
            }
        },
    };
    std::process::exit(code);
}

fn run<W: Workload>(args: &Args) -> i32 {
    let result = if args.trace || args.write_reference {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2ebench: check failed: {e}");
            report::print_result(false, 1, 1, &[])
        }
    }
}

fn reference_path<W: Workload>(seed: u64) -> PathBuf {
    reference::dir().join(W::reference_name(seed))
}

/// Resets the process's peak resident set (`VmHWM`) to the current one.
fn reset_peak_rss() {
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("e2ebench: cannot reset the peak RSS: {e}");
    }
}

/// The process's peak resident set since the last reset, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn untraced<W: Workload>(args: &Args) -> Result<i32, String> {
    let mut setups = Vec::new();
    let mut suite = None;
    let budget = Instant::now();
    while setups.len() < W::SETUP_MIN_REPS || budget.elapsed() < SETUP_BUDGET {
        // The previous suite is dropped first, so each set-up starts from
        // the same memory state.
        drop(suite.take());
        let t = Instant::now();
        suite = Some(W::setup(args.seed)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let suite = suite.expect("at least one set-up");
    let reference = Reference::load(&reference_path::<W>(args.seed))?;
    let expected = reference.without_insns();

    reset_peak_rss();
    calib::enable();
    let mut units: Vec<Series> = Vec::new();
    let (mut programs, mut passes, mut attempted, mut failed) = (0, 0, 0, 0);
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let pass = W::pass(&suite);
        W::check(&suite, &expected, &pass)?;
        passes += 1;
        programs = pass.programs;
        attempted += pass.attempted;
        failed += pass.failed;
        if units.is_empty() {
            units = pass
                .units
                .iter()
                .map(|u| Series {
                    name: u.name.clone(),
                    wall: Vec::new(),
                    target: Default::default(),
                })
                .collect();
        }
        for (series, u) in units.iter_mut().zip(pass.units) {
            assert_eq!(
                series.name, u.name,
                "a pass timed other units than the first"
            );
            series.wall.push(u.wall_ns as f64);
            for (target, ns) in series.target.iter_mut().zip(u.target_ns) {
                target.push(ns as f64);
            }
        }
    }
    let peak = peak_rss_mb();
    eprintln!(
        "e2ebench: {} {} set-ups, {} passes in {:.1} s",
        W::NAME,
        setups.len(),
        passes,
        start.elapsed().as_secs_f64()
    );
    let med = |v: &Vec<f64>| report::median(v);
    let wall_ns: f64 = units.iter().map(|u| med(&u.wall)).sum();
    let tests_per_s = (programs * W::UNIT_WORKERS as u64) as f64 / wall_ns * 1e9;
    // Guest instructions per host microsecond: millions per second.
    let minsns = |i: usize| {
        if W::PER_UNIT_RATES {
            let key = layers::TARGETS[i].key();
            let log_sum: f64 = units
                .iter()
                .map(|u| (reference.insns_of(&u.name, key) as f64 / med(&u.target[i]) * 1e3).ln())
                .sum();
            (log_sum / units.len() as f64).exp()
        } else {
            let ns: f64 = units.iter().map(|u| med(&u.target[i])).sum();
            reference.insns[i] as f64 / ns * 1e3
        }
    };
    let cal = calib::samples();
    let scale = med(&cal) / calib::NOMINAL_NS;
    eprintln!(
        "e2ebench: unscaled tests_per_s {tests_per_s:.4}, Minsn/s hifi {:.4} lofi {:.4} hw {:.4}; \
         calibration: {} samples, median {:.0} ns, scale {scale:.4}",
        minsns(1),
        minsns(2),
        minsns(0),
        cal.len(),
        med(&cal)
    );
    let metrics = [
        metric("setup_s", report::median(&setups), "s"),
        metric("tests_per_s", tests_per_s * scale, "1/s"),
        metric("hifi_minsns_per_s", minsns(1) * scale, "Minsn/s"),
        metric("lofi_minsns_per_s", minsns(2) * scale, "Minsn/s"),
        metric("hw_minsns_per_s", minsns(0) * scale, "Minsn/s"),
        metric("peak_rss_mb", peak, "MiB"),
    ];
    Ok(report::print_result(true, attempted, failed, &metrics))
}

fn traced<W: Workload>(args: &Args) -> Result<i32, String> {
    trace::set_enabled(true);
    let m0 = metrics::snapshot();
    let suite = layers::spanned("run", 0, || W::setup(args.seed))?;
    let setup_delta = metrics::snapshot().since(&m0);
    trace::set_enabled(false);

    let untraced: Vec<Pass> = (0..W::TRACE_PASSES).map(|_| W::pass(&suite)).collect();

    trace::set_enabled(true);
    let m1 = metrics::snapshot();
    let traced: Vec<Pass> = (0..W::TRACE_PASSES)
        .map(|_| layers::spanned("run", 0, || W::traced_pass(&suite)))
        .collect();
    let delta = report::add_deltas(&setup_delta, &metrics::snapshot().since(&m1));
    trace::set_enabled(false);
    let dropped = delta.counter("trace.dropped_events");
    if dropped > 0 {
        return Err(format!(
            "{}: the trace layer dropped {dropped} spans",
            W::NAME
        ));
    }
    let tally = layers::take_tally();
    let per_pass_insns = tally.insns.map(|n| n / W::TRACE_PASSES as u64);

    // The traced replica must reproduce the untraced pass exactly.
    let (u, t) = (&untraced[0], &traced[0]);
    let traced_plain = Reference {
        programs: t.programs,
        insns: per_pass_insns,
        lines: t.lines.clone(),
    };
    traced_plain.without_insns().check(
        &format!("{} (traced vs untraced)", W::NAME),
        u.programs,
        &u.lines,
    )?;
    fidelity(&t.programs_run)?;

    let path = reference_path::<W>(args.seed);
    if args.write_reference {
        std::fs::create_dir_all(reference::dir()).map_err(|e| e.to_string())?;
        std::fs::write(&path, traced_plain.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("e2ebench: wrote {}", path.display());
    } else {
        let reference = Reference::load(&path)?;
        for p in &untraced {
            W::check(&suite, &reference.without_insns(), p)?;
        }
        for p in &traced {
            W::check(&suite, &reference, p)?;
        }
        reference.check_insns(W::NAME, per_pass_insns)?;
    }

    let spans = report::benchmark_spans(trace::drain());
    let trace_path = trace_dir().join(format!("{}-seed{}.trace.jsonl", W::NAME, args.seed));
    match report::write_spans(&trace_path, &spans) {
        Ok(()) => eprintln!(
            "e2ebench: {} spans in {}",
            spans.len(),
            trace_path.display()
        ),
        Err(e) => eprintln!("e2ebench: cannot write {}: {e}", trace_path.display()),
    }
    let wall = |ps: &[Pass]| ps.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>();
    // `lift` measures the stage split on the untraced pipeline (its
    // `StageStats`), the others on their traced replica; each pass kind
    // reports it only where it is measured.
    let mut stages = StageSums::default();
    for s in untraced.iter().chain(&traced).filter_map(|p| p.stages) {
        stages.add(s);
    }
    let layer: Vec<Metric> = report::layer_metrics(&report::Traced {
        spans: &spans,
        delta: &delta,
        tally: &tally,
        stages,
        untraced_s: wall(&untraced),
        traced_s: wall(&traced),
    });
    let attempted = untraced.iter().chain(&traced).map(|p| p.attempted).sum();
    let failed = untraced.iter().chain(&traced).map(|p| p.failed).sum();
    Ok(report::print_result(true, attempted, failed, &layer))
}

/// Re-runs every program phase by phase and through `run_program`, on
/// the worker pool; the first mismatch is the error.
fn fidelity(programs: &[TestProgram]) -> Result<(), String> {
    let first_error = std::sync::Mutex::new(None);
    pool::for_each(THREADS, programs.len(), |i| {
        if let Err(e) = layers::fidelity(&programs[i]) {
            first_error
                .lock()
                .expect("fidelity lock poisoned")
                .get_or_insert(e);
        }
    });
    match first_error.into_inner().expect("fidelity lock poisoned") {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Where the span files go: the build's target directory.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("e2ebench")
}
