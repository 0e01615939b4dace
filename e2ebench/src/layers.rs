//! The traced replica: each layer called through its crate's public
//! functions, with a span around every call.
//!
//! A target run is split into the phases `Target::run_program` performs
//! in one go — boot (construct, apply the boot state, load the image),
//! exec (run to halt, exception or the step budget) and snapshot — so each
//! phase is timed on its own. [`fidelity`] proves the split changes
//! nothing: every phased snapshot must equal `run_program`'s.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pokemu::harness::targets::{apply_boot, STEP_BUDGET};
use pokemu::harness::{compare, DeviationRecord, HardwareTarget, HiFiTarget, LofiTarget, Target};
use pokemu::hifi::HiFi;
use pokemu::hwref::{TrapReason, Vmm};
use pokemu::isa::snapshot::{Outcome, Snapshot};
use pokemu::isa::state::attrs;
use pokemu::lofi::{Fidelity, Lofi, LofiStats};
use pokemu::testgen::{boot_state, fnv1a, layout, TestProgram};
use pokemu_rt::metrics::{self, MetricsSnapshot};
use pokemu_rt::pool::{self, PoolRun};
use pokemu_rt::trace::{self, SpanGuard};

/// Attribute that marks a span as the benchmark's own and carries the id
/// of the instruction or program it serves; `0` stands for the id of the
/// enclosing benchmark span. Spans without it are the crates' own.
pub const ID_ATTR: &str = "e2e.id";

/// Opens a benchmark span through `rt::trace`; `None` while tracing is off.
pub fn span(name: &'static str, id: u64) -> Option<SpanGuard> {
    if !trace::enabled() {
        return None;
    }
    trace::span_with(name, vec![(ID_ATTR, id.to_string())])
}

/// Runs `f` inside a benchmark span.
pub fn spanned<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    let _g = span(name, id);
    f()
}

/// The three execution targets, in `run_on_all_targets` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tgt {
    /// The hardware oracle (`hwref::Vmm`).
    Hw,
    /// The Hi-Fi interpreter.
    Hifi,
    /// The Lo-Fi translator.
    Lofi,
}

/// Every target, in execution order.
pub const TARGETS: [Tgt; 3] = [Tgt::Hw, Tgt::Hifi, Tgt::Lofi];

impl Tgt {
    /// Short name used in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Tgt::Hw => "hw",
            Tgt::Hifi => "hifi",
            Tgt::Lofi => "lofi",
        }
    }

    /// Span names: `[run, boot, exec, snapshot]`.
    pub fn spans(self) -> [&'static str; 4] {
        match self {
            Tgt::Hw => [
                "target.hw",
                "target.hw.boot",
                "target.hw.exec",
                "target.hw.snapshot",
            ],
            Tgt::Hifi => [
                "target.hifi",
                "target.hifi.boot",
                "target.hifi.exec",
                "target.hifi.snapshot",
            ],
            Tgt::Lofi => [
                "target.lofi",
                "target.lofi.boot",
                "target.lofi.exec",
                "target.lofi.snapshot",
            ],
        }
    }

    /// The harness's timer of host time inside this target's
    /// `run_program` (on while timing instrumentation is).
    pub fn timer(self) -> &'static str {
        match self {
            Tgt::Hw => "target.hardware.ns",
            Tgt::Hifi => "target.hifi.ns",
            Tgt::Lofi => "target.lofi.ns",
        }
    }

    /// Runs `prog` through the harness's own `Target::run_program`.
    pub fn run_program(self, prog: &TestProgram) -> Snapshot {
        match self {
            Tgt::Hw => HardwareTarget.run_program(prog),
            Tgt::Hifi => HiFiTarget.run_program(prog),
            Tgt::Lofi => LofiTarget::default().run_program(prog),
        }
    }
}

/// Host time per target inside `run_program` since `before`, in
/// nanoseconds, from the harness's own timers.
pub fn target_ns_since(before: &MetricsSnapshot) -> [u64; 3] {
    let delta = metrics::snapshot().since(before);
    TARGETS.map(|t| delta.timer_ns(t.timer()))
}

/// One phased target run.
#[derive(Debug)]
pub struct PhasedRun {
    /// The final state.
    pub snap: Snapshot,
    /// Guest instructions retired, as the emulator itself counts them.
    pub insns: u64,
    /// Whether the step budget ran out.
    pub step_limited: bool,
    /// Translation-block statistics (Lo-Fi only).
    pub lofi: Option<LofiStats>,
}

/// Runs `prog` on `t` phase by phase, with a span per phase.
pub fn run_phased(t: Tgt, prog: &TestProgram) -> PhasedRun {
    let [run, boot, exec, snapshot] = t.spans();
    let _run = span(run, 0);
    match t {
        Tgt::Hw => {
            let mut vmm = spanned(boot, 0, || {
                let mut vmm = Vmm::new();
                let (d, m) = vmm.parts_mut();
                apply_boot(d, m);
                vmm.load_image(layout::CODE_BASE, &prog.code);
                vmm
            });
            let reason = spanned(exec, 0, || vmm.run(STEP_BUDGET));
            let snap = spanned(snapshot, 0, || vmm.snapshot(reason));
            let st = vmm.stats();
            PhasedRun {
                snap,
                insns: st.direct + st.mediated,
                step_limited: reason == TrapReason::StepLimit,
                lofi: None,
            }
        }
        Tgt::Hifi => {
            let mut emu = spanned(boot, 0, || {
                let mut emu = HiFi::new();
                let (d, m) = emu.parts_mut();
                apply_boot(d, m);
                emu.load_image(layout::CODE_BASE, &prog.code);
                emu
            });
            let exit = spanned(exec, 0, || emu.run(STEP_BUDGET));
            let snap = spanned(snapshot, 0, || emu.snapshot(exit));
            PhasedRun {
                snap,
                insns: emu.steps_executed(),
                step_limited: exit == pokemu::hifi::RunExit::StepLimit,
                lofi: None,
            }
        }
        Tgt::Lofi => {
            let mut emu = spanned(boot, 0, || {
                let mut emu = Lofi::new(Fidelity::QEMU_LIKE);
                lofi_boot(&mut emu);
                emu.load_image(layout::CODE_BASE, &prog.code);
                emu
            });
            let exit = spanned(exec, 0, || emu.run(STEP_BUDGET));
            let snap = spanned(snapshot, 0, || emu.snapshot(exit));
            let st = emu.stats();
            PhasedRun {
                snap,
                insns: st.insns,
                step_limited: exit == pokemu::lofi::RunExit::StepLimit,
                lofi: Some(st),
            }
        }
    }
}

/// The Lo-Fi boot state. `harness::targets` writes it by hand inside
/// `LofiTarget::run_program` (there is no shared definition to call), so
/// this is a second copy; [`fidelity`] catches the two drifting apart.
fn lofi_boot(emu: &mut Lofi) {
    let boot = boot_state();
    let m = emu.machine_mut();
    m.cr0 = boot.cr0;
    m.eip = boot.eip;
    m.gpr[4] = boot.esp;
    for (i, seg) in m.segs.iter_mut().enumerate() {
        let typ: u16 = if i == 1 { 0xb } else { 0x3 };
        *seg = pokemu::lofi::state::LofiSeg {
            selector: 0x8,
            base: 0,
            limit: 0xffff_ffff,
            attrs: typ
                | (1 << attrs::S as u16)
                | (1 << attrs::P as u16)
                | (1 << attrs::DB as u16)
                | (1 << attrs::G as u16),
        };
    }
}

/// Phase-split fidelity: re-runs `prog` phase by phase (spans off) and
/// through `run_program`, and names the first target whose snapshots
/// differ.
pub fn fidelity(prog: &TestProgram) -> Result<(), String> {
    for t in TARGETS {
        if run_phased(t, prog).snap != t.run_program(prog) {
            return Err(format!(
                "program {}: the phased {} run does not reproduce run_program's snapshot",
                prog.name,
                t.key()
            ));
        }
    }
    Ok(())
}

/// `harness::compare` inside a span; turns a difference into the record
/// the pipeline would report.
pub fn compare_traced(
    id: u64,
    target: &str,
    reference: &Snapshot,
    other: &Snapshot,
    prog: &TestProgram,
) -> Option<DeviationRecord> {
    let d = spanned("compare", id, || compare(reference, other, &prog.test_insn))?;
    Some(DeviationRecord {
        target: target.to_owned(),
        test: prog.name.clone(),
        insn_hex: hex(&d.insn),
        path_id: prog.path_id,
        cause: d.cause.to_string(),
        components: d.components,
    })
}

/// Lower-case hex of a byte string.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The outcome as one token (`halt`, `exc<vector>[:<error>]`, `timeout`).
pub fn outcome_str(o: Outcome) -> String {
    match o {
        Outcome::Halted => "halt".to_owned(),
        Outcome::Exception {
            vector,
            error: Some(e),
        } => format!("exc{vector}:{e}"),
        Outcome::Exception {
            vector,
            error: None,
        } => format!("exc{vector}"),
        Outcome::Timeout => "timeout".to_owned(),
    }
}

/// FNV-1a over every field of a snapshot: two snapshots with equal
/// digests are, for the benchmark's purposes, the same final state.
pub fn digest(s: &Snapshot) -> u64 {
    let mut b: Vec<u8> = Vec::with_capacity(64 + s.mem.len() * 5);
    let mut put = |v: u32| b.extend_from_slice(&v.to_le_bytes());
    for g in s.gpr {
        put(g);
    }
    for v in [s.eip, s.eflags, s.cr0, s.cr2, s.cr3, s.cr4] {
        put(v);
    }
    for seg in s.segs {
        put(seg.selector as u32);
        put(seg.base);
        put(seg.limit);
        put(seg.attrs as u32);
    }
    for (base, limit) in [s.gdtr, s.idtr] {
        put(base);
        put(limit as u32);
    }
    for (&a, &v) in &s.mem {
        put(a);
        put(v as u32);
    }
    b.extend_from_slice(outcome_str(s.outcome).as_bytes());
    fnv1a(&b)
}

/// What the traced replica counted, beyond spans and the metrics
/// registry.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Guest instructions per target (`TARGETS` order).
    pub insns: [u64; 3],
    /// Runs that exhausted the step budget, per target.
    pub step_limited: [u64; 3],
    /// Lo-Fi blocks translated.
    pub lofi_translations: u64,
    /// Lo-Fi block executions served from the cache.
    pub lofi_hits: u64,
    /// Non-zero memory bytes over all snapshots taken.
    pub snap_bytes: u64,
    /// Snapshots taken.
    pub snaps: u64,
    /// Test programs generated.
    pub programs: u64,
    /// Code bytes of those programs.
    pub code_bytes: u64,
    /// Pool worker time inside items.
    pub pool_busy_ns: u64,
    /// Pool capacity: configured threads × pool wall.
    pub pool_capacity_ns: u64,
    /// Slowest item per pool, summed over pools.
    pub pool_straggler_ns: u64,
    /// Pool wall, summed over pools.
    pub pool_wall_ns: u64,
}

static TALLY: Mutex<Tally> = Mutex::new(Tally {
    insns: [0; 3],
    step_limited: [0; 3],
    lofi_translations: 0,
    lofi_hits: 0,
    snap_bytes: 0,
    snaps: 0,
    programs: 0,
    code_bytes: 0,
    pool_busy_ns: 0,
    pool_capacity_ns: 0,
    pool_straggler_ns: 0,
    pool_wall_ns: 0,
});

fn tally(f: impl FnOnce(&mut Tally)) {
    f(&mut TALLY.lock().expect("tally lock poisoned"));
}

/// Takes (and resets) everything tallied so far.
pub fn take_tally() -> Tally {
    std::mem::take(&mut *TALLY.lock().expect("tally lock poisoned"))
}

/// Tallies one phased run.
pub fn tally_run(t: Tgt, run: &PhasedRun) {
    let i = TARGETS.iter().position(|&x| x == t).expect("known target");
    tally(|y| {
        y.insns[i] += run.insns;
        y.step_limited[i] += run.step_limited as u64;
        y.snap_bytes += run.snap.mem.len() as u64;
        y.snaps += 1;
        if let Some(st) = run.lofi {
            y.lofi_translations += st.translations;
            y.lofi_hits += st.cache_hits;
        }
    });
}

/// Tallies generated test programs.
pub fn tally_programs(progs: &[TestProgram]) {
    let bytes: usize = progs.iter().map(|p| p.code.len()).sum();
    tally(|y| {
        y.programs += progs.len() as u64;
        y.code_bytes += bytes as u64;
    });
}

/// `rt::pool::for_each` with a `pool.wait` span on the caller, a
/// `pool.item` span (carrying `ids[i]`) around each item, and the pool's
/// busy, capacity and straggler time tallied.
pub fn traced_pool(threads: usize, ids: &[u64], f: impl Fn(usize) + Sync) -> PoolRun {
    let _wait = span("pool.wait", 0);
    let slowest = AtomicU64::new(0);
    let run = pool::for_each(threads, ids.len(), |i| {
        let t = Instant::now();
        spanned("pool.item", ids[i], || f(i));
        slowest.fetch_max(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    });
    let wall = run.wall.as_nanos() as u64;
    tally(|y| {
        y.pool_busy_ns += run.busy().as_nanos() as u64;
        y.pool_capacity_ns += threads as u64 * wall;
        y.pool_straggler_ns += slowest.load(Ordering::Relaxed);
        y.pool_wall_ns += wall;
    });
    run
}
