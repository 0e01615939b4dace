//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a quarter and more over minutes, and every rate of a run moves with
//! it. Between timed units an untraced run times, on its main thread
//! while the workers are idle, a fixed kernel that does not depend on the
//! program under test: data-dependent table lookups, stores and branches,
//! a 1 MiB copy, and a zeroed 4 MiB allocation touched once per page, as
//! every target boot allocates its guest memory.
//! Rates are scaled by the kernel's median time over [`NOMINAL_NS`]: a
//! rate is reported at the host speed at which the kernel takes
//! `NOMINAL_NS`.

use std::sync::Mutex;
use std::time::Instant;

/// Table-loop iterations per sample.
const ITERS: u32 = 60_000;
/// Table words (64 KiB).
const WORDS: usize = 1 << 14;
/// Copied words per sample (1 MiB).
const COPY_WORDS: usize = 1 << 18;
/// Freshly allocated bytes per sample (4 MiB, the guest memory size).
const FRESH_BYTES: usize = 4 << 20;
/// The kernel's median time at the reference host speed, in ns: about
/// its median on a quiet 2-vCPU KVM guest (Xeon), so that scaled rates
/// stay close to the unscaled ones there.
pub const NOMINAL_NS: f64 = 1.8e6;

/// The kernel's long-lived buffers, allocated once.
struct Buffers {
    table: Vec<u32>,
    src: Vec<u32>,
    dst: Vec<u32>,
}

static STATE: Mutex<Option<(Buffers, Vec<f64>)>> = Mutex::new(None);

/// Allocates the kernel's buffers and starts collecting samples.
pub fn enable() {
    let buffers = Buffers {
        table: (0..WORDS as u32)
            .map(|i| i.wrapping_mul(0x9e37_79b9))
            .collect(),
        src: (0..COPY_WORDS as u32).collect(),
        dst: vec![0; COPY_WORDS],
    };
    *STATE.lock().expect("calibration lock poisoned") = Some((buffers, Vec::new()));
}

/// Times the kernel once on the calling thread, if enabled. It spawns no
/// thread: extra threads change how the allocator spreads the workload's
/// memory over its arenas, and with it `peak_rss_mb`.
pub fn sample() {
    let mut state = STATE.lock().expect("calibration lock poisoned");
    let Some((buffers, samples)) = state.as_mut() else {
        return;
    };
    let t = Instant::now();
    std::hint::black_box(kernel(buffers));
    samples.push(t.elapsed().as_nanos() as f64);
}

/// The samples taken so far, in ns.
pub fn samples() -> Vec<f64> {
    let state = STATE.lock().expect("calibration lock poisoned");
    state.as_ref().map_or_else(Vec::new, |(_, s)| s.clone())
}

fn kernel(b: &mut Buffers) -> u32 {
    let mut x = 0x85eb_ca6b_u32;
    let mut acc = 0u32;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let i = x as usize & (WORDS - 1);
        let v = b.table[i];
        acc = match v & 3 {
            0 => acc.wrapping_add(v),
            1 => acc ^ v.rotate_left(7),
            2 => acc.wrapping_mul(v | 1),
            _ => acc.wrapping_sub(v >> 3),
        };
        b.table[i] = v ^ acc;
    }
    b.src[x as usize & (COPY_WORDS - 1)] = acc;
    b.dst.copy_from_slice(&b.src);
    let mut fresh = vec![0u8; FRESH_BYTES];
    for page in fresh.chunks_mut(4096) {
        page[0] = acc as u8;
    }
    let fresh = std::hint::black_box(fresh);
    let touched = fresh.iter().step_by(4096).fold(0u32, |a, &v| a + v as u32);
    b.dst
        .iter()
        .step_by(16)
        .fold(acc ^ touched, |a, &w| a.wrapping_add(w))
}
