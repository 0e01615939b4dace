//! Workload inputs generated from the seed.
//!
//! `lift` and `replay` explore a draw of opcode groups. The draw is
//! stratified: each of seven slots holds opcode groups whose exploration
//! costs the same (equal path and solver-query counts at the path cap,
//! within a few percent), so a seed changes *which* instructions are
//! lifted — and with them every program, path and deviation — but not
//! how much work a pass is. Every draw keeps one mul/div group, one
//! segment-load group and one control-transfer group. The seed selects
//! one of [`VARIANTS`] draws; variant 0 is the paper's root-cause hosts
//! `80 8e c9 cf a2 d6 f7`. Each variant has a committed reference.
//!
//! `hotloop` runs fixed programs; its seed only orders the dispatch of the
//! five loops, behind the two long chain programs.

use pokemu::testgen::{TestProgram, TestState};
use pokemu_rt::rng::mix64;

/// Number of distinct draws; a seed selects `seed % VARIANTS`.
pub const VARIANTS: u64 = 8;

/// An opcode group: the first byte, and the second for two-byte opcodes.
pub type Group = (u8, Option<u8>);

/// The draw's slots: `(stratum, interchangeable groups)`. Index 0 of every
/// slot is the default draw.
const SLOTS: [(&str, &[Group]); 7] = [
    // Group-1 ALU on r/m8 with imm8 (`82` is the 32-bit-mode alias of `80`).
    ("alu-imm8", &[(0x80, None), (0x82, None)]),
    // Segment loads: mov sreg and pop sreg.
    (
        "segment-load",
        &[
            (0x8e, None),
            (0x07, None),
            (0x1f, None),
            (0x17, None),
            (0x0f, Some(0xa1)),
            (0x0f, Some(0xa9)),
        ],
    ),
    // One-slot stack pops: leave and popf.
    ("stack-pop", &[(0xc9, None), (0x9d, None)]),
    // Far returns: iret, retf imm16, retf.
    (
        "control-transfer",
        &[(0xcf, None), (0xca, None), (0xcb, None)],
    ),
    // moffs moves.
    ("moffs", &[(0xa2, None), (0xa3, None), (0xa0, None)]),
    // One-path instructions: salc, cmc, clc.
    ("one-path", &[(0xd6, None), (0xf5, None), (0xf8, None)]),
    // 32-bit mul/div. `f6` (the r/m8 form) explores 30% fewer paths at
    // half the cost per path, so it would make the seed change the work.
    ("mul-div", &[(0xf7, None)]),
];

/// Index of the one-path slot in a draw.
pub const ONE_PATH_SLOT: usize = 5;

/// The variant a seed selects.
pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

/// The opcode groups of one variant, in slot order: `mix64(variant)`
/// read as a mixed-radix number picks one group per slot.
pub fn draw(variant: u64) -> Vec<Group> {
    let mut x = if variant == 0 { 0 } else { mix64(variant) };
    SLOTS
        .iter()
        .map(|(_, groups)| {
            let n = groups.len() as u64;
            let pick = x % n;
            x /= n;
            groups[pick as usize]
        })
        .collect()
}

/// The five hot-loop programs of `pokemu-bench`'s `exec_throughput`: raw
/// code the harness boots into directly, each under the step budget.
pub fn loop_programs() -> Vec<TestProgram> {
    let raw = |name: &str, body: Vec<u8>| {
        let mut code = body;
        code.push(0xf4); // hlt
        TestProgram {
            name: name.to_owned(),
            test_insn: code.clone(),
            test_insn_offset: 0,
            state: TestState::default(),
            path_id: 0,
            segments: Vec::new(),
            code,
        }
    };
    // mov ecx, 660; L: 64 × inc eax; dec ecx; jnz L
    let mut unrolled = vec![0xb9, 0x94, 0x02, 0x00, 0x00];
    unrolled.extend([0x40; 64]);
    unrolled.extend_from_slice(&[0x49, 0x75, 0xbd]);
    // mov ecx, 1300; L: 8 × (inc eax; xor eax, edx; add eax, ebx; neg eax); dec ecx; jnz L
    let mut alu_mix = vec![0xb9, 0x14, 0x05, 0x00, 0x00];
    for _ in 0..8 {
        alu_mix.extend_from_slice(&[0x40, 0x31, 0xd0, 0x01, 0xd8, 0xf7, 0xd8]);
    }
    alu_mix.extend_from_slice(&[0x49, 0x75, 0xc5]);
    // mov ecx, 1700; L: 6 × (add/xor/or/sub eax, imm32); dec ecx; jnz L
    let mut imm_mix = vec![0xb9, 0xa4, 0x06, 0x00, 0x00];
    for _ in 0..6 {
        imm_mix.extend_from_slice(&[
            0x05, 0x01, 0x00, 0x00, 0x00, 0x35, 0xff, 0x00, 0xff, 0x00, 0x0d, 0x0f, 0x00, 0x00,
            0xf0, 0x2d, 0x02, 0x00, 0x00, 0x00,
        ]);
    }
    imm_mix.extend_from_slice(&[0x49, 0x75, 0x85]);
    // mov ecx, 260; outer: mov edx, 40; inner: inc eax; dec edx; jnz inner; dec ecx; jnz outer
    let nested = vec![
        0xb9, 0x04, 0x01, 0x00, 0x00, 0xba, 0x28, 0x00, 0x00, 0x00, 0x40, 0x4a, 0x75, 0xfc, 0x49,
        0x75, 0xf4,
    ];
    vec![
        // mov ecx, 22000; L: dec ecx; jnz L
        raw(
            "throughput_dec_loop",
            vec![0xb9, 0xf0, 0x55, 0x00, 0x00, 0x49, 0x75, 0xfd],
        ),
        raw("throughput_unrolled64", unrolled),
        raw("throughput_alu_mix", alu_mix),
        raw("throughput_imm_mix", imm_mix),
        raw("throughput_nested", nested),
    ]
}

/// `hotloop`'s dispatch order over `loops` loop programs followed by
/// `chains` chain programs: the chains first, one per worker while they
/// last (each takes as long as all five loops together, so any other
/// order lets a worker idle for most of a pass), then the loops in a
/// seeded order (Fisher–Yates on SplitMix64).
pub fn order(seed: u64, loops: usize, chains: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (loops..loops + chains).collect();
    let mut rest: Vec<usize> = (0..loops).collect();
    let mut x = seed;
    for i in (1..loops).rev() {
        x = mix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15));
        rest.swap(i, x as usize % (i + 1));
    }
    v.extend(rest);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_zero_is_the_root_cause_hosts() {
        let firsts: Vec<u8> = draw(0).into_iter().map(|(b, _)| b).collect();
        assert_eq!(firsts, [0x80, 0x8e, 0xc9, 0xcf, 0xa2, 0xd6, 0xf7]);
    }

    #[test]
    fn variants_are_distinct_and_keep_the_strata() {
        let draws: Vec<Vec<Group>> = (0..VARIANTS).map(draw).collect();
        for (v, d) in draws.iter().enumerate() {
            assert_eq!(d[6], (0xf7, None));
            assert_eq!(SLOTS[ONE_PATH_SLOT].0, "one-path");
            assert!(
                !draws[..v].contains(d),
                "variant {v} repeats an earlier draw"
            );
        }
    }
}
