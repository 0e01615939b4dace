//! # pokemu-explore
//!
//! Path-exploration lifting (paper §3): the core contribution. This crate
//! drives the symbolic execution engine over the Hi-Fi emulator to:
//!
//! 1. enumerate the instruction set from the decoder ([`insn_space`],
//!    paper §3.2);
//! 2. explore the machine-state space of each instruction's implementation
//!    ([`state_space`], §3.3), using the Figure-3 symbolic state
//!    ([`symstate`]) and the descriptor-load summary (§3.3.2);
//! 3. minimize each path's solver model against the baseline state (§3.4)
//!    and emit [`pokemu_testgen::TestState`]s ready for test-program
//!    generation (§4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod insn_space;
pub mod state_space;
pub mod symstate;

pub use insn_space::{explore_instruction_space, ClassRep, InsnSpace, InsnSpaceConfig};
pub use state_space::{
    explore_state_space, to_chain_segments, to_test_programs, PathEnd, PathTest, StateSpace,
    StateSpaceConfig,
};

#[cfg(test)]
pub(crate) fn baseline_snapshot() -> pokemu_isa::snapshot::Snapshot {
    use pokemu_hifi::HiFi;
    use pokemu_testgen::{apply_boot, layout, TestProgram};

    let prog = TestProgram::baseline_only("baseline".into(), &[0x90]).expect("baseline builds");
    let mut emu = HiFi::new();
    {
        let (d, m) = emu.parts_mut();
        apply_boot(d, m);
    }
    emu.load_image(layout::CODE_BASE, &prog.code);
    let exit = emu.run(20_000);
    assert_eq!(exit, pokemu_hifi::RunExit::Halted);
    emu.snapshot(exit)
}
