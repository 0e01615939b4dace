//! End-to-end check: the baseline initializer brings both emulators to the
//! same state, and a trivial test program halts cleanly on both.

use pokemu_hifi::{HiFi, RunExit as HiExit};
use pokemu_isa::state::Seg;
use pokemu_lofi::{Fidelity, Lofi, RunExit as LoExit};
use pokemu_testgen::{apply_boot, boot_state, layout, TestProgram};

/// Applies the boot-loader state to the Hi-Fi emulator and loads the code.
fn boot_hifi(prog: &TestProgram) -> HiFi {
    let mut emu = HiFi::new();
    {
        let (d, m) = emu.parts_mut();
        apply_boot(d, m);
    }
    emu.load_image(layout::CODE_BASE, &prog.code);
    emu
}

/// Applies the boot-loader state to the Lo-Fi emulator and loads the code.
fn boot_lofi(prog: &TestProgram, fid: Fidelity) -> Lofi {
    let boot = boot_state();
    let mut emu = Lofi::new(fid);
    {
        let m = emu.machine_mut();
        m.cr0 = boot.cr0;
        m.eip = boot.eip;
        m.gpr[4] = boot.esp;
        for (s, b) in m.segs.iter_mut().zip(boot.segs) {
            *s = pokemu_lofi::state::LofiSeg {
                selector: b.selector,
                base: b.base,
                limit: b.limit,
                attrs: b.attrs,
            };
        }
    }
    emu.load_image(layout::CODE_BASE, &prog.code);
    emu
}

#[test]
fn baseline_plus_nop_halts_on_both_emulators() {
    let prog = TestProgram::baseline_only("nop".into(), &[0x90]).unwrap();

    let mut hi = boot_hifi(&prog);
    let hi_exit = hi.run(20_000);
    assert_eq!(hi_exit, HiExit::Halted, "Hi-Fi must complete the baseline");

    let mut lo = boot_lofi(&prog, Fidelity::QEMU_LIKE);
    let lo_exit = lo.run(20_000);
    assert_eq!(lo_exit, LoExit::Halted, "Lo-Fi must complete the baseline");

    let hs = hi.snapshot(hi_exit);
    let ls = lo.snapshot(lo_exit);
    let diffs = hs.diff(&ls);
    assert!(
        diffs.is_empty(),
        "baseline must be identical:\n{}",
        diffs.join("\n")
    );

    // Paging is on and the environment is as §4.1 describes.
    assert_eq!(hs.cr0 & 0x8000_0001, 0x8000_0001, "PE and PG set");
    assert_eq!(hs.cr3 & 0xffff_f000, layout::PD_BASE);
    assert_eq!(hs.gdtr, (layout::GDT_BASE, layout::GDT_LIMIT));
    assert_eq!(
        hs.segs[Seg::Ss as usize].selector,
        10 << 3,
        "SS uses GDT entry 10"
    );
    assert_eq!(hs.gpr, [0, 0, 0, 0, layout::STACK_TOP, 0, 0, 0]);
    assert_eq!(hs.eflags, layout::BASE_EFLAGS);
}

#[test]
fn fig5_push_eax_test_runs_on_both() {
    use pokemu_isa::state::Gpr;
    use pokemu_testgen::{StateItem, TestState};
    let state = TestState {
        items: vec![
            StateItem::Gpr(Gpr::Esp, 0x002007dc),
            StateItem::MemByte(layout::GDT_BASE + 10 * 8 + 5, 0x13),
            StateItem::MemByte(layout::GDT_BASE + 10 * 8 + 6, 0xcf),
        ],
    };
    let prog = TestProgram::build("push_eax".into(), state, &[0x50]).unwrap();
    let mut hi = boot_hifi(&prog);
    let hi_exit = hi.run(20_000);
    // Byte 5 = 0x13 clears the present bit: the SS reload gadget itself
    // faults with #SS(sel). A test ending in an exception is still a valid
    // test (paper §4: "either halts normally or raises an exception").
    assert_eq!(
        hi_exit,
        HiExit::Exception(pokemu_isa::Exception::Ss(10 << 3)),
        "modified descriptor is not present"
    );

    let mut lo = boot_lofi(&prog, Fidelity::QEMU_LIKE);
    let lo_exit = lo.run(20_000);
    assert_eq!(
        lo_exit,
        LoExit::Exception(pokemu_isa::Exception::Ss(10 << 3))
    );

    // And the final states agree byte for byte.
    let d = hi.snapshot(hi_exit).diff(&lo.snapshot(lo_exit));
    assert!(d.is_empty(), "final states must agree:\n{}", d.join("\n"));
}
