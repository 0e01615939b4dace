//! The baseline execution environment (paper §4.1).
//!
//! A minimalist 32-bit protected-mode environment with paging: a flat GDT
//! (zero base, 4-GiB limit), a page table mapping the 4-GiB linear space
//! onto 4 MiB of physical memory (every 4-MiB region aliases the same
//! physical memory), and an IDT whose handlers halt. The baseline state is
//! established by *guest code* — the baseline initializer — so that every
//! execution target reaches it the same way, exactly as the paper's
//! bootable images do.

use pokemu_isa::asm::Asm;
use pokemu_isa::state::{attrs, selector, Gpr, RawDescriptor, Seg};
use pokemu_isa::Machine;
use pokemu_symx::{CVal, Concrete, Dom};

/// Physical address of the GDT.
pub const GDT_BASE: u32 = 0x0000_1000;
/// Physical address of the IDT.
pub const IDT_BASE: u32 = 0x0000_2000;
/// Address of the halting exception handler.
pub const HALT_HANDLER: u32 = 0x0000_3000;
/// Scratch area for `lgdt`/`lidt` operand blocks.
pub const SCRATCH_BASE: u32 = 0x0000_4000;
/// Page-directory base.
pub const PD_BASE: u32 = 0x0001_0000;
/// Page-table base (one table, aliased by every PDE).
pub const PT_BASE: u32 = 0x0001_1000;
/// Where test programs are loaded and entered.
pub const CODE_BASE: u32 = 0x0002_0000;
/// Baseline stack top (paper's Fig. 5 uses a nearby value).
pub const STACK_TOP: u32 = 0x0020_07e0;
/// Baseline EFLAGS (IF set, fixed bit 1).
pub const BASE_EFLAGS: u32 = 0x0000_0202;
/// GDT limit: 16 entries.
pub const GDT_LIMIT: u16 = 16 * 8 - 1;
/// IDT limit: 64 gates.
pub const IDT_LIMIT: u16 = 64 * 8 - 1;

/// GDT entry indexes for each baseline segment. SS deliberately uses entry
/// 10 so generated tests look like the paper's Fig. 5.
pub const fn gdt_index(seg: Seg) -> u16 {
    match seg {
        Seg::Cs => 1,
        Seg::Ds => 5,
        Seg::Es => 4,
        Seg::Fs => 6,
        Seg::Gs => 7,
        Seg::Ss => 10,
    }
}

/// The baseline selector for a segment.
pub fn baseline_selector(seg: Seg) -> u16 {
    selector::build(gdt_index(seg), false, 0)
}

/// The baseline raw descriptor for a segment (flat, ring 0, pre-accessed so
/// reloads never write the accessed bit back).
pub fn baseline_descriptor(seg: Seg) -> RawDescriptor {
    RawDescriptor::flat(if seg == Seg::Cs { 0xb } else { 0x3 })
}

/// Emits the baseline initializer (paper §4.1): GDT + segment reloads,
/// page tables + paging enable, IDT, and register normalization.
///
/// `code_base` is where this code will execute (needed for the CS-reload
/// far jump).
pub fn emit_baseline(a: &mut Asm, code_base: u32) {
    // --- GDT entries ---
    for seg in Seg::ALL {
        let idx = gdt_index(seg) as u32;
        let bytes = baseline_descriptor(seg).encode();
        let lo = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let hi = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        a.mov_m32_imm32(GDT_BASE + idx * 8, lo);
        a.mov_m32_imm32(GDT_BASE + idx * 8 + 4, hi);
    }
    // --- lgdt ---
    a.mov_m16_imm16(SCRATCH_BASE, GDT_LIMIT);
    a.mov_m32_imm32(SCRATCH_BASE + 2, GDT_BASE);
    a.lgdt(SCRATCH_BASE);
    // --- reload CS with a far jump to the next instruction ---
    let target = code_base + a.len() as u32 + 7; // jmp_far is 7 bytes
    a.jmp_far(baseline_selector(Seg::Cs), target);
    // --- reload data/stack segments ---
    for seg in [Seg::Es, Seg::Ss, Seg::Ds, Seg::Fs, Seg::Gs] {
        a.mov_ax_imm16(baseline_selector(seg));
        a.mov_sreg_ax(seg);
    }
    a.mov_r32_imm32(Gpr::Esp, STACK_TOP);

    // --- page directory: every PDE -> the single page table ---
    a.mov_r32_imm32(Gpr::Edi, PD_BASE);
    a.mov_r32_imm32(Gpr::Eax, PT_BASE | 0x7); // P | RW | US
    a.mov_r32_imm32(Gpr::Ecx, 1024);
    a.raw(&[0xfc]); // cld
    a.raw(&[0xf3, 0xab]); // rep stosd
                          // --- page table: identity map of the 4-MiB physical memory ---
    a.mov_r32_imm32(Gpr::Edi, PT_BASE);
    a.mov_r32_imm32(Gpr::Eax, 0x7);
    a.mov_r32_imm32(Gpr::Ecx, 1024);
    // L: mov [edi], eax; add eax, 0x1000; add edi, 4; loop L
    // Body is 10 bytes; `loop` itself is 2, so the displacement is -12.
    a.raw(&[0x89, 0x07]);
    a.raw(&[0x05, 0x00, 0x10, 0x00, 0x00]);
    a.raw(&[0x83, 0xc7, 0x04]);
    a.raw(&[0xe2, 0xf4]);

    // --- IDT: 64 interrupt gates to the halting handler ---
    // Gate: offset[15:0], selector, 0x8E00, offset[31:16].
    let cs = baseline_selector(Seg::Cs) as u32;
    let lo = (HALT_HANDLER & 0xffff) | (cs << 16);
    let hi = 0x0000_8e00 | (HALT_HANDLER & 0xffff_0000);
    a.mov_r32_imm32(Gpr::Edi, IDT_BASE);
    a.mov_r32_imm32(Gpr::Eax, lo);
    a.mov_r32_imm32(Gpr::Ebx, hi);
    a.mov_r32_imm32(Gpr::Ecx, 64);
    // L: mov [edi], eax; mov [edi+4], ebx; add edi, 8; loop L
    a.raw(&[0x89, 0x07]);
    a.raw(&[0x89, 0x5f, 0x04]);
    a.raw(&[0x83, 0xc7, 0x08]);
    a.raw(&[0xe2, 0xf6]);
    a.mov_m8_imm8(HALT_HANDLER, 0xf4); // the handler: hlt
    a.mov_m16_imm16(SCRATCH_BASE + 8, IDT_LIMIT);
    a.mov_m32_imm32(SCRATCH_BASE + 10, IDT_BASE);
    a.lidt(SCRATCH_BASE + 8);

    // --- enable paging ---
    a.mov_r32_imm32(Gpr::Eax, PD_BASE);
    a.mov_cr3_eax();
    a.mov_eax_cr0();
    a.raw(&[0x0d, 0x00, 0x00, 0x00, 0x80]); // or eax, 0x80000000
    a.mov_cr0_eax();

    // --- normalize registers and flags ---
    for r in [
        Gpr::Eax,
        Gpr::Ecx,
        Gpr::Edx,
        Gpr::Ebx,
        Gpr::Ebp,
        Gpr::Esi,
        Gpr::Edi,
    ] {
        a.mov_r32_imm32(r, 0);
    }
    a.push_imm32(BASE_EFLAGS);
    a.popf();
}

/// A description of the *boot* state: what the off-the-shelf boot loader
/// established before the baseline initializer runs (§4.1 — "the boot
/// loader we use happens to already configure the machine in 32-bit
/// protected mode"). Execution targets apply this directly; the reference
/// model's targets through [`apply_boot`].
#[derive(Debug, Clone, Copy)]
pub struct BootState {
    /// Initial EIP (start of the loaded image).
    pub eip: u32,
    /// Initial ESP.
    pub esp: u32,
    /// CR0 (PE set, paging off).
    pub cr0: u32,
    /// Every segment register, in [`Seg::ALL`] order.
    pub segs: [BootSeg; 6],
}

/// One segment register as the boot loader leaves it: the flat 4-GiB
/// segment behind GDT selector `0x8`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootSeg {
    /// Visible selector.
    pub selector: u16,
    /// Cached base.
    pub base: u32,
    /// Cached byte-granular limit.
    pub limit: u32,
    /// Cached attributes ([`attrs`] layout): type `0xb` (execute/read,
    /// accessed) for CS and `0x3` (read/write, accessed) otherwise, with
    /// S, P, DB and G set.
    pub attrs: u16,
}

/// The boot state used by every target.
pub fn boot_state() -> BootState {
    BootState {
        eip: CODE_BASE,
        esp: STACK_TOP,
        cr0: 1,
        segs: Seg::ALL.map(|seg| BootSeg {
            selector: 0x8,
            base: 0,
            limit: 0xffff_ffff,
            attrs: if seg == Seg::Cs { 0xb } else { 0x3 }
                | 1 << attrs::S
                | 1 << attrs::P
                | 1 << attrs::DB
                | 1 << attrs::G,
        }),
    }
}

/// Applies the boot state to a reference-model machine (the Hi-Fi
/// emulator's and the hardware oracle's).
pub fn apply_boot(d: &mut Concrete, m: &mut Machine<CVal>) {
    let boot = boot_state();
    m.cr0 = d.constant(32, boot.cr0.into());
    m.eip = boot.eip;
    m.gpr[Gpr::Esp as usize] = d.constant(32, boot.esp.into());
    for (s, b) in m.segs.iter_mut().zip(boot.segs) {
        s.selector = d.constant(16, b.selector.into());
        s.cache.base = d.constant(32, b.base.into());
        s.cache.limit = d.constant(32, b.limit.into());
        s.cache.attrs = d.constant(attrs::WIDTH, b.attrs.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_assembles_and_every_insn_decodes() {
        let mut a = Asm::new();
        emit_baseline(&mut a, CODE_BASE);
        let bytes = a.bytes().to_vec();
        assert!(bytes.len() > 100);
        let mut d = pokemu_symx::Concrete::new();
        let mut off = 0usize;
        use pokemu_symx::Dom;
        while off < bytes.len() {
            let window = bytes[off..].to_vec();
            let inst = pokemu_isa::decode(&mut d, |d, i| {
                Ok(d.constant(8, *window.get(i as usize).unwrap_or(&0) as u64))
            })
            .unwrap_or_else(|e| panic!("undecodable baseline byte at {off}: {e:?}"));
            off += inst.len as usize;
        }
        assert_eq!(off, bytes.len());
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        let regions = [
            (GDT_BASE, 16 * 8u32),
            (IDT_BASE, 64 * 8),
            (HALT_HANDLER, 1),
            (SCRATCH_BASE, 16),
            (PD_BASE, 4096),
            (PT_BASE, 4096),
            (CODE_BASE, 0x1000),
        ];
        for (i, &(a, al)) in regions.iter().enumerate() {
            for &(b, bl) in &regions[i + 1..] {
                assert!(a + al <= b || b + bl <= a, "overlap: {a:#x} and {b:#x}");
            }
        }
    }
}
