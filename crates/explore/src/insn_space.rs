//! Instruction-set exploration (paper §3.2).
//!
//! Symbolically executes the instruction decoder with a 15-byte buffer whose
//! first three bytes are symbolic (the rest zero), discovering every byte
//! sequence the decoder accepts and partitioning them by per-instruction
//! code ([`pokemu_isa::InstClass`]). One representative per class becomes a
//! test instruction.

use std::collections::HashMap;

use pokemu_isa::decode;
use pokemu_isa::inst::InstClass;
use pokemu_solver::TermId;
use pokemu_symx::{Dom, Executor, ExploreConfig};

/// A representative byte sequence for one instruction class.
#[derive(Debug, Clone)]
pub struct ClassRep {
    /// The per-instruction-code equivalence class.
    pub class: InstClass,
    /// A concrete encoding (already truncated to the instruction length).
    pub bytes: Vec<u8>,
}

/// The result of exploring the instruction space.
#[derive(Debug)]
pub struct InsnSpace {
    /// Byte sequences accepted by the decoder — the paper's "candidate byte
    /// sequences encoding valid instructions" (68,977 for full x86, §6.1).
    pub candidates: usize,
    /// Paths ending in #UD or another decode fault.
    pub invalid: usize,
    /// Unique instructions (one per class; 880 in the paper).
    pub classes: Vec<ClassRep>,
    /// Whether the exploration covered every decoder path.
    pub complete: bool,
}

/// Configuration for instruction-space exploration.
#[derive(Debug, Clone, Copy)]
pub struct InsnSpaceConfig {
    /// Restrict the first byte to one value (used to partition work and by
    /// fast tests). `None` explores all 256.
    pub first_byte: Option<u8>,
    /// Restrict the second byte (e.g. the second opcode byte after 0x0F).
    pub second_byte: Option<u8>,
    /// Path cap for the underlying engine.
    pub max_paths: usize,
}

impl Default for InsnSpaceConfig {
    fn default() -> Self {
        InsnSpaceConfig {
            first_byte: None,
            second_byte: None,
            max_paths: 400_000,
        }
    }
}

/// Size of the `coverage.opcode` bitmap: 256 one-byte opcodes plus 256
/// two-byte (`0F xx`) opcodes.
pub const OPCODE_COVERAGE_BITS: usize = 512;

/// Bit index of an [`InstClass`] opcode in the `coverage.opcode` map:
/// one-byte opcodes map to `0..256`, two-byte (`0x0F00 | b`) to `256..512`.
pub fn opcode_coverage_index(opcode: u16) -> usize {
    if opcode < 0x100 {
        opcode as usize
    } else {
        0x100 | (opcode & 0xff) as usize
    }
}

/// Explores the decoder, returning candidates and unique classes.
pub fn explore_instruction_space(config: InsnSpaceConfig) -> InsnSpace {
    let _scope = pokemu_rt::scope!("explore.insn_space");
    let mut exec = Executor::with_config(ExploreConfig {
        max_paths: config.max_paths,
        ..ExploreConfig::default()
    });
    let result = exec.explore(|e| {
        // 15-byte buffer: 3 symbolic bytes, the rest zero (§6.1).
        let mut buf: Vec<TermId> = Vec::with_capacity(15);
        for i in 0..3 {
            let b = e.fresh_input(8, &format!("insn_b{i}"));
            let fixed = match i {
                0 => config.first_byte,
                1 => config.second_byte,
                _ => None,
            };
            if let Some(fixed) = fixed {
                let k = e.constant(8, fixed as u64);
                let ok = e.eq(b, k);
                e.assume(ok);
            }
            buf.push(b);
        }
        for _ in 3..15 {
            buf.push(e.constant(8, 0));
        }
        let r = decode::decode(e, |_, idx| Ok(buf[idx as usize]));
        r.map(|inst| (inst.class, inst.len)).map_err(|_| ())
    });

    let mut candidates = 0;
    let mut invalid = 0;
    let mut classes: HashMap<InstClass, ClassRep> = HashMap::new();
    for p in &result.paths {
        match p.value {
            Err(()) => invalid += 1,
            Ok((class, len)) => {
                candidates += 1;
                classes.entry(class).or_insert_with(|| {
                    let mut bytes = Vec::new();
                    for i in 0..len.min(15) {
                        let name = format!("insn_b{i}");
                        let byte = exec
                            .named_var_id(&name)
                            .map(|v| p.model.value_or(v, 0) as u8)
                            .unwrap_or(0);
                        bytes.push(byte);
                    }
                    ClassRep { class, bytes }
                });
            }
        }
    }
    let mut classes: Vec<ClassRep> = classes.into_values().collect();
    classes.sort_by_key(|c| c.class);
    pokemu_rt::metrics::counter("explore.candidates").add(candidates as u64);
    pokemu_rt::metrics::counter("explore.classes").add(classes.len() as u64);
    // Opcode-space coverage: which of the 512 one-/two-byte opcodes this
    // exploration discovered at least one valid encoding for.
    let opcode_cov = pokemu_rt::coverage::map("coverage.opcode", OPCODE_COVERAGE_BITS);
    for c in &classes {
        opcode_cov.set(opcode_coverage_index(c.class.opcode));
    }
    InsnSpace {
        candidates,
        invalid,
        classes,
        complete: result.complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_opcode_yields_one_class() {
        // 0x50 = push eax: no modrm, no immediate -> exactly one class.
        let r = explore_instruction_space(InsnSpaceConfig {
            first_byte: Some(0x50),
            second_byte: None,
            max_paths: 64,
        });
        assert!(r.complete);
        assert_eq!(r.candidates, 1);
        assert_eq!(r.classes.len(), 1);
        assert_eq!(r.classes[0].bytes, vec![0x50]);
        assert_eq!(r.invalid, 0);
    }

    #[test]
    fn modrm_opcode_splits_by_group_and_form() {
        // 0xF7: group with sub-opcodes 0..7, each in register and memory
        // forms (several addressing modes collapse into one class).
        let r = explore_instruction_space(InsnSpaceConfig {
            first_byte: Some(0xf7),
            second_byte: None,
            max_paths: 4096,
        });
        assert!(r.complete);
        // 8 sub-opcodes x {reg, mem} = 16 classes.
        assert_eq!(
            r.classes.len(),
            16,
            "classes: {:?}",
            r.classes
                .iter()
                .map(|c| c.class.to_string())
                .collect::<Vec<_>>()
        );
        assert!(r.candidates > r.classes.len(), "many encodings per class");
    }

    #[test]
    fn invalid_opcode_paths_are_counted() {
        // 0xD8 is FPU territory: everything is #UD.
        let r = explore_instruction_space(InsnSpaceConfig {
            first_byte: Some(0xd8),
            second_byte: None,
            max_paths: 64,
        });
        assert!(r.complete);
        assert_eq!(r.classes.len(), 0);
        assert!(r.invalid >= 1);
        assert_eq!(r.candidates, 0);
    }

    #[test]
    fn representative_bytes_decode_to_their_class() {
        let r = explore_instruction_space(InsnSpaceConfig {
            first_byte: Some(0x80),
            second_byte: None,
            max_paths: 4096,
        });
        assert!(r.complete);
        use pokemu_symx::Concrete;
        for rep in &r.classes {
            let mut d = Concrete::new();
            let bytes = rep.bytes.clone();
            let inst = decode::decode(&mut d, |d, i| {
                Ok(d.constant(8, *bytes.get(i as usize).unwrap_or(&0) as u64))
            })
            .expect("representative must decode");
            assert_eq!(inst.class, rep.class);
        }
    }
}
