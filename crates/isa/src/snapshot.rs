//! Machine-state snapshots: the comparison format of the test harness.
//!
//! After a test program halts or raises an exception, every execution target
//! (Hi-Fi emulator, Lo-Fi emulator, hardware oracle) dumps its CPU state and
//! physical memory into this common format — the paper implements "our own
//! file format to simplify comparison" for the same reason (§5.1).
//! Uninitialized/zero memory is omitted: all targets zero-fill, so only
//! non-zero bytes are significant.
//!
//! Capture and comparison are linear in the non-zero bytes: every target
//! walks its memory in address order and bulk-builds [`Snapshot::mem`] from
//! that walk, and every memory comparison ([`Snapshot::diff`],
//! [`Snapshot::same_behavior`], [`Snapshot::mem_diff`]) is one merge walk
//! over the two sorted maps.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use pokemu_symx::{Concrete, Dom};

use crate::state::{Machine, Seg};

/// How a test-program execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The CPU executed `hlt`.
    Halted,
    /// An exception or software interrupt was raised.
    Exception {
        /// Vector number.
        vector: u8,
        /// Error code, if the vector pushes one.
        error: Option<u16>,
    },
    /// The step budget expired without halt or exception.
    Timeout,
}

/// Snapshot of one segment register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegSnapshot {
    /// Visible selector.
    pub selector: u16,
    /// Cached base.
    pub base: u32,
    /// Cached byte-granular limit.
    pub limit: u32,
    /// Cached attribute word.
    pub attrs: u16,
}

/// A complete final machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// General-purpose registers.
    pub gpr: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// EFLAGS.
    pub eflags: u32,
    /// Segment registers in [`Seg`] order.
    pub segs: [SegSnapshot; 6],
    /// CR0.
    pub cr0: u32,
    /// CR2.
    pub cr2: u32,
    /// CR3 (base | flags).
    pub cr3: u32,
    /// CR4.
    pub cr4: u32,
    /// GDTR (base, limit).
    pub gdtr: (u32, u16),
    /// IDTR (base, limit).
    pub idtr: (u32, u16),
    /// Non-zero physical memory bytes, in address order. Comparisons read
    /// an absent address as zero.
    pub mem: BTreeMap<u32, u8>,
    /// How execution ended.
    pub outcome: Outcome,
}

impl Snapshot {
    /// Captures a snapshot from a concrete [`Machine`].
    pub fn capture(d: &mut Concrete, m: &Machine<pokemu_symx::CVal>, outcome: Outcome) -> Snapshot {
        let g = |d: &Concrete, v| d.as_const(v).expect("concrete machine") as u32;
        let mut segs = [SegSnapshot {
            selector: 0,
            base: 0,
            limit: 0,
            attrs: 0,
        }; 6];
        for s in Seg::ALL {
            let sr = &m.segs[s as usize];
            segs[s as usize] = SegSnapshot {
                selector: g(d, sr.selector) as u16,
                base: g(d, sr.cache.base),
                limit: g(d, sr.cache.limit),
                attrs: g(d, sr.cache.attrs) as u16,
            };
        }
        // `iter_initialized` walks in address order, so `collect` takes
        // the map's bulk-build path instead of one insert per byte.
        let mem = m
            .mem
            .iter_initialized()
            .map(|(addr, v)| (addr, d.as_const(v).expect("concrete memory") as u8))
            .filter(|&(_, b)| b != 0)
            .collect();
        Snapshot {
            gpr: std::array::from_fn(|i| g(d, m.gpr[i])),
            eip: m.eip,
            eflags: g(d, m.eflags),
            segs,
            cr0: g(d, m.cr0),
            cr2: m.cr2,
            cr3: m.cr3_base | g(d, m.cr3_flags),
            cr4: g(d, m.cr4),
            gdtr: (m.gdtr.base, g(d, m.gdtr.limit) as u16),
            idtr: (m.idtr.base, g(d, m.idtr.limit) as u16),
            mem,
            outcome,
        }
    }

    /// Names of the state components in which `self` and `other` differ —
    /// the difference signature used for clustering (paper §6.2).
    pub fn diff(&self, other: &Snapshot) -> Vec<String> {
        let mut out = Vec::new();
        if self.outcome != other.outcome {
            out.push(format!(
                "outcome: {:?} vs {:?}",
                self.outcome, other.outcome
            ));
        }
        for (i, r) in crate::state::Gpr::ALL.iter().enumerate() {
            if self.gpr[i] != other.gpr[i] {
                out.push(format!(
                    "{}: {:#x} vs {:#x}",
                    r.name(),
                    self.gpr[i],
                    other.gpr[i]
                ));
            }
        }
        if self.eip != other.eip {
            out.push(format!("eip: {:#x} vs {:#x}", self.eip, other.eip));
        }
        if self.eflags != other.eflags {
            out.push(format!("eflags: {:#x} vs {:#x}", self.eflags, other.eflags));
        }
        for s in Seg::ALL {
            let (a, b) = (self.segs[s as usize], other.segs[s as usize]);
            if a != b {
                out.push(format!("{}: {:?} vs {:?}", s.name(), a, b));
            }
        }
        for (name, a, b) in [
            ("cr0", self.cr0, other.cr0),
            ("cr2", self.cr2, other.cr2),
            ("cr3", self.cr3, other.cr3),
            ("cr4", self.cr4, other.cr4),
        ] {
            if a != b {
                out.push(format!("{name}: {a:#x} vs {b:#x}"));
            }
        }
        if self.gdtr != other.gdtr {
            out.push(format!("gdtr: {:?} vs {:?}", self.gdtr, other.gdtr));
        }
        if self.idtr != other.idtr {
            out.push(format!("idtr: {:?} vs {:?}", self.idtr, other.idtr));
        }
        self.push_mem_diff(other, &mut out);
        out
    }

    /// Appends the memory components of [`Snapshot::diff`] to `out`: the
    /// first 8 differing bytes, then a total line when 8 or more differ.
    pub fn push_mem_diff(&self, other: &Snapshot, out: &mut Vec<String>) {
        let mut mem_diffs = 0;
        for (k, a, b) in self.mem_diff(other) {
            if mem_diffs < 8 {
                out.push(format!("mem[{k:#x}]: {a:#x} vs {b:#x}"));
            }
            mem_diffs += 1;
        }
        if mem_diffs >= 8 {
            out.push(format!("... {mem_diffs} memory bytes differ in total"));
        }
    }

    /// The memory bytes at which `self` and `other` differ, as
    /// `(address, self's byte, other's byte)` in address order, reading an
    /// absent address as zero. This is the one merge walk every memory
    /// comparison uses: linear in the two maps' sizes, with no key union.
    pub fn mem_diff<'a>(&'a self, other: &'a Snapshot) -> impl Iterator<Item = (u32, u8, u8)> + 'a {
        let (mut a, mut b) = (self.mem.iter().peekable(), other.mem.iter().peekable());
        std::iter::from_fn(move || loop {
            let order = match (a.peek(), b.peek()) {
                (None, None) => return None,
                (Some(_), None) => Ordering::Less,
                (None, Some(_)) => Ordering::Greater,
                (Some((ka, _)), Some((kb, _))) => ka.cmp(kb),
            };
            let (addr, x, y) = match order {
                Ordering::Less => a.next().map(|(&k, &v)| (k, v, 0))?,
                Ordering::Greater => b.next().map(|(&k, &v)| (k, 0, v))?,
                Ordering::Equal => {
                    let ((&k, &x), (_, &y)) = (a.next()?, b.next()?);
                    (k, x, y)
                }
            };
            if x != y {
                return Some((addr, x, y));
            }
        })
    }

    /// `true` when the snapshots are behaviorally identical.
    pub fn same_behavior(&self, other: &Snapshot) -> bool {
        self.registers() == other.registers() && self.mem_diff(other).next().is_none()
    }

    /// A copy of everything but memory (registers, control state and
    /// outcome), with an empty `mem`: cheap to make and to mask.
    pub fn registers(&self) -> Snapshot {
        Snapshot {
            mem: BTreeMap::new(),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pokemu_rt::prop::Gen;

    fn blank() -> Snapshot {
        Snapshot {
            gpr: [0; 8],
            eip: 0,
            eflags: 2,
            segs: [SegSnapshot {
                selector: 0,
                base: 0,
                limit: 0,
                attrs: 0,
            }; 6],
            cr0: 0,
            cr2: 0,
            cr3: 0,
            cr4: 0,
            gdtr: (0, 0),
            idtr: (0, 0),
            mem: BTreeMap::new(),
            outcome: Outcome::Halted,
        }
    }

    /// The memory part of `diff` before the merge walk: a key union with
    /// one lookup per side. The reference the walk must reproduce.
    fn union_mem_diff(a: &BTreeMap<u32, u8>, b: &BTreeMap<u32, u8>) -> Vec<String> {
        let mut out = Vec::new();
        let keys: std::collections::BTreeSet<u32> = a.keys().chain(b.keys()).copied().collect();
        let mut mem_diffs = 0;
        for k in keys {
            let a = a.get(&k).copied().unwrap_or(0);
            let b = b.get(&k).copied().unwrap_or(0);
            if a != b {
                if mem_diffs < 8 {
                    out.push(format!("mem[{k:#x}]: {a:#x} vs {b:#x}"));
                }
                mem_diffs += 1;
            }
        }
        if mem_diffs >= 8 {
            out.push(format!("... {mem_diffs} memory bytes differ in total"));
        }
        out
    }

    /// A sparse map in a 256-byte window, so two maps share keys; about a
    /// quarter of the entries are explicit zeros.
    fn sparse(g: &mut Gen) -> BTreeMap<u32, u8> {
        g.vec(0, 48, |g| {
            let v = if g.bool(0.25) { 0 } else { g.gen() };
            (g.range(0x1000..0x1100u32), v)
        })
        .into_iter()
        .collect()
    }

    /// `b` as a few edits of `a`: dropped keys, changed values, explicit
    /// zeros and new keys.
    fn edited(g: &mut Gen, a: &BTreeMap<u32, u8>) -> BTreeMap<u32, u8> {
        let mut b = a.clone();
        for _ in 0..g.range(1..24usize) {
            let k = g.range(0x1000..0x1100u32);
            match g.range(0..3u8) {
                0 => b.remove(&k),
                1 => b.insert(k, 0),
                _ => b.insert(k, g.gen()),
            };
        }
        b
    }

    pokemu_rt::prop! {
        /// The merge walk reports exactly the bytes the key union did, with
        /// the same 8-line cap and total line, and `same_behavior` agrees
        /// with an empty `diff`.
        fn merge_walk_matches_union_diff(g, cases = 512) {
            let mut a = blank();
            a.mem = sparse(g);
            let mut b = blank();
            b.mem = match g.range(0..4u8) {
                0 => a.mem.clone(),
                1 => sparse(g),
                _ => edited(g, &a.mem),
            };
            if g.bool(0.2) {
                b.gpr[g.range(0..8usize)] ^= 1;
            }
            let reference = union_mem_diff(&a.mem, &b.mem);
            let mut walked = Vec::new();
            a.push_mem_diff(&b, &mut walked);
            assert_eq!(walked, reference);
            let total = a.mem_diff(&b).count();
            assert_eq!(total, b.mem_diff(&a).count());
            assert_eq!(total.min(8) + usize::from(total >= 8), reference.len());
            assert_eq!(a.same_behavior(&b), a.diff(&b).is_empty());
            assert_eq!(b.same_behavior(&a), b.diff(&a).is_empty());
        }
    }

    #[test]
    fn explicit_zero_equals_absent() {
        let a = blank();
        let mut b = blank();
        b.mem.insert(0x2000, 0);
        assert!(a.same_behavior(&b));
        assert!(a.diff(&b).is_empty());
    }

    #[test]
    fn diff_caps_memory_lines_at_eight() {
        let a = blank();
        let mut b = blank();
        b.mem.extend((0..9u32).map(|i| (0x3000 + i, 0xff)));
        let d = a.diff(&b);
        assert_eq!(d.len(), 9);
        assert_eq!(d[0], "mem[0x3000]: 0x0 vs 0xff");
        assert_eq!(d[8], "... 9 memory bytes differ in total");
    }
}
