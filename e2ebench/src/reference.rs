//! Committed expected outputs, one file per workload and draw variant
//! under `e2ebench/reference/`.
//!
//! A reference is a tab-separated text file. Header lines start with `#`:
//! `#programs <n>` and `#insns <hw> <hifi> <lofi>` (guest instructions one
//! pass retires on each target, as the emulators count them). Every other
//! line is one expected record whose first field names the program it
//! belongs to, so a mismatch can say which program drifted.

use std::path::{Path, PathBuf};

use pokemu::harness::DeviationRecord;

/// A parsed reference.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reference {
    /// Programs one pass runs.
    pub programs: u64,
    /// Guest instructions one pass retires, indexed like `layers::TARGETS`.
    pub insns: [u64; 3],
    /// Expected records, in output order.
    pub lines: Vec<String>,
}

/// The reference directory, next to this package's manifest.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("reference")
}

/// One deviation as a reference line.
pub fn dev_line(d: &DeviationRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}",
        d.test,
        d.target,
        d.insn_hex,
        d.path_id,
        d.cause,
        d.components.join(",")
    )
}

impl Reference {
    /// Reads a reference file.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
        let mut r = Reference::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields[0] {
                "#programs" => r.programs = parse(&fields, 1, path)?,
                "#insns" => {
                    for (i, slot) in r.insns.iter_mut().enumerate() {
                        *slot = parse(&fields, i + 1, path)?;
                    }
                }
                _ => r.lines.push(line.to_owned()),
            }
        }
        if r.programs == 0 {
            return Err(format!(
                "reference {} has no #programs line",
                path.display()
            ));
        }
        Ok(r)
    }

    /// Renders the file form.
    pub fn render(&self) -> String {
        let mut out = format!(
            "#programs\t{}\n#insns\t{}\t{}\t{}\n",
            self.programs, self.insns[0], self.insns[1], self.insns[2]
        );
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Checks produced records against the expected ones; on a mismatch
    /// the error names the workload and the first drifted program.
    pub fn check(&self, workload: &str, programs: u64, lines: &[String]) -> Result<(), String> {
        if programs != self.programs {
            return Err(format!(
                "{workload}: {programs} programs ran, the reference expects {}",
                self.programs
            ));
        }
        if lines == self.lines.as_slice() {
            return Ok(());
        }
        let name = |l: &str| l.split('\t').next().unwrap_or("?").to_owned();
        if let Some(extra) = lines.iter().find(|l| !self.lines.contains(l)) {
            return Err(format!(
                "{workload}: program {} produced a record the reference lacks: {extra}",
                name(extra)
            ));
        }
        if let Some(missing) = self.lines.iter().find(|l| !lines.contains(l)) {
            return Err(format!(
                "{workload}: program {} lost the reference record: {missing}",
                name(missing)
            ));
        }
        Err(format!(
            "{workload}: records match the reference as a set but not in order or count"
        ))
    }

    /// The expected records without the per-program guest-instruction
    /// lines (third field `insns`), which only a traced run can produce.
    pub fn without_insns(&self) -> Reference {
        Reference {
            lines: self
                .lines
                .iter()
                .filter(|l| l.split('\t').nth(2) != Some("insns"))
                .cloned()
                .collect(),
            ..self.clone()
        }
    }

    /// One program's guest instructions on one target (0 if absent).
    pub fn insns_of(&self, program: &str, target: &str) -> u64 {
        self.lines
            .iter()
            .find_map(|l| {
                let f: Vec<&str> = l.split('\t').collect();
                (f.len() == 4 && f[0] == program && f[1] == target && f[2] == "insns")
                    .then(|| f[3].parse().ok())
                    .flatten()
            })
            .unwrap_or(0)
    }

    /// Checks the traced run's guest-instruction totals.
    pub fn check_insns(&self, workload: &str, insns: [u64; 3]) -> Result<(), String> {
        if insns == self.insns {
            Ok(())
        } else {
            Err(format!(
                "{workload}: guest instructions (hw, hifi, lofi) {insns:?}, the reference expects {:?}",
                self.insns
            ))
        }
    }
}

fn parse(fields: &[&str], i: usize, path: &Path) -> Result<u64, String> {
    fields
        .get(i)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("reference {}: malformed header", path.display()))
}
