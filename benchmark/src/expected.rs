//! The committed reference results for simulated programs.
//!
//! `expected/memory.json` holds, for every simulated (program, procs)
//! pair, a digest of the final shared-memory image. It was generated once
//! by `regen-expected` from the **unoptimized** program (`Blocking`) on
//! the **sequential** engine — never the path under test — and a legal
//! optimization or engine change must reproduce it exactly: the paper's
//! contract is that no permitted reordering is observable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use syncopt::core::diag::json::Value;
use syncopt::ir::ids::VarId;
use syncopt::machine::Value as Word;

/// Schema tag of `expected/memory.json`.
pub const SCHEMA: &str = "syncopt.benchmark.memory.v1";

/// The committed file, embedded at build time so a run needs no lookup.
const COMMITTED: &str = include_str!("../expected/memory.json");

/// Where `regen-expected` writes, relative to the repository root.
pub const PATH: &str = "benchmark/expected/memory.json";

/// FNV-1a 64-bit digest of a final shared-memory image, as 16 hex digits.
/// Covers variable ids, lengths, and the exact bits of every word, so two
/// images digest equal only if they are bit-identical.
pub fn memory_digest(memory: &[(VarId, Vec<Word>)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (var, words) in memory {
        eat(&(var.index() as u64).to_le_bytes());
        eat(&(words.len() as u64).to_le_bytes());
        for w in words {
            match *w {
                Word::Int(v) => {
                    eat(&[0]);
                    eat(&v.to_le_bytes());
                }
                Word::Double(v) => {
                    eat(&[1]);
                    eat(&v.to_bits().to_le_bytes());
                }
                Word::Bool(v) => eat(&[2, u8::from(v)]),
            }
        }
    }
    format!("{h:016x}")
}

/// Expected memory digests keyed by `(program id, procs)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expected {
    entries: BTreeMap<(String, u32), String>,
}

impl Expected {
    /// The committed reference file.
    ///
    /// # Errors
    ///
    /// Describes the problem if the embedded file is malformed.
    pub fn committed() -> Result<Expected, String> {
        Expected::parse(COMMITTED)
    }

    /// Parses a `memory.json` document.
    ///
    /// # Errors
    ///
    /// Describes the first malformed field.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let doc = Value::parse(text).map_err(|e| format!("{PATH}: {e}"))?;
        if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("{PATH}: schema is not {SCHEMA}"));
        }
        let rows = doc
            .get("entries")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("{PATH}: missing `entries`"))?;
        let mut entries = BTreeMap::new();
        for row in rows {
            let program = row.get("program").and_then(Value::as_str);
            let procs = row
                .get("procs")
                .and_then(Value::as_int)
                .and_then(|p| u32::try_from(p).ok());
            let digest = row.get("digest").and_then(Value::as_str);
            match (program, procs, digest) {
                (Some(program), Some(procs), Some(digest)) => {
                    entries.insert((program.to_string(), procs), digest.to_string());
                }
                _ => return Err(format!("{PATH}: malformed entry {row}")),
            }
        }
        Ok(Expected { entries })
    }

    /// Records the digest for one (program, procs) pair.
    pub fn insert(&mut self, program: &str, procs: u32, digest: String) {
        self.entries.insert((program.to_string(), procs), digest);
    }

    /// The expected digest for one (program, procs) pair.
    pub fn get(&self, program: &str, procs: u32) -> Option<&str> {
        self.entries
            .get(&(program.to_string(), procs))
            .map(String::as_str)
    }

    /// Renders the document `regen-expected` commits (one entry per line,
    /// sorted, so regenerating without a functional change is a no-op
    /// diff).
    pub fn render(&self) -> String {
        let mut out = format!("{{\"schema\":\"{SCHEMA}\",\n \"generated_by\":\"regen-expected: OptLevel::Blocking, sequential engine, MachineConfig::cm5\",\n \"entries\":[\n");
        let last = self.entries.len().saturating_sub(1);
        for (i, ((program, procs), digest)) in self.entries.iter().enumerate() {
            let comma = if i == last { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"program\":\"{program}\",\"procs\":{procs},\"digest\":\"{digest}\"}}{comma}"
            );
        }
        out.push_str(" ]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image() -> Vec<(VarId, Vec<Word>)> {
        vec![
            (VarId(0), vec![Word::Int(1), Word::Int(-2)]),
            (VarId(3), vec![Word::Double(0.5), Word::Bool(true)]),
        ]
    }

    #[test]
    fn digest_is_stable_across_runs_and_builds() {
        // Pinned: the committed expected file is only as good as this
        // function staying put.
        assert_eq!(memory_digest(&image()), "194bec7a22fc92ff");
        assert_eq!(memory_digest(&image()), memory_digest(&image()));
        assert_eq!(memory_digest(&[]), "cbf29ce484222325");
    }

    #[test]
    fn digest_sees_every_bit() {
        let base = memory_digest(&image());
        let mut m = image();
        m[0].1[1] = Word::Int(-3);
        assert_ne!(memory_digest(&m), base);
        let mut m = image();
        m[1].1[0] = Word::Double(-0.5);
        assert_ne!(memory_digest(&m), base);
        let mut m = image();
        m[1].0 = VarId(2);
        assert_ne!(memory_digest(&m), base);
        // Int(1) and Bool(true) and Double(bits 1) are different words.
        let int = memory_digest(&[(VarId(0), vec![Word::Int(1)])]);
        let boolean = memory_digest(&[(VarId(0), vec![Word::Bool(true)])]);
        let double = memory_digest(&[(VarId(0), vec![Word::Double(f64::from_bits(1))])]);
        assert!(int != boolean && int != double && boolean != double);
    }

    #[test]
    fn render_round_trips() {
        let mut e = Expected::default();
        e.insert("Ocean", 64, "00ff".to_string());
        e.insert("EM3D", 256, "abcd".to_string());
        let back = Expected::parse(&e.render()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.get("Ocean", 64), Some("00ff"));
        assert_eq!(back.get("Ocean", 16), None);
    }

    #[test]
    fn committed_file_parses() {
        Expected::committed().unwrap();
    }
}
