//! The one hash of the pinned tables, and the check that reads them.
//!
//! A table pins what some code computed, one line per input: an id, then
//! one or more [`Digest`]s of what it wrote for that input. The digests
//! hash repo-owned text (printer output, JSON, error messages) and
//! integers, never a production key hash, so the tables move only when
//! what the code computes moves. A rewrite is checked against the code it
//! replaced by a table that code wrote, without keeping that code.
//!
//! After an intended change of what a table pins, regenerate it with
//! `UPDATE_GOLDEN=1 cargo test --release --test <the test binary>`.

/// 64-bit FNV-1a.
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// A string as its length, then its bytes, so that no two sequences
    /// of strings hash as one.
    #[allow(dead_code)]
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Checks `actual` against the table at `golden` (relative to the
/// repository root) line by line, or writes it there under
/// `UPDATE_GOLDEN`.
pub fn check_table(golden: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(golden);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("table written");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("table present");
    let differing: Vec<(&str, &str)> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .collect();
    assert!(
        differing.is_empty() && expected.lines().count() == actual.lines().count(),
        "{golden}: {} of {} lines differ ({} computed); first:\n  expected {}\n  actual   {}",
        differing.len(),
        expected.lines().count(),
        actual.lines().count(),
        differing.first().map_or("", |d| d.0),
        differing.first().map_or("", |d| d.1),
    );
}
