//! Seeded random-program corpus shared by the differential tests and
//! the lint-engine sweeps.
//!
//! The generator is SplitMix64-seeded and fully deterministic: the same
//! seed always yields the same source text, so every consumer (the
//! back-path differential tests in `difftest.rs`, the lint no-panic /
//! determinism sweep in `tests/lint_integration.rs`) exercises the
//! identical ≥200 programs with no external crates and no flakiness.

use std::fmt::Write;

/// Number of seeds in the standing corpus (`0..CORPUS_SEEDS`).
pub const CORPUS_SEEDS: u64 = 220;

/// Seeded PRNG (SplitMix64), behind the corpus and the seeded test
/// generators.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose first draw is seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits. The stream never ends, so this is no
    /// `Iterator::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`next() % n`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Emits one random statement (possibly a compound one) at `depth`.
fn gen_stmt(rng: &mut SplitMix64, out: &mut String, indent: usize, depth: usize) {
    let pad = "    ".repeat(indent);
    let choice = rng.below(if depth > 0 { 12 } else { 9 });
    match choice {
        0 => writeln!(out, "{pad}X = {};", rng.below(9) + 1).unwrap(),
        1 => writeln!(out, "{pad}v = X;").unwrap(),
        2 => writeln!(out, "{pad}Y = {};", rng.below(9) + 1).unwrap(),
        3 => writeln!(out, "{pad}v = Y;").unwrap(),
        4 => writeln!(out, "{pad}A[MYPROC] = {};", rng.below(9)).unwrap(),
        5 => writeln!(out, "{pad}v = A[MYPROC + 1];").unwrap(),
        6 => writeln!(out, "{pad}post F;").unwrap(),
        7 => writeln!(out, "{pad}wait F;").unwrap(),
        8 => writeln!(out, "{pad}barrier;").unwrap(),
        9 => {
            // Balanced critical section.
            writeln!(out, "{pad}lock l;").unwrap();
            for _ in 0..=rng.below(2) {
                gen_stmt(rng, out, indent, 0);
            }
            writeln!(out, "{pad}unlock l;").unwrap();
        }
        10 => {
            writeln!(out, "{pad}if (MYPROC == 0) {{").unwrap();
            for _ in 0..=rng.below(3) {
                gen_stmt(rng, out, indent + 1, depth - 1);
            }
            writeln!(out, "{pad}}} else {{").unwrap();
            for _ in 0..=rng.below(3) {
                gen_stmt(rng, out, indent + 1, depth - 1);
            }
            writeln!(out, "{pad}}}").unwrap();
        }
        _ => {
            writeln!(out, "{pad}for (i = 0; i < 2; i = i + 1) {{").unwrap();
            for _ in 0..=rng.below(2) {
                gen_stmt(rng, out, indent + 1, depth - 1);
            }
            writeln!(out, "{pad}}}").unwrap();
        }
    }
}

/// A random synchronization-heavy SPMD program for `seed`.
pub fn corpus_program(seed: u64) -> String {
    let mut rng = SplitMix64::new(seed);
    let mut s = String::new();
    s.push_str("shared int X; shared int Y; shared int A[64];\n");
    s.push_str("flag F; lock l;\n");
    s.push_str("fn main() {\n    int v; int i;\n");
    let stmts = 3 + rng.below(8);
    for _ in 0..stmts {
        gen_stmt(&mut rng, &mut s, 1, 2);
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(corpus_program(42), corpus_program(42));
        assert_ne!(corpus_program(1), corpus_program(2));
    }
}
