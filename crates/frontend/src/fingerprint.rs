//! Stable content fingerprints for incremental analysis.
//!
//! The session/cache layer (`syncopt-core::cache`, `syncopt::session`)
//! keys every expensive pipeline artifact by a hash of its inputs so an
//! edited program only recomputes what actually changed. This module
//! provides the hash itself — a 128-bit FNV-1a over canonical text — and
//! the per-function hooks: a function's fingerprint is the hash of its
//! pretty-printed source (so formatting-identical definitions share one
//! fingerprint regardless of where in the file they sit), and the
//! *context* fingerprint captures everything outside a function body that
//! its type checking depends on (global declarations and every function
//! signature).
//!
//! Fingerprints are stable across processes and platforms: they depend
//! only on canonical text, never on addresses, hash-map order, or time.

use crate::ast::{Decl, Function, Program};
use crate::pretty::{decl_to_string, function_to_string};
use std::fmt;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content hash with a stable hex rendering.
///
/// ```
/// use syncopt_frontend::fingerprint::Fingerprint;
///
/// let a = Fingerprint::of("barrier;");
/// assert_eq!(a, Fingerprint::of("barrier;"));
/// assert_ne!(a, Fingerprint::of("post F;"));
/// assert_eq!(a.to_hex().len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Hashes one string.
    pub fn of(text: &str) -> Self {
        Fingerprint(FNV_OFFSET).push(text)
    }

    /// Hashes a sequence of parts. Each part is terminated before mixing,
    /// so `of_parts(&["ab", "c"])` differs from `of_parts(&["a", "bc"])`.
    pub fn of_parts(parts: &[&str]) -> Self {
        parts
            .iter()
            .fold(Fingerprint(FNV_OFFSET), |fp, part| fp.push(part))
    }

    /// Extends this fingerprint with another part (order-sensitive).
    #[must_use]
    pub fn push(self, part: &str) -> Self {
        self.push_bytes(part.as_bytes())
    }

    /// Extends this fingerprint with a number as one part — its eight
    /// little-endian bytes — so a key with numeric components formats no
    /// digits.
    #[must_use]
    pub fn push_u64(self, n: u64) -> Self {
        self.push_bytes(&n.to_le_bytes())
    }

    fn push_bytes(self, part: &[u8]) -> Self {
        let mut h = self.0;
        for b in part {
            h ^= u128::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // Terminate the part so concatenation cannot collide.
        h ^= 0x1f;
        h = h.wrapping_mul(FNV_PRIME);
        Fingerprint(h)
    }

    /// The hash as 32 lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Fingerprint of one function definition: the hash of its canonical
/// (pretty-printed) source, so whitespace and comment edits do not change
/// it.
pub fn function_fingerprint(func: &Function) -> Fingerprint {
    Fingerprint::of_parts(&["fn.v1", &function_to_string(func)])
}

/// Fingerprint of everything a function body's type checking can see
/// besides its own text: every global declaration and every function
/// signature (name and parameter types), in program order.
pub fn context_fingerprint(program: &Program) -> Fingerprint {
    let mut fp = Fingerprint::of("ctx.v1");
    for decl in &program.decls {
        fp = fp.push(&decl_to_string(decl));
    }
    for func in &program.functions {
        fp = fp.push(&signature_string(func));
    }
    fp
}

/// Fingerprint of a whole program's canonical text (declarations plus
/// every function, pretty-printed).
pub fn program_fingerprint(program: &Program) -> Fingerprint {
    let mut fp = Fingerprint::of("program.v1");
    for decl in &program.decls {
        fp = fp.push(&decl_to_string(decl));
    }
    for func in &program.functions {
        fp = fp.push(&function_to_string(func));
    }
    fp
}

/// A function's call signature as canonical text (`name(int, double)`).
fn signature_string(func: &Function) -> String {
    let params: Vec<String> = func.params.iter().map(|p| p.ty.to_string()).collect();
    format!("{}({})", func.name, params.join(", "))
}

/// Canonical per-function fingerprints for every function in `program`,
/// in program order. Each entry pairs the function name with the hash of
/// its pretty-printed definition — the per-function cache key material
/// used by the incremental session.
pub fn function_fingerprints(program: &Program) -> Vec<(String, Fingerprint)> {
    program
        .functions
        .iter()
        .map(|f| (f.name.clone(), function_fingerprint(f)))
        .collect()
}

/// Helper: a decl-only fingerprint (used to detect edits confined to
/// function bodies).
pub fn decls_fingerprint(decls: &[Decl]) -> Fingerprint {
    let mut fp = Fingerprint::of("decls.v1");
    for decl in decls {
        fp = fp.push(&decl_to_string(decl));
    }
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn part_boundaries_do_not_collide() {
        assert_ne!(
            Fingerprint::of_parts(&["ab", "c"]),
            Fingerprint::of_parts(&["a", "bc"])
        );
        assert_ne!(
            Fingerprint::of_parts(&["ab"]),
            Fingerprint::of_parts(&["ab", ""])
        );
    }

    #[test]
    fn a_number_is_one_part_of_its_eight_bytes() {
        let fp = Fingerprint::of("k");
        assert_eq!(fp.push_u64(0x4241), fp.push("AB\0\0\0\0\0\0"));
        assert_ne!(fp.push_u64(1), fp.push_u64(256));
        assert_ne!(fp.push_u64(1).push_u64(2), fp.push_u64(2).push_u64(1));
    }

    #[test]
    fn function_fingerprint_ignores_formatting_but_not_content() {
        let a = parse_program("fn main() { work(1); }").unwrap();
        let b = parse_program("fn main()   {\n    work(1);\n}").unwrap();
        let c = parse_program("fn main() { work(2); }").unwrap();
        assert_eq!(
            function_fingerprint(&a.functions[0]),
            function_fingerprint(&b.functions[0])
        );
        assert_ne!(
            function_fingerprint(&a.functions[0]),
            function_fingerprint(&c.functions[0])
        );
    }

    #[test]
    fn context_fingerprint_tracks_decls_and_signatures_only() {
        let base =
            parse_program("shared int X; fn f(int a) { work(a); } fn main() { f(1); }").unwrap();
        // Editing a body leaves the context untouched.
        let body = parse_program("shared int X; fn f(int a) { work(a + 1); } fn main() { f(1); }")
            .unwrap();
        assert_eq!(context_fingerprint(&base), context_fingerprint(&body));
        // Changing a declaration or a signature changes it.
        let decl =
            parse_program("shared int Y; fn f(int a) { work(a); } fn main() { f(1); }").unwrap();
        let sig = parse_program("shared int X; fn f(double a) { work(1); } fn main() { f(1.0); }")
            .unwrap();
        assert_ne!(context_fingerprint(&base), context_fingerprint(&decl));
        assert_ne!(context_fingerprint(&base), context_fingerprint(&sig));
    }

    #[test]
    fn program_fingerprint_is_stable_and_order_sensitive() {
        let p = parse_program("shared int X; fn main() { X = 1; }").unwrap();
        assert_eq!(program_fingerprint(&p), program_fingerprint(&p));
        let fps = function_fingerprints(&p);
        assert_eq!(fps.len(), 1);
        assert_eq!(fps[0].0, "main");
    }
}
