//! Stable content fingerprints for incremental analysis.
//!
//! The session/cache layer (`syncopt-core::cache`, `syncopt::session`)
//! keys every expensive pipeline artifact by a hash of its inputs so an
//! edited program only recomputes what actually changed. This module
//! provides the hash itself: a 128-bit multiplicative hash that absorbs
//! each part as little-endian eight-byte words (the last one padded with
//! zero bytes) — per word one xor, one 128-bit multiply by the FNV prime
//! and a fold of the high half into the low one — and then absorbs the
//! part's length. The length ends the part, so no byte inside a part can
//! read as the boundary between two. It is not collision-resistant
//! against someone choosing inputs; it only keeps distinct inputs apart.
//!
//! Fingerprints are stable across processes and platforms: they depend
//! only on canonical text, never on addresses, hash-map order, or time.
//! They are never stored, so a change of the hash migrates nothing.

use std::fmt;

/// 128-bit FNV offset basis: the state before the first part.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV prime: the multiplier of every step.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A 128-bit content hash with a stable hex rendering.
///
/// ```
/// use syncopt_frontend::fingerprint::Fingerprint;
///
/// let a = Fingerprint::of("barrier;");
/// assert_eq!(a, Fingerprint::of("barrier;"));
/// assert_ne!(a, Fingerprint::of("post F;"));
/// assert_eq!(a.to_string().len(), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// Hashes one string.
    pub fn of(text: &str) -> Self {
        Fingerprint(FNV_OFFSET).push(text)
    }

    /// Hashes a sequence of parts. Each part ends with its length, so
    /// `of_parts(&["ab", "c"])` differs from `of_parts(&["a", "bc"])`.
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

    /// Absorbs `part` eight bytes per step, then its length.
    fn push_bytes(self, part: &[u8]) -> Self {
        let mut words = part.chunks_exact(8);
        let mut h = self.0;
        for word in &mut words {
            h = mix(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            h = mix(h, u64::from_le_bytes(word));
        }
        Fingerprint(mix(h, part.len() as u64))
    }
}

/// One step: `word` into the low half, a multiply, the high half folded
/// into the low one. For a fixed `word` the step is a bijection of the
/// state, and from one state two different words give two different
/// states.
#[inline]
fn mix(h: u128, word: u64) -> u128 {
    let h = (h ^ u128::from(word)).wrapping_mul(FNV_PRIME);
    h ^ (h >> 64)
}

/// The hash as 32 lowercase hex digits.
impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hash absorbed one byte at a time: each word assembled byte by
    /// byte, mixed when full and at the end of a part.
    fn reference(parts: &[&[u8]]) -> Fingerprint {
        let mut h = FNV_OFFSET;
        for part in parts {
            let mut word = 0u64;
            for (i, &b) in part.iter().enumerate() {
                word |= u64::from(b) << (8 * (i % 8));
                if i % 8 == 7 {
                    h = mix(h, word);
                    word = 0;
                }
            }
            if part.len() % 8 != 0 {
                h = mix(h, word);
            }
            h = mix(h, part.len() as u64);
        }
        Fingerprint(h)
    }

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

    /// A byte 0x1f inside a part is data, not a terminator: every way of
    /// cutting a string that holds one into two parts hashes differently
    /// from every other and from the whole string as one part, for every
    /// length up to three words and every position of the 0x1f (and of a
    /// second one mirroring it).
    #[test]
    fn every_split_of_a_string_holding_0x1f_is_distinct() {
        for len in 1..=24 {
            for at in 0..len {
                let text: String = (0..len)
                    .map(|i| match i {
                        _ if i == at || i == len - 1 - at => '\x1f',
                        _ if i % 5 == 4 => '\0',
                        _ => char::from(b'a' + (i % 3) as u8),
                    })
                    .collect();
                let mut keys: Vec<_> = (0..=len)
                    .map(|cut| Fingerprint::of_parts(&[&text[..cut], &text[cut..]]))
                    .collect();
                keys.push(Fingerprint::of(&text));
                keys.sort();
                keys.dedup();
                assert_eq!(keys.len(), len + 2, "{text:?}");
            }
        }
    }

    /// The word-at-a-time hash is the byte-at-a-time one, for every part
    /// length around each word boundary.
    #[test]
    fn words_absorb_what_the_byte_reference_absorbs() {
        let text: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=text.len() {
            for cut in 0..=len {
                let (a, b) = text[..len].split_at(cut);
                let fp = Fingerprint(FNV_OFFSET).push_bytes(a).push_bytes(b);
                assert_eq!(fp, reference(&[a, b]), "{len} cut at {cut}");
            }
        }
    }

    /// The hash of a fixed input, so a change of the function is seen.
    #[test]
    fn a_fixed_input_keeps_its_fingerprint() {
        let fp = Fingerprint::of_parts(&["src.v1", "shared int X;\nfn main() { X = 1; }\n"]);
        assert_eq!(fp.to_string(), "d18efbf68471104913972f5a198c762d");
    }
}
