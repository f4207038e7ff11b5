//! The delay set `D` (§3): ordered pairs of access sites `(u, v)` such that
//! `v` must not be issued until `u` has completed.

use syncopt_ir::ids::AccessId;
use syncopt_ir::order::{BitMatrix, BitSet};

/// A set of ordered delay pairs over `n` access sites.
#[derive(Debug, Clone)]
pub struct DelaySet {
    n: usize,
    m: BitMatrix,
    count: usize,
}

impl DelaySet {
    /// An empty delay set over `n` access sites.
    pub fn new(n: usize) -> Self {
        DelaySet {
            n,
            m: BitMatrix::new(n),
            count: 0,
        }
    }

    /// The delay set whose pairs are the set bits of the square `m`.
    pub(crate) fn from_matrix(m: BitMatrix) -> Self {
        DelaySet {
            n: m.len(),
            count: m.count_ones(),
            m,
        }
    }

    /// Number of access sites covered.
    pub fn num_accesses(&self) -> usize {
        self.n
    }

    /// Inserts the delay `(u, v)`: `v` waits for `u`'s completion.
    pub fn insert(&mut self, u: AccessId, v: AccessId) {
        if !self.m.get(u.index(), v.index()) {
            self.m.set(u.index(), v.index());
            self.count += 1;
        }
    }

    /// Whether the delay `(u, v)` is present.
    pub fn contains(&self, u: AccessId, v: AccessId) -> bool {
        self.m.get(u.index(), v.index())
    }

    /// Number of delay pairs.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// All delay pairs in `(u, v)` index order.
    pub fn pairs(&self) -> Vec<(AccessId, AccessId)> {
        let mut out = Vec::with_capacity(self.count);
        for u in 0..self.n {
            for v in self.m.row_ones(u) {
                out.push((AccessId::from_index(u), AccessId::from_index(v)));
            }
        }
        out
    }

    /// Inserts every pair of `other`.
    pub fn union_with(&mut self, other: &DelaySet) {
        assert_eq!(self.n, other.n, "delay sets over different access tables");
        for u in 0..self.n {
            self.m.or_row_words(u, other.m.row_words(u));
        }
        self.count = self.m.count_ones();
    }

    /// The pairs of `self` that are not in `other`.
    pub fn minus(&self, other: &DelaySet) -> DelaySet {
        assert_eq!(self.n, other.n, "delay sets over different access tables");
        let mut m = self.m.clone();
        for u in 0..self.n {
            let theirs = other.m.row_words(u);
            for (d, o) in m.row_words_mut(u).iter_mut().zip(theirs) {
                *d &= !o;
            }
        }
        DelaySet::from_matrix(m)
    }

    /// The number of delays whose first component is access `u`.
    pub(crate) fn row_len(&self, u: usize) -> usize {
        self.m
            .row_words(u)
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The second components of the delays from access `u`, ascending.
    pub(crate) fn row_ones(&self, u: usize) -> impl Iterator<Item = usize> + '_ {
        self.m.row_ones(u)
    }

    /// Whether every pair of `self` is in `other`.
    pub fn is_subset_of(&self, other: &DelaySet) -> bool {
        assert_eq!(self.n, other.n, "delay sets over different access tables");
        (0..self.n).all(|u| {
            let (mine, theirs) = (self.m.row_words(u), other.m.row_words(u));
            mine.iter().zip(theirs).all(|(a, b)| a & !b == 0)
        })
    }

    /// The pairs with at least one side in `sites`: row `u` whole when
    /// `u ∈ sites`, masked to `sites` otherwise. With `sites` the
    /// synchronization accesses and `self` = `D_SS`, this is the §5.1
    /// step-2 set `D1`.
    pub fn touching(&self, sites: &BitSet) -> DelaySet {
        let mut m = self.m.clone();
        for u in (0..self.n).filter(|&u| !sites.contains(u)) {
            m.and_row_words(u, sites.words());
        }
        let count = m.count_ones();
        DelaySet {
            n: self.n,
            m,
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AccessId {
        AccessId(i)
    }

    #[test]
    fn insert_and_query() {
        let mut d = DelaySet::new(4);
        assert!(d.is_empty());
        d.insert(a(0), a(1));
        d.insert(a(0), a(1)); // idempotent
        d.insert(a(2), a(3));
        assert_eq!(d.len(), 2);
        assert!(d.contains(a(0), a(1)));
        assert!(!d.contains(a(1), a(0)), "delays are ordered");
        assert_eq!(d.pairs(), vec![(a(0), a(1)), (a(2), a(3))]);
    }

    #[test]
    fn union_and_subset() {
        let mut d1 = DelaySet::new(3);
        d1.insert(a(0), a(1));
        let mut d2 = DelaySet::new(3);
        d2.insert(a(1), a(2));
        let mut u = d1.clone();
        u.union_with(&d2);
        assert_eq!(u.len(), 2);
        assert!(d1.is_subset_of(&u));
        assert!(d2.is_subset_of(&u));
        assert!(!u.is_subset_of(&d1));
    }

    #[test]
    fn touching_keeps_pairs_with_a_side_in_the_set() {
        let mut d = DelaySet::new(70);
        for (u, v) in [(0, 1), (1, 2), (2, 69), (69, 3), (3, 4)] {
            d.insert(a(u), a(v));
        }
        let mut sites = BitSet::new(70);
        sites.insert(1);
        sites.insert(69);
        let t = d.touching(&sites);
        assert_eq!(
            t.pairs(),
            vec![(a(0), a(1)), (a(1), a(2)), (a(2), a(69)), (a(69), a(3))]
        );
        assert_eq!(t.len(), 4);
        assert!(t.is_subset_of(&d) && !d.is_subset_of(&t));
    }
}
