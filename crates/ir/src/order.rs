//! Program-order reachability.
//!
//! The compile-time approximation `P` of the paper (§3): `a ≤_P b` iff some
//! control-flow path executes access `a` and then access `b`. With loops
//! both `a ≤_P b` and `b ≤_P a` may hold.

use crate::cfg::Cfg;
use crate::ids::{AccessId, BlockId, Position};

/// The set bits of `words` as ascending indices — the one iteration both
/// [`BitSet::iter_ones`] and [`BitMatrix::row_ones`] are built on.
#[inline]
fn ones_of(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

/// A dense boolean matrix, used for reachability closures. Square unless
/// built with [`BitMatrix::rectangular`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BitMatrix {
    rows: usize,
    n: usize,
    words_per_row: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// Creates an `n × n` matrix of `false`.
    #[inline]
    pub fn new(n: usize) -> Self {
        Self::rectangular(n, n)
    }

    /// Creates a `rows × cols` matrix of `false`.
    #[inline]
    pub fn rectangular(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(64);
        BitMatrix {
            rows,
            n: cols,
            words_per_row,
            bits: vec![0; words_per_row * rows],
        }
    }

    /// Reshapes to a `rows × cols` matrix of `false`, keeping the
    /// allocation.
    #[inline]
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.n = cols;
        self.words_per_row = cols.div_ceil(64);
        self.bits.clear();
        self.bits.resize(self.words_per_row * rows, 0);
    }

    /// Overwrites row `dst` with row `src` of `other`, which has as many
    /// columns.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of range or the column counts differ.
    #[inline]
    pub fn copy_row_from(&mut self, dst: usize, other: &BitMatrix, src: usize) {
        assert_eq!(self.n, other.n);
        self.row_words_mut(dst)
            .copy_from_slice(other.row_words(src));
    }

    /// The number of columns (the dimension of a square matrix).
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix has no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sets `(row, col)` to true.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize) {
        assert!(row < self.rows && col < self.n);
        self.bits[row * self.words_per_row + col / 64] |= 1 << (col % 64);
    }

    /// Clears `(row, col)` to false.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn clear(&mut self, row: usize, col: usize) {
        assert!(row < self.rows && col < self.n);
        self.bits[row * self.words_per_row + col / 64] &= !(1 << (col % 64));
    }

    /// Reads `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.n);
        self.bits[row * self.words_per_row + col / 64] & (1 << (col % 64)) != 0
    }

    /// `row_dst |= row_src`; returns whether `row_dst` changed.
    #[inline]
    pub fn or_row(&mut self, row_dst: usize, row_src: usize) -> bool {
        let (dst_off, src_off) = (row_dst * self.words_per_row, row_src * self.words_per_row);
        let mut changed = false;
        for w in 0..self.words_per_row {
            let src = self.bits[src_off + w];
            let dst = &mut self.bits[dst_off + w];
            let new = *dst | src;
            changed |= new != *dst;
            *dst = new;
        }
        changed
    }

    /// Number of `true` entries.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The raw words of `row`, for word-parallel set operations.
    #[inline]
    pub fn row_words(&self, row: usize) -> &[u64] {
        assert!(row < self.rows);
        &self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// The raw words of `row`, writable.
    #[inline]
    pub fn row_words_mut(&mut self, row: usize) -> &mut [u64] {
        assert!(row < self.rows);
        &mut self.bits[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// The columns set in `row`, in increasing order.
    #[inline]
    pub fn row_ones(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        ones_of(self.row_words(row))
    }

    /// `row &= words` for a raw word slice.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `words` has the wrong length.
    #[inline]
    pub fn and_row_words(&mut self, row: usize, words: &[u64]) {
        assert!(row < self.rows);
        assert_eq!(words.len(), self.words_per_row);
        let off = row * self.words_per_row;
        for (dst, &src) in self.bits[off..off + self.words_per_row]
            .iter_mut()
            .zip(words)
        {
            *dst &= src;
        }
    }

    /// `row |= words` for a raw word slice; returns whether `row` changed.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `words` has the wrong length.
    #[inline]
    pub fn or_row_words(&mut self, row: usize, words: &[u64]) -> bool {
        assert!(row < self.rows);
        assert_eq!(words.len(), self.words_per_row);
        let off = row * self.words_per_row;
        let mut changed = false;
        for (w, &src) in words.iter().enumerate() {
            let dst = &mut self.bits[off + w];
            let new = *dst | src;
            changed |= new != *dst;
            *dst = new;
        }
        changed
    }
}

/// A dense bitset over `0..n`, the word-parallel replacement for the
/// `Vec<AccessId>` + `contains` scans the back-path oracle used to carry.
/// A universe of up to 128 elements keeps its words in the set itself, so
/// the sets of a small program cost no allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    n: usize,
    words: Words,
}

/// The largest universe a [`BitSet`] holds without allocating.
const INLINE_BITS: usize = 128;

/// A [`BitSet`]'s words: in place up to `INLINE_BITS`, else on the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Words {
    Inline([u64; INLINE_BITS / 64]),
    Heap(Vec<u64>),
}

impl BitSet {
    #[inline]
    fn slots(&self) -> &[u64] {
        match &self.words {
            Words::Inline(words) => &words[..self.n.div_ceil(64)],
            Words::Heap(words) => words,
        }
    }

    #[inline]
    fn slots_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(words) => &mut words[..self.n.div_ceil(64)],
            Words::Heap(words) => words,
        }
    }

    /// An empty set over the universe `0..n`.
    #[inline]
    pub fn new(n: usize) -> Self {
        let words = if n <= INLINE_BITS {
            Words::Inline([0; INLINE_BITS / 64])
        } else {
            Words::Heap(vec![0; n.div_ceil(64)])
        };
        BitSet { n, words }
    }

    /// The universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Inserts `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.n);
        self.slots_mut()[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(i < self.n);
        self.slots_mut()[i / 64] &= !(1 << (i % 64));
    }

    /// Whether `i` is present.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.n && self.slots()[i / 64] & (1 << (i % 64)) != 0
    }

    /// Removes every element.
    #[inline]
    pub fn clear(&mut self) {
        self.slots_mut().iter_mut().for_each(|w| *w = 0);
    }

    /// Whether the set has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots().iter().all(|&w| w == 0)
    }

    /// Number of elements.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.slots().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self |= words` (word-parallel union with a raw row).
    ///
    /// # Panics
    ///
    /// Panics on a word-length mismatch.
    #[inline]
    pub fn union_words(&mut self, words: &[u64]) {
        assert_eq!(self.slots().len(), words.len());
        for (d, s) in self.slots_mut().iter_mut().zip(words) {
            *d |= s;
        }
    }

    /// `self &= !words` (word-parallel difference with a raw row).
    ///
    /// # Panics
    ///
    /// Panics on a word-length mismatch.
    #[inline]
    pub fn subtract_words(&mut self, words: &[u64]) {
        assert_eq!(self.slots().len(), words.len());
        for (d, s) in self.slots_mut().iter_mut().zip(words) {
            *d &= !s;
        }
    }

    /// `self = words & !mask`, word-parallel.
    ///
    /// # Panics
    ///
    /// Panics on a word-length mismatch.
    #[inline]
    pub fn assign_and_not(&mut self, words: &[u64], mask: &BitSet) {
        assert_eq!(self.slots().len(), words.len());
        assert_eq!(self.slots().len(), mask.slots().len());
        for (d, (s, m)) in self
            .slots_mut()
            .iter_mut()
            .zip(words.iter().zip(mask.slots()))
        {
            *d = s & !m;
        }
    }

    /// Whether `self ∩ other` is non-empty.
    #[inline]
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.slots()
            .iter()
            .zip(other.slots())
            .any(|(a, b)| a & b != 0)
    }

    /// Whether `self` and the raw row `words` share an element.
    #[inline]
    pub fn intersects_words(&self, words: &[u64]) -> bool {
        self.slots().iter().zip(words).any(|(a, b)| a & b != 0)
    }

    /// The raw words, for word-parallel consumers.
    #[inline]
    pub fn words(&self) -> &[u64] {
        self.slots()
    }

    /// Iterates the elements in increasing order.
    #[inline]
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        ones_of(self.slots())
    }
}

/// A directed graph over `0..n` in compressed sparse row form: node `x`'s
/// successors are `targets[offsets[x]..offsets[x + 1]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

/// What a graph's edge enumeration reports to ([`Csr::from_edges`]): each
/// edge is counted on the first run and placed on the second.
pub struct Edges<'a> {
    offsets: &'a mut [usize],
    /// `None` while counting.
    targets: Option<&'a mut [u32]>,
}

impl Edges<'_> {
    /// Reports the edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if an end leaves the graph.
    #[inline]
    pub fn add(&mut self, from: usize, to: usize) {
        match &mut self.targets {
            None => self.offsets[from + 1] += 1,
            Some(targets) => {
                assert!(
                    to + 1 < self.offsets.len(),
                    "edge {from} → {to} leaves the graph"
                );
                targets[self.offsets[from]] = to as u32;
                self.offsets[from] += 1;
            }
        }
    }
}

impl Csr {
    /// The graph whose edges `edges` reports to the [`Edges`] it is
    /// handed. `edges` runs twice — once to count each node's out-degree,
    /// once to fill — so the graph is built in two allocations and no edge
    /// list. A node's successors keep the order they were reported in.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX` or an edge leaves `0..n`.
    pub fn from_edges(n: usize, edges: impl Fn(&mut Edges<'_>)) -> Self {
        let mut g = Csr::default();
        g.rebuild(n, edges);
        g
    }

    /// [`Csr::from_edges`] into this graph's buffers, which keep their
    /// capacity.
    ///
    /// # Panics
    ///
    /// As [`Csr::from_edges`].
    pub fn rebuild(&mut self, n: usize, edges: impl Fn(&mut Edges<'_>)) {
        assert!(u32::try_from(n).is_ok(), "node ids are stored as u32");
        let Csr { offsets, targets } = self;
        offsets.clear();
        offsets.resize(n + 1, 0);
        edges(&mut Edges {
            offsets,
            targets: None,
        });
        for x in 0..n {
            offsets[x + 1] += offsets[x];
        }
        targets.clear();
        targets.resize(offsets[n], 0);
        // `offsets[x]` serves as node x's fill cursor and ends at the
        // start of node x + 1; one shift puts the starts back.
        edges(&mut Edges {
            offsets,
            targets: Some(targets),
        });
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The successors of `x`, in the order they were reported.
    #[inline]
    pub fn successors(&self, x: usize) -> &[u32] {
        &self.targets[self.offsets[x]..self.offsets[x + 1]]
    }
}

/// A directed graph over `0..num_nodes()` as the condensations walk it: a
/// node's successors one at a time from a cursor, or all at once.
pub trait Graph {
    /// The number of nodes.
    fn num_nodes(&self) -> usize;

    /// The successor of `x` at `cursor` (0 for the first) and the cursor
    /// after it, or `None` past the last.
    fn next_successor(&self, x: usize, cursor: u32) -> Option<(usize, u32)>;

    /// Calls `f` on each successor of `x`, in [`Graph::next_successor`]'s
    /// order.
    fn for_each_successor(&self, x: usize, f: impl FnMut(usize));
}

impl Graph for Csr {
    fn num_nodes(&self) -> usize {
        Csr::len(self)
    }

    #[inline]
    fn next_successor(&self, x: usize, cursor: u32) -> Option<(usize, u32)> {
        let &w = self.successors(x).get(cursor as usize)?;
        Some((w as usize, cursor + 1))
    }

    #[inline]
    fn for_each_successor(&self, x: usize, mut f: impl FnMut(usize)) {
        for &w in self.successors(x) {
            f(w as usize);
        }
    }
}

/// Work performed by one condensation ([`reachability_counted`],
/// [`GraphScratch::ancestors_of`]) — deterministic counters for the observability
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReachStats {
    /// Strongly connected components found by the Tarjan condensation.
    pub sccs: u64,
    /// `u64` words ORed while propagating rows between components.
    pub closure_word_ors: u64,
}

/// The working buffers of condensing graphs — the graph itself, Tarjan's
/// walk and the rows pushed through the condensation — for a caller that
/// condenses several (one analysis condenses three): each buffer is
/// allocated once and keeps its capacity from one graph to the next.
#[derive(Debug, Default)]
pub struct GraphScratch {
    graph: Csr,
    walk: Walk,
}

impl GraphScratch {
    /// A scratch whose buffers have room for graphs of up to `nodes`
    /// nodes, so that condensing them allocates none of its own.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut scratch = GraphScratch::default();
        scratch.graph.offsets.reserve(nodes + 1);
        scratch.walk.buf.reserve(10 * nodes + 1);
        scratch
    }

    /// Condenses `g` and pushes the ancestor rows down it.
    ///
    /// Tarjan emits components in reverse topological order, so walking
    /// the emission backwards visits every component after all of its
    /// predecessors: its row is final by then, and it ORs `row ∪ members`
    /// into each successor component once.
    pub fn ancestors_of(&mut self, g: &impl Graph) -> Ancestors {
        Ancestors::compute(g, &mut self.walk)
    }

    /// [`reachability_counted`] of the graph over `0..n` whose edges
    /// `edges` reports.
    pub fn reachability(
        &mut self,
        n: usize,
        edges: impl Fn(&mut Edges<'_>),
    ) -> (BitMatrix, ReachStats) {
        self.graph.rebuild(n, edges);
        reachability_with(&self.graph, &mut self.walk)
    }
}

/// Computes the transitive closure of `edges` over `n` nodes:
/// `result.get(a, b)` iff `b` is reachable from `a` via **one or more**
/// edges.
pub fn reachability(n: usize, edges: &[(usize, usize)]) -> BitMatrix {
    reachability_counted(&Csr::from_edges(n, |sink| {
        for &(a, b) in edges {
            sink.add(a, b);
        }
    }))
    .0
}

/// [`reachability`] over a prebuilt graph, additionally reporting work
/// counters.
///
/// The closure is computed by Tarjan SCC condensation: components are
/// emitted in reverse topological order, so each component's closure row
/// is the word-parallel OR of its successor components' (already final)
/// rows plus the successors' member bits — no per-start BFS. All members
/// of one component share a single physical row computation; members of a
/// cyclic component (size > 1, or a self-loop) reach each other and
/// themselves.
pub fn reachability_counted(g: &Csr) -> (BitMatrix, ReachStats) {
    reachability_with(g, &mut Walk::default())
}

fn reachability_with(g: &impl Graph, walk: &mut Walk) -> (BitMatrix, ReachStats) {
    let n = g.num_nodes();
    let mut m = BitMatrix::new(n);
    let mut stats = ReachStats::default();
    if n == 0 {
        return (m, stats);
    }
    let (mut t, full) = walk.cut(n);
    let num_sccs = t.condense(g, None);
    let Tarjan {
        comp,
        nodes,
        start,
        last_seen,
        ..
    } = t;
    let sccs = Sccs { nodes, start };
    stats.sccs = num_sccs as u64;
    let words_per_row = n.div_ceil(64);

    // `full.row(rep_of(c))` = closure row of component `c` *including*
    // `c`'s own members — exactly what a predecessor component ORs in. The
    // representative of a component is its smallest member.
    full.reset(n, n);
    let rep_of = |c: usize| sccs.members(c)[0] as usize;
    // Dedup marker so each successor component is ORed at most once per
    // component, regardless of how many edges lead to it.
    last_seen[..num_sccs].fill(u32::MAX);

    // Tarjan emits components in reverse topological order: every
    // successor component of `c` has an id < `c` and is already final.
    for c in 0..num_sccs {
        let mems = sccs.members(c);
        let rep = mems[0] as usize;
        let mut cyclic = mems.len() > 1;
        for &u in mems {
            g.for_each_successor(u as usize, |v| {
                let t = comp[v] as usize;
                if t == c {
                    cyclic = true;
                } else if last_seen[t] != c as u32 {
                    last_seen[t] = c as u32;
                    m.or_row_words(rep, full.row_words(rep_of(t)));
                    stats.closure_word_ors += words_per_row as u64;
                }
            });
        }
        if cyclic {
            for &u in mems {
                m.set(rep, u as usize);
            }
        }
        // All members share the component row: propagate it.
        for &u in mems.iter().skip(1) {
            m.or_row(u as usize, rep);
            stats.closure_word_ors += words_per_row as u64;
        }
        // full(c) = closure(c) | members(c).
        full.or_row_words(rep, m.row_words(rep));
        for &u in mems {
            full.set(rep, u as usize);
        }
        stats.closure_word_ors += words_per_row as u64;
    }
    (m, stats)
}

/// The buffers of condensing one graph after another: Tarjan's arrays in
/// one `u32` buffer, cut anew for each graph, and rows pushed through the
/// condensation.
#[derive(Debug, Default)]
struct Walk {
    buf: Vec<u32>,
    rows: BitMatrix,
}

/// Tarjan's arrays over a graph of `n` nodes, cut from a [`Walk`].
struct Tarjan<'a> {
    /// Each node's visit index (`UNSEEN` until visited) and low link.
    index: &'a mut [u32],
    low: &'a mut [u32],
    /// 1 while a node is on the component stack.
    on_stack: &'a mut [u32],
    stack: &'a mut [u32],
    /// `(node, edges taken)` pairs of the explicit call stack.
    call: &'a mut [u32],
    /// Each node's component, when the caller keeps none.
    comp: &'a mut [u32],
    /// Every node, grouped by component (see [`Sccs`]).
    nodes: &'a mut [u32],
    start: &'a mut [u32],
    /// A per-component mark, free for the caller.
    last_seen: &'a mut [u32],
}

const UNSEEN: u32 = u32::MAX;

impl Walk {
    /// Tarjan's arrays for a graph of `n` nodes, and the row matrix.
    fn cut(&mut self, n: usize) -> (Tarjan<'_>, &mut BitMatrix) {
        self.buf.clear();
        self.buf.resize(10 * n + 1, 0);
        let rest = &mut self.buf[..];
        let (index, rest) = rest.split_at_mut(n);
        let (low, rest) = rest.split_at_mut(n);
        let (on_stack, rest) = rest.split_at_mut(n);
        let (stack, rest) = rest.split_at_mut(n);
        let (call, rest) = rest.split_at_mut(2 * n);
        let (comp, rest) = rest.split_at_mut(n);
        let (nodes, rest) = rest.split_at_mut(n);
        let (start, last_seen) = rest.split_at_mut(n + 1);
        let t = Tarjan {
            index,
            low,
            on_stack,
            stack,
            call,
            comp,
            nodes,
            start,
            last_seen,
        };
        (t, &mut self.rows)
    }
}

/// The strongly connected components of a graph, numbered in Tarjan's
/// emission order, which is **reverse topological** over the condensation
/// DAG: component `c`'s nodes are `nodes[start[c]..start[c + 1]]`,
/// smallest first.
struct Sccs<'a> {
    nodes: &'a [u32],
    start: &'a [u32],
}

impl Sccs<'_> {
    fn members(&self, c: usize) -> &[u32] {
        &self.nodes[self.start[c] as usize..self.start[c + 1] as usize]
    }
}

/// The condensation of a graph with one **ancestor row** per component:
/// `Anc(K) = {v : v reaches some member of K via one or more edges}`. All
/// members of a component share it — a cyclic component's members are in
/// their own row, an acyclic singleton is not.
///
/// Where [`reachability_counted`] keeps a row per node of what it reaches,
/// this keeps a row per component of what reaches it: the question a
/// back-path asks ("does `v` reach `u`?") is then one bit of `u`'s row,
/// and "does any of a set reach `u`?" one word-intersection.
#[derive(Debug, Clone)]
pub struct Ancestors {
    /// The component of each node.
    comp: Vec<u32>,
    /// Row `c` = `Anc(c)`.
    rows: BitMatrix,
    stats: ReachStats,
}

impl Ancestors {
    fn compute(g: &impl Graph, walk: &mut Walk) -> Self {
        let n = g.num_nodes();
        let mut comp = vec![0; n];
        let (mut t, pushed) = walk.cut(n);
        let num = t.condense(g, Some(&mut comp));
        let Tarjan {
            nodes,
            start,
            last_seen,
            ..
        } = t;
        let sccs = Sccs { nodes, start };
        let mut rows = BitMatrix::rectangular(num, n);
        let mut stats = ReachStats {
            sccs: num as u64,
            closure_word_ors: 0,
        };
        // `pushed` = Anc(c) ∪ members(c), what every successor inherits:
        // the one row of a reused matrix.
        pushed.reset(1, n);
        // Dedup marker so each successor component is ORed once per
        // component, however many edges lead to it.
        last_seen[..num].fill(u32::MAX);
        for c in (0..num).rev() {
            let mems = sccs.members(c);
            pushed.copy_row_from(0, &rows, c);
            for &u in mems {
                pushed.set(0, u as usize);
            }
            let mut cyclic = mems.len() > 1;
            for &u in mems {
                g.for_each_successor(u as usize, |v| {
                    let t = comp[v] as usize;
                    if t == c {
                        cyclic = true;
                    } else if last_seen[t] != c as u32 {
                        last_seen[t] = c as u32;
                        let words = pushed.row_words(0);
                        rows.or_row_words(t, words);
                        stats.closure_word_ors += words.len() as u64;
                    }
                });
            }
            if cyclic {
                for &u in mems {
                    rows.set(c, u as usize);
                }
            }
        }
        Ancestors { comp, rows, stats }
    }

    /// The number of components.
    pub fn num_components(&self) -> usize {
        self.stats.sccs as usize
    }

    /// The component of node `x` (components are numbered `0..`
    /// [`Ancestors::num_components`]).
    #[inline]
    pub fn component(&self, x: usize) -> usize {
        self.comp[x] as usize
    }

    /// `Anc(c)` as raw words.
    #[inline]
    pub fn of_component(&self, c: usize) -> &[u64] {
        self.rows.row_words(c)
    }

    /// `Anc(component(x))`: every node that reaches `x` via ≥ 1 edge.
    #[inline]
    pub fn of(&self, x: usize) -> &[u64] {
        self.of_component(self.component(x))
    }

    /// Work done condensing and pushing.
    pub fn stats(&self) -> ReachStats {
        self.stats
    }
}

impl Tarjan<'_> {
    /// Iterative Tarjan over `g`, each node's edges taken in the order `g`
    /// lists them: fills `comp` (or this walk's own array) with each
    /// node's component and `nodes`/`start` with the components (see
    /// [`Sccs`]). Returns the number of components.
    fn condense(&mut self, g: &impl Graph, comp: Option<&mut [u32]>) -> usize {
        let Tarjan {
            index,
            low,
            on_stack,
            stack,
            call,
            nodes,
            start,
            ..
        } = self;
        let comp = comp.unwrap_or(&mut self.comp[..]);
        let n = g.num_nodes();
        index.fill(UNSEEN);
        let (mut top, mut emitted, mut components) = (0, 0, 0);
        let mut next_index = 0u32;
        // Explicit call stack of (node, cursor into its successors) — the
        // mirror graph of a heavily unrolled program is deep enough to
        // overflow recursion.
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            call[0] = root as u32;
            call[1] = 0;
            let mut depth = 1;
            let mut entered = true;
            while depth > 0 {
                let v = call[2 * depth - 2] as usize;
                if std::mem::take(&mut entered) {
                    index[v] = next_index;
                    low[v] = next_index;
                    on_stack[v] = 1;
                    next_index += 1;
                    stack[top] = v as u32;
                    top += 1;
                }
                let cursor = &mut call[2 * depth - 1];
                if let Some((w, next)) = g.next_successor(v, *cursor) {
                    *cursor = next;
                    if index[w] == UNSEEN {
                        call[2 * depth] = w as u32;
                        call[2 * depth + 1] = 0;
                        depth += 1;
                        entered = true;
                    } else if on_stack[w] == 1 {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    depth -= 1;
                    if depth > 0 {
                        let p = call[2 * depth - 2] as usize;
                        low[p] = low[p].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let first = emitted;
                        loop {
                            top -= 1;
                            let w = stack[top];
                            on_stack[w as usize] = 0;
                            comp[w as usize] = components as u32;
                            nodes[emitted] = w;
                            emitted += 1;
                            if w as usize == v {
                                break;
                            }
                        }
                        // Deterministic member order (smallest node first)
                        // so the representative choice is stable.
                        nodes[first..emitted].sort_unstable();
                        components += 1;
                        start[components] = emitted as u32;
                    }
                }
            }
        }
        components
    }
}

/// Program-order information for a CFG.
#[derive(Debug, Clone)]
pub struct ProgramOrder {
    /// `block_reach.get(a, b)` iff block `b` is reachable from block `a`
    /// via one or more CFG edges.
    block_reach: BitMatrix,
    /// Row `x` is `{y : x <_P y}` over access sites.
    access_succ: BitMatrix,
    /// A sparse graph whose transitive closure is `access_succ` (see
    /// [`ProgramOrder::skeleton`]).
    skeleton: Csr,
}

impl ProgramOrder {
    /// Computes block reachability, the access-level order and its
    /// skeleton for `cfg`, condensing the block graph in `scratch`.
    pub fn compute(cfg: &Cfg, scratch: &mut GraphScratch) -> Self {
        let block_reach = scratch.reachability(cfg.num_blocks(), block_edges(cfg)).0;
        let sites = sites_by_position(cfg);
        let access_succ = access_order(cfg, &sites, &block_reach);
        let skeleton = skeleton(cfg, &sites, &block_reach);
        ProgramOrder {
            block_reach,
            access_succ,
            skeleton,
        }
    }

    /// Whether block `b` is reachable from block `a` via ≥ 1 edge.
    pub fn block_reaches(&self, a: BlockId, b: BlockId) -> bool {
        self.block_reach.get(a.index(), b.index())
    }

    /// Whether some execution runs the instruction at `a` and later the
    /// instruction at `b` (`a <_P b`).
    pub fn pos_precedes(&self, a: Position, b: Position) -> bool {
        (a.block == b.block && a.instr < b.instr) || self.block_reaches(a.block, b.block)
    }

    /// Whether access `x` may execute before access `y` on some path.
    pub fn access_precedes(&self, x: AccessId, y: AccessId) -> bool {
        self.access_succ.get(x.index(), y.index())
    }

    /// The raw bitset row `{y : x <_P y}`, for word-parallel consumers.
    pub fn succ_row_words(&self, x: AccessId) -> &[u64] {
        self.access_succ.row_words(x.index())
    }

    /// The skeleton `S` of the access order, with `S⁺ = P`:
    ///
    /// * each access links to the accesses of the next instruction of its
    ///   block that has any;
    /// * the accesses of a block's last such instruction link to the
    ///   accesses of the first such instruction of every non-empty block
    ///   reachable from it (the block itself too, when it is in a loop);
    /// * the accesses of one instruction are not linked to each other,
    ///   which is what leaves them mutually unordered in `P`.
    ///
    /// `P` is the closure of a chain per block and one fan per block exit,
    /// so `S` has O(accesses + blocks²) edges where `P` has O(accesses²).
    /// A self-loop `x → x` appears exactly when `x` is the only
    /// access-bearing instruction of a block in a loop.
    pub fn skeleton(&self) -> &Csr {
        &self.skeleton
    }
}

/// Block reachability alone: `get(a, b)` iff block `b` is reachable from
/// block `a` via one or more CFG edges.
pub fn block_reachability(cfg: &Cfg) -> BitMatrix {
    reachability_counted(&Csr::from_edges(cfg.num_blocks(), block_edges(cfg))).0
}

/// The CFG's edges, as [`Csr::from_edges`] takes them.
fn block_edges(cfg: &Cfg) -> impl Fn(&mut Edges<'_>) + '_ {
    |edges| {
        for b in cfg.block_ids() {
            for s in cfg.successors(b) {
                edges.add(b.index(), s.index());
            }
        }
    }
}

/// Every access site as `(block, instruction, access)`: blocks ascending,
/// within a block the last instruction first.
fn sites_by_position(cfg: &Cfg) -> Vec<(usize, usize, usize)> {
    let mut sites: Vec<(usize, usize, usize)> = cfg
        .accesses
        .iter()
        .map(|(id, info)| (info.pos.block.index(), info.pos.instr, id.index()))
        .collect();
    sites.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| b.cmp(a)));
    sites
}

/// The access-level order: row `x` is every access in a block reachable
/// from `x`'s block, plus the accesses later in `x`'s own block. Built from
/// one access mask per block, so the cost is a few row ORs per access
/// rather than a position comparison per access pair.
fn access_order(cfg: &Cfg, sites: &[(usize, usize, usize)], block_reach: &BitMatrix) -> BitMatrix {
    let n = cfg.accesses.len();
    let nb = cfg.num_blocks();
    let mut order = BitMatrix::new(n);
    // One access mask per block.
    let mut block_mask = BitMatrix::rectangular(nb, n);
    for &(b, _, x) in sites {
        block_mask.set(b, x);
    }
    let mut later = BitSet::new(n);
    for in_block in sites.chunk_by(|a, b| a.0 == b.0) {
        later.clear();
        for c in block_reach.row_ones(in_block[0].0) {
            later.union_words(block_mask.row_words(c));
        }
        // `later` grows by each instruction's accesses once every access
        // of that instruction has its row.
        for same_instr in in_block.chunk_by(|a, b| a.1 == b.1) {
            for &(_, _, x) in same_instr {
                order.or_row_words(x, later.words());
            }
            for &(_, _, x) in same_instr {
                later.insert(x);
            }
        }
    }
    order
}

/// The skeleton of [`ProgramOrder::skeleton`], over the sites of
/// [`sites_by_position`].
fn skeleton(cfg: &Cfg, sites: &[(usize, usize, usize)], block_reach: &BitMatrix) -> Csr {
    // The first access-bearing instruction of each block, as a range of
    // `sites` (it is the last run of the block: instructions descend).
    let mut first = vec![0..0; cfg.num_blocks()];
    let mut at = 0;
    for in_block in sites.chunk_by(|a, b| a.0 == b.0) {
        let last_run = in_block
            .chunk_by(|a, b| a.1 == b.1)
            .last()
            .map_or(0, <[_]>::len);
        first[in_block[0].0] = at + in_block.len() - last_run..at + in_block.len();
        at += in_block.len();
    }
    Csr::from_edges(cfg.accesses.len(), |edges| {
        for in_block in sites.chunk_by(|a, b| a.0 == b.0) {
            // Runs come last instruction first: each run links to the
            // one visited just before it, the last instruction to every
            // reachable block's first.
            let mut next: Option<&[(usize, usize, usize)]> = None;
            for run in in_block.chunk_by(|a, b| a.1 == b.1) {
                for &(_, _, x) in run {
                    match next {
                        Some(next) => next.iter().for_each(|&(_, _, y)| edges.add(x, y)),
                        None => {
                            for c in block_reach.row_ones(in_block[0].0) {
                                sites[first[c].clone()]
                                    .iter()
                                    .for_each(|&(_, _, y)| edges.add(x, y));
                            }
                        }
                    }
                }
                next = Some(run);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_main;
    use syncopt_frontend::prepare_program;

    fn order_of(src: &str) -> (Cfg, ProgramOrder) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        (cfg, po)
    }

    #[test]
    fn bitmatrix_set_get() {
        let mut m = BitMatrix::new(70);
        m.set(0, 65);
        m.set(69, 0);
        assert!(m.get(0, 65));
        assert!(m.get(69, 0));
        assert!(!m.get(1, 1));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn bitmatrix_or_row() {
        let mut m = BitMatrix::new(4);
        m.set(1, 2);
        assert!(m.or_row(0, 1));
        assert!(m.get(0, 2));
        assert!(!m.or_row(0, 1), "second or is a no-op");
    }

    #[test]
    fn reachability_is_transitive_and_irreflexive_without_cycles() {
        // 0→1→2, 3 isolated.
        let m = reachability(4, &[(0, 1), (1, 2)]);
        assert!(m.get(0, 1));
        assert!(m.get(0, 2));
        assert!(m.get(1, 2));
        assert!(!m.get(0, 0));
        assert!(!m.get(2, 0));
        assert!(!m.get(3, 3));
    }

    #[test]
    fn reachability_cycle_reaches_itself() {
        let m = reachability(2, &[(0, 1), (1, 0)]);
        assert!(m.get(0, 0));
        assert!(m.get(1, 1));
    }

    #[test]
    fn reachability_self_loop_only() {
        let m = reachability(3, &[(1, 1)]);
        assert!(m.get(1, 1));
        assert!(!m.get(0, 0));
        assert!(!m.get(2, 2));
        assert_eq!(m.count_ones(), 1);
    }

    #[test]
    fn reachability_condensation_chains_through_sccs() {
        // 0↔1 → 2 → 3↔4, plus 2→2 self-loop.
        let edges = [(0, 1), (1, 0), (1, 2), (2, 2), (2, 3), (3, 4), (4, 3)];
        let m = reachability(5, &edges);
        for a in 0..2 {
            for b in 0..5 {
                assert!(m.get(a, b), "{a}->{b}");
            }
        }
        assert!(m.get(2, 2) && m.get(2, 3) && m.get(2, 4));
        assert!(!m.get(2, 0) && !m.get(2, 1));
        assert!(m.get(3, 3) && m.get(3, 4) && m.get(4, 4) && m.get(4, 3));
        assert!(!m.get(3, 2));
    }

    #[test]
    fn reachability_counted_reports_work() {
        let g = Csr::from_edges(3, |edges| {
            edges.add(0, 1);
            edges.add(1, 2);
        });
        let (m, stats) = reachability_counted(&g);
        assert!(m.get(0, 2));
        assert_eq!(stats.sccs, 3);
        assert!(stats.closure_word_ors > 0);
    }

    /// Naive per-start BFS closure — the pre-SCC reference.
    fn reachability_naive(n: usize, edges: &[(usize, usize)]) -> BitMatrix {
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
        }
        let mut m = BitMatrix::new(n);
        let mut stack = Vec::new();
        let mut on = vec![false; n];
        for start in 0..n {
            on.iter_mut().for_each(|b| *b = false);
            stack.clear();
            for &s in &adj[start] {
                if !on[s] {
                    on[s] = true;
                    stack.push(s);
                }
            }
            while let Some(node) = stack.pop() {
                m.set(start, node);
                for &s in &adj[node] {
                    if !on[s] {
                        on[s] = true;
                        stack.push(s);
                    }
                }
            }
        }
        m
    }

    #[test]
    fn scc_closure_matches_naive_bfs_on_random_graphs() {
        // SplitMix64-seeded random digraphs across densities.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for trial in 0..200 {
            let n = 1 + (next() % 70) as usize;
            let density = 1 + next() % 4;
            let nedges = (n as u64 * density) as usize;
            let edges: Vec<(usize, usize)> = (0..nedges)
                .map(|_| ((next() % n as u64) as usize, (next() % n as u64) as usize))
                .collect();
            let fast = reachability(n, &edges);
            let naive = reachability_naive(n, &edges);
            assert_eq!(fast, naive, "trial {trial}: n={n} edges={edges:?}");
            // The ancestor rows are the same relation read by column.
            let anc = GraphScratch::default().ancestors_of(&Csr::from_edges(n, |sink| {
                for &(a, b) in &edges {
                    sink.add(a, b);
                }
            }));
            for y in 0..n {
                let column: Vec<usize> = (0..n).filter(|&x| naive.get(x, y)).collect();
                assert_eq!(
                    ones_of(anc.of(y)).collect::<Vec<_>>(),
                    column,
                    "trial {trial}: ancestors of {y}"
                );
            }
        }
    }

    #[test]
    fn csr_keeps_each_nodes_edges_in_report_order() {
        let g = Csr::from_edges(4, |edges| {
            edges.add(2, 3);
            edges.add(0, 1);
            edges.add(2, 0);
        });
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.successors(0), &[1]);
        assert_eq!(g.successors(1), &[] as &[u32]);
        assert_eq!(g.successors(2), &[3, 0]);
        assert_eq!(g.successors(3), &[] as &[u32]);
        assert!(Csr::from_edges(0, |_| {}).is_empty());
    }

    #[test]
    fn the_skeleton_closes_to_the_access_order() {
        for src in [
            "shared int X; shared int Y; fn main() { X = 1; Y = X + X; }",
            "shared int X; fn main() { int i; for (i = 0; i < 4; i = i + 1) { X = i; } }",
            "shared int X; shared int Y; fn main() { if (MYPROC == 0) { X = 1; } else { Y = 1; } X = Y; }",
            r#"
            shared int A[8]; flag F;
            fn main() {
                int i; int v;
                for (i = 0; i < 4; i = i + 1) {
                    A[i] = A[i + 1] + A[MYPROC];
                    if (i == 2) { post F; } else { v = A[0]; }
                    barrier;
                }
                wait F;
                A[0] = v;
            }
            "#,
        ] {
            let (cfg, po) = order_of(src);
            let (closed, _) = reachability_counted(po.skeleton());
            for x in cfg.accesses.ids() {
                assert_eq!(
                    closed.row_words(x.index()),
                    po.succ_row_words(x),
                    "{x} in {src}"
                );
            }
            assert!(po.skeleton().num_edges() <= cfg.accesses.len() * cfg.accesses.len());
        }
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(65);
        s.insert(129);
        assert!(s.contains(65) && !s.contains(64));
        assert!(!s.contains(1000), "out-of-range contains is false");
        assert_eq!(s.count_ones(), 3);
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![0, 65, 129]);
        let mut t = BitSet::new(130);
        t.insert(65);
        assert!(s.intersects(&t));
        s.remove(65);
        assert!(!s.intersects(&t));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn bitset_word_ops() {
        let mut m = BitMatrix::new(70);
        m.set(1, 3);
        m.set(1, 68);
        let mut s = BitSet::new(70);
        s.union_words(m.row_words(1));
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), vec![3, 68]);
        assert!(s.intersects_words(m.row_words(1)));
        let mut mask = BitSet::new(70);
        mask.insert(3);
        let mut d = BitSet::new(70);
        d.assign_and_not(m.row_words(1), &mask);
        assert_eq!(d.iter_ones().collect::<Vec<_>>(), vec![68]);
        let mut other = BitMatrix::new(70);
        assert!(other.or_row_words(0, m.row_words(1)));
        assert!(!other.or_row_words(0, m.row_words(1)), "idempotent");
        assert!(other.get(0, 68));
    }

    #[test]
    fn straight_line_accesses_are_ordered_one_way() {
        let (cfg, po) = order_of("shared int X; shared int Y; fn main() { X = 1; Y = 2; }");
        let ids: Vec<AccessId> = cfg.accesses.ids().collect();
        assert!(po.access_precedes(ids[0], ids[1]));
        assert!(!po.access_precedes(ids[1], ids[0]));
        assert!(!po.access_precedes(ids[0], ids[0]));
    }

    #[test]
    fn loop_accesses_are_mutually_ordered() {
        let (cfg, po) = order_of(
            r#"
            shared int X; shared int Y;
            fn main() {
                int i;
                for (i = 0; i < 4; i = i + 1) { X = i; Y = i; }
            }
            "#,
        );
        let writes: Vec<AccessId> = cfg
            .accesses
            .iter()
            .filter(|(_, a)| a.kind == crate::access::AccessKind::Write)
            .map(|(id, _)| id)
            .collect();
        assert_eq!(writes.len(), 2);
        assert!(po.access_precedes(writes[0], writes[1]));
        assert!(
            po.access_precedes(writes[1], writes[0]),
            "across iterations Y-write precedes X-write"
        );
        // Loop body access precedes itself (next iteration).
        assert!(po.access_precedes(writes[0], writes[0]));
    }

    #[test]
    fn access_rows_agree_with_position_order_on_every_pair() {
        for src in [
            "shared int X; shared int Y; fn main() { X = 1; Y = X + X; }",
            "shared int X; shared int Y; fn main() { if (MYPROC == 0) { X = 1; } else { Y = 1; } X = Y; }",
            r#"
            shared int A[8]; flag F;
            fn main() {
                int i; int v;
                for (i = 0; i < 4; i = i + 1) {
                    A[i] = A[i + 1] + A[MYPROC];
                    if (i == 2) { post F; } else { v = A[0]; }
                    barrier;
                }
                wait F;
                A[0] = v;
            }
            "#,
        ] {
            let (cfg, po) = order_of(src);
            for (x, xi) in cfg.accesses.iter() {
                for (y, yi) in cfg.accesses.iter() {
                    assert_eq!(
                        po.access_precedes(x, y),
                        po.pos_precedes(xi.pos, yi.pos),
                        "{x} vs {y} in {src}"
                    );
                }
                assert_eq!(
                    ones_of(po.succ_row_words(x)).collect::<Vec<_>>(),
                    cfg.accesses
                        .ids()
                        .filter(|&y| po.access_precedes(x, y))
                        .map(AccessId::index)
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn branch_arms_are_unordered() {
        let (cfg, po) = order_of(
            "shared int X; shared int Y; fn main() { if (MYPROC == 0) { X = 1; } else { Y = 1; } }",
        );
        let ids: Vec<AccessId> = cfg.accesses.ids().collect();
        assert!(!po.access_precedes(ids[0], ids[1]));
        assert!(!po.access_precedes(ids[1], ids[0]));
    }
}
