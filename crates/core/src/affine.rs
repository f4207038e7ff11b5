//! Affine analysis of array subscripts.
//!
//! The conflict set needs to decide whether two array accesses *could* touch
//! the same element when executed by **different** processors. The paper
//! notes that a conservative approximation of the conflict set is always
//! sound (§6), so we only disambiguate the common SPMD pattern: subscripts
//! of the form `c0 + c1·MYPROC` (plus terms in locals, which defeat the
//! analysis conservatively).

use syncopt_frontend::ast::{BinOp, UnOp};
use syncopt_ir::expr::Expr;
use syncopt_ir::ids::{AccessId, VarId};

/// An affine subscript `konst + myproc·MYPROC + Σ coeffs[v]·v`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Affine {
    /// Constant term.
    pub konst: i64,
    /// Coefficient of `MYPROC`.
    pub myproc: i64,
    /// Coefficients of local variables (loop indices etc.): ascending by
    /// variable, none zero.
    pub coeffs: Vec<(VarId, i64)>,
}

impl Affine {
    /// The affine constant `c`.
    pub fn constant(c: i64) -> Self {
        Affine {
            konst: c,
            ..Default::default()
        }
    }

    /// Whether the form has any local-variable terms.
    pub fn has_locals(&self) -> bool {
        self.coeffs.iter().any(|&(_, c)| c != 0)
    }

    // The arithmetic below is checked: a coefficient that does not fit
    // in `i64` makes the form unrepresentable (`None`), never a wrapped
    // value — a wrapped `MYPROC` coefficient could prove two colliding
    // subscripts disjoint.

    fn add(mut self, other: &Affine) -> Option<Self> {
        self.konst = self.konst.checked_add(other.konst)?;
        self.myproc = self.myproc.checked_add(other.myproc)?;
        if other.coeffs.is_empty() {
            return Some(self);
        }
        // Merge the two ascending term lists, summing shared variables.
        let (a, b) = (&self.coeffs, &other.coeffs);
        let mut sum = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let term = match (a.get(i), b.get(j)) {
                (Some(&(va, ca)), Some(&(vb, cb))) if va == vb => {
                    (i, j) = (i + 1, j + 1);
                    (va, ca.checked_add(cb)?)
                }
                (Some(&x), Some(&(vb, _))) if x.0 < vb => {
                    i += 1;
                    x
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (_, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if term.1 != 0 {
                sum.push(term);
            }
        }
        self.coeffs = sum;
        Some(self)
    }

    fn negate(self) -> Option<Self> {
        self.scale(-1)
    }

    fn scale(mut self, k: i64) -> Option<Self> {
        self.konst = self.konst.checked_mul(k)?;
        self.myproc = self.myproc.checked_mul(k)?;
        for (_, c) in &mut self.coeffs {
            *c = c.checked_mul(k)?;
        }
        self.coeffs.retain(|&(_, c)| c != 0);
        Some(self)
    }
}

/// Tries to put `expr` in affine form. Returns `None` for anything the
/// analysis cannot handle exactly (division, modulo, comparisons, local
/// array elements, `PROCS`, coefficients past `i64`, …).
pub fn to_affine(expr: &Expr) -> Option<Affine> {
    match expr {
        Expr::Int(v) => Some(Affine::constant(*v)),
        Expr::MyProc => Some(Affine {
            myproc: 1,
            ..Default::default()
        }),
        Expr::Local(v) => Some(Affine {
            konst: 0,
            myproc: 0,
            coeffs: vec![(*v, 1)],
        }),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => to_affine(expr)?.negate(),
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::Add => to_affine(lhs)?.add(&to_affine(rhs)?),
            BinOp::Sub => to_affine(lhs)?.add(&to_affine(rhs)?.negate()?),
            BinOp::Mul => {
                let l = to_affine(lhs)?;
                let r = to_affine(rhs)?;
                if l.myproc == 0 && l.coeffs.is_empty() {
                    r.scale(l.konst)
                } else if r.myproc == 0 && r.coeffs.is_empty() {
                    l.scale(r.konst)
                } else {
                    None
                }
            }
            _ => None,
        },
        _ => None,
    }
}

/// Shape id of a subscript with no affine form (a scalar, or one
/// [`to_affine`] gave up on).
const NO_SHAPE: u32 = (1 << 30) - 1;
/// Flag on [`SubscriptEntry::shape`]: some coefficient is `i64::MIN`, whose
/// negation does not exist, so no difference of two such forms is taken.
const UNNEGATABLE: u32 = 1 << 30;
/// Flag on [`SubscriptEntry::shape`]: the subscript is built only from
/// constants, `MYPROC` and `PROCS`, so its value cannot change between
/// two program points.
const STABLE: u32 = 1 << 31;

/// What the same-processor subscript tests need of one access site.
#[derive(Debug, Clone, Copy)]
struct SubscriptEntry {
    /// Variable plus canonical affine form; a non-affine subscript has a
    /// class of its own.
    class: u32,
    /// The form without its constant ([`NO_SHAPE`] when there is none),
    /// under the [`UNNEGATABLE`] and [`STABLE`] flags.
    shape: u32,
    /// The constant term of the form.
    konst: i64,
}

/// Every access site's subscript, interned once per analysis: 16 bytes per
/// access, and the local-variable terms of each distinct shape in one pool.
///
/// Two sites share a *class* iff they name the same variable with
/// provably equal subscripts (same processor, same local state), and
/// [`SubscriptTable::may_equal`] answers whether two subscripts can
/// coincide there — both as integer comparisons, on forms the conflict
/// set put in affine shape anyway.
#[derive(Debug, Clone)]
pub struct SubscriptTable {
    entries: Vec<SubscriptEntry>,
    num_classes: u32,
    /// Shape `s` has the local terms `terms[starts[s]..starts[s + 1]]`.
    starts: Vec<u32>,
    terms: Vec<(VarId, i64)>,
}

/// Whether `e` mentions only constants, `MYPROC` and `PROCS`.
fn stable_index(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::MyProc | Expr::Procs => true,
        Expr::Local(_) | Expr::LocalElem { .. } => false,
        Expr::Unary { expr, .. } => stable_index(expr),
        Expr::Binary { lhs, rhs, .. } => stable_index(lhs) && stable_index(rhs),
    }
}

impl SubscriptTable {
    /// Interns the `n` sites of one access table: `site(i)` is access
    /// `i`'s `(variable, subscript, its affine form)`.
    ///
    /// Interning is by sorting: the sites are ordered by key, each run of
    /// equal keys is one shape (or class), and ids are handed out in the
    /// order of each run's first site, so they are dense and follow access
    /// order.
    pub(crate) fn build<'a>(
        n: usize,
        site: impl Fn(usize) -> (Option<VarId>, Option<&'a Expr>, Option<&'a Affine>),
    ) -> Self {
        let mut table = SubscriptTable {
            entries: Vec::with_capacity(n),
            num_classes: 0,
            starts: vec![0],
            terms: Vec::new(),
        };
        // `first[i]`: the first site of `i`'s class; `shapes[i]`: the first
        // site of `i`'s shape, then its shape id; `ranks[i]`: see below.
        let mut ids = vec![NO_SHAPE; 3 * n];
        let (first, rest) = ids.split_at_mut(n);
        let (shapes, ranks) = rest.split_at_mut(n);
        // The sites with local terms (few), ranked by their terms: sites
        // with equal terms share a rank, and a site without any has rank 0.
        ranks.fill(0);
        let mut with_terms: Vec<u32> = (0..n as u32)
            .filter(|&i| site(i as usize).2.is_some_and(|a| !a.coeffs.is_empty()))
            .collect();
        let terms = |i: u32| site(i as usize).2.map_or(&[][..], |a| a.coeffs.as_slice());
        with_terms.sort_unstable_by(|&x, &y| terms(x).cmp(terms(y)));
        let mut rank = 0;
        for run in with_terms.chunk_by(|&x, &y| terms(x) == terms(y)) {
            rank += 1;
            for &i in run {
                ranks[i as usize] = rank;
            }
        }
        // Every site but those with a subscript and no form, sorted by form
        // `(1 + terms rank, myproc)` (0 for sites without one), then
        // variable and constant: a run of equal forms is one shape, a run
        // of equal keys one class.
        let mut keys: Vec<(u32, i64, u32, i64, u32)> = Vec::with_capacity(n);
        keys.extend((0..n).filter_map(|i| {
            let (var, index, affine) = site(i);
            let (form, myproc, konst) =
                affine.map_or((0, 0, 0), |a| (1 + ranks[i], a.myproc, a.konst));
            let var = var.map_or(0, |v| v.0 + 1);
            (index.is_none() || affine.is_some()).then_some((form, myproc, var, konst, i as u32))
        }));
        keys.sort_unstable();
        for (i, f) in first.iter_mut().enumerate() {
            *f = i as u32;
        }
        for shape in keys.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            let rep = shape.iter().map(|k| k.4).min().unwrap_or(0);
            for class in shape.chunk_by(|x, y| (x.2, x.3) == (y.2, y.3)) {
                for &(form, .., i) in class {
                    first[i as usize] = class[0].4;
                    if form != 0 {
                        shapes[i as usize] = rep;
                    }
                }
            }
        }
        // Shape ids in the order of each shape's first site.
        for i in 0..n {
            let rep = shapes[i] as usize;
            if rep == NO_SHAPE as usize {
                continue;
            }
            shapes[i] = if rep == i {
                let next = table.starts.len() as u32 - 1;
                assert!(next < NO_SHAPE, "subscript shape ids exhausted");
                let (_, _, affine) = site(i);
                table
                    .terms
                    .extend_from_slice(&affine.expect("a shape has a form").coeffs);
                table.starts.push(table.terms.len() as u32);
                next
            } else {
                shapes[rep]
            };
        }
        for i in 0..n {
            let (_, index, affine) = site(i);
            let f = first[i] as usize;
            let class = if f == i {
                table.num_classes += 1;
                table.num_classes - 1
            } else {
                table.entries[f].class
            };
            let mut shape = shapes[i];
            if affine.is_some_and(|a| {
                a.myproc == i64::MIN || a.coeffs.iter().any(|&(_, c)| c == i64::MIN)
            }) {
                shape |= UNNEGATABLE;
            }
            if index.is_some_and(stable_index) {
                shape |= STABLE;
            }
            table.entries.push(SubscriptEntry {
                class,
                shape,
                konst: affine.map_or(0, |a| a.konst),
            });
        }
        table
    }

    /// The class of `a`: equal for two sites iff they name the same
    /// variable and their subscripts are provably equal on one processor
    /// with the same local state. Dense in `0..num_classes()`.
    pub fn class(&self, a: AccessId) -> u32 {
        self.entries[a.index()].class
    }

    /// Number of distinct classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes as usize
    }

    /// Whether `a`'s subscript is built only from constants, `MYPROC` and
    /// `PROCS` (false for a scalar).
    pub fn stable(&self, a: AccessId) -> bool {
        self.entries[a.index()].shape & STABLE != 0
    }

    /// Could the subscripts of `a` and `b` be equal on one processor with
    /// the same local state? `true` unless provably different: the same
    /// comparable shape with constants a nonzero distance apart. The
    /// variables are not compared.
    pub fn may_equal(&self, a: AccessId, b: AccessId) -> bool {
        let (ea, eb) = (self.entries[a.index()], self.entries[b.index()]);
        let shape = ea.shape & !STABLE;
        if shape >= NO_SHAPE || shape != eb.shape & !STABLE {
            return true;
        }
        eb.konst
            .checked_neg()
            .and_then(|neg| ea.konst.checked_add(neg))
            .is_none_or(|diff| diff == 0)
    }

    /// The nonzero local-variable terms of `a`'s affine subscript, by
    /// variable; `None` for a scalar or a non-affine subscript.
    pub fn local_terms(&self, a: AccessId) -> Option<&[(VarId, i64)]> {
        let s = (self.entries[a.index()].shape & NO_SHAPE) as usize;
        let (lo, hi) = (*self.starts.get(s)?, *self.starts.get(s + 1)?);
        Some(&self.terms[lo as usize..hi as usize])
    }
}

/// A set of candidate processor ids: ascending, duplicate-free.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Candidates<'a> {
    /// Every id in `0..n`.
    Range(i64),
    /// Exactly these ids.
    Ids(&'a [i64]),
}

impl Candidates<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Candidates::Range(n) => *n as usize,
            Candidates::Ids(ids) => ids.len(),
        }
    }

    fn first(&self) -> Option<i64> {
        match self {
            Candidates::Range(n) => (*n > 0).then_some(0),
            Candidates::Ids(ids) => ids.first().copied(),
        }
    }

    fn contains(&self, q: i128) -> bool {
        let Ok(q) = i64::try_from(q) else {
            return false;
        };
        match self {
            Candidates::Range(n) => (0..*n).contains(&q),
            Candidates::Ids(ids) => ids.binary_search(&q).is_ok(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let (range, ids) = match self {
            Candidates::Range(n) => (0..*n, &[][..]),
            Candidates::Ids(ids) => (0..0, *ids),
        };
        range.chain(ids.iter().copied())
    }

    /// Whether the set holds an id other than `p`.
    fn has_other_than(&self, p: i128) -> bool {
        self.len() >= 2 || self.first().is_some_and(|q| i128::from(q) != p)
    }

    /// Whether some `p ∈ self`, `q ∈ other` have `p ≠ q`: both non-empty
    /// and not the same singleton.
    pub(crate) fn exists_distinct_pair(&self, other: &Candidates<'_>) -> bool {
        match (self.first(), other.first()) {
            (Some(p), Some(q)) => self.len() > 1 || other.len() > 1 || p != q,
            _ => false,
        }
    }
}

/// Decides subscript collisions between two guarded sites in time linear
/// in the candidate sets, counting the processors it visits.
#[derive(Debug, Default)]
pub(crate) struct CollisionSolver {
    /// Candidate processors visited so far.
    pub(crate) proc_steps: u64,
    /// `(residue, q)` of one side of a modular test, reused across tests.
    residues: Vec<(i128, i64)>,
}

impl CollisionSolver {
    /// `∃ p ∈ c1, q ∈ c2, p ≠ q : a1(p) = a2(q)` for loop-invariant forms:
    /// for each `p` of the smaller side, solve for the one `q` that
    /// collides and look it up.
    pub(crate) fn exact(
        &mut self,
        a1: &Affine,
        a2: &Affine,
        c1: Candidates<'_>,
        c2: Candidates<'_>,
    ) -> bool {
        let ((a, ca), (b, cb)) = if c1.len() <= c2.len() {
            ((a1, c1), (a2, c2))
        } else {
            ((a2, c2), (a1, c1))
        };
        // ma·p − mb·q = kb − ka has integer solutions only when
        // gcd(ma, mb) divides the right-hand side.
        let g = gcd_u64(a.myproc.unsigned_abs(), b.myproc.unsigned_abs());
        if g == 0 {
            return a.konst == b.konst && ca.exists_distinct_pair(&cb);
        }
        let divides = match b.konst.checked_sub(a.konst) {
            Some(d) => d.unsigned_abs() % g == 0,
            None => (i128::from(b.konst) - i128::from(a.konst)) % i128::from(g) == 0,
        };
        if !divides {
            return false;
        }
        if (a.konst, a.myproc) == (b.konst, b.myproc) {
            // One and the same injective map: equal values need p = q.
            return false;
        }
        // The `q` that collides with `p` solves `mb·q = ka + ma·p − kb`:
        // worked out in `i64`, and in `i128` only where that overflows.
        let narrow = |p: i64| -> Option<bool> {
            let t = a
                .myproc
                .checked_mul(p)?
                .checked_add(a.konst)?
                .checked_sub(b.konst)?;
            Some(if b.myproc == 0 {
                t == 0 && cb.has_other_than(i128::from(p))
            } else {
                let q = t.checked_div(b.myproc)?;
                t.checked_rem(b.myproc)? == 0 && q != p && cb.contains(i128::from(q))
            })
        };
        let wide = |p: i64| {
            let (ka, ma) = (i128::from(a.konst), i128::from(a.myproc));
            let (kb, mb) = (i128::from(b.konst), i128::from(b.myproc));
            let p = i128::from(p);
            let t = ka + ma * p - kb; // mb·q must equal t
            if mb == 0 {
                t == 0 && cb.has_other_than(p)
            } else {
                t % mb == 0 && t / mb != p && cb.contains(t / mb)
            }
        };
        for p in ca.iter() {
            self.proc_steps += 1;
            if narrow(p).unwrap_or_else(|| wide(p)) {
                return true;
            }
        }
        false
    }

    /// `∃ p ∈ c1, q ∈ c2, p ≠ q : a1(p) ≡ a2(q) (mod m)` on the
    /// loop-invariant parts, `m > 1`: bucket `c2` by residue, then look up
    /// each `p`'s residue.
    pub(crate) fn modular(
        &mut self,
        a1: &Affine,
        a2: &Affine,
        m: i128,
        c1: Candidates<'_>,
        c2: Candidates<'_>,
    ) -> bool {
        // `a(p) mod m`, in `i64` unless that overflows.
        let residue = |a: &Affine, p: i64| {
            let narrow = || {
                let m = i64::try_from(m).ok()?;
                a.myproc
                    .checked_mul(p)?
                    .checked_add(a.konst)?
                    .checked_rem_euclid(m)
            };
            narrow().map_or_else(
                || (i128::from(a.konst) + i128::from(a.myproc) * i128::from(p)).rem_euclid(m),
                i128::from,
            )
        };
        self.residues.clear();
        self.residues.extend(c2.iter().map(|q| (residue(a2, q), q)));
        self.residues.sort_unstable();
        self.proc_steps += self.residues.len() as u64;
        for p in c1.iter() {
            self.proc_steps += 1;
            let r = residue(a1, p);
            // The bucket of `r` is a sorted run; it holds a `q ≠ p` iff its
            // first entry is not `p` or it has a second entry.
            let at = self.residues.partition_point(|&(rq, _)| rq < r);
            let bucket = &self.residues[at..];
            let same = |e: Option<&(i128, i64)>| e.is_some_and(|&(rq, _)| rq == r);
            if same(bucket.first()) && (bucket[0].1 != p || same(bucket.get(1))) {
                return true;
            }
        }
        false
    }
}

fn gcd_u64(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd_u64(b, a % b)
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a.abs()
    } else {
        gcd(b, a % b)
    }
}

/// Could subscript `e1` evaluated on processor `p` equal subscript `e2`
/// evaluated on a **different** processor `q`? Conservative: `true` unless
/// provably disjoint.
///
/// The provable cases assume nothing about `PROCS` beyond `PROCS ≥ 2` and
/// processor ids in `0..PROCS`.
pub fn may_conflict_cross_proc(e1: Option<&Expr>, e2: Option<&Expr>) -> bool {
    may_conflict_cross_proc_bounded(e1, e2, None)
}

/// [`may_conflict_cross_proc`] with an optional known processor count.
///
/// Knowing `PROCS` enables a *modular* disambiguation for loop-variant
/// subscripts: if every local-variable coefficient in both subscripts is a
/// multiple of `m`, then a collision requires
/// `c0 + c1·p ≡ c0' + c1'·q (mod m)` for some `p ≠ q` in `0..PROCS`. The
/// canonical SPMD scatter `A[q·B + MYPROC]` (with `B ≥ PROCS`) is thereby
/// proven per-processor-disjoint even though `q` is a loop variable.
pub fn may_conflict_cross_proc_bounded(
    e1: Option<&Expr>,
    e2: Option<&Expr>,
    procs: Option<u32>,
) -> bool {
    let (Some(e1), Some(e2)) = (e1, e2) else {
        // Scalars (no subscript) always alias themselves.
        return true;
    };
    let (Some(a1), Some(a2)) = (to_affine(e1), to_affine(e2)) else {
        return true;
    };
    affine_may_conflict_cross_proc(&a1, &a2, procs, &mut CollisionSolver::default())
}

/// [`may_conflict_cross_proc_bounded`] over subscripts already in affine
/// form.
pub(crate) fn affine_may_conflict_cross_proc(
    a1: &Affine,
    a2: &Affine,
    procs: Option<u32>,
    solver: &mut CollisionSolver,
) -> bool {
    if a1.has_locals() || a2.has_locals() {
        // Loop-variant subscripts: try the modular argument, otherwise
        // stay conservative.
        if let Some(procs) = procs {
            let m = local_coeff_gcd(a1, a2);
            if m > 1 {
                let all = Candidates::Range(i64::from(procs));
                return solver.modular(a1, a2, m, all, all);
            }
        }
        return true;
    }
    // e1(p) = k1 + a·p, e2(q) = k2 + b·q; conflict iff ∃ p ≠ q: equal.
    let (k1, a) = (i128::from(a1.konst), i128::from(a1.myproc));
    let (k2, b) = (i128::from(a2.konst), i128::from(a2.myproc));
    let d = k2 - k1; // need a·p − b·q = d
    if a == b {
        if a == 0 {
            // Constant subscripts: same element iff equal constants.
            return d == 0;
        }
        // a·(p − q) = d with p ≠ q: impossible when d = 0; otherwise
        // needs d divisible by a with nonzero quotient.
        return d != 0 && d % a == 0;
    }
    // Different coefficients: some (p, q) pair generally exists (we know
    // nothing about PROCS). One more provable-disjoint case: one side
    // constant, other side strided — disjoint iff non-divisible offset.
    if a == 0 {
        return d % b == 0;
    }
    if b == 0 {
        return d % a == 0;
    }
    true
}

/// The gcd of all local-variable coefficients across both affine forms
/// (0 when there are none).
pub(crate) fn local_coeff_gcd(a1: &Affine, a2: &Affine) -> i128 {
    a1.coeffs
        .iter()
        .chain(&a2.coeffs)
        .fold(0, |m, &(_, c)| gcd(m, i128::from(c)))
}

/// Could subscript `e1` evaluated on processor `p` equal subscript `e2`
/// evaluated on **any** processor `q` (including `q = p`)? Used for
/// matching `post f[·]` sites against `wait f[·]` sites. Conservative:
/// `true` unless provably disjoint for every `(p, q)`.
pub fn may_match_any_proc(e1: Option<&Expr>, e2: Option<&Expr>) -> bool {
    let (Some(e1), Some(e2)) = (e1, e2) else {
        return true;
    };
    let (Some(a1), Some(a2)) = (to_affine(e1), to_affine(e2)) else {
        return true;
    };
    if a1.has_locals() || a2.has_locals() {
        return true;
    }
    let (k1, a) = (i128::from(a1.konst), i128::from(a1.myproc));
    let (k2, b) = (i128::from(a2.konst), i128::from(a2.myproc));
    let d = k2 - k1; // need a·p − b·q = d for some p, q ≥ 0
    if a == 0 && b == 0 {
        return d == 0;
    }
    if a == b {
        return d % a == 0;
    }
    if a == 0 {
        return d % b == 0;
    }
    if b == 0 {
        return d % a == 0;
    }
    true
}

/// Could subscript `e1` equal `e2` when evaluated on the **same** processor
/// and at the same point (identical local state)? Conservative: `true`
/// unless provably disjoint. The reference [`SubscriptTable::may_equal`]
/// is tested against.
#[cfg(test)]
pub(crate) fn may_equal_same_proc(e1: Option<&Expr>, e2: Option<&Expr>) -> bool {
    let (Some(e1), Some(e2)) = (e1, e2) else {
        return true;
    };
    let (Some(a1), Some(a2)) = (to_affine(e1), to_affine(e2)) else {
        return true;
    };
    // Difference must be identically zero to be *provably equal*; here we
    // ask the opposite — provably different: difference is a nonzero
    // constant once variable parts cancel.
    let Some(diff) = a2.negate().and_then(|neg| a1.add(&neg)) else {
        return true;
    };
    if diff.myproc == 0 && diff.coeffs.is_empty() {
        return diff.konst == 0;
    }
    true
}

/// Are the two subscripts *provably equal* on the same processor with the
/// same local state? (Stronger than [`may_equal_same_proc`].) The
/// reference [`SubscriptTable::class`] equality is tested against.
#[cfg(test)]
pub(crate) fn provably_equal_same_proc(e1: Option<&Expr>, e2: Option<&Expr>) -> bool {
    match (e1, e2) {
        (None, None) => true,
        (Some(e1), Some(e2)) => {
            let (Some(a1), Some(a2)) = (to_affine(e1), to_affine(e2)) else {
                return false;
            };
            a1 == a2
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn myproc_plus(k: i64) -> Expr {
        Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::MyProc),
            rhs: Box::new(Expr::Int(k)),
        }
    }

    fn myproc_times(k: i64) -> Expr {
        Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(Expr::MyProc),
            rhs: Box::new(Expr::Int(k)),
        }
    }

    #[test]
    fn affine_of_linear_forms() {
        let a = to_affine(&myproc_plus(3)).unwrap();
        assert_eq!(a.konst, 3);
        assert_eq!(a.myproc, 1);
        let b = to_affine(&myproc_times(4)).unwrap();
        assert_eq!(b.myproc, 4);
        let c = to_affine(&Expr::Binary {
            op: BinOp::Sub,
            lhs: Box::new(myproc_times(4)),
            rhs: Box::new(myproc_plus(1)),
        })
        .unwrap();
        assert_eq!(c.myproc, 3);
        assert_eq!(c.konst, -1);
    }

    #[test]
    fn affine_rejects_nonlinear() {
        assert!(to_affine(&Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(Expr::MyProc),
            rhs: Box::new(Expr::MyProc),
        })
        .is_none());
        assert!(to_affine(&Expr::Binary {
            op: BinOp::Rem,
            lhs: Box::new(Expr::MyProc),
            rhs: Box::new(Expr::Int(2)),
        })
        .is_none());
        assert!(to_affine(&Expr::Procs).is_none());
    }

    /// `A[MYPROC * 2^62 * 4]`: the `MYPROC` coefficient is 2^64. Wrapped
    /// to 0 it would make the subscript a constant and prove it disjoint
    /// from `A[1]`; it has to be "not affine" instead.
    #[test]
    fn coefficients_past_i64_are_not_affine() {
        let huge = Expr::Binary {
            op: BinOp::Mul,
            lhs: Box::new(myproc_times(1 << 62)),
            rhs: Box::new(Expr::Int(4)),
        };
        assert!(to_affine(&huge).is_none());
        assert!(may_conflict_cross_proc(Some(&huge), Some(&Expr::Int(1))));
        assert!(may_conflict_cross_proc_bounded(
            Some(&huge),
            Some(&huge),
            Some(8)
        ));
        assert!(may_equal_same_proc(Some(&huge), Some(&Expr::Int(1))));
        assert!(may_match_any_proc(Some(&huge), Some(&Expr::Int(1))));
        // Every operation refuses, not only `scale`.
        let min = Expr::Int(i64::MIN);
        let neg = Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(min.clone()),
        };
        assert!(to_affine(&neg).is_none());
        for op in [BinOp::Add, BinOp::Sub] {
            let sum = Expr::Binary {
                op,
                lhs: Box::new(Expr::Int(if op == BinOp::Add {
                    i64::MAX
                } else {
                    i64::MIN
                })),
                rhs: Box::new(Expr::Int(1)),
            };
            assert!(to_affine(&sum).is_none(), "{op:?}");
        }
        // Extreme but representable forms decide without overflowing.
        let (lo, hi) = (Expr::Int(i64::MIN), Expr::Int(i64::MAX));
        assert!(!may_conflict_cross_proc(Some(&lo), Some(&hi)));
        assert!(!may_match_any_proc(Some(&hi), Some(&lo)));
        // ... and where a difference does not fit, the answer is "may".
        assert!(may_equal_same_proc(Some(&lo), Some(&hi)));
        let strided = myproc_times(-1);
        assert!(may_conflict_cross_proc(Some(&lo), Some(&strided)));
    }

    #[test]
    fn same_myproc_subscript_never_conflicts_cross_proc() {
        // A[MYPROC] on p vs A[MYPROC] on q ≠ p: disjoint.
        let e = Expr::MyProc;
        assert!(!may_conflict_cross_proc(Some(&e), Some(&e)));
    }

    #[test]
    fn neighbor_exchange_conflicts() {
        // A[MYPROC] vs A[MYPROC + 1]: p = q + 1 collides.
        let e1 = Expr::MyProc;
        let e2 = myproc_plus(1);
        assert!(may_conflict_cross_proc(Some(&e1), Some(&e2)));
    }

    #[test]
    fn strided_blocks_disjoint_when_offset_within_stride() {
        // A[4·MYPROC] vs A[4·MYPROC + 1]: never equal across processors.
        let e1 = myproc_times(4);
        let e2 = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(myproc_times(4)),
            rhs: Box::new(Expr::Int(1)),
        };
        assert!(!may_conflict_cross_proc(Some(&e1), Some(&e2)));
        // But offset 4 is another processor's slot.
        let e3 = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(myproc_times(4)),
            rhs: Box::new(Expr::Int(4)),
        };
        assert!(may_conflict_cross_proc(Some(&e1), Some(&e3)));
    }

    #[test]
    fn constant_subscripts() {
        let c3 = Expr::Int(3);
        let c4 = Expr::Int(4);
        assert!(may_conflict_cross_proc(Some(&c3), Some(&c3)));
        assert!(!may_conflict_cross_proc(Some(&c3), Some(&c4)));
    }

    #[test]
    fn constant_vs_strided() {
        // A[6] vs A[4·MYPROC + 2]: 6 = 4q + 2 ⇒ q = 1: conflict.
        let c6 = Expr::Int(6);
        let strided = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(myproc_times(4)),
            rhs: Box::new(Expr::Int(2)),
        };
        assert!(may_conflict_cross_proc(Some(&c6), Some(&strided)));
        // A[5] vs same: 5 = 4q + 2 has no integer solution: disjoint.
        let c5 = Expr::Int(5);
        assert!(!may_conflict_cross_proc(Some(&c5), Some(&strided)));
    }

    #[test]
    fn loop_variables_are_conservative() {
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Local(VarId(7))),
            rhs: Box::new(Expr::MyProc),
        };
        assert!(may_conflict_cross_proc(Some(&e), Some(&e)));
    }

    #[test]
    fn scalars_always_conflict() {
        assert!(may_conflict_cross_proc(None, None));
    }

    /// The table against the expression-level functions it replaced, on
    /// random subscript pairs and on the forms whose arithmetic overflows.
    /// Run under `--release` too: a wrapped coefficient shows only there.
    #[test]
    fn subscript_table_agrees_with_the_expression_tests() {
        let bin = |op, l: Expr, r: Expr| Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        };
        let local = |v: u32, c: i64| bin(BinOp::Mul, Expr::Int(c), Expr::Local(VarId(v)));
        let mut cases: Vec<Expr> = vec![
            // The PR 16 reproducer: a `MYPROC` coefficient of 2^64.
            bin(BinOp::Mul, myproc_times(1 << 62), Expr::Int(4)),
            Expr::Int(i64::MIN),
            Expr::Int(i64::MAX),
            Expr::Int(-1),
            Expr::Int(0),
            Expr::Int((1 << 62) + 1),
            Expr::Int(-(1 << 62)),
            myproc_times(i64::MIN),
            bin(BinOp::Add, myproc_times(i64::MIN), Expr::Int(3)),
            local(1, i64::MIN),
            bin(BinOp::Add, local(1, i64::MIN), Expr::Int(1)),
            bin(BinOp::Mul, Expr::MyProc, Expr::MyProc),
            Expr::Procs,
            bin(BinOp::Sub, Expr::Local(VarId(1)), Expr::Local(VarId(1))),
            bin(BinOp::Add, local(1, 2), local(2, -3)),
            bin(BinOp::Add, local(2, -3), local(1, 2)),
        ];
        let mut rng = crate::corpus::SplitMix64::new(23);
        for _ in 0..400 {
            cases.push(crate::guards::tests::random_site(&mut rng, None).0);
        }
        // Every ordered pair of the hand-picked forms and the first random
        // draws, then 40 000 fresh random pairs.
        let mut pairs: Vec<(Expr, Expr)> = Vec::new();
        for e1 in &cases[..40] {
            for e2 in &cases[..40] {
                pairs.push((e1.clone(), e2.clone()));
            }
        }
        for _ in 0..40_000 {
            let e1 = crate::guards::tests::random_site(&mut rng, None).0;
            let e2 = crate::guards::tests::random_site(&mut rng, None).0;
            pairs.push((e1, e2));
        }
        for (n, (e1, e2)) in pairs.iter().enumerate() {
            // Same variable, another variable, and a scalar beside them.
            let other = VarId(if n % 3 == 0 { 8 } else { 7 });
            let forms = [to_affine(e1), to_affine(e2)];
            let sites = [
                (Some(VarId(7)), Some(e1), forms[0].as_ref()),
                (Some(other), Some(e2), forms[1].as_ref()),
                (Some(VarId(7)), None, None),
                (Some(VarId(7)), None, None),
            ];
            let table = SubscriptTable::build(sites.len(), |i| sites[i]);
            let id = AccessId::from_index;
            assert_eq!(
                table.class(id(0)) == table.class(id(1)),
                other == VarId(7) && provably_equal_same_proc(Some(e1), Some(e2)),
                "class of {e1} vs {e2}"
            );
            assert_eq!(
                table.may_equal(id(0), id(1)),
                may_equal_same_proc(Some(e1), Some(e2)),
                "may_equal of {e1} vs {e2}"
            );
            assert_eq!(
                table.may_equal(id(1), id(0)),
                may_equal_same_proc(Some(e2), Some(e1)),
                "may_equal of {e2} vs {e1}"
            );
            // Scalars: one class per variable, never provably different.
            assert_eq!(table.class(id(2)), table.class(id(3)));
            assert_ne!(table.class(id(0)), table.class(id(2)));
            assert!(table.may_equal(id(0), id(2)) && table.may_equal(id(2), id(3)));
            assert!(!table.stable(id(2)));
            // The local terms are the form's own.
            for (k, form) in forms.iter().enumerate() {
                let terms = table.local_terms(id(k));
                let expect = form
                    .as_ref()
                    .map(|a| a.coeffs.iter().map(|(v, c)| (*v, *c)).collect::<Vec<_>>());
                assert_eq!(terms.map(<[_]>::to_vec), expect, "terms of {e1} / {e2}");
            }
            assert!(table.local_terms(id(2)).is_none());
        }
    }

    #[test]
    fn same_proc_equality() {
        let e1 = myproc_plus(1);
        let e2 = myproc_plus(2);
        assert!(!may_equal_same_proc(Some(&e1), Some(&e2)));
        assert!(may_equal_same_proc(Some(&e1), Some(&e1)));
        assert!(provably_equal_same_proc(Some(&e1), Some(&e1)));
        assert!(!provably_equal_same_proc(Some(&e1), Some(&e2)));
        assert!(provably_equal_same_proc(None, None));
        // Loop variable: may be equal, not provably so against a constant.
        let v = Expr::Local(VarId(1));
        assert!(may_equal_same_proc(Some(&v), Some(&Expr::Int(0))));
        assert!(!provably_equal_same_proc(Some(&v), Some(&Expr::Int(0))));
        assert!(provably_equal_same_proc(Some(&v), Some(&v)));
    }
}
