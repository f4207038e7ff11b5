//! Remote-access elimination (§7, Figures 9–11).
//!
//! Three transformations, all justified by the *absence of a delay edge*
//! between the pair of accesses (no back-path ⇒ reordering them is
//! unobservable ⇒ collapsing them is sequentially consistent):
//!
//! * **redundant-get reuse** — a second `get` of the same location becomes
//!   a local copy of the first `get`'s destination (like keeping the value
//!   in a register);
//! * **write-back elimination** — an earlier `put` overwritten by a later
//!   `put` to the same location is dropped (like a write-back cache);
//! * **value forwarding** — a `get` of a location this processor just
//!   `put` becomes a local re-evaluation of the written value ("reading a
//!   remote variable that has recently been written can be avoided if the
//!   written value is still available", §7 / Figure 11).
//!
//! All run on the freshly split CFG (initiation and `sync_ctr` still
//! adjacent); the value-correctness conditions additionally require that no
//! same-processor operation touches the location in between and that the
//! operands involved are not redefined.
//!
//! Within a block each transformation is one forward sweep. The sweep keeps,
//! per subscript class, the latest `get` (or `put`) that could serve a later
//! one; only when a later one of the class arrives does it ask "was it
//! disturbed since?", of the ordinal of each local's latest definition and
//! of the block's accesses since. No expression is put in affine form: the
//! classes are the analysis's [`syncopt_core::affine::SubscriptTable`].

use crate::context::{steps, Ctx};
use crate::OptStats;
use syncopt_core::affine::SubscriptTable;
use syncopt_ir::access::AccessTable;
use syncopt_ir::cfg::{Cfg, CtrId, Instr};
use syncopt_ir::expr::{Expr, SharedRef};
use syncopt_ir::ids::{AccessId, BlockId, Position, VarId};

/// Stands where a sweep deleted an instruction until the block is
/// compacted, so the indices a sweep holds stay valid. No pass allocates
/// this counter.
const TOMBSTONE: Instr = Instr::SyncCtr {
    ctr: CtrId(u32::MAX),
};

fn compact(instrs: &mut Vec<Instr>) {
    instrs.retain(|i| !matches!(i, Instr::SyncCtr { ctr } if ctr.0 == u32::MAX));
}

/// Deletes the `sync_ctr` on `ctr` at `at`, if that is what sits there
/// (the split-phase layout puts an initiation's sync right behind it).
fn bury_adjacent_sync(instrs: &mut [Instr], at: usize, ctr: CtrId) {
    if matches!(instrs.get(at), Some(Instr::SyncCtr { ctr: c }) if *c == ctr) {
        instrs[at] = TOMBSTONE;
    }
}

/// Turns the get at `at` into `its destination = value` and buries its
/// sync. The access keeps the position it had.
fn replace_get(
    instrs: &mut [Instr],
    at: Position,
    value: Expr,
    accesses: &mut AccessTable,
    stats: &mut OptStats,
) {
    let Instr::GetInit {
        access, dst, ctr, ..
    } = instrs[at.instr]
    else {
        unreachable!("only a get is replaced");
    };
    instrs[at.instr] = Instr::AssignLocal { dst, value };
    bury_adjacent_sync(instrs, at.instr + 1, ctr);
    accesses.info_mut(access).pos = at;
    stats.gets_eliminated += 1;
}

/// The latest instruction of a subscript class that a later one could
/// reuse, in the block being swept.
#[derive(Debug, Clone, Copy, Default)]
struct Avail {
    /// Its stamp; at or below the block's first stamp when there is none.
    stamp: u32,
    /// Its index in the block.
    at: u32,
}

/// The scratch tables of the elimination sweeps, allocated once per
/// [`crate::optimize`]. Stamps only grow, across blocks and sweeps alike,
/// so the tables are never cleared: whatever an earlier block or sweep
/// left behind is older than the current block's first stamp.
pub(crate) struct Sweeps<'a> {
    ctx: &'a Ctx<'a>,
    /// The stamp of the instruction being swept.
    now: u32,
    /// The stamp before the current block's first instruction.
    block_start: u32,
    /// Per local, the stamp of its latest definition.
    last_def: Vec<u32>,
    /// Per subscript class, the latest reusable instruction.
    avail: Vec<Avail>,
    /// The shared accesses of the current block that can disturb a reuse,
    /// oldest first: `(stamp, access, variable)`.
    accesses: Vec<(u32, AccessId, VarId)>,
}

impl<'a> Sweeps<'a> {
    pub(crate) fn new(ctx: &'a Ctx<'a>, vars: usize) -> Self {
        Sweeps {
            ctx,
            now: 0,
            block_start: 0,
            last_def: vec![0; vars],
            avail: vec![Avail::default(); ctx.subs.num_classes()],
            accesses: Vec::new(),
        }
    }

    fn start_block(&mut self) {
        self.block_start = self.now;
        self.accesses.clear();
    }

    fn tick(&mut self) -> u32 {
        self.now += 1;
        self.now
    }

    /// The reusable instruction of `a`'s class in the current block.
    fn available(&self, a: AccessId) -> Option<Avail> {
        let avail = self.avail[self.ctx.subs.class(a) as usize];
        (avail.stamp > self.block_start).then_some(avail)
    }

    fn set_available(&mut self, a: AccessId, stamp: u32, at: usize) {
        self.avail[self.ctx.subs.class(a) as usize] = Avail {
            stamp,
            at: at as u32,
        };
    }

    fn note_def(&mut self, instr: &Instr, stamp: u32) {
        if let Some(d) = instr.def().or(instr.array_def()) {
            self.last_def[d.index()] = stamp;
        }
    }

    /// Whether any variable of `e` was defined after stamp `t`.
    fn defined_since(&self, e: Option<&Expr>, t: u32) -> bool {
        let mut hit = false;
        if let Some(e) = e {
            e.for_each_var(&mut |v| hit |= self.last_def[v.index()] > t);
        }
        hit
    }

    /// Whether a recorded access to `var` after stamp `t` may touch the
    /// location of `e` (an access to `var`). Asked only of a pair the
    /// class table matched, and walks only what lies between the two.
    fn touched_since(&self, e: AccessId, var: VarId, t: u32) -> bool {
        let recent = self.accesses.iter().rev();
        recent.take_while(|x| x.0 > t).any(|&(_, x, v)| {
            steps::count(|s| s.subscript_tests += 1);
            v == var && self.ctx.subs.may_equal(x, e)
        })
    }

    /// Replaces redundant `get`s with local copies, within each block.
    pub(crate) fn reuse_gets(&mut self, cfg: &mut Cfg, stats: &mut OptStats) {
        for bi in 0..cfg.blocks.len() {
            self.start_block();
            let instrs = &mut cfg.blocks[bi].instrs;
            for r in 0..instrs.len() {
                let stamp = self.tick();
                let (g2, var) = match &instrs[r] {
                    Instr::GetInit { access, src, .. } => (*access, src.var),
                    other => {
                        if let Instr::PutInit { access, dst, .. }
                        | Instr::StoreInit { access, dst, .. } = other
                        {
                            self.accesses.push((stamp, *access, dst.var));
                        }
                        self.note_def(other, stamp);
                        continue;
                    }
                };
                // The nearest earlier get of the location decides: no delay
                // edge between the two (§7's condition), and its value must
                // still be good — destination and subscript operands not
                // redefined (by the get itself either), no own write to the
                // location.
                let reused = self.available(g2).and_then(|seen| {
                    let Instr::GetInit {
                        access: g1,
                        dst: dst1,
                        src: ref1,
                        ..
                    } = &instrs[seen.at as usize]
                    else {
                        unreachable!("the available instruction of a get sweep is a get");
                    };
                    let good = !self.ctx.delay.contains(*g1, g2)
                        && !overwrites_own_subscript(*dst1, ref1)
                        && self.last_def[dst1.index()] <= seen.stamp
                        && !self.defined_since(ref1.index.as_ref(), seen.stamp)
                        && !self.touched_since(*g1, var, seen.stamp);
                    good.then_some(Expr::Local(*dst1))
                });
                match reused {
                    Some(copy) => {
                        let at = Position::new(BlockId::from_index(bi), r);
                        replace_get(instrs, at, copy, &mut cfg.accesses, stats);
                    }
                    None => self.set_available(g2, stamp, r),
                }
                // Its own definition comes after what it reads.
                self.note_def(&instrs[r], stamp);
            }
            compact(instrs);
        }
    }

    /// Forwards the value of a preceding `put` to a `get` of the same
    /// location on the same processor (Figure 11 "value propagation").
    ///
    /// `put X = e; ...; get(d, X)` becomes `put X = e; ...; d = e`, provided
    /// the location provably matches, no variable of `e` (or of the index) is
    /// redefined in between, no other same-location write intervenes, and
    /// no delay edge separates the pair.
    pub(crate) fn forward_put_values(&mut self, cfg: &mut Cfg, stats: &mut OptStats) {
        for bi in 0..cfg.blocks.len() {
            self.start_block();
            let instrs = &mut cfg.blocks[bi].instrs;
            for r in 0..instrs.len() {
                let stamp = self.tick();
                let (g, loc) = match &instrs[r] {
                    Instr::GetInit { access, src, .. } => (*access, src),
                    other => {
                        if let Instr::PutInit { access, dst, .. }
                        | Instr::StoreInit { access, dst, .. } = other
                        {
                            self.accesses.push((stamp, *access, dst.var));
                            self.set_available(*access, stamp, r);
                        }
                        self.note_def(other, stamp);
                        continue;
                    }
                };
                // The latest put of the location, unless a write that may
                // alias it came after (it would decide instead, and it is
                // not provably the same location).
                let forwarded = self.available(g).and_then(|seen| {
                    let (Instr::PutInit { access: p, src, .. }
                    | Instr::StoreInit { access: p, src, .. }) = &instrs[seen.at as usize]
                    else {
                        unreachable!("the available instruction of a put sweep is a put");
                    };
                    let good = !self.ctx.delay.contains(*p, g)
                        && !self.touched_since(g, loc.var, seen.stamp)
                        && !self.defined_since(Some(src), seen.stamp)
                        && !self.defined_since(loc.index.as_ref(), seen.stamp);
                    good.then(|| src.clone())
                });
                if let Some(value) = forwarded {
                    let at = Position::new(BlockId::from_index(bi), r);
                    replace_get(instrs, at, value, &mut cfg.accesses, stats);
                }
                self.note_def(&instrs[r], stamp);
            }
            compact(instrs);
        }
    }

    /// Drops `put`s whose value is overwritten before it can be observed.
    pub(crate) fn drop_overwritten_puts(&mut self, cfg: &mut Cfg, stats: &mut OptStats) {
        for bi in 0..cfg.blocks.len() {
            self.start_block();
            let instrs = &mut cfg.blocks[bi].instrs;
            for r in 0..instrs.len() {
                let stamp = self.tick();
                let (p2, var, acked) = match &instrs[r] {
                    Instr::PutInit { access, dst, .. } => (*access, dst.var, true),
                    Instr::StoreInit { access, dst, .. } => (*access, dst.var, false),
                    other => {
                        // A same-processor read of the location observes
                        // the pending put.
                        if let Instr::GetInit { access, src, .. } = other {
                            self.accesses.push((stamp, *access, src.var));
                        }
                        self.note_def(other, stamp);
                        continue;
                    }
                };
                // The latest put of the location is dead if this one
                // overwrites it with nothing in between that may read or
                // write the location, and its subscript still means the
                // same element.
                if let Some(seen) = self.available(p2) {
                    let at = seen.at as usize;
                    let Instr::PutInit {
                        access: p1,
                        dst: ref1,
                        ctr: ctr1,
                        ..
                    } = &instrs[at]
                    else {
                        unreachable!("the available instruction of a write-back sweep is a put");
                    };
                    let (p1, ctr1) = (*p1, *ctr1);
                    if !self.ctx.delay.contains(p1, p2)
                        && !self.defined_since(ref1.index.as_ref(), seen.stamp)
                        && !self.touched_since(p1, var, seen.stamp)
                    {
                        instrs[at] = TOMBSTONE;
                        bury_adjacent_sync(instrs, at + 1, ctr1);
                        cfg.accesses.info_mut(p1).pos = Position::new(BlockId::from_index(bi), at);
                        stats.puts_eliminated += 1;
                    }
                }
                // A store carries no acknowledgement to wait out: it is
                // never dropped, but it does end the window of the put
                // before it.
                self.set_available(p2, if acked { stamp } else { 0 }, r);
                self.accesses.push((stamp, p2, var));
            }
            compact(instrs);
        }
    }
}

/// Whether a get into `dst` of `loc` names an operand of its own subscript
/// as its destination (`i = A[i]`): once it has run, the subscript means
/// another element, and the value it read serves no later get of it.
fn overwrites_own_subscript(dst: VarId, loc: &SharedRef) -> bool {
    loc.index.as_ref().is_some_and(|e| e.uses_var(dst))
}

/// Per block, the locals it defines and the shared variables it writes, as
/// bit rows over the variables: a block whose row misses everything a
/// cached read depends on cannot invalidate it.
fn block_touches(cfg: &Cfg) -> (usize, Vec<u64>) {
    let words = cfg.vars.len().div_ceil(64);
    let mut rows = vec![0u64; cfg.num_blocks() * words];
    for (bi, block) in cfg.blocks.iter().enumerate() {
        for instr in &block.instrs {
            let touched = match instr {
                Instr::PutShared { dst, .. }
                | Instr::PutInit { dst, .. }
                | Instr::StoreInit { dst, .. } => Some(dst.var),
                other => other.def().or(other.array_def()),
            };
            if let Some(v) = touched {
                rows[bi * words + v.index() / 64] |= 1 << (v.index() % 64);
            }
        }
    }
    (words, rows)
}

/// Whether any instruction in `instrs` invalidates a cached read of `loc`
/// (access `g1`) held in `dst1`: a same-processor aliasing write, a
/// redefinition of the cached local, or a redefinition of an index variable.
fn region_invalidates(
    subs: &SubscriptTable,
    instrs: &[Instr],
    g1: AccessId,
    loc: &SharedRef,
    dst1: VarId,
) -> bool {
    instrs.iter().any(|instr| {
        if let Some(d) = instr.def().or(instr.array_def()) {
            if d == dst1 || loc.index.as_ref().is_some_and(|e| e.uses_var(d)) {
                return true;
            }
        }
        match instr {
            Instr::PutShared { access, dst, .. }
            | Instr::PutInit { access, dst, .. }
            | Instr::StoreInit { access, dst, .. }
                if dst.var == loc.var =>
            {
                steps::count(|s| s.subscript_tests += 1);
                subs.may_equal(*access, g1)
            }
            _ => false,
        }
    })
}

/// Cross-block redundant-get reuse: a get in a block *dominated* by an
/// earlier matching get is replaced by a local copy, provided no block on
/// any path between them (nor the end of the first block, nor the prefix
/// of the second) can invalidate the cached value, and no delay edge
/// separates the pair.
pub(crate) fn reuse_gets_across_blocks(cfg: &mut Cfg, ctx: &Ctx<'_>, stats: &mut OptStats) {
    let subs = ctx.subs;
    // Every get as `(access, position, next get of its subscript class)`,
    // in block order; a get replaced by a copy loses its access.
    let mut gets: Vec<(Option<AccessId>, Position, u32)> = Vec::new();
    for (bi, block) in cfg.blocks.iter().enumerate() {
        for (at, instr) in block.instrs.iter().enumerate() {
            if let Instr::GetInit { access, .. } = instr {
                let pos = Position::new(BlockId::from_index(bi), at);
                gets.push((Some(*access), pos, u32::MAX));
            }
        }
    }
    let mut first_in_class = vec![u32::MAX; subs.num_classes()];
    for k in (0..gets.len()).rev() {
        let class = subs.class(gets[k].0.expect("no get is replaced yet"));
        gets[k].2 = std::mem::replace(&mut first_in_class[class as usize], k as u32);
    }

    // Built for the first pair that gets as far as the path test.
    let mut touches: Option<(usize, Vec<u64>)> = None;
    for k2 in 0..gets.len() {
        let (Some(g2), p2, _) = gets[k2] else {
            unreachable!("a get is replaced on its own turn");
        };
        let mut k1 = first_in_class[subs.class(g2) as usize] as usize;
        let mut replacement = None;
        while let Some(&(g1, p1, next)) = gets.get(k1) {
            k1 = next as usize;
            // Same-block pairs are the intra-block sweep's. Availability:
            // g1 dominates g2.
            let Some(g1) = g1.filter(|&g1| g1 != g2 && p1.block != p2.block) else {
                continue;
            };
            if !ctx.dom.dominates(p1.block, p2.block) || ctx.delay.contains(g1, g2) {
                continue;
            }
            let Instr::GetInit {
                dst: dst1,
                src: ref1,
                ..
            } = &cfg.block(p1.block).instrs[p1.instr]
            else {
                unreachable!("a live get site holds a get");
            };
            // Invalidation: suffix of b1, prefix of b2, and every block on
            // some path b1 → X → b2 (includes loop bodies that could
            // re-enter b2). b1 and b2 themselves are NOT skipped — if
            // either lies on a cycle (b1 → ... → b2 can pass through them
            // again), their full bodies are on a path and must be clean
            // too. A block that neither defines a watched local nor writes
            // the variable is clean without a look at its instructions.
            let invalidates = |instrs: &[Instr]| region_invalidates(subs, instrs, g1, ref1, *dst1);
            if overwrites_own_subscript(*dst1, ref1)
                || invalidates(&cfg.block(p1.block).instrs[p1.instr + 1..])
                || invalidates(&cfg.block(p2.block).instrs[..p2.instr])
            {
                continue;
            }
            let (words, rows) = touches.get_or_insert_with(|| block_touches(cfg));
            let dirty_path = cfg.block_ids().any(|x| {
                let touched = |v: VarId| {
                    rows[x.index() * *words + v.index() / 64] & (1 << (v.index() % 64)) != 0
                };
                let mut watched = touched(*dst1) || touched(ref1.var);
                if let Some(e) = &ref1.index {
                    e.for_each_var(&mut |v| watched |= touched(v));
                }
                watched
                    && ctx.po.block_reaches(p1.block, x)
                    && ctx.po.block_reaches(x, p2.block)
                    && invalidates(&cfg.block(x).instrs)
            });
            if !dirty_path {
                replacement = Some(Expr::Local(*dst1));
                break;
            }
        }
        if let Some(copy) = replacement {
            let instrs = &mut cfg.blocks[p2.block.index()].instrs;
            replace_get(instrs, p2, copy, &mut cfg.accesses, stats);
            gets[k2].0 = None;
        }
    }
    cfg.blocks.iter_mut().for_each(|b| compact(&mut b.instrs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::split_phase;
    use crate::DelayChoice;
    use syncopt_core::{analyze, Analysis};
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    /// Splits `src` and runs `passes` over it under `choice`.
    fn sweep(
        src: &str,
        analysis: impl Fn(&Cfg) -> Analysis,
        choice: DelayChoice,
        passes: impl Fn(&mut Sweeps<'_>, &mut Cfg, &Ctx<'_>, &mut OptStats),
    ) -> (Cfg, OptStats) {
        let cfg0 = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = analysis(&cfg0);
        let mut stats = OptStats::default();
        let (mut cfg, ctrs) = split_phase(&cfg0, &mut stats);
        let ctx = crate::context_for(&cfg0, &analysis, choice, ctrs);
        passes(
            &mut Sweeps::new(&ctx, cfg.vars.len()),
            &mut cfg,
            &ctx,
            &mut stats,
        );
        (cfg, stats)
    }

    fn run(src: &str) -> (Cfg, OptStats) {
        run_under(src, DelayChoice::SyncRefined)
    }

    fn run_under(src: &str, choice: DelayChoice) -> (Cfg, OptStats) {
        sweep(src, analyze, choice, |sweeps, cfg, _, stats| {
            sweeps.reuse_gets(cfg, stats);
            sweeps.forward_put_values(cfg, stats);
            sweeps.drop_overwritten_puts(cfg, stats);
        })
    }

    fn count(cfg: &Cfg, pred: impl Fn(&Instr) -> bool) -> usize {
        cfg.blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn second_get_after_wait_is_reused() {
        // Figure 9 (second case): post/wait ensures the put completed, so X
        // is stable; two reads collapse to one.
        let (cfg, stats) = run(r#"
            shared int X; flag F;
            fn main() {
                int a; int b;
                if (MYPROC == 0) { X = 5; post F; }
                else { wait F; a = X; b = X; work(a + b); }
            }
            "#);
        assert_eq!(stats.gets_eliminated, 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 1);
    }

    #[test]
    fn racy_second_get_is_kept() {
        // No synchronization: the two reads may legally see different
        // values (another processor writes X concurrently) — a delay edge
        // exists and reuse is refused.
        let (cfg, stats) = run(r#"
            shared int X;
            fn main() {
                int a; int b;
                if (MYPROC == 0) { X = 5; }
                else { a = X; b = X; work(a + b); }
            }
            "#);
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 2);
    }

    #[test]
    fn own_write_between_gets_blocks_reuse_but_allows_forwarding() {
        // get; put; get — the second get must NOT reuse the first get's
        // value (the put intervened), but it MAY take the put's value
        // (forwarding), which is strictly better.
        let (cfg, stats) = run(r#"
            shared int A[64]; flag F;
            fn main() {
                int a; int b;
                wait F;
                a = A[MYPROC + 1];
                A[MYPROC + 1] = 9;
                b = A[MYPROC + 1];
                work(a + b);
            }
            "#);
        assert_eq!(stats.gets_eliminated, 1, "{stats:?}");
        // The first get survives; the second became `b = 9`.
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 1);
        let forwarded = cfg.blocks.iter().flat_map(|bl| bl.instrs.iter()).any(|i| {
            matches!(i, Instr::AssignLocal { value, .. }
                if *value == syncopt_ir::expr::Expr::Int(9))
        });
        assert!(forwarded, "second get should take the put's value");
    }

    #[test]
    fn index_redefinition_blocks_reuse() {
        let (_cfg, stats) = run(r#"
            shared int A[64]; flag F;
            fn main() {
                int i; int a; int b;
                wait F;
                i = 1;
                a = A[i];
                i = 2;
                b = A[i];
                work(a + b);
            }
            "#);
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
    }

    /// `i = A[i]; j = A[i];` reads two elements: the first get redefines
    /// its own subscript, so its value cannot stand in for the second.
    #[test]
    fn a_get_into_its_own_subscript_is_not_reused() {
        let (cfg, stats) = run(r#"
            shared int A[8]; shared int B[8];
            fn main() { int i; int j; i = A[MYPROC]; i = A[i]; j = A[i]; B[MYPROC] = j; }
            "#);
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 3);
    }

    #[test]
    fn overwritten_put_is_dropped() {
        // Two successive writes to the same element with no reader in
        // between and no cross-processor observer (owner slot): write-back.
        let (cfg, stats) = run(r#"
            shared int A[64];
            fn main() {
                A[MYPROC] = 1;
                A[MYPROC] = 2;
            }
            "#);
        assert_eq!(stats.puts_eliminated, 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })), 1);
    }

    #[test]
    fn observable_put_is_kept() {
        // A racy reader elsewhere: the delay edge between the two writes
        // keeps both.
        let (_cfg, stats) = run(r#"
            shared int X;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; X = 2; }
                else { v = X; work(v); }
            }
            "#);
        assert_eq!(stats.puts_eliminated, 0, "{stats:?}");
    }

    /// The write-back sweep is constrained by the delay set the caller
    /// chose, not by the refined one: `D_SS` keeps `(Write X, Write X)`,
    /// which §5 drops once the `post` orders the reader behind both.
    #[test]
    fn write_back_consults_the_chosen_delay_set() {
        let src = r#"
            shared int X; flag F;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; X = 2; post F; }
                else { wait F; v = X; work(v); }
            }
        "#;
        let under = |choice| {
            sweep(
                src,
                |cfg| syncopt_core::analyze_for(cfg, 4),
                choice,
                |sweeps, cfg, _, stats| sweeps.drop_overwritten_puts(cfg, stats),
            )
            .1
            .puts_eliminated
        };
        assert_eq!(under(DelayChoice::ShashaSnir), 0);
        assert_eq!(under(DelayChoice::SyncRefined), 1);
    }

    #[test]
    fn own_read_between_puts_forwards_then_write_backs() {
        // put; get; put — without forwarding, the intervening read pins
        // the first put. Forwarding turns the read into `v = 1`, after
        // which the first put is dead and write-back removes it.
        let (cfg, stats) = run(r#"
            shared int A[64];
            fn main() {
                int v;
                A[MYPROC] = 1;
                v = A[MYPROC];
                A[MYPROC] = 2;
                work(v);
            }
            "#);
        assert_eq!(stats.gets_eliminated, 1, "{stats:?}");
        assert_eq!(stats.puts_eliminated, 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })), 1);
    }

    fn run_cross(src: &str) -> (Cfg, OptStats) {
        sweep(
            src,
            |cfg| syncopt_core::analyze_for(cfg, 4),
            DelayChoice::SyncRefined,
            |sweeps, cfg, ctx, stats| {
                sweeps.reuse_gets(cfg, stats);
                reuse_gets_across_blocks(cfg, ctx, stats);
            },
        )
    }

    #[test]
    fn cross_block_reuse_after_wait() {
        // First read before the branch, second read inside a dominated
        // branch arm: the cached value is reusable (post-wait makes the
        // location stable).
        let (cfg, stats) = run_cross(
            r#"
            shared int X; flag F;
            fn main() {
                int a; int b;
                wait F;
                a = X;
                if (MYPROC == 0) {
                    b = X;
                    work(b);
                }
                work(a);
            }
            "#,
        );
        assert_eq!(stats.gets_eliminated, 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 1);
    }

    #[test]
    fn cross_block_reuse_refuses_a_get_into_its_own_subscript() {
        let (cfg, stats) = run_cross(
            r#"
            shared int A[8]; shared int B[8];
            fn main() {
                int i; int j;
                i = A[MYPROC];
                i = A[i];
                if (MYPROC == 0) { j = A[i]; B[MYPROC] = j; }
            }
            "#,
        );
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 3);
    }

    #[test]
    fn cross_block_reuse_blocked_by_loop_write() {
        // The second get sits in a loop that also writes the location:
        // iteration 2's read must see the new value, so no reuse.
        let (_cfg, stats) = run_cross(
            r#"
            shared int A[64]; flag F;
            fn main() {
                int a; int b; int i;
                wait F;
                a = A[MYPROC];
                for (i = 0; i < 3; i = i + 1) {
                    b = A[MYPROC];
                    A[MYPROC] = b + 1;
                }
                work(a);
            }
            "#,
        );
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
    }

    #[test]
    fn cross_block_requires_domination() {
        // The first get is inside a branch: it does not dominate the
        // later get, so the value may be unavailable.
        let (_cfg, stats) = run_cross(
            r#"
            shared int X; flag F;
            fn main() {
                int a; int b;
                wait F;
                if (MYPROC == 0) { a = X; work(a); }
                b = X;
                work(b);
            }
            "#,
        );
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
    }

    #[test]
    fn cross_block_blocked_by_racy_location() {
        // No synchronization: a delay edge separates the gets.
        let (_cfg, stats) = run_cross(
            r#"
            shared int X;
            fn main() {
                int a; int b;
                if (MYPROC == 0) { X = 1; }
                else {
                    a = X;
                    if (MYPROC == 1) { work(1); }
                    b = X;
                    work(a + b);
                }
            }
            "#,
        );
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
    }

    #[test]
    fn put_value_forwards_to_following_get() {
        // Own-slot write then read-back: the read becomes a local
        // re-evaluation and the put survives (others may read it later).
        let (cfg, stats) = run(r#"
            shared int A[64];
            fn main() {
                int v;
                A[MYPROC] = MYPROC * 3;
                v = A[MYPROC];
                work(v);
            }
            "#);
        assert_eq!(stats.gets_eliminated, 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 0);
        assert_eq!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })), 1);
    }

    #[test]
    fn forwarding_blocked_by_operand_redefinition() {
        let (_cfg, stats) = run(r#"
            shared int A[64];
            fn main() {
                int k; int v;
                k = 7;
                A[MYPROC] = k;
                k = 9;
                v = A[MYPROC];
                work(v + k);
            }
            "#);
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
    }

    #[test]
    fn forwarding_blocked_by_racy_location() {
        // Another processor writes the same scalar: a delay edge separates
        // the pair and forwarding must not happen.
        let (_cfg, stats) = run(r#"
            shared int X;
            fn main() {
                int v;
                X = MYPROC;
                v = X;
                work(v);
            }
            "#);
        assert_eq!(stats.gets_eliminated, 0, "{stats:?}");
    }

    #[test]
    fn forwarding_enables_write_back() {
        // put; get (forwarded); put — after forwarding, the first put has
        // no observer left and the write-back pass removes it.
        let (cfg, stats) = run(r#"
            shared int A[64];
            fn main() {
                int v;
                A[MYPROC] = 1;
                v = A[MYPROC];
                A[MYPROC] = v + 1;
            }
            "#);
        assert_eq!(stats.gets_eliminated, 1, "{stats:?}");
        assert_eq!(stats.puts_eliminated, 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })), 1);
    }

    #[test]
    fn distinct_elements_are_untouched() {
        let (_cfg, stats) = run(r#"
            shared int A[64]; flag F;
            fn main() {
                int a; int b;
                wait F;
                a = A[MYPROC];
                b = A[MYPROC + 1];
                A[MYPROC] = a;
                A[MYPROC + 32] = b;
            }
            "#);
        assert_eq!(stats.gets_eliminated, 0);
        assert_eq!(stats.puts_eliminated, 0);
    }
}
