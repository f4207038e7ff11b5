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
//! Both run on the freshly split CFG (initiation and `sync_ctr` still
//! adjacent) and work within basic blocks; the value-correctness conditions
//! additionally require that no same-processor operation touches the
//! location in between and that the operands involved are not redefined.

use super::affine::{may_equal_same_proc, provably_equal_same_proc};
use crate::OptStats;
use syncopt_core::{Analysis, DelaySet};
use syncopt_ir::cfg::{Cfg, CtrId, Instr};
use syncopt_ir::expr::{Expr, SharedRef};
use syncopt_ir::ids::{BlockId, VarId};

/// Replaces redundant `get`s with local copies.
pub fn eliminate_redundant_gets(
    cfg: &mut Cfg,
    delay: &DelaySet,
    _analysis: &Analysis,
    stats: &mut OptStats,
) {
    for b in cfg.block_ids().collect::<Vec<_>>() {
        let mut j = 0;
        while j < cfg.block(b).instrs.len() {
            if let Some((dst2, dst1, ctr2)) = reusable_get(cfg, delay, b, j) {
                // Replace the get with a local copy and drop its adjacent
                // sync (split-phase layout guarantees adjacency here).
                cfg.block_mut(b).instrs[j] = Instr::AssignLocal {
                    dst: dst2,
                    value: Expr::Local(dst1),
                };
                remove_adjacent_sync(cfg, b, j + 1, ctr2);
                stats.gets_eliminated += 1;
            }
            j += 1;
        }
    }
    cfg.recompute_access_positions();
}

/// If the instruction at `j` is a get whose value an earlier get of the
/// same block still holds: `(its destination, the earlier destination,
/// its counter)`. Decided by reference — nothing is cloned to look.
fn reusable_get(
    cfg: &Cfg,
    delay: &DelaySet,
    b: BlockId,
    j: usize,
) -> Option<(VarId, VarId, CtrId)> {
    let instrs = &cfg.block(b).instrs;
    let Instr::GetInit {
        access: g2_access,
        dst: dst2,
        src: ref2,
        ctr: ctr2,
    } = &instrs[j]
    else {
        return None;
    };
    // Scan backward for a matching earlier get.
    for i in (0..j).rev() {
        let Instr::GetInit {
            access: g1_access,
            dst: dst1,
            src: ref1,
            ..
        } = &instrs[i]
        else {
            continue;
        };
        if ref1.var != ref2.var
            || !provably_equal_same_proc(ref1.index.as_ref(), ref2.index.as_ref())
        {
            continue;
        }
        // No delay edge between the two gets (§7's condition), and the
        // cached value must still be good.
        if delay.contains(*g1_access, *g2_access)
            || overwrites_own_subscript(*dst1, ref1)
            || region_invalidates(&instrs[i + 1..j], ref1, *dst1)
        {
            return None;
        }
        return Some((*dst2, *dst1, *ctr2));
    }
    None
}

/// Removes the `sync_ctr` on `ctr` at `at`, if that is what sits there.
fn remove_adjacent_sync(cfg: &mut Cfg, b: BlockId, at: usize, ctr: CtrId) {
    if matches!(
        cfg.block(b).instrs.get(at),
        Some(Instr::SyncCtr { ctr: c }) if *c == ctr
    ) {
        cfg.block_mut(b).instrs.remove(at);
    }
}

/// Cross-block redundant-get reuse: a get in a block *dominated* by an
/// earlier matching get is replaced by a local copy, provided no block on
/// any path between them (nor the end of the first block, nor the prefix
/// of the second) can invalidate the cached value, and no delay edge
/// separates the pair.
pub fn eliminate_redundant_gets_cross_block(cfg: &mut Cfg, delay: &DelaySet, stats: &mut OptStats) {
    use syncopt_ir::dom::Dominators;
    use syncopt_ir::order::block_reachability;
    let dom = Dominators::compute(cfg);
    let reach = block_reachability(cfg);

    // Collect all gets up front (positions are fresh post-split).
    let gets: Vec<(BlockId, usize, Instr)> = cfg
        .block_ids()
        .flat_map(|b| {
            cfg.block(b)
                .instrs
                .iter()
                .enumerate()
                .filter(|(_, i)| matches!(i, Instr::GetInit { .. }))
                .map(move |(idx, i)| (b, idx, i.clone()))
                .collect::<Vec<_>>()
        })
        .collect();

    for (b2, _, g2_snapshot) in &gets {
        let Instr::GetInit {
            access: g2_access,
            src: ref2,
            ..
        } = g2_snapshot
        else {
            unreachable!()
        };
        // Re-locate g2 (earlier replacements shift indices).
        let Some(j) = cfg
            .block(*b2)
            .instrs
            .iter()
            .position(|i| i.access_id() == Some(*g2_access))
        else {
            continue; // already replaced
        };
        let mut replacement: Option<(VarId, VarId, CtrId)> = None;
        'g1: for (b1, _, g1_snapshot) in &gets {
            let Instr::GetInit {
                access: g1_access,
                dst: dst1,
                src: ref1,
                ..
            } = g1_snapshot
            else {
                unreachable!()
            };
            if g1_access == g2_access || b1 == b2 {
                continue; // same-block handled by the intra-block pass
            }
            let Some(i) = cfg
                .block(*b1)
                .instrs
                .iter()
                .position(|x| x.access_id() == Some(*g1_access))
            else {
                continue;
            };
            if ref1.var != ref2.var
                || !provably_equal_same_proc(ref1.index.as_ref(), ref2.index.as_ref())
            {
                continue;
            }
            // Availability: g1 dominates g2.
            let p1 = syncopt_ir::ids::Position::new(*b1, i);
            let p2 = syncopt_ir::ids::Position::new(*b2, j);
            if !dom.pos_dominates(p1, p2) {
                continue;
            }
            if delay.contains(*g1_access, *g2_access) {
                continue;
            }
            // Invalidation scan: suffix of b1, prefix of b2, and every
            // block on some path b1 → X → b2 (includes loop bodies that
            // could re-enter b2).
            if overwrites_own_subscript(*dst1, ref1)
                || region_invalidates(&cfg.block(*b1).instrs[i + 1..], ref1, *dst1)
                || region_invalidates(&cfg.block(*b2).instrs[..j], ref1, *dst1)
            {
                continue;
            }
            // Note: b1 and b2 themselves are NOT skipped here — if either
            // lies on a cycle (b1 → ... → b2 can pass through them again),
            // their full bodies are on a path and must be clean too.
            for x in cfg.block_ids() {
                if reach.get(b1.index(), x.index())
                    && reach.get(x.index(), b2.index())
                    && region_invalidates(&cfg.block(x).instrs, ref1, *dst1)
                {
                    continue 'g1;
                }
            }
            let Instr::GetInit { dst: dst2, ctr, .. } = &cfg.block(*b2).instrs[j] else {
                unreachable!()
            };
            replacement = Some((*dst2, *dst1, *ctr));
            break;
        }
        if let Some((dst2, dst1, ctr)) = replacement {
            cfg.block_mut(*b2).instrs[j] = Instr::AssignLocal {
                dst: dst2,
                value: Expr::Local(dst1),
            };
            remove_adjacent_sync(cfg, *b2, j + 1, ctr);
            stats.gets_eliminated += 1;
        }
    }
    cfg.recompute_access_positions();
}

/// Whether the get into `dst` of `loc` redefines an operand of its own
/// subscript (`i = A[i]`), so its value serves no later get of it.
fn overwrites_own_subscript(dst: VarId, loc: &SharedRef) -> bool {
    loc.index.as_ref().is_some_and(|e| e.uses_var(dst))
}

/// Whether any instruction in `instrs` invalidates a cached read of `loc`
/// held in `dst1`: a same-processor aliasing write, a redefinition of the
/// cached local, or a redefinition of an index variable.
fn region_invalidates(instrs: &[Instr], loc: &SharedRef, dst1: VarId) -> bool {
    let index_vars: Vec<VarId> = loc
        .index
        .as_ref()
        .map(|e| e.vars_used())
        .unwrap_or_default();
    for instr in instrs {
        if let Some(d) = instr.def().or(instr.array_def()) {
            if d == dst1 || index_vars.contains(&d) {
                return true;
            }
        }
        match instr {
            Instr::PutShared { dst, .. }
            | Instr::PutInit { dst, .. }
            | Instr::StoreInit { dst, .. }
                if dst.var == loc.var
                    && may_equal_same_proc(dst.index.as_ref(), loc.index.as_ref()) =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Forwards the value of a preceding `put` to a `get` of the same
/// location on the same processor (Figure 11 "value propagation").
///
/// `put X = e; ...; get(d, X)` becomes `put X = e; ...; d = e`, provided
/// the location provably matches, no variable of `e` (or of the index) is
/// redefined in between, no other same-location operation intervenes, and
/// no delay edge separates the pair.
pub fn forward_put_values(cfg: &mut Cfg, delay: &DelaySet, stats: &mut OptStats) {
    for b in cfg.block_ids().collect::<Vec<_>>() {
        let mut j = 0;
        while j < cfg.block(b).instrs.len() {
            if let Some((dst, value, ctr)) = forwardable_get(cfg, delay, b, j) {
                cfg.block_mut(b).instrs[j] = Instr::AssignLocal { dst, value };
                remove_adjacent_sync(cfg, b, j + 1, ctr);
                stats.gets_eliminated += 1;
            }
            j += 1;
        }
    }
    cfg.recompute_access_positions();
}

/// If the instruction at `j` is a get of a location an earlier put of the
/// same block wrote and nothing disturbed since: `(its destination, the
/// written value, its counter)`. The scan reads the block by reference;
/// only the one value that is kept gets cloned.
fn forwardable_get(
    cfg: &Cfg,
    delay: &DelaySet,
    b: BlockId,
    j: usize,
) -> Option<(VarId, Expr, CtrId)> {
    let instrs = &cfg.block(b).instrs;
    let Instr::GetInit {
        access: g_access,
        dst,
        src: loc,
        ctr,
    } = &instrs[j]
    else {
        return None;
    };
    for i in (0..j).rev() {
        let (p_access, p_dst, p_src) = match &instrs[i] {
            Instr::PutInit {
                access, dst, src, ..
            }
            | Instr::StoreInit { access, dst, src } => (*access, dst, src),
            _ => continue,
        };
        if p_dst.var != loc.var
            || !provably_equal_same_proc(p_dst.index.as_ref(), loc.index.as_ref())
        {
            // A possibly-aliasing write we cannot prove equal kills the
            // window.
            if p_dst.var == loc.var && may_equal_same_proc(p_dst.index.as_ref(), loc.index.as_ref())
            {
                return None;
            }
            continue;
        }
        if delay.contains(p_access, *g_access)
            || forwarding_invalidated(&instrs[i + 1..j], loc, p_src)
        {
            return None;
        }
        return Some((*dst, p_src.clone(), *ctr));
    }
    None
}

/// Is the forwarded `value` stale or unavailable after the instructions
/// `between` the put and the get?
fn forwarding_invalidated(between: &[Instr], loc: &SharedRef, value: &Expr) -> bool {
    let mut watched: Vec<VarId> = value.vars_used();
    if let Some(idx) = &loc.index {
        for v in idx.vars_used() {
            if !watched.contains(&v) {
                watched.push(v);
            }
        }
    }
    for instr in between {
        if let Some(d) = instr.def().or(instr.array_def()) {
            if watched.contains(&d) {
                return true;
            }
        }
        match instr {
            Instr::PutShared { dst, .. }
            | Instr::PutInit { dst, .. }
            | Instr::StoreInit { dst, .. }
                if dst.var == loc.var
                    && may_equal_same_proc(dst.index.as_ref(), loc.index.as_ref()) =>
            {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Drops `put`s whose value is overwritten before it can be observed.
pub fn eliminate_overwritten_puts(cfg: &mut Cfg, delay: &DelaySet, stats: &mut OptStats) {
    for b in cfg.block_ids().collect::<Vec<_>>() {
        let mut i = 0;
        while i < cfg.block(b).instrs.len() {
            if let Some(ctr1) = overwritten_put(cfg, delay, b, i) {
                // Remove put1 and its adjacent sync.
                remove_adjacent_sync(cfg, b, i + 1, ctr1);
                cfg.block_mut(b).instrs.remove(i);
                stats.puts_eliminated += 1;
                // Do not advance: a new instruction sits at `i`.
            } else {
                i += 1;
            }
        }
    }
    cfg.recompute_access_positions();
}

/// If the instruction at `i` is a put that a later put of the same block
/// overwrites before anything can observe it: its counter.
fn overwritten_put(cfg: &Cfg, delay: &DelaySet, b: BlockId, i: usize) -> Option<CtrId> {
    let instrs = &cfg.block(b).instrs;
    let Instr::PutInit {
        access: p1_access,
        dst: ref1,
        ctr: ctr1,
        ..
    } = &instrs[i]
    else {
        return None;
    };
    let index_vars: Vec<VarId> = ref1
        .index
        .as_ref()
        .map(|e| e.vars_used())
        .unwrap_or_default();
    // Scan forward for an overwriting put.
    for instr in &instrs[i + 1..] {
        // Index-variable redefinition ends the comparison window.
        if let Some(d) = instr.def().or(instr.array_def()) {
            if index_vars.contains(&d) {
                return None;
            }
        }
        match instr {
            Instr::PutInit {
                access: p2_access,
                dst: ref2,
                ..
            }
            | Instr::StoreInit {
                access: p2_access,
                dst: ref2,
                ..
            } => {
                if ref2.var == ref1.var
                    && provably_equal_same_proc(ref2.index.as_ref(), ref1.index.as_ref())
                    && !delay.contains(*p1_access, *p2_access)
                {
                    return Some(*ctr1);
                }
                // A conflicting same-location operation we cannot prove
                // equal: stop.
                if ref2.var == ref1.var
                    && may_equal_same_proc(ref2.index.as_ref(), ref1.index.as_ref())
                {
                    return None;
                }
            }
            // A same-processor read of the location observes put1: it must
            // stay.
            Instr::GetShared { src, .. } | Instr::GetInit { src, .. }
                if src.var == ref1.var
                    && may_equal_same_proc(src.index.as_ref(), ref1.index.as_ref()) =>
            {
                return None;
            }
            _ => {}
        }
    }
    None
}
