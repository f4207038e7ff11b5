//! Message pipelining: sync motion and initiation motion (§6).
//!
//! `sync_ctr` operations move *forward* — to the end of their block and then
//! into successors (duplicating per the §6 rules; copies merge when they
//! meet) — until a delay edge or a local dependence stops them. Initiations
//! (`get_ctr`/`put_ctr`/`store`) move *backward* within their block under
//! the same constraints. The distance between initiation and sync is the
//! communication overlap the simulator later converts into time.
//!
//! Heuristics from the paper: a sync is not pushed into a loop it did not
//! start in (it would run every iteration), and the exit block keeps its
//! syncs (program termination must drain the network).

use super::affine::may_equal_same_proc;
use super::split::CtrMap;
use crate::OptStats;
use std::collections::HashSet;
use syncopt_core::affine::to_affine;
use syncopt_core::DelaySet;
use syncopt_ir::access::AccessKind;
use syncopt_ir::cfg::{Cfg, CtrId, Instr};
use syncopt_ir::dataflow::local_dependence;
use syncopt_ir::dom::Dominators;
use syncopt_ir::expr::Expr;
use syncopt_ir::ids::{AccessId, BlockId};
use syncopt_ir::loops::{defined_in_loop, find_loops, induction_vars, NaturalLoop};

/// Accesses whose subscript is *injective across loop iterations*: it is
/// affine with a nonzero coefficient on a basic induction variable of the
/// containing loop, and every other variable in it is loop-invariant. Two
/// dynamic instances of such an access from different iterations touch
/// different elements, so an access may be reordered with *itself* (e.g. a
/// transpose `put` in a scatter loop).
pub fn iteration_injective_accesses(cfg: &Cfg) -> HashSet<AccessId> {
    let dom = Dominators::compute(cfg);
    let loops = find_loops(cfg, &dom);
    let ivs = induction_vars(cfg, &loops);
    let mut out = HashSet::new();
    for (id, info) in cfg.accesses.iter() {
        let Some(index) = &info.index else {
            continue;
        };
        let Some(aff) = to_affine(index) else {
            continue;
        };
        let block = info.pos.block;
        for (loop_idx, l) in loops.iter().enumerate() {
            if !l.contains(block) {
                continue;
            }
            let mut has_driver = false;
            let mut all_ok = true;
            for &(var, coeff) in &aff.coeffs {
                if coeff == 0 {
                    continue;
                }
                let iv = ivs
                    .iter()
                    .find(|iv| iv.loop_idx == loop_idx && iv.var == var);
                match iv {
                    Some(iv) if coeff.checked_mul(iv.step).is_some_and(|s| s != 0) => {
                        has_driver = true;
                    }
                    _ => {
                        if defined_in_loop(cfg, l, var) {
                            all_ok = false;
                            break;
                        }
                    }
                }
            }
            if has_driver && all_ok {
                out.insert(id);
                break;
            }
        }
    }
    out
}

/// Pushes every `sync_ctr` as far forward as its constraints allow.
pub fn move_syncs(cfg: &mut Cfg, delay: &DelaySet, ctr_map: &CtrMap, stats: &mut OptStats) {
    let dom = Dominators::compute(cfg);
    let loops = find_loops(cfg, &dom);
    let injective = iteration_injective_accesses(cfg);
    let mut propagated: HashSet<(BlockId, CtrId)> = HashSet::new();
    let mut parked: HashSet<(BlockId, CtrId)> = HashSet::new();
    let mut changed = true;
    let mut rounds = 0usize;
    while changed {
        changed = false;
        rounds += 1;
        assert!(
            rounds <= 4 * cfg.num_blocks() + 64,
            "sync motion failed to terminate"
        );
        for b in cfg.block_ids().collect::<Vec<_>>() {
            let mut i = 0;
            loop {
                let len = cfg.block(b).instrs.len();
                if i >= len {
                    break;
                }
                let Instr::SyncCtr { ctr } = cfg.block(b).instrs[i] else {
                    i += 1;
                    continue;
                };
                if i + 1 < len {
                    // Decide by reference, mutate after the borrow ends.
                    enum Step {
                        Merge,
                        Cross,
                        Stay,
                    }
                    let step = match &cfg.block(b).instrs[i + 1] {
                        Instr::SyncCtr { ctr: c2 } if *c2 == ctr => Step::Merge,
                        a if !sync_blocked(cfg, delay, ctr_map, &injective, ctr, a) => Step::Cross,
                        _ => Step::Stay,
                    };
                    match step {
                        Step::Merge => {
                            cfg.block_mut(b).instrs.remove(i + 1);
                            stats.syncs_merged += 1;
                            changed = true;
                        }
                        Step::Cross => {
                            cfg.block_mut(b).instrs.swap(i, i + 1);
                            stats.sync_moves += 1;
                            changed = true;
                            i += 1;
                        }
                        Step::Stay => i += 1,
                    }
                } else {
                    // Sync at the end of its block: try to propagate.
                    if b == cfg.exit || parked.contains(&(b, ctr)) {
                        i += 1;
                        continue;
                    }
                    let succs = cfg.successors(b);
                    if succs.is_empty() {
                        i += 1;
                        continue;
                    }
                    if succs.iter().any(|&s| enters_foreign_loop(&loops, b, s)) {
                        parked.insert((b, ctr));
                        i += 1;
                        continue;
                    }
                    // Loop escape (the paper's anti-"every iteration"
                    // heuristic): if this block belongs to a loop none of
                    // whose instructions constrain this sync, hoist the
                    // sync to the loop's exit targets instead of cycling a
                    // copy through the body.
                    let escape_loop = innermost_loop(&loops, b).filter(|&li| {
                        !loop_needs_sync(cfg, delay, ctr_map, &injective, &loops[li], ctr)
                    });
                    cfg.block_mut(b).instrs.remove(i);
                    if let Some(li) = escape_loop {
                        for t in loop_exit_targets(cfg, &loops[li]) {
                            if propagated.insert((t, ctr)) {
                                cfg.block_mut(t).instrs.insert(0, Instr::SyncCtr { ctr });
                            } else {
                                stats.syncs_merged += 1;
                            }
                        }
                    } else {
                        for s in succs {
                            if propagated.insert((s, ctr)) {
                                cfg.block_mut(s).instrs.insert(0, Instr::SyncCtr { ctr });
                            } else {
                                stats.syncs_merged += 1;
                            }
                        }
                    }
                    stats.sync_moves += 1;
                    changed = true;
                    // Re-examine index i (a new instruction shifted in).
                }
            }
        }
    }
}

/// Whether jumping `from → to` enters a loop that `from` is not part of.
fn enters_foreign_loop(loops: &[NaturalLoop], from: BlockId, to: BlockId) -> bool {
    loops
        .iter()
        .any(|l| l.header == to && l.contains(to) && !l.contains(from))
}

/// Index of the innermost (fewest-blocks) loop containing `b`.
fn innermost_loop(loops: &[NaturalLoop], b: BlockId) -> Option<usize> {
    loops
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains(b))
        .min_by_key(|(_, l)| l.blocks.len())
        .map(|(i, _)| i)
}

/// Whether any instruction inside the loop constrains `sync_ctr(ctr)`.
/// The counter's own initiation does not count (re-initiating an
/// iteration-injective access needs no completion of the previous
/// instance; non-injective self-overlap is caught by `shared_overlap`),
/// and other syncs don't either (they are barriers to *crossing*, not
/// consumers of this counter).
fn loop_needs_sync(
    cfg: &Cfg,
    delay: &DelaySet,
    ctr_map: &CtrMap,
    injective: &HashSet<AccessId>,
    l: &NaturalLoop,
    ctr: CtrId,
) -> bool {
    for &b in &l.blocks {
        for instr in &cfg.block(b).instrs {
            if matches!(instr, Instr::SyncCtr { .. }) {
                continue;
            }
            if instr_initiates(instr, ctr) {
                // Own initiation: only a hazard when non-injective, which
                // `sync_blocked`'s shared_overlap path reports below via
                // the self check — so test it explicitly here.
                let u = ctr_map[&ctr].access;
                if shared_overlap(cfg, injective, u, u) {
                    return true;
                }
                continue;
            }
            if sync_blocked(cfg, delay, ctr_map, injective, ctr, instr) {
                return true;
            }
        }
    }
    false
}

/// Whether `instr` is the initiation tracked by `ctr`.
fn instr_initiates(instr: &Instr, ctr: CtrId) -> bool {
    matches!(
        instr,
        Instr::GetInit { ctr: c, .. } | Instr::PutInit { ctr: c, .. } if *c == ctr
    )
}

/// Blocks outside loop `l` that are targets of an edge leaving `l`.
fn loop_exit_targets(cfg: &Cfg, l: &NaturalLoop) -> Vec<BlockId> {
    let mut out = Vec::new();
    for &b in &l.blocks {
        for s in cfg.successors(b) {
            if !l.contains(s) && !out.contains(&s) {
                out.push(s);
            }
        }
    }
    out
}

/// Can `sync_ctr(ctr)` move past `a`?
fn sync_blocked(
    cfg: &Cfg,
    delay: &DelaySet,
    ctr_map: &CtrMap,
    injective: &HashSet<AccessId>,
    ctr: CtrId,
    a: &Instr,
) -> bool {
    // Syncs never cross each other: it buys nothing and two adjacent syncs
    // would otherwise swap forever.
    if matches!(a, Instr::SyncCtr { .. }) {
        return true;
    }
    // A sync never crosses its own initiation (it must stay downstream of
    // the operation it completes).
    if instr_initiates(a, ctr) {
        return true;
    }
    let info = ctr_map[&ctr];
    let u = info.access;
    // Delay constraint: some access in `a` must wait for `u`'s completion.
    if let Some(w) = a.access_id() {
        if delay.contains(u, w) {
            return true;
        }
        // Same-processor dependence through shared memory: the pending
        // operation and `a` may touch the same location.
        if shared_overlap(cfg, injective, u, w) {
            return true;
        }
    }
    // Barriers are hard stops: they are the landing pads for one-way
    // conversion and phase boundaries for everything else.
    if matches!(a, Instr::Barrier { .. }) {
        return true;
    }
    // Local def-use: for a pending get, its destination must not be read or
    // overwritten before the sync.
    if let Some(dst) = info.get_dst {
        let mut uses_dst = false;
        a.for_each_use(&mut |v| uses_dst |= v == dst);
        if uses_dst || a.def() == Some(dst) || a.array_def() == Some(dst) {
            return true;
        }
    }
    false
}

/// Conservative same-processor aliasing between two shared accesses: same
/// variable, at least one write, and indices not provably distinct on one
/// processor. Index comparison is only trusted for `MYPROC`/constant
/// expressions (locals could be redefined between the two points).
fn shared_overlap(cfg: &Cfg, injective: &HashSet<AccessId>, u: AccessId, w: AccessId) -> bool {
    // An iteration-injective access never collides with its own other
    // instances.
    if u == w && injective.contains(&u) {
        return false;
    }
    let (ui, wi) = (cfg.accesses.info(u), cfg.accesses.info(w));
    if !ui.kind.is_data() || !wi.kind.is_data() {
        return false;
    }
    if ui.var != wi.var {
        return false;
    }
    if ui.kind == AccessKind::Read && wi.kind == AccessKind::Read {
        return false;
    }
    match (&ui.index, &wi.index) {
        (None, None) => true,
        (Some(e1), Some(e2)) if stable_index(e1) && stable_index(e2) => {
            may_equal_same_proc(Some(e1), Some(e2))
        }
        _ => true,
    }
}

/// An index expression whose value cannot change between program points:
/// built only from constants and `MYPROC`/`PROCS`.
fn stable_index(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::MyProc | Expr::Procs => true,
        Expr::Local(_) | Expr::LocalElem { .. } => false,
        Expr::Unary { expr, .. } => stable_index(expr),
        Expr::Binary { lhs, rhs, .. } => stable_index(lhs) && stable_index(rhs),
    }
}

/// Pulls initiations backward within their blocks.
pub fn move_initiations(cfg: &mut Cfg, delay: &DelaySet, ctr_map: &CtrMap, stats: &mut OptStats) {
    let injective = iteration_injective_accesses(cfg);
    for b in cfg.block_ids().collect::<Vec<_>>() {
        for i in 1..cfg.block(b).instrs.len() {
            let instrs = &cfg.block(b).instrs;
            let instr = &instrs[i];
            if !matches!(
                instr,
                Instr::GetInit { .. } | Instr::PutInit { .. } | Instr::StoreInit { .. }
            ) {
                continue;
            }
            let u = instr.access_id().expect("initiations carry access ids");
            // Find where it lands by reference, then move it there in one
            // rotation (the instructions it passes keep their order).
            let mut j = i;
            while j > 0 && !init_blocked(cfg, delay, ctr_map, &injective, u, instr, &instrs[j - 1])
            {
                j -= 1;
            }
            cfg.block_mut(b).instrs[j..=i].rotate_right(1);
            stats.init_moves += i - j;
        }
    }
    cfg.recompute_access_positions();
}

/// Can the initiation of access `u` (instruction `instr`) move before
/// `prev`?
fn init_blocked(
    cfg: &Cfg,
    delay: &DelaySet,
    ctr_map: &CtrMap,
    injective: &HashSet<AccessId>,
    u: AccessId,
    instr: &Instr,
    prev: &Instr,
) -> bool {
    // A sync point for an access we must wait on: either a delay edge, or
    // the pending get feeds this initiation's operands (crossing would make
    // us read the destination before it is valid).
    if let Instr::SyncCtr { ctr } = prev {
        let info = ctr_map[ctr];
        if delay.contains(info.access, u) {
            return true;
        }
        if let Some(dst) = info.get_dst {
            let mut touches = false;
            instr.for_each_use(&mut |v| touches |= v == dst);
            if touches || instr.def() == Some(dst) || instr.array_def() == Some(dst) {
                return true;
            }
        }
        return false;
    }
    if let Some(w) = prev.access_id() {
        if delay.contains(w, u) {
            return true;
        }
        if shared_overlap(cfg, injective, w, u) {
            return true;
        }
    }
    // Local dataflow (operand definitions, destination clobbers).
    local_dependence(prev, instr)
}
