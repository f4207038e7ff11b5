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
//!
//! Both passes find where an instruction lands by reference and move it
//! there in one rotation. Sync motion proceeds in rounds over the blocks in
//! index order, as the §6 rules are stated, but a round only visits a block
//! that changed on its last visit or received a sync since.

use crate::context::{Ctx, LoopFacts};
use crate::OptStats;
use syncopt_ir::cfg::{Cfg, CtrId, Instr};
use syncopt_ir::dataflow::local_dependence;
use syncopt_ir::ids::{AccessId, BlockId, VarId};
use syncopt_ir::order::BitSet;

/// Pushes every `sync_ctr` as far forward as its constraints allow.
pub(crate) fn move_syncs(cfg: &mut Cfg, ctx: &Ctx<'_>, loops: &LoopFacts, stats: &mut OptStats) {
    let blocks = cfg.num_blocks();
    // `(block, counter)` pairs a copy was propagated into: a second copy
    // arriving merges with the first.
    let mut received = BitSet::new(blocks * ctx.ctrs.len());
    let mut dirty = vec![true; blocks];
    let mut dirty_next = vec![false; blocks];
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds <= 4 * blocks + 64, "sync motion failed to terminate");
        let mut changed = false;
        for bi in 0..blocks {
            if !std::mem::take(&mut dirty[bi]) {
                continue;
            }
            let b = BlockId::from_index(bi);
            let mut block_changed = false;
            let mut i = 0;
            while i < cfg.blocks[bi].instrs.len() {
                let instrs = &mut cfg.blocks[bi].instrs;
                let Instr::SyncCtr { ctr } = instrs[i] else {
                    i += 1;
                    continue;
                };
                if i + 1 < instrs.len() {
                    // Follow the sync: it absorbs the copies of itself it
                    // meets and crosses what does not constrain it.
                    let mut j = i;
                    while j + 1 < instrs.len() {
                        match &instrs[j + 1] {
                            Instr::SyncCtr { ctr: c2 } if *c2 == ctr => {
                                instrs.remove(j + 1);
                                stats.syncs_merged += 1;
                            }
                            a if !sync_blocked(ctx, loops, ctr, a) => {
                                j += 1;
                                stats.sync_moves += 1;
                            }
                            _ => break,
                        }
                        block_changed = true;
                    }
                    instrs[i..=j].rotate_left(1);
                    // Blocked mid-block: on to what follows. At the end of
                    // the block: examine it there.
                    i = if j + 1 < instrs.len() { j + 1 } else { j };
                    continue;
                }
                // Sync at the end of its block: try to propagate. The exit
                // block keeps its syncs, and a sync is not pushed into a
                // loop it did not start in.
                let succs = cfg.blocks[bi].term.successors();
                let stays = b == cfg.exit
                    || succs.is_empty()
                    || succs.iter().any(|&s| loops.enters_foreign_loop(b, s));
                if stays {
                    i += 1;
                    continue;
                }
                // Loop escape (the paper's anti-"every iteration"
                // heuristic): if this block belongs to a loop none of
                // whose instructions constrain this sync, hoist the
                // sync to the loop's exit targets instead of cycling a
                // copy through the body.
                let escape_loop = loops
                    .innermost(b)
                    .filter(|&li| !loop_needs_sync(cfg, ctx, loops, li, ctr));
                cfg.blocks[bi].instrs.remove(i);
                let exits = escape_loop.map(|li| loops.exit_targets(cfg, li));
                for &t in exits.as_deref().unwrap_or(&succs) {
                    if received.contains(t.index() * ctx.ctrs.len() + ctr.0 as usize) {
                        stats.syncs_merged += 1;
                        continue;
                    }
                    received.insert(t.index() * ctx.ctrs.len() + ctr.0 as usize);
                    cfg.block_mut(t).instrs.insert(0, Instr::SyncCtr { ctr });
                    // Later in this round if its turn is still to come.
                    if t.index() > bi {
                        dirty[t.index()] = true;
                    } else {
                        dirty_next[t.index()] = true;
                    }
                }
                stats.sync_moves += 1;
                block_changed = true;
                // Re-examine index i (a new instruction shifted in).
            }
            if block_changed {
                dirty_next[bi] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        std::mem::swap(&mut dirty, &mut dirty_next);
    }
}

/// Whether any instruction inside loop `li` constrains `sync_ctr(ctr)`.
/// The counter's own initiation does not count (re-initiating an
/// iteration-injective access needs no completion of the previous
/// instance; non-injective self-overlap is caught by `shared_overlap`),
/// and other syncs don't either (they are barriers to *crossing*, not
/// consumers of this counter).
fn loop_needs_sync(cfg: &Cfg, ctx: &Ctx<'_>, loops: &LoopFacts, li: usize, ctr: CtrId) -> bool {
    loops.loops[li].blocks.iter().any(|&b| {
        cfg.block(b).instrs.iter().any(|instr| {
            if matches!(instr, Instr::SyncCtr { .. }) {
                return false;
            }
            if instr_initiates(instr, ctr) {
                // Own initiation: only a hazard when non-injective, which
                // `sync_blocked`'s shared_overlap path does not see (it
                // stops at the initiation first) — so test it explicitly.
                let u = ctx.ctrs[ctr.0 as usize].access;
                return ctx.shared_overlap(&loops.injective, u, u);
            }
            sync_blocked(ctx, loops, ctr, instr)
        })
    })
}

/// Whether `instr` is the initiation tracked by `ctr`.
fn instr_initiates(instr: &Instr, ctr: CtrId) -> bool {
    matches!(
        instr,
        Instr::GetInit { ctr: c, .. } | Instr::PutInit { ctr: c, .. } if *c == ctr
    )
}

/// Whether `instr` reads or writes the local `var`.
fn touches_local(instr: &Instr, var: VarId) -> bool {
    let mut touches = instr.def() == Some(var) || instr.array_def() == Some(var);
    instr.for_each_use(&mut |v| touches |= v == var);
    touches
}

/// Can `sync_ctr(ctr)` move past `a`?
fn sync_blocked(ctx: &Ctx<'_>, loops: &LoopFacts, ctr: CtrId, a: &Instr) -> bool {
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
    let info = ctx.ctrs[ctr.0 as usize];
    let u = info.access;
    // Delay constraint: some access in `a` must wait for `u`'s completion.
    if let Some(w) = a.access_id() {
        if ctx.delay.contains(u, w) {
            return true;
        }
        // Same-processor dependence through shared memory: the pending
        // operation and `a` may touch the same location.
        if ctx.shared_overlap(&loops.injective, u, w) {
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
    info.get_dst.is_some_and(|dst| touches_local(a, dst))
}

/// Pulls initiations backward within their blocks.
pub(crate) fn move_initiations(
    cfg: &mut Cfg,
    ctx: &Ctx<'_>,
    loops: &LoopFacts,
    stats: &mut OptStats,
) {
    for block in &mut cfg.blocks {
        for i in 1..block.instrs.len() {
            let instrs = &block.instrs;
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
            while j > 0 && !init_blocked(ctx, loops, u, instr, &instrs[j - 1]) {
                j -= 1;
            }
            block.instrs[j..=i].rotate_right(1);
            stats.init_moves += i - j;
        }
    }
}

/// Can the initiation of access `u` (instruction `instr`) move before
/// `prev`?
fn init_blocked(
    ctx: &Ctx<'_>,
    loops: &LoopFacts,
    u: AccessId,
    instr: &Instr,
    prev: &Instr,
) -> bool {
    // A sync point for an access we must wait on: either a delay edge, or
    // the pending get feeds this initiation's operands (crossing would make
    // us read the destination before it is valid).
    if let Instr::SyncCtr { ctr } = prev {
        let info = ctx.ctrs[ctr.0 as usize];
        return ctx.delay.contains(info.access, u)
            || info.get_dst.is_some_and(|dst| touches_local(instr, dst));
    }
    if let Some(w) = prev.access_id() {
        if ctx.delay.contains(w, u) {
            return true;
        }
        if ctx.shared_overlap(&loops.injective, w, u) {
            return true;
        }
    }
    // Local dataflow (operand definitions, destination clobbers).
    local_dependence(prev, instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DelayChoice;
    use syncopt_core::analyze;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::dom::Dominators;
    use syncopt_ir::loops::find_loops;
    use syncopt_ir::lower::lower_main;

    /// Runs split + sync motion + init motion with the refined delay set.
    fn run(src: &str) -> (Cfg, OptStats) {
        let cfg0 = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = analyze(&cfg0);
        crate::tests::motion_pipeline(&cfg0, &analysis, DelayChoice::SyncRefined, false)
    }

    fn entry_kinds(cfg: &Cfg) -> Vec<String> {
        cfg.block(cfg.entry)
            .instrs
            .iter()
            .map(|i| {
                let s = format!("{i:?}");
                s.split_whitespace().next().unwrap().to_string()
            })
            .collect()
    }

    #[test]
    fn sync_moves_past_independent_work() {
        // get; sync; work → get; work; ...; sync (possibly in a later
        // block: the destination is never used, so the sync can ride to
        // the exit).
        let (cfg, stats) =
            run("shared int A[64]; fn main() { int v; v = A[MYPROC + 1]; work(100); }");
        let kinds = entry_kinds(&cfg);
        let get_pos = kinds.iter().position(|k| k.contains("GetInit")).unwrap();
        let work_pos = kinds.iter().position(|k| k.contains("Work")).unwrap();
        assert!(get_pos < work_pos, "{kinds:?}");
        if let Some(sync_pos) = kinds.iter().position(|k| k.contains("SyncCtr")) {
            assert!(work_pos < sync_pos, "sync should pass work: {kinds:?}");
        } else {
            // Propagated onward; it must still exist somewhere (exit).
            let total_syncs: usize = cfg
                .blocks
                .iter()
                .flat_map(|b| b.instrs.iter())
                .filter(|i| matches!(i, Instr::SyncCtr { .. }))
                .count();
            assert_eq!(total_syncs, 1);
        }
        assert!(stats.sync_moves > 0);
    }

    #[test]
    fn sync_stops_at_use_of_get_destination() {
        let (cfg, _) = run("shared int A[64]; fn main() { int v; v = A[MYPROC + 1]; work(v); }");
        let kinds = entry_kinds(&cfg);
        let work_pos = kinds.iter().position(|k| k.contains("Work")).unwrap();
        let sync_pos = kinds.iter().position(|k| k.contains("SyncCtr")).unwrap();
        assert!(
            sync_pos < work_pos,
            "sync must complete before use: {kinds:?}"
        );
    }

    #[test]
    fn two_gets_pipeline_without_conflicts() {
        // Both initiations issue before either sync (message pipelining).
        let (cfg, _) = run(r#"
            shared int A[64]; shared int B[64];
            fn main() {
                int x; int y;
                x = A[MYPROC + 1];
                y = B[MYPROC + 1];
                work(x + y);
            }
            "#);
        let kinds = entry_kinds(&cfg);
        let inits: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.contains("GetInit"))
            .map(|(i, _)| i)
            .collect();
        let syncs: Vec<usize> = kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.contains("SyncCtr"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(inits.len(), 2);
        assert_eq!(syncs.len(), 2);
        assert!(
            inits.iter().max() < syncs.iter().min(),
            "both gets should be outstanding together: {kinds:?}"
        );
    }

    #[test]
    fn sync_stops_at_barrier() {
        let (cfg, _) = run("shared int A[64]; fn main() { A[MYPROC + 1] = 3; work(50); barrier; }");
        let kinds = entry_kinds(&cfg);
        let sync_pos = kinds.iter().position(|k| k.contains("SyncCtr")).unwrap();
        let barrier_pos = kinds.iter().position(|k| k.contains("Barrier")).unwrap();
        assert_eq!(
            sync_pos + 1,
            barrier_pos,
            "sync should park right before the barrier: {kinds:?}"
        );
    }

    #[test]
    fn sync_propagates_through_branches_and_merges() {
        // Figure 8 shape: the sync duplicates into both arms.
        let (cfg, _) = run(r#"
            shared int X; shared int Z;
            fn main() {
                int x; int y; int z;
                x = X;
                y = 2;
                if (MYPROC == 0) { y = x + 1; }
                z = 1;
                work(z);
            }
            "#);
        // The get's sync must appear before `y = x + 1` in the then-arm and
        // may float into the join/other arm as a copy.
        let all: Vec<(usize, String)> = cfg
            .block_ids()
            .flat_map(|b| {
                cfg.block(b)
                    .instrs
                    .iter()
                    .map(move |i| (b.index(), format!("{i:?}")))
            })
            .collect();
        let syncs = all.iter().filter(|(_, s)| s.contains("SyncCtr")).count();
        assert!(syncs >= 1, "{all:?}");
        // Wherever `y = x + 1` lives, a sync precedes it in that block.
        for b in cfg.block_ids() {
            let instrs = &cfg.block(b).instrs;
            if let Some(use_pos) = instrs.iter().position(|i| {
                let mut uses_x = false;
                i.for_each_use(&mut |v| {
                    uses_x |= cfg.vars.info(v).name == "%t0";
                });
                uses_x && matches!(i, Instr::AssignLocal { .. })
            }) {
                let sync_before = instrs[..use_pos]
                    .iter()
                    .any(|i| matches!(i, Instr::SyncCtr { .. }));
                assert!(sync_before, "block {b:?} uses the get result unsynced");
            }
        }
    }

    #[test]
    fn sync_does_not_enter_foreign_loop() {
        let (cfg, _) = run(r#"
            shared int A[64];
            fn main() {
                int i;
                A[MYPROC + 1] = 1;
                for (i = 0; i < 100; i = i + 1) { work(5); }
            }
            "#);
        // The put's sync must not be inside the loop body or header.
        let dom = Dominators::compute(&cfg);
        let loops = find_loops(&cfg, &dom);
        assert_eq!(loops.len(), 1);
        for b in &loops[0].blocks {
            for instr in &cfg.block(*b).instrs {
                assert!(
                    !matches!(instr, Instr::SyncCtr { .. }),
                    "sync leaked into loop block {b:?}"
                );
            }
        }
    }

    #[test]
    fn initiation_moves_before_independent_work() {
        let (cfg, stats) =
            run("shared int A[64]; fn main() { int v; work(100); v = A[MYPROC + 1]; work(v); }");
        let kinds = entry_kinds(&cfg);
        let get_pos = kinds.iter().position(|k| k.contains("GetInit")).unwrap();
        let first_work = kinds.iter().position(|k| k.contains("Work")).unwrap();
        assert!(get_pos < first_work, "get should hoist: {kinds:?}");
        assert!(stats.init_moves > 0);
    }

    #[test]
    fn initiation_stops_at_operand_definition() {
        let (cfg, _) =
            run("shared int A[64]; fn main() { int i; i = MYPROC + 1; int v; v = A[i]; }");
        let kinds = entry_kinds(&cfg);
        let assign = kinds
            .iter()
            .position(|k| k.contains("AssignLocal"))
            .unwrap();
        let get_pos = kinds.iter().position(|k| k.contains("GetInit")).unwrap();
        assert!(
            assign < get_pos,
            "get cannot pass def of its index: {kinds:?}"
        );
    }

    #[test]
    fn same_location_accesses_stay_ordered() {
        // write X then read X (same proc): the read's initiation must not
        // cross the write, and the write's sync must precede the read.
        let (cfg, _) = run("shared int X; fn main() { int v; X = 1; v = X; work(v); }");
        let kinds = entry_kinds(&cfg);
        let put = kinds.iter().position(|k| k.contains("PutInit")).unwrap();
        let put_sync = kinds.iter().position(|k| k.contains("SyncCtr")).unwrap();
        let get = kinds.iter().position(|k| k.contains("GetInit")).unwrap();
        assert!(put < get, "{kinds:?}");
        assert!(
            put_sync < get,
            "write must complete before same-location read: {kinds:?}"
        );
    }

    #[test]
    fn delay_edges_block_motion() {
        // Figure 1 producer: Write Data must complete before Write Flag.
        let (cfg, _) = run(r#"
            shared int Data; shared int Flag;
            fn main() {
                int v;
                if (MYPROC == 0) { Data = 1; Flag = 1; }
                else { v = Flag; v = Data; }
            }
            "#);
        // Find the block holding the two producer puts.
        for b in cfg.block_ids() {
            let instrs = &cfg.block(b).instrs;
            let puts: Vec<usize> = instrs
                .iter()
                .enumerate()
                .filter(|(_, i)| matches!(i, Instr::PutInit { .. }))
                .map(|(i, _)| i)
                .collect();
            if puts.len() == 2 {
                let sync_between = instrs[puts[0]..puts[1]]
                    .iter()
                    .any(|i| matches!(i, Instr::SyncCtr { .. }));
                assert!(
                    sync_between,
                    "delay (WriteData, WriteFlag) must force a sync between the puts"
                );
            }
        }
    }
}
