//! Post-elimination cleanup: dead local assignments and **dead
//! communication**.
//!
//! The elimination passes (§7) leave residue: a forwarded or reused get
//! becomes a local copy whose value may never be read, and lowering's
//! compiler temporaries can end up unused. Beyond tidiness, the
//! interesting case is a split `get` whose destination is dead — that is a
//! whole remote round trip with no observer, so the initiation *and* every
//! sync copy of its counter disappear (reads have no side effects, and a
//! counter with no outstanding operations makes its `sync_ctr`s no-ops).

use crate::context::steps;
use crate::OptStats;
use syncopt_ir::cfg::{Cfg, Instr, Terminator};
use syncopt_ir::ids::{BlockId, Position};
use syncopt_ir::liveness::{is_dead_store, step_back, Liveness};
use syncopt_ir::order::BitSet;

fn branches(cfg: &Cfg) -> usize {
    cfg.blocks
        .iter()
        .filter(|b| matches!(b.term, Terminator::Branch { .. }))
        .count()
}

/// Folds constants, then removes dead assignments and dead gets (with the
/// syncs of their counters) to a fixpoint. Returns whether folding turned a
/// branch into a jump — the one way code generation changes a CFG edge.
pub(crate) fn remove_dead_code(cfg: &mut Cfg, stats: &mut OptStats) -> bool {
    // Constant folding first: it exposes dead values (e.g. `v * 0`).
    let branches_before = branches(cfg);
    stats.exprs_folded += syncopt_ir::fold::fold_cfg(cfg);
    let edges_changed = branches(cfg) != branches_before;
    // A get deleted below keeps the position it has now.
    for (bi, block) in cfg.blocks.iter().enumerate() {
        for (i, instr) in block.instrs.iter().enumerate() {
            if let Instr::GetInit { access, .. } = instr {
                cfg.accesses.info_mut(*access).pos = Position::new(BlockId::from_index(bi), i);
            }
        }
    }

    let mut live = BitSet::new(cfg.vars.len());
    let mut dead_ctrs = vec![false; cfg.num_ctrs as usize];
    loop {
        steps::count(|s| s.cleanup_rounds += 1);
        let solved = Liveness::compute(cfg);
        steps::count(|s| {
            s.liveness_solves += 1;
            s.liveness_visits += solved.work().instr_visits + solved.work().block_visits;
        });
        let (mut changed, mut any_dead_ctr) = (false, false);
        // One backward walk per block carries the live set. A deleted
        // instruction's operands are not added to it, so what only fed dead
        // code dies in the same walk.
        for bi in 0..cfg.blocks.len() {
            solved.at_block_end(cfg, BlockId::from_index(bi), &mut live);
            let instrs = &mut cfg.blocks[bi].instrs;
            steps::count(|s| s.liveness_visits += instrs.len() as u64);
            let mut kept_from = instrs.len();
            for i in (0..instrs.len()).rev() {
                if is_dead_store(&instrs[i], &live) {
                    match &instrs[i] {
                        Instr::AssignLocal { .. } => stats.dead_locals_removed += 1,
                        // Dead communication: the initiation goes, and with
                        // it every sync of its counter (a counter with no
                        // outstanding operation makes them no-ops).
                        Instr::GetInit { ctr, .. } => {
                            dead_ctrs[ctr.0 as usize] = true;
                            any_dead_ctr = true;
                            stats.dead_gets_removed += 1;
                        }
                        _ => stats.dead_gets_removed += 1,
                    }
                    continue;
                }
                step_back(&instrs[i], &mut live);
                kept_from -= 1;
                if kept_from != i {
                    instrs.swap(kept_from, i);
                }
            }
            if kept_from > 0 {
                instrs.drain(..kept_from);
                changed = true;
            }
        }
        if any_dead_ctr {
            for block in &mut cfg.blocks {
                block
                    .instrs
                    .retain(|i| !matches!(i, Instr::SyncCtr { ctr } if dead_ctrs[ctr.0 as usize]));
            }
        }
        if !changed {
            return edges_changed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elim::Sweeps;
    use crate::split::split_phase;
    use crate::DelayChoice;
    use syncopt_core::analyze_for;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn run(src: &str) -> (Cfg, OptStats) {
        let cfg0 = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = analyze_for(&cfg0, 4);
        let mut stats = OptStats::default();
        let (mut cfg, ctrs) = split_phase(&cfg0, &mut stats);
        let ctx = crate::context_for(&cfg0, &analysis, DelayChoice::SyncRefined, ctrs);
        let mut sweeps = Sweeps::new(&ctx, cfg.vars.len());
        sweeps.reuse_gets(&mut cfg, &mut stats);
        sweeps.forward_put_values(&mut cfg, &mut stats);
        remove_dead_code(&mut cfg, &mut stats);
        (cfg, stats)
    }

    fn count(cfg: &Cfg, pred: impl Fn(&Instr) -> bool) -> usize {
        cfg.blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn dead_local_chain_is_removed() {
        let (cfg, stats) = run("fn main() { int a; int b; a = 3; b = a + 1; work(7); }");
        assert!(stats.dead_locals_removed >= 2, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::AssignLocal { .. })), 0);
    }

    #[test]
    fn unused_remote_get_disappears_entirely() {
        // The value is fetched and never used: no message should remain.
        let (cfg, stats) = run(
            "shared int A[64]; flag F; fn main() { wait F; int v; v = A[MYPROC + 1]; work(5); }",
        );
        assert_eq!(stats.dead_gets_removed, 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 0);
        assert_eq!(count(&cfg, |i| matches!(i, Instr::SyncCtr { .. })), 0);
    }

    #[test]
    fn used_gets_survive() {
        let (cfg, stats) = run(
            "shared int A[64]; flag F; fn main() { wait F; int v; v = A[MYPROC + 1]; work(v); }",
        );
        assert_eq!(stats.dead_gets_removed, 0, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 1);
        assert_eq!(count(&cfg, |i| matches!(i, Instr::SyncCtr { .. })), 1);
    }

    #[test]
    fn forwarding_residue_is_cleaned() {
        // After forwarding, the local copy feeding nothing is removed and
        // so is the copy chain behind it.
        let (cfg, stats) = run(r#"
            shared int A[64];
            fn main() {
                int v;
                A[MYPROC] = 5;
                v = A[MYPROC];
            }
            "#);
        // v = A[MYPROC] forwarded to v = 5, then removed as dead.
        assert_eq!(stats.gets_eliminated, 1);
        assert!(stats.dead_locals_removed >= 1, "{stats:?}");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::GetInit { .. })), 0);
        // The put survives (it is observable).
        assert_eq!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })), 1);
    }

    #[test]
    fn puts_are_never_touched_by_dce() {
        let (cfg, _) = run("shared int A[64]; fn main() { A[MYPROC + 1] = 9; }");
        assert_eq!(count(&cfg, |i| matches!(i, Instr::PutInit { .. })), 1);
    }
}
