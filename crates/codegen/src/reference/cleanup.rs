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

use super::liveness::{is_dead_assignment, Liveness};
use crate::OptStats;
use std::collections::HashSet;
use syncopt_ir::cfg::{Cfg, CtrId, Instr};

/// Counter for removed dead instructions (reported via [`OptStats`]).
pub fn remove_dead_code(cfg: &mut Cfg, stats: &mut OptStats) {
    // Constant folding first: it exposes dead values (e.g. `v * 0`).
    stats.exprs_folded += syncopt_ir::fold::fold_cfg(cfg);
    let mut changed = true;
    while changed {
        changed = false;
        let live = Liveness::compute(cfg);

        // Pass 1: dead local assignments.
        for b in cfg.block_ids().collect::<Vec<_>>() {
            let mut idx = 0;
            while idx < cfg.block(b).instrs.len() {
                if is_dead_assignment(cfg, &live, b, idx) {
                    cfg.block_mut(b).instrs.remove(idx);
                    stats.dead_locals_removed += 1;
                    changed = true;
                } else {
                    idx += 1;
                }
            }
        }

        // Pass 2: dead gets (destination never read).
        let live = Liveness::compute(cfg);
        let mut dead_ctrs: HashSet<CtrId> = HashSet::new();
        for b in cfg.block_ids().collect::<Vec<_>>() {
            let mut idx = 0;
            while idx < cfg.block(b).instrs.len() {
                let kill = match &cfg.block(b).instrs[idx] {
                    Instr::GetInit { dst, ctr, .. } if !live.live_after(cfg, b, idx, *dst) => {
                        dead_ctrs.insert(*ctr);
                        true
                    }
                    Instr::GetShared { dst, .. } => !live.live_after(cfg, b, idx, *dst),
                    _ => false,
                };
                if kill {
                    cfg.block_mut(b).instrs.remove(idx);
                    stats.dead_gets_removed += 1;
                    changed = true;
                } else {
                    idx += 1;
                }
            }
        }
        // Drop the syncs of fully-dead counters.
        if !dead_ctrs.is_empty() {
            for b in cfg.block_ids().collect::<Vec<_>>() {
                cfg.block_mut(b)
                    .instrs
                    .retain(|i| !matches!(i, Instr::SyncCtr { ctr } if dead_ctrs.contains(ctr)));
            }
        }
    }
    cfg.recompute_access_positions();
}
