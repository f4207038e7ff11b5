//! Two-way → one-way communication conversion (§6).
//!
//! A `put` carries an acknowledgement so `sync_ctr` can observe its
//! completion. When every `sync_ctr` copy for a put has propagated to a
//! global barrier, the acknowledgement is pure overhead: the barrier's
//! network quiescence already guarantees delivery. Such puts become
//! `store`s — one-way writes with no ack traffic — and their syncs vanish.

use super::split::CtrMap;
use crate::OptStats;
use syncopt_ir::cfg::{Cfg, CtrId, Instr};

/// Converts every eligible `put_ctr` into a `store` and removes its syncs.
pub fn convert_one_way(cfg: &mut Cfg, ctr_map: &CtrMap, stats: &mut OptStats) {
    // Gather sync positions per counter and check the barrier-adjacency
    // condition.
    let mut eligible: Vec<CtrId> = Vec::new();
    for (&ctr, _) in ctr_map.iter() {
        let mut sync_count = 0usize;
        let mut all_at_barrier = true;
        let mut is_put = false;
        for b in cfg.block_ids() {
            let instrs = &cfg.block(b).instrs;
            for (i, instr) in instrs.iter().enumerate() {
                match instr {
                    Instr::SyncCtr { ctr: c } if *c == ctr => {
                        sync_count += 1;
                        let next_is_barrier =
                            matches!(instrs.get(i + 1), Some(Instr::Barrier { .. }));
                        all_at_barrier &= next_is_barrier;
                    }
                    Instr::PutInit { ctr: c, .. } if *c == ctr => {
                        is_put = true;
                    }
                    _ => {}
                }
            }
        }
        if is_put && sync_count > 0 && all_at_barrier {
            eligible.push(ctr);
        }
    }

    for ctr in eligible {
        for bi in 0..cfg.blocks.len() {
            let b = syncopt_ir::ids::BlockId::from_index(bi);
            let instrs = &mut cfg.block_mut(b).instrs;
            let mut i = 0;
            while i < instrs.len() {
                match &instrs[i] {
                    Instr::SyncCtr { ctr: c } if *c == ctr => {
                        instrs.remove(i);
                    }
                    Instr::PutInit {
                        access,
                        dst,
                        src,
                        ctr: c,
                    } if *c == ctr => {
                        instrs[i] = Instr::StoreInit {
                            access: *access,
                            dst: dst.clone(),
                            src: src.clone(),
                        };
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
        }
        stats.puts_to_stores += 1;
    }
    cfg.recompute_access_positions();
}
