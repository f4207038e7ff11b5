//! Split-phase conversion (§6, "the first step in code generation").
//!
//! `v = read X` becomes `get_ctr(v, X, c); sync_ctr(c)` and
//! `write X = e` becomes `put_ctr(X, e, c); sync_ctr(c)`. The transformation
//! is *always* legal; the later motion passes create the actual overlap.
//! Every access gets its own synchronizing counter so its completion can be
//! tracked independently (counters are merged implicitly when syncs merge).

use crate::OptStats;
use std::collections::HashMap;
use syncopt_ir::cfg::{Cfg, CtrId, Instr};
use syncopt_ir::ids::AccessId;

/// What a synchronizing counter tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrInfo {
    /// The access whose completion the counter observes.
    pub access: AccessId,
    /// For gets: the destination local that becomes valid at sync time.
    pub get_dst: Option<syncopt_ir::ids::VarId>,
}

/// Maps each synchronizing counter to what it tracks.
pub type CtrMap = HashMap<CtrId, CtrInfo>;

/// Rewrites all blocking shared accesses into adjacent
/// initiation/synchronization pairs. Returns the counter→access map.
pub fn split_phase(cfg: &mut Cfg, stats: &mut OptStats) -> CtrMap {
    let mut ctr_map = CtrMap::new();
    for bi in 0..cfg.blocks.len() {
        let block = syncopt_ir::ids::BlockId::from_index(bi);
        let old = std::mem::take(&mut cfg.block_mut(block).instrs);
        let mut new = Vec::with_capacity(old.len() * 2);
        for instr in old {
            match instr {
                Instr::GetShared { access, dst, src } => {
                    let ctr = cfg.fresh_ctr();
                    ctr_map.insert(
                        ctr,
                        CtrInfo {
                            access,
                            get_dst: Some(dst),
                        },
                    );
                    stats.gets_split += 1;
                    new.push(Instr::GetInit {
                        access,
                        dst,
                        src,
                        ctr,
                    });
                    new.push(Instr::SyncCtr { ctr });
                }
                Instr::PutShared { access, dst, src } => {
                    let ctr = cfg.fresh_ctr();
                    ctr_map.insert(
                        ctr,
                        CtrInfo {
                            access,
                            get_dst: None,
                        },
                    );
                    stats.puts_split += 1;
                    new.push(Instr::PutInit {
                        access,
                        dst,
                        src,
                        ctr,
                    });
                    new.push(Instr::SyncCtr { ctr });
                }
                other => new.push(other),
            }
        }
        cfg.block_mut(block).instrs = new;
    }
    cfg.recompute_access_positions();
    ctr_map
}
