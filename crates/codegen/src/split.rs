//! Split-phase conversion (§6, "the first step in code generation").
//!
//! `v = read X` becomes `get_ctr(v, X, c); sync_ctr(c)` and
//! `write X = e` becomes `put_ctr(X, e, c); sync_ctr(c)`. The transformation
//! is *always* legal; the later motion passes create the actual overlap.
//! Every access gets its own synchronizing counter so its completion can be
//! tracked independently (counters are merged implicitly when syncs merge).

use crate::OptStats;
use syncopt_ir::cfg::{Block, Cfg, CtrId, Instr};
use syncopt_ir::ids::{AccessId, BlockId, Position, VarId};

/// What a synchronizing counter tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CtrInfo {
    /// The access whose completion the counter observes.
    pub(crate) access: AccessId,
    /// For gets: the destination local that becomes valid at sync time.
    pub(crate) get_dst: Option<VarId>,
}

/// What each synchronizing counter tracks, indexed by counter: a source
/// CFG has no counters, so a split allocates them from 0.
pub(crate) type CtrMap = Vec<CtrInfo>;

/// Copies `source` with every blocking shared access rewritten into an
/// adjacent initiation/synchronization pair (access positions included).
/// Returns the copy and the counter→access table.
///
/// # Panics
///
/// Panics if `source` already has synchronizing counters.
pub(crate) fn split_phase(source: &Cfg, stats: &mut OptStats) -> (Cfg, CtrMap) {
    assert_eq!(source.num_ctrs, 0, "only a source CFG can be split");
    let mut accesses = source.accesses.clone();
    let mut ctr_map = CtrMap::new();
    let mut blocks = Vec::with_capacity(source.blocks.len());
    for (bi, block) in source.blocks.iter().enumerate() {
        let shared = block
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::GetShared { .. } | Instr::PutShared { .. }))
            .count();
        let mut instrs = Vec::with_capacity(block.instrs.len() + shared);
        for instr in &block.instrs {
            if let Some(access) = instr.access_id() {
                accesses.info_mut(access).pos =
                    Position::new(BlockId::from_index(bi), instrs.len());
            }
            let ctr = CtrId(ctr_map.len() as u32);
            match instr {
                Instr::GetShared { access, dst, src } => {
                    ctr_map.push(CtrInfo {
                        access: *access,
                        get_dst: Some(*dst),
                    });
                    stats.gets_split += 1;
                    instrs.push(Instr::GetInit {
                        access: *access,
                        dst: *dst,
                        src: src.clone(),
                        ctr,
                    });
                    instrs.push(Instr::SyncCtr { ctr });
                }
                Instr::PutShared { access, dst, src } => {
                    ctr_map.push(CtrInfo {
                        access: *access,
                        get_dst: None,
                    });
                    stats.puts_split += 1;
                    instrs.push(Instr::PutInit {
                        access: *access,
                        dst: dst.clone(),
                        src: src.clone(),
                        ctr,
                    });
                    instrs.push(Instr::SyncCtr { ctr });
                }
                other => instrs.push(other.clone()),
            }
        }
        blocks.push(Block {
            instrs,
            term: block.term.clone(),
        });
    }
    let cfg = Cfg {
        blocks,
        entry: source.entry,
        exit: source.exit,
        vars: source.vars.clone(),
        accesses,
        num_ctrs: ctr_map.len() as u32,
    };
    (cfg, ctr_map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn split(src: &str) -> (Cfg, CtrMap, OptStats) {
        let source = lower_main(&prepare_program(src).unwrap()).unwrap();
        let mut stats = OptStats::default();
        let (cfg, map) = split_phase(&source, &mut stats);
        (cfg, map, stats)
    }

    #[test]
    fn each_access_gets_its_own_counter() {
        let (cfg, map, stats) =
            split("shared int X; shared int Y; fn main() { int v; v = X; Y = v; Y = v + 1; }");
        assert_eq!(stats.gets_split, 1);
        assert_eq!(stats.puts_split, 2);
        assert_eq!(map.len(), 3);
        // Counters are distinct and mapped to distinct accesses.
        let mut accesses: Vec<AccessId> = map.iter().map(|i| i.access).collect();
        accesses.sort();
        accesses.dedup();
        assert_eq!(accesses.len(), 3);
        // Gets record their destination; puts do not.
        assert_eq!(map.iter().filter(|i| i.get_dst.is_some()).count(), 1);
        cfg.validate().unwrap();
    }

    #[test]
    fn sync_follows_initiation_immediately() {
        let (cfg, map, _) = split("shared int X; fn main() { int v; v = X; }");
        let entry = cfg.block(cfg.entry);
        let Instr::GetInit { ctr, access, .. } = &entry.instrs[0] else {
            panic!("expected get init first: {:?}", entry.instrs);
        };
        let Instr::SyncCtr { ctr: sctr } = &entry.instrs[1] else {
            panic!("expected sync second");
        };
        assert_eq!(ctr, sctr);
        assert_eq!(map[ctr.0 as usize].access, *access);
    }

    #[test]
    fn sync_and_local_ops_are_untouched() {
        let (cfg, _, _) = split("flag f; fn main() { int a; a = 1; work(a); barrier; post f; }");
        let kinds: Vec<&Instr> = cfg.blocks.iter().flat_map(|b| b.instrs.iter()).collect();
        assert!(kinds.iter().any(|i| matches!(i, Instr::AssignLocal { .. })));
        assert!(kinds.iter().any(|i| matches!(i, Instr::Work { .. })));
        assert!(kinds.iter().any(|i| matches!(i, Instr::Barrier { .. })));
        assert!(kinds.iter().any(|i| matches!(i, Instr::Post { .. })));
        assert!(!kinds.iter().any(|i| matches!(i, Instr::SyncCtr { .. })));
    }

    #[test]
    fn access_positions_are_refreshed() {
        let (cfg, _, _) = split("shared int X; shared int Y; fn main() { int v; v = X; Y = v; }");
        for (id, _) in cfg.accesses.iter() {
            assert!(
                cfg.instr_for_access(id).is_some(),
                "stale position for {id}"
            );
        }
    }
}
