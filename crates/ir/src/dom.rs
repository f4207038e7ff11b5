//! Dominator and postdominator trees (Cooper–Harvey–Kennedy).
//!
//! The synchronization analysis of §5 consumes dominance at *access*
//! granularity: access `a` dominates access `b` iff every path from entry to
//! `b`'s instruction passes through `a`'s instruction. At block granularity
//! that is block-dominance; within one block it is instruction order.

use crate::cfg::Cfg;
use crate::ids::{BlockId, Position};

/// Block-level dominator information.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Immediate dominator of each block (`None` for the root and for
    /// unreachable blocks).
    idom: Vec<Option<BlockId>>,
    /// Whether each block is reachable from the root.
    reachable: Vec<bool>,
    root: BlockId,
}

impl Dominators {
    /// Computes dominators with `cfg.entry` as root.
    pub fn compute(cfg: &Cfg) -> Self {
        let preds = cfg.predecessors();
        Self::compute_general(
            cfg.num_blocks(),
            cfg.entry,
            |b| cfg.successors(b),
            |b| preds.of(b),
        )
    }

    /// Computes **post**dominators with `cfg.exit` as root (edges reversed).
    pub fn compute_post(cfg: &Cfg) -> Self {
        let preds = cfg.predecessors();
        Self::compute_general(
            cfg.num_blocks(),
            cfg.exit,
            |b| preds.of(b),
            |b| cfg.successors(b),
        )
    }

    /// Cooper–Harvey–Kennedy over an arbitrary edge relation, given in
    /// both directions: `succs(b)` are the nodes `b` has an edge to,
    /// `preds(b)` those with an edge to `b`.
    fn compute_general<S, P>(
        n: usize,
        root: BlockId,
        succs: impl Fn(BlockId) -> S,
        preds: impl Fn(BlockId) -> P,
    ) -> Self
    where
        S: std::ops::Deref<Target = [BlockId]>,
        P: std::ops::Deref<Target = [BlockId]>,
    {
        // Reverse postorder from root over `succs`.
        let mut visited = vec![false; n];
        let mut rpo: Vec<BlockId> = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = vec![(root, 0)];
        visited[root.index()] = true;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&s) = succs(node).get(*next) {
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                rpo.push(node);
                stack.pop();
            }
        }
        rpo.reverse();
        let mut rpo_num = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b.index()] = i;
        }

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[root.index()] = Some(root);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds(b).iter() {
                    // Not yet processed, or not reachable from the root.
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_num, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Root's idom is conventionally itself internally; expose None.
        let mut out = idom;
        out[root.index()] = None;
        Dominators {
            idom: out,
            reachable: visited,
            root,
        }
    }

    /// The immediate dominator of `b` (`None` for the root / unreachable).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `b` is reachable from the root.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.reachable[b.index()]
    }

    /// Whether block `a` dominates block `b` (reflexive).
    ///
    /// Returns `false` if either block is unreachable.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.reachable[a.index()] || !self.reachable[b.index()] {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.root {
                return false;
            }
            match self.idom[cur.index()] {
                Some(next) => cur = next,
                None => return false,
            }
        }
    }

    /// Whether the instruction at `a` dominates the instruction at `b`
    /// (strictly earlier within the same block, or block-dominance).
    ///
    /// Reflexive at the position level: a position dominates itself.
    pub fn pos_dominates(&self, a: Position, b: Position) -> bool {
        if a.block == b.block {
            a.instr <= b.instr
        } else {
            self.dominates(a.block, b.block)
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_num: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_num[a.index()] > rpo_num[b.index()] {
            a = idom[a.index()].expect("processed block must have idom");
        }
        while rpo_num[b.index()] > rpo_num[a.index()] {
            b = idom[b.index()].expect("processed block must have idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessTable;
    use crate::cfg::Cfg;
    use crate::cfg::{Block, Terminator};
    use crate::expr::Expr;
    use crate::vars::VarTable;

    fn cfg_from(blocks: Vec<Terminator>, entry: u32, exit: u32) -> Cfg {
        Cfg {
            blocks: blocks.into_iter().map(Block::new).collect(),
            entry: BlockId(entry),
            exit: BlockId(exit),
            vars: VarTable::new(),
            accesses: AccessTable::new(),
            num_ctrs: 0,
        }
    }

    fn branch(t: u32, e: u32) -> Terminator {
        Terminator::Branch {
            cond: Expr::Bool(true),
            then_bb: BlockId(t),
            else_bb: BlockId(e),
        }
    }

    /// Diamond: 0 → {1,2} → 3.
    fn diamond() -> Cfg {
        cfg_from(
            vec![
                branch(1, 2),
                Terminator::Goto(BlockId(3)),
                Terminator::Goto(BlockId(3)),
                Terminator::Return,
            ],
            0,
            3,
        )
    }

    #[test]
    fn diamond_dominators() {
        let cfg = diamond();
        let dom = Dominators::compute(&cfg);
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
        assert_eq!(dom.idom(BlockId(3)), Some(BlockId(0)));
        assert_eq!(dom.idom(BlockId(0)), None);
        assert!(dom.dominates(BlockId(1), BlockId(1)), "reflexive");
    }

    #[test]
    fn diamond_postdominators() {
        let cfg = diamond();
        let pdom = Dominators::compute_post(&cfg);
        assert!(pdom.dominates(BlockId(3), BlockId(0)));
        assert!(!pdom.dominates(BlockId(1), BlockId(0)));
        assert_eq!(pdom.idom(BlockId(0)), Some(BlockId(3)));
    }

    #[test]
    fn loop_dominators() {
        // 0 → 1 (header) → {2 (body), 3 (exit)}; 2 → 1.
        let cfg = cfg_from(
            vec![
                Terminator::Goto(BlockId(1)),
                branch(2, 3),
                Terminator::Goto(BlockId(1)),
                Terminator::Return,
            ],
            0,
            3,
        );
        let dom = Dominators::compute(&cfg);
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
        assert_eq!(dom.idom(BlockId(2)), Some(BlockId(1)));
    }

    #[test]
    fn unreachable_blocks_dominate_nothing() {
        // Block 2 unreachable.
        let cfg = cfg_from(
            vec![
                Terminator::Goto(BlockId(1)),
                Terminator::Return,
                Terminator::Goto(BlockId(1)),
            ],
            0,
            1,
        );
        let dom = Dominators::compute(&cfg);
        assert!(!dom.is_reachable(BlockId(2)));
        assert!(!dom.dominates(BlockId(2), BlockId(1)));
        assert!(!dom.dominates(BlockId(0), BlockId(2)));
    }

    #[test]
    fn position_dominance_within_block() {
        let cfg = diamond();
        let dom = Dominators::compute(&cfg);
        let a = Position::new(BlockId(0), 0);
        let b = Position::new(BlockId(0), 3);
        assert!(dom.pos_dominates(a, b));
        assert!(!dom.pos_dominates(b, a));
        assert!(dom.pos_dominates(a, a), "reflexive");
        // Cross-block follows block dominance.
        assert!(dom.pos_dominates(b, Position::new(BlockId(3), 0)));
        assert!(!dom.pos_dominates(Position::new(BlockId(1), 0), Position::new(BlockId(3), 0)));
    }
}
