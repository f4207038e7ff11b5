//! Dominator and postdominator trees (Cooper–Harvey–Kennedy).
//!
//! The synchronization analysis of §5 consumes dominance at *access*
//! granularity: access `a` dominates access `b` iff every path from entry to
//! `b`'s instruction passes through `a`'s instruction. At block granularity
//! that is block-dominance; within one block it is instruction order.

use crate::cfg::{Cfg, Predecessors};
use crate::ids::{BlockId, Position};

/// The walk state of one dominator computation, reused by the next: one
/// buffer of `u32`s, cut into the arrays of [`Dominators::compute_general`].
#[derive(Default)]
struct Scratch(Vec<u32>);

/// Block-level dominator information.
#[derive(Debug, Clone)]
pub struct Dominators {
    /// Per block: its immediate dominator (`None` for the root and for
    /// unreachable blocks) and its `[entry, exit]` times in a depth-first
    /// walk of the tree — `a` dominates `b` iff `a`'s span encloses `b`'s.
    /// Unreachable blocks have the span [`UNREACHED`].
    nodes: Vec<(Option<BlockId>, [u32; 2])>,
}

/// The span of a block the root does not reach.
const UNREACHED: [u32; 2] = [u32::MAX, 0];

impl Dominators {
    /// Computes dominators with `cfg.entry` as root.
    pub fn compute(cfg: &Cfg) -> Self {
        Self::forward(cfg, &cfg.predecessors(), &mut Scratch::default())
    }

    /// Computes **post**dominators with `cfg.exit` as root (edges reversed).
    pub fn compute_post(cfg: &Cfg) -> Self {
        Self::backward(cfg, &cfg.predecessors(), &mut Scratch::default())
    }

    /// Dominators and postdominators of `cfg` over its predecessor lists
    /// `preds`, one walk's scratch serving both.
    pub fn both(cfg: &Cfg, preds: &Predecessors) -> (Self, Self) {
        let mut scratch = Scratch::default();
        let dom = Self::forward(cfg, preds, &mut scratch);
        (dom, Self::backward(cfg, preds, &mut scratch))
    }

    fn forward(cfg: &Cfg, preds: &Predecessors, scratch: &mut Scratch) -> Self {
        Self::compute_general(
            cfg.num_blocks(),
            cfg.entry,
            |b| cfg.successors(b),
            |b| preds.of(b),
            scratch,
        )
    }

    fn backward(cfg: &Cfg, preds: &Predecessors, scratch: &mut Scratch) -> Self {
        Self::compute_general(
            cfg.num_blocks(),
            cfg.exit,
            |b| preds.of(b),
            |b| cfg.successors(b),
            scratch,
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
        scratch: &mut Scratch,
    ) -> Self
    where
        S: std::ops::Deref<Target = [BlockId]>,
        P: std::ops::Deref<Target = [BlockId]>,
    {
        const UNSEEN: u32 = u32::MAX;
        const SEEN: u32 = u32::MAX - 1;
        let buf = &mut scratch.0;
        buf.clear();
        buf.resize(6 * n + 1, 0);
        let (rpo, rest) = buf.split_at_mut(n);
        let (rpo_num, rest) = rest.split_at_mut(n);
        let (stack, rest) = rest.split_at_mut(2 * n);
        let (child_start, children) = rest.split_at_mut(n + 1);
        let id = |x: u32| BlockId(x);

        // Postorder from root over `succs`; `rpo_num` marks the blocks
        // seen, the stack holds `(block, next successor)` pairs.
        rpo_num.fill(UNSEEN);
        let (mut depth, mut count) = (1, 0);
        stack[0] = root.0;
        stack[1] = 0;
        rpo_num[root.index()] = SEEN;
        while depth > 0 {
            let top = 2 * (depth - 1);
            let node = id(stack[top]);
            if let Some(&s) = succs(node).get(stack[top + 1] as usize) {
                stack[top + 1] += 1;
                if rpo_num[s.index()] == UNSEEN {
                    rpo_num[s.index()] = SEEN;
                    stack[2 * depth] = s.0;
                    stack[2 * depth + 1] = 0;
                    depth += 1;
                }
            } else {
                rpo[count] = node.0;
                count += 1;
                depth -= 1;
            }
        }
        let rpo = &mut rpo[..count];
        rpo.reverse();
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b as usize] = i as u32;
        }

        let mut nodes = vec![(None, UNREACHED); n];
        nodes[root.index()].0 = Some(root);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in preds(id(b)).iter() {
                    // Not yet processed, or not reachable from the root.
                    if nodes[p.index()].0.is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&nodes, rpo_num, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if nodes[b as usize].0 != Some(ni) {
                        nodes[b as usize].0 = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        // Root's idom is conventionally itself internally; expose None.
        nodes[root.index()].0 = None;

        // The tree's child lists, then one depth-first walk for the spans.
        for (p, _) in &nodes {
            if let Some(p) = p {
                child_start[p.index() + 1] += 1;
            }
        }
        for b in 0..n {
            child_start[b + 1] += child_start[b];
        }
        for &b in rpo.iter() {
            if let Some(p) = nodes[b as usize].0 {
                children[child_start[p.index()] as usize] = b;
                child_start[p.index()] += 1;
            }
        }
        child_start.copy_within(0..n, 1);
        child_start[0] = 0;
        let mut time = 0;
        depth = 1;
        stack[0] = root.0;
        stack[1] = child_start[root.index()];
        nodes[root.index()].1[0] = time;
        while depth > 0 {
            let top = 2 * (depth - 1);
            let node = stack[top] as usize;
            let next = stack[top + 1];
            time += 1;
            if next < child_start[node + 1] {
                let child = children[next as usize];
                stack[top + 1] += 1;
                nodes[child as usize].1[0] = time;
                stack[2 * depth] = child;
                stack[2 * depth + 1] = child_start[child as usize];
                depth += 1;
            } else {
                nodes[node].1[1] = time;
                depth -= 1;
            }
        }
        Dominators { nodes }
    }

    /// The immediate dominator of `b` (`None` for the root / unreachable).
    #[inline]
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.nodes[b.index()].0
    }

    /// Whether `b` is reachable from the root.
    #[inline]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.nodes[b.index()].1 != UNREACHED
    }

    /// Whether block `a` dominates block `b` (reflexive).
    ///
    /// Returns `false` if either block is unreachable.
    #[inline]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let ([a_in, a_out], [b_in, b_out]) = (self.nodes[a.index()].1, self.nodes[b.index()].1);
        // An unreachable span encloses nothing and is enclosed by nothing.
        a_in <= b_in && b_out <= a_out && b_in <= b_out
    }

    /// Whether the instruction at `a` dominates the instruction at `b`
    /// (strictly earlier within the same block, or block-dominance).
    ///
    /// Reflexive at the position level: a position dominates itself.
    #[inline]
    pub fn pos_dominates(&self, a: Position, b: Position) -> bool {
        if a.block == b.block {
            a.instr <= b.instr
        } else {
            self.dominates(a.block, b.block)
        }
    }
}

fn intersect(
    nodes: &[(Option<BlockId>, [u32; 2])],
    rpo_num: &[u32],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    let idom = |x: BlockId| nodes[x.index()].0.expect("processed block must have idom");
    while a != b {
        while rpo_num[a.index()] > rpo_num[b.index()] {
            a = idom(a);
        }
        while rpo_num[b.index()] > rpo_num[a.index()] {
            b = idom(b);
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
