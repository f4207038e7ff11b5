//! Barrier alignment (§5.2).
//!
//! Using a barrier for precedence requires knowing that all processors
//! execute the *same* dynamic sequence of barrier episodes — undecidable in
//! general (the paper's Figure 7). The paper's answer is a cheap runtime
//! check plus compiler optimism: emit an optimized version valid under
//! alignment and fall back otherwise. We implement both halves:
//!
//! * [`BarrierPolicy::Static`] proves alignment at compile time for
//!   barriers that are not control-dependent (transitively) on any
//!   **processor-dependent** branch, where processor dependence is a taint
//!   reaching from `MYPROC` or from shared-memory reads;
//! * [`BarrierPolicy::AssumeAligned`] mirrors the paper's runtime-checked
//!   optimized version (the simulator in `syncopt-machine` performs the
//!   dynamic barrier-sequence check and reports divergence).

use syncopt_ir::access::AccessKind;
use syncopt_ir::cfg::{Cfg, Instr, Terminator};
use syncopt_ir::dom::Dominators;
use syncopt_ir::expr::Expr;
use syncopt_ir::ids::{AccessId, BlockId};
use syncopt_ir::order::{BitSet, ProgramOrder};

/// How barrier alignment is established.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierPolicy {
    /// Prove alignment statically via taint + control dependence.
    #[default]
    Static,
    /// Assume every barrier aligns (paper's runtime-checked mode).
    AssumeAligned,
    /// Use no barrier information at all.
    Disabled,
}

/// Computes the set of locals whose value may differ across processors,
/// as a set of `VarId` indices: anything data-dependent on `MYPROC` or
/// on a shared-memory read (different processors may read at different
/// times).
pub fn proc_dependent_locals(cfg: &Cfg) -> BitSet {
    let mut tainted = BitSet::new(cfg.vars.len());
    let expr_tainted = |e: &Expr, tainted: &BitSet| -> bool {
        let mut hit = false;
        e.for_each_var(&mut |v| hit |= tainted.contains(v.index()));
        hit || expr_mentions_myproc(e)
    };
    let mut changed = true;
    while changed {
        changed = false;
        for b in cfg.block_ids() {
            for instr in &cfg.block(b).instrs {
                let newly = match instr {
                    Instr::GetShared { dst, .. } | Instr::GetInit { dst, .. } => Some(*dst),
                    Instr::AssignLocal { dst, value } => {
                        expr_tainted(value, &tainted).then_some(*dst)
                    }
                    Instr::AssignLocalElem {
                        array,
                        index,
                        value,
                    } => (expr_tainted(index, &tainted) || expr_tainted(value, &tainted))
                        .then_some(*array),
                    _ => None,
                };
                if let Some(v) = newly {
                    if !tainted.contains(v.index()) {
                        tainted.insert(v.index());
                        changed = true;
                    }
                }
            }
        }
    }
    tainted
}

fn expr_mentions_myproc(e: &Expr) -> bool {
    match e {
        Expr::MyProc => true,
        Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Procs | Expr::Local(_) => false,
        Expr::LocalElem { index, .. } => expr_mentions_myproc(index),
        Expr::Unary { expr, .. } => expr_mentions_myproc(expr),
        Expr::Binary { lhs, rhs, .. } => expr_mentions_myproc(lhs) || expr_mentions_myproc(rhs),
    }
}

/// The blocks whose branch decision may differ across processors, given
/// the [`proc_dependent_locals`].
pub fn tainted_branches(cfg: &Cfg, tainted: &BitSet) -> Vec<BlockId> {
    let mut out = Vec::new();
    for b in cfg.block_ids() {
        if let Terminator::Branch { cond, .. } = &cfg.block(b).term {
            let mut hit = expr_mentions_myproc(cond);
            cond.for_each_var(&mut |v| hit |= tainted.contains(v.index()));
            if hit {
                out.push(b);
            }
        }
    }
    out
}

/// Block-level control dependence closure: the set of blocks whose
/// *execution count* may differ across processors given the tainted
/// branches.
///
/// Block `b` is control-dependent on branch block `x` iff `b`
/// postdominates some successor of `x` but does not postdominate `x`
/// itself: on the postdominator tree, the path from a successor up to,
/// not including, `x`'s immediate postdominator, `x` left out. So each
/// branch is one walk per successor. A dependent block with a branch
/// spreads dependence, and a block (or branch) that reaches no exit counts
/// as dependent (conservative).
fn proc_dependent_blocks(cfg: &Cfg, pdom: &Dominators, tainted_branches: &[BlockId]) -> BitSet {
    let nb = cfg.num_blocks();
    let mut dependent = BitSet::new(nb);
    // The branches to walk from, and those walked.
    let mut queued = BitSet::new(nb);
    let mut walked = BitSet::new(nb);
    for &x in tainted_branches {
        queued.insert(x.index());
    }
    let mark = |b: BlockId, dependent: &mut BitSet, queued: &mut BitSet| {
        if !dependent.contains(b.index()) {
            dependent.insert(b.index());
            if matches!(cfg.block(b).term, Terminator::Branch { .. }) {
                queued.insert(b.index());
            }
        }
    };
    for b in cfg.block_ids() {
        if !pdom.is_reachable(b) {
            mark(b, &mut dependent, &mut queued);
        }
    }
    let next = |queued: &BitSet, walked: &BitSet| {
        let (queued, walked) = (queued.words(), walked.words());
        (0..queued.len()).find_map(|w| {
            let fresh = queued[w] & !walked[w];
            (fresh != 0).then(|| BlockId::from_index(w * 64 + fresh.trailing_zeros() as usize))
        })
    };
    while let Some(x) = next(&queued, &walked) {
        walked.insert(x.index());
        if !pdom.is_reachable(x) {
            for b in cfg.block_ids() {
                mark(b, &mut dependent, &mut queued);
            }
            continue;
        }
        let succs = cfg.successors(x);
        if succs.len() < 2 {
            continue;
        }
        let stop = pdom.idom(x);
        for &s in succs.iter() {
            if !pdom.is_reachable(s) {
                continue;
            }
            let mut cur = s;
            while Some(cur) != stop {
                if cur != x {
                    mark(cur, &mut dependent, &mut queued);
                }
                match pdom.idom(cur) {
                    Some(up) => cur = up,
                    None => break,
                }
            }
        }
    }
    dependent
}

/// The barrier access sites considered aligned under `policy`.
pub fn aligned_barriers(cfg: &Cfg, policy: BarrierPolicy) -> Vec<AccessId> {
    aligned_barriers_with(cfg, policy, &Dominators::compute_post(cfg))
}

/// [`aligned_barriers`] over already-computed postdominators.
pub fn aligned_barriers_with(cfg: &Cfg, policy: BarrierPolicy, pdom: &Dominators) -> Vec<AccessId> {
    let barriers = || {
        cfg.accesses
            .iter()
            .filter(|(_, info)| info.kind == AccessKind::Barrier)
    };
    match policy {
        BarrierPolicy::Disabled => Vec::new(),
        BarrierPolicy::AssumeAligned => barriers().map(|(id, _)| id).collect(),
        BarrierPolicy::Static => {
            if barriers().next().is_none() {
                return Vec::new();
            }
            let tainted = proc_dependent_locals(cfg);
            let branches = tainted_branches(cfg, &tainted);
            if branches.is_empty() {
                return barriers().map(|(id, _)| id).collect();
            }
            let dep = proc_dependent_blocks(cfg, pdom, &branches);
            barriers()
                .filter(|(_, info)| !dep.contains(info.pos.block.index()))
                .map(|(id, _)| id)
                .collect()
        }
    }
}

/// For the §5.2 precedence relation: ordered pairs of aligned barriers
/// `(b1, b2)` such that every episode of `b1` precedes every episode of
/// `b2` (including the self pair `(b, b)` representing the barrier's own
/// cross-processor rendezvous).
pub fn barrier_precedence_edges(
    po: &ProgramOrder,
    aligned: &[AccessId],
) -> Vec<(AccessId, AccessId)> {
    let mut out = Vec::new();
    for_each_barrier_edge(po, aligned, |b1, b2| out.push((b1, b2)));
    out
}

/// The pairs of [`barrier_precedence_edges`], in its order, handed to `f`.
pub(crate) fn for_each_barrier_edge(
    po: &ProgramOrder,
    aligned: &[AccessId],
    mut f: impl FnMut(AccessId, AccessId),
) {
    for &b1 in aligned {
        f(b1, b1);
        for &b2 in aligned {
            if b1 != b2 && po.access_precedes(b1, b2) && !po.access_precedes(b2, b1) {
                f(b1, b2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::ids::VarId;
    use syncopt_ir::lower::lower_main;
    use syncopt_ir::order::GraphScratch;

    fn cfg_of(src: &str) -> Cfg {
        lower_main(&prepare_program(src).unwrap()).unwrap()
    }

    fn barrier_count(cfg: &Cfg) -> usize {
        cfg.accesses
            .iter()
            .filter(|(_, i)| i.kind == AccessKind::Barrier)
            .count()
    }

    #[test]
    fn top_level_barriers_align_statically() {
        let cfg = cfg_of("fn main() { barrier; work(10); barrier; }");
        let aligned = aligned_barriers(&cfg, BarrierPolicy::Static);
        assert_eq!(aligned.len(), 2);
    }

    #[test]
    fn barrier_in_uniform_loop_aligns() {
        let cfg =
            cfg_of("fn main() { int i; for (i = 0; i < 8; i = i + 1) { barrier; work(1); } }");
        let aligned = aligned_barriers(&cfg, BarrierPolicy::Static);
        assert_eq!(aligned.len(), 1, "trip count is processor-independent");
    }

    #[test]
    fn barrier_under_myproc_branch_does_not_align() {
        let cfg = cfg_of("fn main() { if (MYPROC == 0) { barrier; } }");
        assert_eq!(barrier_count(&cfg), 1);
        let aligned = aligned_barriers(&cfg, BarrierPolicy::Static);
        assert!(aligned.is_empty());
        // But the optimistic policy accepts it.
        assert_eq!(
            aligned_barriers(&cfg, BarrierPolicy::AssumeAligned).len(),
            1
        );
        assert!(aligned_barriers(&cfg, BarrierPolicy::Disabled).is_empty());
    }

    #[test]
    fn barrier_in_loop_with_tainted_bound_does_not_align() {
        // Trip count depends on MYPROC.
        let cfg = cfg_of("fn main() { int i; for (i = 0; i < MYPROC; i = i + 1) { barrier; } }");
        let aligned = aligned_barriers(&cfg, BarrierPolicy::Static);
        assert!(aligned.is_empty());
    }

    #[test]
    fn barrier_after_myproc_branch_rejoins_and_aligns() {
        // The branch is processor-dependent, but the barrier postdominates
        // the join, so every processor reaches it exactly once.
        let cfg = cfg_of("shared int X; fn main() { if (MYPROC == 0) { X = 1; } barrier; }");
        let aligned = aligned_barriers(&cfg, BarrierPolicy::Static);
        assert_eq!(aligned.len(), 1);
    }

    #[test]
    fn shared_read_taints_trip_count() {
        // N is read from shared memory; conservatively processor-dependent.
        let cfg = cfg_of(
            r#"
            shared int N;
            fn main() {
                int n; n = N;
                int i;
                for (i = 0; i < n; i = i + 1) { barrier; }
            }
            "#,
        );
        let aligned = aligned_barriers(&cfg, BarrierPolicy::Static);
        assert!(aligned.is_empty());
    }

    #[test]
    fn taint_propagates_through_locals_and_arrays() {
        let cfg = cfg_of(
            r#"
            fn main() {
                int a; int b; int c[4];
                a = MYPROC + 1;
                b = a * 2;
                c[0] = b;
                int d; d = c[0];
                if (d > 0) { barrier; }
            }
            "#,
        );
        let tainted = proc_dependent_locals(&cfg);
        let names: Vec<String> = tainted
            .iter_ones()
            .map(|v| cfg.vars.info(VarId::from_index(v)).name.clone())
            .collect();
        for expect in ["a", "b", "c", "d"] {
            assert!(names.iter().any(|n| n == expect), "{expect} not tainted");
        }
        assert!(aligned_barriers(&cfg, BarrierPolicy::Static).is_empty());
    }

    #[test]
    fn precedence_edges_between_sequential_barriers() {
        let cfg = cfg_of("fn main() { barrier; work(1); barrier; }");
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        let aligned = aligned_barriers(&cfg, BarrierPolicy::Static);
        let edges = barrier_precedence_edges(&po, &aligned);
        let b: Vec<AccessId> = cfg.accesses.ids().collect();
        assert!(edges.contains(&(b[0], b[0])), "self edge");
        assert!(edges.contains(&(b[1], b[1])), "self edge");
        assert!(edges.contains(&(b[0], b[1])), "sequential edge");
        assert!(!edges.contains(&(b[1], b[0])));
    }

    #[test]
    fn loop_barriers_get_self_edge_only() {
        let cfg = cfg_of(
            "fn main() { int i; for (i = 0; i < 4; i = i + 1) { barrier; work(1); barrier; } }",
        );
        let po = ProgramOrder::compute(&cfg, &mut GraphScratch::default());
        let aligned = aligned_barriers(&cfg, BarrierPolicy::Static);
        assert_eq!(aligned.len(), 2);
        let edges = barrier_precedence_edges(&po, &aligned);
        // Both orders exist across iterations, so only self edges remain.
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().all(|(a, b)| a == b));
    }
}
