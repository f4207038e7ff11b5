//! Natural-loop detection via back edges.
//!
//! Used by the sync-motion heuristics of `syncopt-codegen` (don't propagate
//! a `sync_ctr` into a loop body — it would execute every iteration, §6) and
//! by the barrier-alignment analysis.

use crate::cfg::{Cfg, Predecessors};
use crate::dom::Dominators;
use crate::ids::BlockId;

/// A natural loop: header plus the set of blocks in the loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct NaturalLoop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: Vec<BlockId>,
}

impl NaturalLoop {
    /// Whether `block` belongs to this loop.
    pub fn contains(&self, block: BlockId) -> bool {
        self.blocks.contains(&block)
    }
}

/// Finds all natural loops of `cfg`. Loops sharing a header are merged.
pub fn find_loops(cfg: &Cfg, dom: &Dominators) -> Vec<NaturalLoop> {
    let mut loops: Vec<NaturalLoop> = Vec::new();
    // Built on the first back edge: most programs have none.
    let mut walk: Option<(Predecessors, Vec<bool>)> = None;
    for b in cfg.block_ids() {
        if !dom.is_reachable(b) {
            continue;
        }
        for succ in cfg.successors(b) {
            // Back edge: successor dominates source.
            if dom.dominates(succ, b) {
                let (preds, in_body) =
                    walk.get_or_insert_with(|| (cfg.predecessors(), vec![false; cfg.num_blocks()]));
                let body = loop_body(preds, in_body, succ, b);
                if let Some(existing) = loops.iter_mut().find(|l| l.header == succ) {
                    for blk in body {
                        if !existing.blocks.contains(&blk) {
                            existing.blocks.push(blk);
                        }
                    }
                } else {
                    loops.push(NaturalLoop {
                        header: succ,
                        blocks: body,
                    });
                }
            }
        }
    }
    loops
}

/// The natural loop of back edge `latch → header`: header plus all blocks
/// that reach `latch` without passing through `header`. `in_body` is
/// all-false scratch, and left so.
fn loop_body(
    preds: &Predecessors,
    in_body: &mut [bool],
    header: BlockId,
    latch: BlockId,
) -> Vec<BlockId> {
    let mut body = vec![header];
    in_body[header.index()] = true;
    let mut stack = Vec::new();
    if latch != header {
        body.push(latch);
        in_body[latch.index()] = true;
        stack.push(latch);
    }
    while let Some(b) = stack.pop() {
        for &p in preds.of(b) {
            if !std::mem::replace(&mut in_body[p.index()], true) {
                body.push(p);
                stack.push(p);
            }
        }
    }
    for b in &body {
        in_body[b.index()] = false;
    }
    body
}

/// A basic induction variable: inside `loops[loop_idx]` it is updated by
/// exactly one statement of the form `var = var ± c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InductionVar {
    /// Index into the loop vector this variable belongs to.
    pub loop_idx: usize,
    /// The variable.
    pub var: crate::ids::VarId,
    /// Its per-iteration step (nonzero).
    pub step: i64,
}

/// The local definitions inside each loop, by variable: which locals a loop
/// body writes, and which of them are its basic induction variables.
#[derive(Debug, Clone)]
pub struct LoopDefs<'a> {
    /// Per loop, every defining instruction in it, sorted by the variable
    /// defined (a local array counts as defined by each element write).
    sites: Vec<Vec<(crate::ids::VarId, &'a crate::cfg::Instr)>>,
}

impl<'a> LoopDefs<'a> {
    /// Collects the definitions of every loop of `loops`.
    pub fn compute(cfg: &'a Cfg, loops: &[NaturalLoop]) -> Self {
        let sites = loops
            .iter()
            .map(|l| {
                let mut sites = Vec::new();
                for &b in &l.blocks {
                    for instr in &cfg.block(b).instrs {
                        if let Some(d) = instr.def().or(instr.array_def()) {
                            sites.push((d, instr));
                        }
                    }
                }
                sites.sort_by_key(|&(d, _)| d);
                sites
            })
            .collect();
        LoopDefs { sites }
    }

    /// The definitions of `var` inside loop `loop_idx`.
    fn of(
        &self,
        loop_idx: usize,
        var: crate::ids::VarId,
    ) -> &[(crate::ids::VarId, &'a crate::cfg::Instr)] {
        let sites = &self.sites[loop_idx];
        let lo = sites.partition_point(|&(d, _)| d < var);
        let hi = lo + sites[lo..].partition_point(|&(d, _)| d == var);
        &sites[lo..hi]
    }

    /// Whether `var` is defined anywhere inside loop `loop_idx`.
    pub fn defines(&self, loop_idx: usize, var: crate::ids::VarId) -> bool {
        !self.of(loop_idx, var).is_empty()
    }

    /// The nonzero step of `var` if it is a basic induction variable of
    /// loop `loop_idx`: its one definition there is `var = var ± c`.
    pub fn induction_step(&self, loop_idx: usize, var: crate::ids::VarId) -> Option<i64> {
        use crate::cfg::Instr;
        use crate::expr::Expr;
        use syncopt_frontend::ast::BinOp;
        let [(_, Instr::AssignLocal { value, .. })] = self.of(loop_idx, var) else {
            return None;
        };
        let Expr::Binary { op, lhs, rhs } = value else {
            return None;
        };
        let step = match (op, lhs.as_ref(), rhs.as_ref()) {
            (BinOp::Add, Expr::Local(v), Expr::Int(c)) if *v == var => *c,
            (BinOp::Add, Expr::Int(c), Expr::Local(v)) if *v == var => *c,
            // Modulo 2^64, like the subtraction itself: `-i64::MIN` is a
            // step too, and a nonzero one.
            (BinOp::Sub, Expr::Local(v), Expr::Int(c)) if *v == var => c.wrapping_neg(),
            _ => return None,
        };
        (step != 0).then_some(step)
    }
}

/// Detects basic induction variables of every loop, by loop and variable.
pub fn induction_vars(cfg: &Cfg, loops: &[NaturalLoop]) -> Vec<InductionVar> {
    let defs = LoopDefs::compute(cfg, loops);
    let mut out = Vec::new();
    for (loop_idx, sites) in defs.sites.iter().enumerate() {
        for same_var in sites.chunk_by(|a, b| a.0 == b.0) {
            let var = same_var[0].0;
            if let Some(step) = defs.induction_step(loop_idx, var) {
                out.push(InductionVar {
                    loop_idx,
                    var,
                    step,
                });
            }
        }
    }
    out
}

/// Whether `var` is defined anywhere inside the loop.
pub fn defined_in_loop(cfg: &Cfg, l: &NaturalLoop, var: crate::ids::VarId) -> bool {
    l.blocks.iter().any(|&b| {
        cfg.block(b)
            .instrs
            .iter()
            .any(|i| i.def() == Some(var) || i.array_def() == Some(var))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_main;
    use syncopt_frontend::prepare_program;

    fn loops_of(src: &str) -> (Cfg, Vec<NaturalLoop>) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let dom = Dominators::compute(&cfg);
        let loops = find_loops(&cfg, &dom);
        (cfg, loops)
    }

    #[test]
    fn straight_line_has_no_loops() {
        let (_, loops) = loops_of("shared int X; fn main() { X = 1; X = 2; }");
        assert!(loops.is_empty());
    }

    #[test]
    fn single_while_loop_found() {
        let (cfg, loops) = loops_of("fn main() { int i; i = 0; while (i < 4) { i = i + 1; } }");
        assert_eq!(loops.len(), 1);
        let l = &loops[0];
        assert!(l.contains(l.header));
        assert!(l.blocks.len() >= 2, "header and body");
        // The exit block is not part of the loop.
        assert!(!l.contains(cfg.exit));
    }

    #[test]
    fn nested_loops_found_separately() {
        let (_, loops) = loops_of(
            r#"
            fn main() {
                int i; int j;
                for (i = 0; i < 4; i = i + 1) {
                    for (j = 0; j < 4; j = j + 1) { work(1); }
                }
            }
            "#,
        );
        assert_eq!(loops.len(), 2);
        // The outer loop contains the inner loop's header.
        let (outer, inner) = if loops[0].blocks.len() > loops[1].blocks.len() {
            (&loops[0], &loops[1])
        } else {
            (&loops[1], &loops[0])
        };
        assert!(outer.contains(inner.header));
        assert!(!inner.contains(outer.header));
    }

    #[test]
    fn induction_variables_detected() {
        let (cfg, loops) = loops_of(
            r#"
            fn main() {
                int i; int j; int acc;
                acc = 0;
                for (i = 0; i < 8; i = i + 2) {
                    j = i * 3;       // derived, not basic induction
                    acc = acc + j;   // also single-def... of add-local form?
                    work(1);
                }
            }
            "#,
        );
        let ivs = induction_vars(&cfg, &loops);
        let i = cfg.vars.by_name("i").unwrap();
        let j = cfg.vars.by_name("j").unwrap();
        let found_i = ivs.iter().find(|iv| iv.var == i);
        assert_eq!(found_i.map(|iv| iv.step), Some(2));
        assert!(!ivs.iter().any(|iv| iv.var == j), "j is not basic");
        // `acc = acc + j` is not a constant step.
        let acc = cfg.vars.by_name("acc").unwrap();
        assert!(!ivs.iter().any(|iv| iv.var == acc));
    }

    #[test]
    fn defined_in_loop_query() {
        let (cfg, loops) = loops_of(
            r#"
            fn main() {
                int i; int outside;
                outside = 5;
                for (i = 0; i < 4; i = i + 1) { work(outside); }
            }
            "#,
        );
        let i = cfg.vars.by_name("i").unwrap();
        let outside = cfg.vars.by_name("outside").unwrap();
        assert!(defined_in_loop(&cfg, &loops[0], i));
        assert!(!defined_in_loop(&cfg, &loops[0], outside));
    }
}
