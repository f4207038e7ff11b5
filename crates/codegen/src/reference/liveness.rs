//! Live-variable analysis for locals (backward may-analysis).
//!
//! Used by `syncopt-codegen`'s cleanup pass to delete dead local
//! assignments and — more interestingly — *dead communication*: a split
//! `get` whose destination is never read is a remote message with no
//! observer, so it (and its syncs) can be dropped entirely.

use std::collections::HashSet;
use syncopt_ir::cfg::{Cfg, Instr};
use syncopt_ir::dataflow::{instr_defs, instr_uses, term_uses};
use syncopt_ir::ids::{BlockId, VarId};

/// Block-level liveness sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    live_in: Vec<HashSet<VarId>>,
    live_out: Vec<HashSet<VarId>>,
}

impl Liveness {
    /// Runs the classic backward fixpoint.
    pub fn compute(cfg: &Cfg) -> Self {
        let nb = cfg.num_blocks();
        let mut live_in: Vec<HashSet<VarId>> = vec![HashSet::new(); nb];
        let mut live_out: Vec<HashSet<VarId>> = vec![HashSet::new(); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for b in cfg.block_ids() {
                let bi = b.index();
                let mut out: HashSet<VarId> = HashSet::new();
                for s in cfg.successors(b) {
                    out.extend(live_in[s.index()].iter().copied());
                }
                let mut inn = out.clone();
                crate::context::steps::count(|s| {
                    s.liveness_visits += 1 + cfg.block(b).instrs.len() as u64
                });
                // Walk the block backward: terminator first.
                for v in term_uses(&cfg.block(b).term) {
                    inn.insert(v);
                }
                for instr in cfg.block(b).instrs.iter().rev() {
                    // Local arrays are conservative: element writes both
                    // use and define the array, so they never kill it.
                    if let Some(d) = instr.def() {
                        inn.remove(&d);
                    }
                    for u in instr_uses(instr) {
                        inn.insert(u);
                    }
                    if let Some(a) = instr.array_def() {
                        inn.insert(a);
                    }
                }
                if inn != live_in[bi] || out != live_out[bi] {
                    live_in[bi] = inn;
                    live_out[bi] = out;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Variables live at entry of `b`.
    pub fn live_in(&self, b: BlockId) -> &HashSet<VarId> {
        &self.live_in[b.index()]
    }

    /// Variables live at exit of `b`.
    pub fn live_out(&self, b: BlockId) -> &HashSet<VarId> {
        &self.live_out[b.index()]
    }

    /// Whether `var` is live immediately *after* the instruction at
    /// (`b`, `idx`) — i.e. whether some later use may read the value the
    /// instruction just wrote.
    pub fn live_after(&self, cfg: &Cfg, b: BlockId, idx: usize, var: VarId) -> bool {
        let instrs = &cfg.block(b).instrs;
        // Scan the block suffix after idx.
        for instr in &instrs[idx + 1..] {
            crate::context::steps::count(|s| s.liveness_visits += 1);
            if instr_uses(instr).contains(&var) || instr.array_def() == Some(var) {
                return true;
            }
            if instr_defs(instr).contains(&var) && instr.array_def() != Some(var) {
                // Redefinition kills it before any use.
                return false;
            }
        }
        if term_uses(&cfg.block(b).term).contains(&var) {
            return true;
        }
        self.live_out[b.index()].contains(&var)
    }
}

/// A pure local assignment with a dead destination (safe to delete). The
/// value expression must not be able to trap (no division/modulo), so
/// deletion cannot suppress a runtime fault.
pub fn is_dead_assignment(cfg: &Cfg, live: &Liveness, b: BlockId, idx: usize) -> bool {
    let Instr::AssignLocal { dst, value } = &cfg.block(b).instrs[idx] else {
        return false;
    };
    if expr_may_trap(value) {
        return false;
    }
    !live.live_after(cfg, b, idx, *dst)
}

fn expr_may_trap(e: &syncopt_ir::expr::Expr) -> bool {
    use syncopt_frontend::ast::BinOp;
    use syncopt_ir::expr::Expr;
    match e {
        Expr::Int(_)
        | Expr::Float(_)
        | Expr::Bool(_)
        | Expr::MyProc
        | Expr::Procs
        | Expr::Local(_) => false,
        // Local array reads bounds-check at runtime.
        Expr::LocalElem { .. } => true,
        Expr::Unary { expr, .. } => expr_may_trap(expr),
        Expr::Binary { op, lhs, rhs } => {
            matches!(op, BinOp::Div | BinOp::Rem) || expr_may_trap(lhs) || expr_may_trap(rhs)
        }
    }
}
