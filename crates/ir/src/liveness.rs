//! Live-variable analysis for locals (backward may-analysis).
//!
//! Used by `syncopt-codegen`'s cleanup pass to delete dead local
//! assignments and — more interestingly — *dead communication*: a split
//! `get` whose destination is never read is a remote message with no
//! observer, so it (and its syncs) can be dropped entirely.
//!
//! The sets are bit rows over [`VarId`]. Each block is summarized once as
//! an upward-exposed-use mask and a definition mask, so the fixpoint
//! touches no instruction: a block visit is two word-parallel row
//! operations, and only blocks whose successors' live-in grew are visited
//! again. A consumer that wants liveness *inside* a block walks it
//! backward from [`Liveness::at_block_end`] with [`step_back`].

use crate::cfg::{Cfg, Instr, Terminator};
use crate::expr::Expr;
use crate::ids::{BlockId, VarId};
use crate::order::BitSet;

/// What one [`Liveness::compute`] cost, in visits (deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LivenessWork {
    /// Instructions read to summarize the blocks (each exactly once).
    pub instr_visits: u64,
    /// Block visits of the fixpoint.
    pub block_visits: u64,
}

/// Block-level liveness sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Words per row (`ceil(vars / 64)`).
    words: usize,
    /// Row `b`: variables live at entry of block `b`.
    live_in: Vec<u64>,
    /// Row `b`: variables live at exit of block `b`.
    live_out: Vec<u64>,
    work: LivenessWork,
}

fn set(row: &mut [u64], v: VarId) {
    row[v.index() / 64] |= 1 << (v.index() % 64);
}

fn unset(row: &mut [u64], v: VarId) {
    row[v.index() / 64] &= !(1 << (v.index() % 64));
}

fn term_cond(term: &Terminator) -> Option<&Expr> {
    match term {
        Terminator::Branch { cond, .. } => Some(cond),
        Terminator::Goto(_) | Terminator::Return => None,
    }
}

impl Liveness {
    /// Solves the backward fixpoint.
    pub fn compute(cfg: &Cfg) -> Self {
        let nb = cfg.num_blocks();
        let words = cfg.vars.len().div_ceil(64);
        let mut work = LivenessWork::default();
        // USE: read before any definition in the block; DEF: defined in it.
        // Local arrays are conservative: an element write counts as a read
        // of the array (`for_each_use` lists it) and defines no scalar, so
        // it never kills it.
        let mut uses = vec![0u64; nb * words];
        let mut defs = vec![0u64; nb * words];
        for (bi, block) in cfg.blocks.iter().enumerate() {
            let (u, d) = (
                &mut uses[bi * words..(bi + 1) * words],
                &mut defs[bi * words..(bi + 1) * words],
            );
            if let Some(cond) = term_cond(&block.term) {
                cond.for_each_var(&mut |v| set(u, v));
            }
            for instr in block.instrs.iter().rev() {
                if let Some(dst) = instr.def() {
                    set(d, dst);
                    unset(u, dst);
                }
                instr.for_each_use(&mut |v| set(u, v));
            }
            work.instr_visits += block.instrs.len() as u64;
        }

        let preds = cfg.predecessors();

        // Postorder puts a block after its successors (back edges apart), so
        // the first sweep settles everything outside a loop.
        let mut order = cfg.reverse_postorder();
        order.reverse();
        let mut live_in = vec![0u64; nb * words];
        let mut live_out = vec![0u64; nb * words];
        let mut dirty = vec![true; nb];
        let mut pending = nb;
        while pending > 0 {
            for &b in &order {
                let bi = b.index();
                if !std::mem::take(&mut dirty[bi]) {
                    continue;
                }
                pending -= 1;
                work.block_visits += 1;
                let row = bi * words..(bi + 1) * words;
                let out = &mut live_out[row.clone()];
                for s in cfg.blocks[bi].term.successors() {
                    let from = &live_in[s.index() * words..(s.index() + 1) * words];
                    for (o, i) in out.iter_mut().zip(from) {
                        *o |= i;
                    }
                }
                let mut grew = false;
                for w in 0..words {
                    let new =
                        uses[row.start + w] | (live_out[row.start + w] & !defs[row.start + w]);
                    grew |= new != live_in[row.start + w];
                    live_in[row.start + w] = new;
                }
                if grew {
                    for &p in preds.of(b) {
                        if !std::mem::replace(&mut dirty[p.index()], true) {
                            pending += 1;
                        }
                    }
                }
            }
        }
        Liveness {
            words,
            live_in,
            live_out,
            work,
        }
    }

    /// Variables live at entry of `b`, as a bit row over [`VarId`].
    pub fn live_in(&self, b: BlockId) -> &[u64] {
        &self.live_in[b.index() * self.words..(b.index() + 1) * self.words]
    }

    /// Variables live at exit of `b`, as a bit row over [`VarId`].
    pub fn live_out(&self, b: BlockId) -> &[u64] {
        &self.live_out[b.index() * self.words..(b.index() + 1) * self.words]
    }

    /// What the solve cost.
    pub fn work(&self) -> LivenessWork {
        self.work
    }

    /// Sets `live` to the variables live just before `b`'s terminator: the
    /// starting point of a backward walk over the block with [`step_back`].
    ///
    /// # Panics
    ///
    /// Panics if `live` is not a set over `cfg`'s variables.
    pub fn at_block_end(&self, cfg: &Cfg, b: BlockId, live: &mut BitSet) {
        live.clear();
        live.union_words(self.live_out(b));
        if let Some(cond) = term_cond(&cfg.block(b).term) {
            cond.for_each_var(&mut |v| live.insert(v.index()));
        }
    }
}

/// Moves `live` from just after `instr` to just before it.
pub fn step_back(instr: &Instr, live: &mut BitSet) {
    if let Some(d) = instr.def() {
        live.remove(d.index());
    }
    instr.for_each_use(&mut |v| live.insert(v.index()));
}

/// Whether `instr` only produces a value nobody reads, given the set live
/// just after it: a pure local assignment, or a shared read (reads have no
/// side effects), with a dead destination. An assignment whose value can
/// trap (division, modulo, a bounds-checked element read) is kept, so
/// deletion cannot suppress a runtime fault.
pub fn is_dead_store(instr: &Instr, live: &BitSet) -> bool {
    match instr {
        Instr::AssignLocal { dst, value } => !live.contains(dst.index()) && !expr_may_trap(value),
        Instr::GetInit { dst, .. } | Instr::GetShared { dst, .. } => !live.contains(dst.index()),
        _ => false,
    }
}

fn expr_may_trap(e: &Expr) -> bool {
    use syncopt_frontend::ast::BinOp;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_main;
    use syncopt_frontend::prepare_program;

    fn analyzed(src: &str) -> (Cfg, Liveness) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let l = Liveness::compute(&cfg);
        (cfg, l)
    }

    fn var(cfg: &Cfg, name: &str) -> VarId {
        cfg.vars.by_name(name).unwrap()
    }

    /// The set live just after the instruction at (`b`, `idx`).
    fn live_after(cfg: &Cfg, l: &Liveness, b: BlockId, idx: usize) -> BitSet {
        let mut live = BitSet::new(cfg.vars.len());
        l.at_block_end(cfg, b, &mut live);
        for instr in cfg.block(b).instrs[idx + 1..].iter().rev() {
            step_back(instr, &mut live);
        }
        live
    }

    fn is_dead_assignment(cfg: &Cfg, l: &Liveness, b: BlockId, idx: usize) -> bool {
        is_dead_store(&cfg.block(b).instrs[idx], &live_after(cfg, l, b, idx))
    }

    #[test]
    fn straight_line_liveness() {
        let (cfg, l) =
            analyzed("shared int X; fn main() { int a; int b; a = 1; b = a + 1; X = b; }");
        let a = var(&cfg, "a");
        let b = var(&cfg, "b");
        // After `a = 1` (idx 0), a is live (used by the next assign).
        assert!(live_after(&cfg, &l, cfg.entry, 0).contains(a.index()));
        // After `b = a + 1` (idx 1), a is dead, b live.
        assert!(!live_after(&cfg, &l, cfg.entry, 1).contains(a.index()));
        assert!(live_after(&cfg, &l, cfg.entry, 1).contains(b.index()));
    }

    #[test]
    fn loop_keeps_variables_alive() {
        let (cfg, l) = analyzed(
            r#"
            shared int X;
            fn main() {
                int i; int acc;
                acc = 0;
                for (i = 0; i < 4; i = i + 1) { acc = acc + i; }
                X = acc;
            }
            "#,
        );
        let acc = var(&cfg, "acc");
        // acc is live out of the loop body (used next iteration + after).
        let body = cfg
            .block_ids()
            .find(|&b| cfg.block(b).instrs.iter().any(|i| i.def() == Some(acc)) && b != cfg.entry)
            .unwrap();
        assert!(l.live_out(body)[acc.index() / 64] & (1 << (acc.index() % 64)) != 0);
        // One summary read per instruction; the loop costs a second visit
        // of its blocks, nothing more.
        assert_eq!(l.work().instr_visits, cfg.num_instrs() as u64);
        assert!(l.work().block_visits <= 2 * cfg.num_blocks() as u64);
    }

    #[test]
    fn branch_condition_uses_count() {
        let (cfg, l) = analyzed("fn main() { int a; a = 1; if (a > 0) { work(1); } }");
        let a = var(&cfg, "a");
        assert!(
            live_after(&cfg, &l, cfg.entry, 0).contains(a.index()),
            "terminator reads a"
        );
    }

    #[test]
    fn dead_assignment_detection() {
        let (cfg, l) = analyzed("fn main() { int a; int b; a = 1; b = 2; work(b); }");
        assert!(is_dead_assignment(&cfg, &l, cfg.entry, 0), "a unused");
        assert!(!is_dead_assignment(&cfg, &l, cfg.entry, 1), "b used");
    }

    #[test]
    fn trapping_assignments_are_kept() {
        let (cfg, l) = analyzed("fn main() { int a; int z; z = 0; a = 1 / z; work(z); }");
        // `a = 1 / z` is dead but may trap: not removable.
        let idx = cfg
            .block(cfg.entry)
            .instrs
            .iter()
            .position(|i| i.def() == Some(var(&cfg, "a")))
            .unwrap();
        assert!(!is_dead_assignment(&cfg, &l, cfg.entry, idx));
    }

    #[test]
    fn local_arrays_never_die() {
        let (cfg, l) = analyzed("fn main() { int buf[4]; buf[0] = 1; work(1); }");
        let buf = var(&cfg, "buf");
        // The element write keeps the array alive conservatively.
        assert!(!is_dead_assignment(&cfg, &l, cfg.entry, 0));
        assert!(l.live_in(cfg.entry)[buf.index() / 64] & (1 << (buf.index() % 64)) != 0);
    }
}
