//! Reaching definitions and def-use chains for local variables.
//!
//! The paper's code generator consumes "the use-def graph for each
//! processor's variable accesses (obtained through standard sequential
//! compiler analysis)" (§6). Shared variables are *not* tracked here — they
//! are governed by the delay set; this analysis covers the processor-local
//! dataflow that constrains instruction motion.

use crate::cfg::{Cfg, Instr, Terminator};
use crate::ids::{Position, VarId};

/// A definition site: the instruction at `pos` defines `var`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DefSite {
    /// Where the definition happens.
    pub pos: Position,
    /// The local variable (or local array, conservatively) defined.
    pub var: VarId,
}

/// Reaching-definition analysis results.
#[derive(Debug, Clone)]
pub struct ReachingDefs {
    /// All definition sites, in block/instruction order.
    pub defs: Vec<DefSite>,
    /// Bitset (one `Vec<u64>` per block) of definitions live at block entry.
    in_sets: Vec<Vec<u64>>,
    words: usize,
}

/// The local variables an instruction defines (scalar def or conservative
/// array def).
pub fn instr_defs(instr: &Instr) -> Vec<VarId> {
    instr.def().into_iter().chain(instr.array_def()).collect()
}

/// The local variables an instruction uses.
pub fn instr_uses(instr: &Instr) -> Vec<VarId> {
    let mut out = Vec::new();
    instr.for_each_use(&mut |v| {
        if !out.contains(&v) {
            out.push(v);
        }
    });
    out
}

/// The local variables a terminator uses.
pub fn term_uses(term: &Terminator) -> Vec<VarId> {
    match term {
        Terminator::Branch { cond, .. } => cond.vars_used(),
        Terminator::Goto(_) | Terminator::Return => Vec::new(),
    }
}

impl ReachingDefs {
    /// Runs the classic forward may-analysis to a fixpoint.
    pub fn compute(cfg: &Cfg) -> Self {
        // Enumerate definition sites.
        let mut defs = Vec::new();
        for b in cfg.block_ids() {
            for (i, instr) in cfg.block(b).instrs.iter().enumerate() {
                for var in instr_defs(instr) {
                    defs.push(DefSite {
                        pos: Position::new(b, i),
                        var,
                    });
                }
            }
        }
        let nd = defs.len();
        let words = nd.div_ceil(64).max(1);
        let nb = cfg.num_blocks();

        // defs_of_var: which def ids define each var (for KILL).
        let mut defs_of_var: std::collections::HashMap<VarId, Vec<usize>> = Default::default();
        for (i, d) in defs.iter().enumerate() {
            defs_of_var.entry(d.var).or_default().push(i);
        }

        // GEN/KILL per block.
        let mut gen = vec![vec![0u64; words]; nb];
        let mut kill = vec![vec![0u64; words]; nb];
        for (i, d) in defs.iter().enumerate() {
            let b = d.pos.block.index();
            set_bit(&mut gen[b], i);
            for &other in &defs_of_var[&d.var] {
                if other != i {
                    set_bit(&mut kill[b], other);
                }
            }
        }
        // Within a block, later defs of the same var kill earlier ones, but
        // block-level GEN keeps only the last def of each var.
        for b in cfg.block_ids() {
            let mut last: std::collections::HashMap<VarId, usize> = Default::default();
            for (i, d) in defs.iter().enumerate() {
                if d.pos.block == b {
                    last.insert(d.var, i);
                }
            }
            for (i, d) in defs.iter().enumerate() {
                if d.pos.block == b && last[&d.var] != i {
                    clear_bit(&mut gen[b.index()], i);
                }
            }
        }

        let preds = cfg.predecessors();
        let mut in_sets = vec![vec![0u64; words]; nb];
        let mut out_sets = vec![vec![0u64; words]; nb];
        let rpo = cfg.reverse_postorder();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                let bi = b.index();
                let mut inb = vec![0u64; words];
                for &p in preds.of(b) {
                    for w in 0..words {
                        inb[w] |= out_sets[p.index()][w];
                    }
                }
                let mut outb = vec![0u64; words];
                for w in 0..words {
                    outb[w] = gen[bi][w] | (inb[w] & !kill[bi][w]);
                }
                if inb != in_sets[bi] || outb != out_sets[bi] {
                    in_sets[bi] = inb;
                    out_sets[bi] = outb;
                    changed = true;
                }
            }
        }

        ReachingDefs {
            defs,
            in_sets,
            words,
        }
    }

    /// The definition sites of `var` that may reach the *use* at `pos`
    /// (i.e. live just before the instruction at `pos` executes).
    pub fn reaching(&self, cfg: &Cfg, pos: Position, var: VarId) -> Vec<DefSite> {
        let mut live = self.in_sets[pos.block.index()].clone();
        // Simulate the block prefix.
        for (i, instr) in cfg.block(pos.block).instrs.iter().enumerate() {
            if i >= pos.instr {
                break;
            }
            for v in instr_defs(instr) {
                // Kill all defs of v, then gen this one.
                for (d, site) in self.defs.iter().enumerate() {
                    if site.var == v {
                        clear_bit(&mut live, d);
                    }
                }
                if let Some(d) = self
                    .defs
                    .iter()
                    .position(|s| s.pos == Position::new(pos.block, i) && s.var == v)
                {
                    set_bit(&mut live, d);
                }
            }
        }
        self.defs
            .iter()
            .enumerate()
            .filter(|(d, site)| site.var == var && get_bit(&live, *d))
            .map(|(_, site)| *site)
            .collect()
    }

    /// Number of definition sites found.
    pub fn num_defs(&self) -> usize {
        self.defs.len()
    }

    /// Internal bitset width in words (exposed for tests).
    pub fn words(&self) -> usize {
        self.words
    }
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

/// Whether two instructions have a local dataflow dependence that forbids
/// swapping their order (`first` currently executes before `second`).
///
/// Checks write-read, read-write, and write-write conflicts on locals.
/// Shared-memory constraints are handled separately by the delay set.
pub fn local_dependence(first: &Instr, second: &Instr) -> bool {
    // An instruction defines at most one local: a scalar or (element
    // writes, conservatively) a whole local array.
    let d1 = first.def().or(first.array_def());
    let d2 = second.def().or(second.array_def());
    // WAW.
    if d1.is_some() && d1 == d2 {
        return true;
    }
    let mut dependent = false;
    // RAW: second reads what first writes.
    if let Some(d1) = d1 {
        second.for_each_use(&mut |v| dependent |= v == d1);
    }
    // WAR: second overwrites what first reads.
    if let Some(d2) = d2 {
        first.for_each_use(&mut |v| dependent |= v == d2);
    }
    dependent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_main;
    use syncopt_frontend::prepare_program;

    fn analyzed(src: &str) -> (Cfg, ReachingDefs) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let rd = ReachingDefs::compute(&cfg);
        (cfg, rd)
    }

    fn var(cfg: &Cfg, name: &str) -> VarId {
        cfg.vars.by_name(name).unwrap()
    }

    #[test]
    fn straight_line_single_def_reaches_use() {
        let (cfg, rd) = analyzed("shared int X; fn main() { int a; a = 1; X = a; }");
        let a = var(&cfg, "a");
        // The PutShared is the last instruction of the entry block.
        let put_pos = cfg.accesses.iter().next().unwrap().1.pos;
        let reaching = rd.reaching(&cfg, put_pos, a);
        assert_eq!(reaching.len(), 1);
        assert_eq!(reaching[0].var, a);
    }

    #[test]
    fn redefinition_kills_earlier_def() {
        let (cfg, rd) = analyzed("shared int X; fn main() { int a; a = 1; a = 2; X = a; }");
        let a = var(&cfg, "a");
        let put_pos = cfg.accesses.iter().next().unwrap().1.pos;
        let reaching = rd.reaching(&cfg, put_pos, a);
        assert_eq!(reaching.len(), 1, "only the second def should reach");
        assert_eq!(reaching[0].pos.instr, 1);
    }

    #[test]
    fn branch_merges_definitions() {
        let (cfg, rd) = analyzed(
            r#"
            shared int X;
            fn main() {
                int a; a = 0;
                if (MYPROC == 0) { a = 1; } else { a = 2; }
                X = a;
            }
            "#,
        );
        let a = var(&cfg, "a");
        let put_pos = cfg.accesses.iter().next().unwrap().1.pos;
        let reaching = rd.reaching(&cfg, put_pos, a);
        assert_eq!(reaching.len(), 2, "both branch defs reach the join");
    }

    #[test]
    fn loop_def_reaches_header_use() {
        let (cfg, rd) = analyzed(
            r#"
            shared int X;
            fn main() {
                int i; i = 0;
                while (i < 4) { i = i + 1; }
                X = i;
            }
            "#,
        );
        let i = var(&cfg, "i");
        let put_pos = cfg.accesses.iter().next().unwrap().1.pos;
        let reaching = rd.reaching(&cfg, put_pos, i);
        assert_eq!(reaching.len(), 2, "initial def and loop def both reach");
    }

    #[test]
    fn local_dependence_detects_raw_war_waw() {
        let a = Instr::AssignLocal {
            dst: VarId(0),
            value: crate::expr::Expr::Int(1),
        };
        let reads0 = Instr::AssignLocal {
            dst: VarId(1),
            value: crate::expr::Expr::Local(VarId(0)),
        };
        let writes0 = Instr::AssignLocal {
            dst: VarId(0),
            value: crate::expr::Expr::Int(2),
        };
        let unrelated = Instr::AssignLocal {
            dst: VarId(2),
            value: crate::expr::Expr::Int(3),
        };
        assert!(local_dependence(&a, &reads0), "RAW");
        assert!(local_dependence(&reads0, &writes0), "WAR");
        assert!(local_dependence(&a, &writes0), "WAW");
        assert!(!local_dependence(&a, &unrelated));
    }

    #[test]
    fn work_and_sync_have_no_local_defs() {
        let (cfg, rd) = analyzed("flag f; fn main() { work(5); barrier; post f; }");
        assert_eq!(rd.num_defs(), 0);
        assert!(rd.words() >= 1);
        assert_eq!(cfg.accesses.len(), 2); // barrier + post (work is not an access)
    }

    #[test]
    fn local_array_defs_are_conservative() {
        let (cfg, rd) = analyzed(
            "shared int X; fn main() { int b[4]; b[0] = 1; b[1] = 2; int a; a = b[0]; X = a; }",
        );
        let b = var(&cfg, "b");
        // Both element writes count as defs of `b`.
        assert_eq!(rd.defs.iter().filter(|d| d.var == b).count(), 2);
    }
}
