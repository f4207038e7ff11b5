//! Local def/use facts for instruction motion.
//!
//! The paper's code generator consumes "the use-def graph for each
//! processor's variable accesses (obtained through standard sequential
//! compiler analysis)" (§6). Shared variables are *not* tracked here — they
//! are governed by the delay set; this module covers the processor-local
//! dataflow that constrains instruction motion: which locals an
//! instruction or terminator defines and uses, and whether two
//! instructions may be swapped.

use crate::cfg::{Instr, Terminator};
use crate::ids::VarId;

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
    use crate::cfg::Cfg;
    use crate::lower::lower_main;
    use syncopt_frontend::prepare_program;

    fn lowered(src: &str) -> Cfg {
        lower_main(&prepare_program(src).unwrap()).unwrap()
    }

    /// Every local definition in `cfg`, in block and instruction order.
    fn defs(cfg: &Cfg) -> Vec<VarId> {
        cfg.blocks
            .iter()
            .flat_map(|block| &block.instrs)
            .flat_map(instr_defs)
            .collect()
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
        let cfg = lowered("flag f; fn main() { work(5); barrier; post f; }");
        assert!(defs(&cfg).is_empty());
        assert_eq!(cfg.accesses.len(), 2); // barrier + post (work is not an access)
    }

    #[test]
    fn local_array_defs_are_conservative() {
        let cfg = lowered(
            "shared int X; fn main() { int b[4]; b[0] = 1; b[1] = 2; int a; a = b[0]; X = a; }",
        );
        let b = cfg.vars.by_name("b").unwrap();
        // Both element writes count as defs of `b`.
        assert_eq!(defs(&cfg).iter().filter(|&&d| d == b).count(), 2);
    }
}
