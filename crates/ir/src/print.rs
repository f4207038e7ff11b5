//! Human-readable CFG dumps: examples, tests, debugging, and the
//! canonical text behind the session's cache keys.
//!
//! One writer appends to a caller's buffer — names are copied in and
//! numbers formatted in place — so printing into a buffer that already has
//! room allocates nothing. [`cfg_to_string`], [`instr_to_string`],
//! [`expr_names`] and [`cfg_to_dot`] are thin callers of it.

use crate::cfg::{Cfg, Instr, Terminator};
use crate::expr::{Expr, SharedRef};
use crate::ids::VarId;
use std::fmt::Write;

/// Appends the whole CFG to `out`, one block per paragraph.
pub fn write_cfg(out: &mut String, cfg: &Cfg) {
    for b in cfg.block_ids() {
        write_number(out, "bb", b.0.into());
        out.push_str(match (b == cfg.entry, b == cfg.exit) {
            (true, true) => ": (entry, exit)\n",
            (true, false) => ": (entry)\n",
            (false, true) => ": (exit)\n",
            (false, false) => ":\n",
        });
        let block = cfg.block(b);
        for instr in &block.instrs {
            out.push_str("    ");
            write_instr(out, cfg, instr);
            out.push('\n');
        }
        match &block.term {
            Terminator::Goto(t) => write_number(out, "    goto bb", t.0.into()),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                out.push_str("    branch ");
                write_expr(out, cfg, cond);
                write_number(out, " ? bb", then_bb.0.into());
                write_number(out, " : bb", else_bb.0.into());
            }
            Terminator::Return => out.push_str("    return"),
        }
        out.push_str("\n\n");
    }
}

/// Appends an instruction to `out` using source-level variable names.
pub fn write_instr(out: &mut String, cfg: &Cfg, instr: &Instr) {
    let access = match instr {
        Instr::GetShared { access, dst, src } => {
            write_name(out, cfg, *dst);
            out.push_str(" = read ");
            write_ref(out, cfg, src);
            access
        }
        Instr::PutShared { access, dst, src } => {
            out.push_str("write ");
            write_ref(out, cfg, dst);
            out.push_str(" = ");
            write_expr(out, cfg, src);
            access
        }
        Instr::GetInit {
            access,
            dst,
            src,
            ctr,
        } => {
            out.push_str("get_ctr(");
            write_name(out, cfg, *dst);
            out.push_str(", ");
            write_ref(out, cfg, src);
            write_number(out, ", ctr", ctr.0.into());
            out.push(')');
            access
        }
        Instr::PutInit {
            access,
            dst,
            src,
            ctr,
        } => {
            out.push_str("put_ctr(");
            write_ref(out, cfg, dst);
            out.push_str(", ");
            write_expr(out, cfg, src);
            write_number(out, ", ctr", ctr.0.into());
            out.push(')');
            access
        }
        Instr::StoreInit { access, dst, src } => {
            out.push_str("store(");
            write_ref(out, cfg, dst);
            out.push_str(", ");
            write_expr(out, cfg, src);
            out.push(')');
            access
        }
        Instr::SyncCtr { ctr } => {
            write_number(out, "sync_ctr(ctr", ctr.0.into());
            out.push(')');
            return;
        }
        Instr::AssignLocal { dst, value } => {
            write_name(out, cfg, *dst);
            out.push_str(" = ");
            write_expr(out, cfg, value);
            return;
        }
        Instr::AssignLocalElem {
            array,
            index,
            value,
        } => {
            write_ref_parts(out, cfg, *array, Some(index));
            out.push_str(" = ");
            write_expr(out, cfg, value);
            return;
        }
        Instr::Work { cost } => {
            out.push_str("work(");
            write_expr(out, cfg, cost);
            out.push(')');
            return;
        }
        Instr::Post {
            access,
            flag,
            index,
        } => {
            out.push_str("post ");
            write_ref_parts(out, cfg, *flag, index.as_ref());
            access
        }
        Instr::Wait {
            access,
            flag,
            index,
        } => {
            out.push_str("wait ");
            write_ref_parts(out, cfg, *flag, index.as_ref());
            access
        }
        Instr::Barrier { access } => {
            out.push_str("barrier");
            access
        }
        Instr::LockAcq { access, lock } => {
            out.push_str("lock ");
            write_name(out, cfg, *lock);
            access
        }
        Instr::LockRel { access, lock } => {
            out.push_str("unlock ");
            write_name(out, cfg, *lock);
            access
        }
    };
    write_number(out, "    ; a", access.0.into());
}

/// Appends an expression to `out` using source-level variable names.
pub fn write_expr(out: &mut String, cfg: &Cfg, expr: &Expr) {
    match expr {
        Expr::Int(v) => {
            if *v < 0 {
                out.push('-');
            }
            write_number(out, "", v.unsigned_abs());
        }
        Expr::Float(v) => write!(out, "{v}").expect("writing to a String cannot fail"),
        Expr::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Expr::Local(v) => write_name(out, cfg, *v),
        Expr::LocalElem { array, index } => write_ref_parts(out, cfg, *array, Some(index)),
        Expr::MyProc => out.push_str("MYPROC"),
        Expr::Procs => out.push_str("PROCS"),
        Expr::Unary { op, expr } => {
            out.push_str(op.symbol());
            out.push('(');
            write_expr(out, cfg, expr);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs } => {
            out.push('(');
            write_expr(out, cfg, lhs);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(out, cfg, rhs);
            out.push(')');
        }
    }
}

fn write_name(out: &mut String, cfg: &Cfg, var: VarId) {
    out.push_str(&cfg.vars.info(var).name);
}

fn write_ref(out: &mut String, cfg: &Cfg, r: &SharedRef) {
    write_ref_parts(out, cfg, r.var, r.index.as_ref());
}

/// `name`, or `name[index]` when there is an index.
fn write_ref_parts(out: &mut String, cfg: &Cfg, var: VarId, index: Option<&Expr>) {
    write_name(out, cfg, var);
    if let Some(index) = index {
        out.push('[');
        write_expr(out, cfg, index);
        out.push(']');
    }
}

/// Appends `prefix`, then `n` in decimal.
fn write_number(out: &mut String, prefix: &str, mut n: u64) {
    out.push_str(prefix);
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// Renders an instruction using source-level variable names.
pub fn instr_to_string(cfg: &Cfg, instr: &Instr) -> String {
    let mut out = String::new();
    write_instr(&mut out, cfg, instr);
    out
}

/// Renders an expression using source-level variable names.
pub fn expr_names(cfg: &Cfg, expr: &Expr) -> String {
    let mut out = String::new();
    write_expr(&mut out, cfg, expr);
    out
}

/// Renders the whole CFG, one block per paragraph.
pub fn cfg_to_string(cfg: &Cfg) -> String {
    let mut out = String::new();
    write_cfg(&mut out, cfg);
    out
}

/// Renders the CFG as a Graphviz `dot` digraph (one record node per block).
pub fn cfg_to_dot(cfg: &Cfg, title: &str) -> String {
    let mut out = format!("digraph \"{title}\" {{\n");
    out.push_str("    node [shape=box, fontname=\"monospace\"];\n");
    let mut text = String::new();
    for b in cfg.block_ids() {
        write_number(&mut out, "    bb", b.0.into());
        write_number(&mut out, " [label=\"bb", b.0.into());
        if b == cfg.entry {
            out.push_str(" (entry)");
        }
        if b == cfg.exit {
            out.push_str(" (exit)");
        }
        out.push_str("\\l");
        for instr in &cfg.block(b).instrs {
            text.clear();
            write_instr(&mut text, cfg, instr);
            push_dot_escaped(&mut out, &text, true);
            out.push_str("\\l");
        }
        out.push_str("\"];\n");
        match &cfg.block(b).term {
            Terminator::Goto(t) => {
                write_number(&mut out, "    bb", b.0.into());
                write_number(&mut out, " -> bb", t.0.into());
                out.push_str(";\n");
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                text.clear();
                write_expr(&mut text, cfg, cond);
                write_number(&mut out, "    bb", b.0.into());
                write_number(&mut out, " -> bb", then_bb.0.into());
                out.push_str(" [label=\"");
                push_dot_escaped(&mut out, &text, false);
                out.push_str("\"];\n");
                write_number(&mut out, "    bb", b.0.into());
                write_number(&mut out, " -> bb", else_bb.0.into());
                out.push_str(" [label=\"!\"];\n");
            }
            Terminator::Return => {}
        }
    }
    out.push_str("}\n");
    out
}

/// Appends `text` with each `"` escaped, and each `\` too when
/// `backslashes` is set (branch labels escape quotes only).
fn push_dot_escaped(out: &mut String, text: &str, backslashes: bool) {
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' if backslashes => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_main;
    use syncopt_frontend::prepare_program;

    #[test]
    fn dot_output_is_well_formed() {
        let cfg = lower_main(
            &prepare_program(
                "shared int X; fn main() { if (MYPROC == 0) { X = 1; } else { X = 2; } }",
            )
            .unwrap(),
        )
        .unwrap();
        let dot = cfg_to_dot(&cfg, "test");
        assert!(dot.starts_with("digraph \"test\" {"), "{dot}");
        assert!(dot.trim_end().ends_with('}'));
        // One node per block and at least the branch edges.
        for b in cfg.block_ids() {
            assert!(dot.contains(&format!("{b} [label=")), "{dot}");
        }
        assert!(dot.contains("->"));
        assert!(dot.contains("(entry)"));
        assert!(dot.contains("(exit)"));
        // Balanced braces.
        assert_eq!(dot.matches('{').count(), dot.matches('}').count());
    }

    #[test]
    fn dump_contains_source_names_and_access_ids() {
        let cfg = lower_main(
            &prepare_program(
                "shared int X; shared double A[4]; flag f; fn main() { int v; v = X; A[v] = 1.0; post f; }",
            )
            .unwrap(),
        )
        .unwrap();
        let dump = cfg_to_string(&cfg);
        assert!(dump.contains("read X"), "{dump}");
        assert!(dump.contains("write A["), "{dump}");
        assert!(dump.contains("post f"), "{dump}");
        assert!(dump.contains("; a0"), "{dump}");
        assert!(dump.contains("(entry)"), "{dump}");
        assert!(dump.contains("return"), "{dump}");
    }

    #[test]
    fn dump_shows_branches() {
        let cfg =
            lower_main(&prepare_program("fn main() { if (MYPROC == 0) { work(1); } }").unwrap())
                .unwrap();
        let dump = cfg_to_string(&cfg);
        assert!(dump.contains("branch (MYPROC == 0) ?"), "{dump}");
    }
}
