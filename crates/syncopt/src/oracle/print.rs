//! The CFG printer as it was before it wrote into one buffer: a `String`
//! per name, sub-expression and instruction, built with `format!`. Kept as
//! what `syncopt_ir::print` is compared against.

use std::fmt::Write;
use syncopt_ir::cfg::{Cfg, Instr, Terminator};

/// Renders an instruction using source-level variable names.
pub(super) fn instr_to_string(cfg: &Cfg, instr: &Instr) -> String {
    let name = |v: syncopt_ir::ids::VarId| cfg.vars.info(v).name.clone();
    let sref = |r: &syncopt_ir::expr::SharedRef| match &r.index {
        Some(idx) => format!("{}[{}]", name(r.var), expr_names(cfg, idx)),
        None => name(r.var),
    };
    match instr {
        Instr::GetShared { access, dst, src } => {
            format!("{} = read {}    ; {access}", name(*dst), sref(src))
        }
        Instr::PutShared { access, dst, src } => {
            format!(
                "write {} = {}    ; {access}",
                sref(dst),
                expr_names(cfg, src)
            )
        }
        Instr::GetInit {
            access,
            dst,
            src,
            ctr,
        } => format!(
            "get_ctr({}, {}, {ctr})    ; {access}",
            name(*dst),
            sref(src)
        ),
        Instr::PutInit {
            access,
            dst,
            src,
            ctr,
        } => format!(
            "put_ctr({}, {}, {ctr})    ; {access}",
            sref(dst),
            expr_names(cfg, src)
        ),
        Instr::StoreInit { access, dst, src } => {
            format!(
                "store({}, {})    ; {access}",
                sref(dst),
                expr_names(cfg, src)
            )
        }
        Instr::SyncCtr { ctr } => format!("sync_ctr({ctr})"),
        Instr::AssignLocal { dst, value } => {
            format!("{} = {}", name(*dst), expr_names(cfg, value))
        }
        Instr::AssignLocalElem {
            array,
            index,
            value,
        } => format!(
            "{}[{}] = {}",
            name(*array),
            expr_names(cfg, index),
            expr_names(cfg, value)
        ),
        Instr::Work { cost } => format!("work({})", expr_names(cfg, cost)),
        Instr::Post {
            access,
            flag,
            index,
        } => match index {
            Some(idx) => format!(
                "post {}[{}]    ; {access}",
                name(*flag),
                expr_names(cfg, idx)
            ),
            None => format!("post {}    ; {access}", name(*flag)),
        },
        Instr::Wait {
            access,
            flag,
            index,
        } => match index {
            Some(idx) => format!(
                "wait {}[{}]    ; {access}",
                name(*flag),
                expr_names(cfg, idx)
            ),
            None => format!("wait {}    ; {access}", name(*flag)),
        },
        Instr::Barrier { access } => format!("barrier    ; {access}"),
        Instr::LockAcq { access, lock } => format!("lock {}    ; {access}", name(*lock)),
        Instr::LockRel { access, lock } => format!("unlock {}    ; {access}", name(*lock)),
    }
}

/// Renders an expression using source-level variable names.
pub(super) fn expr_names(cfg: &Cfg, expr: &syncopt_ir::expr::Expr) -> String {
    use syncopt_ir::expr::Expr;
    match expr {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => v.to_string(),
        Expr::Bool(v) => v.to_string(),
        Expr::Local(v) => cfg.vars.info(*v).name.clone(),
        Expr::LocalElem { array, index } => {
            format!("{}[{}]", cfg.vars.info(*array).name, expr_names(cfg, index))
        }
        Expr::MyProc => "MYPROC".to_string(),
        Expr::Procs => "PROCS".to_string(),
        Expr::Unary { op, expr } => format!("{op}({})", expr_names(cfg, expr)),
        Expr::Binary { op, lhs, rhs } => {
            format!("({} {op} {})", expr_names(cfg, lhs), expr_names(cfg, rhs))
        }
    }
}

/// Renders the whole CFG, one block per paragraph.
pub(super) fn cfg_to_string(cfg: &Cfg) -> String {
    let mut out = String::new();
    for b in cfg.block_ids() {
        let tags = [
            (b == cfg.entry).then_some("entry"),
            (b == cfg.exit).then_some("exit"),
        ]
        .into_iter()
        .flatten()
        .collect::<Vec<_>>()
        .join(", ");
        if tags.is_empty() {
            writeln!(out, "{b}:").unwrap();
        } else {
            writeln!(out, "{b}: ({tags})").unwrap();
        }
        for instr in &cfg.block(b).instrs {
            writeln!(out, "    {}", instr_to_string(cfg, instr)).unwrap();
        }
        match &cfg.block(b).term {
            Terminator::Goto(t) => writeln!(out, "    goto {t}").unwrap(),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => writeln!(
                out,
                "    branch {} ? {then_bb} : {else_bb}",
                expr_names(cfg, cond)
            )
            .unwrap(),
            Terminator::Return => writeln!(out, "    return").unwrap(),
        }
        out.push('\n');
    }
    out
}

/// Renders the CFG as a Graphviz `dot` digraph (one record node per block).
pub(super) fn cfg_to_dot(cfg: &Cfg, title: &str) -> String {
    let mut out = String::new();
    writeln!(out, "digraph \"{title}\" {{").unwrap();
    writeln!(out, "    node [shape=box, fontname=\"monospace\"];").unwrap();
    for b in cfg.block_ids() {
        let mut label = format!("{b}");
        if b == cfg.entry {
            label.push_str(" (entry)");
        }
        if b == cfg.exit {
            label.push_str(" (exit)");
        }
        label.push_str("\\l");
        for instr in &cfg.block(b).instrs {
            let line = instr_to_string(cfg, instr)
                .replace('\\', "\\\\")
                .replace('"', "\\\"");
            label.push_str(&line);
            label.push_str("\\l");
        }
        writeln!(out, "    {b} [label=\"{label}\"];").unwrap();
        match &cfg.block(b).term {
            Terminator::Goto(t) => writeln!(out, "    {b} -> {t};").unwrap(),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = expr_names(cfg, cond).replace('"', "\\\"");
                writeln!(out, "    {b} -> {then_bb} [label=\"{c}\"];").unwrap();
                writeln!(out, "    {b} -> {else_bb} [label=\"!\"];").unwrap();
            }
            Terminator::Return => {}
        }
    }
    writeln!(out, "}}").unwrap();
    out
}
