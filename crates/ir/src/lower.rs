//! AST → CFG lowering.
//!
//! Works on a prepared program (type checked, all calls inlined — see
//! [`syncopt_frontend::prepare_program`]). Lowering:
//!
//! * flattens structured control flow into basic blocks;
//! * hoists every shared read into a blocking [`Instr::GetShared`] targeting
//!   a fresh compiler temporary, so all expressions become local-pure;
//! * turns every shared write into a blocking [`Instr::PutShared`];
//! * records an [`AccessInfo`] for each shared access and synchronization
//!   operation.

use crate::access::{AccessInfo, AccessKind, AccessTable};
use crate::cfg::{Block, Cfg, Instr, Terminator};
use crate::expr::{Expr, SharedRef};
use crate::ids::{AccessId, BlockId, Position, VarId};
use crate::vars::{VarInfo, VarKind, VarTable};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use syncopt_frontend::ast;
use syncopt_frontend::ast::{Program, StmtKind, Type};
use syncopt_frontend::span::Span;

/// An error produced during lowering.
///
/// These indicate contract violations (e.g. lowering a program that was not
/// prepared) rather than user-facing diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerError {
    message: String,
    span: Span,
}

impl LowerError {
    fn new(span: Span, message: impl Into<String>) -> Self {
        LowerError {
            message: message.into(),
            span,
        }
    }

    /// The explanation of what went wrong.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The source span the error refers to (dummy when the failure has no
    /// single source location, e.g. a missing `main`).
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error at {}: {}", self.span, self.message)
    }
}

impl Error for LowerError {}

/// Lowers the `main` function of a prepared program to a CFG.
///
/// # Errors
///
/// Returns a [`LowerError`] if the program still contains calls (it was not
/// inlined), names an undeclared variable, or has no `main`.
pub fn lower_main(program: &Program) -> Result<Cfg, LowerError> {
    let main = program
        .function("main")
        .ok_or_else(|| LowerError::new(Span::dummy(), "program has no `main` function"))?;

    let mut vars = VarTable::new();
    let mut names: HashMap<String, VarId> = HashMap::new();
    for decl in &program.decls {
        let (kind, ty) = match decl {
            ast::Decl::SharedScalar { ty, .. } => (VarKind::SharedScalar, *ty),
            ast::Decl::SharedArray { ty, len, .. } => (VarKind::SharedArray { len: *len }, *ty),
            ast::Decl::Flag { .. } => (VarKind::Flag, Type::Flag),
            ast::Decl::FlagArray { len, .. } => (VarKind::FlagArray { len: *len }, Type::Flag),
            ast::Decl::Lock { .. } => (VarKind::Lock, Type::Lock),
        };
        let id = vars.push(VarInfo {
            name: decl.name().to_string(),
            kind,
            ty,
        });
        names.insert(decl.name().to_string(), id);
    }

    let mut lowerer = Lowerer {
        cfg: Cfg {
            blocks: vec![
                Block::new(Terminator::Goto(BlockId(1))), // entry (placeholder)
                Block::new(Terminator::Return),           // exit
            ],
            entry: BlockId(0),
            exit: BlockId(1),
            vars,
            accesses: AccessTable::new(),
            num_ctrs: 0,
        },
        names,
        current: BlockId(0),
        temp_counter: 0,
    };

    lowerer.lower_stmts(&main.body)?;
    // Fall off the end of main → exit.
    lowerer.set_term(Terminator::Goto(lowerer.cfg.exit));
    let mut cfg = lowerer.cfg;
    cfg.recompute_access_positions();
    debug_assert_eq!(cfg.validate(), Ok(()));
    Ok(cfg)
}

struct Lowerer {
    cfg: Cfg,
    names: HashMap<String, VarId>,
    current: BlockId,
    temp_counter: u32,
}

impl Lowerer {
    fn fresh_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.cfg.blocks.len());
        // Placeholder terminator; always overwritten or left as a self-loop
        // guard that validate() would reject if we forgot.
        self.cfg.blocks.push(Block::new(Terminator::Goto(id)));
        id
    }

    fn set_term(&mut self, term: Terminator) {
        self.cfg.block_mut(self.current).term = term;
    }

    fn emit(&mut self, instr: Instr) {
        self.cfg.block_mut(self.current).instrs.push(instr);
    }

    fn fresh_temp(&mut self, ty: Type) -> VarId {
        let name = format!("%t{}", self.temp_counter);
        self.temp_counter += 1;
        self.cfg.vars.push(VarInfo {
            name,
            kind: VarKind::Local,
            ty,
        })
    }

    fn add_access(
        &mut self,
        kind: AccessKind,
        var: Option<VarId>,
        index: Option<Expr>,
        span: Span,
    ) -> AccessId {
        // Position is provisional; recomputed after lowering.
        let pos = Position::new(self.current, self.cfg.block(self.current).instrs.len());
        self.cfg.add_access(AccessInfo {
            kind,
            var,
            index,
            pos,
            span,
        })
    }

    fn lookup(&self, name: &str, span: Span) -> Result<VarId, LowerError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| LowerError::new(span, format!("undeclared variable `{name}`")))
    }

    fn var_ty(&self, id: VarId) -> Type {
        self.cfg.vars.info(id).ty
    }

    // ---- statements ------------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[ast::Stmt]) -> Result<(), LowerError> {
        for stmt in stmts {
            self.lower_stmt(stmt)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, stmt: &ast::Stmt) -> Result<(), LowerError> {
        let span = stmt.span;
        match &stmt.kind {
            StmtKind::LocalDecl {
                name,
                ty,
                len,
                init,
            } => {
                let kind = match len {
                    Some(n) => VarKind::LocalArray { len: *n },
                    None => VarKind::Local,
                };
                let id = self.cfg.vars.push(VarInfo {
                    name: name.clone(),
                    kind,
                    ty: *ty,
                });
                self.names.insert(name.clone(), id);
                if let Some(init) = init {
                    let value = self.lower_expr(init)?;
                    self.emit(Instr::AssignLocal { dst: id, value });
                }
                Ok(())
            }
            StmtKind::Assign { lhs, rhs } => {
                // Fuse `local = <shared read>` into a single GetShared so
                // the split-phase optimizer is not pinned by a temp copy.
                if let ast::LValue::Var { name, span: lspan } = lhs {
                    let dst = self.names.get(name).copied();
                    let src = self.shared_read_target(rhs).map(|(v, i)| (v, i.cloned()));
                    if let (Some(dst), Some((src_var, idx_ast))) = (dst, src) {
                        if self.cfg.vars.info(dst).kind == VarKind::Local
                            && self.cfg.vars.info(dst).ty == self.cfg.vars.info(src_var).ty
                        {
                            let idx = idx_ast.as_ref().map(|e| self.lower_expr(e)).transpose()?;
                            let access = self.add_access(
                                AccessKind::Read,
                                Some(src_var),
                                idx.clone(),
                                *lspan,
                            );
                            let src = match idx {
                                Some(i) => SharedRef::element(src_var, i),
                                None => SharedRef::scalar(src_var),
                            };
                            self.emit(Instr::GetShared { access, dst, src });
                            return Ok(());
                        }
                    }
                }
                let value = self.lower_expr(rhs)?;
                match lhs {
                    ast::LValue::Var { name, span } => {
                        let var = self.lookup(name, *span)?;
                        match self.cfg.vars.info(var).kind {
                            VarKind::SharedScalar => {
                                let access =
                                    self.add_access(AccessKind::Write, Some(var), None, *span);
                                self.emit(Instr::PutShared {
                                    access,
                                    dst: SharedRef::scalar(var),
                                    src: value,
                                });
                            }
                            VarKind::Local => {
                                self.emit(Instr::AssignLocal { dst: var, value });
                            }
                            other => {
                                return Err(LowerError::new(
                                    *span,
                                    format!("cannot assign to variable of kind {other:?}"),
                                ))
                            }
                        }
                    }
                    ast::LValue::ArrayElem { name, index, span } => {
                        let var = self.lookup(name, *span)?;
                        let idx = self.lower_expr(index)?;
                        match self.cfg.vars.info(var).kind {
                            VarKind::SharedArray { .. } => {
                                let access = self.add_access(
                                    AccessKind::Write,
                                    Some(var),
                                    Some(idx.clone()),
                                    *span,
                                );
                                self.emit(Instr::PutShared {
                                    access,
                                    dst: SharedRef::element(var, idx),
                                    src: value,
                                });
                            }
                            VarKind::LocalArray { .. } => {
                                self.emit(Instr::AssignLocalElem {
                                    array: var,
                                    index: idx,
                                    value,
                                });
                            }
                            other => {
                                return Err(LowerError::new(
                                    *span,
                                    format!("cannot index variable of kind {other:?}"),
                                ))
                            }
                        }
                    }
                }
                Ok(())
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.lower_expr(cond)?;
                let then_bb = self.fresh_block();
                let else_bb = self.fresh_block();
                let join_bb = self.fresh_block();
                self.set_term(Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                });
                self.current = then_bb;
                self.lower_stmts(then_branch)?;
                self.set_term(Terminator::Goto(join_bb));
                self.current = else_bb;
                self.lower_stmts(else_branch)?;
                self.set_term(Terminator::Goto(join_bb));
                self.current = join_bb;
                Ok(())
            }
            StmtKind::While { cond, body } => {
                let header = self.fresh_block();
                self.set_term(Terminator::Goto(header));
                self.current = header;
                // Shared reads in the condition are re-issued each iteration
                // because they are emitted into the (re-entered) header.
                let cond = self.lower_expr(cond)?;
                let body_bb = self.fresh_block();
                let exit_bb = self.fresh_block();
                self.set_term(Terminator::Branch {
                    cond,
                    then_bb: body_bb,
                    else_bb: exit_bb,
                });
                self.current = body_bb;
                self.lower_stmts(body)?;
                self.set_term(Terminator::Goto(header));
                self.current = exit_bb;
                Ok(())
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.lower_stmt(init)?;
                let header = self.fresh_block();
                self.set_term(Terminator::Goto(header));
                self.current = header;
                let cond = self.lower_expr(cond)?;
                let body_bb = self.fresh_block();
                let exit_bb = self.fresh_block();
                self.set_term(Terminator::Branch {
                    cond,
                    then_bb: body_bb,
                    else_bb: exit_bb,
                });
                self.current = body_bb;
                self.lower_stmts(body)?;
                self.lower_stmt(step)?;
                self.set_term(Terminator::Goto(header));
                self.current = exit_bb;
                Ok(())
            }
            StmtKind::Barrier => {
                let access = self.add_access(AccessKind::Barrier, None, None, span);
                self.emit(Instr::Barrier { access });
                Ok(())
            }
            StmtKind::Post { flag, index } => {
                let var = self.lookup(flag, span)?;
                let idx = index.as_ref().map(|e| self.lower_expr(e)).transpose()?;
                let access = self.add_access(AccessKind::Post, Some(var), idx.clone(), span);
                self.emit(Instr::Post {
                    access,
                    flag: var,
                    index: idx,
                });
                Ok(())
            }
            StmtKind::Wait { flag, index } => {
                let var = self.lookup(flag, span)?;
                let idx = index.as_ref().map(|e| self.lower_expr(e)).transpose()?;
                let access = self.add_access(AccessKind::Wait, Some(var), idx.clone(), span);
                self.emit(Instr::Wait {
                    access,
                    flag: var,
                    index: idx,
                });
                Ok(())
            }
            StmtKind::Lock { lock } => {
                let var = self.lookup(lock, span)?;
                let access = self.add_access(AccessKind::LockAcq, Some(var), None, span);
                self.emit(Instr::LockAcq { access, lock: var });
                Ok(())
            }
            StmtKind::Unlock { lock } => {
                let var = self.lookup(lock, span)?;
                let access = self.add_access(AccessKind::LockRel, Some(var), None, span);
                self.emit(Instr::LockRel { access, lock: var });
                Ok(())
            }
            StmtKind::Work { cost } => {
                let cost = self.lower_expr(cost)?;
                self.emit(Instr::Work { cost });
                Ok(())
            }
            StmtKind::Return => {
                let exit = self.cfg.exit;
                self.set_term(Terminator::Goto(exit));
                // Statements after `return` are unreachable; park them in a
                // fresh block that nothing jumps to.
                self.current = self.fresh_block();
                self.set_term(Terminator::Goto(exit));
                Ok(())
            }
            StmtKind::Block(stmts) => self.lower_stmts(stmts),
            StmtKind::Call { name, .. } => Err(LowerError::new(
                span,
                format!("call to `{name}` survived inlining; lower a prepared program"),
            )),
        }
    }

    /// If `rhs` is exactly a read of a shared scalar or shared array
    /// element, returns the variable and the (un-lowered) index.
    fn shared_read_target<'e>(&self, rhs: &'e ast::Expr) -> Option<(VarId, Option<&'e ast::Expr>)> {
        match &rhs.kind {
            ast::ExprKind::Var(n) => {
                let v = self.names.get(n).copied()?;
                matches!(self.cfg.vars.info(v).kind, VarKind::SharedScalar).then_some((v, None))
            }
            ast::ExprKind::ArrayElem { name, index } => {
                let v = self.names.get(name).copied()?;
                matches!(self.cfg.vars.info(v).kind, VarKind::SharedArray { .. })
                    .then_some((v, Some(index.as_ref())))
            }
            _ => None,
        }
    }

    // ---- expressions -------------------------------------------------------

    /// Lowers an AST expression to a local-pure IR expression, emitting
    /// `GetShared` instructions for shared reads.
    fn lower_expr(&mut self, expr: &ast::Expr) -> Result<Expr, LowerError> {
        let span = expr.span;
        match &expr.kind {
            ast::ExprKind::IntLit(v) => Ok(Expr::Int(*v)),
            ast::ExprKind::FloatLit(v) => Ok(Expr::Float(*v)),
            ast::ExprKind::BoolLit(v) => Ok(Expr::Bool(*v)),
            ast::ExprKind::MyProc => Ok(Expr::MyProc),
            ast::ExprKind::Procs => Ok(Expr::Procs),
            ast::ExprKind::Var(name) => {
                let var = self.lookup(name, span)?;
                match self.cfg.vars.info(var).kind {
                    VarKind::Local => Ok(Expr::Local(var)),
                    VarKind::SharedScalar => {
                        let ty = self.var_ty(var);
                        let tmp = self.fresh_temp(ty);
                        let access = self.add_access(AccessKind::Read, Some(var), None, span);
                        self.emit(Instr::GetShared {
                            access,
                            dst: tmp,
                            src: SharedRef::scalar(var),
                        });
                        Ok(Expr::Local(tmp))
                    }
                    other => Err(LowerError::new(
                        span,
                        format!("cannot read variable of kind {other:?} as a scalar"),
                    )),
                }
            }
            ast::ExprKind::ArrayElem { name, index } => {
                let var = self.lookup(name, span)?;
                let idx = self.lower_expr(index)?;
                match self.cfg.vars.info(var).kind {
                    VarKind::LocalArray { .. } => Ok(Expr::LocalElem {
                        array: var,
                        index: Box::new(idx),
                    }),
                    VarKind::SharedArray { .. } => {
                        let ty = self.var_ty(var);
                        let tmp = self.fresh_temp(ty);
                        let access =
                            self.add_access(AccessKind::Read, Some(var), Some(idx.clone()), span);
                        self.emit(Instr::GetShared {
                            access,
                            dst: tmp,
                            src: SharedRef::element(var, idx),
                        });
                        Ok(Expr::Local(tmp))
                    }
                    other => Err(LowerError::new(
                        span,
                        format!("cannot index variable of kind {other:?}"),
                    )),
                }
            }
            ast::ExprKind::Unary { op, expr } => {
                let inner = self.lower_expr(expr)?;
                Ok(Expr::Unary {
                    op: *op,
                    expr: Box::new(inner),
                })
            }
            ast::ExprKind::Binary { op, lhs, rhs } => {
                let l = self.lower_expr(lhs)?;
                let r = self.lower_expr(rhs)?;
                Ok(Expr::Binary {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;

    fn lower(src: &str) -> Cfg {
        let program = prepare_program(src).expect("frontend should accept");
        lower_main(&program).expect("lowering should succeed")
    }

    fn count_instrs(cfg: &Cfg, pred: impl Fn(&Instr) -> bool) -> usize {
        cfg.blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(i))
            .count()
    }

    #[test]
    fn shared_reads_are_hoisted() {
        let cfg = lower("shared int X; shared int Y; fn main() { int a; a = X + Y * X; }");
        // Three reads (X, Y, X) — no caching at lowering time.
        assert_eq!(
            count_instrs(&cfg, |i| matches!(i, Instr::GetShared { .. })),
            3
        );
        assert_eq!(cfg.accesses.len(), 3);
        assert!(cfg.accesses.iter().all(|(_, a)| a.kind == AccessKind::Read));
    }

    #[test]
    fn shared_write_becomes_put() {
        let cfg = lower("shared int X; fn main() { X = MYPROC + 1; }");
        assert_eq!(
            count_instrs(&cfg, |i| matches!(i, Instr::PutShared { .. })),
            1
        );
        assert_eq!(cfg.accesses.len(), 1);
        assert_eq!(
            cfg.accesses.iter().next().unwrap().1.kind,
            AccessKind::Write
        );
    }

    #[test]
    fn local_assignments_do_not_create_accesses() {
        let cfg = lower("fn main() { int a; int b[4]; a = 3; b[a] = a * 2; }");
        assert_eq!(cfg.accesses.len(), 0);
        assert_eq!(
            count_instrs(&cfg, |i| matches!(i, Instr::AssignLocal { .. })),
            1
        );
        assert_eq!(
            count_instrs(&cfg, |i| matches!(i, Instr::AssignLocalElem { .. })),
            1
        );
    }

    #[test]
    fn if_produces_diamond() {
        let cfg =
            lower("shared int X; fn main() { if (MYPROC == 0) { X = 1; } else { X = 2; } X = 3; }");
        cfg.validate().unwrap();
        // entry, exit, then, else, join
        assert_eq!(cfg.num_blocks(), 5);
        let branch_blocks: Vec<_> = cfg
            .block_ids()
            .filter(|&b| matches!(cfg.block(b).term, Terminator::Branch { .. }))
            .collect();
        assert_eq!(branch_blocks.len(), 1);
    }

    #[test]
    fn while_loop_reissues_condition_reads() {
        let cfg = lower("shared int N; fn main() { int i; i = 0; while (i < N) { i = i + 1; } }");
        cfg.validate().unwrap();
        // The read of N sits in the loop header, which has ≥2 predecessors.
        let (read_id, info) = cfg.accesses.iter().next().unwrap();
        assert_eq!(info.kind, AccessKind::Read);
        let preds = cfg.predecessors();
        assert!(
            preds.of(info.pos.block).len() >= 2,
            "header of while should have 2+ preds; access {read_id} at {}",
            info.pos
        );
    }

    #[test]
    fn for_loop_lowers_like_while() {
        let cfg = lower(
            "shared double A[8]; fn main() { int i; for (i = 0; i < 8; i = i + 1) { A[i] = 1.0; } }",
        );
        cfg.validate().unwrap();
        assert_eq!(
            count_instrs(&cfg, |i| matches!(i, Instr::PutShared { .. })),
            1
        );
    }

    #[test]
    fn sync_statements_create_access_records() {
        let cfg = lower(
            r#"
            flag f; flag g[4]; lock l;
            fn main() {
                barrier;
                post f;
                wait g[MYPROC];
                lock l;
                unlock l;
            }
            "#,
        );
        let kinds: Vec<AccessKind> = cfg.accesses.iter().map(|(_, a)| a.kind).collect();
        assert_eq!(
            kinds,
            vec![
                AccessKind::Barrier,
                AccessKind::Post,
                AccessKind::Wait,
                AccessKind::LockAcq,
                AccessKind::LockRel,
            ]
        );
        // Indexed wait keeps its index expression.
        let wait = cfg
            .accesses
            .iter()
            .find(|(_, a)| a.kind == AccessKind::Wait);
        assert!(wait.unwrap().1.index.is_some());
    }

    #[test]
    fn return_jumps_to_exit() {
        let cfg = lower("shared int X; fn main() { if (MYPROC == 0) { return; } X = 1; }");
        cfg.validate().unwrap();
        // The write to X must still be reachable from entry.
        let rpo = cfg.reverse_postorder();
        let write_block = cfg.accesses.iter().next().unwrap().1.pos.block;
        let reachable_prefix: Vec<_> = rpo
            .iter()
            .take_while(|_| true) // rpo includes unreachable at the end; check membership
            .collect();
        assert!(reachable_prefix.iter().any(|&&b| b == write_block));
    }

    #[test]
    fn access_positions_match_instructions() {
        let cfg = lower(
            "shared int X; shared double A[4]; fn main() { int i; i = X; A[i] = 2.0; X = i; }",
        );
        for (id, _) in cfg.accesses.iter() {
            let instr = cfg.instr_for_access(id);
            assert!(instr.is_some(), "access {id} has stale position");
        }
    }

    #[test]
    fn direct_assignment_fuses_into_get() {
        // `x = D;` produces a GetShared straight into `x`, with no temp.
        let cfg = lower("shared double D; fn main() { double x; x = D; }");
        let get = cfg
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .find_map(|i| match i {
                Instr::GetShared { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        assert_eq!(cfg.vars.info(get).name, "x");
        assert_eq!(
            count_instrs(&cfg, |i| matches!(i, Instr::AssignLocal { .. })),
            0
        );
    }

    #[test]
    fn widening_assignment_is_not_fused() {
        // `d = I;` (int → double) must keep the conversion copy.
        let cfg = lower("shared int I; fn main() { double d; d = I; }");
        assert_eq!(
            count_instrs(&cfg, |i| matches!(i, Instr::AssignLocal { .. })),
            1
        );
    }

    #[test]
    fn temps_are_typed_like_their_source() {
        let cfg = lower("shared double D; fn main() { double x; x = D + 1.0; }");
        let get = cfg
            .blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .find_map(|i| match i {
                Instr::GetShared { dst, .. } => Some(*dst),
                _ => None,
            })
            .unwrap();
        assert_eq!(cfg.vars.info(get).ty, Type::Double);
        assert!(cfg.vars.info(get).name.starts_with('%'));
    }

    #[test]
    fn rejects_unprepared_program_with_calls() {
        let program = syncopt_frontend::check_program("fn f() {} fn main() { f(); }").unwrap();
        let err = lower_main(&program).unwrap_err();
        assert!(err.message().contains("inlining"), "{err}");
    }
}
