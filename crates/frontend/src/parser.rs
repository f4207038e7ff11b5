//! Recursive-descent parser for `minisplit`.
//!
//! Expression parsing uses precedence climbing. The grammar is LL(2) — the
//! only lookahead beyond one token distinguishes `x = e;` from `f(...);` and
//! array lvalues.
//!
//! The parser is recursive, and so is everything that later walks what it
//! builds (the type checker, inlining, lowering, folding, `Drop`), so it
//! bounds both: [`MAX_NESTING`] limits how deep the parser recurses and how
//! tall an expression tree grows, and a program past it is refused with a
//! [`FrontendErrorKind::Nesting`](crate::error::FrontendErrorKind::Nesting)
//! error instead of overflowing the stack of the thread that parsed it.

use crate::ast::{
    BinOp, Decl, Expr, ExprKind, Function, LValue, Param, Program, Stmt, StmtKind, Type, UnOp,
};
use crate::error::FrontendError;
use crate::span::Span;
use crate::token::{Token, TokenKind};

/// How deep a program may nest. Blocks (`{ }`, and each `else if` arm),
/// parenthesized and subscript expressions, unary operands and the right
/// operands of binary operators each open one level; independently, no
/// expression tree may be taller than this (a chain `1 + 1 + 1 + …` grows
/// one level per operator without nesting anything). Programs written by
/// people nest a dozen levels; the bound keeps every recursive walk of the
/// AST inside a 2 MiB thread stack, debug builds included.
pub const MAX_NESTING: usize = 128;

/// A `minisplit` parser over a pre-lexed token stream.
pub struct Parser<'a> {
    #[allow(dead_code)]
    src: &'a str,
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Levels (see [`MAX_NESTING`]) open around `pos`.
    depth: usize,
}

/// An expression with the height of its tree (a leaf is 1).
type Tall = (Expr, usize);

impl<'a> Parser<'a> {
    /// Creates a parser for `tokens`, which must be terminated by `Eof`
    /// (as produced by [`crate::lexer::lex`]).
    pub fn new(src: &'a str, tokens: Vec<Token<'a>>) -> Self {
        debug_assert!(matches!(
            tokens.last().map(|t| &t.kind),
            Some(TokenKind::Eof)
        ));
        Parser {
            src,
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    /// Parses a whole program (declarations followed by functions, in any
    /// interleaving).
    ///
    /// # Errors
    ///
    /// Returns the first syntax error encountered.
    pub fn parse_program(mut self) -> Result<Program, FrontendError> {
        let mut program = Program::default();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Shared | TokenKind::Flag | TokenKind::Lock => {
                    program.decls.push(self.decl()?);
                }
                TokenKind::Fn => program.functions.push(self.function()?),
                other => {
                    let other = other.describe();
                    return Err(FrontendError::parse(
                        self.peek_span(),
                        format!("expected declaration or function, found {other}"),
                    ));
                }
            }
        }
        Ok(program)
    }

    // ---- token helpers -------------------------------------------------

    fn peek(&self) -> TokenKind<'a> {
        self.tokens[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> TokenKind<'a> {
        let idx = (self.pos + n).min(self.tokens.len() - 1);
        self.tokens[idx].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token<'a> {
        let tok = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        tok
    }

    fn eat(&mut self, kind: TokenKind<'_>) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Runs `parse` one level deeper; the token at `pos` opens the level,
    /// and is the one named when that is a level too many.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, FrontendError>,
    ) -> Result<T, FrontendError> {
        if self.depth == MAX_NESTING {
            return Err(too_deep(self.peek_span()));
        }
        self.depth += 1;
        let out = parse(self);
        self.depth -= 1;
        out
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<Token<'a>, FrontendError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(FrontendError::parse(
                self.peek_span(),
                format!(
                    "expected {}, found {}",
                    kind.describe(),
                    self.peek().describe()
                ),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), FrontendError> {
        match self.peek() {
            TokenKind::Ident(name) => Ok((name.to_string(), self.bump().span)),
            other => Err(FrontendError::parse(
                self.peek_span(),
                format!("expected identifier, found {}", other.describe()),
            )),
        }
    }

    fn expect_int_lit(&mut self) -> Result<(i64, Span), FrontendError> {
        match self.peek() {
            TokenKind::IntLit(v) => Ok((v, self.bump().span)),
            other => Err(FrontendError::parse(
                self.peek_span(),
                format!("expected integer literal, found {}", other.describe()),
            )),
        }
    }

    // ---- declarations --------------------------------------------------

    fn decl(&mut self) -> Result<Decl, FrontendError> {
        let start = self.peek_span();
        match self.peek() {
            TokenKind::Shared => {
                self.bump();
                let ty = self.data_type()?;
                let (name, _) = self.expect_ident()?;
                if self.eat(TokenKind::LBracket) {
                    let (len, len_span) = self.expect_int_lit()?;
                    if len <= 0 {
                        return Err(FrontendError::parse(
                            len_span,
                            "array length must be positive",
                        ));
                    }
                    self.expect(TokenKind::RBracket)?;
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Decl::SharedArray {
                        name,
                        ty,
                        len: len as u64,
                        span: start.merge(end),
                    })
                } else {
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Decl::SharedScalar {
                        name,
                        ty,
                        span: start.merge(end),
                    })
                }
            }
            TokenKind::Flag => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                if self.eat(TokenKind::LBracket) {
                    let (len, len_span) = self.expect_int_lit()?;
                    if len <= 0 {
                        return Err(FrontendError::parse(
                            len_span,
                            "flag array length must be positive",
                        ));
                    }
                    self.expect(TokenKind::RBracket)?;
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Decl::FlagArray {
                        name,
                        len: len as u64,
                        span: start.merge(end),
                    })
                } else {
                    let end = self.expect(TokenKind::Semi)?.span;
                    Ok(Decl::Flag {
                        name,
                        span: start.merge(end),
                    })
                }
            }
            TokenKind::Lock => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Decl::Lock {
                    name,
                    span: start.merge(end),
                })
            }
            other => Err(FrontendError::parse(
                start,
                format!("expected declaration, found {}", other.describe()),
            )),
        }
    }

    fn data_type(&mut self) -> Result<Type, FrontendError> {
        match self.peek() {
            TokenKind::Int => {
                self.bump();
                Ok(Type::Int)
            }
            TokenKind::Double => {
                self.bump();
                Ok(Type::Double)
            }
            other => Err(FrontendError::parse(
                self.peek_span(),
                format!("expected `int` or `double`, found {}", other.describe()),
            )),
        }
    }

    // ---- functions -----------------------------------------------------

    fn function(&mut self) -> Result<Function, FrontendError> {
        let start = self.expect(TokenKind::Fn)?.span;
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != TokenKind::RParen {
            loop {
                let pstart = self.peek_span();
                let ty = self.data_type()?;
                let (pname, pend) = self.expect_ident()?;
                params.push(Param {
                    name: pname,
                    ty,
                    span: pstart.merge(pend),
                });
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let (body, end) = self.block()?;
        Ok(Function {
            name,
            params,
            body,
            span: start.merge(end),
        })
    }

    fn block(&mut self) -> Result<(Vec<Stmt>, Span), FrontendError> {
        self.nested(|p| {
            let start = p.expect(TokenKind::LBrace)?.span;
            let mut stmts = Vec::new();
            while p.peek() != TokenKind::RBrace {
                if p.peek() == TokenKind::Eof {
                    return Err(FrontendError::parse(start, "unterminated block"));
                }
                stmts.push(p.stmt()?);
            }
            let end = p.expect(TokenKind::RBrace)?.span;
            Ok((stmts, start.merge(end)))
        })
    }

    // ---- statements ----------------------------------------------------

    fn stmt(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.peek_span();
        match self.peek() {
            TokenKind::Int | TokenKind::Double => self.local_decl(),
            TokenKind::If => self.if_stmt(),
            TokenKind::While => self.while_stmt(),
            TokenKind::For => self.for_stmt(),
            TokenKind::Barrier => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Barrier, start.merge(end)))
            }
            TokenKind::Post => self.event_stmt(true),
            TokenKind::Wait => self.event_stmt(false),
            TokenKind::Lock => {
                self.bump();
                let (lock, _) = self.expect_ident()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Lock { lock }, start.merge(end)))
            }
            TokenKind::Unlock => {
                self.bump();
                let (lock, _) = self.expect_ident()?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Unlock { lock }, start.merge(end)))
            }
            TokenKind::Work => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let cost = self.expr()?;
                self.expect(TokenKind::RParen)?;
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Work { cost }, start.merge(end)))
            }
            TokenKind::Return => {
                self.bump();
                let end = self.expect(TokenKind::Semi)?.span;
                Ok(Stmt::new(StmtKind::Return, start.merge(end)))
            }
            TokenKind::LBrace => {
                let (stmts, span) = self.block()?;
                Ok(Stmt::new(StmtKind::Block(stmts), span))
            }
            TokenKind::Ident(_) => {
                if self.peek_at(1) == TokenKind::LParen {
                    self.call_stmt()
                } else {
                    self.assign_stmt()
                }
            }
            other => Err(FrontendError::parse(
                start,
                format!("expected statement, found {}", other.describe()),
            )),
        }
    }

    fn local_decl(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.peek_span();
        let ty = self.data_type()?;
        let (name, _) = self.expect_ident()?;
        if self.eat(TokenKind::LBracket) {
            let (len, len_span) = self.expect_int_lit()?;
            if len <= 0 {
                return Err(FrontendError::parse(
                    len_span,
                    "array length must be positive",
                ));
            }
            self.expect(TokenKind::RBracket)?;
            let end = self.expect(TokenKind::Semi)?.span;
            return Ok(Stmt::new(
                StmtKind::LocalDecl {
                    name,
                    ty,
                    len: Some(len as u64),
                    init: None,
                },
                start.merge(end),
            ));
        }
        let init = if self.eat(TokenKind::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::new(
            StmtKind::LocalDecl {
                name,
                ty,
                len: None,
                init,
            },
            start.merge(end),
        ))
    }

    fn if_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.expect(TokenKind::If)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let (then_branch, mut end) = self.block()?;
        let else_branch = if self.eat(TokenKind::Else) {
            if self.peek() == TokenKind::If {
                let nested = self.nested(Self::if_stmt)?;
                end = nested.span;
                vec![nested]
            } else {
                let (stmts, espan) = self.block()?;
                end = espan;
                stmts
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::new(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            start.merge(end),
        ))
    }

    fn while_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.expect(TokenKind::While)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(TokenKind::RParen)?;
        let (body, end) = self.block()?;
        Ok(Stmt::new(StmtKind::While { cond, body }, start.merge(end)))
    }

    fn for_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.expect(TokenKind::For)?.span;
        self.expect(TokenKind::LParen)?;
        let init = self.simple_assign()?;
        self.expect(TokenKind::Semi)?;
        let cond = self.expr()?;
        self.expect(TokenKind::Semi)?;
        let step = self.simple_assign()?;
        self.expect(TokenKind::RParen)?;
        let (body, end) = self.block()?;
        Ok(Stmt::new(
            StmtKind::For {
                init: Box::new(init),
                cond,
                step: Box::new(step),
                body,
            },
            start.merge(end),
        ))
    }

    /// An assignment without the trailing semicolon (for-loop headers).
    fn simple_assign(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.peek_span();
        let lhs = self.lvalue()?;
        self.expect(TokenKind::Assign)?;
        let rhs = self.expr()?;
        let span = start.merge(rhs.span);
        Ok(Stmt::new(StmtKind::Assign { lhs, rhs }, span))
    }

    fn assign_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let stmt = self.simple_assign()?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::new(stmt.kind, stmt.span.merge(end)))
    }

    fn call_stmt(&mut self) -> Result<Stmt, FrontendError> {
        let start = self.peek_span();
        let (name, _) = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.peek() != TokenKind::RParen {
            loop {
                args.push(self.expr()?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let end = self.expect(TokenKind::Semi)?.span;
        Ok(Stmt::new(StmtKind::Call { name, args }, start.merge(end)))
    }

    fn event_stmt(&mut self, is_post: bool) -> Result<Stmt, FrontendError> {
        let start = self.bump().span; // `post` or `wait`
        let (flag, _) = self.expect_ident()?;
        let index = if self.eat(TokenKind::LBracket) {
            let e = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            Some(e)
        } else {
            None
        };
        let end = self.expect(TokenKind::Semi)?.span;
        let kind = if is_post {
            StmtKind::Post { flag, index }
        } else {
            StmtKind::Wait { flag, index }
        };
        Ok(Stmt::new(kind, start.merge(end)))
    }

    fn lvalue(&mut self) -> Result<LValue, FrontendError> {
        let (name, span) = self.expect_ident()?;
        if self.eat(TokenKind::LBracket) {
            let index = self.expr()?;
            let end = self.expect(TokenKind::RBracket)?.span;
            Ok(LValue::ArrayElem {
                name,
                index: Box::new(index),
                span: span.merge(end),
            })
        } else {
            Ok(LValue::Var { name, span })
        }
    }

    // ---- expressions (precedence climbing) ------------------------------

    /// Parses an expression.
    ///
    /// # Errors
    ///
    /// Returns a syntax error if the token stream does not start with a
    /// valid expression.
    pub fn expr(&mut self) -> Result<Expr, FrontendError> {
        self.binary_expr(0).map(|(expr, _)| expr)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Tall, FrontendError> {
        let (mut lhs, mut height) = self.unary_expr()?;
        // Not `while let`: the loop has a second exit condition (precedence).
        #[allow(clippy::while_let_loop)]
        loop {
            let Some((op, prec)) = binop_of(self.peek()) else {
                break;
            };
            if prec < min_prec {
                break;
            }
            let op_span = self.bump().span;
            let (rhs, rhs_height) = self.nested(|p| p.binary_expr(prec + 1))?;
            let span = lhs.span.merge(rhs.span);
            height = grown(height.max(rhs_height), op_span)?;
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
        Ok((lhs, height))
    }

    fn unary_expr(&mut self) -> Result<Tall, FrontendError> {
        let start = self.peek_span();
        let op = match self.peek() {
            TokenKind::Minus => UnOp::Neg,
            TokenKind::Not => UnOp::Not,
            _ => return self.primary_expr(),
        };
        self.bump();
        let (inner, height) = self.nested(Self::unary_expr)?;
        let span = start.merge(inner.span);
        let expr = Box::new(inner);
        Ok((
            Expr::new(ExprKind::Unary { op, expr }, span),
            grown(height, start)?,
        ))
    }

    fn primary_expr(&mut self) -> Result<Tall, FrontendError> {
        let start = self.peek_span();
        let leaf = match self.peek() {
            TokenKind::IntLit(v) => ExprKind::IntLit(v),
            TokenKind::FloatLit(v) => ExprKind::FloatLit(v),
            TokenKind::True => ExprKind::BoolLit(true),
            TokenKind::False => ExprKind::BoolLit(false),
            TokenKind::MyProc => ExprKind::MyProc,
            TokenKind::Procs => ExprKind::Procs,
            TokenKind::LParen => {
                let (inner, height) = self.nested(|p| {
                    p.bump();
                    p.binary_expr(0)
                })?;
                let end = self.expect(TokenKind::RParen)?.span;
                return Ok((Expr::new(inner.kind, start.merge(end)), height));
            }
            TokenKind::Ident(_) => {
                let (name, span) = self.expect_ident()?;
                if self.peek() != TokenKind::LBracket {
                    return Ok((Expr::new(ExprKind::Var(name), span), 1));
                }
                let (index, height) = self.nested(|p| {
                    p.bump();
                    p.binary_expr(0)
                })?;
                let end = self.expect(TokenKind::RBracket)?.span;
                let index = Box::new(index);
                return Ok((
                    Expr::new(ExprKind::ArrayElem { name, index }, span.merge(end)),
                    grown(height, span)?,
                ));
            }
            other => {
                return Err(FrontendError::parse(
                    start,
                    format!("expected expression, found {}", other.describe()),
                ))
            }
        };
        self.bump();
        Ok((Expr::new(leaf, start), 1))
    }
}

fn too_deep(span: Span) -> FrontendError {
    FrontendError::nesting(span, format!("nesting deeper than {MAX_NESTING} levels"))
}

/// The height of a node over children of height `below`; `span` is the
/// operator (or array name) that makes the node.
fn grown(below: usize, span: Span) -> Result<usize, FrontendError> {
    if below == MAX_NESTING {
        Err(too_deep(span))
    } else {
        Ok(below + 1)
    }
}

/// Operator token → (BinOp, precedence). Higher binds tighter.
fn binop_of(kind: TokenKind<'_>) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 1),
        TokenKind::AndAnd => (BinOp::And, 2),
        TokenKind::EqEq => (BinOp::Eq, 3),
        TokenKind::NotEq => (BinOp::Ne, 3),
        TokenKind::Lt => (BinOp::Lt, 4),
        TokenKind::Le => (BinOp::Le, 4),
        TokenKind::Gt => (BinOp::Gt, 4),
        TokenKind::Ge => (BinOp::Ge, 4),
        TokenKind::Plus => (BinOp::Add, 5),
        TokenKind::Minus => (BinOp::Sub, 5),
        TokenKind::Star => (BinOp::Mul, 6),
        TokenKind::Slash => (BinOp::Div, 6),
        TokenKind::Percent => (BinOp::Rem, 6),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    #[test]
    fn parses_declarations() {
        let prog =
            parse_program("shared int X; shared double A[128]; flag f; flag done[8]; lock l;")
                .unwrap();
        assert_eq!(prog.decls.len(), 5);
        assert!(matches!(prog.decls[0], Decl::SharedScalar { .. }));
        assert!(matches!(prog.decls[1], Decl::SharedArray { len: 128, .. }));
        assert!(matches!(prog.decls[2], Decl::Flag { .. }));
        assert!(matches!(prog.decls[3], Decl::FlagArray { len: 8, .. }));
        assert!(matches!(prog.decls[4], Decl::Lock { .. }));
    }

    #[test]
    fn parses_function_with_params() {
        let prog = parse_program("fn f(int a, double b) { work(a); }").unwrap();
        let f = prog.function("f").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].ty, Type::Int);
        assert_eq!(f.params[1].ty, Type::Double);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let prog = parse_program("fn main() { int x; x = 1 + 2 * 3; }").unwrap();
        let body = &prog.function("main").unwrap().body;
        let StmtKind::Assign { rhs, .. } = &body[1].kind else {
            panic!("expected assign");
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            rhs: mul,
            ..
        } = &rhs.kind
        else {
            panic!("expected + at top: {rhs:?}");
        };
        assert!(matches!(mul.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn parens_override_precedence() {
        let prog = parse_program("fn main() { int x; x = (1 + 2) * 3; }").unwrap();
        let body = &prog.function("main").unwrap().body;
        let StmtKind::Assign { rhs, .. } = &body[1].kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn comparison_and_logical_chain() {
        let prog =
            parse_program("fn main() { int x; if (x < 1 && x != 2 || MYPROC == 0) { x = 1; } }");
        assert!(prog.is_ok(), "{prog:?}");
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            shared int X;
            fn main() {
                int i;
                for (i = 0; i < 10; i = i + 1) {
                    while (i > 5) { i = i - 1; }
                    if (i == 2) { X = i; } else if (i == 3) { X = 0; }
                }
            }
        "#;
        let prog = parse_program(src).unwrap();
        let body = &prog.function("main").unwrap().body;
        assert!(matches!(body[1].kind, StmtKind::For { .. }));
    }

    #[test]
    fn parses_sync_statements() {
        let src = r#"
            flag f; flag g[4]; lock l;
            fn main() {
                barrier;
                post f;
                wait g[MYPROC];
                lock l;
                unlock l;
                return;
            }
        "#;
        let prog = parse_program(src).unwrap();
        let body = &prog.function("main").unwrap().body;
        assert!(matches!(body[0].kind, StmtKind::Barrier));
        assert!(matches!(body[1].kind, StmtKind::Post { .. }));
        assert!(matches!(
            body[2].kind,
            StmtKind::Wait { index: Some(_), .. }
        ));
        assert!(matches!(body[3].kind, StmtKind::Lock { .. }));
        assert!(matches!(body[4].kind, StmtKind::Unlock { .. }));
        assert!(matches!(body[5].kind, StmtKind::Return));
    }

    #[test]
    fn parses_calls_and_blocks() {
        let src = r#"
            fn helper(int n) { work(n); }
            fn main() { { helper(3); } }
        "#;
        let prog = parse_program(src).unwrap();
        let body = &prog.function("main").unwrap().body;
        let StmtKind::Block(inner) = &body[0].kind else {
            panic!()
        };
        assert!(matches!(inner[0].kind, StmtKind::Call { .. }));
    }

    #[test]
    fn rejects_garbage_at_top_level() {
        assert!(parse_program("42").is_err());
        assert!(parse_program("fn main() { 42; }").is_err());
        assert!(parse_program("fn main() { x = ; }").is_err());
        assert!(parse_program("fn main() {").is_err());
    }

    #[test]
    fn rejects_zero_length_array() {
        assert!(parse_program("shared int A[0];").is_err());
    }

    #[test]
    fn unary_operators_nest() {
        let prog = parse_program("fn main() { int x; x = --1; }").unwrap();
        let StmtKind::Assign { rhs, .. } = &prog.function("main").unwrap().body[1].kind else {
            panic!()
        };
        let ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } = &rhs.kind
        else {
            panic!()
        };
        assert!(matches!(expr.kind, ExprKind::Unary { op: UnOp::Neg, .. }));
    }

    #[test]
    fn array_assignment_and_read() {
        let src = "shared int A[8]; fn main() { A[MYPROC] = A[MYPROC + 1] + 2; }";
        let prog = parse_program(src).unwrap();
        let StmtKind::Assign { lhs, rhs } = &prog.function("main").unwrap().body[0].kind else {
            panic!()
        };
        assert!(matches!(lhs, LValue::ArrayElem { .. }));
        assert!(matches!(rhs.kind, ExprKind::Binary { .. }));
    }

    /// `main` with `X = 1;` inside `levels` repetitions of `open` … `close`.
    fn nested_stmt(levels: usize, open: &str, close: &str) -> String {
        format!(
            "shared int X; fn main() {{ {}X = 1;{} }}",
            open.repeat(levels),
            close.repeat(levels)
        )
    }

    /// `main` assigning `1` inside `levels` repetitions of `open` … `close`.
    fn nested_expr(levels: usize, open: &str, close: &str) -> String {
        format!(
            "shared int X; shared int A[4]; fn main() {{ X = {}1{}; }}",
            open.repeat(levels),
            close.repeat(levels)
        )
    }

    fn nesting_error(src: &str) -> FrontendError {
        let err = parse_program(src).expect_err("the program nests too deep");
        assert_eq!(
            err.kind(),
            crate::error::FrontendErrorKind::Nesting,
            "{err}"
        );
        assert!(err.message().contains("nesting deeper than 128"), "{err}");
        assert!(!err.span().is_empty(), "{err}");
        err
    }

    #[test]
    fn nesting_is_accepted_up_to_the_limit_and_refused_one_past_it() {
        // The function body is level 1; a block, a parenthesis, a subscript
        // or a unary operand each open one more.
        let shapes: [&dyn Fn(usize) -> String; 5] = [
            &|n| nested_stmt(n, "{ ", " }"),
            &|n| nested_stmt(n, "if (MYPROC == 0) { ", " }"),
            &|n| nested_expr(n, "(", ")"),
            &|n| nested_expr(n, "A[", "]"),
            &|n| nested_expr(n, "-", ""),
        ];
        for (i, shape) in shapes.iter().enumerate() {
            parse_program(&shape(MAX_NESTING - 1)).unwrap_or_else(|e| panic!("shape {i}: {e}"));
            nesting_error(&shape(MAX_NESTING));
        }
        // The `if` sits at level 1; `else if` arm k is parsed at level
        // 1 + k and its block one deeper.
        let arms = |n: usize| {
            format!(
                "shared int X; fn main() {{ if (MYPROC == 0) {{ X = 0; }}{} }}",
                " else if (MYPROC == 1) { X = 1; }".repeat(n)
            )
        };
        parse_program(&arms(MAX_NESTING - 2)).unwrap();
        nesting_error(&arms(MAX_NESTING - 1));
    }

    #[test]
    fn an_operator_chain_grows_one_level_per_operator_without_recursing() {
        let chain =
            |ops: usize| format!("shared int X; fn main() {{ X = 1{}; }}", " + 1".repeat(ops));
        // Height = operators + 1.
        parse_program(&chain(MAX_NESTING - 1)).unwrap();
        let err = nesting_error(&chain(MAX_NESTING));
        // The operator that made the tree too tall: the last one.
        let src = chain(MAX_NESTING);
        assert_eq!(
            &src[err.span().start as usize..err.span().end as usize],
            "+"
        );
        assert_eq!(err.span().start as usize, src.rfind('+').unwrap());
        // A right-leaning tree of the same height recurses instead and is
        // held to the same limit.
        let right = |ops: usize| {
            format!(
                "shared int X; fn main() {{ X = {}1{}; }}",
                "1 + (".repeat(ops),
                ")".repeat(ops)
            )
        };
        parse_program(&right(40)).unwrap();
        nesting_error(&right(MAX_NESTING));
    }

    #[test]
    fn a_hundred_thousand_levels_fail_without_exhausting_the_stack() {
        const N: usize = 100_000;
        nesting_error(&nested_expr(N, "(", ")"));
        nesting_error(&nested_stmt(N, "{ ", " }"));
        nesting_error(&nested_expr(N, "!", ""));
        nesting_error(&format!(
            "shared int X; fn main() {{ X = 1{}; }}",
            " * 2".repeat(N)
        ));
    }
}
