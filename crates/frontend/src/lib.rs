#![warn(missing_docs)]

//! `minisplit`: a small explicitly parallel SPMD language frontend.
//!
//! This crate implements the *source language* of the PLDI'95 paper
//! "Optimizing Parallel Programs with Explicit Synchronization"
//! (Krishnamurthy & Yelick). The language is a restriction of Split-C:
//!
//! * SPMD execution — every processor runs the same program; `MYPROC` and
//!   `PROCS` are built-in expressions.
//! * A global address space reachable only through **shared scalars** and
//!   **distributed arrays** (no global pointers, so no alias analysis is
//!   needed; local pointers are disallowed entirely in `minisplit`).
//! * All shared accesses are **blocking** in the source; the optimizer
//!   (crate `syncopt-codegen`) introduces split-phase `get`/`put`/`store`.
//! * Explicit synchronization: `barrier`, `post f` / `wait f` on event
//!   variables, and `lock l` / `unlock l` on lock variables.
//!
//! # Example
//!
//! ```
//! use syncopt_frontend::parse_program;
//!
//! let src = r#"
//!     shared int Flag;
//!     shared int Data;
//!     fn main() {
//!         int v;
//!         if (MYPROC == 0) {
//!             Data = 1;
//!             Flag = 1;
//!         } else {
//!             v = Flag;
//!             v = Data;
//!         }
//!     }
//! "#;
//! let program = parse_program(src)?;
//! assert_eq!(program.functions.len(), 1);
//! # Ok::<(), syncopt_frontend::FrontendError>(())
//! ```

pub mod ast;
pub mod error;
pub mod fingerprint;
pub mod inline;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod token;
pub mod typeck;

pub use ast::{
    BinOp, Decl, Expr, ExprKind, Function, LValue, Param, Program, Stmt, StmtKind, Type, UnOp,
};
pub use error::{FrontendError, FrontendErrorKind};
pub use fingerprint::Fingerprint;
pub use span::Span;

/// Parses `minisplit` source text into an AST without type checking.
///
/// # Errors
///
/// Returns a [`FrontendError`] describing the first lexical or syntactic
/// problem encountered.
pub fn parse_program(src: &str) -> Result<Program, FrontendError> {
    let tokens = lexer::lex(src)?;
    parser::Parser::new(src, tokens).parse_program()
}

/// Parses and type checks `minisplit` source text.
///
/// This is the entry point most clients want: the returned program is
/// guaranteed well-typed and ready for lowering by `syncopt-ir`.
///
/// # Errors
///
/// Returns a [`FrontendError`] on lexical, syntactic, or type errors.
pub fn check_program(src: &str) -> Result<Program, FrontendError> {
    let program = parse_program(src)?;
    typeck::check(&program)?;
    Ok(program)
}

/// Parses, type checks, and inlines all calls so that only `main` remains.
///
/// # Errors
///
/// Returns a [`FrontendError`] on frontend errors, on recursion, or if the
/// program has no `main` function.
pub fn prepare_program(src: &str) -> Result<Program, FrontendError> {
    let program = check_program(src)?;
    inline::inline_program(program)
}
