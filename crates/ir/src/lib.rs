#![warn(missing_docs)]

//! Control-flow-graph IR for `minisplit` programs.
//!
//! The IR is the substrate for the paper's analyses: a per-program CFG of
//! basic blocks in which **every shared-memory access and synchronization
//! operation is an explicit instruction** with a unique [`ids::AccessId`].
//! Because the programs are SPMD, a single CFG describes every processor;
//! `MYPROC` is an ordinary (runtime) value.
//!
//! Lowering normalizes expressions so that shared reads never appear inside
//! expressions: each becomes a `GetShared` into a compiler temporary. After
//! lowering, branch conditions, array indices, and assignment right-hand
//! sides mention only locals and constants.
//!
//! Provided analyses (consumed by `syncopt-core` and `syncopt-codegen`):
//!
//! * dominators and postdominators ([`dom`]),
//! * local defs, uses and reordering dependences ([`dataflow`]) and
//!   live variables ([`liveness`]),
//! * program-order reachability between accesses ([`order`]),
//! * natural-loop detection ([`loops`]).
//!
//! # Example
//!
//! ```
//! use syncopt_frontend::prepare_program;
//! use syncopt_ir::lower::lower_main;
//!
//! let src = "shared int X; fn main() { X = MYPROC; }";
//! let program = prepare_program(src)?;
//! let cfg = lower_main(&program)?;
//! assert_eq!(cfg.accesses.len(), 1); // the single write to X
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod access;
pub mod arith;
pub mod cfg;
pub mod dataflow;
pub mod dom;
pub mod expr;
pub mod fold;
pub mod ids;
pub mod liveness;
pub mod loops;
pub mod lower;
pub mod order;
pub mod print;
pub mod vars;

pub use access::{AccessInfo, AccessKind, AccessTable};
pub use cfg::{Block, Cfg, Instr, Terminator};
pub use expr::{Expr, SharedRef};
pub use ids::{AccessId, BlockId, VarId};
pub use vars::{VarInfo, VarKind, VarTable};
