#![warn(missing_docs)]

//! Deterministic simulator of a distributed-memory multiprocessor with a
//! global address space — the execution substrate for the PLDI'95
//! reproduction.
//!
//! The paper evaluated on a 64-processor CM-5 (with T3D and DASH latency
//! figures in its Table 1); this crate provides the synthetic equivalent: a
//! discrete-event machine ([`sim`]) whose cost parameters ([`config`])
//! reproduce those latencies, and whose operations mirror Split-C's
//! blocking accesses, split-phase `get`/`put` with synchronizing counters,
//! one-way `store`s, barriers, post/wait events, and queueing locks.
//!
//! [`litmus`] additionally implements a small-model **sequential-consistency
//! explorer** used to validate delay sets: it enumerates the weak-memory
//! outcomes a machine may produce under a given delay set and compares them
//! with the sequentially consistent outcomes.
//!
//! # Example
//!
//! ```
//! use syncopt_frontend::prepare_program;
//! use syncopt_ir::lower::lower_main;
//! use syncopt_machine::{simulate, MachineConfig};
//!
//! let src = r#"
//!     shared int A[8];
//!     fn main() { A[MYPROC] = MYPROC; barrier; }
//! "#;
//! let cfg = lower_main(&prepare_program(src)?)?;
//! let result = simulate(&cfg, &MachineConfig::cm5(8))?;
//! assert!(result.barriers_aligned);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod litmus;
pub mod memory;
pub mod metrics;
pub mod shard;
pub mod sim;
pub mod trace;
pub mod value;

pub use config::MachineConfig;
pub use memory::{Location, SharedMemory};
pub use metrics::{BarrierEpoch, LatencyHistogram, ProcCycles, SimMetrics, SimWork};
pub use shard::{simulate_sharded, simulate_sharded_with, ShardPartition};
pub use sim::{
    simulate, simulate_configured, simulate_traced, EngineKind, NetStats, SimOutputs, SimResult,
    StallStats,
};
pub use trace::{
    BarrierSpan, FlowKind, FlowSpan, LockSpan, StateKind, StateSpan, Trace, TraceEvent, TraceKind,
};
pub use value::{SimError, Value};
