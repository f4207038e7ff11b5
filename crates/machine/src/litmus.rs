//! Small-model sequential-consistency checking ("litmus mode").
//!
//! This module validates delay sets operationally, the way Figure 1 of the
//! paper motivates them. For a small program it enumerates every **weak**
//! execution a machine may produce when only the delay set (plus
//! per-processor same-location order and blocking synchronization) is
//! enforced, and every **sequentially consistent** execution (program order
//! fully enforced). A delay set is SC-preserving on the program iff the
//! weak outcomes are a subset of the SC outcomes.
//!
//! The model: each processor *issues* its operations in program order —
//! blocking operations (`wait`, `barrier`) stall issue — but an issued
//! operation's *commit* (its globally visible effect) may be delayed
//! arbitrarily, subject to the constraint edges. This captures write
//! buffers, network reordering, and outstanding split-phase operations.
//!
//! Supported programs: loop-free control flow decided by `MYPROC`/`PROCS`
//! only (or loops with processor-independent bounds), integer shared data,
//! write values independent of read results, `post`/`wait`/`barrier`
//! synchronization. Locks are not supported (mutual exclusion has no
//! single-commit formulation in this model).
//!
//! An *outcome* is the vector of values returned by the program's shared
//! reads, ordered by (processor, trace position).

use crate::memory::Location;
use crate::value::{ProcEnv, SimError, Value};
use std::collections::{BTreeMap, BTreeSet};
use syncopt_core::DelaySet;
use syncopt_ir::arith::{self, ArithError, Leaf};
use syncopt_ir::cfg::{Cfg, Instr, Terminator};
use syncopt_ir::expr::Expr;
use syncopt_ir::ids::{AccessId, VarId};

/// One operation in a processor's extracted trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// Shared read; its returned value is part of the outcome.
    Read {
        /// Which location.
        loc: Location,
        /// Originating access site.
        access: AccessId,
    },
    /// Shared write of a known integer.
    Write {
        /// Which location.
        loc: Location,
        /// Value written.
        val: i64,
        /// Originating access site.
        access: AccessId,
    },
    /// Event post.
    Post {
        /// Which event.
        loc: Location,
        /// Originating access site.
        access: AccessId,
    },
    /// Event wait (blocking).
    Wait {
        /// Which event.
        loc: Location,
        /// Originating access site.
        access: AccessId,
    },
    /// Global barrier (blocking; episodes match by per-processor count).
    Barrier {
        /// Originating access site.
        access: AccessId,
    },
}

impl TraceOp {
    fn access(&self) -> AccessId {
        match self {
            TraceOp::Read { access, .. }
            | TraceOp::Write { access, .. }
            | TraceOp::Post { access, .. }
            | TraceOp::Wait { access, .. }
            | TraceOp::Barrier { access } => *access,
        }
    }

    fn is_blocking(&self) -> bool {
        matches!(self, TraceOp::Wait { .. } | TraceOp::Barrier { .. })
    }

    fn data_loc(&self) -> Option<Location> {
        match self {
            TraceOp::Read { loc, .. } | TraceOp::Write { loc, .. } => Some(*loc),
            _ => None,
        }
    }
}

/// Extracts each processor's operation trace by symbolic local execution.
///
/// # Errors
///
/// Fails if the program's control flow or written values depend on values
/// read from shared memory, if it uses locks or split-phase operations, or
/// if traces exceed the internal step limit.
pub fn extract_traces(cfg: &Cfg, procs: u32) -> Result<Vec<Vec<TraceOp>>, SimError> {
    (0..procs).map(|p| extract_one(cfg, p, procs)).collect()
}

fn extract_one(cfg: &Cfg, myproc: u32, procs: u32) -> Result<Vec<TraceOp>, SimError> {
    let mut locals = SymEnv {
        env: ProcEnv::new(myproc, procs, &cfg.vars),
        from_shared: vec![false; cfg.vars.len()],
    };
    let mut trace = Vec::new();
    let mut block = cfg.entry;
    let mut idx = 0usize;
    let mut steps = 0u64;
    loop {
        steps += 1;
        if steps > 100_000 {
            return Err(SimError::new("litmus trace extraction exceeded step limit"));
        }
        let instrs = &cfg.block(block).instrs;
        if idx >= instrs.len() {
            match &cfg.block(block).term {
                Terminator::Goto(t) => {
                    block = *t;
                    idx = 0;
                }
                Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let v = locals.eval(cond, "branch condition")?;
                    block = if v.as_bool()? { *then_bb } else { *else_bb };
                    idx = 0;
                }
                Terminator::Return => return Ok(trace),
            }
            continue;
        }
        let instr = &instrs[idx];
        idx += 1;
        match instr {
            Instr::GetShared { access, dst, src } => {
                let loc = locals.locate(src.var, src.index.as_ref(), "shared")?;
                trace.push(TraceOp::Read {
                    loc,
                    access: *access,
                });
                locals.from_shared[dst.index()] = true;
            }
            Instr::PutShared { access, dst, src } => {
                let loc = locals.locate(dst.var, dst.index.as_ref(), "shared")?;
                let Value::Int(val) = locals.eval(src, "written value")? else {
                    return Err(SimError::new("litmus: written value is not an int"));
                };
                trace.push(TraceOp::Write {
                    loc,
                    val,
                    access: *access,
                });
            }
            Instr::AssignLocal { dst, value } => {
                let from_shared = match locals.try_eval(value) {
                    Ok(v) => {
                        locals.env.store(*dst, v)?;
                        false
                    }
                    Err(Symbolic::Shared) => true,
                    Err(Symbolic::Fault(e)) => return Err(e),
                };
                locals.from_shared[dst.index()] = from_shared;
            }
            Instr::AssignLocalElem { .. } => {
                return Err(SimError::new("litmus: local arrays are not supported"));
            }
            Instr::Work { .. } => {}
            Instr::Post {
                access,
                flag,
                index,
            } => {
                let loc = locals.locate(*flag, index.as_ref(), "flag")?;
                trace.push(TraceOp::Post {
                    loc,
                    access: *access,
                });
            }
            Instr::Wait {
                access,
                flag,
                index,
            } => {
                let loc = locals.locate(*flag, index.as_ref(), "flag")?;
                trace.push(TraceOp::Wait {
                    loc,
                    access: *access,
                });
            }
            Instr::Barrier { access } => {
                trace.push(TraceOp::Barrier { access: *access });
            }
            Instr::LockAcq { .. } | Instr::LockRel { .. } => {
                return Err(SimError::new("litmus: locks are not supported"));
            }
            Instr::GetInit { .. }
            | Instr::PutInit { .. }
            | Instr::StoreInit { .. }
            | Instr::SyncCtr { .. } => {
                return Err(SimError::new(
                    "litmus runs on the source CFG (blocking accesses only)",
                ));
            }
        }
    }
}

/// A processor's locals during trace extraction: the simulator's own
/// environment, and which locals hold a value read from shared memory.
struct SymEnv {
    env: ProcEnv,
    from_shared: Vec<bool>,
}

/// Why a local expression has no value in litmus.
enum Symbolic {
    /// It reads a local that holds a shared read's result.
    Shared,
    /// The simulator faults here too.
    Fault(SimError),
}

impl From<ArithError> for Symbolic {
    fn from(e: ArithError) -> Self {
        Symbolic::Fault(e.into())
    }
}

impl SymEnv {
    /// Evaluates `expr` as the simulator would, unless it reads a local
    /// that holds a shared read's result.
    fn try_eval(&self, expr: &Expr) -> Result<Value, Symbolic> {
        arith::eval(expr, &|leaf| match leaf {
            Leaf::Local(var) if self.from_shared.get(var.index()) == Some(&true) => {
                Err(Symbolic::Shared)
            }
            _ => self.env.read(leaf).map_err(Symbolic::Fault),
        })
    }

    /// Evaluates `expr`, which `what` names if it depends on a shared read.
    fn eval(&self, expr: &Expr, what: &str) -> Result<Value, SimError> {
        self.try_eval(expr).map_err(|e| match e {
            Symbolic::Shared => SimError::new(format!("litmus: {what} depends on a shared read")),
            Symbolic::Fault(e) => e,
        })
    }

    /// The location `var[index]`, a `what` (`shared` or `flag`) location.
    fn locate(&self, var: VarId, index: Option<&Expr>, what: &str) -> Result<Location, SimError> {
        let index = match index {
            Some(e) => {
                let v = self.eval(e, &format!("{what} index"))?.as_int()?;
                u64::try_from(v)
                    .map_err(|_| SimError::new(format!("litmus: negative {what} index")))?
            }
            None => 0,
        };
        Ok(Location { var, index })
    }
}

/// An outcome: the values returned by every shared read, in
/// (processor, trace-position) order.
pub type Outcome = Vec<i64>;

/// One trace operation as the explorer sees it: where its effect lands in
/// a state, and which earlier operations of its processor must commit
/// before it may.
struct Step {
    kind: StepKind,
    /// The earlier operations of the same processor that must commit
    /// first, one bit per trace position.
    after: u64,
}

/// A [`Step`]'s effect. Every index is a word of the state.
#[derive(Clone, Copy)]
enum StepKind {
    /// Copies memory word `cell` into read word `slot`.
    Read { cell: usize, slot: usize },
    /// Stores `val` into memory word `cell` and sets `bit` of word
    /// `written`.
    Write {
        cell: usize,
        val: i64,
        written: usize,
        bit: i64,
    },
    /// Sets flag word `cell`.
    Post { cell: usize },
    /// Waits for flag word `cell`.
    Wait { cell: usize },
    /// Commits with every processor's next barrier.
    Barrier,
}

/// A state is one slice of words: first each processor's committed
/// operations (one bit per trace position), then the value of every shared
/// location a trace reads or writes (0 until written), then which of those
/// locations have been written (one bit each), then every flag a trace
/// posts or waits on (0 or 1), then the value each shared read returned
/// (0 until it commits), in (processor, trace position) order. Two states
/// are equal exactly when they agree on what has committed, what has been
/// written, posted and read, so an exploration visits the same states in
/// the same order as one over maps and sets would.
type State = [i64];

/// The states an exploration has visited: each state's words one after
/// another in `states`, and an open-addressing table (linear probing, at
/// most half full) whose entries hold 32 bits of a state's hash above its
/// index plus one, 0 for an empty slot.
struct Visited {
    width: usize,
    states: Vec<i64>,
    table: Vec<u64>,
}

impl Visited {
    fn new(width: usize) -> Visited {
        Visited {
            width,
            states: Vec::new(),
            table: vec![0; 1024],
        }
    }

    fn len(&self) -> usize {
        self.states.len() / self.width
    }

    /// Adds `state`; false if it was already there.
    fn insert(&mut self, state: &State) -> bool {
        let tag = hash(state) >> 32;
        let mask = self.table.len() - 1;
        let mut slot = tag as usize & mask;
        loop {
            let entry = self.table[slot];
            if entry == 0 {
                break;
            }
            let at = (entry as u32 - 1) as usize * self.width;
            if entry >> 32 == tag && self.states[at..at + self.width] == *state {
                return false;
            }
            slot = (slot + 1) & mask;
        }
        self.states.extend_from_slice(state);
        self.table[slot] = tag << 32 | self.len() as u64;
        if 2 * self.len() > self.table.len() {
            self.grow();
        }
        true
    }

    /// Doubles the table, placing every entry by the hash bits it keeps.
    fn grow(&mut self) {
        let mut table = vec![0; 2 * self.table.len()];
        let mask = table.len() - 1;
        for &entry in self.table.iter().filter(|&&e| e != 0) {
            let mut slot = (entry >> 32) as usize & mask;
            while table[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            table[slot] = entry;
        }
        self.table = table;
    }
}

/// Hashes a state a word at a time, FxHash-style, then mixes the result
/// (MurmurHash3's finalizer) so that every bit reaches the upper half.
fn hash(state: &State) -> u64 {
    let h = state.iter().fold(0u64, |h, &w| {
        (h.rotate_left(5) ^ w as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
    });
    let h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

struct Explorer {
    /// Each processor's trace, as steps.
    steps: Vec<Vec<Step>>,
    /// Each processor's barriers, one bit per trace position.
    barriers: Vec<u64>,
    /// Where the read words begin in a state.
    reads: usize,
    outcomes: BTreeSet<Outcome>,
    visited: Visited,
    /// Spare buffers of one state each, for the search's deeper levels.
    spare: Vec<Vec<i64>>,
    state_cap: usize,
    /// Transitions taken so far, and how many are allowed.
    transitions: u64,
    transition_cap: u64,
}

/// Enumerates the outcomes a weak machine may produce when exactly `delay`
/// (plus same-location per-processor order and blocking synchronization) is
/// enforced.
///
/// # Errors
///
/// Fails when trace extraction fails ([`extract_traces`]), a processor has
/// more than 64 trace operations, barrier counts mismatch, or the state
/// space exceeds the internal cap.
pub fn weak_outcomes(
    cfg: &Cfg,
    delay: &DelaySet,
    procs: u32,
) -> Result<BTreeSet<Outcome>, SimError> {
    let traces = extract_traces(cfg, procs)?;
    explore(&traces, Some(delay))
}

/// Enumerates the sequentially consistent outcomes (full program order).
///
/// # Errors
///
/// Same failure modes as [`weak_outcomes`].
pub fn sc_outcomes(cfg: &Cfg, procs: u32) -> Result<BTreeSet<Outcome>, SimError> {
    let traces = extract_traces(cfg, procs)?;
    explore(&traces, None)
}

/// Does enforcing `delay` keep every weak outcome sequentially consistent?
///
/// # Errors
///
/// Same failure modes as [`weak_outcomes`].
pub fn is_sc_preserving(cfg: &Cfg, delay: &DelaySet, procs: u32) -> Result<bool, SimError> {
    let weak = weak_outcomes(cfg, delay, procs)?;
    let sc = sc_outcomes(cfg, procs)?;
    Ok(weak.is_subset(&sc))
}

/// Most states one exploration visits.
const STATE_CAP: usize = 2_000_000;

/// Most transitions — steps into a state, new or visited — one
/// exploration takes. This bounds the work of a search whose states are
/// few but richly connected, which the state cap alone does not. Of the
/// corpus and kernel explorations at four processors that end inside the
/// state cap, the longest takes 14.0 million (corpus program 10's weak
/// outcomes without delays); the cap sits above it, so none of them is
/// refused, and a release build takes about 5 s to reach it.
const TRANSITION_CAP: u64 = 16_000_000;

fn explore(
    traces: &[Vec<TraceOp>],
    delay: Option<&DelaySet>,
) -> Result<BTreeSet<Outcome>, SimError> {
    explore_within(traces, delay, TRANSITION_CAP)
}

/// [`explore`] with at most `transition_cap` transitions.
fn explore_within(
    traces: &[Vec<TraceOp>],
    delay: Option<&DelaySet>,
    transition_cap: u64,
) -> Result<BTreeSet<Outcome>, SimError> {
    for t in traces {
        if t.len() > 64 {
            return Err(SimError::new("litmus: trace longer than 64 operations"));
        }
    }
    let barriers: Vec<u64> = traces
        .iter()
        .map(|t| {
            t.iter()
                .enumerate()
                .filter(|(_, o)| matches!(o, TraceOp::Barrier { .. }))
                .fold(0, |m, (i, _)| m | 1 << i)
        })
        .collect();
    if barriers
        .iter()
        .any(|b| b.count_ones() != barriers[0].count_ones())
    {
        return Err(SimError::new(
            "litmus: processors execute different numbers of barriers",
        ));
    }
    let mut cells = BTreeMap::new();
    let mut flags = BTreeMap::new();
    for op in traces.iter().flatten() {
        match op {
            TraceOp::Read { loc, .. } | TraceOp::Write { loc, .. } => {
                let next = cells.len();
                cells.entry(*loc).or_insert(next);
            }
            TraceOp::Post { loc, .. } | TraceOp::Wait { loc, .. } => {
                let next = flags.len();
                flags.entry(*loc).or_insert(next);
            }
            TraceOp::Barrier { .. } => {}
        }
    }
    let cell = |loc| traces.len() + cells[loc];
    let written = traces.len() + cells.len();
    let flag = |loc| written + cells.len().div_ceil(64) + flags[loc];
    let reads = written + cells.len().div_ceil(64) + flags.len();
    let mut slot = reads;
    let steps = traces
        .iter()
        .map(|trace| {
            (0..trace.len())
                .map(|i| {
                    let op = &trace[i];
                    let kind = match op {
                        TraceOp::Read { loc, .. } => {
                            slot += 1;
                            StepKind::Read {
                                cell: cell(loc),
                                slot: slot - 1,
                            }
                        }
                        TraceOp::Write { loc, val, .. } => StepKind::Write {
                            cell: cell(loc),
                            val: *val,
                            written: written + cells[loc] / 64,
                            bit: 1 << (cells[loc] % 64),
                        },
                        TraceOp::Post { loc, .. } => StepKind::Post { cell: flag(loc) },
                        TraceOp::Wait { loc, .. } => StepKind::Wait { cell: flag(loc) },
                        TraceOp::Barrier { .. } => StepKind::Barrier,
                    };
                    let after = (0..i)
                        .filter(|&j| must_precede(&trace[j], op, delay))
                        .fold(0, |m, j| m | 1 << j);
                    Step { kind, after }
                })
                .collect()
        })
        .collect();
    let mut ex = Explorer {
        steps,
        barriers,
        reads,
        outcomes: BTreeSet::new(),
        visited: Visited::new(slot),
        spare: Vec::new(),
        state_cap: STATE_CAP,
        transitions: 0,
        transition_cap,
    };
    ex.dfs(&vec![0; slot])?;
    Ok(ex.outcomes)
}

/// Must `earlier`, an operation before `op` in the same trace, commit
/// before `op` may? Under SC (`delay` is `None`) always; on the weak
/// machine when `earlier` blocks issue, when both touch one location and
/// one of them writes it, or when `delay` orders their sites.
fn must_precede(earlier: &TraceOp, op: &TraceOp, delay: Option<&DelaySet>) -> bool {
    let Some(d) = delay else { return true };
    if earlier.is_blocking() {
        return true;
    }
    if let (Some(l1), Some(l2)) = (earlier.data_loc(), op.data_loc()) {
        let write_involved =
            matches!(earlier, TraceOp::Write { .. }) || matches!(op, TraceOp::Write { .. });
        if l1 == l2 && write_involved {
            return true;
        }
    }
    d.contains(earlier.access(), op.access())
}

impl Explorer {
    fn dfs(&mut self, state: &State) -> Result<(), SimError> {
        self.transitions += 1;
        if self.transitions > self.transition_cap {
            return Err(SimError::new("litmus: state space exceeded cap"));
        }
        if !self.visited.insert(state) {
            return Ok(());
        }
        if self.visited.len() > self.state_cap {
            return Err(SimError::new("litmus: state space exceeded cap"));
        }

        let mut progressed = false;
        let mut next = self.spare.pop().unwrap_or_else(|| state.to_vec());

        // Individual (non-barrier) commits.
        for p in 0..self.steps.len() {
            let committed = state[p] as u64;
            for i in 0..self.steps[p].len() {
                let step = &self.steps[p][i];
                if committed & (1 << i) != 0 || step.after & !committed != 0 {
                    continue;
                }
                let kind = step.kind;
                match kind {
                    StepKind::Barrier => continue, // handled below
                    StepKind::Wait { cell } if state[cell] == 0 => continue,
                    _ => {}
                }
                progressed = true;
                next.copy_from_slice(state);
                next[p] = (committed | 1 << i) as i64;
                match kind {
                    StepKind::Read { cell, slot } => next[slot] = state[cell],
                    StepKind::Write {
                        cell,
                        val,
                        written,
                        bit,
                    } => {
                        next[cell] = val;
                        next[written] |= bit;
                    }
                    StepKind::Post { cell } => next[cell] = 1,
                    StepKind::Wait { .. } => {}
                    StepKind::Barrier => unreachable!(),
                }
                self.dfs(&next)?;
            }
        }

        // Barrier episode: the next barrier of every processor commits
        // together when each is individually committable.
        if self.barrier_episode(state) {
            progressed = true;
            next.copy_from_slice(state);
            for (p, &b) in self.barriers.iter().enumerate() {
                let committed = state[p] as u64;
                next[p] = (committed | 1 << (b & !committed).trailing_zeros()) as i64;
            }
            self.dfs(&next)?;
        }

        self.spare.push(next);
        if !progressed && self.all_committed(state) {
            self.outcomes.insert(state[self.reads..].to_vec());
        }
        // Otherwise: deadlock along this path (e.g. wait with no
        // matching post). Such executions produce no outcome.
        Ok(())
    }

    fn all_committed(&self, state: &State) -> bool {
        self.steps
            .iter()
            .enumerate()
            .all(|(p, t)| (state[p] as u64).count_ones() as usize == t.len())
    }

    /// Does every processor have an uncommitted barrier, and may the first
    /// of each commit now?
    fn barrier_episode(&self, state: &State) -> bool {
        self.barriers.iter().enumerate().all(|(p, &b)| {
            let committed = state[p] as u64;
            let open = b & !committed;
            open != 0 && self.steps[p][open.trailing_zeros() as usize].after & !committed == 0
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_core::{analyze, DelaySet};
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    const FIGURE1: &str = r#"
        shared int Data; shared int Flag;
        fn main() {
            int v; int w;
            if (MYPROC == 0) { Data = 1; Flag = 1; }
            else { v = Flag; w = Data; }
        }
    "#;

    fn cfg_of(src: &str) -> Cfg {
        lower_main(&prepare_program(src).unwrap()).unwrap()
    }

    #[test]
    fn traces_are_extracted_per_processor() {
        let cfg = cfg_of(FIGURE1);
        let traces = extract_traces(&cfg, 2).unwrap();
        assert_eq!(traces[0].len(), 2, "writer: two writes");
        assert_eq!(traces[1].len(), 2, "reader: two reads");
        assert!(matches!(traces[0][0], TraceOp::Write { val: 1, .. }));
        assert!(matches!(traces[1][0], TraceOp::Read { .. }));
    }

    #[test]
    fn figure1_sc_outcomes_exclude_flag1_data0() {
        let cfg = cfg_of(FIGURE1);
        let sc = sc_outcomes(&cfg, 2).unwrap();
        // Outcomes are (read Flag, read Data).
        assert!(sc.contains(&vec![0, 0]));
        assert!(sc.contains(&vec![0, 1]));
        assert!(sc.contains(&vec![1, 1]));
        assert!(
            !sc.contains(&vec![1, 0]),
            "Flag=1 ⇒ Data=1 under SC: {sc:?}"
        );
    }

    #[test]
    fn figure1_empty_delay_set_violates_sc() {
        let cfg = cfg_of(FIGURE1);
        let empty = DelaySet::new(cfg.accesses.len());
        let weak = weak_outcomes(&cfg, &empty, 2).unwrap();
        assert!(
            weak.contains(&vec![1, 0]),
            "without delays the figure-eight outcome appears: {weak:?}"
        );
        assert!(!is_sc_preserving(&cfg, &empty, 2).unwrap());
    }

    #[test]
    fn figure1_computed_delay_sets_preserve_sc() {
        let cfg = cfg_of(FIGURE1);
        let analysis = analyze(&cfg);
        assert!(is_sc_preserving(&cfg, &analysis.delay_ss, 2).unwrap());
        assert!(is_sc_preserving(&cfg, &analysis.delay_sync, 2).unwrap());
    }

    #[test]
    fn postwait_program_is_sc_with_refined_delays() {
        let src = r#"
            shared int X; shared int Y; flag F;
            fn main() {
                int v; int w;
                if (MYPROC == 0) { X = 1; Y = 2; post F; }
                else { wait F; v = Y; w = X; }
            }
        "#;
        let cfg = cfg_of(src);
        let analysis = analyze(&cfg);
        // The refined set allows the writes (and reads) to overlap...
        let wx = cfg.accesses.ids().next().unwrap();
        let wy = cfg.accesses.ids().nth(1).unwrap();
        assert!(!analysis.delay_sync.contains(wx, wy));
        // ...and it is still SC-preserving.
        assert!(is_sc_preserving(&cfg, &analysis.delay_sync, 2).unwrap());
        // The post-wait protection means the reader always sees both
        // values.
        let weak = weak_outcomes(&cfg, &analysis.delay_sync, 2).unwrap();
        assert_eq!(weak, BTreeSet::from([vec![2, 1]]), "{weak:?}");
    }

    #[test]
    fn barrier_program_is_sc_with_refined_delays() {
        let src = r#"
            shared int A[2];
            fn main() {
                int v;
                A[MYPROC] = MYPROC + 10;
                barrier;
                v = A[(MYPROC + 1) % PROCS];
            }
        "#;
        let cfg = cfg_of(src);
        let analysis = analyze(&cfg);
        assert!(is_sc_preserving(&cfg, &analysis.delay_sync, 2).unwrap());
        let weak = weak_outcomes(&cfg, &analysis.delay_sync, 2).unwrap();
        // Both readers must see their neighbor's barrier-protected write.
        assert_eq!(weak, BTreeSet::from([vec![11, 10]]), "{weak:?}");
    }

    #[test]
    fn dekker_store_buffering_needs_delays() {
        // The classic store-buffer litmus: without delays both reads may
        // return 0.
        let src = r#"
            shared int X; shared int Y;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; v = Y; }
                else { Y = 1; v = X; }
            }
        "#;
        let cfg = cfg_of(src);
        let empty = DelaySet::new(cfg.accesses.len());
        let weak = weak_outcomes(&cfg, &empty, 2).unwrap();
        assert!(weak.contains(&vec![0, 0]), "{weak:?}");
        let sc = sc_outcomes(&cfg, 2).unwrap();
        assert!(!sc.contains(&vec![0, 0]), "{sc:?}");
        // Shasha–Snir fixes it.
        let analysis = analyze(&cfg);
        assert!(is_sc_preserving(&cfg, &analysis.delay_ss, 2).unwrap());
    }

    #[test]
    fn unsupported_programs_error_cleanly() {
        // Value depends on a read.
        let cfg = cfg_of("shared int X; shared int Y; fn main() { int v; v = X; Y = v; }");
        assert!(extract_traces(&cfg, 2).is_err());
        // Locks.
        let cfg = cfg_of("lock l; fn main() { lock l; unlock l; }");
        assert!(extract_traces(&cfg, 2).is_err());
        // Branch on a read.
        let cfg = cfg_of("shared int X; fn main() { int v; v = X; if (v > 0) { work(1); } }");
        assert!(extract_traces(&cfg, 2).is_err());
        // A double written to shared memory: the model holds ints only.
        let cfg = cfg_of("shared double D; fn main() { D = 0.5; }");
        assert_eq!(
            extract_traces(&cfg, 1).unwrap_err().message(),
            "litmus: written value is not an int"
        );
    }

    /// An exploration stops after a fixed number of transitions however
    /// few states it has seen, with the state cap's error: the weak
    /// outcomes of corpus program 52 at four processors need millions of
    /// them, Figure 1's a few thousand.
    #[test]
    fn a_transition_budget_ends_an_exploding_search() {
        let cfg = cfg_of(&syncopt_core::corpus::corpus_program(52));
        let no_delays = DelaySet::new(cfg.accesses.len());
        let exploding = extract_traces(&cfg, 4).unwrap();
        let err = explore_within(&exploding, Some(&no_delays), 20_000).unwrap_err();
        assert_eq!(err.message(), "litmus: state space exceeded cap");
        let figure1 = extract_traces(&cfg_of(FIGURE1), 4).unwrap();
        assert!(explore_within(&figure1, None, 20_000).is_ok());
        assert!(explore_within(&figure1, None, 20).is_err());
    }

    /// The transition budget refuses no search that ends inside the state
    /// cap, however many transitions it takes: corpus program 167's weak
    /// outcomes without delays take 524 289 at four processors (and
    /// program 10's, the longest, 14.0 million).
    #[test]
    fn the_transition_budget_admits_a_long_search_that_ends() {
        let cfg = cfg_of(&syncopt_core::corpus::corpus_program(167));
        let no_delays = DelaySet::new(cfg.accesses.len());
        let traces = extract_traces(&cfg, 4).unwrap();
        assert!(explore_within(&traces, Some(&no_delays), 524_288).is_err());
        let outcomes = weak_outcomes(&cfg, &no_delays, 4).unwrap();
        assert!(!outcomes.is_empty());
    }

    #[test]
    fn three_processor_exploration() {
        let src = r#"
            shared int X;
            fn main() {
                int v;
                if (MYPROC == 0) { X = 1; }
                else { v = X; }
            }
        "#;
        let cfg = cfg_of(src);
        let sc = sc_outcomes(&cfg, 3).unwrap();
        // Two readers, each sees 0 or 1 independently-ish; all four
        // combinations are SC-reachable.
        assert_eq!(sc.len(), 4, "{sc:?}");
    }
}
