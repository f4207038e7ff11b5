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
use crate::value::{SimError, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use syncopt_core::DelaySet;
use syncopt_frontend::ast::{BinOp, UnOp};
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
    let mut locals: HashMap<VarId, Option<Value>> = HashMap::new();
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
                    let v = sym_eval(cond, &locals, myproc, procs).ok_or_else(|| {
                        SimError::new("litmus: branch condition depends on a shared read")
                    })?;
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
                let loc = resolve_sym(src, &locals, myproc, procs)?;
                trace.push(TraceOp::Read {
                    loc,
                    access: *access,
                });
                locals.insert(*dst, None);
            }
            Instr::PutShared { access, dst, src } => {
                let loc = resolve_sym(dst, &locals, myproc, procs)?;
                let val = sym_eval(src, &locals, myproc, procs)
                    .ok_or_else(|| SimError::new("litmus: written value depends on a shared read"))?
                    .as_int()?;
                trace.push(TraceOp::Write {
                    loc,
                    val,
                    access: *access,
                });
            }
            Instr::AssignLocal { dst, value } => {
                let v = sym_eval(value, &locals, myproc, procs);
                locals.insert(*dst, v);
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
                let loc = resolve_flag_sym(*flag, index.as_ref(), &locals, myproc, procs)?;
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
                let loc = resolve_flag_sym(*flag, index.as_ref(), &locals, myproc, procs)?;
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

fn sym_eval(
    expr: &Expr,
    locals: &HashMap<VarId, Option<Value>>,
    myproc: u32,
    procs: u32,
) -> Option<Value> {
    match expr {
        Expr::Int(v) => Some(Value::Int(*v)),
        Expr::Float(v) => Some(Value::Double(*v)),
        Expr::Bool(v) => Some(Value::Bool(*v)),
        Expr::MyProc => Some(Value::Int(myproc as i64)),
        Expr::Procs => Some(Value::Int(procs as i64)),
        Expr::Local(v) => locals
            .get(v)
            .copied()
            .unwrap_or(Some(Value::Int(0)))?
            .into(),
        Expr::LocalElem { .. } => None,
        Expr::Unary { op, expr } => {
            let v = sym_eval(expr, locals, myproc, procs)?;
            match (op, v) {
                (UnOp::Neg, Value::Int(i)) => Some(Value::Int(-i)),
                (UnOp::Neg, Value::Double(d)) => Some(Value::Double(-d)),
                (UnOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
                _ => None,
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = sym_eval(lhs, locals, myproc, procs)?;
            let r = sym_eval(rhs, locals, myproc, procs)?;
            sym_binop(*op, l, r)
        }
    }
}

fn sym_binop(op: BinOp, l: Value, r: Value) -> Option<Value> {
    use BinOp::*;
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Some(match op {
            Add => Value::Int(a.wrapping_add(b)),
            Sub => Value::Int(a.wrapping_sub(b)),
            Mul => Value::Int(a.wrapping_mul(b)),
            Div => Value::Int(a.checked_div(b)?),
            Rem => {
                if b == 0 {
                    return None;
                }
                Value::Int(a.wrapping_rem_euclid(b))
            }
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            And | Or => return None,
        }),
        (Value::Bool(a), Value::Bool(b)) => Some(match op {
            And => Value::Bool(a && b),
            Or => Value::Bool(a || b),
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            _ => return None,
        }),
        _ => None,
    }
}

fn resolve_sym(
    sref: &syncopt_ir::expr::SharedRef,
    locals: &HashMap<VarId, Option<Value>>,
    myproc: u32,
    procs: u32,
) -> Result<Location, SimError> {
    let index = match &sref.index {
        Some(e) => {
            let v = sym_eval(e, locals, myproc, procs)
                .ok_or_else(|| SimError::new("litmus: shared index depends on a shared read"))?
                .as_int()?;
            u64::try_from(v).map_err(|_| SimError::new("litmus: negative shared index"))?
        }
        None => 0,
    };
    Ok(Location {
        var: sref.var,
        index,
    })
}

fn resolve_flag_sym(
    flag: VarId,
    index: Option<&Expr>,
    locals: &HashMap<VarId, Option<Value>>,
    myproc: u32,
    procs: u32,
) -> Result<Location, SimError> {
    let index = match index {
        Some(e) => {
            let v = sym_eval(e, locals, myproc, procs)
                .ok_or_else(|| SimError::new("litmus: flag index depends on a shared read"))?
                .as_int()?;
            u64::try_from(v).map_err(|_| SimError::new("litmus: negative flag index"))?
        }
        None => 0,
    };
    Ok(Location { var: flag, index })
}

/// An outcome: the values returned by every shared read, in
/// (processor, trace-position) order.
pub type Outcome = Vec<i64>;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExploreState {
    committed: Vec<u64>, // bitmask per processor
    memory: BTreeMap<Location, i64>,
    flags: BTreeSet<Location>,
    reads: BTreeMap<(u32, u32), i64>,
}

struct Explorer<'a> {
    traces: &'a [Vec<TraceOp>],
    delay: Option<&'a DelaySet>, // None ⇒ SC (full program order)
    outcomes: BTreeSet<Outcome>,
    visited: HashSet<ExploreState>,
    state_cap: usize,
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

fn explore(
    traces: &[Vec<TraceOp>],
    delay: Option<&DelaySet>,
) -> Result<BTreeSet<Outcome>, SimError> {
    for t in traces {
        if t.len() > 64 {
            return Err(SimError::new("litmus: trace longer than 64 operations"));
        }
    }
    let barrier_counts: Vec<usize> = traces
        .iter()
        .map(|t| {
            t.iter()
                .filter(|o| matches!(o, TraceOp::Barrier { .. }))
                .count()
        })
        .collect();
    if barrier_counts.iter().any(|&c| c != barrier_counts[0]) {
        return Err(SimError::new(
            "litmus: processors execute different numbers of barriers",
        ));
    }
    let mut ex = Explorer {
        traces,
        delay,
        outcomes: BTreeSet::new(),
        visited: HashSet::new(),
        state_cap: 2_000_000,
    };
    let init = ExploreState {
        committed: vec![0; traces.len()],
        memory: BTreeMap::new(),
        flags: BTreeSet::new(),
        reads: BTreeMap::new(),
    };
    ex.dfs(init)?;
    Ok(ex.outcomes)
}

impl<'a> Explorer<'a> {
    fn dfs(&mut self, state: ExploreState) -> Result<(), SimError> {
        if self.visited.contains(&state) {
            return Ok(());
        }
        if self.visited.len() >= self.state_cap {
            return Err(SimError::new("litmus: state space exceeded cap"));
        }
        self.visited.insert(state.clone());

        let mut progressed = false;

        // Individual (non-barrier) commits.
        for (p, trace) in self.traces.iter().enumerate() {
            for (i, op) in trace.iter().enumerate() {
                if !self.committable(&state, p, i) {
                    continue;
                }
                match op {
                    TraceOp::Barrier { .. } => continue, // handled below
                    TraceOp::Wait { loc, .. } if !state.flags.contains(loc) => {
                        continue;
                    }
                    _ => {}
                }
                progressed = true;
                let mut next = state.clone();
                next.committed[p] |= 1 << i;
                match op {
                    TraceOp::Read { loc, .. } => {
                        let v = *next.memory.get(loc).unwrap_or(&0);
                        next.reads.insert((p as u32, i as u32), v);
                    }
                    TraceOp::Write { loc, val, .. } => {
                        next.memory.insert(*loc, *val);
                    }
                    TraceOp::Post { loc, .. } => {
                        next.flags.insert(*loc);
                    }
                    TraceOp::Wait { .. } => {}
                    TraceOp::Barrier { .. } => unreachable!(),
                }
                self.dfs(next)?;
            }
        }

        // Barrier episode: the next barrier of every processor commits
        // together when each is individually committable.
        if let Some(episode) = self.barrier_episode(&state) {
            progressed = true;
            let mut next = state.clone();
            for (p, i) in episode {
                next.committed[p] |= 1 << i;
            }
            self.dfs(next)?;
        }

        if !progressed && self.all_committed(&state) {
            let outcome: Outcome = state.reads.values().copied().collect();
            self.outcomes.insert(outcome);
        }
        // Otherwise: deadlock along this path (e.g. wait with no
        // matching post). Such executions produce no outcome.
        Ok(())
    }

    fn all_committed(&self, state: &ExploreState) -> bool {
        self.traces
            .iter()
            .enumerate()
            .all(|(p, t)| state.committed[p].count_ones() as usize == t.len())
    }

    /// Whether op `i` of proc `p` may commit now (ignoring flag state and
    /// barrier episodes).
    fn committable(&self, state: &ExploreState, p: usize, i: usize) -> bool {
        let mask = state.committed[p];
        if mask & (1 << i) != 0 {
            return false;
        }
        let trace = &self.traces[p];
        let op = &trace[i];
        for (j, earlier) in trace.iter().enumerate().take(i) {
            let committed = mask & (1 << j) != 0;
            if committed {
                continue;
            }
            // SC mode: every earlier op is a predecessor.
            if self.delay.is_none() {
                return false;
            }
            // Issue order: an uncommitted *blocking* op stalls everything
            // after it.
            if earlier.is_blocking() {
                return false;
            }
            // Same-location per-processor order (uniprocessor dependence).
            if let (Some(l1), Some(l2)) = (earlier.data_loc(), op.data_loc()) {
                let write_involved =
                    matches!(earlier, TraceOp::Write { .. }) || matches!(op, TraceOp::Write { .. });
                if l1 == l2 && write_involved {
                    return false;
                }
            }
            // Delay edges (site-level, applied to instances in order).
            if let Some(d) = self.delay {
                if d.contains(earlier.access(), op.access()) {
                    return false;
                }
            }
        }
        true
    }

    /// The next barrier episode if every processor's next barrier is
    /// committable.
    fn barrier_episode(&self, state: &ExploreState) -> Option<Vec<(usize, usize)>> {
        let mut episode = Vec::with_capacity(self.traces.len());
        for (p, trace) in self.traces.iter().enumerate() {
            // First uncommitted barrier of p.
            let i = trace.iter().enumerate().position(|(i, op)| {
                matches!(op, TraceOp::Barrier { .. }) && state.committed[p] & (1 << i) == 0
            })?;
            if !self.committable(state, p, i) {
                return None;
            }
            episode.push((p, i));
        }
        Some(episode)
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
