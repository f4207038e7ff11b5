//! The discrete-event simulator.
//!
//! Every processor runs the SPMD program (the same CFG); all shared-memory
//! and synchronization effects are serialized through a timestamped event
//! queue, so results are deterministic and independent of host scheduling.
//!
//! Cost model (see [`crate::config::MachineConfig`]):
//!
//! * a **blocking** remote access costs the full round trip
//!   (`send + latency + handler + latency + recv` — Table 1);
//! * a **split-phase** access costs the issuer only `send_overhead`; the
//!   reply/ack decrements a synchronizing counter when it arrives and
//!   steals `recv_overhead`/`ack_cycles` from the issuing CPU;
//! * a **store** has no ack at all; global barriers wait for store
//!   quiescence (the paper's completion rule for one-way communication);
//! * request handlers at a home node serialize (hot homes congest);
//! * `post`/`wait`/`lock`/`unlock` are messages to the object's home.
//!
//! The simulator also performs the paper's §5.2 **runtime barrier check**:
//! it records each processor's sequence of barrier sites and reports
//! whether they lined up.
//!
//! # Engine
//!
//! The hot path is allocation- and hash-free: processor locals and
//! counters, lock tables, flag-waiter lists, and shared memory are flat
//! `Vec`s indexed by the dense integer ids the IR guarantees, sized once
//! from the program header, and the interpreter executes instructions,
//! terminators and their expressions by reference out of the borrowed
//! [`Cfg`] (`tests/sim_alloc.rs` measures it). Pending events live in a
//! **calendar queue** — a bucketed time wheel with a binary-heap overflow
//! rung and a free-list event arena ([`EngineKind::Calendar`]). The original `BinaryHeap`-of-tuples engine
//! is retained as [`EngineKind::ReferenceHeap`] so differential tests can
//! prove the two are observationally identical; both dispatch events in
//! strictly increasing `(time, seq)` order, where `seq` is the global
//! push order, so the tie-break is exactly the historical one.

use crate::config::MachineConfig;
use crate::memory::{Location, SharedMemory};
use crate::metrics::{BarrierEpoch, ProcCycles, SimMetrics, SimWork};
use crate::trace::{FlowKind, StateKind, Trace, TraceKind};
use crate::value::{eval, ProcEnv, SimError, Value};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use syncopt_ir::cfg::{Cfg, CtrId, Instr, Terminator};
use syncopt_ir::expr::SharedRef;
use syncopt_ir::ids::{AccessId, BlockId, VarId};

syncopt_core::counter_struct! {
    /// Network / synchronization message counters.
    pub struct NetStats: u64 {
        /// Split-phase or blocking read requests sent to a remote home.
        get_requests,
        /// Data replies for gets.
        get_replies,
        /// Two-way write requests.
        put_requests,
        /// Acknowledgements for two-way writes.
        put_acks,
        /// One-way store requests (never acknowledged).
        store_requests,
        /// Post messages.
        post_messages,
        /// Wait check/notify messages.
        wait_messages,
        /// Lock request/grant/release messages.
        lock_messages,
        /// Barrier episodes completed.
        barriers,
    }
}

impl NetStats {
    /// Total messages on the wire: every counter but `barriers`, which
    /// counts episodes.
    pub fn total_messages(&self) -> u64 {
        self.values().iter().sum::<u64>() - self.barriers
    }
}

syncopt_core::counter_struct! {
    /// Cycles spent blocked, by cause, summed over processors.
    pub struct StallStats: u64 {
        /// Waiting on `sync_ctr`.
        sync,
        /// Waiting at barriers.
        barrier,
        /// Waiting on events (`wait`).
        wait,
        /// Waiting for lock grants.
        lock,
        /// Blocking (non-split) remote accesses.
        blocking,
    }
}

/// The outcome of a simulation.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Execution time: the maximum processor finish time, in cycles.
    pub exec_cycles: u64,
    /// Per-processor finish times.
    pub proc_cycles: Vec<u64>,
    /// Message counters.
    pub net: NetStats,
    /// Stall cycle accounting.
    pub stalls: StallStats,
    /// Final shared-memory image (in variable-id order). Empty when the
    /// run was configured with [`SimOutputs::memory`] off.
    pub memory: Vec<(VarId, Vec<Value>)>,
    /// Whether all processors executed the same barrier-site sequence
    /// (`true` when the check is disabled or there are no barriers).
    pub barriers_aligned: bool,
    /// Per-processor cycle accounting, remote-access latency histogram,
    /// and the barrier epoch timeline.
    pub metrics: SimMetrics,
    /// Each processor's sequence of barrier sites, for diagnosing a
    /// misaligned-barrier fallback (the §5.2 runtime check). Empty when
    /// the run was configured with [`SimOutputs::barrier_seqs`] off.
    pub barrier_seqs: Vec<Vec<AccessId>>,
}

/// Which event-queue implementation drives the simulation.
///
/// Both dispatch in identical `(time, seq)` order, so every observable
/// output except the [`SimWork`] engine counters is bit-identical; the
/// differential suite in the `syncopt` crate relies on that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Bucketed time-wheel/calendar queue with a binary-heap overflow rung
    /// and a free-list event arena (the production engine).
    #[default]
    Calendar,
    /// The historical `BinaryHeap<(time, seq, idx)>` plus grow-only side
    /// event storage, kept as the differential-testing reference.
    ReferenceHeap,
}

/// Which result components to extract when the run completes.
///
/// Building `SimResult.memory` (a full snapshot of shared memory) and
/// `barrier_seqs` (per-processor clones) is pure overhead for harnesses
/// that only read cycle counts — throughput benches, sweep drivers,
/// exhaustive explorers. Both default to **on**, preserving `simulate`'s
/// historical behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOutputs {
    /// Extract the final shared-memory image.
    pub memory: bool,
    /// Extract per-processor barrier-site sequences. (The alignment
    /// *check* always runs; only the copies are skipped.)
    pub barrier_seqs: bool,
}

impl SimOutputs {
    /// Everything extracted (the `simulate` default).
    pub fn full() -> Self {
        SimOutputs {
            memory: true,
            barrier_seqs: true,
        }
    }

    /// Timing-only: skip final-state extraction entirely.
    pub fn lean() -> Self {
        SimOutputs {
            memory: false,
            barrier_seqs: false,
        }
    }
}

impl Default for SimOutputs {
    fn default() -> Self {
        Self::full()
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Msg {
    Get {
        from: u32,
        loc: Location,
        dst: VarId,
        ctr: Option<CtrId>,
        /// Injection time at the issuer (`None` for a local access) —
        /// carried through to the reply for the latency histogram.
        issued: Option<u64>,
    },
    Put {
        from: u32,
        loc: Location,
        val: Value,
        ctr: Option<CtrId>,
        issued: Option<u64>,
    },
    Store {
        from: u32,
        loc: Location,
        val: Value,
        issued: Option<u64>,
    },
    Post {
        from: u32,
        loc: Location,
    },
    WaitCheck {
        from: u32,
        loc: Location,
    },
    LockReq {
        from: u32,
        lock: VarId,
    },
    Unlock {
        from: u32,
        lock: VarId,
    },
}

#[derive(Debug, Clone)]
pub(crate) enum Delivery {
    GetReply {
        dst: VarId,
        val: Value,
        ctr: Option<CtrId>,
        /// Receive cost paid inline by a *blocking* issuer (0 for local).
        recv: u64,
        /// Injection time of the originating request (`None` for local).
        issued: Option<u64>,
    },
    PutAck {
        ctr: Option<CtrId>,
        /// Ack cost paid inline by a *blocking* issuer (0 for local).
        recv: u64,
        /// Injection time of the originating request (`None` for local).
        issued: Option<u64>,
    },
    FlagSet {
        /// Receive cost to steal from the woken processor at delivery.
        /// Zero in the sequential engines (the steal is written directly
        /// at the home); the sharded engine defers the steal of a
        /// non-owned waker target into the delivery, which is equivalent
        /// because a blocked processor has no pending `Run` to observe
        /// the difference.
        credit: u64,
    },
    LockGrant {
        /// Which lock was granted, so the trace can attribute the hold
        /// interval when the unlock is serviced.
        lock: VarId,
        /// Deferred receive-cost steal; see [`Delivery::FlagSet`].
        credit: u64,
    },
}

#[derive(Debug, Clone)]
pub(crate) enum Event {
    Run(u32),
    Arrive {
        home: u32,
        msg: Msg,
    },
    Deliver {
        to: u32,
        del: Delivery,
    },
    /// Sharded engine only: apply a deferred split-phase receive steal to
    /// a processor's CPU. Scheduled by the *issuing* shard at the
    /// request's arrival time, keyed immediately after the request, so it
    /// lands at exactly the global dispatch position where the sequential
    /// engine writes the steal at the remote home.
    Credit {
        to: u32,
        amount: u64,
    },
}

// ---- the event queue ----------------------------------------------------

/// Wheel width: one bucket per cycle over a `[cursor, cursor + WHEEL_SIZE)`
/// window. Covers every Table 1 one-hop cost; only far-future schedules
/// (long `work`, barrier releases) take the overflow rung.
const WHEEL_SIZE: u64 = 1024;
const WHEEL_MASK: u64 = WHEEL_SIZE - 1;
/// Null link in the event arena.
const NIL: u32 = u32::MAX;

struct ArenaSlot {
    time: u64,
    seq: u64,
    /// Next slot in the bucket chain, or next free slot when recycled.
    next: u32,
    event: Event,
}

/// Bucketed calendar queue.
///
/// Invariants that make dispatch order exactly `(time, seq)`:
///
/// * every live wheel event has `time ∈ [cursor, cursor + WHEEL_SIZE)`, so
///   a bucket holds at most one *distinct* timestamp at a time;
/// * bucket chains are appended at the tail and `seq` is assigned
///   monotonically at push, so each chain is seq-ascending;
/// * events at or past `cursor + WHEEL_SIZE` go to the binary-heap
///   overflow rung, which is itself `(time, seq)`-ordered; a batch at
///   time `t` merges the bucket chain with the overflow stream by `seq`.
///
/// Overflow events are never promoted into future buckets — promotion
/// would append a low-seq event behind higher-seq residents and break the
/// tie-break. The merge at drain time sidesteps that entirely.
struct CalendarQueue {
    /// `(head, tail)` arena links per bucket; `NIL` when empty.
    buckets: Vec<(u32, u32)>,
    /// Start of the wheel window == the current batch time.
    cursor: u64,
    /// Live events resident in wheel buckets.
    wheel_live: u64,
    /// Far-future rung, `(time, seq, slot)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    arena: Vec<ArenaSlot>,
    free_head: u32,
    next_seq: u64,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            buckets: vec![(NIL, NIL); WHEEL_SIZE as usize],
            cursor: 0,
            wheel_live: 0,
            overflow: BinaryHeap::new(),
            arena: Vec::new(),
            free_head: NIL,
            next_seq: 0,
        }
    }

    fn alloc(&mut self, time: u64, seq: u64, event: Event, work: &mut SimWork) -> u32 {
        if self.free_head != NIL {
            let s = self.free_head;
            self.free_head = self.arena[s as usize].next;
            self.arena[s as usize] = ArenaSlot {
                time,
                seq,
                next: NIL,
                event,
            };
            work.arena_reuses += 1;
            s
        } else {
            self.arena.push(ArenaSlot {
                time,
                seq,
                next: NIL,
                event,
            });
            u32::try_from(self.arena.len() - 1).expect("event arena too large")
        }
    }

    fn free(&mut self, slot: u32) -> Event {
        let event = std::mem::replace(&mut self.arena[slot as usize].event, Event::Run(0));
        self.arena[slot as usize].next = self.free_head;
        self.free_head = slot;
        event
    }

    fn push(&mut self, time: u64, event: Event, work: &mut SimWork) {
        debug_assert!(time >= self.cursor, "event scheduled in the past");
        work.events_scheduled += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        if time >= self.cursor + WHEEL_SIZE {
            work.overflow_promotions += 1;
            let slot = self.alloc(time, seq, event, work);
            self.overflow.push(Reverse((time, seq, slot)));
        } else {
            let slot = self.alloc(time, seq, event, work);
            let b = (time & WHEEL_MASK) as usize;
            let (head, tail) = self.buckets[b];
            if head == NIL {
                self.buckets[b] = (slot, slot);
            } else {
                debug_assert_eq!(self.arena[tail as usize].time, time);
                self.arena[tail as usize].next = slot;
                self.buckets[b].1 = slot;
            }
            self.wheel_live += 1;
        }
    }

    /// Earliest pending timestamp; advances `cursor` (and with it the
    /// wheel window) to it. Scanned empty slots are the wheel's analogue
    /// of heap sift work and are counted as `bucket_rotations`.
    fn next_time(&mut self, work: &mut SimWork) -> Option<u64> {
        let t_over = self.overflow.peek().map(|Reverse((t, _, _))| *t);
        if self.wheel_live == 0 {
            let t = t_over?;
            self.cursor = t;
            return Some(t);
        }
        let mut t = self.cursor;
        loop {
            work.bucket_rotations += 1;
            if self.buckets[(t & WHEEL_MASK) as usize].0 != NIL {
                break;
            }
            t += 1;
            debug_assert!(t < self.cursor + WHEEL_SIZE, "live wheel event not found");
        }
        let t = match t_over {
            Some(o) if o < t => o,
            _ => t,
        };
        self.cursor = t;
        Some(t)
    }

    /// Pops the next event of the batch at time `t` in seq order, merging
    /// the bucket chain with same-time overflow arrivals. Same-cycle
    /// pushes made while the batch drains land back in the bucket (their
    /// seq is larger than anything live) and are picked up before the
    /// batch ends.
    fn pop_at(&mut self, t: u64, work: &mut SimWork) -> Option<Event> {
        debug_assert_eq!(t, self.cursor);
        let b = (t & WHEEL_MASK) as usize;
        let head = self.buckets[b].0;
        let bucket_seq = (head != NIL).then(|| {
            debug_assert_eq!(self.arena[head as usize].time, t);
            self.arena[head as usize].seq
        });
        let over_seq = match self.overflow.peek() {
            Some(Reverse((ot, oseq, _))) if *ot == t => Some(*oseq),
            _ => None,
        };
        let from_bucket = match (bucket_seq, over_seq) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(bs), Some(os)) => bs < os,
        };
        work.events_dequeued += 1;
        if from_bucket {
            let next = self.arena[head as usize].next;
            self.buckets[b].0 = next;
            if next == NIL {
                self.buckets[b].1 = NIL;
            }
            self.wheel_live -= 1;
            Some(self.free(head))
        } else {
            let Reverse((_, _, slot)) = self.overflow.pop().expect("peeked");
            Some(self.free(slot))
        }
    }
}

/// The historical engine: a binary heap of `(time, seq, idx)` tuples with
/// grow-only side event storage, exactly as shipped before the calendar
/// queue. Kept for differential testing.
struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    events: Vec<Event>,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            events: Vec::new(),
        }
    }

    fn push(&mut self, time: u64, event: Event, work: &mut SimWork) {
        work.events_scheduled += 1;
        let seq = self.events.len() as u64;
        self.events.push(event);
        self.heap.push(Reverse((time, seq, self.events.len() - 1)));
    }

    fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    fn pop_at(&mut self, t: u64, work: &mut SimWork) -> Option<Event> {
        match self.heap.peek() {
            Some(Reverse((pt, _, _))) if *pt == t => {
                let Reverse((_, _, idx)) = self.heap.pop().expect("peeked");
                work.events_dequeued += 1;
                Some(self.events[idx].clone())
            }
            _ => None,
        }
    }
}

enum EventQueue {
    Calendar(CalendarQueue),
    Heap(HeapQueue),
}

impl EventQueue {
    fn new(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
            EngineKind::ReferenceHeap => EventQueue::Heap(HeapQueue::new()),
        }
    }

    fn push(&mut self, time: u64, event: Event, work: &mut SimWork) {
        match self {
            EventQueue::Calendar(q) => q.push(time, event, work),
            EventQueue::Heap(q) => q.push(time, event, work),
        }
    }

    fn next_time(&mut self, work: &mut SimWork) -> Option<u64> {
        match self {
            EventQueue::Calendar(q) => q.next_time(work),
            EventQueue::Heap(q) => q.next_time(),
        }
    }

    fn pop_at(&mut self, t: u64, work: &mut SimWork) -> Option<Event> {
        match self {
            EventQueue::Calendar(q) => q.pop_at(t, work),
            EventQueue::Heap(q) => q.pop_at(t, work),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Status {
    Ready,
    BlockedSync(CtrId, u64),
    BlockedReply(u64),
    BlockedWait(u64),
    BlockedLock(u64),
    BlockedBarrier(u64),
    Finished,
}

pub(crate) struct ProcState {
    env: ProcEnv,
    block: BlockId,
    instr: usize,
    pub(crate) time: u64,
    steal: u64,
    steps: u64,
    pub(crate) status: Status,
    /// Outstanding split-phase operations per counter, dense by `CtrId`.
    ctrs: Vec<u64>,
    pub(crate) barrier_seq: Vec<AccessId>,
    pub(crate) finished_at: Option<u64>,
}

struct LockState {
    held: bool,
    queue: VecDeque<u32>,
    /// Grant-delivery time of the current holder; maintained only while
    /// tracing, for lock-hold spans.
    acquired_at: u64,
}

/// Runs `cfg` on the machine described by `config`.
///
/// # Errors
///
/// Returns a [`SimError`] on runtime faults (out-of-bounds indices,
/// division by zero), deadlock, or when a processor exceeds
/// `config.max_steps`.
pub fn simulate(cfg: &Cfg, config: &MachineConfig) -> Result<SimResult, SimError> {
    Simulator::new(cfg, config, EngineKind::Calendar, SimOutputs::full())
        .run()
        .map(|(r, _)| r)
}

/// [`simulate`] with an explicit event engine and output selection; the
/// entry point for differential tests and timing-only harnesses.
///
/// # Errors
///
/// Same failure modes as [`simulate`].
pub fn simulate_configured(
    cfg: &Cfg,
    config: &MachineConfig,
    engine: EngineKind,
    outputs: SimOutputs,
) -> Result<SimResult, SimError> {
    Simulator::new(cfg, config, engine, outputs)
        .run()
        .map(|(r, _)| r)
}

/// [`simulate`], additionally returning an execution trace (bounded to
/// `trace_cap` events).
///
/// # Errors
///
/// Same failure modes as [`simulate`].
pub fn simulate_traced(
    cfg: &Cfg,
    config: &MachineConfig,
    trace_cap: usize,
) -> Result<(SimResult, Trace), SimError> {
    let mut sim = Simulator::new(cfg, config, EngineKind::Calendar, SimOutputs::full());
    sim.trace = Some(Trace::with_capacity(trace_cap));
    sim.run().map(|(r, t)| (r, t.unwrap_or_default()))
}

pub(crate) struct Simulator<'a> {
    cfg: &'a Cfg,
    pub(crate) config: &'a MachineConfig,
    pub(crate) outputs: SimOutputs,
    pub(crate) procs: Vec<ProcState>,
    pub(crate) memory: SharedMemory,
    queue: EventQueue,
    /// Lock state, dense by `VarId` (non-lock slots stay untouched).
    locks: Vec<LockState>,
    /// Blocked waiters per flag slot, dense by `SharedMemory::flag_slot`.
    waiters: Vec<Vec<u32>>,
    handler_free: Vec<u64>,
    next_inject: Vec<u64>,
    // Barrier rendezvous state.
    barrier_arrivals: Vec<Option<(AccessId, u64)>>,
    /// How many `barrier_arrivals` are `Some`: the rendezvous is complete
    /// when this reaches the processor count.
    barrier_arrived: usize,
    // Arrival times of stores still in flight.
    stores_in_flight: u64,
    barrier_release_pending: bool,
    pub(crate) net: NetStats,
    pub(crate) stalls: StallStats,
    pub(crate) metrics: SimMetrics,
    trace: Option<Trace>,
    /// Sharded-engine context: event routing, dispatch-position keys, and
    /// barrier/store episode logs. `None` for the sequential engines.
    pub(crate) shard: Option<Box<crate::shard::ShardCtx>>,
}

impl<'a> Simulator<'a> {
    pub(crate) fn new(
        cfg: &'a Cfg,
        config: &'a MachineConfig,
        engine: EngineKind,
        outputs: SimOutputs,
    ) -> Self {
        let p = config.procs;
        assert!(p >= 1, "need at least one processor");
        let num_ctrs = cfg.num_ctrs as usize;
        let procs = (0..p)
            .map(|i| ProcState {
                env: ProcEnv::new(i, p, &cfg.vars),
                block: cfg.entry,
                instr: 0,
                time: 0,
                steal: 0,
                steps: 0,
                status: Status::Ready,
                ctrs: vec![0; num_ctrs],
                barrier_seq: Vec::new(),
                finished_at: None,
            })
            .collect();
        let memory = SharedMemory::new(p, &cfg.vars);
        let locks = (0..cfg.vars.len())
            .map(|_| LockState {
                held: false,
                queue: VecDeque::new(),
                acquired_at: 0,
            })
            .collect();
        let waiters = vec![Vec::new(); memory.num_flag_slots()];
        Simulator {
            cfg,
            config,
            outputs,
            procs,
            memory,
            queue: EventQueue::new(engine),
            locks,
            waiters,
            handler_free: vec![0; p as usize],
            next_inject: vec![0; p as usize],
            barrier_arrivals: vec![None; p as usize],
            barrier_arrived: 0,
            stores_in_flight: 0,
            barrier_release_pending: false,
            net: NetStats::default(),
            stalls: StallStats::default(),
            metrics: SimMetrics {
                per_proc: vec![ProcCycles::default(); p as usize],
                ..SimMetrics::default()
            },
            trace: None,
            shard: None,
        }
    }

    /// Whether processor `p`'s private state (env, clock, steal, status)
    /// belongs to this simulator instance. Always true for the sequential
    /// engines; the sharded engine partitions processors across instances.
    fn shard_owns(&self, p: u32) -> bool {
        self.shard.as_ref().is_none_or(|s| s.owns(p))
    }

    /// Split-phase receive steal for a wake-up delivery to `to`: written
    /// directly when `to` is owned (the sequential path), otherwise
    /// returned so it can ride in the delivery and be applied at the
    /// target shard. Equivalent because the target is blocked with no
    /// pending `Run` until that very delivery arrives.
    fn deferred_credit(&mut self, to: u32, recv: u64) -> u64 {
        if self.shard_owns(to) {
            self.procs[to as usize].steal += recv;
            0
        } else {
            recv
        }
    }

    fn trace(&mut self, time: u64, proc: u32, kind: TraceKind) {
        if let Some(t) = &mut self.trace {
            t.record(time, proc, kind);
        }
    }

    /// Records that processor `pi` spent `[start, end)` in `state`
    /// (no-op when tracing is off).
    fn trace_state(&mut self, pi: usize, state: StateKind, start: u64, end: u64) {
        if let Some(t) = &mut self.trace {
            t.record_state(pi as u32, state, start, end);
        }
    }

    /// Advances processor `pi`'s clock by `delta` busy cycles: the one
    /// attribution path for execution, injection, and stolen handler time,
    /// so the cycle counter and the traced busy spans cannot diverge.
    fn charge_busy(&mut self, pi: usize, delta: u64) {
        let start = self.procs[pi].time;
        self.procs[pi].time += delta;
        self.metrics.per_proc[pi].busy += delta;
        self.trace_state(pi, StateKind::Busy, start, start + delta);
    }

    fn push(&mut self, time: u64, event: Event) {
        if let Some(sh) = &mut self.shard {
            sh.route(time, event, &mut self.metrics.work);
        } else {
            self.queue.push(time, event, &mut self.metrics.work);
        }
    }

    fn run(mut self) -> Result<(SimResult, Option<Trace>), SimError> {
        for p in 0..self.config.procs {
            self.push(0, Event::Run(p));
        }
        // Batched drain: take the earliest pending timestamp, then pop
        // every event at that time (including same-cycle pushes made while
        // draining) in seq order before advancing.
        while let Some(time) = self.queue.next_time(&mut self.metrics.work) {
            while let Some(event) = self.queue.pop_at(time, &mut self.metrics.work) {
                self.dispatch(time, event)?;
            }
        }
        // Everything drained: all processors must have finished.
        let unfinished: Vec<usize> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.status != Status::Finished)
            .map(|(i, _)| i)
            .collect();
        if !unfinished.is_empty() {
            return Err(SimError::new(format!(
                "deadlock: processors {unfinished:?} blocked ({:?})",
                self.procs[unfinished[0]].status
            )));
        }
        let proc_cycles: Vec<u64> = self
            .procs
            .iter()
            .map(|p| p.finished_at.expect("finished proc has finish time"))
            .collect();
        let exec_cycles = proc_cycles.iter().copied().max().unwrap_or(0);
        let barriers_aligned = self.barriers_aligned();
        // Processors that finished early were idle until the slowest one
        // was done; with that, every simulated cycle is accounted for.
        for (pi, finish) in proc_cycles.iter().enumerate() {
            self.metrics.per_proc[pi].idle = exec_cycles - finish;
            if let Some(t) = &mut self.trace {
                t.record_state(pi as u32, StateKind::Idle, *finish, exec_cycles);
            }
        }
        let memory = if self.outputs.memory {
            self.memory.snapshot()
        } else {
            Vec::new()
        };
        let barrier_seqs = if self.outputs.barrier_seqs {
            self.procs.iter().map(|p| p.barrier_seq.clone()).collect()
        } else {
            Vec::new()
        };
        Ok((
            SimResult {
                exec_cycles,
                proc_cycles,
                net: self.net,
                stalls: self.stalls,
                memory,
                barriers_aligned,
                metrics: self.metrics,
                barrier_seqs,
            },
            self.trace,
        ))
    }

    fn barriers_aligned(&self) -> bool {
        if !self.config.check_barrier_alignment {
            return true;
        }
        let first = &self.procs[0].barrier_seq;
        self.procs.iter().all(|p| &p.barrier_seq == first)
    }

    /// Dispatches one popped event: the shared interpreter core for the
    /// sequential drain loop and the sharded engine's window workers.
    pub(crate) fn dispatch(&mut self, time: u64, event: Event) -> Result<(), SimError> {
        match event {
            Event::Run(p) => {
                let pi = p as usize;
                if self.procs[pi].status == Status::Finished {
                    return Ok(());
                }
                let slack = time.saturating_sub(self.procs[pi].time);
                self.charge_busy(pi, slack);
                self.run_proc(p)
            }
            Event::Arrive { home, msg } => self.handle_arrive(time, home, msg),
            Event::Deliver { to, del } => self.handle_deliver(time, to, del),
            Event::Credit { to, amount } => {
                self.procs[to as usize].steal += amount;
                Ok(())
            }
        }
    }

    // ---- the per-processor interpreter ---------------------------------

    fn run_proc(&mut self, p: u32) -> Result<(), SimError> {
        let pi = p as usize;
        // Consume stolen cycles (message handling charged to this CPU).
        let steal = std::mem::take(&mut self.procs[pi].steal);
        self.charge_busy(pi, steal);
        self.procs[pi].status = Status::Ready;
        // Borrow the program for `'a`, not through `self`: instructions and
        // terminators can then be executed in place while `self` mutates.
        let cfg = self.cfg;
        loop {
            self.procs[pi].steps += 1;
            if self.procs[pi].steps > self.config.max_steps {
                return Err(SimError::new(format!(
                    "processor {p} exceeded max_steps ({})",
                    self.config.max_steps
                )));
            }
            let block = cfg.block(self.procs[pi].block);
            let Some(instr) = block.instrs.get(self.procs[pi].instr) else {
                match &block.term {
                    Terminator::Goto(t) => {
                        self.procs[pi].block = *t;
                        self.procs[pi].instr = 0;
                    }
                    Terminator::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        self.charge_busy(pi, self.config.local_op_cycles);
                        let taken = eval(cond, &self.procs[pi].env)?.as_bool()?;
                        self.procs[pi].block = if taken { *then_bb } else { *else_bb };
                        self.procs[pi].instr = 0;
                    }
                    Terminator::Return => {
                        self.procs[pi].status = Status::Finished;
                        self.procs[pi].finished_at = Some(self.procs[pi].time);
                        let t = self.procs[pi].time;
                        self.trace(t, p, TraceKind::Finished);
                        return Ok(());
                    }
                }
                continue;
            };
            self.procs[pi].instr += 1;
            if !self.exec_instr(p, instr)? {
                // Blocked: the instruction will be *re-tried or resumed* by
                // a Deliver; blocking instructions are responsible for
                // setting up their own continuation (we re-run the same
                // instruction only for barrier-style retries, so blocked
                // instructions rewind the counter themselves if needed).
                return Ok(());
            }
        }
    }

    /// Executes one instruction; returns `false` if the processor blocked.
    fn exec_instr(&mut self, p: u32, instr: &Instr) -> Result<bool, SimError> {
        let pi = p as usize;
        match instr {
            Instr::AssignLocal { dst, value } => {
                let v = eval(value, &self.procs[pi].env)?;
                self.procs[pi].env.store(*dst, v)?;
                self.charge_busy(pi, self.config.local_op_cycles);
                Ok(true)
            }
            Instr::AssignLocalElem {
                array,
                index,
                value,
            } => {
                let idx = eval(index, &self.procs[pi].env)?.as_int()?;
                let v = eval(value, &self.procs[pi].env)?;
                self.procs[pi].env.store_elem(*array, idx, v)?;
                self.charge_busy(pi, self.config.local_op_cycles);
                Ok(true)
            }
            Instr::Work { cost } => {
                let c = eval(cost, &self.procs[pi].env)?.as_int()?;
                if c < 0 {
                    return Err(SimError::new("negative work cost"));
                }
                self.charge_busy(pi, c as u64);
                Ok(true)
            }
            Instr::GetShared { dst, src, .. } => {
                let loc = self.resolve(p, src)?;
                let home = self.memory.home(loc);
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.get_requests += 1;
                    self.remote_send(pi)
                };
                let issued = (home != p).then(|| self.procs[pi].time);
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::Get {
                            from: p,
                            loc,
                            dst: *dst,
                            ctr: None,
                            issued,
                        },
                    },
                );
                self.procs[pi].status = Status::BlockedReply(self.procs[pi].time);
                Ok(false)
            }
            Instr::PutShared { dst, src, .. } => {
                let loc = self.resolve(p, dst)?;
                let val = eval(src, &self.procs[pi].env)?;
                let home = self.memory.home(loc);
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.put_requests += 1;
                    self.remote_send(pi)
                };
                let issued = (home != p).then(|| self.procs[pi].time);
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::Put {
                            from: p,
                            loc,
                            val,
                            ctr: None,
                            issued,
                        },
                    },
                );
                self.procs[pi].status = Status::BlockedReply(self.procs[pi].time);
                Ok(false)
            }
            Instr::GetInit { dst, src, ctr, .. } => {
                let loc = self.resolve(p, src)?;
                let home = self.memory.home(loc);
                self.procs[pi].ctrs[ctr.0 as usize] += 1;
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.get_requests += 1;
                    self.remote_send(pi)
                };
                let issued = (home != p).then(|| self.procs[pi].time);
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::Get {
                            from: p,
                            loc,
                            dst: *dst,
                            ctr: Some(*ctr),
                            issued,
                        },
                    },
                );
                if !self.shard_owns(home) {
                    // The reply's receive steal, scheduled locally and
                    // keyed adjacent to the request's arrival — the exact
                    // global position where the sequential engine writes
                    // it at the home.
                    self.push(
                        t,
                        Event::Credit {
                            to: p,
                            amount: self.config.recv_overhead,
                        },
                    );
                }
                Ok(true)
            }
            Instr::PutInit { dst, src, ctr, .. } => {
                let loc = self.resolve(p, dst)?;
                let val = eval(src, &self.procs[pi].env)?;
                let home = self.memory.home(loc);
                self.procs[pi].ctrs[ctr.0 as usize] += 1;
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.put_requests += 1;
                    self.remote_send(pi)
                };
                let issued = (home != p).then(|| self.procs[pi].time);
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::Put {
                            from: p,
                            loc,
                            val,
                            ctr: Some(*ctr),
                            issued,
                        },
                    },
                );
                if !self.shard_owns(home) {
                    // Ack steal; see the split-phase get above.
                    self.push(
                        t,
                        Event::Credit {
                            to: p,
                            amount: self.config.ack_cycles,
                        },
                    );
                }
                Ok(true)
            }
            Instr::StoreInit { dst, src, .. } => {
                let loc = self.resolve(p, dst)?;
                let val = eval(src, &self.procs[pi].env)?;
                let home = self.memory.home(loc);
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.store_requests += 1;
                    self.remote_send(pi)
                };
                let issued = (home != p).then(|| self.procs[pi].time);
                if let Some(sh) = &mut self.shard {
                    sh.log_store_init();
                } else {
                    self.stores_in_flight += 1;
                }
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::Store {
                            from: p,
                            loc,
                            val,
                            issued,
                        },
                    },
                );
                Ok(true)
            }
            Instr::SyncCtr { ctr } => {
                self.charge_busy(pi, self.config.local_op_cycles);
                if self.procs[pi].ctrs[ctr.0 as usize] == 0 {
                    Ok(true)
                } else {
                    self.procs[pi].status = Status::BlockedSync(*ctr, self.procs[pi].time);
                    Ok(false)
                }
            }
            Instr::Post { flag, index, .. } => {
                let loc = self.resolve_flag(p, *flag, index.as_ref())?;
                let home = self.memory.home(loc);
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.post_messages += 1;
                    self.remote_send(pi)
                };
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::Post { from: p, loc },
                    },
                );
                Ok(true)
            }
            Instr::Wait { flag, index, .. } => {
                let loc = self.resolve_flag(p, *flag, index.as_ref())?;
                let home = self.memory.home(loc);
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.wait_messages += 1;
                    self.remote_send(pi)
                };
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::WaitCheck { from: p, loc },
                    },
                );
                self.procs[pi].status = Status::BlockedWait(self.procs[pi].time);
                Ok(false)
            }
            Instr::LockAcq { lock, .. } => {
                let loc = Location {
                    var: *lock,
                    index: 0,
                };
                let home = self.memory.home(loc);
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.lock_messages += 1;
                    self.remote_send(pi)
                };
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::LockReq {
                            from: p,
                            lock: *lock,
                        },
                    },
                );
                self.procs[pi].status = Status::BlockedLock(self.procs[pi].time);
                Ok(false)
            }
            Instr::LockRel { lock, .. } => {
                let loc = Location {
                    var: *lock,
                    index: 0,
                };
                let home = self.memory.home(loc);
                let t = if home == p {
                    self.local_touch(pi)
                } else {
                    self.net.lock_messages += 1;
                    self.remote_send(pi)
                };
                self.push(
                    t,
                    Event::Arrive {
                        home,
                        msg: Msg::Unlock {
                            from: p,
                            lock: *lock,
                        },
                    },
                );
                Ok(true)
            }
            Instr::Barrier { access } => {
                self.procs[pi].barrier_seq.push(*access);
                let arrive = self.procs[pi].time;
                self.procs[pi].status = Status::BlockedBarrier(arrive);
                if let Some(sh) = &mut self.shard {
                    // Sharded: the rendezvous is global, so arrivals are
                    // logged and resolved by the round leader at the next
                    // horizon boundary.
                    sh.log_barrier_arrival(p, arrive);
                    return Ok(false);
                }
                self.barrier_arrivals[pi] = Some((*access, arrive));
                self.barrier_arrived += 1;
                if self.barrier_arrived == self.barrier_arrivals.len() {
                    // One-way stores must drain before the barrier
                    // completes (the completion rule for stores); if any
                    // are still in flight the last drain triggers release.
                    if self.stores_in_flight == 0 {
                        self.release_barrier(arrive)?;
                    } else {
                        self.barrier_release_pending = true;
                    }
                }
                Ok(false)
            }
        }
    }

    fn release_barrier(&mut self, base: u64) -> Result<(), SimError> {
        let (min_arrival, max_arrival) = self
            .barrier_arrivals
            .iter()
            .map(|a| a.expect("all arrived").1)
            .fold((u64::MAX, 0), |(lo, hi), t| (lo.min(t), hi.max(t)));
        self.barrier_arrived = 0;
        let release = max_arrival.max(base) + self.config.barrier_cycles;
        self.trace(release, 0, TraceKind::BarrierRelease);
        if let Some(t) = &mut self.trace {
            t.record_barrier(min_arrival, max_arrival, release);
        }
        self.net.barriers += 1;
        self.metrics.barrier_epochs.push(BarrierEpoch {
            first_arrival: min_arrival,
            last_arrival: max_arrival,
            release,
        });
        for pi in 0..self.procs.len() {
            let (_, arrive) = self.barrier_arrivals[pi].take().expect("arrived");
            self.stalls.barrier += release - arrive;
            let start = self.procs[pi].time;
            self.metrics.per_proc[pi].barrier += release - start;
            self.procs[pi].time = release;
            self.trace_state(pi, StateKind::Barrier, start, release);
            self.push(release, Event::Run(pi as u32));
        }
        Ok(())
    }

    // ---- home-node message handling -------------------------------------

    fn handle_arrive(&mut self, time: u64, home: u32, msg: Msg) -> Result<(), SimError> {
        let hi = home as usize;
        // Handlers at one node serialize. A message from the home processor
        // itself models a plain local access: no handler cost.
        let from_proc = match &msg {
            Msg::Get { from, .. }
            | Msg::Put { from, .. }
            | Msg::Store { from, .. }
            | Msg::Post { from, .. }
            | Msg::WaitCheck { from, .. }
            | Msg::LockReq { from, .. }
            | Msg::Unlock { from, .. } => *from,
        };
        let local = from_proc == home;
        let start = time.max(self.handler_free[hi]);
        let handler = if local { 0 } else { self.config.handler_cycles };
        let done = start + handler;
        self.handler_free[hi] = done;
        if !local {
            self.metrics.per_proc[hi].msgs_handled += 1;
        }
        match msg {
            Msg::Get {
                from,
                loc,
                dst,
                ctr,
                issued,
            } => {
                self.trace(done, home, TraceKind::Service { what: "get" });
                let val = self.memory.load(loc)?;
                let (deliver, recv) = if local {
                    (done, 0)
                } else {
                    self.net.get_replies += 1;
                    (
                        done + self.config.network_latency,
                        self.config.recv_overhead,
                    )
                };
                if let (Some(t), Some(iss)) = (&mut self.trace, issued) {
                    t.record_flow(FlowKind::Get, from, home, iss, done, Some(deliver));
                }
                if ctr.is_some() && self.shard_owns(from) {
                    // Split-phase replies interrupt the issuing CPU. A
                    // non-owned issuer already scheduled this steal as a
                    // local Credit event at issue time.
                    self.procs[from as usize].steal += recv;
                }
                self.push(
                    deliver,
                    Event::Deliver {
                        to: from,
                        del: Delivery::GetReply {
                            dst,
                            val,
                            ctr,
                            recv,
                            issued,
                        },
                    },
                );
            }
            Msg::Put {
                from,
                loc,
                val,
                ctr,
                issued,
            } => {
                self.trace(done, home, TraceKind::Service { what: "put" });
                self.memory.store(loc, val)?;
                let (deliver, recv) = if local {
                    (done, 0)
                } else {
                    self.net.put_acks += 1;
                    (
                        done + self.config.ack_cycles + self.config.network_latency,
                        self.config.ack_cycles,
                    )
                };
                if let (Some(t), Some(iss)) = (&mut self.trace, issued) {
                    t.record_flow(FlowKind::Put, from, home, iss, done, Some(deliver));
                }
                if ctr.is_some() && self.shard_owns(from) {
                    self.procs[from as usize].steal += recv;
                }
                self.push(
                    deliver,
                    Event::Deliver {
                        to: from,
                        del: Delivery::PutAck { ctr, recv, issued },
                    },
                );
            }
            Msg::Store {
                from,
                loc,
                val,
                issued,
            } => {
                self.trace(done, home, TraceKind::Service { what: "store" });
                self.memory.store(loc, val)?;
                // A store has no reply: its latency ends when the home
                // applies it.
                if let Some(iss) = issued {
                    self.metrics.latency.record(done.saturating_sub(iss));
                    if let Some(t) = &mut self.trace {
                        t.record_flow(FlowKind::Store, from, home, iss, done, None);
                    }
                }
                if let Some(sh) = &mut self.shard {
                    sh.log_store_drain(done);
                } else {
                    self.stores_in_flight -= 1;
                    if self.stores_in_flight == 0 && self.barrier_release_pending {
                        self.barrier_release_pending = false;
                        self.release_barrier(done)?;
                    }
                }
            }
            Msg::Post { loc, .. } => {
                self.trace(done, home, TraceKind::Service { what: "post" });
                self.memory.set_flag(loc)?;
                let slot = self.memory.flag_slot(loc)?;
                let waiters = std::mem::take(&mut self.waiters[slot]);
                self.metrics.work.waiter_scans += waiters.len() as u64;
                for w in waiters {
                    let (deliver, recv) = if w == home {
                        (done, 0)
                    } else {
                        self.net.wait_messages += 1;
                        (
                            done + self.config.network_latency,
                            self.config.recv_overhead,
                        )
                    };
                    let credit = self.deferred_credit(w, recv);
                    self.push(
                        deliver,
                        Event::Deliver {
                            to: w,
                            del: Delivery::FlagSet { credit },
                        },
                    );
                }
            }
            Msg::WaitCheck { from, loc } => {
                self.trace(done, home, TraceKind::Service { what: "wait" });
                if self.memory.flag(loc)? {
                    let (deliver, recv) = if from == home {
                        (done, 0)
                    } else {
                        self.net.wait_messages += 1;
                        (
                            done + self.config.network_latency,
                            self.config.recv_overhead,
                        )
                    };
                    let credit = self.deferred_credit(from, recv);
                    self.push(
                        deliver,
                        Event::Deliver {
                            to: from,
                            del: Delivery::FlagSet { credit },
                        },
                    );
                } else {
                    let slot = self.memory.flag_slot(loc)?;
                    self.waiters[slot].push(from);
                    self.metrics.work.waiter_scans += 1;
                }
            }
            Msg::LockReq { from, lock } => {
                self.trace(done, home, TraceKind::Service { what: "lock" });
                let state = &mut self.locks[lock.index()];
                if state.held {
                    state.queue.push_back(from);
                } else {
                    state.held = true;
                    let (deliver, recv) = if from == home {
                        (done, 0)
                    } else {
                        self.net.lock_messages += 1;
                        (
                            done + self.config.network_latency,
                            self.config.recv_overhead,
                        )
                    };
                    let credit = self.deferred_credit(from, recv);
                    self.push(
                        deliver,
                        Event::Deliver {
                            to: from,
                            del: Delivery::LockGrant { lock, credit },
                        },
                    );
                }
            }
            Msg::Unlock { from, lock } => {
                self.trace(done, home, TraceKind::Service { what: "unlock" });
                if let Some(t) = &mut self.trace {
                    let acquired = self.locks[lock.index()].acquired_at;
                    t.record_lock(from, lock.index() as u32, acquired, done);
                }
                let state = &mut self.locks[lock.index()];
                if let Some(next) = state.queue.pop_front() {
                    // Hand over directly to the next waiter.
                    let (deliver, recv) = if next == home {
                        (done, 0)
                    } else {
                        self.net.lock_messages += 1;
                        (
                            done + self.config.network_latency,
                            self.config.recv_overhead,
                        )
                    };
                    let credit = self.deferred_credit(next, recv);
                    self.push(
                        deliver,
                        Event::Deliver {
                            to: next,
                            del: Delivery::LockGrant { lock, credit },
                        },
                    );
                } else {
                    state.held = false;
                }
            }
        }
        Ok(())
    }

    fn handle_deliver(&mut self, time: u64, to: u32, del: Delivery) -> Result<(), SimError> {
        let pi = to as usize;
        match del {
            Delivery::GetReply {
                dst,
                val,
                ctr,
                recv,
                issued,
            } => {
                self.trace(time, to, TraceKind::Deliver { what: "data" });
                if let Some(iss) = issued {
                    self.metrics.latency.record(time.saturating_sub(iss));
                }
                self.procs[pi].env.store(dst, val)?;
                match ctr {
                    Some(c) => self.ctr_completed(to, c, time),
                    None => {
                        if let Status::BlockedReply(since) = self.procs[pi].status {
                            self.stalls.blocking += time.saturating_sub(since);
                            // Blocking reads pay the receive cost inline.
                            self.resume_blocking(to, time, recv);
                        }
                    }
                }
            }
            Delivery::PutAck { ctr, recv, issued } => {
                self.trace(time, to, TraceKind::Deliver { what: "ack" });
                if let Some(iss) = issued {
                    self.metrics.latency.record(time.saturating_sub(iss));
                }
                match ctr {
                    Some(c) => self.ctr_completed(to, c, time),
                    None => {
                        if let Status::BlockedReply(since) = self.procs[pi].status {
                            self.stalls.blocking += time.saturating_sub(since);
                            self.resume_blocking(to, time, recv);
                        }
                    }
                }
            }
            Delivery::FlagSet { credit } => {
                self.trace(time, to, TraceKind::Deliver { what: "flag" });
                self.procs[pi].steal += credit;
                if let Status::BlockedWait(since) = self.procs[pi].status {
                    self.stalls.wait += time.saturating_sub(since);
                    let advanced = self.resume(to, time);
                    self.metrics.per_proc[pi].wait += advanced;
                    let end = self.procs[pi].time;
                    self.trace_state(pi, StateKind::Wait, end - advanced, end);
                }
            }
            Delivery::LockGrant { lock, credit } => {
                self.trace(time, to, TraceKind::Deliver { what: "grant" });
                self.procs[pi].steal += credit;
                if self.trace.is_some() {
                    self.locks[lock.index()].acquired_at = time;
                }
                if let Status::BlockedLock(since) = self.procs[pi].status {
                    self.stalls.lock += time.saturating_sub(since);
                    let advanced = self.resume(to, time);
                    self.metrics.per_proc[pi].lock += advanced;
                    let end = self.procs[pi].time;
                    self.trace_state(pi, StateKind::Lock, end - advanced, end);
                }
            }
        }
        Ok(())
    }

    /// A split-phase operation on counter `c` completed at `time`.
    fn ctr_completed(&mut self, p: u32, c: CtrId, time: u64) {
        let pi = p as usize;
        let n = &mut self.procs[pi].ctrs[c.0 as usize];
        *n -= 1;
        if *n == 0 {
            if let Status::BlockedSync(bc, since) = self.procs[pi].status {
                if bc == c {
                    self.stalls.sync += time.saturating_sub(since);
                    let advanced = self.resume(p, time);
                    self.metrics.per_proc[pi].sync += advanced;
                    let end = self.procs[pi].time;
                    self.trace_state(pi, StateKind::Sync, end - advanced, end);
                }
            }
        }
    }

    /// Charges a local memory touch and returns its completion time.
    fn local_touch(&mut self, pi: usize) -> u64 {
        self.charge_busy(pi, self.config.local_access_cycles);
        self.procs[pi].time
    }

    /// Charges a remote message injection (CPU overhead plus NIC
    /// serialization) and returns the arrival time at the destination.
    /// NIC backpressure (waiting out the injection gap) counts as busy:
    /// the CPU is occupied with communication, not blocked on a peer.
    fn remote_send(&mut self, pi: usize) -> u64 {
        let gap = self.next_inject[pi].saturating_sub(self.procs[pi].time);
        self.charge_busy(pi, gap + self.config.send_overhead);
        self.metrics.per_proc[pi].msgs_sent += 1;
        self.next_inject[pi] = self.procs[pi].time + self.config.injection_gap_cycles;
        self.procs[pi].time + self.config.network_latency
    }

    /// Unblocks `p` at `time` and returns how many cycles its clock
    /// advanced, so the caller can attribute them to the blocking cause.
    fn resume(&mut self, p: u32, time: u64) -> u64 {
        let pi = p as usize;
        let advanced = time.saturating_sub(self.procs[pi].time);
        self.procs[pi].time += advanced;
        self.procs[pi].status = Status::Ready;
        let t = self.procs[pi].time;
        self.push(t, Event::Run(p));
        advanced
    }

    /// Unblocks `p` after a blocking remote access: the round trip counts
    /// as network wait, the inline receive cost (`recv`) as busy.
    fn resume_blocking(&mut self, p: u32, time: u64, recv: u64) {
        let pi = p as usize;
        let start = self.procs[pi].time;
        let advanced = self.resume(p, time + recv);
        let busy_part = advanced.min(recv);
        self.metrics.per_proc[pi].busy += busy_part;
        self.metrics.per_proc[pi].network_wait += advanced - busy_part;
        let split = start + (advanced - busy_part);
        self.trace_state(pi, StateKind::NetworkWait, start, split);
        self.trace_state(pi, StateKind::Busy, split, start + advanced);
    }

    // ---- helpers ---------------------------------------------------------

    fn resolve(&self, p: u32, sref: &SharedRef) -> Result<Location, SimError> {
        let index = match &sref.index {
            Some(e) => {
                let i = eval(e, &self.procs[p as usize].env)?.as_int()?;
                u64::try_from(i).map_err(|_| {
                    SimError::new(format!("negative shared index {i} into {}", sref.var))
                })?
            }
            None => 0,
        };
        Ok(Location {
            var: sref.var,
            index,
        })
    }

    fn resolve_flag(
        &self,
        p: u32,
        flag: VarId,
        index: Option<&syncopt_ir::expr::Expr>,
    ) -> Result<Location, SimError> {
        let index = match index {
            Some(e) => {
                let i = eval(e, &self.procs[p as usize].env)?.as_int()?;
                u64::try_from(i)
                    .map_err(|_| SimError::new(format!("negative flag index {i} into {flag}")))?
            }
            None => 0,
        };
        Ok(Location { var: flag, index })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

    fn sim(src: &str, procs: u32) -> SimResult {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let r = simulate(&cfg, &MachineConfig::cm5(procs)).expect("simulation should succeed");
        assert_cycles_conserved(&r);
        r
    }

    /// Every processor's cycle accounting must sum exactly to the
    /// execution time — no cycle unattributed, none double-counted.
    fn assert_cycles_conserved(r: &SimResult) {
        assert_eq!(r.metrics.per_proc.len(), r.proc_cycles.len());
        for (pi, pc) in r.metrics.per_proc.iter().enumerate() {
            assert_eq!(
                pc.accounted(),
                r.exec_cycles,
                "proc {pi} accounting off: {pc:?} vs exec_cycles {}",
                r.exec_cycles
            );
            assert_eq!(
                r.exec_cycles - r.proc_cycles[pi],
                pc.idle,
                "proc {pi} idle must be the gap to the slowest processor"
            );
        }
    }

    fn mem_value(result: &SimResult, cfg_src: &str, name: &str, idx: usize) -> Value {
        let cfg = lower_main(&prepare_program(cfg_src).unwrap()).unwrap();
        let var = cfg.vars.by_name(name).unwrap();
        result
            .memory
            .iter()
            .find(|(v, _)| *v == var)
            .map(|(_, vals)| vals[idx])
            .unwrap()
    }

    /// Asserts two runs agree on every observable except the engine work
    /// counters (which legitimately differ between queue implementations).
    fn assert_observationally_equal(a: &SimResult, b: &SimResult) {
        assert_eq!(a.exec_cycles, b.exec_cycles);
        assert_eq!(a.proc_cycles, b.proc_cycles);
        assert_eq!(a.net, b.net);
        assert_eq!(a.stalls, b.stalls);
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.barriers_aligned, b.barriers_aligned);
        assert_eq!(a.barrier_seqs, b.barrier_seqs);
        assert_eq!(a.metrics.per_proc, b.metrics.per_proc);
        assert_eq!(a.metrics.latency, b.metrics.latency);
        assert_eq!(a.metrics.barrier_epochs, b.metrics.barrier_epochs);
    }

    const MIXED_SRC: &str = r#"
        shared int A[16]; shared int X; flag F; lock l;
        fn main() {
            work(MYPROC * 57);
            A[MYPROC] = MYPROC;
            barrier;
            int v; v = A[(MYPROC + 1) % PROCS];
            if (MYPROC == 0) { post F; } else { wait F; }
            lock l; X = X + v; unlock l;
            barrier;
        }
    "#;

    #[test]
    fn empty_program_finishes_immediately() {
        let r = sim("fn main() { }", 4);
        assert_eq!(r.exec_cycles, 0);
        assert_eq!(r.proc_cycles, vec![0; 4]);
        assert!(r.barriers_aligned);
    }

    #[test]
    fn work_costs_its_cycles() {
        let r = sim("fn main() { work(1000); }", 2);
        assert_eq!(r.exec_cycles, 1000);
    }

    #[test]
    fn blocking_remote_read_costs_table1_round_trip() {
        // Proc 1 reads a scalar homed on proc 0; only measure proc 1.
        let src = "shared int X; fn main() { if (MYPROC == 1) { int v; v = X; } }";
        let r = sim(src, 2);
        // branch (2) + send+2·latency+handler+recv (400) = 402.
        assert_eq!(r.proc_cycles[1], 402, "stats: {:?}", r.net);
        assert_eq!(r.net.get_requests, 1);
        assert_eq!(r.net.get_replies, 1);
    }

    #[test]
    fn local_access_is_cheap() {
        // Proc 0 owns X (round-robin home of first scalar).
        let src = "shared int X; fn main() { if (MYPROC == 0) { int v; v = X; } }";
        let r = sim(src, 2);
        // branch (2) + local access (30).
        assert_eq!(r.proc_cycles[0], 32);
        assert_eq!(r.net.get_requests, 0);
    }

    #[test]
    fn writes_become_visible() {
        let src = "shared int A[8]; fn main() { A[MYPROC] = MYPROC * 10; }";
        let r = sim(src, 4);
        for p in 0..4 {
            assert_eq!(mem_value(&r, src, "A", p), Value::Int(p as i64 * 10));
        }
    }

    #[test]
    fn flag_synchronization_orders_data() {
        let src = r#"
            shared int Data; flag F;
            fn main() {
                if (MYPROC == 0) { Data = 42; post F; }
                else { wait F; int v; v = Data; Data = v + 1; }
            }
        "#;
        let r = sim(src, 2);
        assert_eq!(mem_value(&r, src, "Data", 0), Value::Int(43));
        assert!(r.stalls.wait > 0, "consumer must have waited");
    }

    #[test]
    fn barrier_synchronizes_and_aligns() {
        let src = r#"
            shared int A[4];
            fn main() {
                A[MYPROC] = 1;
                barrier;
                int v; v = A[(MYPROC + 1) % PROCS];
                work(v);
            }
        "#;
        let r = sim(src, 4);
        assert!(r.barriers_aligned);
        assert_eq!(r.net.barriers, 1);
        assert!(r.stalls.barrier > 0);
    }

    #[test]
    fn misaligned_barriers_are_detected() {
        let src = "fn main() { if (MYPROC == 0) { barrier; } }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let r = simulate(&cfg, &MachineConfig::cm5(2));
        // Proc 0 blocks at the barrier forever: deadlock.
        assert!(r.is_err());
    }

    #[test]
    fn locks_serialize_increments() {
        let src = r#"
            shared int X; lock l;
            fn main() {
                lock l;
                int v; v = X;
                X = v + 1;
                unlock l;
            }
        "#;
        let r = sim(src, 8);
        assert_eq!(mem_value(&r, src, "X", 0), Value::Int(8));
        assert!(r.net.lock_messages > 0);
    }

    #[test]
    fn loop_accumulates() {
        let src = r#"
            shared int A[4];
            fn main() {
                int i; int acc; acc = 0;
                for (i = 0; i < 10; i = i + 1) { acc = acc + i; }
                A[MYPROC] = acc;
            }
        "#;
        let r = sim(src, 2);
        assert_eq!(mem_value(&r, src, "A", 0), Value::Int(45));
        assert_eq!(mem_value(&r, src, "A", 1), Value::Int(45));
    }

    #[test]
    fn deterministic_across_runs() {
        let src = r#"
            shared int A[16]; lock l; shared int X;
            fn main() {
                A[MYPROC] = MYPROC;
                barrier;
                int v; v = A[(MYPROC + 1) % PROCS];
                lock l; X = X + v; unlock l;
            }
        "#;
        let r1 = sim(src, 8);
        let r2 = sim(src, 8);
        assert_eq!(r1.exec_cycles, r2.exec_cycles);
        assert_eq!(r1.memory, r2.memory);
        assert_eq!(r1.net, r2.net);
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let src = "shared int A[4]; fn main() { A[7 + MYPROC] = 1; }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        assert!(simulate(&cfg, &MachineConfig::cm5(2)).is_err());
    }

    #[test]
    fn posted_flags_latch() {
        // The post happens long before the wait: the waiter passes with a
        // cheap check instead of blocking.
        let src = r#"
            flag F;
            fn main() {
                if (MYPROC == 0) { post F; }
                else { work(100000); wait F; }
            }
        "#;
        let r = sim(src, 2);
        // The check still costs one round trip to the flag's home, but
        // never the 100k-cycle gap a real block would show.
        let rt = MachineConfig::cm5(2).remote_round_trip();
        assert!(
            r.stalls.wait <= rt,
            "latched flag should cost at most a check: {}",
            r.stalls.wait
        );
    }

    #[test]
    fn flag_array_elements_are_independent() {
        let src = r#"
            flag F[4];
            fn main() {
                post F[MYPROC];
                wait F[(MYPROC + 1) % PROCS];
            }
        "#;
        let r = sim(src, 4);
        assert_eq!(r.proc_cycles.len(), 4);
        // Everyone finished (no deadlock) — the elements did not collide.
    }

    #[test]
    fn locks_grant_in_fifo_order() {
        // All processors contend once; the total increments must all land
        // regardless of grant order, and the lock hand-off chain should
        // cost roughly one round trip per holder.
        let src = r#"
            shared int X; lock l;
            fn main() {
                work(MYPROC * 3);
                lock l;
                int v; v = X;
                X = v + 1;
                unlock l;
            }
        "#;
        let r = sim(src, 6);
        let x = r.memory.iter().find(|(_, vals)| vals.len() == 1).unwrap();
        assert_eq!(x.1[0], Value::Int(6));
        assert!(r.stalls.lock > 0, "contention must appear as lock stalls");
    }

    #[test]
    fn t3d_and_dash_blocking_costs_match_table1() {
        let src = "shared int X; fn main() { if (MYPROC == 1) { int v; v = X; } }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        for config in MachineConfig::table1(2) {
            let r = simulate(&cfg, &config).unwrap();
            assert_eq!(
                r.proc_cycles[1],
                config.remote_round_trip() + config.local_op_cycles,
                "{}",
                config.name
            );
        }
    }

    #[test]
    fn split_phase_overlaps_but_blocking_does_not() {
        // Two independent remote reads (elements 4+ home on proc 1):
        // blocking pays 2 round trips, split-phase roughly one.
        let config = MachineConfig::cm5(2);
        let src = r#"
            shared int A[8]; shared int B[8];
            fn main() {
                int x; int y;
                if (MYPROC == 0) {
                    x = A[MYPROC + 4];
                    y = B[MYPROC + 5];
                    work(x + y);
                }
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let blocking = simulate(&cfg, &config).unwrap();
        let analysis = syncopt_core::analyze_for(&cfg, 2);
        let opt = syncopt_codegen::optimize(
            &cfg,
            &analysis,
            syncopt_codegen::OptLevel::Pipelined,
            syncopt_codegen::DelayChoice::SyncRefined,
        );
        let pipelined = simulate(&opt.cfg, &config).unwrap();
        let rt = config.remote_round_trip();
        assert!(
            blocking.proc_cycles[0] >= 2 * rt,
            "blocking: {}",
            blocking.proc_cycles[0]
        );
        assert!(
            pipelined.proc_cycles[0] < blocking.proc_cycles[0] - rt / 2,
            "pipelined {} vs blocking {}",
            pipelined.proc_cycles[0],
            blocking.proc_cycles[0]
        );
    }

    #[test]
    fn traced_simulation_matches_untraced() {
        let src = r#"
            shared int A[4]; flag F;
            fn main() {
                A[MYPROC] = MYPROC;
                barrier;
                int v; v = A[(MYPROC + 1) % PROCS];
                if (MYPROC == 0) { post F; } else { wait F; }
                work(v);
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let config = MachineConfig::cm5(4);
        let plain = simulate(&cfg, &config).unwrap();
        let (traced, trace) = crate::sim::simulate_traced(&cfg, &config, 10_000).unwrap();
        assert_eq!(plain.exec_cycles, traced.exec_cycles);
        assert_eq!(plain.memory, traced.memory);
        let events = trace.events();
        assert!(!events.is_empty());
        // Trace is time-sorted and contains the expected event families.
        assert!(events.windows(2).all(|w| w[0].time <= w[1].time));
        let has =
            |pred: &dyn Fn(&crate::trace::TraceKind) -> bool| events.iter().any(|e| pred(&e.kind));
        use crate::trace::TraceKind;
        assert!(has(
            &|k| matches!(k, TraceKind::Service { what } if *what == "get")
        ));
        assert!(has(
            &|k| matches!(k, TraceKind::Service { what } if *what == "post")
        ));
        assert!(has(&|k| matches!(k, TraceKind::BarrierRelease)));
        assert!(
            events
                .iter()
                .filter(|e| matches!(e.kind, TraceKind::Finished))
                .count()
                == 4
        );
    }

    #[test]
    fn state_spans_reproduce_cycle_accounting_exactly() {
        use crate::trace::StateKind;
        let cfg = lower_main(&prepare_program(MIXED_SRC).unwrap()).unwrap();
        let config = MachineConfig::cm5(8);
        let (r, trace) = crate::sim::simulate_traced(&cfg, &config, 1_000_000).unwrap();
        assert!(!trace.truncated());
        for (pi, pc) in r.metrics.per_proc.iter().enumerate() {
            let p = pi as u32;
            assert_eq!(
                trace.state_cycles(p, StateKind::Busy),
                pc.busy,
                "busy p{pi}"
            );
            assert_eq!(
                trace.state_cycles(p, StateKind::Sync),
                pc.sync,
                "sync p{pi}"
            );
            assert_eq!(
                trace.state_cycles(p, StateKind::Barrier),
                pc.barrier,
                "barrier p{pi}"
            );
            assert_eq!(
                trace.state_cycles(p, StateKind::Wait),
                pc.wait,
                "wait p{pi}"
            );
            assert_eq!(
                trace.state_cycles(p, StateKind::Lock),
                pc.lock,
                "lock p{pi}"
            );
            assert_eq!(
                trace.state_cycles(p, StateKind::NetworkWait),
                pc.network_wait,
                "network_wait p{pi}"
            );
            assert_eq!(
                trace.state_cycles(p, StateKind::Idle),
                pc.idle,
                "idle p{pi}"
            );
            // Per-processor spans tile [0, exec_cycles) without overlap.
            let mut spans: Vec<_> = trace.state_spans().iter().filter(|s| s.proc == p).collect();
            spans.sort_by_key(|s| s.start);
            let mut cursor = 0;
            for s in &spans {
                assert!(s.start >= cursor, "overlap at p{pi} cycle {}", s.start);
                cursor = s.end;
            }
            let covered: u64 = spans.iter().map(|s| s.cycles()).sum();
            assert_eq!(covered, r.exec_cycles, "p{pi} spans must tile the run");
        }
    }

    #[test]
    fn flow_and_lock_spans_track_message_lives() {
        let cfg = lower_main(&prepare_program(MIXED_SRC).unwrap()).unwrap();
        let config = MachineConfig::cm5(4);
        let (r, trace) = crate::sim::simulate_traced(&cfg, &config, 1_000_000).unwrap();
        // One flow per remote request with a reply for gets/puts.
        use crate::trace::FlowKind;
        let gets = trace
            .flow_spans()
            .iter()
            .filter(|f| f.kind == FlowKind::Get)
            .count() as u64;
        let puts = trace
            .flow_spans()
            .iter()
            .filter(|f| f.kind == FlowKind::Put)
            .count() as u64;
        assert_eq!(gets, r.net.get_requests);
        assert_eq!(puts, r.net.put_requests);
        for f in trace.flow_spans() {
            assert!(f.issued <= f.service, "flow {}: service before issue", f.id);
            if let Some(d) = f.delivered {
                assert!(f.service <= d, "flow {}: delivery before service", f.id);
            } else {
                assert_eq!(f.kind, FlowKind::Store, "only stores lack replies");
            }
        }
        // Ids are the insertion order.
        for (i, f) in trace.flow_spans().iter().enumerate() {
            assert_eq!(f.id, i as u64);
        }
        // Every processor holds the lock exactly once, holds ordered.
        assert_eq!(trace.lock_spans().len(), 4);
        for w in trace.lock_spans().windows(2) {
            assert!(
                w[0].released <= w[1].acquired,
                "lock holds must not overlap"
            );
        }
        // Barrier spans mirror the metrics epochs.
        assert_eq!(trace.barrier_spans().len(), r.metrics.barrier_epochs.len());
        for (s, e) in trace.barrier_spans().iter().zip(&r.metrics.barrier_epochs) {
            assert_eq!(s.first_arrival, e.first_arrival);
            assert_eq!(s.last_arrival, e.last_arrival);
            assert_eq!(s.release, e.release);
        }
    }

    #[test]
    fn injection_gap_serializes_bursts() {
        // Eight split-phase puts back to back: with a larger injection gap
        // the burst takes longer even though CPU overhead is identical.
        let src = r#"
            shared int A[16];
            fn main() {
                if (MYPROC == 0) {
                    A[8] = 1; A[9] = 1; A[10] = 1; A[11] = 1;
                    A[12] = 1; A[13] = 1; A[14] = 1; A[15] = 1;
                }
                barrier;
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = syncopt_core::analyze_for(&cfg, 2);
        let opt = syncopt_codegen::optimize(
            &cfg,
            &analysis,
            syncopt_codegen::OptLevel::OneWay,
            syncopt_codegen::DelayChoice::SyncRefined,
        );
        let mut fast = MachineConfig::cm5(2);
        fast.injection_gap_cycles = 0;
        let mut slow = MachineConfig::cm5(2);
        slow.injection_gap_cycles = 100;
        let rf = simulate(&opt.cfg, &fast).unwrap();
        let rs = simulate(&opt.cfg, &slow).unwrap();
        assert!(
            rs.exec_cycles > rf.exec_cycles,
            "gap should slow the burst: {} vs {}",
            rs.exec_cycles,
            rf.exec_cycles
        );
        assert_eq!(rf.memory, rs.memory);
    }

    #[test]
    fn hot_home_handler_serializes() {
        // Every processor reads a scalar homed on proc 0: handler
        // serialization makes the last reply later than one round trip.
        let src = "shared int X; fn main() { if (MYPROC > 0) { int v; v = X; } }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let config = MachineConfig::cm5(16);
        let r = simulate(&cfg, &config).unwrap();
        let rt = config.remote_round_trip() + config.local_op_cycles;
        let slowest = *r.proc_cycles.iter().max().unwrap();
        assert!(
            slowest > rt,
            "15 concurrent requests must queue at the home: {slowest} vs {rt}"
        );
        // Queueing delay ≈ (n-1)·handler on top of the round trip.
        assert!(slowest >= rt + 14 * config.handler_cycles);
    }

    #[test]
    fn cycle_accounting_conserves_on_mixed_workload() {
        // Exercises every blocking cause at once: blocking remote reads,
        // barriers, flags, locks, and uneven work.
        let r = sim(MIXED_SRC, 8);
        // `sim` already asserts conservation; spot-check the categories
        // that this workload must populate.
        let total: u64 = r.metrics.per_proc.iter().map(|p| p.barrier).sum();
        assert_eq!(total, r.stalls.barrier, "per-proc barrier sums to global");
        let lock: u64 = r.metrics.per_proc.iter().map(|p| p.lock).sum();
        assert_eq!(lock, r.stalls.lock);
        let wait: u64 = r.metrics.per_proc.iter().map(|p| p.wait).sum();
        assert_eq!(wait, r.stalls.wait);
        assert!(r.metrics.per_proc.iter().any(|p| p.network_wait > 0));
        assert!(r.metrics.per_proc.iter().all(|p| p.busy > 0));
    }

    #[test]
    fn split_phase_cycle_accounting_conserves() {
        let config = MachineConfig::cm5(2);
        let src = r#"
            shared int A[8]; shared int B[8];
            fn main() {
                int x; int y;
                if (MYPROC == 0) {
                    x = A[MYPROC + 4];
                    y = B[MYPROC + 5];
                    work(x + y);
                }
                barrier;
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = syncopt_core::analyze_for(&cfg, 2);
        for level in [
            syncopt_codegen::OptLevel::Pipelined,
            syncopt_codegen::OptLevel::OneWay,
            syncopt_codegen::OptLevel::Full,
        ] {
            let opt = syncopt_codegen::optimize(
                &cfg,
                &analysis,
                level,
                syncopt_codegen::DelayChoice::SyncRefined,
            );
            let r = simulate(&opt.cfg, &config).unwrap();
            assert_cycles_conserved(&r);
            let sync: u64 = r.metrics.per_proc.iter().map(|p| p.sync).sum();
            assert_eq!(sync, r.stalls.sync);
        }
    }

    #[test]
    fn latency_histogram_counts_remote_completions() {
        let src = "shared int X; fn main() { if (MYPROC == 1) { int v; v = X; X = v + 1; } }";
        let r = sim(src, 2);
        // One remote get reply plus one remote put ack, nothing local.
        assert_eq!(
            r.metrics.latency.count,
            r.net.get_replies + r.net.put_acks + r.net.store_requests
        );
        assert_eq!(r.metrics.latency.count, 2);
        // Each one-way leg is at least the network latency.
        let config = MachineConfig::cm5(2);
        assert!(r.metrics.latency.min >= config.network_latency);
    }

    #[test]
    fn local_accesses_record_no_latency() {
        let src = "shared int X; fn main() { if (MYPROC == 0) { int v; v = X; } }";
        let r = sim(src, 2);
        assert_eq!(r.metrics.latency.count, 0);
    }

    #[test]
    fn barrier_epochs_track_arrival_spread() {
        let src = r#"
            fn main() {
                work(MYPROC * 1000);
                barrier;
                barrier;
            }
        "#;
        let r = sim(src, 4);
        assert_eq!(r.metrics.barrier_epochs.len() as u64, r.net.barriers);
        assert_eq!(r.metrics.barrier_epochs.len(), 2);
        let first = &r.metrics.barrier_epochs[0];
        // Proc 0 arrives ~3000 cycles before proc 3.
        assert!(first.skew() >= 2000, "skew {}", first.skew());
        assert!(first.release > first.last_arrival);
        // Epochs are in completion order.
        assert!(r.metrics.barrier_epochs[1].release > first.release);
    }

    #[test]
    fn barrier_seqs_are_exposed_per_processor() {
        let src = "fn main() { barrier; barrier; }";
        let r = sim(src, 3);
        assert_eq!(r.barrier_seqs.len(), 3);
        assert!(r.barrier_seqs.iter().all(|s| s.len() == 2));
        assert!(r.barrier_seqs.iter().all(|s| s == &r.barrier_seqs[0]));
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let src = "fn main() { int i; i = 0; while (i < 1) { i = 0; } }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let mut config = MachineConfig::cm5(1);
        config.max_steps = 10_000;
        let err = simulate(&cfg, &config).unwrap_err();
        assert!(err.message().contains("max_steps"));
    }

    // ---- engine differential and work-counter tests ---------------------

    #[test]
    fn calendar_and_reference_heap_agree_bit_for_bit() {
        let cfg = lower_main(&prepare_program(MIXED_SRC).unwrap()).unwrap();
        for procs in [2, 8] {
            let config = MachineConfig::cm5(procs);
            let cal = simulate_configured(&cfg, &config, EngineKind::Calendar, SimOutputs::full())
                .unwrap();
            let heap =
                simulate_configured(&cfg, &config, EngineKind::ReferenceHeap, SimOutputs::full())
                    .unwrap();
            assert_observationally_equal(&cal, &heap);
            // Identical dispatch order means identical event traffic.
            assert_eq!(
                cal.metrics.work.events_scheduled,
                heap.metrics.work.events_scheduled
            );
            assert_eq!(
                cal.metrics.work.events_dequeued,
                heap.metrics.work.events_dequeued
            );
        }
    }

    #[test]
    fn overflow_rung_preserves_order() {
        // Work deltas far beyond the wheel window force the overflow rung.
        let src = r#"
            shared int A[4]; flag F;
            fn main() {
                work(MYPROC * 100000);
                A[MYPROC] = MYPROC;
                barrier;
                if (MYPROC == 0) { post F; } else { wait F; }
                work(50000);
                barrier;
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let config = MachineConfig::cm5(4);
        let cal =
            simulate_configured(&cfg, &config, EngineKind::Calendar, SimOutputs::full()).unwrap();
        let heap =
            simulate_configured(&cfg, &config, EngineKind::ReferenceHeap, SimOutputs::full())
                .unwrap();
        assert!(
            cal.metrics.work.overflow_promotions > 0,
            "100k-cycle jumps must route through the overflow rung"
        );
        assert_observationally_equal(&cal, &heap);
    }

    #[test]
    fn arena_recycles_event_slots() {
        // A loop of remote traffic drains and refills the queue: steady
        // state must reuse freed slots instead of growing the arena.
        let src = r#"
            shared int X;
            fn main() {
                int i; int v;
                if (MYPROC == 1) {
                    for (i = 0; i < 50; i = i + 1) { v = X; }
                }
            }
        "#;
        let r = sim(src, 2);
        let w = r.metrics.work;
        assert!(
            w.arena_reuses > w.events_scheduled / 2,
            "steady state should recycle: {} reuses of {} scheduled",
            w.arena_reuses,
            w.events_scheduled
        );
    }

    #[test]
    fn waiter_scans_count_wakeups() {
        // Three waiters block on one flag before the post lands.
        let src = r#"
            flag F;
            fn main() {
                if (MYPROC == 0) { work(100000); post F; } else { wait F; }
            }
        "#;
        let r = sim(src, 4);
        assert!(
            r.metrics.work.waiter_scans >= 3,
            "three blocked waiters must be scanned: {}",
            r.metrics.work.waiter_scans
        );
    }

    #[test]
    fn lean_outputs_skip_extraction_but_not_timing() {
        let cfg = lower_main(&prepare_program(MIXED_SRC).unwrap()).unwrap();
        let config = MachineConfig::cm5(4);
        let full =
            simulate_configured(&cfg, &config, EngineKind::Calendar, SimOutputs::full()).unwrap();
        let lean =
            simulate_configured(&cfg, &config, EngineKind::Calendar, SimOutputs::lean()).unwrap();
        assert!(lean.memory.is_empty());
        assert!(lean.barrier_seqs.is_empty());
        assert!(!full.memory.is_empty());
        assert_eq!(full.exec_cycles, lean.exec_cycles);
        assert_eq!(full.proc_cycles, lean.proc_cycles);
        assert_eq!(full.net, lean.net);
        assert_eq!(full.barriers_aligned, lean.barriers_aligned);
    }

    #[test]
    fn default_entry_points_use_full_outputs() {
        assert_eq!(SimOutputs::default(), SimOutputs::full());
        assert_eq!(EngineKind::default(), EngineKind::Calendar);
    }
}
