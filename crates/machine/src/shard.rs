//! Conservative parallel (sharded) simulation engine.
//!
//! One simulation run is partitioned across host threads: simulated
//! processors are split across **shards** in contiguous blocks, and each
//! shard advances its own event heap independently up to a shared
//! **synchronization horizon**. The horizon is the
//! conservative Chandy–Misra lookahead the Table 1 machine parameters
//! guarantee: every cross-shard interaction is carried by a message that
//! takes at least `network_latency` cycles, and every barrier release
//! lands at least `barrier_cycles` after its trigger, so a window of
//! width `min(network_latency, barrier_cycles)` can be simulated in
//! parallel with no shard ever seeing an event "from the past".
//!
//! Between windows a round **leader** (the last thread to arrive at the
//! gate) runs the only remaining serial section: it merges the dispatch
//! positions the window minted into flat ranks, resolves completed
//! barrier episodes, and picks the next window from the global minimum
//! pending timestamp. Everything else that used to be serial is done by
//! the shards themselves at the start of the next round: each shard
//! drains its own inbound mailboxes, rewrites its own event keys to the
//! flat positions the leader published, and injects its own processors'
//! barrier releases from the leader's release plan.
//!
//! # Determinism: bit-identical to the sequential engines
//!
//! The sequential engines dispatch in `(time, seq)` order where `seq` is
//! global push order. A parallel run cannot reproduce a global push
//! counter, but it can reproduce the *order* it induces: every event is
//! keyed by the dispatch **position** of the event that pushed it plus
//! its local push index (`Key`). At equal timestamps, comparing keys
//! lexicographically through parent positions reproduces exactly the
//! sequential seq order (children are pushed in index order, and events
//! dispatched earlier push their children earlier). Each shard pops in
//! `(time, key)` order, so its dispatch sequence is the restriction of
//! the sequential dispatch sequence to the events it owns — and since
//! all shared state is partitioned by owner (processor state with the
//! owning shard, memory/flag/lock/handler state with the home's shard),
//! every observable except the [`SimWork`] engine counters is
//! bit-identical at any shard count. The three global couplings that do
//! not fit the partition are handled explicitly:
//!
//! * **split-phase receive steals** are scheduled by the *issuing* shard
//!   as local `Event::Credit`s keyed adjacent to the request's arrival
//!   (see `sim.rs`), or deferred into the wake-up delivery when the
//!   target is blocked;
//! * **barrier rendezvous and store quiescence** are resolved by the
//!   round leader from position-ordered arrival/store logs, recovering
//!   the exact sequential release time; the release `Run`s are injected
//!   by their owning shards from the leader's plan, with the keys the
//!   sequential engine would have assigned;
//! * **errors** are picked as the minimum dispatch position across
//!   shards, which is exactly the first error the sequential engine
//!   reports.

use crate::config::MachineConfig;
use crate::memory::Location;
use crate::metrics::{BarrierEpoch, LatencyHistogram, ProcCycles, SimMetrics, SimWork};
use crate::sim::{
    EngineKind, Event, NetStats, SimOutputs, SimResult, Simulator, StallStats, Status,
};
use crate::value::SimError;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use syncopt_ir::cfg::Cfg;
use syncopt_ir::ids::AccessId;

/// How simulated processors are assigned to shards: contiguous blocks of
/// processor ids (`ceil(P/S)` per shard). `Block` is the only strategy;
/// the type stays only because the wall-clock benchmark (`benchmark/`)
/// names it in its [`simulate_sharded_with`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ShardPartition {
    /// Contiguous blocks of processor ids.
    #[default]
    Block,
}

/// A dispatch position: the timestamp of an event plus its tie-breaking
/// key. Total order over all events of a run.
#[derive(Debug)]
pub(crate) struct Pos {
    time: u64,
    key: Key,
    /// The depth-1 twin the leader's key merge assigns (see
    /// [`merge_and_flatten`]); read by the owning shards when they
    /// rewrite their keys in the next round's parallel phase. Not part
    /// of the order.
    flat: OnceLock<Arc<Pos>>,
}

impl Pos {
    fn new(time: u64, key: Key) -> Self {
        Pos {
            time,
            key,
            flat: OnceLock::new(),
        }
    }

    /// Whether this position is already depth-1 (seeds and leader-minted
    /// twins are born flat).
    fn is_flat(&self) -> bool {
        self.key.parent.is_none()
    }
}

/// The sequential engine's `seq` tie-break, reconstructed structurally: a
/// child's key is its parent's dispatch position plus the index of the
/// push within that dispatch. Seed `Run`s (pushed before the loop) have
/// no parent and are ordered by processor id, exactly like their
/// historical seqs `0..P`.
#[derive(Debug, Clone)]
pub(crate) struct Key {
    parent: Option<Arc<Pos>>,
    idx: u32,
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        match (&self.parent, &other.parent) {
            (None, None) => self.idx.cmp(&other.idx),
            (None, Some(_)) => Ordering::Less,
            (Some(_), None) => Ordering::Greater,
            (Some(a), Some(b)) => {
                if Arc::ptr_eq(a, b) {
                    self.idx.cmp(&other.idx)
                } else {
                    // Distinct parents: the parents' dispatch order decides
                    // (push order follows dispatch order); idx only breaks
                    // the tie when the positions compare equal, which means
                    // they are the same position reached through different
                    // allocations.
                    a.as_ref()
                        .cmp(b.as_ref())
                        .then_with(|| self.idx.cmp(&other.idx))
                }
            }
        }
    }
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Key {}

impl Ord for Pos {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.key.cmp(&other.key))
    }
}

impl PartialOrd for Pos {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Pos {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pos {}

/// A keyed event in a shard heap or mailbox.
#[derive(Debug)]
pub(crate) struct ShardEvent {
    time: u64,
    key: Key,
    event: Event,
}

impl Ord for ShardEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then_with(|| self.key.cmp(&other.key))
    }
}

impl PartialOrd for ShardEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ShardEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for ShardEvent {}

/// One processor's barrier arrival, logged for the round leader.
#[derive(Debug)]
struct BarrierArrival {
    proc: u32,
    arrive: u64,
    /// Dispatch position of the arriving `Run` — the leader's rendezvous
    /// point is the maximum of these.
    pos: Arc<Pos>,
    /// The push index the arriving dispatch had reached, so release
    /// `Run`s can be keyed exactly where the sequential engine pushes
    /// them (as the next children of the triggering dispatch).
    push_base: u32,
}

/// A store entering (+1) or leaving (-1) flight, in dispatch order.
#[derive(Debug)]
struct StoreDelta {
    pos: Arc<Pos>,
    delta: i64,
    /// Handler completion time of a drain (0 for inits); a drain-triggered
    /// barrier releases at `max(last_arrival, done) + barrier_cycles`.
    done: u64,
}

/// Per-shard engine state attached to a [`Simulator`]: the local event
/// heap, outgoing mailboxes, the current dispatch position (for keying
/// pushes), the positions this shard minted (for the leader's key
/// merge), and the episode logs the round leader consumes.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    id: u32,
    shard_of: Arc<Vec<u32>>,
    heap: BinaryHeap<Reverse<ShardEvent>>,
    /// Outgoing events per destination shard, accumulated during the
    /// window and published to the mailbox grid at its end (the
    /// mailbox-per-pair structure).
    outboxes: Vec<Vec<ShardEvent>>,
    cur_parent: Arc<Pos>,
    push_idx: u32,
    /// Whether `cur_parent` has been recorded in `minted` (set on its
    /// first use as a parent or log position).
    parent_live: bool,
    /// Non-flat positions this shard's window dispatched and referenced,
    /// in dispatch order — sorted by construction, so the leader's merge
    /// is a k-way merge of sorted runs.
    minted: Vec<Arc<Pos>>,
    barrier_log: Vec<BarrierArrival>,
    store_log: Vec<StoreDelta>,
    /// Minimum timestamp across everything published to the grid this
    /// window (`u64::MAX` when nothing crossed).
    out_min: u64,
    /// Minimum pending timestamp in the local heap after the window.
    heap_min: Option<u64>,
    cross_messages: u64,
    idle_windows: u64,
    error: Option<(Arc<Pos>, SimError)>,
}

impl ShardCtx {
    fn new(id: u32, shards: usize, shard_of: Arc<Vec<u32>>) -> Self {
        ShardCtx {
            id,
            shard_of,
            heap: BinaryHeap::new(),
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            cur_parent: Arc::new(Pos::new(
                0,
                Key {
                    parent: None,
                    idx: u32::MAX,
                },
            )),
            push_idx: 0,
            parent_live: false,
            minted: Vec::new(),
            barrier_log: Vec::new(),
            store_log: Vec::new(),
            out_min: u64::MAX,
            heap_min: None,
            cross_messages: 0,
            idle_windows: 0,
            error: None,
        }
    }

    /// Whether processor `p` belongs to this shard.
    pub(crate) fn owns(&self, p: u32) -> bool {
        self.shard_of[p as usize] == self.id
    }

    fn dest(&self, event: &Event) -> u32 {
        match event {
            Event::Run(p) => *p,
            Event::Arrive { home, .. } => *home,
            Event::Deliver { to, .. } => *to,
            Event::Credit { to, .. } => *to,
        }
    }

    /// Records the current dispatch position for the leader's key merge
    /// on its first use. Seed positions are born flat and need no rank.
    fn mint_parent(&mut self) {
        if !self.parent_live {
            self.parent_live = true;
            if !self.cur_parent.is_flat() {
                self.minted.push(Arc::clone(&self.cur_parent));
            }
        }
    }

    /// Keys a pushed event as the next child of the current dispatch and
    /// routes it: own shard straight to the heap, otherwise into the
    /// destination's mailbox for the next horizon drain.
    pub(crate) fn route(&mut self, time: u64, event: Event, work: &mut SimWork) {
        work.events_scheduled += 1;
        self.mint_parent();
        let key = Key {
            parent: Some(Arc::clone(&self.cur_parent)),
            idx: self.push_idx,
        };
        self.push_idx += 1;
        let d = self.shard_of[self.dest(&event) as usize];
        let ev = ShardEvent { time, key, event };
        if d == self.id {
            self.heap.push(Reverse(ev));
        } else {
            self.cross_messages += 1;
            self.out_min = self.out_min.min(time);
            self.outboxes[d as usize].push(ev);
        }
    }

    pub(crate) fn log_barrier_arrival(&mut self, proc: u32, arrive: u64) {
        self.mint_parent();
        self.barrier_log.push(BarrierArrival {
            proc,
            arrive,
            pos: Arc::clone(&self.cur_parent),
            push_base: self.push_idx,
        });
    }

    pub(crate) fn log_store_init(&mut self) {
        self.mint_parent();
        self.store_log.push(StoreDelta {
            pos: Arc::clone(&self.cur_parent),
            delta: 1,
            done: 0,
        });
    }

    pub(crate) fn log_store_drain(&mut self, done: u64) {
        self.mint_parent();
        self.store_log.push(StoreDelta {
            pos: Arc::clone(&self.cur_parent),
            delta: -1,
            done,
        });
    }
}

/// The leader's plan for a resolved barrier episode: each shard injects
/// the release `Run`s for its own processors at the start of the next
/// round, with the keys the sequential engine would have assigned.
struct ReleasePlan {
    release: u64,
    /// The triggering dispatch position (already flat).
    trigger: Arc<Pos>,
    /// First child index for the release `Run`s.
    base: u32,
    /// Per-processor arrival times, for stall attribution.
    arrive_of: Vec<u64>,
}

/// Shared round control, written by the leader between barrier
/// generations: the next window's exclusive end, the stop flag, and the
/// release plan (if a barrier episode resolved) every shard applies for
/// its own processors at the start of the round.
struct Ctrl {
    window_end: u64,
    done: bool,
    plan: Option<Arc<ReleasePlan>>,
}

/// Round-leader state: accumulated episode logs, resolved epochs, the
/// flat-rank counter, and the first error (by dispatch position).
struct LeaderState {
    arrivals: Vec<BarrierArrival>,
    /// Store flight deltas, globally sorted by dispatch position. Each
    /// window's batch is strictly later than everything pending, so
    /// sort-and-append keeps the whole vector ordered.
    deltas: Vec<StoreDelta>,
    episodes: Vec<BarrierEpoch>,
    horizon_advances: u64,
    /// Next flat key rank (see [`merge_and_flatten`]); starts above the
    /// processor count so ranks never collide with seed ids at time 0.
    next_rank: u32,
    error: Option<SimError>,
}

/// [`simulate_sharded`] under an explicit [`ShardPartition`], of which
/// `Block` is the only one.
///
/// # Errors
///
/// Same failure modes as [`crate::simulate`].
pub fn simulate_sharded_with(
    cfg: &Cfg,
    config: &MachineConfig,
    shards: usize,
    partition: ShardPartition,
    outputs: SimOutputs,
) -> Result<SimResult, SimError> {
    let ShardPartition::Block = partition;
    simulate_sharded(cfg, config, shards, outputs)
}

/// Runs `cfg` on the machine described by `config`, sharding the
/// simulated processors across `shards` host threads (clamped to
/// `[1, procs]`) in contiguous blocks. The result is bit-identical to
/// [`crate::simulate`] for every observable except the [`SimWork`] engine
/// counters and the per-shard event counts, at any shard count — the
/// differential suites assert exactly that.
///
/// # Errors
///
/// Same failure modes as [`crate::simulate`], reporting the identical
/// first error (runtime faults, deadlock, `max_steps`).
pub fn simulate_sharded(
    cfg: &Cfg,
    config: &MachineConfig,
    shards: usize,
    outputs: SimOutputs,
) -> Result<SimResult, SimError> {
    let procs = config.procs;
    let s = shards.max(1).min(procs.max(1) as usize);
    // The conservative lookahead: every cross-shard event lands at least
    // `network_latency` ahead of its creation, every barrier release at
    // least `barrier_cycles` ahead of its trigger.
    let horizon = config.network_latency.min(config.barrier_cycles).max(1);
    let shard_of: Arc<Vec<u32>> = Arc::new(block_map(procs, s));

    let mut sims: Vec<Mutex<Simulator>> = (0..s)
        .map(|id| {
            let mut sim = Simulator::new(cfg, config, EngineKind::Calendar, outputs);
            sim.shard = Some(Box::new(ShardCtx::new(id as u32, s, Arc::clone(&shard_of))));
            Mutex::new(sim)
        })
        .collect();
    // Seed one Run per processor, keyed by processor id like the
    // sequential engine's seqs 0..P.
    for p in 0..procs {
        let sim = sims[shard_of[p as usize] as usize]
            .get_mut()
            .expect("fresh mutex");
        sim.metrics.work.events_scheduled += 1;
        let sh = sim.shard.as_mut().expect("shard ctx");
        sh.heap.push(Reverse(ShardEvent {
            time: 0,
            key: Key {
                parent: None,
                idx: p,
            },
            event: Event::Run(p),
        }));
    }

    let ctrl = Mutex::new(Ctrl {
        window_end: horizon,
        done: false,
        plan: None,
    });
    let leader = Mutex::new(LeaderState {
        arrivals: Vec::new(),
        deltas: Vec::new(),
        episodes: Vec::new(),
        horizon_advances: 1,
        next_rank: procs,
        error: None,
    });
    let gate = Barrier::new(s);
    // The shard-pair mailbox grid, `grid[parity][from * s + to]`: senders
    // publish their outboxes at the end of a window, receivers drain what
    // was published *last* round at the start of the next. The grid is
    // double-buffered by round parity because no barrier separates one
    // shard's drain phase from another's publish phase within a round —
    // each round writes one buffer and reads the other, so a fast
    // publisher can never feed a slow drainer early.
    let grid: [Vec<Mutex<Vec<ShardEvent>>>; 2] = [
        (0..s * s).map(|_| Mutex::new(Vec::new())).collect(),
        (0..s * s).map(|_| Mutex::new(Vec::new())).collect(),
    ];

    std::thread::scope(|scope| {
        for sid in 0..s {
            let sims = &sims;
            let ctrl = &ctrl;
            let leader = &leader;
            let gate = &gate;
            let grid = &grid;
            let shard_of = &shard_of;
            scope.spawn(move || {
                let mut round: usize = 0;
                loop {
                    let (window_end, plan) = {
                        let c = ctrl.lock().expect("ctrl");
                        if c.done {
                            break;
                        }
                        (c.window_end, c.plan.clone())
                    };
                    worker_round(
                        &sims[sid],
                        sid,
                        s,
                        &grid[(round + 1) & 1],
                        &grid[round & 1],
                        plan.as_deref(),
                        window_end,
                    );
                    round += 1;
                    if gate.wait().is_leader() {
                        let mut st = leader.lock().expect("leader state");
                        let mut c = ctrl.lock().expect("ctrl");
                        leader_step(sims, shard_of, config, horizon, &mut st, &mut c);
                    }
                    gate.wait();
                }
            });
        }
    });

    let mut sims: Vec<Simulator> = sims
        .into_iter()
        .map(|m| m.into_inner().expect("worker panicked"))
        .collect();
    let st = leader.into_inner().expect("leader state");
    if let Some(e) = st.error {
        return Err(e);
    }
    Ok(merge(&mut sims, &shard_of, config, outputs, st))
}

/// The processor-to-shard assignment: contiguous blocks, every value in
/// `0..shards`.
fn block_map(procs: u32, shards: usize) -> Vec<u32> {
    let block = (procs as usize).div_ceil(shards);
    (0..procs as usize)
        .map(|i| ((i / block).min(shards - 1)) as u32)
        .collect()
}

/// One shard's full round, everything outside the leader's critical
/// section: apply the published release plan for owned processors, drain
/// inbound mailboxes, rewrite keys to the flat positions the leader
/// minted, dispatch the window, then publish outboxes and minima for the
/// next leader step.
fn worker_round(
    m: &Mutex<Simulator>,
    sid: usize,
    s: usize,
    inbound_grid: &[Mutex<Vec<ShardEvent>>],
    outbound_grid: &[Mutex<Vec<ShardEvent>>],
    plan: Option<&ReleasePlan>,
    window_end: u64,
) {
    let mut sim = m.lock().expect("shard sim");
    let sid32 = sid as u32;
    // Phase 1: inject this shard's barrier releases from the leader's
    // plan, reproducing the sequential stall attribution and event keys.
    let mut injected: Vec<ShardEvent> = Vec::new();
    if let Some(plan) = plan {
        let shard_of = Arc::clone(&sim.shard.as_ref().expect("shard ctx").shard_of);
        for (pi, &o) in shard_of.iter().enumerate() {
            if o != sid32 {
                continue;
            }
            sim.stalls.barrier += plan.release - plan.arrive_of[pi];
            let start = sim.procs[pi].time;
            sim.metrics.per_proc[pi].barrier += plan.release - start;
            sim.procs[pi].time = plan.release;
            sim.metrics.work.events_scheduled += 1;
            injected.push(ShardEvent {
                time: plan.release,
                key: Key {
                    parent: Some(Arc::clone(&plan.trigger)),
                    idx: plan.base + pi as u32,
                },
                event: Event::Run(pi as u32),
            });
        }
    }
    // Phase 2: drain inbound mailboxes (events other shards routed to us
    // last window) and rewrite every key minted last window to its flat
    // twin, so comparisons never walk a chain older than one window.
    {
        let sh = sim.shard.as_mut().expect("shard ctx");
        let mut evs: Vec<ShardEvent> = std::mem::take(&mut sh.heap)
            .into_vec()
            .into_iter()
            .map(|Reverse(ev)| ev)
            .collect();
        for from in 0..s {
            if from == sid {
                continue;
            }
            let mut slot = inbound_grid[from * s + sid].lock().expect("mail slot");
            evs.append(&mut slot);
        }
        for ev in &mut evs {
            if let Some(parent) = &ev.key.parent {
                if !parent.is_flat() {
                    let flat = parent.flat.get().expect("leader flattened last window");
                    ev.key.parent = Some(Arc::clone(flat));
                }
            }
        }
        evs.extend(injected);
        sh.heap = evs.into_iter().map(Reverse).collect();
        sh.out_min = u64::MAX;
    }
    // Phase 3: dispatch the window in (time, key) order.
    let mut processed = 0u64;
    loop {
        let (time, event, pos) = {
            let sh = sim.shard.as_mut().expect("shard ctx");
            match sh.heap.peek() {
                Some(Reverse(ev)) if ev.time < window_end => {}
                _ => break,
            }
            let Reverse(ev) = sh.heap.pop().expect("peeked");
            let pos = Arc::new(Pos::new(ev.time, ev.key));
            sh.cur_parent = Arc::clone(&pos);
            sh.push_idx = 0;
            sh.parent_live = false;
            (ev.time, ev.event, pos)
        };
        sim.metrics.work.events_dequeued += 1;
        if let Err(e) = sim.dispatch(time, event) {
            sim.shard.as_mut().expect("shard ctx").error = Some((pos, e));
            break;
        }
        processed += 1;
    }
    // Phase 4: publish outboxes to the grid and record the minima the
    // leader needs for the next window.
    let sh = sim.shard.as_mut().expect("shard ctx");
    if processed == 0 {
        // Conservative lookahead idling: the window held nothing for us.
        sh.idle_windows += 1;
    }
    for (d, batch) in sh.outboxes.iter_mut().enumerate() {
        if !batch.is_empty() {
            outbound_grid[sid * s + d]
                .lock()
                .expect("mail slot")
                .append(batch);
        }
    }
    sh.heap_min = sh.heap.peek().map(|Reverse(ev)| ev.time);
}

/// The leader's critical section, now reduced to what is irreducibly
/// global: surface the first error, merge the window's minted positions
/// into flat ranks, resolve a completed barrier episode into a plan, and
/// open the next window (or stop). Mailbox movement, key rewriting, and
/// release injection all happen in the shards' parallel phase.
fn leader_step(
    sims: &[Mutex<Simulator>],
    shard_of: &[u32],
    config: &MachineConfig,
    horizon: u64,
    st: &mut LeaderState,
    ctrl: &mut Ctrl,
) {
    // Pass 1: collect minted runs, episode logs, errors, and minima.
    let mut minted: Vec<Vec<Arc<Pos>>> = Vec::with_capacity(sims.len());
    let mut new_arrivals: Vec<BarrierArrival> = Vec::new();
    let mut new_deltas: Vec<StoreDelta> = Vec::new();
    let mut errors: Vec<(Arc<Pos>, SimError)> = Vec::new();
    let mut t_min: Option<u64> = None;
    let fold = |t: u64, t_min: &mut Option<u64>| {
        *t_min = Some(t_min.map_or(t, |m| m.min(t)));
    };
    for m in sims {
        let mut sim = m.lock().expect("shard sim");
        let sh = sim.shard.as_mut().expect("shard ctx");
        minted.push(std::mem::take(&mut sh.minted));
        new_arrivals.append(&mut sh.barrier_log);
        new_deltas.append(&mut sh.store_log);
        if let Some(e) = sh.error.take() {
            errors.push(e);
        }
        if let Some(t) = sh.heap_min {
            fold(t, &mut t_min);
        }
        if sh.out_min != u64::MAX {
            fold(sh.out_min, &mut t_min);
        }
    }
    // The minimum error position is exactly the sequential engine's first
    // error: everything dispatched before it is identical in both runs.
    if let Some((_, e)) = errors.into_iter().min_by(|a, b| a.0.cmp(&b.0)) {
        st.error = Some(e);
        ctrl.done = true;
        ctrl.plan = None;
        return;
    }
    // Pass 2: merge the minted runs into flat ranks (the serial work).
    merge_and_flatten(minted, st);
    // Pass 3: rewrite the new episode logs to flat positions and append.
    for a in &mut new_arrivals {
        a.pos = flat_of(&a.pos);
    }
    st.arrivals.append(&mut new_arrivals);
    for d in &mut new_deltas {
        d.pos = flat_of(&d.pos);
    }
    new_deltas.sort_by(|a, b| a.pos.cmp(&b.pos));
    st.deltas.extend(new_deltas);
    // Pass 4: resolve a completed barrier episode into a release plan.
    let plan = try_release(shard_of.len(), config, st);
    if let Some(p) = &plan {
        fold(p.release, &mut t_min);
    }
    ctrl.plan = plan.map(Arc::new);
    // Pass 5: open the next horizon window, or terminate.
    match t_min {
        Some(t) => {
            st.horizon_advances += 1;
            ctrl.window_end = t + horizon;
        }
        None => {
            // Event space exhausted: every processor must have finished,
            // otherwise this is the same deadlock the sequential engine
            // reports (same processors, same statuses).
            let mut statuses: Vec<Status> = Vec::with_capacity(shard_of.len());
            for (pi, &o) in shard_of.iter().enumerate() {
                let sim = sims[o as usize].lock().expect("shard sim");
                statuses.push(sim.procs[pi].status.clone());
            }
            let unfinished: Vec<usize> = statuses
                .iter()
                .enumerate()
                .filter(|(_, st)| **st != Status::Finished)
                .map(|(i, _)| i)
                .collect();
            if !unfinished.is_empty() {
                st.error = Some(SimError::new(format!(
                    "deadlock: processors {unfinished:?} blocked ({:?})",
                    statuses[unfinished[0]]
                )));
            }
            ctrl.done = true;
        }
    }
}

/// The flat twin of a position minted last window (identity for
/// positions born flat).
fn flat_of(p: &Arc<Pos>) -> Arc<Pos> {
    if p.is_flat() {
        Arc::clone(p)
    } else {
        Arc::clone(p.flat.get().expect("leader flattened"))
    }
}

/// Assigns every position minted by the finished window a depth-1
/// `(time, rank)` twin, so key comparisons never walk a chain older than
/// one window.
///
/// Structural keys compare parents recursively, and the recursion only
/// stops early where ancestor times differ or an `Arc` is shared. In
/// lockstep SPMD programs (every processor running the identical cycle
/// schedule — Epithel's transpose phases are the worst case) events from
/// different processors tie on *every* ancestor time and share no
/// ancestry, so one comparison walks all the way to the seeds: O(causal
/// depth), which grows with simulated time and turns the heap quadratic.
///
/// Each shard dispatches in strictly increasing position order, so its
/// minted list arrives sorted; the leader k-way-merges the lists by the
/// structural order (cheap: chains are at most one window deep) and
/// publishes a twin with a rank from a monotonically growing counter
/// through each position's `flat` cell — the owning shards rewrite their
/// own references in the next round's parallel phase.
/// Parent-vs-parent comparisons are unchanged: dispatch times decide
/// across windows (window time ranges are disjoint), and within a window
/// the rank reproduces the structural tie-break. The counter starts
/// above the processor count so flat ranks can never collide with the
/// seeds' id keys at time 0. Positions that compare equal through
/// different allocations share one twin, so sibling `idx` tie-breaks
/// keep their meaning.
fn merge_and_flatten(minted: Vec<Vec<Arc<Pos>>>, st: &mut LeaderState) {
    for run in &minted {
        debug_assert!(
            run.windows(2).all(|w| w[0].cmp(&w[1]) == Ordering::Less),
            "shard dispatch order must be sorted"
        );
    }
    let mut heads = vec![0usize; minted.len()];
    let mut prev: Option<Arc<Pos>> = None;
    let mut twin: Option<Arc<Pos>> = None;
    loop {
        let mut best: Option<usize> = None;
        for (sh, run) in minted.iter().enumerate() {
            if heads[sh] >= run.len() {
                continue;
            }
            best = Some(match best {
                None => sh,
                Some(b) => {
                    if run[heads[sh]].cmp(&minted[b][heads[b]]) == Ordering::Less {
                        sh
                    } else {
                        b
                    }
                }
            });
        }
        let Some(sh) = best else { break };
        let pos = Arc::clone(&minted[sh][heads[sh]]);
        heads[sh] += 1;
        let fresh = match &prev {
            Some(q) => q.cmp(&pos) != Ordering::Equal,
            None => true,
        };
        if fresh {
            let idx = st.next_rank;
            st.next_rank = st.next_rank.checked_add(1).expect("rank space exhausted");
            twin = Some(Arc::new(Pos::new(pos.time, Key { parent: None, idx })));
        }
        pos.flat
            .set(Arc::clone(twin.as_ref().expect("just set")))
            .expect("position minted once");
        prev = Some(pos);
    }
}

/// Resolves the in-flight barrier episode once all processors have
/// arrived and the pre-barrier stores have drained, reproducing the
/// sequential release time and the trigger the release-event keys hang
/// off. The returned plan is applied by each shard for its own
/// processors at the start of the next round.
fn try_release(procs: usize, config: &MachineConfig, st: &mut LeaderState) -> Option<ReleasePlan> {
    if st.arrivals.len() < procs {
        return None;
    }
    debug_assert_eq!(st.arrivals.len(), procs, "one arrival per processor");
    let max_arrival = st
        .arrivals
        .iter()
        .map(|a| a.arrive)
        .max()
        .expect("nonempty");
    let min_arrival = st
        .arrivals
        .iter()
        .map(|a| a.arrive)
        .min()
        .expect("nonempty");
    // The rendezvous point: the last arrival in dispatch order (the one
    // whose dispatch would have run `release_barrier` sequentially).
    let trig = st
        .arrivals
        .iter()
        .max_by(|a, b| a.pos.cmp(&b.pos))
        .expect("nonempty");
    let arr_pos = Arc::clone(&trig.pos);
    let trig_base = trig.push_base;
    // Net stores in flight at the rendezvous: all +1s precede it in
    // dispatch order (their processors were running; they are blocked
    // now), so the prefix sum up to `arr_pos` is the sequential counter.
    let mut inflight: i64 = 0;
    let mut cut = 0usize;
    for d in st.deltas.iter() {
        if d.pos.as_ref().cmp(arr_pos.as_ref()) == Ordering::Greater {
            break;
        }
        inflight += d.delta;
        cut += 1;
    }
    let (release, trigger, base) = if inflight == 0 {
        (max_arrival + config.barrier_cycles, arr_pos, trig_base)
    } else {
        // Stores still in flight at the rendezvous: walk the remaining
        // drains in dispatch order to the zero crossing — the drain whose
        // dispatch runs `release_barrier(done)` sequentially (pushing the
        // release Runs as its first children, hence base 0).
        let mut found = None;
        for (i, d) in st.deltas.iter().enumerate().skip(cut) {
            inflight += d.delta;
            if inflight == 0 {
                found = Some(i);
                break;
            }
        }
        let i = found?; // drains still crossing; resolve in a later round
        let d = &st.deltas[i];
        cut = i + 1;
        (
            max_arrival.max(d.done) + config.barrier_cycles,
            Arc::clone(&d.pos),
            0,
        )
    };
    st.deltas.drain(..cut);
    st.episodes.push(BarrierEpoch {
        first_arrival: min_arrival,
        last_arrival: max_arrival,
        release,
    });
    let mut arrive_of = vec![0u64; procs];
    for a in &st.arrivals {
        arrive_of[a.proc as usize] = a.arrive;
    }
    st.arrivals.clear();
    Some(ReleasePlan {
        release,
        trigger,
        base,
        arrive_of,
    })
}

/// Assembles the final [`SimResult`] from the per-shard simulators:
/// per-processor state from owners, memory by home, counters by sum,
/// plus the per-shard event counts.
fn merge(
    sims: &mut [Simulator],
    shard_of: &[u32],
    config: &MachineConfig,
    outputs: SimOutputs,
    st: LeaderState,
) -> SimResult {
    let procs = shard_of.len();
    let mut proc_cycles = vec![0u64; procs];
    let mut per_proc = vec![ProcCycles::default(); procs];
    let mut seqs: Vec<Vec<AccessId>> = Vec::with_capacity(procs);
    for pi in 0..procs {
        let o = shard_of[pi] as usize;
        proc_cycles[pi] = sims[o].procs[pi]
            .finished_at
            .expect("finished proc has finish time");
        per_proc[pi] = sims[o].metrics.per_proc[pi];
        seqs.push(std::mem::take(&mut sims[o].procs[pi].barrier_seq));
    }
    let exec_cycles = proc_cycles.iter().copied().max().unwrap_or(0);
    for (pi, finish) in proc_cycles.iter().enumerate() {
        per_proc[pi].idle = exec_cycles - finish;
    }
    let barriers_aligned = !config.check_barrier_alignment || seqs.iter().all(|sq| sq == &seqs[0]);

    let mut net = NetStats::default();
    let mut stalls = StallStats::default();
    let mut work = SimWork::default();
    let mut latency = LatencyHistogram::new();
    let mut shard_events: Vec<u64> = Vec::with_capacity(sims.len());
    for sim in sims.iter() {
        net.add(&sim.net);
        stalls.add(&sim.stalls);
        // A shard's own `shard_*` counters are zero: they are counted
        // here, from its shard context.
        let w = &sim.metrics.work;
        work.add(w);
        let l = &sim.metrics.latency;
        if l.count > 0 {
            latency.min = if latency.count == 0 {
                l.min
            } else {
                latency.min.min(l.min)
            };
            latency.max = latency.max.max(l.max);
            latency.count += l.count;
            latency.total += l.total;
            for (b, lb) in latency.buckets.iter_mut().zip(l.buckets.iter()) {
                *b += lb;
            }
        }
        let sh = sim.shard.as_ref().expect("shard ctx");
        work.shard_cross_messages += sh.cross_messages;
        work.shard_idle_windows += sh.idle_windows;
        shard_events.push(w.events_dequeued);
    }
    net.barriers += st.episodes.len() as u64;
    work.shard_horizon_advances = st.horizon_advances;

    let memory = if outputs.memory {
        // Every shard has the identical layout; each location's value is
        // authoritative at its home's shard.
        let snaps: Vec<_> = sims.iter().map(|s| s.memory.snapshot()).collect();
        let mut merged = snaps[0].clone();
        for (vi, (var, vals)) in merged.iter_mut().enumerate() {
            for (idx, v) in vals.iter_mut().enumerate() {
                let home = sims[0].memory.home(Location {
                    var: *var,
                    index: idx as u64,
                });
                *v = snaps[shard_of[home as usize] as usize][vi].1[idx];
            }
        }
        merged
    } else {
        Vec::new()
    };
    let barrier_seqs = if outputs.barrier_seqs {
        seqs
    } else {
        Vec::new()
    };

    SimResult {
        exec_cycles,
        proc_cycles,
        net,
        stalls,
        memory,
        barriers_aligned,
        metrics: SimMetrics {
            per_proc,
            latency,
            barrier_epochs: st.episodes,
            work,
            shard_events,
        },
        barrier_seqs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::simulate;
    use syncopt_frontend::prepare_program;
    use syncopt_ir::lower::lower_main;

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

    fn assert_matches_sequential(src: &str, procs: u32, shards: usize) {
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let config = MachineConfig::cm5(procs);
        let seq = simulate(&cfg, &config).unwrap();
        let par = simulate_sharded(&cfg, &config, shards, SimOutputs::full()).unwrap();
        assert_eq!(seq.exec_cycles, par.exec_cycles, "s={shards}");
        assert_eq!(seq.proc_cycles, par.proc_cycles, "s={shards}");
        assert_eq!(seq.net, par.net, "s={shards}");
        assert_eq!(seq.stalls, par.stalls, "s={shards}");
        assert_eq!(seq.memory, par.memory, "s={shards}");
        assert_eq!(seq.barriers_aligned, par.barriers_aligned);
        assert_eq!(seq.barrier_seqs, par.barrier_seqs);
        assert_eq!(seq.metrics.per_proc, par.metrics.per_proc, "s={shards}");
        assert_eq!(seq.metrics.latency, par.metrics.latency, "s={shards}");
        assert_eq!(seq.metrics.barrier_epochs, par.metrics.barrier_epochs);
    }

    #[test]
    fn sharded_matches_sequential_on_mixed_workload() {
        for shards in [1, 2, 3, 4, 8] {
            assert_matches_sequential(MIXED_SRC, 8, shards);
        }
    }

    #[test]
    fn sharded_matches_sequential_under_all_partitions() {
        // `Block` is the only partition; the explicit entry point is the
        // one the wall-clock benchmark calls.
        let cfg = lower_main(&prepare_program(MIXED_SRC).unwrap()).unwrap();
        let config = MachineConfig::cm5(8);
        for shards in [2, 3, 4] {
            let with = simulate_sharded_with(
                &cfg,
                &config,
                shards,
                ShardPartition::default(),
                SimOutputs::full(),
            )
            .unwrap();
            let plain = simulate_sharded(&cfg, &config, shards, SimOutputs::full()).unwrap();
            assert_eq!(with.exec_cycles, plain.exec_cycles, "s={shards}");
            assert_eq!(with.memory, plain.memory, "s={shards}");
            assert_eq!(with.metrics, plain.metrics, "s={shards}");
            assert_matches_sequential(MIXED_SRC, 8, shards);
        }
    }

    #[test]
    fn partition_maps_are_valid_and_deterministic() {
        for (procs, s) in [(8u32, 4usize), (13, 4), (16, 3), (4, 8)] {
            let s = s.min(procs as usize);
            let map = block_map(procs, s);
            assert_eq!(map.len(), procs as usize, "p{procs} s{s}");
            assert!(map.iter().all(|&o| (o as usize) < s), "p{procs} s{s}");
            assert!(map.windows(2).all(|w| w[0] <= w[1]), "contiguous: {map:?}");
            assert_eq!(map, block_map(procs, s), "deterministic");
        }
        assert_eq!(block_map(4, 2), [0, 0, 1, 1]);
    }

    #[test]
    fn sharded_matches_sequential_on_store_heavy_barrier() {
        // One-way stores force the store-quiescence (drain-triggered)
        // release path through the leader's delta walk.
        let src = r#"
            shared int A[32];
            fn main() {
                A[(MYPROC + 5) % PROCS] = MYPROC;
                barrier;
                int v; v = A[MYPROC];
                work(v * 10);
                barrier;
            }
        "#;
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = syncopt_core::analyze_for(&cfg, 8);
        let opt = syncopt_codegen::optimize(
            &cfg,
            &analysis,
            syncopt_codegen::OptLevel::OneWay,
            syncopt_codegen::DelayChoice::SyncRefined,
        );
        let config = MachineConfig::cm5(8);
        let seq = simulate(&opt.cfg, &config).unwrap();
        for shards in [2, 4, 8] {
            let par = simulate_sharded(&opt.cfg, &config, shards, SimOutputs::full()).unwrap();
            assert_eq!(seq.exec_cycles, par.exec_cycles, "s={shards}");
            assert_eq!(seq.memory, par.memory, "s={shards}");
            assert_eq!(seq.metrics.per_proc, par.metrics.per_proc, "s={shards}");
            assert_eq!(seq.metrics.barrier_epochs, par.metrics.barrier_epochs);
        }
    }

    #[test]
    fn sharded_matches_on_all_table1_machines() {
        let cfg = lower_main(&prepare_program(MIXED_SRC).unwrap()).unwrap();
        for config in MachineConfig::table1(8) {
            let seq = simulate(&cfg, &config).unwrap();
            let par = simulate_sharded(&cfg, &config, 4, SimOutputs::full()).unwrap();
            assert_eq!(seq.exec_cycles, par.exec_cycles, "{}", config.name);
            assert_eq!(seq.memory, par.memory, "{}", config.name);
            assert_eq!(seq.stalls, par.stalls, "{}", config.name);
        }
    }

    #[test]
    fn sharded_counts_parallel_machinery() {
        let cfg = lower_main(&prepare_program(MIXED_SRC).unwrap()).unwrap();
        let config = MachineConfig::cm5(8);
        let par = simulate_sharded(&cfg, &config, 4, SimOutputs::lean()).unwrap();
        let w = &par.metrics.work;
        assert!(w.shard_horizon_advances > 0, "windows must advance");
        assert!(
            w.shard_cross_messages > 0,
            "remote traffic must cross shards"
        );
        // The per-shard event counts cover the whole run.
        assert_eq!(par.metrics.shard_events.len(), 4);
        assert_eq!(
            par.metrics.shard_events.iter().sum::<u64>(),
            w.events_dequeued
        );
        assert!(par.metrics.shard_imbalance_permille().unwrap() >= 1000);
        // Sequential runs report no shard machinery at all.
        let seq = simulate(&cfg, &config).unwrap();
        assert_eq!(seq.metrics.work.shard_horizon_advances, 0);
        assert_eq!(seq.metrics.work.shard_cross_messages, 0);
        assert!(seq.metrics.shard_events.is_empty());
    }

    #[test]
    fn sharded_deadlock_matches_sequential_report() {
        let src = "fn main() { if (MYPROC == 0) { barrier; } }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let config = MachineConfig::cm5(2);
        let seq = simulate(&cfg, &config).unwrap_err();
        let par = simulate_sharded(&cfg, &config, 2, SimOutputs::full()).unwrap_err();
        assert_eq!(seq.message(), par.message());
    }

    #[test]
    fn sharded_runtime_fault_matches_sequential_report() {
        let src = "shared int A[4]; fn main() { A[7 + MYPROC] = 1; }";
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let config = MachineConfig::cm5(4);
        let seq = simulate(&cfg, &config).unwrap_err();
        let par = simulate_sharded(&cfg, &config, 2, SimOutputs::full()).unwrap_err();
        assert_eq!(seq.message(), par.message());
    }

    #[test]
    fn empty_program_and_shard_clamping() {
        let cfg = lower_main(&prepare_program("fn main() { }").unwrap()).unwrap();
        let config = MachineConfig::cm5(2);
        // More shards than processors (and zero shards) clamp cleanly.
        for shards in [0, 1, 2, 16] {
            let r = simulate_sharded(&cfg, &config, shards, SimOutputs::full()).unwrap();
            assert_eq!(r.exec_cycles, 0);
            assert_eq!(r.proc_cycles, vec![0; 2]);
        }
    }
}
