//! Simulator observability: per-processor cycle accounting, remote-access
//! latency histograms, and the barrier epoch timeline.
//!
//! The paper's evaluation (§8) is built on exactly these measurements —
//! cycle counts, message counts, and communication overlap on a CM-5.
//! [`SimMetrics`] is the machine-stage contribution to the pipeline
//! `PipelineReport`: every simulated cycle of every processor is
//! attributed to exactly one category, so
//!
//! ```text
//! busy + sync + barrier + wait + lock + network_wait + idle == exec_cycles
//! ```
//!
//! holds per processor ([`ProcCycles::accounted`]); the conservation is
//! asserted by the simulator's test suite.

/// Where one processor's cycles went, from time 0 to the end of the
/// simulation (`exec_cycles`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcCycles {
    /// Executing instructions: local ops, `work`, memory touches, message
    /// injection (including NIC backpressure), and cycles stolen by
    /// message handling.
    pub busy: u64,
    /// Blocked on a `sync_ctr` with outstanding split-phase operations.
    pub sync: u64,
    /// Blocked at a barrier rendezvous.
    pub barrier: u64,
    /// Blocked in `wait` for a flag.
    pub wait: u64,
    /// Blocked for a lock grant.
    pub lock: u64,
    /// Blocked for the round trip of a *blocking* remote access.
    pub network_wait: u64,
    /// Finished while other processors were still running.
    pub idle: u64,
    /// Messages this processor injected into the network.
    pub msgs_sent: u64,
    /// Remote requests serviced at this processor's memory home.
    pub msgs_handled: u64,
}

impl ProcCycles {
    /// Total accounted cycles; equals `exec_cycles` for every processor.
    pub fn accounted(&self) -> u64 {
        self.busy + self.stalled() + self.network_wait + self.idle
    }

    /// Cycles blocked on synchronization (sync + barrier + wait + lock).
    pub fn stalled(&self) -> u64 {
        self.sync + self.barrier + self.wait + self.lock
    }
}

/// A power-of-two histogram of remote-access completion latencies
/// (cycles from initiation to reply delivery — or to arrival at the home,
/// for unacknowledged one-way stores). Queueing at hot homes shows up as
/// mass in the upper buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `buckets[i]` counts latencies in `[BOUNDS[i-1], BOUNDS[i])`; the
    /// last bucket is unbounded.
    pub buckets: [u64; LatencyHistogram::BOUNDS.len() + 1],
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (for the mean).
    pub total: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
}

impl LatencyHistogram {
    /// Upper bucket boundaries, in cycles.
    pub const BOUNDS: [u64; 9] = [64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; Self::BOUNDS.len() + 1],
            count: 0,
            total: 0,
            min: 0,
            max: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: u64) {
        let i = Self::BOUNDS
            .iter()
            .position(|&b| latency < b)
            .unwrap_or(Self::BOUNDS.len());
        self.buckets[i] += 1;
        self.min = if self.count == 0 {
            latency
        } else {
            self.min.min(latency)
        };
        self.max = self.max.max(latency);
        self.count += 1;
        self.total += latency;
    }

    /// Mean latency (0 when empty).
    pub fn mean(&self) -> u64 {
        self.total.checked_div(self.count).unwrap_or(0)
    }

    /// The human-readable label of bucket `i` (`"<64"`, …, `">=16384"`).
    pub fn bucket_label(i: usize) -> String {
        if i < Self::BOUNDS.len() {
            format!("<{}", Self::BOUNDS[i])
        } else {
            format!(">={}", Self::BOUNDS[Self::BOUNDS.len() - 1])
        }
    }

    /// The cycle range bucket `i` counts, as `"[64, 128)"` (the last
    /// bucket is `"[16384, inf)"`).
    pub fn bucket_range(i: usize) -> String {
        let lo = if i == 0 { 0 } else { Self::BOUNDS[i - 1] };
        if i < Self::BOUNDS.len() {
            format!("[{lo}, {})", Self::BOUNDS[i])
        } else {
            format!("[{lo}, inf)")
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// One completed barrier episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierEpoch {
    /// When the first processor arrived.
    pub first_arrival: u64,
    /// When the last processor arrived (rendezvous point).
    pub last_arrival: u64,
    /// When all processors were released (includes store drain and the
    /// combine/broadcast cost).
    pub release: u64,
}

impl BarrierEpoch {
    /// Arrival skew: how long the fastest processor waited for the
    /// slowest (load imbalance made visible).
    pub fn skew(&self) -> u64 {
        self.last_arrival - self.first_arrival
    }
}

/// All-integer work counters for the simulator engine itself: how much
/// machinery the event queue and state tables moved to produce the
/// result. These are the `sim_throughput` benchmark's regression-gate
/// signal — exact, deterministic, and independent of host load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimWork {
    /// Events pushed into the queue (arena allocations + free-list reuses).
    pub events_scheduled: u64,
    /// Events popped and dispatched.
    pub events_dequeued: u64,
    /// Calendar-wheel bucket slots inspected while seeking the next
    /// nonempty bucket (the wheel's analogue of heap sift work).
    pub bucket_rotations: u64,
    /// Events that missed the wheel window and went through the
    /// binary-heap overflow rung (scheduled far in the future).
    pub overflow_promotions: u64,
    /// Event-arena slots recycled from the free list (allocation-free
    /// steady state shows up as `arena_reuses` approaching
    /// `events_scheduled`).
    pub arena_reuses: u64,
    /// Waiter-list entries scanned when a `post` wakes blocked `wait`ers.
    pub waiter_scans: u64,
    /// Synchronization-horizon windows advanced by the sharded engine
    /// (zero for the sequential engines).
    pub shard_horizon_advances: u64,
    /// Events routed through a shard-pair mailbox instead of a local
    /// wheel (cross-shard arrivals, deliveries, and barrier traffic).
    pub shard_cross_messages: u64,
    /// Windows in which a shard had no event to dispatch (conservative
    /// lookahead idling — the parallel engine's waiting-on-peers signal).
    pub shard_idle_windows: u64,
}

impl SimWork {
    /// Events dequeued per 1000 simulated cycles — the throughput-shape
    /// proxy the bench report derives (integer, deterministic).
    pub fn events_per_1k_cycles(&self, exec_cycles: u64) -> u64 {
        self.events_dequeued * 1000 / exec_cycles.max(1)
    }
}

/// Everything the simulator measured beyond the headline result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Per-processor cycle accounting; index = processor id.
    pub per_proc: Vec<ProcCycles>,
    /// Completion latency of remote gets/puts/stores.
    pub latency: LatencyHistogram,
    /// Barrier episodes in completion order.
    pub barrier_epochs: Vec<BarrierEpoch>,
    /// Engine work counters (event queue, state tables).
    pub work: SimWork,
    /// Events each shard of a sharded run dispatched, by shard index;
    /// empty for the sequential engines. Like [`SimWork`], this is engine
    /// machinery: it varies with the shard count while every other
    /// observable stays bit-identical.
    pub shard_events: Vec<u64>,
}

impl SimMetrics {
    /// Per-shard event-load imbalance as `max * 1000 / mean` over
    /// [`shard_events`](SimMetrics::shard_events) (1000 = perfectly
    /// balanced). `None` for sequential runs or when no events were
    /// dispatched.
    pub fn shard_imbalance_permille(&self) -> Option<u64> {
        let total: u64 = self.shard_events.iter().sum();
        let max = self.shard_events.iter().copied().max()?;
        (total > 0).then(|| max * 1000 * self.shard_events.len() as u64 / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_cycles_accounting_sums_categories() {
        let p = ProcCycles {
            busy: 10,
            sync: 1,
            barrier: 2,
            wait: 3,
            lock: 4,
            network_wait: 5,
            idle: 6,
            msgs_sent: 0,
            msgs_handled: 0,
        };
        assert_eq!(p.stalled(), 10);
        assert_eq!(p.accounted(), 31);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = LatencyHistogram::new();
        for l in [10, 63, 64, 400, 20_000] {
            h.record(l);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 20_000);
        assert_eq!(h.mean(), (10 + 63 + 64 + 400 + 20_000) / 5);
        assert_eq!(h.buckets[0], 2, "10 and 63 land below 64");
        assert_eq!(h.buckets[1], 1, "64 lands in [64,128)");
        assert_eq!(h.buckets[3], 1, "400 lands in [256,512)");
        assert_eq!(*h.buckets.last().unwrap(), 1, "20000 overflows");
        assert_eq!(LatencyHistogram::bucket_label(0), "<64");
        assert_eq!(LatencyHistogram::bucket_label(9), ">=16384");
        assert_eq!(LatencyHistogram::bucket_range(0), "[0, 64)");
        assert_eq!(LatencyHistogram::bucket_range(1), "[64, 128)");
        assert_eq!(LatencyHistogram::bucket_range(9), "[16384, inf)");
    }

    #[test]
    fn shard_imbalance_ratio() {
        let mut m = SimMetrics::default();
        assert_eq!(m.shard_imbalance_permille(), None, "sequential run");
        m.shard_events = vec![300, 100];
        // max 300, mean 200 -> 1500 permille.
        assert_eq!(m.shard_imbalance_permille(), Some(1500));
        m.shard_events = vec![42];
        assert_eq!(
            m.shard_imbalance_permille(),
            Some(1000),
            "one shard is balanced"
        );
    }

    #[test]
    fn barrier_epoch_skew() {
        let e = BarrierEpoch {
            first_arrival: 100,
            last_arrival: 180,
            release: 305,
        };
        assert_eq!(e.skew(), 80);
    }
}
