//! Differential suite for the simulator's event-queue engines.
//!
//! The calendar-queue engine ([`EngineKind::Calendar`]) is a performance
//! rewrite of the original binary-heap simulator, which is kept compiled
//! as [`EngineKind::ReferenceHeap`]. Both dispatch events in identical
//! `(time, seq)` order, so **every observable output must be
//! bit-identical** — execution time, per-processor cycle accounting,
//! message counts, stall breakdown, the final memory image, and the
//! barrier-site sequences. This suite proves that over the five
//! evaluation kernels × three optimization levels × three machine sizes,
//! and checks the cycle-conservation invariant (per-processor accounted
//! cycles sum exactly to the execution time) on every run of both
//! engines.

use syncopt::machine::{
    simulate_configured, simulate_sharded, EngineKind, MachineConfig, SimOutputs, SimResult,
};
use syncopt::{DelayChoice, OptLevel, Syncopt};
use syncopt_kernels::{kernels_with, KernelParams};

/// The Figure 12 optimization ladder (duplicated from the bench crate,
/// which depends on this one).
const LEVELS: [(&str, OptLevel, DelayChoice); 3] = [
    ("unoptimized", OptLevel::Pipelined, DelayChoice::ShashaSnir),
    ("pipelined", OptLevel::Pipelined, DelayChoice::SyncRefined),
    ("one-way", OptLevel::OneWay, DelayChoice::SyncRefined),
];

const PROC_COUNTS: [u32; 3] = [1, 4, 16];

fn run_engine(
    source: &str,
    procs: u32,
    level: OptLevel,
    delay: DelayChoice,
    engine: EngineKind,
) -> SimResult {
    let compiled = Syncopt::new(source)
        .procs(procs)
        .level(level)
        .delay(delay)
        .compile()
        .expect("kernel compiles");
    simulate_configured(
        &compiled.optimized.cfg,
        &MachineConfig::cm5(procs),
        engine,
        SimOutputs::full(),
    )
    .expect("kernel simulates")
}

fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.exec_cycles, b.exec_cycles, "{what}: exec_cycles");
    assert_eq!(a.proc_cycles, b.proc_cycles, "{what}: proc_cycles");
    assert_eq!(a.net, b.net, "{what}: net");
    assert_eq!(a.stalls, b.stalls, "{what}: stalls");
    assert_eq!(a.memory, b.memory, "{what}: memory");
    assert_eq!(a.barriers_aligned, b.barriers_aligned, "{what}: aligned");
    assert_eq!(a.barrier_seqs, b.barrier_seqs, "{what}: barrier_seqs");
    assert_eq!(a.metrics.per_proc, b.metrics.per_proc, "{what}: per_proc");
    assert_eq!(
        a.metrics.barrier_epochs, b.metrics.barrier_epochs,
        "{what}: barrier_epochs"
    );
    assert_eq!(a.metrics.latency, b.metrics.latency, "{what}: latency");
}

fn assert_cycles_conserve(r: &SimResult, what: &str) {
    assert_eq!(r.metrics.per_proc.len(), r.proc_cycles.len(), "{what}");
    for (proc, p) in r.metrics.per_proc.iter().enumerate() {
        let accounted = p.busy + p.sync + p.barrier + p.wait + p.lock + p.network_wait + p.idle;
        assert_eq!(
            accounted, r.exec_cycles,
            "{what} proc {proc}: cycle accounting must conserve"
        );
    }
}

#[test]
fn engines_agree_bit_for_bit_across_kernels_levels_and_sizes() {
    for procs in PROC_COUNTS {
        for kernel in kernels_with(&KernelParams::bench(procs)) {
            for (label, level, delay) in LEVELS {
                let what = format!("{} {label} p{procs}", kernel.name);
                let calendar =
                    run_engine(&kernel.source, procs, level, delay, EngineKind::Calendar);
                let reference = run_engine(
                    &kernel.source,
                    procs,
                    level,
                    delay,
                    EngineKind::ReferenceHeap,
                );
                assert_identical(&calendar, &reference, &what);
                assert_cycles_conserve(&calendar, &what);
                assert_cycles_conserve(&reference, &what);
                // Same schedule ⇒ same event volume.
                assert_eq!(
                    calendar.metrics.work.events_dequeued, reference.metrics.work.events_dequeued,
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn lean_outputs_change_nothing_but_the_extractions() {
    for kernel in kernels_with(&KernelParams::bench(4)) {
        let compiled = Syncopt::new(&kernel.source)
            .procs(4)
            .level(OptLevel::OneWay)
            .compile()
            .expect("kernel compiles");
        let config = MachineConfig::cm5(4);
        let full = simulate_configured(
            &compiled.optimized.cfg,
            &config,
            EngineKind::Calendar,
            SimOutputs::full(),
        )
        .unwrap();
        let lean = simulate_configured(
            &compiled.optimized.cfg,
            &config,
            EngineKind::Calendar,
            SimOutputs::lean(),
        )
        .unwrap();
        assert_eq!(full.exec_cycles, lean.exec_cycles, "{}", kernel.name);
        assert_eq!(full.net, lean.net, "{}", kernel.name);
        assert_eq!(full.stalls, lean.stalls, "{}", kernel.name);
        assert!(!full.memory.is_empty(), "{}", kernel.name);
        assert!(lean.memory.is_empty(), "{}", kernel.name);
        assert!(lean.barrier_seqs.is_empty(), "{}", kernel.name);
    }
}

/// Machine sizes for the sharded-engine matrix. The two large sizes run
/// with trimmed kernel parameters (see [`shard_params`]) so the debug
/// build stays test-sized while still exercising the multi-window,
/// multi-mailbox regime the small sizes cannot reach.
const SHARD_PROC_COUNTS: [u32; 4] = [4, 16, 64, 256];

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Kernel sizing for the sharded matrix: the standard bench shape below
/// 64 processors, and a trimmed shape above — event volume on the
/// lockstep kernels grows quadratically with the machine size, and the
/// matrix multiplies every run by four shard counts.
fn shard_params(procs: u32) -> KernelParams {
    if procs >= 64 {
        KernelParams {
            procs,
            elements_per_proc: 2,
            steps: 2,
            work_per_element: 40,
        }
    } else {
        KernelParams::bench(procs)
    }
}

/// The tentpole guarantee: the sharded conservative-lookahead engine is
/// bit-identical to the calendar engine at every shard count, across
/// kernels, optimization levels, and machine sizes up to 256 simulated
/// processors — and every sharded run conserves cycles per processor, with
/// per-shard event counts that sum to the global count.
#[test]
fn sharded_engine_is_bit_identical_to_calendar_at_every_shard_count() {
    for procs in SHARD_PROC_COUNTS {
        let config = MachineConfig::cm5(procs);
        for kernel in kernels_with(&shard_params(procs)) {
            for (label, level, delay) in LEVELS {
                let compiled = Syncopt::new(&kernel.source)
                    .procs(procs)
                    .level(level)
                    .delay(delay)
                    .compile()
                    .expect("kernel compiles");
                let calendar = simulate_configured(
                    &compiled.optimized.cfg,
                    &config,
                    EngineKind::Calendar,
                    SimOutputs::full(),
                )
                .expect("calendar engine runs");
                for shards in SHARD_COUNTS {
                    let what = format!("{} {label} p{procs} s{shards}", kernel.name);
                    let sharded = simulate_sharded(
                        &compiled.optimized.cfg,
                        &config,
                        shards,
                        SimOutputs::full(),
                    )
                    .expect("sharded engine runs");
                    assert_identical(&calendar, &sharded, &what);
                    assert_cycles_conserve(&sharded, &what);
                    let shard_events = &sharded.metrics.shard_events;
                    assert_eq!(shard_events.len(), shards.min(procs as usize), "{what}");
                    assert_eq!(
                        shard_events.iter().sum::<u64>(),
                        sharded.metrics.work.events_dequeued,
                        "{what}: shard event accounting"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_sweep_reports_are_thread_count_invariant() {
    let sim = syncopt::bench::suite("sim").expect("the sim suite exists");
    let serial = sim.run(true, 1).expect("sim bench runs");
    let threaded = sim.run(true, 4).expect("sim bench runs");
    assert_eq!(serial.rows.len(), threaded.rows.len());
    for (a, b) in serial.rows.iter().zip(threaded.rows.iter()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.int("exec_cycles"), b.int("exec_cycles"), "{}", a.id);
        assert_eq!(a.counters, b.counters, "{}", a.id);
    }
}

/// Local storage is indexed by `VarId`, not hashed: a program that lives
/// in its local arrays — indices read from other local arrays, two deep,
/// on both sides of an assignment and in the branch condition, with both
/// arms taken — must come out of every engine bit for bit.
const LOCAL_ARRAYS_SRC: &str = r#"
    shared int A[64];
    shared int Sum;
    shared int Arms[32];
    lock l;
    fn main() {
        int i; int t; int acc; int even; int odd;
        int buf[8];
        int idx[8];
        double w[4];
        for (i = 0; i < 8; i = i + 1) {
            idx[i] = (i * 3 + MYPROC) % 8;
            buf[i] = i + MYPROC;
        }
        for (t = 0; t < 5; t = t + 1) {
            for (i = 0; i < 8; i = i + 1) {
                if ((buf[idx[i]] + t) % 2 == 0) {
                    buf[idx[(i + 1) % 8]] = buf[idx[i]] + buf[i] * 2;
                    w[buf[idx[i]] % 4] = w[i % 4] + 0.5;
                    even = even + 1;
                } else {
                    buf[idx[idx[i]]] = buf[i] - t;
                    acc = acc + buf[idx[idx[(i + t) % 8]]];
                    odd = odd + 1;
                }
            }
            work(buf[idx[t]] % 7 + 1);
            A[(MYPROC * 5 + t) % 64] = acc + buf[idx[idx[t]]];
            barrier;
            acc = acc + A[(((MYPROC + 1) % PROCS) * 5 + t) % 64];
            barrier;
        }
        if (w[buf[idx[0]] % 4] > 1.0) { acc = acc + 1; } else { acc = acc - 1; }
        lock l; Sum = Sum + acc; unlock l;
        Arms[MYPROC * 2] = even;
        Arms[MYPROC * 2 + 1] = odd;
    }
"#;

#[test]
fn local_arrays_with_nested_indices_agree_across_all_three_engines() {
    for procs in [1u32, 4, 16] {
        let config = MachineConfig::cm5(procs);
        for (label, level, delay) in LEVELS {
            let compiled = Syncopt::new(LOCAL_ARRAYS_SRC)
                .procs(procs)
                .level(level)
                .delay(delay)
                .compile()
                .expect("program compiles");
            let cfg = &compiled.optimized.cfg;
            let engine = |kind| {
                simulate_configured(cfg, &config, kind, SimOutputs::full()).expect("simulates")
            };
            let calendar = engine(EngineKind::Calendar);
            let what = format!("local arrays {label} p{procs}");
            assert_cycles_conserve(&calendar, &what);
            let arms = cfg.vars.by_name("Arms").expect("declared");
            let (_, arms) = calendar.memory.iter().find(|(v, _)| *v == arms).unwrap();
            for taken in &arms[..2 * procs as usize] {
                assert!(
                    taken.as_int().unwrap() > 0,
                    "{what}: an arm never ran: {arms:?}"
                );
            }
            assert_identical(&calendar, &engine(EngineKind::ReferenceHeap), &what);
            for shards in [2usize, 4] {
                let what = format!("{what} s{shards}");
                let sharded = simulate_sharded(cfg, &config, shards, SimOutputs::full())
                    .expect("sharded engine runs");
                assert_identical(&calendar, &sharded, &what);
                assert_cycles_conserve(&sharded, &what);
            }
        }
    }
}
