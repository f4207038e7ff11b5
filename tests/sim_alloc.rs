//! The interpreter's "allocation-free per step" claim, enforced by a
//! measurement: one looped program is simulated on the Calendar engine
//! at N and at 4N iterations under a counting global allocator, and the
//! two allocation counts may differ only by what a handful of growing
//! `Vec`s (barrier logs, the event arena) need to double a few times.
//! An interpreter that copies each instruction, or re-grows a table per
//! step, allocates in proportion to the step count and fails by three
//! orders of magnitude.
//!
//! The file is a test binary of its own because the counting allocator
//! of `tests/common` is a `#[global_allocator]`, which is per binary.

mod common;

use common::allocations;
use syncopt::machine::{simulate_configured, EngineKind, MachineConfig, SimOutputs};
use syncopt::{OptLevel, Syncopt};

/// Every instruction kind the interpreter can loop over without its
/// *data* growing with the trip count: local scalars and arrays, both
/// branch arms, `work`, remote and local reads and writes, a lock, and
/// two barriers per iteration. (`post`/`wait` are left out on purpose: a
/// flag is set once, so a loop needs one flag — and one waiter list — per
/// iteration, which is program data, not interpreter overhead.)
fn looped_program(iterations: u32) -> String {
    format!(
        r#"
        shared int A[64];
        shared int Sum;
        lock l;
        fn main() {{
            int t; int i; int acc; int v;
            int buf[8];
            for (t = 0; t < {iterations}; t = t + 1) {{
                for (i = 0; i < 8; i = i + 1) {{
                    if ((buf[i] + t) % 2 == 0) {{
                        buf[(i + 1) % 8] = buf[i] + t * 2;
                    }} else {{
                        acc = acc + buf[(i + t) % 8];
                    }}
                }}
                work(acc % 5 + 1);
                A[(MYPROC * 8 + t) % 64] = acc;
                barrier;
                v = A[(((MYPROC + 1) % PROCS) * 8 + t) % 64];
                acc = acc + v;
                lock l; Sum = Sum + 1; unlock l;
                barrier;
            }}
        }}
        "#
    )
}

const PROCS: u32 = 4;

/// Allocator calls made by one simulation of the program at `level`, and
/// the events that simulation dispatched.
fn simulation_allocations(iterations: u32, level: OptLevel) -> (u64, u64) {
    let compiled = Syncopt::new(&looped_program(iterations))
        .procs(PROCS)
        .level(level)
        .compile()
        .expect("program compiles");
    let config = MachineConfig::cm5(PROCS);
    let before = allocations();
    let result = simulate_configured(
        &compiled.optimized.cfg,
        &config,
        EngineKind::Calendar,
        SimOutputs::lean(),
    )
    .expect("program simulates");
    let after = allocations();
    (after - before, result.metrics.work.events_dequeued)
}

#[test]
fn interpreting_four_times_the_steps_allocates_no_more_than_a_few_vec_doublings() {
    const N: u32 = 200;
    // Quadrupling the trip count doubles each growing log twice: the
    // barrier-site sequence of each processor and the one epoch timeline.
    // Twice that leaves room for the event arena and the overflow heap.
    let allowance = 2 * (2 * u64::from(PROCS) + 2);
    for level in [OptLevel::Blocking, OptLevel::Full] {
        let (small, small_events) = simulation_allocations(N, level);
        let (large, large_events) = simulation_allocations(4 * N, level);
        assert!(
            large_events > 3 * small_events && small_events > 10_000,
            "{level:?}: the runs must differ in length: {small_events} vs {large_events} events"
        );
        assert!(
            small > 0,
            "{level:?}: the counting allocator is not installed"
        );
        assert!(
            large <= small + allowance,
            "{level:?}: {small} allocations at {N} iterations ({small_events} events) but \
             {large} at {} ({large_events} events): the interpreter allocates per step",
            4 * N
        );
    }
}
