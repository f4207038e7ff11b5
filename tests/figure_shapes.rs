//! Locks in the *shapes* of the paper's evaluation figures as regression
//! tests: if a change to the analysis or optimizer breaks the Figure 12
//! ordering or the Figure 13 scaling separation, these fail.

use syncopt::machine::{
    simulate_configured, simulate_sharded, EngineKind, MachineConfig, SimOutputs,
};
use syncopt::{DelayChoice, OptLevel, RunResult, Syncopt, SyncoptError};
use syncopt_kernels::{all_kernels, epithel, KernelParams};

fn run(
    src: &str,
    config: &MachineConfig,
    level: OptLevel,
    choice: DelayChoice,
) -> Result<RunResult, SyncoptError> {
    Syncopt::new(src).level(level).delay(choice).run(config)
}

fn cycles(src: &str, config: &MachineConfig, level: OptLevel, choice: DelayChoice) -> u64 {
    run(src, config, level, choice)
        .expect("kernel must run")
        .sim
        .exec_cycles
}

/// Figure 12 ordering: unoptimized ≥ pipelined ≥ one-way for every kernel.
#[test]
fn figure12_bar_ordering_holds() {
    let procs = 16;
    let config = MachineConfig::cm5(procs);
    for kernel in all_kernels(procs) {
        let unopt = cycles(
            &kernel.source,
            &config,
            OptLevel::Pipelined,
            DelayChoice::ShashaSnir,
        );
        let pipe = cycles(
            &kernel.source,
            &config,
            OptLevel::Pipelined,
            DelayChoice::SyncRefined,
        );
        let oneway = cycles(
            &kernel.source,
            &config,
            OptLevel::OneWay,
            DelayChoice::SyncRefined,
        );
        assert!(
            pipe <= unopt,
            "{}: pipe {pipe} > unopt {unopt}",
            kernel.name
        );
        assert!(
            oneway <= pipe,
            "{}: oneway {oneway} > pipe {pipe}",
            kernel.name
        );
        // The paper's headline: a real improvement, not noise.
        assert!(
            (oneway as f64) < 0.95 * unopt as f64,
            "{}: expected ≥5% total gain, got {unopt} → {oneway}",
            kernel.name
        );
    }
}

/// Figure 13 separation: at scale, the optimized Epithel clearly beats the
/// unoptimized one, and the unoptimized version has stopped scaling.
#[test]
fn figure13_scaling_separation_holds() {
    let total_elems = 1152u32;
    let params = |procs: u32| KernelParams {
        procs,
        elements_per_proc: total_elems / procs,
        steps: 2,
        work_per_element: 5,
    };
    let t = |procs: u32, level: OptLevel, choice: DelayChoice| {
        let kernel = epithel::generate(&params(procs));
        cycles(&kernel.source, &MachineConfig::cm5(procs), level, choice)
    };
    // Separation at 32 processors.
    let unopt32 = t(32, OptLevel::Pipelined, DelayChoice::ShashaSnir);
    let oneway32 = t(32, OptLevel::OneWay, DelayChoice::SyncRefined);
    assert!(
        (oneway32 as f64) < 0.7 * unopt32 as f64,
        "expected ≥30% separation at 32 procs: {unopt32} vs {oneway32}"
    );
    // The unoptimized version rolls over: 32 procs not much better than 16.
    let unopt16 = t(16, OptLevel::Pipelined, DelayChoice::ShashaSnir);
    assert!(
        unopt32 as f64 > 0.8 * unopt16 as f64,
        "unoptimized should have flattened: T(16)={unopt16}, T(32)={unopt32}"
    );
    // The optimized version keeps scaling: 32 procs clearly beats 16.
    let oneway16 = t(16, OptLevel::OneWay, DelayChoice::SyncRefined);
    assert!(
        (oneway32 as f64) < 0.8 * oneway16 as f64,
        "optimized should keep scaling: T(16)={oneway16}, T(32)={oneway32}"
    );
}

/// Figure 13 is engine-independent: re-deriving its largest point on the
/// sharded conservative engine gives bit-identical cycle counts, so every
/// separation assertion above holds on either engine.
#[test]
fn figure13_points_survive_the_sharded_engine() {
    let procs = 32u32;
    let kernel = epithel::generate(&KernelParams {
        procs,
        elements_per_proc: 1152 / procs,
        steps: 2,
        work_per_element: 5,
    });
    let config = MachineConfig::cm5(procs);
    for (level, choice) in [
        (OptLevel::Pipelined, DelayChoice::ShashaSnir),
        (OptLevel::OneWay, DelayChoice::SyncRefined),
    ] {
        let compiled = Syncopt::new(&kernel.source)
            .procs(procs)
            .level(level)
            .delay(choice)
            .compile()
            .expect("kernel compiles");
        let sequential = simulate_configured(
            &compiled.optimized.cfg,
            &config,
            EngineKind::Calendar,
            SimOutputs::lean(),
        )
        .expect("sequential run");
        for shards in [2, 4] {
            let sharded =
                simulate_sharded(&compiled.optimized.cfg, &config, shards, SimOutputs::lean())
                    .expect("sharded run");
            assert_eq!(
                sequential.exec_cycles, sharded.exec_cycles,
                "{level:?} s{shards}: exec_cycles"
            );
            assert_eq!(sequential.net, sharded.net, "{level:?} s{shards}: net");
        }
    }
}

/// Delay-set reduction: the central claim, on every kernel.
#[test]
fn delay_sets_shrink_on_every_kernel() {
    for kernel in all_kernels(16) {
        let compiled = Syncopt::new(&kernel.source)
            .procs(16)
            .level(OptLevel::Blocking)
            .compile()
            .unwrap();
        let s = compiled.analysis.stats();
        assert!(
            s.delay_sync < s.delay_ss,
            "{}: {} !< {}",
            kernel.name,
            s.delay_sync,
            s.delay_ss
        );
    }
}

/// Ack elimination: one-way conversion removes *all* acks wherever it
/// applies (Ocean, EM3D, Epithel have barrier-covered puts).
#[test]
fn one_way_eliminates_acks_on_barrier_kernels() {
    let procs = 8;
    let config = MachineConfig::cm5(procs);
    for kernel in all_kernels(procs) {
        if !["Ocean", "EM3D", "Epithel"].contains(&kernel.name) {
            continue;
        }
        let two_way = run(
            &kernel.source,
            &config,
            OptLevel::Pipelined,
            DelayChoice::SyncRefined,
        )
        .unwrap()
        .sim;
        let one_way = run(
            &kernel.source,
            &config,
            OptLevel::OneWay,
            DelayChoice::SyncRefined,
        )
        .unwrap()
        .sim;
        assert!(two_way.net.put_acks > 0, "{}", kernel.name);
        assert!(one_way.net.store_requests > 0, "{}", kernel.name);
        assert!(
            one_way.net.put_acks < two_way.net.put_acks,
            "{}: acks {} → {}",
            kernel.name,
            two_way.net.put_acks,
            one_way.net.put_acks
        );
    }
}
