//! Property tests of the optimizer: on 256 seeded random SPMD programs
//! (loops, barriers, post/wait, affine array traffic), the fully
//! optimized program must compute the same final shared memory as the
//! blocking original, never run slower, and contain no blocking accesses
//! after split-phase conversion.

use syncopt::core::corpus::SplitMix64;
use syncopt::machine::MachineConfig;
use syncopt::{Compiled, DelayChoice, OptLevel, RunResult, Syncopt, SyncoptError};

fn compile(
    src: &str,
    procs: u32,
    level: OptLevel,
    choice: DelayChoice,
) -> Result<Compiled, SyncoptError> {
    Syncopt::new(src)
        .procs(procs)
        .level(level)
        .delay(choice)
        .compile()
}

fn run(
    src: &str,
    config: &MachineConfig,
    level: OptLevel,
    choice: DelayChoice,
) -> Result<RunResult, SyncoptError> {
    Syncopt::new(src).level(level).delay(choice).run(config)
}

/// One abstract statement of a generated program body.
enum Stmt {
    WriteOwn { arr: usize, off: u64, val: i64 },
    ReadNeighbor { arr: usize, off: u64 },
    ReadOwn { arr: usize, off: u64 },
    Work { cost: u64 },
    Barrier,
}

const B: u64 = 8; // elements per processor per array

fn random_stmt(rng: &mut SplitMix64) -> Stmt {
    let arr = rng.below(2) as usize;
    match rng.below(5) {
        0 => Stmt::WriteOwn {
            arr,
            off: rng.below(B),
            val: 1 + rng.below(8) as i64,
        },
        1 => Stmt::ReadNeighbor {
            arr,
            off: rng.below(B),
        },
        2 => Stmt::ReadOwn {
            arr,
            off: rng.below(B),
        },
        3 => Stmt::Work {
            cost: 10 + rng.below(190),
        },
        _ => Stmt::Barrier,
    }
}

struct ProgSpec {
    body: Vec<Stmt>,
    loop_steps: u64,
    postwait: bool,
}

/// The 256 programs every property is checked on, for 4 processors.
fn programs() -> impl Iterator<Item = String> {
    let mut rng = SplitMix64::new(0x5eed_0905);
    (0..256).map(move |_| {
        let spec = ProgSpec {
            body: (0..2 + rng.below(6))
                .map(|_| random_stmt(&mut rng))
                .collect(),
            loop_steps: 1 + rng.below(3),
            postwait: rng.below(2) == 0,
        };
        render(&spec, 4)
    })
}

fn render(spec: &ProgSpec, procs: u32) -> String {
    let n = B * procs as u64;
    let mut src = format!("shared int A0[{n}]; shared int A1[{n}];\n");
    if spec.postwait {
        src.push_str(&format!("flag F[{}];\n", procs));
    }
    src.push_str("fn main() {\n    int t;\n    int step;\n");
    src.push_str(&format!(
        "    for (step = 0; step < {}; step = step + 1) {{\n",
        spec.loop_steps
    ));
    for s in &spec.body {
        match s {
            Stmt::WriteOwn { arr, off, val } => src.push_str(&format!(
                "        A{arr}[MYPROC * {B} + {off}] = {val} + MYPROC;\n"
            )),
            Stmt::ReadNeighbor { arr, off } => src.push_str(&format!(
                "        if (MYPROC < PROCS - 1) {{ t = A{arr}[MYPROC * {B} + {B} + {off}]; }}\n"
            )),
            Stmt::ReadOwn { arr, off } => {
                src.push_str(&format!("        t = A{arr}[MYPROC * {B} + {off}];\n"))
            }
            Stmt::Work { cost } => src.push_str(&format!("        work({cost});\n")),
            Stmt::Barrier => src.push_str("        barrier;\n"),
        }
    }
    src.push_str("        barrier;\n"); // phase end keeps reads/writes sane
    src.push_str("    }\n");
    if spec.postwait {
        src.push_str("    post F[MYPROC];\n    wait F[(MYPROC + 1) % PROCS];\n");
    }
    src.push_str("}\n");
    src
}

#[test]
fn optimized_programs_compute_the_same_memory() {
    let config = MachineConfig::cm5(4);
    for src in programs() {
        let base = run(&src, &config, OptLevel::Blocking, DelayChoice::SyncRefined)
            .unwrap_or_else(|e| panic!("blocking run failed: {e}\n{src}"));
        for level in [OptLevel::Pipelined, OptLevel::OneWay, OptLevel::Full] {
            let opt = run(&src, &config, level, DelayChoice::SyncRefined)
                .unwrap_or_else(|e| panic!("{level:?} run failed: {e}\n{src}"));
            assert_eq!(
                &opt.sim.memory, &base.sim.memory,
                "memory diverged at {level:?} on:\n{src}"
            );
            // Split-phase conversion carries a few cycles of counter
            // bookkeeping per access; on purely-local programs there is
            // nothing to overlap, so allow that constant overhead (but no
            // more than 5% + 64 cycles).
            let slack = base.sim.exec_cycles / 20 + 64;
            assert!(
                opt.sim.exec_cycles <= base.sim.exec_cycles + slack,
                "{level:?} slower ({} > {} + {slack}) on:\n{src}",
                opt.sim.exec_cycles,
                base.sim.exec_cycles,
            );
        }
    }
}

#[test]
fn memory_is_machine_independent_for_synchronized_programs() {
    // The generated programs are race-free at phase granularity (every
    // loop body ends with a barrier), so the final memory image must not
    // depend on machine timing parameters.
    for src in programs() {
        let results: Vec<_> = MachineConfig::table1(4)
            .into_iter()
            .map(|cfg| {
                run(&src, &cfg, OptLevel::Full, DelayChoice::SyncRefined)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{src}", cfg.name))
                    .sim
                    .memory
            })
            .collect();
        assert_eq!(&results[0], &results[1], "CM-5 vs T3D diverged on:\n{src}");
        assert_eq!(&results[0], &results[2], "CM-5 vs DASH diverged on:\n{src}");
    }
}

#[test]
fn split_phase_removes_all_blocking_accesses() {
    for src in programs() {
        let c = compile(&src, 4, OptLevel::Pipelined, DelayChoice::SyncRefined).unwrap();
        for block in &c.optimized.cfg.blocks {
            for instr in &block.instrs {
                assert!(
                    !matches!(
                        instr,
                        syncopt::ir::cfg::Instr::GetShared { .. }
                            | syncopt::ir::cfg::Instr::PutShared { .. }
                    ),
                    "blocking access survived split-phase on:\n{src}"
                );
            }
        }
        c.optimized.cfg.validate().unwrap();
    }
}

#[test]
fn every_initiation_has_a_sync_on_every_path() {
    // Structural safety: each get/put counter that appears in the CFG is
    // synced at least once somewhere reachable (stores excepted).
    use std::collections::HashSet;
    for src in programs() {
        let c = compile(&src, 4, OptLevel::OneWay, DelayChoice::SyncRefined).unwrap();
        let mut initiated: HashSet<u32> = HashSet::new();
        let mut synced: HashSet<u32> = HashSet::new();
        for block in &c.optimized.cfg.blocks {
            for instr in &block.instrs {
                match instr {
                    syncopt::ir::cfg::Instr::GetInit { ctr, .. }
                    | syncopt::ir::cfg::Instr::PutInit { ctr, .. } => {
                        initiated.insert(ctr.0);
                    }
                    syncopt::ir::cfg::Instr::SyncCtr { ctr } => {
                        synced.insert(ctr.0);
                    }
                    _ => {}
                }
            }
        }
        for ctr in &initiated {
            assert!(
                synced.contains(ctr),
                "counter ctr{ctr} initiated but never synced on:\n{src}"
            );
        }
    }
}
