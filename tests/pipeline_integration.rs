//! End-to-end pipeline integration: source text → frontend → IR → analysis
//! → codegen → simulation, across optimization levels and machine models.

use std::collections::BTreeSet;
use syncopt::core::diag::json::Value;
use syncopt::machine::MachineConfig;
use syncopt::{
    AnalysisStats, CacheStats, Compiled, DelayChoice, OptLevel, OptStats, RunResult, Syncopt,
    SyncoptError,
};

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

const LEVELS: [OptLevel; 4] = [
    OptLevel::Blocking,
    OptLevel::Pipelined,
    OptLevel::OneWay,
    OptLevel::Full,
];

const PROGRAMS: &[(&str, &str)] = &[
    (
        "producer_consumer",
        r#"
        shared int Data[16]; flag ready;
        fn main() {
            if (MYPROC == 0) {
                int i;
                for (i = 0; i < 16; i = i + 1) { Data[i] = i * i; }
                post ready;
            }
            wait ready;
            int v; v = Data[MYPROC];
            work(v);
        }
        "#,
    ),
    (
        "phase_exchange",
        r#"
        shared double Grid[32]; shared double Next[32];
        fn main() {
            int t;
            double left;
            for (t = 0; t < 3; t = t + 1) {
                left = 0.0;
                if (MYPROC > 0) { left = Grid[MYPROC * 4 - 1]; }
                work(200);
                Next[MYPROC * 4] = left + 1.0;
                barrier;
                Grid[MYPROC * 4] = Next[MYPROC * 4];
                barrier;
            }
        }
        "#,
    ),
    (
        "lock_counter",
        r#"
        shared int Total; lock guard;
        fn main() {
            int i;
            for (i = 0; i < 3; i = i + 1) {
                work(50);
                lock guard;
                int v; v = Total;
                Total = v + 1;
                unlock guard;
            }
        }
        "#,
    ),
    (
        "functions_and_calls",
        r#"
        shared int Acc[8]; flag done[8];
        fn bump(int slot, int amount) {
            int v; v = Acc[slot];
            Acc[slot] = v + amount;
        }
        fn main() {
            bump(MYPROC, 5);
            bump(MYPROC, 7);
            post done[MYPROC];
            wait done[(MYPROC + 1) % PROCS];
        }
        "#,
    ),
];

#[test]
fn every_program_compiles_at_every_level() {
    for (name, src) in PROGRAMS {
        for level in LEVELS {
            let c = compile(src, 8, level, DelayChoice::SyncRefined)
                .unwrap_or_else(|e| panic!("{name} at {level:?}: {e}"));
            c.optimized
                .cfg
                .validate()
                .unwrap_or_else(|e| panic!("{name} at {level:?}: invalid CFG: {e}"));
        }
    }
}

#[test]
fn optimization_levels_preserve_final_memory() {
    let config = MachineConfig::cm5(8);
    for (name, src) in PROGRAMS {
        let baseline = run(src, &config, OptLevel::Blocking, DelayChoice::SyncRefined)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for level in LEVELS {
            for choice in [DelayChoice::ShashaSnir, DelayChoice::SyncRefined] {
                let r = run(src, &config, level, choice)
                    .unwrap_or_else(|e| panic!("{name} at {level:?}/{choice:?}: {e}"));
                assert_eq!(
                    r.sim.memory, baseline.sim.memory,
                    "{name} at {level:?}/{choice:?}: memory diverged"
                );
            }
        }
    }
}

#[test]
fn full_optimization_never_slows_programs_down() {
    let config = MachineConfig::cm5(8);
    for (name, src) in PROGRAMS {
        let blocking = run(src, &config, OptLevel::Blocking, DelayChoice::SyncRefined)
            .unwrap()
            .sim
            .exec_cycles;
        let full = run(src, &config, OptLevel::Full, DelayChoice::SyncRefined)
            .unwrap()
            .sim
            .exec_cycles;
        // Allow the constant split-phase bookkeeping overhead (counters),
        // which purely-local access sequences cannot amortize.
        let slack = blocking / 20 + 64;
        assert!(
            full <= blocking + slack,
            "{name}: full {full} > blocking {blocking} + {slack}"
        );
    }
}

#[test]
fn all_three_machines_run_all_programs() {
    for config in MachineConfig::table1(8) {
        for (name, src) in PROGRAMS {
            let r = run(src, &config, OptLevel::Full, DelayChoice::SyncRefined)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", config.name));
            assert!(r.sim.barriers_aligned, "{name} on {}", config.name);
        }
    }
}

#[test]
fn faster_machines_run_faster() {
    // T3D has far lower remote latency than CM-5; communication-bound
    // programs must finish sooner.
    let (_, src) = PROGRAMS[1]; // phase_exchange
    let cm5 = run(
        src,
        &MachineConfig::cm5(8),
        OptLevel::Blocking,
        DelayChoice::SyncRefined,
    )
    .unwrap()
    .sim
    .exec_cycles;
    let t3d = run(
        src,
        &MachineConfig::t3d(8),
        OptLevel::Blocking,
        DelayChoice::SyncRefined,
    )
    .unwrap()
    .sim
    .exec_cycles;
    assert!(t3d < cm5, "t3d {t3d} vs cm5 {cm5}");
}

#[test]
fn processor_counts_scale_results() {
    let (_, src) = PROGRAMS[2]; // lock_counter: Total = 3 × procs
    for procs in [2u32, 4, 16] {
        let r = run(
            src,
            &MachineConfig::cm5(procs),
            OptLevel::Full,
            DelayChoice::SyncRefined,
        )
        .unwrap();
        let total = r
            .sim
            .memory
            .iter()
            .find(|(v, _)| r.compiled.source_cfg.vars.info(*v).name == "Total")
            .map(|(_, vals)| vals[0])
            .unwrap();
        assert_eq!(total, syncopt::machine::Value::Int(3 * procs as i64));
    }
}

/// The deepest program the parser accepts goes through every later stage —
/// each of them a recursive walk of what the parser built — on a test
/// thread's 2 MiB stack in a debug build: blocks nested to the limit around
/// an expression tree as tall as the limit, inside a function that is
/// inlined, simulated at both ends of the optimizer.
#[test]
fn a_program_nested_to_one_below_the_limit_compiles_and_runs() {
    use syncopt::frontend::parser::MAX_NESTING;
    // `helper`'s body is level 1 and each `if` block one more, which puts
    // the assignments at level MAX_NESTING - 7. The parentheses around
    // the subscript take the seven levels left, and so do the operands of
    // `-(-(0 + v * 1))`; both right-hand sides are MAX_NESTING nodes tall.
    let ifs = MAX_NESTING - 8;
    let chain = " + 1".repeat(MAX_NESTING - 1);
    let src = format!(
        "shared int A[8]; shared int X;\n\
         fn helper(int v) {{ {open} X = v{chain}; A[{lp}MYPROC{rp}] = -(-(0 + v * 1)){ones}; {close} }}\n\
         fn main() {{ helper(MYPROC); barrier; }}\n",
        open = "if (v >= 0) { ".repeat(ifs),
        close = "}".repeat(ifs),
        lp = "(".repeat(7),
        rp = ")".repeat(7),
        ones = " + 1".repeat(MAX_NESTING - 5),
    );
    for level in [OptLevel::Blocking, OptLevel::Full] {
        let r = run(
            &src,
            &MachineConfig::cm5(4),
            level,
            DelayChoice::SyncRefined,
        )
        .unwrap_or_else(|e| panic!("{level:?}: {e}"));
        let cell = |name: &str| {
            r.sim
                .memory
                .iter()
                .find(|(v, _)| r.compiled.source_cfg.vars.info(*v).name == name)
                .map(|(_, vals)| vals.clone())
                .unwrap()
        };
        let ones = (MAX_NESTING - 5) as i64;
        let expected: Vec<_> = (0..8)
            .map(|p| syncopt::machine::Value::Int(if p < 4 { p + ones } else { 0 }))
            .collect();
        assert_eq!(cell("A"), expected, "{level:?}");
    }
    // One more of anything is refused, so the program above is the edge.
    for (from, to) in [
        ("X = v", "X = 1 + v"),
        ("A[(", "A[(("),
        ("-(-(0", "-(-(-(0"),
        ("fn helper(int v) {", "fn helper(int v) { {"),
    ] {
        let deeper = src.replacen(from, to, 1);
        assert_ne!(deeper, src);
        match Syncopt::new(&deeper).compile() {
            Err(e) => assert_eq!(e.to_diagnostic().code, "E007", "{to}: {e}"),
            Ok(_) => panic!("{to}: one level past the limit compiled"),
        }
    }
}

/// The names in the first table after `heading` in `docs`, a row that
/// names several (`a` / `b`) counting each.
fn glossary<'a>(docs: &'a str, heading: &str) -> BTreeSet<&'a str> {
    docs.split(&format!("\n{heading}\n"))
        .nth(1)
        .unwrap_or_else(|| panic!("docs/OBSERVABILITY.md has no `{heading}`"))
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2)
        .flat_map(|row| row[1..].split(" |").next().unwrap().split(" / "))
        .map(|name| name.trim().trim_matches('`'))
        .collect()
}

/// Drift test (the service-metric one in `tests/service_metrics.rs`, for
/// every other counter): each declared counter table names exactly the
/// counters of its glossary table in `docs/OBSERVABILITY.md`, derived
/// members beside, and every kernel's `run` report writes each table's
/// keys in order, each once: the analysis table under `counters`, the
/// summary under `analysis`; `net` then its total, `stalls`, each
/// `per_proc` row after its index, `work` without the sharded engine's
/// counters and with its event density, and `codegen`.
#[test]
fn every_report_counter_is_in_the_counter_glossary_and_back() {
    use syncopt::core::cache::CACHE_KINDS;
    use syncopt::machine::sim::{NetStats, StallStats};
    use syncopt::machine::{ProcCycles, SimWork};
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let docs = std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).unwrap();
    let analysis = syncopt::core::ANALYSIS_COUNTER_NAMES;
    assert_eq!(analysis.len(), 32);
    let tables: [(&str, &[&str], &[&str]); 9] = [
        ("## Counter glossary", &analysis, &[]),
        (
            "### Analysis summary (`analysis`)",
            &AnalysisStats::NAMES,
            &[],
        ),
        (
            "### Per-processor cycle accounting",
            &ProcCycles::NAMES,
            &[],
        ),
        (
            "### Engine work counters",
            &SimWork::NAMES,
            &["events_per_1k_cycles"],
        ),
        (
            "### Messages (`sim.net`)",
            &NetStats::NAMES,
            &["total_messages"],
        ),
        ("### Stalls (`sim.stalls`)", &StallStats::NAMES, &[]),
        ("### Optimizer actions (`codegen`)", &OptStats::NAMES, &[]),
        ("### Cache activity (`cache`)", &CacheStats::NAMES, &[]),
        ("### Cache kinds (`kinds`)", &CACHE_KINDS, &[]),
    ];
    for (heading, names, derived) in tables {
        let names = names.iter().chain(derived).copied().collect();
        assert_eq!(glossary(&docs, heading), names, "{heading}");
    }
    let declared = |before: &[&str], names: &[&str], after: &[&str]| -> Vec<String> {
        let names = names.iter().filter(|name| !name.starts_with("shard_"));
        let all = before.iter().chain(names).chain(after);
        all.map(|name| name.to_string()).collect()
    };
    let config = MachineConfig::cm5(4);
    for kernel in syncopt::kernels::all_kernels(4) {
        let result = run(
            &kernel.source,
            &config,
            OptLevel::Full,
            DelayChoice::SyncRefined,
        );
        let report = Value::parse(&result.unwrap().report().to_json()).unwrap();
        let sim = |name| report.get("sim").and_then(|s| s.get(name));
        let per_proc = sim("per_proc").and_then(Value::as_arr);
        let sections = [
            (report.get("counters"), declared(&[], &analysis, &[])),
            (
                report.get("analysis"),
                declared(&[], &AnalysisStats::NAMES, &[]),
            ),
            (
                sim("net"),
                declared(&[], &NetStats::NAMES, &["total_messages"]),
            ),
            (sim("stalls"), declared(&[], &StallStats::NAMES, &[])),
            (
                per_proc.and_then(|rows| rows.first()),
                declared(&["proc"], &ProcCycles::NAMES, &[]),
            ),
            (
                sim("work"),
                declared(&[], &SimWork::NAMES, &["events_per_1k_cycles"]),
            ),
            (report.get("codegen"), declared(&[], &OptStats::NAMES, &[])),
        ];
        for (section, names) in sections {
            let Some(Value::Obj(members)) = section else {
                panic!("{}: {names:?} are not an object of {report}", kernel.name);
            };
            let keys: Vec<&String> = members.iter().map(|(key, _)| key).collect();
            assert_eq!(keys, names.iter().collect::<Vec<_>>(), "{}", kernel.name);
        }
    }
}
