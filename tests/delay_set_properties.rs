//! NOTE: this property-based suite needs the `proptest` crate, which is
//! not available in offline builds. It is compiled only when the custom
//! `proptest` cfg is set:
//!
//!     1. re-add `proptest = "1"` to this crate's [dev-dependencies]
//!     2. RUSTFLAGS="--cfg proptest" cargo test
//!
#![cfg(proptest)]

//! Property-based tests over randomly generated producer/consumer litmus
//! programs:
//!
//! * the refined delay set is always a subset of the Shasha–Snir set;
//! * both computed delay sets are SC-preserving (checked operationally by
//!   the litmus explorer);
//! * the analysis is deterministic.

use proptest::prelude::*;
use syncopt::core::analyze;
use syncopt::frontend::prepare_program;
use syncopt::ir::lower::lower_main;
use syncopt::machine::litmus::is_sc_preserving;

/// One abstract statement of a generated litmus side.
#[derive(Debug, Clone)]
enum Stmt {
    Write { var: usize, val: i64 },
    Read { var: usize },
}

fn stmt_strategy(nvars: usize) -> impl Strategy<Value = Stmt> {
    prop_oneof![
        (0..nvars, 1..5i64).prop_map(|(var, val)| Stmt::Write { var, val }),
        (0..nvars).prop_map(|var| Stmt::Read { var }),
    ]
}

#[derive(Debug, Clone)]
struct LitmusSpec {
    producer: Vec<Stmt>,
    consumer: Vec<Stmt>,
    use_postwait: bool,
    use_barrier: bool,
}

fn spec_strategy() -> impl Strategy<Value = LitmusSpec> {
    let nvars = 3usize;
    (
        prop::collection::vec(stmt_strategy(nvars), 1..4),
        prop::collection::vec(stmt_strategy(nvars), 1..4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(producer, consumer, use_postwait, use_barrier)| LitmusSpec {
                producer,
                consumer,
                use_postwait,
                use_barrier,
            },
        )
}

fn render(spec: &LitmusSpec) -> String {
    let mut src = String::new();
    src.push_str("shared int V0; shared int V1; shared int V2;\n");
    if spec.use_postwait {
        src.push_str("flag F;\n");
    }
    src.push_str("fn main() {\n    int t;\n");
    src.push_str("    if (MYPROC == 0) {\n");
    for s in &spec.producer {
        match s {
            Stmt::Write { var, val } => src.push_str(&format!("        V{var} = {val};\n")),
            Stmt::Read { var } => src.push_str(&format!("        t = V{var};\n")),
        }
    }
    if spec.use_postwait {
        src.push_str("        post F;\n");
    }
    src.push_str("    } else {\n");
    if spec.use_postwait {
        src.push_str("        wait F;\n");
    }
    for s in &spec.consumer {
        match s {
            Stmt::Write { var, val } => src.push_str(&format!("        V{var} = {val};\n")),
            Stmt::Read { var } => src.push_str(&format!("        t = V{var};\n")),
        }
    }
    src.push_str("    }\n");
    if spec.use_barrier {
        src.push_str("    barrier;\n    t = V0;\n");
    }
    src.push_str("}\n");
    src
}

/// The analysis must stay tractable on programs an order of magnitude
/// larger than the kernels (the SPMD two-copy reduction keeps cycle
/// detection polynomial).
#[test]
fn analysis_scales_to_hundreds_of_accesses() {
    let mut src = String::from("shared int V0; shared int V1; shared int V2; shared int V3;\n");
    src.push_str("flag F; fn main() {\n    int t;\n");
    for i in 0..120 {
        match i % 4 {
            0 => src.push_str(&format!("    V{} = {};\n", i % 4, i)),
            1 => src.push_str(&format!("    t = V{};\n", i % 4)),
            2 => src.push_str("    barrier;\n"),
            _ => src.push_str(&format!("    V{} = t + {};\n", i % 4, i)),
        }
    }
    src.push_str("    if (MYPROC == 0) { post F; } else { wait F; }\n}\n");
    let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
    assert!(cfg.accesses.len() >= 120, "{}", cfg.accesses.len());
    let start = std::time::Instant::now();
    let analysis = analyze(&cfg);
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs() < 30,
        "analysis took {elapsed:?} for {} accesses",
        cfg.accesses.len()
    );
    assert!(analysis.delay_sync.is_subset_of(&analysis.delay_ss));
    assert!(analysis.delay_sync.len() < analysis.delay_ss.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn refinement_is_always_a_subset(spec in spec_strategy()) {
        let src = render(&spec);
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        prop_assert!(
            analysis.delay_sync.is_subset_of(&analysis.delay_ss),
            "refined ⊄ baseline on:\n{src}"
        );
    }

    #[test]
    fn computed_delay_sets_preserve_sc(spec in spec_strategy()) {
        let src = render(&spec);
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        let ss_ok = is_sc_preserving(&cfg, &analysis.delay_ss, 2).unwrap();
        prop_assert!(ss_ok, "D_SS violates SC on:\n{src}");
        let sync_ok = is_sc_preserving(&cfg, &analysis.delay_sync, 2).unwrap();
        prop_assert!(sync_ok, "refined D violates SC on:\n{src}");
    }

    #[test]
    fn analysis_is_deterministic(spec in spec_strategy()) {
        let src = render(&spec);
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let a = analyze(&cfg);
        let b = analyze(&cfg);
        prop_assert_eq!(a.delay_ss.pairs(), b.delay_ss.pairs());
        prop_assert_eq!(a.delay_sync.pairs(), b.delay_sync.pairs());
        prop_assert_eq!(a.sync.precedence.pairs(), b.sync.precedence.pairs());
    }

    #[test]
    fn delays_only_relate_program_ordered_accesses(spec in spec_strategy()) {
        let src = render(&spec);
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        let po = syncopt::ir::order::ProgramOrder::compute(&cfg, &mut syncopt::ir::order::GraphScratch::default());
        for (u, v) in analysis.delay_ss.pairs() {
            prop_assert!(
                po.access_precedes(u, v),
                "delay ({u}, {v}) not in program order on:\n{src}"
            );
        }
    }
}
