//! Property tests over 256 seeded random producer/consumer litmus
//! programs:
//!
//! * the refined delay set is always a subset of the Shasha–Snir set;
//! * both computed delay sets are SC-preserving (checked operationally by
//!   the litmus explorer);
//! * the analysis is deterministic.

use syncopt::core::analyze;
use syncopt::core::corpus::SplitMix64;
use syncopt::frontend::prepare_program;
use syncopt::ir::lower::lower_main;
use syncopt::machine::litmus::is_sc_preserving;

/// One abstract statement of a generated litmus side.
enum Stmt {
    Write { var: usize, val: i64 },
    Read { var: usize },
}

fn random_side(rng: &mut SplitMix64) -> Vec<Stmt> {
    let nvars = 3;
    (0..1 + rng.below(3))
        .map(|_| {
            let var = rng.below(nvars) as usize;
            match rng.below(2) {
                0 => Stmt::Write {
                    var,
                    val: 1 + rng.below(4) as i64,
                },
                _ => Stmt::Read { var },
            }
        })
        .collect()
}

struct LitmusSpec {
    producer: Vec<Stmt>,
    consumer: Vec<Stmt>,
    use_postwait: bool,
    use_barrier: bool,
}

/// The 256 programs every property is checked on.
fn programs() -> impl Iterator<Item = String> {
    let mut rng = SplitMix64::new(0x5eed_de1a);
    (0..256).map(move |_| {
        let spec = LitmusSpec {
            producer: random_side(&mut rng),
            consumer: random_side(&mut rng),
            use_postwait: rng.below(2) == 0,
            use_barrier: rng.below(2) == 0,
        };
        render(&spec)
    })
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

#[test]
fn refinement_is_always_a_subset() {
    for src in programs() {
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        assert!(
            analysis.delay_sync.is_subset_of(&analysis.delay_ss),
            "refined ⊄ baseline on:\n{src}"
        );
    }
}

#[test]
fn computed_delay_sets_preserve_sc() {
    for src in programs() {
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        let ss_ok = is_sc_preserving(&cfg, &analysis.delay_ss, 2).unwrap();
        assert!(ss_ok, "D_SS violates SC on:\n{src}");
        let sync_ok = is_sc_preserving(&cfg, &analysis.delay_sync, 2).unwrap();
        assert!(sync_ok, "refined D violates SC on:\n{src}");
    }
}

#[test]
fn analysis_is_deterministic() {
    for src in programs() {
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let a = analyze(&cfg);
        let b = analyze(&cfg);
        assert_eq!(a.delay_ss.pairs(), b.delay_ss.pairs());
        assert_eq!(a.delay_sync.pairs(), b.delay_sync.pairs());
        assert_eq!(a.sync.precedence.pairs(), b.sync.precedence.pairs());
    }
}

#[test]
fn delays_only_relate_program_ordered_accesses() {
    for src in programs() {
        let cfg = lower_main(&prepare_program(&src).unwrap()).unwrap();
        let analysis = analyze(&cfg);
        let po = syncopt::ir::order::ProgramOrder::compute(
            &cfg,
            &mut syncopt::ir::order::GraphScratch::default(),
        );
        for (u, v) in analysis.delay_ss.pairs() {
            assert!(
                po.access_precedes(u, v),
                "delay ({u}, {v}) not in program order on:\n{src}"
            );
        }
    }
}
