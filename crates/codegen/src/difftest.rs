//! Differential and linearity tests of the optimizer against
//! [`crate::reference`], the passes as they were before they shared one
//! context.
//!
//! Byte-identity is the contract: on every input the optimized CFG, the
//! [`OptStats`] and every access position (stale ones of deleted accesses
//! included) equal the reference's, at every level under both delay sets.
//! The inputs are the five kernels at four machine widths, the scaling
//! programs, 600 draws of the analysis corpus at five processor counts, and
//! a corpus of this file's own whose statements are chosen to reach what
//! the others do not: subscripts in locals, non-affine and overflowing
//! subscripts, constants next to the `i64` limits, local arrays, branches
//! that fold to jumps.

use crate::context::steps;
use crate::{optimize, reference, DelayChoice, OptLevel, Optimized};
use syncopt_core::{analyze_with, Analysis, SyncOptions};
use syncopt_frontend::prepare_program;
use syncopt_ir::cfg::Cfg;
use syncopt_ir::liveness::Liveness;
use syncopt_ir::lower::lower_main;
use syncopt_ir::print::cfg_to_string;
use syncopt_kernels::scaling::{generate, ScalingIdiom, ScalingParams};

const LEVELS: [OptLevel; 4] = [
    OptLevel::Blocking,
    OptLevel::Pipelined,
    OptLevel::OneWay,
    OptLevel::Full,
];
const CHOICES: [DelayChoice; 2] = [DelayChoice::ShashaSnir, DelayChoice::SyncRefined];

fn lowered(src: &str) -> Cfg {
    let program = prepare_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    lower_main(&program).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

fn analyzed(cfg: &Cfg, procs: Option<u32>) -> Analysis {
    analyze_with(
        cfg,
        &SyncOptions {
            procs,
            ..SyncOptions::default()
        },
    )
}

fn scaling(idiom: ScalingIdiom, unroll: u32, procs: u32) -> String {
    generate(&ScalingParams {
        idiom,
        unroll,
        procs,
    })
    .source
}

/// SplitMix64, as the analysis corpus uses.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len() as u64) as usize]
    }
}

const SUBSCRIPTS: [&str; 16] = [
    "MYPROC",
    "MYPROC + 1",
    "MYPROC + 2",
    "0",
    "1",
    "i",
    "i + 1",
    "j",
    "2 * i + MYPROC",
    "i - i + 1",
    "i * i",
    "MYPROC * 4611686018427387904 * 4",
    "4611686018427387904",
    "0 - 4611686018427387904",
    "9223372036854775807",
    "0 - 9223372036854775807 - 1",
];
const VALUES: [&str; 6] = ["1", "a", "a + b", "i", "MYPROC * 3", "buf[1]"];
const LOCALS: [&str; 4] = ["a", "b", "i", "j"];

/// One random statement of the subscript corpus.
fn stress_stmt(rng: &mut Rng, subscripts: &[&str], out: &mut String, depth: usize) {
    let array = rng.pick(&["A", "A", "B"]);
    match rng.below(if depth > 0 { 19 } else { 15 }) {
        0..=3 => {
            let (dst, sub) = (rng.pick(&LOCALS[..2]), rng.pick(subscripts));
            out.push_str(&format!("{dst} = {array}[{sub}];\n"));
        }
        4..=6 => {
            let (sub, value) = (rng.pick(subscripts), rng.pick(&VALUES));
            out.push_str(&format!("{array}[{sub}] = {value};\n"));
        }
        7 => out.push_str(&format!("{} = X;\n", rng.pick(&LOCALS[..2]))),
        8 => out.push_str(&format!("X = {};\n", rng.pick(&VALUES))),
        9 => {
            let (dst, value) = (rng.pick(&LOCALS), rng.pick(&VALUES));
            out.push_str(&format!("{dst} = {value};\n"));
        }
        10 => out.push_str(&format!("{0} = {0} + 1;\n", rng.pick(&LOCALS[2..]))),
        11 => out.push_str(&format!("work({});\n", rng.pick(&VALUES))),
        12 => out.push_str(&format!("buf[{}] = a;\n", rng.pick(&["0", "i"]))),
        13 => out.push_str(rng.pick(&["wait F;\n", "post F;\n", "barrier;\n"])),
        14 => out.push_str(&format!("{} = 2 * 3 + 0 * a;\n", rng.pick(&LOCALS))),
        n => {
            out.push_str(match n {
                15 => "if (MYPROC == 0) {\n",
                16 => rng.pick(&["if (1 < 2) {\n", "if (2 < 1) {\n", "while (2 < 1) {\n"]),
                17 => "for (i = 0; i < 3; i = i + 1) {\n",
                _ => "for (j = 4; j > 0; j = j - 2) {\n",
            });
            for _ in 0..=rng.below(4) {
                stress_stmt(rng, subscripts, out, depth - 1);
            }
            if n == 15 && rng.below(2) == 0 {
                out.push_str("} else {\n");
                for _ in 0..=rng.below(3) {
                    stress_stmt(rng, subscripts, out, depth - 1);
                }
            }
            out.push_str("}\n");
        }
    }
}

/// A random program dense in same-processor aliasing questions. Two in
/// three run their body on one processor only: nothing conflicts then, no
/// delay edge stands in the way, and the kill rules alone decide.
fn stress_program(seed: u64) -> String {
    let mut rng = Rng(seed ^ 0x5eed);
    let mut s = String::from(
        "shared int A[64]; shared int B[64]; shared int X; flag F;\n\
         fn main() {\nint a; int b; int i; int j; int buf[4];\n",
    );
    // A short palette makes the same location come up again and again.
    let mut subscripts = SUBSCRIPTS;
    subscripts.rotate_left(rng.below(16) as usize);
    let subscripts = &subscripts[..2 + rng.below(15) as usize];
    let solo = !seed.is_multiple_of(3);
    if solo {
        s.push_str("if (MYPROC == 0) {\n");
    }
    for _ in 0..4 + rng.below(14) {
        stress_stmt(&mut rng, subscripts, &mut s, 2);
    }
    if solo {
        s.push_str("}\n");
    }
    s.push_str("work(a + b);\n}\n");
    s
}

/// Asserts production and reference agree on `src`, everywhere.
fn assert_same(what: &str, src: &str, procs: Option<u32>) {
    let cfg = lowered(src);
    let analysis = analyzed(&cfg, procs);
    for level in LEVELS {
        for choice in CHOICES {
            let ours = optimize(&cfg, &analysis, level, choice);
            let theirs = reference::optimize(&cfg, &analysis, level, choice);
            let at = format!("{what} at {procs:?}, {level:?} under {choice:?}");
            assert_eq!(
                cfg_to_string(&ours.cfg),
                cfg_to_string(&theirs.cfg),
                "optimized CFG of {at}\n{src}"
            );
            assert_eq!(ours.stats, theirs.stats, "stats of {at}\n{src}");
            for ((id, a), (_, b)) in ours.cfg.accesses.iter().zip(theirs.cfg.accesses.iter()) {
                assert_eq!(a.pos, b.pos, "position of {id} in {at}\n{src}");
            }
            assert_eq!(ours.cfg, theirs.cfg, "{at}\n{src}");
            assert_same_liveness(&at, &ours.cfg);
        }
    }
    assert_same_liveness(what, &cfg);
}

/// Bitset liveness against the `HashSet` reference, block by block.
fn assert_same_liveness(at: &str, cfg: &Cfg) {
    let (ours, theirs) = (
        Liveness::compute(cfg),
        reference::liveness::Liveness::compute(cfg),
    );
    let members = |row: &[u64]| -> Vec<usize> {
        (0..cfg.vars.len())
            .filter(|v| row[v / 64] & (1 << (v % 64)) != 0)
            .collect()
    };
    for b in cfg.block_ids() {
        let sorted = |set: &std::collections::HashSet<syncopt_ir::ids::VarId>| {
            let mut v: Vec<usize> = set.iter().map(|v| v.index()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            members(ours.live_in(b)),
            sorted(theirs.live_in(b)),
            "live-in of {b} in {at}"
        );
        assert_eq!(
            members(ours.live_out(b)),
            sorted(theirs.live_out(b)),
            "live-out of {b} in {at}"
        );
    }
}

#[test]
fn kernels_match_the_reference() {
    for procs in [4, 16, 64, 256] {
        for k in syncopt_kernels::all_kernels(procs) {
            assert_same(k.name, &k.source, Some(procs));
        }
    }
}

#[test]
fn scaling_programs_match_the_reference() {
    for unroll in [16, 32, 64, 128] {
        let src = scaling(ScalingIdiom::Stencil, unroll, 16);
        assert_same(&format!("stencil u{unroll}"), &src, Some(16));
    }
    for unroll in [32, 64] {
        let src = scaling(ScalingIdiom::Flag, unroll, 4);
        assert_same(&format!("flag u{unroll}"), &src, Some(4));
    }
}

#[test]
fn analysis_corpus_matches_the_reference() {
    for seed in 0..600 {
        let src = syncopt_core::corpus::corpus_program(seed);
        for procs in [None, Some(2), Some(4), Some(5), Some(8)] {
            assert_same(&format!("corpus {seed}"), &src, procs);
        }
    }
}

#[test]
fn subscript_corpus_matches_the_reference() {
    for seed in 0..1500 {
        let src = stress_program(seed);
        assert_same(
            &format!("stress {seed}"),
            &src,
            [None, Some(4)][seed as usize % 2],
        );
    }
}

/// `i = A[i]` redefines its own subscript: in neither implementation may
/// it serve the get of `A[i]` after it, in one block or across two.
#[test]
fn gets_into_their_own_subscript_match_the_reference() {
    for src in [
        "shared int A[8]; shared int B[8];
         fn main() { int i; int j; i = A[MYPROC]; i = A[i]; j = A[i]; B[MYPROC] = j; }",
        "shared int A[8]; shared int B[8];
         fn main() { int i; int j; i = A[MYPROC]; i = A[i];
             if (MYPROC == 0) { j = A[i]; B[MYPROC] = j; } }",
    ] {
        assert_same("a get into its own subscript", src, Some(4));
        let cfg = lowered(src);
        let analysis = analyzed(&cfg, Some(4));
        let theirs = reference::optimize(&cfg, &analysis, OptLevel::Full, DelayChoice::SyncRefined);
        assert_eq!(theirs.stats.gets_eliminated, 0, "{src}");
    }
}

/// Element writes of a local array never kill it, in either liveness.
#[test]
fn local_arrays_match_the_reference() {
    let src = r#"
        shared int A[64];
        fn main() {
            int buf[4]; int i; int v;
            buf[0] = 1;
            for (i = 0; i < 3; i = i + 1) { buf[i] = A[MYPROC + i]; }
            buf[1] = 2;
            v = buf[2];
            A[MYPROC] = v;
        }
    "#;
    assert_same("local arrays", src, Some(4));
}

/// The subscript questions and the liveness visits of one `Full` compile.
fn steps_of(src: &str, run: impl Fn(&Cfg, &Analysis) -> Optimized) -> steps::Steps {
    let cfg = lowered(src);
    let analysis = analyzed(&cfg, Some(16));
    steps::take();
    run(&cfg, &analysis);
    steps::take()
}

/// Four times the text may cost five times the steps, not sixteen: every
/// pass is a sweep. The reference's subscript tests, counted the same way,
/// are quadratic — which is what this test failed on before the passes
/// shared a context.
#[test]
fn optimizer_work_is_linear_in_the_program_text() {
    let full = |cfg: &Cfg, a: &Analysis| optimize(cfg, a, OptLevel::Full, DelayChoice::SyncRefined);
    let old = |cfg: &Cfg, a: &Analysis| {
        reference::optimize(cfg, a, OptLevel::Full, DelayChoice::SyncRefined)
    };
    let (small, large) = (
        scaling(ScalingIdiom::Stencil, 32, 16),
        scaling(ScalingIdiom::Stencil, 128, 16),
    );
    let (ours_small, ours_large) = (steps_of(&small, full), steps_of(&large, full));
    assert!(ours_small.subscript_tests > 0 && ours_small.liveness_visits > 0);
    assert!(
        ours_large.subscript_tests <= 5 * ours_small.subscript_tests,
        "subscript tests: {ours_small:?} -> {ours_large:?}"
    );
    assert!(
        ours_large.liveness_visits <= 5 * ours_small.liveness_visits,
        "liveness visits: {ours_small:?} -> {ours_large:?}"
    );
    for steps in [ours_small, ours_large] {
        assert_eq!(
            steps.liveness_solves, steps.cleanup_rounds,
            "liveness is solved once per cleanup round"
        );
        assert_eq!(steps.dominator_builds, 0, "the analysis's dominators serve");
    }
    let (theirs_small, theirs_large) = (steps_of(&small, old), steps_of(&large, old));
    assert!(
        theirs_large.subscript_tests > 10 * theirs_small.subscript_tests,
        "the reference's subscript tests: {theirs_small:?} -> {theirs_large:?}"
    );
}

/// A constant branch is the one way code generation changes an edge; the
/// dominators are rebuilt then, and only then.
#[test]
fn a_folded_branch_rebuilds_the_dominators() {
    let src = r#"
        shared int A[64];
        fn main() {
            int i; int v;
            v = A[MYPROC + 1];
            while (2 < 1) { A[MYPROC] = v; }
            work(v);
        }
    "#;
    let full = |cfg: &Cfg, a: &Analysis| optimize(cfg, a, OptLevel::Full, DelayChoice::SyncRefined);
    assert_eq!(steps_of(src, full).dominator_builds, 1);
    assert_same("dead loop", src, Some(4));
}
