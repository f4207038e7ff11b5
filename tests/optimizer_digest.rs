//! What the optimizer computes, pinned by digest.
//!
//! Every input is optimized at every level under both delay sets. Its
//! line of the table holds digests of five things over those eight
//! results: the optimized CFG text; what that text does not show, namely
//! every declaration and every float constant (a float prints as the
//! integer of the same value); the `OptStats`, in declaration order;
//! every access position (stale ones of deleted accesses included); and
//! the live-in and live-out rows of every block of the input and each
//! output CFG.
//! The inputs are the five kernels at four machine widths, the scaling
//! programs, 600 draws of the analysis corpus at five processor counts, a
//! corpus of this file's own whose statements are chosen to reach what
//! the others do not (subscripts in locals, non-affine and overflowing
//! subscripts, constants next to the `i64` limits, local arrays, branches
//! that fold to jumps), and a few hand-written programs.
//!
//! The tables were written by the passes as they were before they shared
//! one context, and matched by the rewrite, so they hold the rewrite to
//! those passes' bytes. See `tests/common/digest.rs` for regenerating.

#[path = "common/digest.rs"]
mod digest;

use digest::{check_table, Digest};
use syncopt::codegen::{optimize, DelayChoice, OptLevel};
use syncopt::core::corpus::{corpus_program, SplitMix64};
use syncopt::core::{analyze_with, SyncOptions};
use syncopt::frontend::prepare_program;
use syncopt::ir::cfg::{Cfg, Terminator};
use syncopt::ir::expr::Expr;
use syncopt::ir::liveness::Liveness;
use syncopt::ir::lower::lower_main;
use syncopt::ir::print::cfg_to_string;
use syncopt::ir::vars::VarKind;
use syncopt::kernels::scaling::{generate, ScalingIdiom, ScalingParams};

const LEVELS: [OptLevel; 4] = [
    OptLevel::Blocking,
    OptLevel::Pipelined,
    OptLevel::OneWay,
    OptLevel::Full,
];
const CHOICES: [DelayChoice; 2] = [DelayChoice::ShashaSnir, DelayChoice::SyncRefined];

/// The table line of one input: `id`, then the five digests.
fn line(id: &str, src: &str, procs: Option<u32>) -> String {
    let program = prepare_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let cfg = lower_main(&program).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let analysis = analyze_with(
        &cfg,
        &SyncOptions {
            procs,
            ..SyncOptions::default()
        },
    );
    let (mut text, mut unprinted, mut stats, mut positions, mut live) = (
        Digest::default(),
        Digest::default(),
        Digest::default(),
        Digest::default(),
        Digest::default(),
    );
    liveness(&mut live, &cfg);
    for level in LEVELS {
        for choice in CHOICES {
            let out = optimize(&cfg, &analysis, level, choice);
            text.text(&cfg_to_string(&out.cfg));
            declarations_and_floats(&mut unprinted, &out.cfg);
            for n in out.stats.values() {
                stats.word(n);
            }
            positions.word(out.cfg.accesses.len() as u64);
            for (_, access) in out.cfg.accesses.iter() {
                positions.word(access.pos.block.index() as u64);
                positions.word(access.pos.instr as u64);
            }
            liveness(&mut live, &out.cfg);
        }
    }
    format!(
        "{id} cfg={:016x} decls={:016x} stats={:016x} pos={:016x} live={:016x}\n",
        text.0, unprinted.0, stats.0, positions.0, live.0
    )
}

/// Every declaration of `cfg`, then every float constant with its place
/// among all expression nodes (block, instruction and operand order), then
/// the node count. A NaN is one value, whatever its bits.
fn declarations_and_floats(digest: &mut Digest, cfg: &Cfg) {
    digest.word(cfg.vars.len() as u64);
    for (_, var) in cfg.vars.iter() {
        let (kind, len) = match var.kind {
            VarKind::SharedScalar => ("shared", 0),
            VarKind::SharedArray { len } => ("shared[]", len),
            VarKind::Flag => ("flag", 0),
            VarKind::FlagArray { len } => ("flag[]", len),
            VarKind::Lock => ("lock", 0),
            VarKind::Local => ("local", 0),
            VarKind::LocalArray { len } => ("local[]", len),
        };
        digest.text(&var.name);
        digest.text(kind);
        digest.word(len);
        digest.text(var.ty.name());
    }
    let mut nodes = 0u64;
    let mut visit = |expr: &Expr| {
        expr.walk(&mut |node| {
            if let Expr::Float(v) = node {
                digest.word(nodes);
                digest.word(if v.is_nan() { u64::MAX } else { v.to_bits() });
            }
            nodes += 1;
        });
    };
    for block in &cfg.blocks {
        for instr in &block.instrs {
            instr.for_each_expr(&mut visit);
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            visit(cond);
        }
    }
    digest.word(nodes);
}

/// The live variables of every block of `cfg`: in, then out.
fn liveness(digest: &mut Digest, cfg: &Cfg) {
    let live = Liveness::compute(cfg);
    for b in cfg.block_ids() {
        for row in [live.live_in(b), live.live_out(b)] {
            let members: Vec<usize> = (0..cfg.vars.len())
                .filter(|v| row[v / 64] & (1 << (v % 64)) != 0)
                .collect();
            digest.word(members.len() as u64);
            for v in members {
                digest.word(v as u64);
            }
        }
    }
}

fn scaling(idiom: ScalingIdiom, unroll: u32, procs: u32) -> String {
    generate(&ScalingParams {
        idiom,
        unroll,
        procs,
    })
    .source
}

#[test]
fn kernels_optimize_as_pinned() {
    let mut table = String::new();
    for procs in [4, 16, 64, 256] {
        for k in syncopt::kernels::all_kernels(procs) {
            let id = format!("{} p{procs}", k.name);
            table.push_str(&line(&id, &k.source, Some(procs)));
        }
    }
    check_table("tests/golden/digest/optimizer_kernels.txt", &table);
}

#[test]
fn scaling_programs_optimize_as_pinned() {
    let mut table = String::new();
    for unroll in [16, 32, 64, 128] {
        let src = scaling(ScalingIdiom::Stencil, unroll, 16);
        table.push_str(&line(&format!("stencil u{unroll}"), &src, Some(16)));
    }
    for unroll in [32, 64] {
        let src = scaling(ScalingIdiom::Flag, unroll, 4);
        table.push_str(&line(&format!("flag u{unroll}"), &src, Some(4)));
    }
    check_table("tests/golden/digest/optimizer_scaling.txt", &table);
}

#[test]
fn analysis_corpus_optimizes_as_pinned() {
    let mut table = String::new();
    for seed in 0..600 {
        let src = corpus_program(seed);
        for procs in [None, Some(2), Some(4), Some(5), Some(8)] {
            let id = format!("corpus {seed} {}", procs_label(procs));
            table.push_str(&line(&id, &src, procs));
        }
    }
    check_table("tests/golden/digest/optimizer_corpus.txt", &table);
}

#[test]
fn subscript_corpus_optimizes_as_pinned() {
    let mut table = String::new();
    for seed in 0..1500 {
        let procs = [None, Some(4)][seed as usize % 2];
        let id = format!("stress {seed} {}", procs_label(procs));
        table.push_str(&line(&id, &stress_program(seed), procs));
    }
    check_table("tests/golden/digest/optimizer_subscripts.txt", &table);
}

/// `i = A[i]` redefines its own subscript, so it may not serve the get of
/// `A[i]` after it, in one block or across two.
#[test]
fn gets_into_their_own_subscript_optimize_as_pinned() {
    let programs = [
        "shared int A[8]; shared int B[8];
         fn main() { int i; int j; i = A[MYPROC]; i = A[i]; j = A[i]; B[MYPROC] = j; }",
        "shared int A[8]; shared int B[8];
         fn main() { int i; int j; i = A[MYPROC]; i = A[i];
             if (MYPROC == 0) { j = A[i]; B[MYPROC] = j; } }",
    ];
    let mut table = String::new();
    for (n, src) in programs.iter().enumerate() {
        table.push_str(&line(&format!("own subscript {n}"), src, Some(4)));
        let cfg = lower_main(&prepare_program(src).unwrap()).unwrap();
        let analysis = analyze_with(
            &cfg,
            &SyncOptions {
                procs: Some(4),
                ..SyncOptions::default()
            },
        );
        let full = optimize(&cfg, &analysis, OptLevel::Full, DelayChoice::SyncRefined);
        assert_eq!(full.stats.gets_eliminated, 0, "{src}");
    }
    check_table("tests/golden/digest/optimizer_own_subscript.txt", &table);
}

/// Element writes of a local array never kill the array.
#[test]
fn local_arrays_optimize_as_pinned() {
    let src = "
        shared int A[64];
        fn main() {
            int buf[4]; int i; int v;
            buf[0] = 1;
            for (i = 0; i < 3; i = i + 1) { buf[i] = A[MYPROC + i]; }
            buf[1] = 2;
            v = buf[2];
            A[MYPROC] = v;
        }";
    let table = line("local arrays", src, Some(4));
    check_table("tests/golden/digest/optimizer_local_arrays.txt", &table);
}

/// A loop that never runs folds to a jump.
#[test]
fn a_dead_loop_optimizes_as_pinned() {
    let src = "
        shared int A[64];
        fn main() {
            int i; int v;
            v = A[MYPROC + 1];
            while (2 < 1) { A[MYPROC] = v; }
            work(v);
        }";
    let table = line("dead loop", src, Some(4));
    check_table("tests/golden/digest/optimizer_dead_loop.txt", &table);
}

fn procs_label(procs: Option<u32>) -> String {
    procs.map_or("any".to_string(), |p| format!("p{p}"))
}

fn pick<'a>(rng: &mut SplitMix64, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
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
fn stress_stmt(rng: &mut SplitMix64, subscripts: &[&str], out: &mut String, depth: usize) {
    let array = pick(rng, &["A", "A", "B"]);
    match rng.below(if depth > 0 { 19 } else { 15 }) {
        0..=3 => {
            let (dst, sub) = (pick(rng, &LOCALS[..2]), pick(rng, subscripts));
            out.push_str(&format!("{dst} = {array}[{sub}];\n"));
        }
        4..=6 => {
            let (sub, value) = (pick(rng, subscripts), pick(rng, &VALUES));
            out.push_str(&format!("{array}[{sub}] = {value};\n"));
        }
        7 => out.push_str(&format!("{} = X;\n", pick(rng, &LOCALS[..2]))),
        8 => out.push_str(&format!("X = {};\n", pick(rng, &VALUES))),
        9 => {
            let (dst, value) = (pick(rng, &LOCALS), pick(rng, &VALUES));
            out.push_str(&format!("{dst} = {value};\n"));
        }
        10 => out.push_str(&format!("{0} = {0} + 1;\n", pick(rng, &LOCALS[2..]))),
        11 => out.push_str(&format!("work({});\n", pick(rng, &VALUES))),
        12 => out.push_str(&format!("buf[{}] = a;\n", pick(rng, &["0", "i"]))),
        13 => out.push_str(pick(rng, &["wait F;\n", "post F;\n", "barrier;\n"])),
        14 => out.push_str(&format!("{} = 2 * 3 + 0 * a;\n", pick(rng, &LOCALS))),
        n => {
            out.push_str(match n {
                15 => "if (MYPROC == 0) {\n",
                16 => pick(
                    rng,
                    &["if (1 < 2) {\n", "if (2 < 1) {\n", "while (2 < 1) {\n"],
                ),
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
    let mut rng = SplitMix64::new(seed ^ 0x5eed);
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
