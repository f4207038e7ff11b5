//! The CFG printer and the call inliner as they were before the printer
//! wrote into one buffer and the inliner moved the program through, and
//! the tests that hold the new ones to them. They live here, not beside
//! the code they check, because this is the crate that reaches every
//! input: the analysis corpus (`syncopt-core`), the kernels and scaling
//! programs (`syncopt-kernels`) and the optimizer's output at every level
//! (`syncopt-codegen`).
//!
//! Printer: [`cfg_to_string`], [`cfg_to_dot`], [`instr_to_string`] and
//! [`expr_names`] write the reference's bytes for every CFG, every
//! instruction and every expression of the corpus, the kernels at 4, 16,
//! 64 and 256 processors, the scaling trajectory and `programs/*.ms`,
//! each as lowered and as optimized at every level. Inliner: on those
//! programs, on the programs of `syncopt_frontend::inline`'s own tests and
//! on a seeded generator of call-bearing programs, [`inline_program`]
//! returns the reference's `Program` or its error — owned or borrowed.

mod inline;
mod print;

use std::fmt::Write;
use syncopt_codegen::{optimize, DelayChoice, OptLevel};
use syncopt_core::corpus::{corpus_program, CORPUS_SEEDS};
use syncopt_core::{analyze_with, SyncOptions};
use syncopt_frontend::inline::inline_program;
use syncopt_frontend::{parse_program, prepare_program};
use syncopt_ir::cfg::{Cfg, Terminator};
use syncopt_ir::lower::lower_main;
use syncopt_ir::print::{cfg_to_dot, cfg_to_string, expr_names, instr_to_string};
use syncopt_kernels::all_kernels;
use syncopt_kernels::scaling::{generate, trajectory};

const LEVELS: [OptLevel; 4] = [
    OptLevel::Blocking,
    OptLevel::Pipelined,
    OptLevel::OneWay,
    OptLevel::Full,
];

/// Every source the printer and inliner are compared on, with the
/// processor count it is analyzed for.
fn sources() -> Vec<(String, String, u32)> {
    let mut out: Vec<(String, String, u32)> = (0..CORPUS_SEEDS)
        .map(|seed| (format!("corpus {seed}"), corpus_program(seed), 4))
        .collect();
    for procs in [4, 16, 64, 256] {
        for k in all_kernels(procs) {
            out.push((format!("{} at {procs}", k.name), k.source, procs));
        }
    }
    for params in trajectory() {
        out.push((params.id(), generate(&params).source, params.procs));
    }
    out.extend(
        repo_programs()
            .into_iter()
            .map(|(name, src)| (name, src, 4)),
    );
    out
}

/// `programs/*.ms`, by file name.
fn repo_programs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut out: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("programs directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "ms"))
        .map(|path| {
            let name = path.display().to_string();
            let src = std::fs::read_to_string(&path).expect("readable program");
            (name, src)
        })
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no programs under {dir}");
    out
}

/// All four printers against the reference on one CFG.
fn assert_prints_as_the_reference(what: &str, cfg: &Cfg) {
    assert_eq!(
        cfg_to_string(cfg),
        print::cfg_to_string(cfg),
        "cfg_to_string of {what}"
    );
    assert_eq!(
        cfg_to_dot(cfg, what),
        print::cfg_to_dot(cfg, what),
        "cfg_to_dot of {what}"
    );
    for block in &cfg.blocks {
        for instr in &block.instrs {
            assert_eq!(
                instr_to_string(cfg, instr),
                print::instr_to_string(cfg, instr),
                "instr_to_string in {what}"
            );
            instr.for_each_expr(&mut |expr| {
                expr.walk(&mut |node| {
                    assert_eq!(
                        expr_names(cfg, node),
                        print::expr_names(cfg, node),
                        "expr_names in {what}"
                    );
                });
            });
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            assert_eq!(
                expr_names(cfg, cond),
                print::expr_names(cfg, cond),
                "expr_names of a branch in {what}"
            );
        }
    }
}

/// The inliner against the reference on the parse of `src`: owned and
/// borrowed, on success and on error alike.
fn assert_inlines_as_the_reference(what: &str, src: &str) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{what}: {e}\n{src}"));
    let theirs = inline::inline_program(&program);
    assert_eq!(inline_program(&program), theirs, "{what} (borrowed)\n{src}");
    assert_eq!(inline_program(program), theirs, "{what} (owned)\n{src}");
}

#[test]
fn oracle_printer_writes_the_references_bytes() {
    for (what, src, procs) in sources() {
        let program = prepare_program(&src).unwrap_or_else(|e| panic!("{what}: {e}"));
        let cfg = lower_main(&program).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_prints_as_the_reference(&what, &cfg);
        let analysis = analyze_with(
            &cfg,
            &SyncOptions {
                procs: Some(procs),
                ..SyncOptions::default()
            },
        );
        for level in LEVELS {
            let optimized = optimize(&cfg, &analysis, level, DelayChoice::SyncRefined);
            assert_prints_as_the_reference(&format!("{what} at {level:?}"), &optimized.cfg);
        }
    }
}

/// Literals the sources above do not reach: the `i64` limits, negative
/// and fractional floats, booleans and every operator.
#[test]
fn oracle_printer_writes_the_references_literals() {
    let src = "shared double X; shared int Y; flag G[2]; lock L;
        fn main() {
            int i; double d; int a[3];
            i = 9223372036854775807; i = 0 - 9223372036854775807 - 1; i = -7;
            d = 0.1; d = -2.5; d = 1e300; d = 1.0 / 3.0; X = d * -0.0;
            a[i % 3] = i / 2;
            while (!(i <= 1) || false && i != 3 || true && (i >= 0)) { i = i - 1; }
            if (i < 2 || i > 5) { Y = a[1] - i; }
            lock L; post G[1]; wait G[0]; unlock L; barrier; work(i + 1);
        }";
    let program = prepare_program(src).unwrap_or_else(|e| panic!("{e}"));
    let cfg = lower_main(&program).unwrap_or_else(|e| panic!("{e}"));
    assert_prints_as_the_reference("literals", &cfg);
    let analysis = analyze_with(&cfg, &SyncOptions::default());
    for level in LEVELS {
        let optimized = optimize(&cfg, &analysis, level, DelayChoice::SyncRefined);
        assert_prints_as_the_reference(&format!("literals at {level:?}"), &optimized.cfg);
    }
}

#[test]
fn oracle_inliner_returns_the_references_program() {
    for (what, src, _) in sources() {
        assert_inlines_as_the_reference(&what, &src);
    }
}

/// The programs of `syncopt_frontend::inline`'s own tests, and the errors
/// of a program without `main` and of a `main` with parameters.
#[test]
fn oracle_inliner_matches_the_reference_on_its_own_tests() {
    let programs = [
        "shared int X; fn bump(int amount) { X = X + amount; } fn main() { bump(2); bump(3); }",
        "shared int X; fn inner(int v) { X = v; } fn outer(int v) { inner(v + 1); }
         fn main() { outer(5); }",
        "shared int X; fn f() { int t; t = 1; X = t; } fn main() { int t; t = 9; f(); X = t; }",
        "shared int Y[8]; fn helper(int x) { Y[MYPROC] = x; }
         fn main() { int x__helper_1; x__helper_1 = 7; helper(1); Y[MYPROC] = x__helper_1; }",
        "fn f() { f(); } fn main() { f(); }",
        "fn a() { b(); } fn b() { a(); } fn main() { a(); }",
        "fn f() { return; } fn main() { f(); }",
        "fn main() { return; }",
        "fn f() { }",
        "fn main(int x) { }",
        "fn f() { main(); } fn main() { f(); }",
        "fn main() { g(1); }",
        "shared double A[16]; flag f;
         fn phase(int base) { int i; for (i = 0; i < 4; i = i + 1) { A[base + i] = 1.0; } barrier; }
         fn main() { phase(0); if (MYPROC == 0) { post f; } else { wait f; } phase(4); }",
    ];
    for (n, src) in programs.iter().enumerate() {
        assert_inlines_as_the_reference(&format!("inline test {n}"), src);
    }
}

#[test]
fn oracle_inliner_matches_the_reference_on_generated_calls() {
    let (mut inlined, mut failed) = (0, 0);
    for seed in 0..400 {
        let src = call_program(seed);
        assert_inlines_as_the_reference(&format!("call program {seed}"), &src);
        match inline_program(parse_program(&src).expect("generated programs parse")) {
            Ok(_) => inlined += 1,
            Err(_) => failed += 1,
        }
    }
    // Both paths are taken often enough to mean something.
    assert!(
        inlined >= 100 && failed >= 40,
        "{inlined} inlined, {failed} failed"
    );
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

/// Names a generated function may use: ones `main` and the other
/// functions use too (so callee locals shadow them), the parameters, and
/// spellings of fresh names (so the inliner must skip past them).
const NAMES: [&str; 7] = ["t", "u", "i", "p0", "p1", "t__f0_1", "u__f1_2"];

/// A parseable program whose functions call each other: nested calls with
/// arguments, shadowing locals, calls under `if`, `while` and `for`, and,
/// now and then, recursion, a call to an unknown function or a `return`
/// inside a callee. Function `k` mostly calls those before it; the rare
/// call to `k` or a later one may close a cycle.
fn call_program(seed: u64) -> String {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
    let functions = 1 + rng.below(4) as usize;
    let params: Vec<usize> = (0..functions).map(|_| rng.below(3) as usize).collect();
    let mut s = String::from("shared int X; shared int A[16]; flag F; lock L;\n");
    for k in 0..=functions {
        let main = k == functions;
        if main {
            s.push_str("fn main() {\n");
        } else {
            let list: Vec<String> = (0..params[k]).map(|p| format!("int p{p}")).collect();
            writeln!(s, "fn f{k}({}) {{", list.join(", ")).unwrap();
        }
        for name in ["t", "u", "i", "t__f0_1"] {
            if rng.below(2) == 0 {
                writeln!(s, "int {name};").unwrap();
            }
        }
        for _ in 0..1 + rng.below(5) {
            call_stmt(&mut rng, &mut s, k, &params, 2);
        }
        s.push_str("}\n");
    }
    s
}

fn call_expr(rng: &mut Rng) -> String {
    match rng.below(5) {
        0 => rng.below(9).to_string(),
        1 => "MYPROC".to_string(),
        2 => format!("A[{} % 16]", rng.pick(&NAMES)),
        _ => format!("{} + {}", rng.pick(&NAMES), rng.below(4)),
    }
}

/// One statement of function `k` (`k == params.len()` is `main`).
fn call_stmt(rng: &mut Rng, s: &mut String, k: usize, params: &[usize], depth: u32) {
    let call = |rng: &mut Rng, s: &mut String| {
        let (functions, earlier) = (params.len(), k.min(params.len()));
        let callee = match rng.below(40) {
            0 => return s.push_str("g(1);\n"),
            1 => rng.below(functions as u64) as usize,
            _ if earlier == 0 => return s.push_str("barrier;\n"),
            _ => rng.below(earlier as u64) as usize,
        };
        let args: Vec<String> = (0..params[callee]).map(|_| call_expr(rng)).collect();
        writeln!(s, "f{callee}({});", args.join(", ")).unwrap();
    };
    let choice = rng.below(if depth > 0 { 14 } else { 10 });
    match choice {
        0..=2 => call(rng, s),
        3 => writeln!(s, "{} = {};", rng.pick(&NAMES), call_expr(rng)).unwrap(),
        4 => writeln!(s, "A[{} % 16] = {};", rng.pick(&NAMES), call_expr(rng)).unwrap(),
        5 => writeln!(s, "X = {};", call_expr(rng)).unwrap(),
        6 => writeln!(s, "int {} = {};", rng.pick(&NAMES), call_expr(rng)).unwrap(),
        7 => s.push_str(rng.pick(&["post F;\n", "wait F;\n", "lock L;\n", "unlock L;\n"])),
        8 => writeln!(s, "work({});", call_expr(rng)).unwrap(),
        9 => s.push_str(if rng.below(8) == 0 {
            "return;\n"
        } else {
            "barrier;\n"
        }),
        10 | 11 => {
            writeln!(s, "if ({} < 3) {{", call_expr(rng)).unwrap();
            for _ in 0..=rng.below(2) {
                call_stmt(rng, s, k, params, depth - 1);
            }
            s.push_str("} else {\n");
            call_stmt(rng, s, k, params, depth - 1);
            s.push_str("}\n");
        }
        12 => {
            writeln!(s, "while ({} < 2) {{", rng.pick(&NAMES)).unwrap();
            call_stmt(rng, s, k, params, depth - 1);
            s.push_str("}\n");
        }
        _ => {
            let v = rng.pick(&NAMES);
            writeln!(s, "for ({v} = 0; {v} < 2; {v} = {v} + 1) {{").unwrap();
            for _ in 0..=rng.below(2) {
                call_stmt(rng, s, k, params, depth - 1);
            }
            s.push_str("}\n");
        }
    }
}
