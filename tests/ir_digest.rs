//! What the CFG printers, the call inliner and the expression folder
//! compute, pinned by digest.
//!
//! Printers: `cfg_to_string`, `cfg_to_dot`, `instr_to_string` and
//! `expr_names` on every CFG, every instruction and every expression of
//! the corpus, the kernels at 4, 16, 64 and 256 processors, the scaling
//! trajectory and `programs/*.ms`, each as lowered and as optimized at
//! every level. Inliner: the inlined program, pretty-printed, or the
//! error, on those programs, on the programs of the inliner's own tests
//! and on a seeded generator of call-bearing programs. Folder: 20 000
//! seeded expressions, folded.
//!
//! The printer and inliner tables were written by the `format!`-based
//! printer and the copying inliner, and the folder's by the folder that
//! rebuilt every node; the rewrites matched them byte for byte. See
//! `tests/common/digest.rs` for regenerating.

#[path = "common/digest.rs"]
mod digest;

use digest::{check_table, Digest};
use std::fmt::Write;
use syncopt::codegen::{optimize, DelayChoice, OptLevel};
use syncopt::core::corpus::{corpus_program, SplitMix64, CORPUS_SEEDS};
use syncopt::core::{analyze_with, SyncOptions};
use syncopt::frontend::ast::{BinOp, UnOp};
use syncopt::frontend::inline::inline_program;
use syncopt::frontend::pretty::program_to_string;
use syncopt::frontend::{parse_program, prepare_program};
use syncopt::ir::cfg::{Cfg, Terminator};
use syncopt::ir::expr::Expr;
use syncopt::ir::fold::{fold_expr, fold_in_place};
use syncopt::ir::ids::VarId;
use syncopt::ir::lower::lower_main;
use syncopt::ir::print::{cfg_to_dot, cfg_to_string, expr_names, instr_to_string};
use syncopt::kernels::all_kernels;
use syncopt::kernels::scaling::{generate, trajectory};

const LEVELS: [OptLevel; 4] = [
    OptLevel::Blocking,
    OptLevel::Pipelined,
    OptLevel::OneWay,
    OptLevel::Full,
];

/// Every source the printers and the inliner are pinned on, with the
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
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut programs: Vec<(String, String, u32)> = std::fs::read_dir(dir)
        .expect("programs directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "ms"))
        .map(|path| {
            let name = format!("programs/{}", path.file_name().unwrap().to_string_lossy());
            let src = std::fs::read_to_string(&path).expect("readable program");
            (name, src, 4)
        })
        .collect();
    programs.sort();
    assert!(!programs.is_empty(), "no programs under {dir}");
    out.extend(programs);
    out
}

/// The table line of the four printers on the lowered CFG of `src` and
/// on its optimization at every level.
fn printer_line(id: &str, src: &str, procs: Option<u32>) -> String {
    let program = prepare_program(src).unwrap_or_else(|e| panic!("{id}: {e}"));
    let cfg = lower_main(&program).unwrap_or_else(|e| panic!("{id}: {e}"));
    let analysis = analyze_with(
        &cfg,
        &SyncOptions {
            procs,
            ..SyncOptions::default()
        },
    );
    let mut digests = [(); 4].map(|()| Digest::default());
    print_into(&mut digests, id, &cfg);
    for level in LEVELS {
        let optimized = optimize(&cfg, &analysis, level, DelayChoice::SyncRefined);
        print_into(&mut digests, id, &optimized.cfg);
    }
    let [text, dot, instrs, exprs] = digests.map(|d| d.0);
    format!("{id} cfg={text:016x} dot={dot:016x} instr={instrs:016x} expr={exprs:016x}\n")
}

/// All four printers on one CFG: the whole text, the `dot` graph, every
/// instruction, and every expression node and branch condition.
fn print_into([text, dot, instrs, exprs]: &mut [Digest; 4], title: &str, cfg: &Cfg) {
    text.text(&cfg_to_string(cfg));
    dot.text(&cfg_to_dot(cfg, title));
    for block in &cfg.blocks {
        for instr in &block.instrs {
            instrs.text(&instr_to_string(cfg, instr));
            instr.for_each_expr(&mut |expr| {
                expr.walk(&mut |node| exprs.text(&expr_names(cfg, node)))
            });
        }
        if let Terminator::Branch { cond, .. } = &block.term {
            exprs.text(&expr_names(cfg, cond));
        }
    }
}

#[test]
fn printers_write_the_pinned_bytes() {
    let mut table = String::new();
    for (id, src, procs) in sources() {
        table.push_str(&printer_line(&id, &src, Some(procs)));
    }
    check_table("tests/golden/digest/printer_sources.txt", &table);
}

/// Literals the sources above do not reach: the `i64` limits, negative
/// and fractional floats, booleans and every operator.
#[test]
fn printers_write_the_pinned_literals() {
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
    check_table(
        "tests/golden/digest/printer_literals.txt",
        &printer_line("literals", src, None),
    );
}

/// The table line of the inliner on the parse of `src`: the program it
/// returns, pretty-printed, or its error. Owned and borrowed agree.
fn inliner_line(id: &str, src: &str) -> String {
    let program = parse_program(src).unwrap_or_else(|e| panic!("{id}: {e}\n{src}"));
    let borrowed = inline_program(&program);
    assert_eq!(inline_program(program), borrowed, "{id}\n{src}");
    let mut digest = Digest::default();
    match &borrowed {
        Ok(inlined) => digest.text(&program_to_string(inlined)),
        Err(e) => digest.text(&format!("error: {e}")),
    }
    format!("{id} {:016x}\n", digest.0)
}

#[test]
fn inliner_returns_the_pinned_programs() {
    let mut table = String::new();
    for (id, src, _) in sources() {
        table.push_str(&inliner_line(&id, &src));
    }
    check_table("tests/golden/digest/inliner_sources.txt", &table);
}

/// The programs of the inliner's own unit tests, and the errors of a
/// program without `main` and of a `main` with parameters.
#[test]
fn inliner_returns_the_pinned_programs_of_its_own_tests() {
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
    let mut table = String::new();
    for (n, src) in programs.iter().enumerate() {
        table.push_str(&inliner_line(&format!("inline test {n}"), src));
    }
    check_table("tests/golden/digest/inliner_own_tests.txt", &table);
}

#[test]
fn inliner_returns_the_pinned_programs_of_generated_calls() {
    let (mut inlined, mut failed) = (0, 0);
    let mut table = String::new();
    for seed in 0..400 {
        let src = call_program(seed);
        table.push_str(&inliner_line(&format!("call program {seed}"), &src));
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
    check_table("tests/golden/digest/inliner_generated.txt", &table);
}

fn pick<'a>(rng: &mut SplitMix64, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
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
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x5eed);
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

fn call_expr(rng: &mut SplitMix64) -> String {
    match rng.below(5) {
        0 => rng.below(9).to_string(),
        1 => "MYPROC".to_string(),
        2 => format!("A[{} % 16]", pick(rng, &NAMES)),
        _ => format!("{} + {}", pick(rng, &NAMES), rng.below(4)),
    }
}

/// One statement of function `k` (`k == params.len()` is `main`).
fn call_stmt(rng: &mut SplitMix64, s: &mut String, k: usize, params: &[usize], depth: u32) {
    let call = |rng: &mut SplitMix64, s: &mut String| {
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
        3 => writeln!(s, "{} = {};", pick(rng, &NAMES), call_expr(rng)).unwrap(),
        4 => writeln!(s, "A[{} % 16] = {};", pick(rng, &NAMES), call_expr(rng)).unwrap(),
        5 => writeln!(s, "X = {};", call_expr(rng)).unwrap(),
        6 => writeln!(s, "int {} = {};", pick(rng, &NAMES), call_expr(rng)).unwrap(),
        7 => s.push_str(pick(
            rng,
            &["post F;\n", "wait F;\n", "lock L;\n", "unlock L;\n"],
        )),
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
            writeln!(s, "while ({} < 2) {{", pick(rng, &NAMES)).unwrap();
            call_stmt(rng, s, k, params, depth - 1);
            s.push_str("}\n");
        }
        _ => {
            let v = pick(rng, &NAMES);
            writeln!(s, "for ({v} = 0; {v} < 2; {v} = {v} + 1) {{").unwrap();
            for _ in 0..=rng.below(2) {
                call_stmt(rng, s, k, params, depth - 1);
            }
            s.push_str("}\n");
        }
    }
}

/// An expression node by node, operands left to right: its kind and
/// payload. A NaN is one value, whatever its bits.
fn expr_digest(digest: &mut Digest, e: &Expr) {
    e.walk(&mut |node| match node {
        Expr::Int(v) => {
            digest.text("int");
            digest.word(*v as u64);
        }
        Expr::Float(v) => {
            digest.text("float");
            digest.word(if v.is_nan() { u64::MAX } else { v.to_bits() });
        }
        Expr::Bool(b) => {
            digest.text("bool");
            digest.word(u64::from(*b));
        }
        Expr::Local(v) => {
            digest.text("local");
            digest.word(v.index() as u64);
        }
        Expr::LocalElem { array, .. } => {
            digest.text("elem");
            digest.word(array.index() as u64);
        }
        Expr::MyProc => digest.text("MYPROC"),
        Expr::Procs => digest.text("PROCS"),
        Expr::Unary { op, .. } => {
            digest.text("unary");
            digest.text(op.symbol());
        }
        Expr::Binary { op, .. } => {
            digest.text("binary");
            digest.text(op.symbol());
        }
    });
}

fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
    Expr::Binary {
        op,
        lhs: Box::new(l),
        rhs: Box::new(r),
    }
}

/// A random expression over every node kind, constants weighted so that
/// each folding rule fires often, division by zero included.
fn random_expr(rng: &mut SplitMix64, depth: u32) -> Expr {
    let leaf = |rng: &mut SplitMix64| match rng.next() % 9 {
        0 => Expr::Int(0),
        1 => Expr::Int(1),
        2 => Expr::Int((rng.next() % 7) as i64 - 3),
        3 => Expr::Bool(rng.next().is_multiple_of(2)),
        4 => Expr::Float((rng.next() % 3) as f64 - 1.0),
        5 => Expr::MyProc,
        6 => Expr::Procs,
        _ => Expr::Local(VarId((rng.next() % 3) as u32)),
    };
    if depth == 0 || rng.next().is_multiple_of(4) {
        return leaf(rng);
    }
    match rng.next() % 8 {
        0 => Expr::Unary {
            op: if rng.next().is_multiple_of(2) {
                UnOp::Neg
            } else {
                UnOp::Not
            },
            expr: Box::new(random_expr(rng, depth - 1)),
        },
        1 => Expr::LocalElem {
            array: VarId(7),
            index: Box::new(random_expr(rng, depth - 1)),
        },
        _ => {
            const OPS: [BinOp; 13] = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Rem,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::And,
                BinOp::Or,
            ];
            bin(
                OPS[(rng.next() % 13) as usize],
                random_expr(rng, depth - 1),
                random_expr(rng, depth - 1),
            )
        }
    }
}

/// In place and by rebuilding, the folder folds each seeded expression
/// to the pinned result, and folding it again changes nothing.
#[test]
fn folding_in_place_is_folding_by_rebuilding() {
    let mut rng = SplitMix64::new(0x5eed_f01d);
    let (mut rewritten, mut untouched) = (0, 0);
    let mut table = String::new();
    for trial in 0..20_000 {
        let e = random_expr(&mut rng, 1 + trial % 6);
        let rebuilt = fold_expr(&e);
        let mut folded = e.clone();
        let changed = fold_in_place(&mut folded);
        // Compared as digests: a folded `0.0 / 0.0` is a NaN, which `==`
        // finds unequal to itself.
        let (mut ours, mut theirs) = (Digest::default(), Digest::default());
        expr_digest(&mut ours, &folded);
        expr_digest(&mut theirs, &rebuilt);
        assert_eq!(ours.0, theirs.0, "trial {trial}: {e:?}");
        assert_eq!(changed, rebuilt != e, "trial {trial}: {e:?}");
        assert!(!fold_in_place(&mut folded), "trial {trial}: not idempotent");
        ours.word(u64::from(changed));
        writeln!(table, "{trial} {:016x}", ours.0).unwrap();
        if changed {
            rewritten += 1;
        } else {
            untouched += 1;
        }
    }
    assert!(
        rewritten > 2_000 && untouched > 2_000,
        "{rewritten} / {untouched}"
    );
    check_table("tests/golden/digest/fold_expressions.txt", &table);
}
