//! Property tests on 256 seeded random programs each: pretty-printing is
//! a parser fixpoint, and well-formed generated programs survive the whole
//! frontend.

use syncopt::core::corpus::SplitMix64;
use syncopt::frontend::pretty::program_to_string;
use syncopt::frontend::{check_program, parse_program, prepare_program};

fn pick<'a>(rng: &mut SplitMix64, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

/// A random integer expression over locals `a`, `b`, `MYPROC` and
/// `PROCS`, at most `depth` operators deep.
fn int_expr(rng: &mut SplitMix64, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(5) {
            0 => rng.below(100).to_string(),
            n => ["a", "b", "MYPROC", "PROCS"][n as usize - 1].to_string(),
        };
    }
    let op = pick(rng, &["+", "-", "*"]);
    let (l, r) = (int_expr(rng, depth - 1), int_expr(rng, depth - 1));
    let core = format!("({l} {op} {r})");
    if rng.below(2) == 0 {
        format!("-{core}")
    } else {
        core
    }
}

fn bool_expr(rng: &mut SplitMix64) -> String {
    let (l, r) = (int_expr(rng, 1), int_expr(rng, 1));
    let op = pick(rng, &["<", "<=", "==", "!=", ">=", ">"]);
    if rng.below(2) == 0 {
        format!("!({l} {op} {r})")
    } else {
        format!("{l} {op} {r}")
    }
}

/// One random statement at indentation `depth`; `nest` bounds how deep
/// `if` and lock blocks may go.
fn stmt(rng: &mut SplitMix64, out: &mut String, depth: usize, nest: u32) {
    let pad = "    ".repeat(depth);
    let block = |rng: &mut SplitMix64, out: &mut String, len: u64| {
        for _ in 0..len {
            stmt(rng, out, depth + 1, nest - 1);
        }
    };
    match rng.below(if nest > 0 { 11 } else { 9 }) {
        0 => out.push_str(&format!("{pad}a = {};\n", int_expr(rng, 2))),
        1 => out.push_str(&format!("{pad}b = {};\n", int_expr(rng, 2))),
        2 => out.push_str(&format!("{pad}X = {};\n", int_expr(rng, 2))),
        3 => {
            let (i, v) = (int_expr(rng, 1), int_expr(rng, 2));
            out.push_str(&format!(
                "{pad}Arr[({i}) - ({i}) + ({i} % 32 + 32) % 32] = {v};\n"
            ));
        }
        4 => {
            let i = int_expr(rng, 1);
            out.push_str(&format!("{pad}a = Arr[({i} % 32 + 32) % 32];\n"));
        }
        5 => out.push_str(&format!("{pad}work({});\n", 1 + rng.below(199))),
        6 => out.push_str(&format!("{pad}barrier;\n")),
        7 => out.push_str(&format!("{pad}post F[MYPROC];\n")),
        8 => out.push_str(&format!("{pad}wait F[MYPROC];\n")),
        9 => {
            out.push_str(&format!("{pad}if ({}) {{\n", bool_expr(rng)));
            let len = rng.below(3);
            block(rng, out, len);
            let len = rng.below(2);
            if len > 0 {
                out.push_str(&format!("{pad}}} else {{\n"));
                block(rng, out, len);
            }
            out.push_str(&format!("{pad}}}\n"));
        }
        _ => {
            out.push_str(&format!("{pad}lock L;\n"));
            let len = 1 + rng.below(2);
            block(rng, out, len);
            out.push_str(&format!("{pad}unlock L;\n"));
        }
    }
}

/// 256 seeded programs of fewer than `max_stmts` top-level statements.
fn programs(max_stmts: u64) -> impl Iterator<Item = String> {
    let mut rng = SplitMix64::new(0x5eed_f00d ^ max_stmts);
    (0..256).map(move |_| {
        let mut src = String::from(
            "shared int X; shared int Arr[32]; flag F[64]; lock L;\nfn main() {\n    int a;\n    int b;\n",
        );
        for _ in 0..rng.below(max_stmts) {
            stmt(&mut rng, &mut src, 1, 2);
        }
        src.push_str("}\n");
        src
    })
}

#[test]
fn generated_programs_parse_and_check() {
    for src in programs(8) {
        let checked = check_program(&src);
        assert!(
            checked.is_ok(),
            "frontend rejected:\n{src}\n{:?}",
            checked.err()
        );
    }
}

#[test]
fn pretty_print_is_a_parser_fixpoint() {
    for src in programs(8) {
        let p1 = parse_program(&src).unwrap();
        let printed1 = program_to_string(&p1);
        let p2 =
            parse_program(&printed1).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed1}"));
        let printed2 = program_to_string(&p2);
        assert_eq!(printed1, printed2, "not a fixpoint for:\n{src}");
    }
}

#[test]
fn prepared_programs_stay_well_typed() {
    for src in programs(6) {
        let prepared = prepare_program(&src).unwrap();
        // Inlining output must itself re-check.
        assert!(syncopt::frontend::typeck::check(&prepared).is_ok(), "{src}");
    }
}
