//! The allocation budget of a cold compile, enforced by a count.
//!
//! One `compile_cold` op of the repo benchmark is a cold
//! `Syncopt::compile()` plus the rendered report; a third of its time used
//! to be `malloc` / `free`. This test rebuilds the benchmark's 236 programs
//! (`benchmark/src/inputs.rs::compile_set(1)`) from the same generators,
//! counts the allocator calls of each op under the counting allocator of
//! `tests/common`, prints the mean per class, and pins the small class and
//! the mean over the whole set.
//!
//! The counts are asserted without `debug_assertions` only (a debug build
//! re-derives every memoized cache key to check it):
//! `cargo test --release --test alloc_budget`.

mod common;

use common::allocations;
use syncopt::core::corpus::corpus_program;
use syncopt::kernels::all_kernels;
use syncopt::kernels::scaling::{self, ScalingIdiom, ScalingParams};
use syncopt::{OptLevel, Syncopt};

/// Mean allocator calls per op allowed over the small class: 353 when the
/// budget was last lowered (once the analysis counters became a fixed
/// array and the report was written without a `json::Value` tree), 376
/// before that, and 970 before the cold path stopped deriving cache keys
/// and the graph helpers stopped allocating per node.
const SMALL_BUDGET: u64 = 380;
/// The same over all 236 programs: 431 when lowered, 454 before, 1 181
/// before the first budget.
const SET_BUDGET: u64 = 460;

struct Program {
    class: &'static str,
    source: String,
    procs: u32,
}

fn scaling_program(idiom: ScalingIdiom, unroll: u32, procs: u32, class: &'static str) -> Program {
    let params = ScalingParams {
        idiom,
        unroll,
        procs,
    };
    Program {
        class,
        source: scaling::generate(&params).source,
        procs,
    }
}

/// `compile_set(1)` of the repo benchmark: the wide, long and small classes.
fn compile_set() -> Vec<Program> {
    let kernels = |procs, class| {
        all_kernels(procs).into_iter().map(move |k| Program {
            class,
            source: k.source,
            procs: k.procs,
        })
    };
    let mut out: Vec<Program> = kernels(256, "wide").collect();
    out.push(scaling_program(ScalingIdiom::Stencil, 16, 256, "wide"));
    for unroll in [32, 64, 128] {
        out.push(scaling_program(ScalingIdiom::Stencil, unroll, 16, "long"));
    }
    for unroll in [32, 64] {
        out.push(scaling_program(ScalingIdiom::Flag, unroll, 4, "long"));
    }
    out.extend((1..=220).map(|draw| Program {
        class: "small",
        source: corpus_program(draw),
        procs: 4,
    }));
    out.extend(kernels(16, "small"));
    out
}

/// Allocator calls of one cold compile of `p` plus its rendered report.
fn op_allocations(p: &Program) -> u64 {
    let before = allocations();
    let compiled = Syncopt::new(&p.source)
        .procs(p.procs)
        .level(OptLevel::Full)
        .compile()
        .expect("program compiles");
    let text = compiled.report.to_json().to_string();
    let after = allocations();
    assert!(text.starts_with('{'));
    after - before
}

#[test]
fn a_cold_compile_stays_inside_its_allocation_budget() {
    let programs = compile_set();
    assert_eq!(programs.len(), 236);
    let first: Vec<u64> = programs.iter().map(op_allocations).collect();
    let second: Vec<u64> = programs.iter().map(op_allocations).collect();
    assert!(first[0] > 0, "the counting allocator is not installed");

    let mean = |class: Option<&str>| {
        let counts: Vec<u64> = programs
            .iter()
            .zip(&first)
            .filter(|(p, _)| class.is_none_or(|c| p.class == c))
            .map(|(_, &n)| n)
            .collect();
        counts.iter().sum::<u64>() / counts.len() as u64
    };
    for class in ["wide", "long", "small"] {
        println!(
            "allocations per cold compile, {class}: {}",
            mean(Some(class))
        );
    }
    println!("allocations per cold compile, all 236: {}", mean(None));

    if cfg!(debug_assertions) {
        println!("debug build: counts printed, not asserted");
        return;
    }
    assert_eq!(first, second, "two passes over one set count differently");
    assert!(
        mean(Some("small")) <= SMALL_BUDGET,
        "small class: {} allocations per cold compile, budget {SMALL_BUDGET}",
        mean(Some("small"))
    );
    assert!(
        mean(None) <= SET_BUDGET,
        "all 236 programs: {} allocations per cold compile, budget {SET_BUDGET}",
        mean(None)
    );
}
