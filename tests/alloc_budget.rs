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
//! `cargo test --release --test alloc_budget`. Two layers of the front end
//! are held to no allocation at all, in every build: inlining a call-free
//! program, and printing a CFG into a buffer that has the room.

mod common;
#[path = "common/compile_set.rs"]
mod compile_set;

use common::allocations;
use compile_set::{compile_set, Program};
use syncopt::core::{analyze_with, SyncOptions};
use syncopt::frontend::{check_program, inline::inline_program, prepare_program};
use syncopt::ir::lower::lower_main;
use syncopt::ir::print::{cfg_to_string, write_cfg};
use syncopt::kernels::all_kernels;
use syncopt::{OptLevel, Syncopt};

/// Mean allocator calls per op allowed over the small class: 223 when the
/// budget was last lowered (once the analysis stopped hashing and
/// allocating per stage), 306 before that (once the inliner moved a
/// call-free program through instead of rebuilding it), 353 before that
/// (once the analysis counters became a fixed array and the report was
/// written without a `json::Value` tree), 376 before that, and 970 before
/// the cold path stopped deriving cache keys and the graph helpers stopped
/// allocating per node.
const SMALL_BUDGET: u64 = 250;
/// The same over all 236 programs: 283 when lowered, 367, 431 and 454
/// before, 1 181 before the first budget.
const SET_BUDGET: u64 = 312;

/// Mean allocator calls per analysis (`analyze_with` alone) allowed over
/// the small class: 44 when set, once the analysis kept dense tables and
/// one scratch per walk; 123 before that.
const ANALYSIS_BUDGET: u64 = 50;

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

/// Allocator calls of one analysis of the lowered `p`, as a cold compile
/// makes it.
fn analysis_allocations(p: &Program) -> u64 {
    let cfg =
        lower_main(&prepare_program(&p.source).expect("program checks")).expect("program lowers");
    let opts = SyncOptions {
        procs: Some(p.procs),
        ..SyncOptions::default()
    };
    let before = allocations();
    let analysis = analyze_with(&cfg, &opts);
    let after = allocations();
    assert_eq!(analysis.delay_ss.num_accesses(), cfg.accesses.len());
    after - before
}

/// The analysis of a small program allocates a handful of tables, not a
/// collection per stage, lock or site.
#[test]
fn analyzing_a_small_program_stays_inside_its_budget() {
    let small: Vec<Program> = compile_set()
        .into_iter()
        .filter(|p| p.class == "small")
        .collect();
    let counts: Vec<u64> = small.iter().map(analysis_allocations).collect();
    let mean = counts.iter().sum::<u64>() / counts.len() as u64;
    println!(
        "allocations per analysis, small: mean {mean}, max {}",
        counts.iter().max().unwrap()
    );
    if cfg!(debug_assertions) {
        println!("debug build: counts printed, not asserted");
        return;
    }
    assert!(
        mean <= ANALYSIS_BUDGET,
        "small class: {mean} allocations per analysis, budget {ANALYSIS_BUDGET}"
    );
}

/// Inlining moves the program through, and a call-free one needs nothing
/// more: no statement is rebuilt and no name copied.
#[test]
fn inlining_a_call_free_program_allocates_nothing() {
    for p in compile_set() {
        let program = check_program(&p.source).expect("program checks");
        let before = allocations();
        let inlined = inline_program(program).expect("program inlines");
        assert_eq!(allocations(), before, "{} ({})", p.id, p.class);
        assert_eq!(inlined.functions.len(), 1);
    }
}

/// The printer appends names and numbers in place: a kernel's source and
/// optimized CFG printed into a buffer that already has the room cost no
/// allocator call.
#[test]
fn printing_a_kernel_cfg_into_a_buffer_with_room_allocates_nothing() {
    for procs in [16, 256] {
        for k in all_kernels(procs) {
            let compiled = Syncopt::new(&k.source)
                .procs(procs)
                .level(OptLevel::Full)
                .compile()
                .expect("kernel compiles");
            for cfg in [&compiled.source_cfg, &compiled.optimized.cfg] {
                let text = cfg_to_string(cfg);
                let mut out = String::with_capacity(text.len());
                let before = allocations();
                write_cfg(&mut out, cfg);
                assert_eq!(allocations(), before, "{} at {procs}", k.name);
                assert_eq!(out, text);
            }
        }
    }
}
