//! The analysis of every benchmark program, pinned by digest.
//!
//! For each of the 236 programs of `compile_set(1)` (see
//! `tests/common/compile_set.rs`) this test analyzes the lowered CFG as a
//! cold compile does (`procs` known, default barrier policy) and
//! fingerprints six of its artifacts apart: the 32 analysis counters,
//! `D_SS`, the refined delay set, the precedence relation, the lock guards
//! and the oriented conflict set. The expected table,
//! `tests/golden/analysis_digest.txt`, pins what the analysis computes, so
//! a rewrite of how it computes it is checked against the code it
//! replaced without keeping that code.
//!
//! After an intended change of the analysis's results, regenerate the
//! table with `UPDATE_GOLDEN=1 cargo test --release --test analysis_digest`
//! (see `tests/common/digest.rs`).

#[path = "common/compile_set.rs"]
mod compile_set;
#[path = "common/digest.rs"]
mod digest;

use digest::{check_table, Digest};
use std::fmt::Write as _;
use syncopt::core::{analyze_with, Analysis, SyncOptions};
use syncopt::frontend::prepare_program;
use syncopt::ir::ids::AccessId;
use syncopt::ir::lower::lower_main;

/// A relation as its pairs, in row-major order.
fn pairs(n: usize, contains: impl Fn(AccessId, AccessId) -> bool) -> u64 {
    let mut digest = Digest::default();
    let ids = || (0..n).map(AccessId::from_index);
    for a in ids() {
        for b in ids().filter(|&b| contains(a, b)) {
            digest.word(a.index() as u64);
            digest.word(b.index() as u64);
        }
    }
    digest.0
}

/// One program's line of the table: `id` then the six digests.
fn digest_line(id: &str, a: &Analysis) -> String {
    let n = a.delay_ss.num_accesses();
    let mut counters = Digest::default();
    for (name, value) in a.metrics.iter() {
        counters.word(name.len() as u64);
        counters.word(value);
    }
    let mut guards = Digest::default();
    let mut locks: Vec<_> = a.guards.locks().collect();
    locks.sort();
    for lock in locks {
        guards.word(lock.index() as u64);
        let mut accesses = a.guards.guarded_by(lock).to_vec();
        accesses.sort();
        guards.word(accesses.len() as u64);
        for x in accesses {
            guards.word(x.index() as u64);
        }
    }
    let precedence = &a.sync.precedence;
    let oriented = &a.sync.oriented;
    let mut line = String::new();
    write!(
        line,
        "{id} counters={:016x} dss={:016x} dsync={:016x} prec={:016x} guards={:016x} oriented={:016x}",
        counters.0,
        pairs(n, |x, y| a.delay_ss.contains(x, y)),
        pairs(n, |x, y| a.delay_sync.contains(x, y)),
        pairs(n, |x, y| precedence.contains(x, y)),
        guards.0,
        pairs(n, |x, y| oriented.edge(x, y)),
    )
    .unwrap();
    line
}

fn table() -> String {
    let programs = compile_set::compile_set();
    assert_eq!(programs.len(), 236);
    let mut out = String::new();
    for p in &programs {
        let cfg = lower_main(&prepare_program(&p.source).expect("program checks"))
            .expect("program lowers");
        let opts = SyncOptions {
            procs: Some(p.procs),
            ..SyncOptions::default()
        };
        let id = format!("{}/{}", p.class, p.id);
        out.push_str(&digest_line(&id, &analyze_with(&cfg, &opts)));
        out.push('\n');
    }
    out
}

#[test]
fn every_benchmark_analysis_matches_its_pinned_digest() {
    check_table("tests/golden/analysis_digest.txt", &table());
}
