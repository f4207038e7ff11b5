//! The two pipeline workloads — `compile_cold` and `sim_seq` — driven
//! through the [`Syncopt`] builder, plus the stage-by-stage replay the
//! traced run uses to attribute an op's time to layers.

use crate::expected::{memory_digest, Expected};
use crate::harness::{elapsed_ns, Layers, Pass, Workload};
use crate::inputs::{compile_set, sim_set, Program, Rng};
use crate::spans::{Kind, Tracer};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use syncopt::codegen::{optimize, Optimized};
use syncopt::core::diag::json::Value;
use syncopt::core::{analyze_with, detect_races, Analysis, SyncOptions};
use syncopt::frontend::Fingerprint;
use syncopt::ir::print::cfg_to_string;
use syncopt::lint::level_label;
use syncopt::machine::{
    simulate, simulate_sharded_with, MachineConfig, ShardPartition, SimOutputs, SimResult,
};
use syncopt::{Compiled, DelayChoice, OptLevel, RunResult, Syncopt, SyncoptError};

/// Shards of the sharded-engine probe: one per CPU of the reference
/// host, never more.
pub const SIM_SHARDS: usize = 2;

/// The paper's five kernels; only they are held to "race-free, no F001".
const KERNEL_NAMES: [&str; 5] = ["Ocean", "EM3D", "Epithel", "Cholesky", "Health"];

fn sync_options(procs: u32) -> SyncOptions {
    SyncOptions {
        procs: Some(procs),
        threads: 1,
        ..SyncOptions::default()
    }
}

// ---- the real ops ---------------------------------------------------------

/// One `compile_cold` op: a cold compile on a fresh session plus the
/// rendered report.
fn compile_op(p: &Program) -> Result<(Compiled, String), SyncoptError> {
    let compiled = Syncopt::new(&p.source)
        .procs(p.procs)
        .level(OptLevel::Full)
        .compile()?;
    let text = compiled.report.to_json().to_string();
    Ok((compiled, text))
}

/// One simulation op: compile, simulate on a CM-5 of the program's size,
/// render the report.
fn sim_op(
    p: &Program,
    level: OptLevel,
    shards: usize,
) -> Result<(RunResult, String), SyncoptError> {
    let run = Syncopt::new(&p.source)
        .procs(p.procs)
        .level(level)
        .sim_shards(shards)
        .run(&MachineConfig::cm5(p.procs))?;
    let text = run.report().to_json().to_string();
    Ok((run, text))
}

// ---- correctness checks ---------------------------------------------------

fn check_report_text(text: &str) -> Result<(), String> {
    let doc = Value::parse(text).map_err(|e| format!("report is not JSON: {e}"))?;
    if doc.get("analysis").is_none() {
        return Err("report has no `analysis` section".to_string());
    }
    Ok(())
}

/// Every compile op: the refined delay set only ever removes delays, the
/// optimized CFG is well formed, and the report renders as JSON.
fn check_compiled(c: &Compiled, text: &str) -> Result<(), String> {
    if !c.analysis.delay_sync.is_subset_of(&c.analysis.delay_ss) {
        return Err("delay_sync is not a subset of delay_ss".to_string());
    }
    c.optimized
        .cfg
        .validate()
        .map_err(|e| format!("optimized CFG invalid: {e}"))?;
    check_report_text(text)
}

/// The five kernels additionally stay race-free with no missing fence at
/// any level. Deterministic in the op's output, so set-up's validating
/// pass checks it once instead of every timed pass paying for it.
fn check_kernel_contract(p: &Program, c: &Compiled) -> Result<(), String> {
    if !KERNEL_NAMES.contains(&p.id.as_str()) {
        return Ok(());
    }
    let opts = sync_options(p.procs);
    let races = detect_races(&c.source_cfg, &opts);
    if !races.race_free() {
        return Err(format!("{} race(s) reported", races.races.len()));
    }
    let lint = syncopt::lint::lint_with_analysis(&c.source_cfg, &c.analysis, &opts);
    if lint.diagnostics.iter().any(|d| d.code == "F001") {
        return Err("lint reports F001 (missing fence)".to_string());
    }
    Ok(())
}

/// Every simulated op: the final memory image is the committed one
/// (generated unoptimized on the sequential engine), barriers aligned,
/// every processor's cycle accounting sums to the execution time, and a
/// sharded run takes exactly the sequential run's cycles.
fn check_sim(
    sim: &SimResult,
    expected_digest: Option<&str>,
    sequential_cycles: Option<u64>,
) -> Result<(), String> {
    let digest = memory_digest(&sim.memory);
    match expected_digest {
        None => return Err("no entry in expected/memory.json".to_string()),
        Some(want) if want != digest => {
            return Err(format!("memory digest {digest}, expected {want}"));
        }
        Some(_) => {}
    }
    if !sim.barriers_aligned {
        return Err("barriers misaligned".to_string());
    }
    if let Some((i, p)) = sim
        .metrics
        .per_proc
        .iter()
        .enumerate()
        .find(|(_, p)| p.accounted() != sim.exec_cycles)
    {
        return Err(format!(
            "proc {i} accounts for {} of {} cycles",
            p.accounted(),
            sim.exec_cycles
        ));
    }
    match sequential_cycles {
        Some(want) if want != sim.exec_cycles => Err(format!(
            "sharded run took {} cycles, sequential {want}",
            sim.exec_cycles
        )),
        _ => Ok(()),
    }
}

// ---- stage-by-stage replay for the traced run -----------------------------

/// Counts taken at the layer boundaries of one traced pass.
#[derive(Debug, Default)]
struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    fn add(&mut self, name: &'static str, n: f64) {
        *self.0.entry(name).or_default() += n;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    fn flush(&self, layers: &mut Layers) {
        for (name, value) in &self.0 {
            layers.push(name, *value);
        }
    }
}

/// Replays the compile side of an op one public call at a time, a
/// [`Kind::Layer`] span around each: the frontend, lowering, the
/// canonical-CFG printing and fingerprinting the session does for its
/// cache keys, analysis and codegen.
fn replay_compile(
    t: &mut Tracer,
    op: u64,
    p: &Program,
    level: OptLevel,
    machine: Option<&MachineConfig>,
    counts: &mut Counts,
) -> Result<Optimized, String> {
    let class = p.class;
    let src = p.source.as_str();
    counts.add("frontend.src_bytes", src.len() as f64);
    let ast = t
        .layer("frontend.parse", op, class, || {
            syncopt::frontend::parse_program(src)
        })
        .map_err(|e| e.to_string())?;
    t.layer("frontend.typeck", op, class, || {
        syncopt::frontend::typeck::check(&ast)
    })
    .map_err(|e| e.to_string())?;
    let inlined = t
        .layer("frontend.inline", op, class, || {
            syncopt::frontend::inline::inline_program(&ast)
        })
        .map_err(|e| e.to_string())?;
    let source_cfg = t
        .layer("ir.lower", op, class, || {
            syncopt::ir::lower::lower_main(&inlined)
        })
        .map_err(|e| e.to_string())?;
    let analysis: Analysis = t.layer("core.analyze", op, class, || {
        analyze_with(&source_cfg, &sync_options(p.procs))
    });
    let stats = analysis.stats();
    counts.add("core.conflict_pairs", stats.conflict_pairs as f64);
    counts.add("core.delay_ss", stats.delay_ss as f64);
    counts.add("core.delay_sync", stats.delay_sync as f64);
    let queries = analysis.metrics.get("cycle.backpath_queries")
        + analysis.metrics.get("sync.backpath_queries");
    counts.add("core.backpath_queries", queries as f64);
    let optimized = t.layer("codegen.optimize", op, class, || {
        optimize(&source_cfg, &analysis, level, DelayChoice::SyncRefined)
    });
    let s = &optimized.stats;
    let transforms = s.gets_split
        + s.puts_split
        + s.sync_moves
        + s.syncs_merged
        + s.init_moves
        + s.puts_to_stores
        + s.gets_eliminated
        + s.puts_eliminated
        + s.dead_locals_removed
        + s.dead_gets_removed
        + s.exprs_folded;
    counts.add("codegen.transforms", transforms as f64);
    // The session keys `analysis` on the printed source CFG and `sim` on
    // the printed optimized CFG, and everything else on the raw source.
    let texts = t.layer("ir.print", op, class, || {
        let mut texts = vec![cfg_to_string(&source_cfg)];
        if machine.is_some() {
            texts.push(cfg_to_string(&optimized.cfg));
        }
        texts
    });
    counts.add(
        "ir.cfg_text_bytes",
        texts.iter().map(String::len).sum::<usize>() as f64,
    );
    t.layer("session.fingerprint", op, class, || {
        black_box(Fingerprint::of_parts(&["src.v1", src]));
        black_box(Fingerprint::of_parts(&[
            "analysis.v1",
            &texts[0],
            &p.procs.to_string(),
        ]));
        if let (Some(config), Some(text)) = (machine, texts.get(1)) {
            black_box(Fingerprint::of_parts(&[
                "sim.v1",
                text,
                &format!("{config:?}"),
            ]));
        }
    });
    Ok(optimized)
}

// ---- compile_cold ---------------------------------------------------------

/// The `compile_cold` workload.
pub struct CompileCold {
    programs: Vec<Program>,
}

impl Workload for CompileCold {
    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        let mut programs = compile_set(seed);
        Rng::new(seed).shuffle(&mut programs);
        for p in &programs {
            let (compiled, text) =
                compile_op(p).map_err(|e| format!("{} does not compile: {e}", p.id))?;
            check_compiled(&compiled, &text)
                .and_then(|()| check_kernel_contract(p, &compiled))
                .map_err(|e| format!("{} @ p{}: {e}", p.id, p.procs))?;
        }
        Ok(CompileCold { programs })
    }

    fn pass(&mut self, _index: u64) -> Pass {
        let mut pass = Pass::default();
        for p in &self.programs {
            let t = Instant::now();
            let out = black_box(compile_op(black_box(p)));
            let ns = elapsed_ns(t);
            let verdict = match &out {
                Ok((compiled, text)) => check_compiled(compiled, text),
                Err(e) => Err(e.to_string()),
            };
            pass.push(
                ns,
                verdict.map_err(|e| format!("{} @ p{}: {e}", p.id, p.procs)),
            );
        }
        pass
    }

    fn traced_pass(&mut self, index: u64, layers: &mut Layers) -> Pass {
        let mut pass = Pass::default();
        let mut t = Tracer::new(Instant::now());
        let mut counts = Counts::default();
        for (i, p) in self.programs.iter().enumerate() {
            let op = index * 1_000_000 + i as u64;
            let (span, out) = t.span("op", Kind::Op, op, p.class, |_| compile_op(p));
            let ns = t.spans()[span].dur_ns();
            let verdict = match &out {
                Ok((compiled, text)) => {
                    let (_, replayed) = t.span("op.layers", Kind::Group, op, p.class, |t| {
                        replay_compile(t, op, p, OptLevel::Full, None, &mut counts)?;
                        let again = t.layer("report.render", op, p.class, || {
                            compiled.report.to_json().to_string()
                        });
                        counts.add("report.bytes", again.len() as f64);
                        Ok::<(), String>(())
                    });
                    replayed.and_then(|()| check_compiled(compiled, text))
                }
                Err(e) => Err(e.to_string()),
            };
            pass.push(
                ns,
                verdict.map_err(|e| format!("{} @ p{}: {e}", p.id, p.procs)),
            );
        }
        layers.record_spans(t.spans().to_vec());
        counts.flush(layers);
        pass
    }

    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

// ---- sim_seq ----------------------------------------------------------------

/// One op of the simulation workload.
#[derive(Debug, Clone)]
struct SimCase {
    program: usize,
    level: OptLevel,
}

/// The `sim_seq` workload: every [`sim_set`] program at Blocking and at
/// Full on the sequential engine. Its traced run also probes the sharded
/// engine (see [`Sim::probe_sharded`]).
pub struct Sim {
    programs: Vec<Program>,
    cases: Vec<SimCase>,
    expected: Expected,
    /// `exec_cycles` per (program, level), from the validating pass.
    cycles: BTreeMap<(usize, &'static str), u64>,
}

impl Sim {
    /// A workload over `programs` checked against `expected` (the real
    /// workload uses [`sim_set`] and the committed file; tests use less).
    pub fn with_inputs(programs: Vec<Program>, expected: Expected, seed: u64) -> Self {
        let mut cases: Vec<SimCase> = (0..programs.len())
            .flat_map(|program| {
                [OptLevel::Blocking, OptLevel::Full].map(|level| SimCase { program, level })
            })
            .collect();
        Rng::new(seed).shuffle(&mut cases);
        Sim {
            programs,
            cases,
            expected,
            cycles: BTreeMap::new(),
        }
    }

    fn label(&self, case: &SimCase) -> String {
        let p = &self.programs[case.program];
        format!("{} @ p{} {}", p.id, p.procs, level_label(case.level))
    }

    fn check(
        &self,
        case: &SimCase,
        out: &Result<(RunResult, String), SyncoptError>,
    ) -> Result<(), String> {
        let p = &self.programs[case.program];
        match out {
            Ok((run, text)) => check_sim(&run.sim, self.expected.get(&p.id, p.procs), None)
                .and_then(|()| check_report_text(text)),
            Err(e) => Err(e.to_string()),
        }
        .map_err(|e| format!("{}: {e}", self.label(case)))
    }

    /// Runs every op once, untimed, and fails on the first bad one.
    fn validate(&mut self) -> Result<(), String> {
        for case in self.cases.clone() {
            let out = sim_op(&self.programs[case.program], case.level, 1);
            self.check(&case, &out)?;
            if let Ok((run, _)) = out {
                self.cycles
                    .insert((case.program, level_label(case.level)), run.sim.exec_cycles);
            }
        }
        Ok(())
    }

    /// Per-program `blocking × 1000 ÷ full` simulated cycles, and their
    /// geometric mean (`None` before the validating pass).
    fn opt_speedups(&self) -> Option<(Vec<(String, f64)>, f64)> {
        let mut rows = Vec::new();
        for (i, p) in self.programs.iter().enumerate() {
            let blocking = *self.cycles.get(&(i, "blocking"))?;
            let full = *self.cycles.get(&(i, "full"))?;
            rows.push((
                format!("{} @ p{}", p.id, p.procs),
                blocking as f64 * 1000.0 / full.max(1) as f64,
            ));
        }
        let log_mean = rows.iter().map(|(_, r)| r.ln()).sum::<f64>() / rows.len().max(1) as f64;
        Some((rows, log_mean.exp()))
    }

    /// The sharded engine on the op's own optimized program: [`SIM_SHARDS`]
    /// shards, Block partition, with the process's CPU confinement lifted
    /// so the shards really run side by side. Its host time is too
    /// unsteady on the reference host to be an end-to-end metric (README,
    /// "How the bounds were derived"), so it is measured here, per layer.
    /// The result must still be the sequential engine's, bit for bit.
    fn probe_sharded(
        &self,
        t: &mut Tracer,
        op: u64,
        case: &SimCase,
        run: &RunResult,
        counts: &mut Counts,
        imbalance: &mut Vec<f64>,
    ) -> Result<(), String> {
        let p = &self.programs[case.program];
        let config = MachineConfig::cm5(p.procs);
        let cfg = &run.compiled.optimized.cfg;
        let sharded = t
            .probe("machine.shard", op, p.class, || {
                crate::affinity::unpinned(|| {
                    simulate_sharded_with(
                        cfg,
                        &config,
                        SIM_SHARDS,
                        ShardPartition::Block,
                        SimOutputs::full(),
                    )
                })
            })
            .map_err(|e| format!("sharded: {e}"))?;
        check_sim(
            &sharded,
            self.expected.get(&p.id, p.procs),
            Some(run.sim.exec_cycles),
        )
        .map_err(|e| format!("sharded: {e}"))?;
        let w = &sharded.metrics.work;
        counts.add("machine.shard_events", w.events_dequeued as f64);
        counts.add("machine.shard_windows", w.shard_horizon_advances as f64);
        counts.add("machine.shard_idle_windows", w.shard_idle_windows as f64);
        counts.add(
            "machine.shard_cross_messages",
            w.shard_cross_messages as f64,
        );
        imbalance.extend(sharded.metrics.shard_imbalance_permille().map(|v| v as f64));
        Ok(())
    }
}

impl Workload for Sim {
    fn setup(seed: u64, _traced: bool) -> Result<Self, String> {
        let mut w = Sim::with_inputs(sim_set(), Expected::committed()?, seed);
        w.validate()?;
        Ok(w)
    }

    fn pass(&mut self, _index: u64) -> Pass {
        let mut pass = Pass::default();
        for case in &self.cases {
            let p = &self.programs[case.program];
            let t = Instant::now();
            let out = black_box(sim_op(black_box(p), case.level, 1));
            let ns = elapsed_ns(t);
            pass.push(ns, self.check(case, &out));
        }
        pass
    }

    fn traced_pass(&mut self, index: u64, layers: &mut Layers) -> Pass {
        let mut pass = Pass::default();
        let mut t = Tracer::new(Instant::now());
        let mut counts = Counts::default();
        let mut imbalance = Vec::new();
        // Host time of the sequential engine on the ops the sharded probe
        // also runs, for `machine.shard_speedup_milli`.
        let mut sequential_ns = 0u64;
        for (i, case) in self.cases.iter().enumerate() {
            let p = &self.programs[case.program];
            let op = index * 1_000_000 + i as u64;
            let config = MachineConfig::cm5(p.procs);
            let (span, out) = t.span("op", Kind::Op, op, p.class, |_| sim_op(p, case.level, 1));
            let ns = t.spans()[span].dur_ns();
            let mut verdict = self.check(case, &out);
            if let Ok((run, _)) = &out {
                let (_, replayed) = t.span("op.layers", Kind::Group, op, p.class, |t| {
                    let optimized =
                        replay_compile(t, op, p, case.level, Some(&config), &mut counts)?;
                    let (sim_span, sim) = t.span("machine.sim", Kind::Layer, op, p.class, |_| {
                        simulate(&optimized.cfg, &config)
                    });
                    let sim = sim.map_err(|e| e.to_string())?;
                    if sim.exec_cycles != run.sim.exec_cycles {
                        return Err("replayed simulation diverged from the op".to_string());
                    }
                    if case.level == OptLevel::Full {
                        sequential_ns += t.spans()[sim_span].dur_ns();
                    }
                    counts.add("machine.events", sim.metrics.work.events_dequeued as f64);
                    counts.add(
                        "machine.bucket_rotations",
                        sim.metrics.work.bucket_rotations as f64,
                    );
                    let again = t.layer("report.render", op, p.class, || {
                        run.report().to_json().to_string()
                    });
                    counts.add("report.bytes", again.len() as f64);
                    Ok::<(), String>(())
                });
                let mut probed = Ok(());
                if case.level == OptLevel::Full {
                    probed = self.probe_sharded(&mut t, op, case, run, &mut counts, &mut imbalance);
                }
                verdict = verdict.and(
                    replayed
                        .and(probed)
                        .map_err(|e| format!("{}: {e}", self.label(case))),
                );
            }
            pass.push(ns, verdict);
        }
        let summary = layers.record_spans(t.spans().to_vec());
        counts.flush(layers);
        let total_us = |name: &str| {
            summary
                .by_name
                .get(name)
                .map_or(0.0, |&(ns, _)| ns as f64 / 1e3)
        };
        let (sim_us, shard_us) = (total_us("machine.sim"), total_us("machine.shard"));
        let events = counts.get("machine.events");
        layers.push("machine.events_per_us", events / sim_us.max(1.0));
        layers.push(
            "machine.rotations_per_event",
            counts.get("machine.bucket_rotations") / events.max(1.0),
        );
        let windows = counts.get("machine.shard_windows").max(1.0);
        layers.push("machine.shard_us_per_window", shard_us / windows);
        layers.push(
            "machine.shard_events_per_window",
            counts.get("machine.shard_events") / windows,
        );
        layers.push(
            "machine.shard_speedup_milli",
            sequential_ns as f64 / shard_us.max(1.0),
        );
        layers.push(
            "machine.shard_imbalance_permille",
            imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64,
        );
        if let Some((_, geomean)) = self.opt_speedups() {
            layers.push("opt_speedup_milli", geomean);
        }
        pass
    }

    fn notes(&self) -> Vec<String> {
        let Some((rows, geomean)) = self.opt_speedups() else {
            return Vec::new();
        };
        let mut out = vec![format!(
            "opt_speedup_milli (simulated cycles, Blocking x 1000 / Full): geomean {geomean:.1}"
        )];
        out.extend(rows.into_iter().map(|(program, ratio)| {
            let flag = if ratio < 1000.0 {
                "  <-- optimized code is slower"
            } else {
                ""
            };
            format!("  {program:<22} {ratio:>8.1}{flag}")
        }));
        out
    }

    fn finish(self) -> Result<(), String> {
        Ok(())
    }
}

/// Regenerates the reference digests: every [`sim_set`] program,
/// unoptimized, on the sequential engine — never a path under test.
///
/// # Errors
///
/// A program that fails to compile or simulate.
pub fn regenerate_expected() -> Result<Expected, String> {
    let mut expected = Expected::default();
    for p in sim_set() {
        let (run, _) = sim_op(&p, OptLevel::Blocking, 1)
            .map_err(|e| format!("{} @ p{}: {e}", p.id, p.procs))?;
        expected.insert(&p.id, p.procs, memory_digest(&run.sim.memory));
    }
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<Program> {
        vec![Program {
            id: "tiny".to_string(),
            class: "kernel",
            source: "shared int A[8]; fn main() { A[MYPROC] = MYPROC + 1; barrier; \
                     int v; v = A[(MYPROC + 1) % PROCS]; work(v); }"
                .to_string(),
            procs: 4,
        }]
    }

    fn reference(programs: &[Program]) -> Expected {
        let mut e = Expected::default();
        for p in programs {
            let (run, _) = sim_op(p, OptLevel::Blocking, 1).unwrap();
            e.insert(&p.id, p.procs, memory_digest(&run.sim.memory));
        }
        e
    }

    #[test]
    fn correct_digest_passes() {
        let programs = tiny();
        let expected = reference(&programs);
        let mut w = Sim::with_inputs(programs, expected, 1);
        let pass = w.pass(0);
        assert_eq!(
            (pass.op_ns.len(), pass.failed),
            (2, 0),
            "{:?}",
            pass.first_error
        );
    }

    #[test]
    fn wrong_expected_digest_becomes_a_nonzero_fail_ratio() {
        let mut expected = Expected::default();
        expected.insert("tiny", 4, "0123456789abcdef".to_string());
        let mut w = Sim::with_inputs(tiny(), expected, 1);
        let pass = w.pass(0);
        assert_eq!(pass.failed, 2, "both levels must fail the digest check");
        let fail_ratio = pass.failed as f64 / pass.op_ns.len() as f64;
        assert!(fail_ratio > 0.0);
        assert!(pass.first_error.unwrap().contains("memory digest"));
        // The traced run's sharded probe is held to the same digest.
        let traced = w.traced_pass(1, &mut Layers::default());
        assert_eq!(traced.failed, 2);
        // And set-up's validating pass refuses to start measuring at all.
        assert!(w.validate().unwrap_err().contains("memory digest"));
    }

    #[test]
    fn missing_expected_entry_is_a_failure_not_a_skip() {
        let mut w = Sim::with_inputs(tiny(), Expected::default(), 1);
        let pass = w.pass(0);
        assert_eq!(pass.failed, 2);
        assert!(pass.first_error.unwrap().contains("no entry"));
    }

    #[test]
    fn sharded_cycles_must_equal_the_sequential_run() {
        let p = &tiny()[0];
        let expected = reference(std::slice::from_ref(p));
        let (run, _) = sim_op(p, OptLevel::Full, SIM_SHARDS).unwrap();
        let digest = expected.get("tiny", 4);
        check_sim(&run.sim, digest, Some(run.sim.exec_cycles)).unwrap();
        let err = check_sim(&run.sim, digest, Some(run.sim.exec_cycles + 1)).unwrap_err();
        assert!(err.contains("sequential"), "{err}");
    }

    #[test]
    fn committed_file_covers_every_simulated_pair() {
        let expected = Expected::committed().unwrap();
        for p in sim_set() {
            assert!(
                expected.get(&p.id, p.procs).is_some(),
                "expected/memory.json lacks {} @ p{}; run `regen-expected`",
                p.id,
                p.procs
            );
        }
    }

    #[test]
    fn traced_pass_spans_account_and_name_the_layers() {
        let programs = tiny();
        let expected = reference(&programs);
        let mut w = Sim::with_inputs(programs, expected, 1);
        w.validate().unwrap();
        let mut layers = Layers::default();
        let pass = w.traced_pass(0, &mut layers);
        assert_eq!(pass.failed, 0, "{:?}", pass.first_error);
        assert!(
            layers.accounting_error.is_none(),
            "{:?}",
            layers.accounting_error
        );
        for name in [
            "frontend.parse_us",
            "ir.lower_us",
            "core.analyze_us",
            "codegen.optimize_us",
            "machine.sim_us",
            "report.render_us",
            "pipeline.unaccounted_us",
        ] {
            assert!(layers.value(name) != 0.0, "{name} was not recorded");
        }
        assert!(layers.value("machine.events") > 0.0);
        assert!(layers.value("opt_speedup_milli") >= 1000.0);
        // The sharded probe ran on the Full op and matched it.
        assert!(layers.value("machine.shard_us") > 0.0);
        assert!(layers.value("machine.shard_windows") > 0.0);
    }

    #[test]
    fn compile_checks_hold_on_a_kernel() {
        let p = &compile_set(1)[0];
        let (compiled, text) = compile_op(p).unwrap();
        check_compiled(&compiled, &text).unwrap();
        check_kernel_contract(p, &compiled).unwrap();
        assert!(check_report_text("{\"no\":1}").is_err());
        assert!(check_report_text("not json").is_err());
    }
}
