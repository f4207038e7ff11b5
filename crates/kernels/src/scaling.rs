//! Synthetic scaling programs for the delay-set analysis benchmark.
//!
//! Two idioms from the paper's figures, each parameterized by an unroll
//! factor so the access count — and with it the analysis work — grows on
//! demand:
//!
//! * [`ScalingIdiom::Stencil`] — the barrier-phased halo exchange of
//!   `programs/stencil.ms` / Ocean, with the owner-computed block update
//!   unrolled `unroll` times. Owner accesses are provably conflict-free
//!   (affine, distinct per processor), so the candidate pruning in the
//!   delay-set driver should skip almost every pair; only the halo
//!   read / fold write pair and the barriers reach the back-path oracle.
//! * [`ScalingIdiom::Flag`] — Figure 1's flag/data figure-eight with
//!   `unroll` data slots. Every access conflicts across processors, so
//!   this stresses the mirror-copy reachability closure rather than the
//!   pruning path.
//!
//! The `delay` suite of the `counters` binary (`syncopt-bench`) analyzes
//! the [`trajectory`] grid and records work counters per configuration.

use crate::Kernel;
use std::fmt::Write;

/// Which program shape to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingIdiom {
    /// Barrier-phased stencil with an unrolled owner-computed block.
    Stencil,
    /// Figure 1 flag/data handshake with an unrolled data vector.
    Flag,
}

impl ScalingIdiom {
    /// Stable lowercase label used in benchmark config ids and JSON.
    pub fn label(self) -> &'static str {
        match self {
            ScalingIdiom::Stencil => "stencil",
            ScalingIdiom::Flag => "flag",
        }
    }
}

/// One point of the scaling trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalingParams {
    /// Program shape.
    pub idiom: ScalingIdiom,
    /// Unroll factor (≥ 2): how many times the idiom's data body repeats.
    pub unroll: u32,
    /// Processor count the program is generated and analyzed for.
    pub procs: u32,
}

impl ScalingParams {
    /// Stable configuration id (`stencil_u32_p16`), the join key between
    /// a fresh benchmark run and a committed baseline.
    pub fn id(&self) -> String {
        format!("{}_u{}_p{}", self.idiom.label(), self.unroll, self.procs)
    }
}

/// Generates the scaling program for one trajectory point.
pub fn generate(params: &ScalingParams) -> Kernel {
    let u = params.unroll.max(2) as u64;
    match params.idiom {
        ScalingIdiom::Stencil => generate_stencil(params, u),
        ScalingIdiom::Flag => generate_flag(params, u),
    }
}

fn generate_stencil(params: &ScalingParams, u: u64) -> Kernel {
    let n = params.procs as u64 * u;
    let mut s = String::new();
    writeln!(s, "// Scaled stencil: {u}-way unrolled owner block.").unwrap();
    writeln!(s, "shared double G[{n}];").unwrap();
    writeln!(s, "shared double NG[{n}];").unwrap();
    writeln!(s, "fn main() {{").unwrap();
    writeln!(s, "    int t;").unwrap();
    writeln!(s, "    double right;").unwrap();
    writeln!(s, "    for (t = 0; t < 2; t = t + 1) {{").unwrap();
    writeln!(s, "        right = 0.0;").unwrap();
    // Halo pull: the right neighbor's first cell — the one access pair
    // that genuinely conflicts with the fold write below.
    writeln!(s, "        if (MYPROC < PROCS - 1) {{").unwrap();
    writeln!(s, "            right = G[MYPROC * {u} + {u}];").unwrap();
    writeln!(s, "        }}").unwrap();
    writeln!(s, "        work(50);").unwrap();
    writeln!(s, "        NG[MYPROC * {u}] = right * 0.5;").unwrap();
    // Owner-computed block update: indices MYPROC*u + i with 0 < i < u
    // never coincide across processors, so all these accesses are
    // conflict-free and should be pruned before the oracle.
    for i in 1..u {
        writeln!(
            s,
            "        NG[MYPROC * {u} + {i}] = G[MYPROC * {u} + {i}] * 0.25;"
        )
        .unwrap();
    }
    writeln!(s, "        barrier;").unwrap();
    writeln!(s, "        G[MYPROC * {u}] = NG[MYPROC * {u}];").unwrap();
    writeln!(s, "        barrier;").unwrap();
    writeln!(s, "    }}").unwrap();
    writeln!(s, "}}").unwrap();
    Kernel {
        name: "ScalingStencil",
        source: s,
        procs: params.procs,
    }
}

fn generate_flag(params: &ScalingParams, u: u64) -> Kernel {
    let mut s = String::new();
    writeln!(s, "// Scaled Figure 1: {u} data slots behind one flag.").unwrap();
    writeln!(s, "shared int Data[{u}];").unwrap();
    writeln!(s, "shared int Flag;").unwrap();
    writeln!(s, "fn main() {{").unwrap();
    writeln!(s, "    int v;").unwrap();
    writeln!(s, "    if (MYPROC == 0) {{").unwrap();
    for i in 0..u {
        writeln!(s, "        Data[{i}] = {};", i + 1).unwrap();
    }
    writeln!(s, "        Flag = 1;").unwrap();
    writeln!(s, "    }} else {{").unwrap();
    writeln!(s, "        v = Flag;").unwrap();
    for i in 0..u {
        writeln!(s, "        v = Data[{i}];").unwrap();
    }
    writeln!(s, "    }}").unwrap();
    writeln!(s, "}}").unwrap();
    Kernel {
        name: "ScalingFlag",
        source: s,
        procs: params.procs,
    }
}

/// The full benchmark grid, smallest first. The last entry of each idiom
/// is the "largest generated input" the work-reduction acceptance
/// criterion is judged on.
///
/// Two axes per the sharded-simulation milestone: the original *unroll*
/// axis grows the access count at a fixed 16-processor machine, and the
/// *machine-width* axis holds the unroll at 16 while the processor count
/// grows to the sharded engine's design sizes (64/256/1024). The
/// back-path counters (`cycle.*`, `sync.*`) are per-program-text and stay
/// flat along it; the part of the analysis that reads `PROCS` — guard
/// evaluation and the guarded collision tests of the conflict set — is
/// counted by `conflict.proc_steps`, which these points hold to at most
/// linear growth in the width (it was quadratic, and uncounted, before the
/// collision tests stopped enumerating processor pairs).
pub fn trajectory() -> Vec<ScalingParams> {
    let mut out = Vec::new();
    for unroll in [4, 8, 16, 32, 64, 128] {
        out.push(ScalingParams {
            idiom: ScalingIdiom::Stencil,
            unroll,
            procs: 16,
        });
    }
    for procs in [64, 256, 1024] {
        out.push(ScalingParams {
            idiom: ScalingIdiom::Stencil,
            unroll: 16,
            procs,
        });
    }
    for unroll in [4, 8, 16, 32, 64] {
        out.push(ScalingParams {
            idiom: ScalingIdiom::Flag,
            unroll,
            procs: 4,
        });
    }
    out
}

/// A two-point subset for CI smoke runs: one config per idiom, each a
/// member of the full [`trajectory`] so a smoke run can be gated against
/// a committed full-trajectory baseline by config id.
pub fn smoke_trajectory() -> Vec<ScalingParams> {
    vec![
        ScalingParams {
            idiom: ScalingIdiom::Stencil,
            unroll: 8,
            procs: 16,
        },
        ScalingParams {
            idiom: ScalingIdiom::Flag,
            unroll: 8,
            procs: 4,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use syncopt_frontend::prepare_program;

    #[test]
    fn every_trajectory_point_parses() {
        for p in trajectory().iter().chain(smoke_trajectory().iter()) {
            let k = generate(p);
            prepare_program(&k.source)
                .unwrap_or_else(|e| panic!("{} failed frontend: {e}\n{}", p.id(), k.source));
        }
    }

    #[test]
    fn smoke_points_are_members_of_the_full_trajectory() {
        let full: Vec<String> = trajectory().iter().map(ScalingParams::id).collect();
        for p in smoke_trajectory() {
            assert!(
                full.contains(&p.id()),
                "{} has no full-trajectory twin; the CI smoke gate would not join it",
                p.id()
            );
        }
    }

    #[test]
    fn config_ids_are_stable_and_unique() {
        let ids: Vec<String> = trajectory().iter().map(ScalingParams::id).collect();
        assert!(ids.contains(&"stencil_u128_p16".to_string()));
        assert!(ids.contains(&"stencil_u16_p1024".to_string()));
        assert!(ids.contains(&"flag_u64_p4".to_string()));
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
    }

    #[test]
    fn stencil_access_count_grows_with_unroll() {
        use syncopt_ir::lower::lower_main;
        let small = generate(&ScalingParams {
            idiom: ScalingIdiom::Stencil,
            unroll: 4,
            procs: 4,
        });
        let large = generate(&ScalingParams {
            idiom: ScalingIdiom::Stencil,
            unroll: 32,
            procs: 4,
        });
        let count = |k: &Kernel| {
            lower_main(&prepare_program(&k.source).unwrap())
                .unwrap()
                .accesses
                .len()
        };
        assert!(count(&large) > 4 * count(&small) / 2);
    }

    #[test]
    fn stencil_owner_block_is_mostly_pruned() {
        use syncopt_ir::lower::lower_main;
        let k = generate(&ScalingParams {
            idiom: ScalingIdiom::Stencil,
            unroll: 32,
            procs: 16,
        });
        let cfg = lower_main(&prepare_program(&k.source).unwrap()).unwrap();
        let analysis = syncopt_core::analyze_for(&cfg, k.procs);
        let candidates = analysis.metrics.get("cycle.candidate_pairs");
        let kept = candidates - analysis.metrics.get("cycle.pruned_candidates");
        assert!(
            candidates >= 10 * kept.max(1),
            "owner-computed accesses should prune ≥90% of candidates \
             ({candidates} candidates, {kept} not pruned)"
        );
    }

    /// The machine-width axis: the conflict set's per-processor work may
    /// grow with the width, never with its square. (One guarded block of the
    /// stencil is evaluated per processor id, so linear is the floor; a
    /// processor-*pair* enumeration reads 256× between these two points.)
    #[test]
    fn conflict_work_grows_at_most_linearly_with_the_machine_width() {
        use syncopt_ir::lower::lower_main;
        let at = |procs: u32| {
            let k = generate(&ScalingParams {
                idiom: ScalingIdiom::Stencil,
                unroll: 16,
                procs,
            });
            let cfg = lower_main(&prepare_program(&k.source).unwrap()).unwrap();
            syncopt_core::analyze_for(&cfg, procs).metrics
        };
        let (narrow, wide) = (at(64), at(1024));
        assert_eq!(
            narrow.get("conflict.pair_tests"),
            wide.get("conflict.pair_tests"),
            "the program text is the same, so the same site pairs are tested"
        );
        let (narrow, wide) = (
            narrow.get("conflict.proc_steps"),
            wide.get("conflict.proc_steps"),
        );
        assert!(
            narrow > 0,
            "the guarded halo read is evaluated per processor"
        );
        assert!(
            wide <= 16 * narrow,
            "1024 processors cost {wide} steps, 64 cost {narrow}: more than the width ratio"
        );
    }

    #[test]
    fn flag_idiom_requires_the_figure_eight_delays() {
        use syncopt_ir::lower::lower_main;
        let k = generate(&ScalingParams {
            idiom: ScalingIdiom::Flag,
            unroll: 4,
            procs: 4,
        });
        let cfg = lower_main(&prepare_program(&k.source).unwrap()).unwrap();
        let analysis = syncopt_core::analyze_for(&cfg, k.procs);
        assert!(!analysis.delay_ss.is_empty());
    }
}
