//! Generated inputs: which programs each workload runs, and in what order.
//!
//! Everything here is a pure function of `--seed`; the program under test
//! only ever sees the generated sources.

use syncopt::core::corpus::corpus_program;
use syncopt::kernels::scaling::{self, ScalingIdiom, ScalingParams};
use syncopt::kernels::{all_kernels, Kernel};

/// One input program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Stable name, unique within a workload together with `procs`
    /// (`Ocean`, `stencil_u16`, `corpus_17`).
    pub id: String,
    /// Program class: per-layer medians are reported per class.
    pub class: &'static str,
    /// `minisplit` source text.
    pub source: String,
    /// Processor count to compile and simulate for.
    pub procs: u32,
}

impl Program {
    fn kernel(k: Kernel, class: &'static str) -> Program {
        Program {
            id: k.name.to_string(),
            class,
            source: k.source,
            procs: k.procs,
        }
    }

    fn scaling(idiom: ScalingIdiom, unroll: u32, procs: u32, class: &'static str) -> Program {
        let params = ScalingParams {
            idiom,
            unroll,
            procs,
        };
        Program {
            id: format!("{}_u{unroll}", idiom.label()),
            class,
            source: scaling::generate(&params).source,
            procs,
        }
    }
}

/// SplitMix64, the generator the repo's own corpus uses.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Corpus programs per `compile_cold` pass.
pub const CORPUS_DRAW: u64 = 220;

/// The 236 programs of one `compile_cold` pass, in three thirds of roughly
/// equal compile time:
///
/// * **wide** — the five kernels and the u16 stencil at 256 processors
///   (analysis-bound: 4–17 ms each);
/// * **long** — the u32/u64/u128 stencils at 16 processors and the u32/u64
///   flag handshakes at 4 (analysis and codegen grow with the unroll);
/// * **small** — 220 random corpus programs drawn at `seed` plus the five
///   kernels at 16 processors (≈ 0.25 ms each: frontend and lowering set
///   the median).
pub fn compile_set(seed: u64) -> Vec<Program> {
    let mut out: Vec<Program> = all_kernels(256)
        .into_iter()
        .map(|k| Program::kernel(k, "wide"))
        .collect();
    out.push(Program::scaling(ScalingIdiom::Stencil, 16, 256, "wide"));
    for unroll in [32, 64, 128] {
        out.push(Program::scaling(ScalingIdiom::Stencil, unroll, 16, "long"));
    }
    for unroll in [32, 64] {
        out.push(Program::scaling(ScalingIdiom::Flag, unroll, 4, "long"));
    }
    for i in 0..CORPUS_DRAW {
        let draw = seed.wrapping_add(i);
        out.push(Program {
            id: format!("corpus_{draw}"),
            class: "small",
            source: corpus_program(draw),
            procs: 4,
        });
    }
    out.extend(
        all_kernels(16)
            .into_iter()
            .map(|k| Program::kernel(k, "small")),
    );
    out
}

/// **SIMSET**, the twelve simulated programs: Ocean / EM3D / Cholesky /
/// Health at 64 and 256 processors, Epithel at 16 and 64 (its event count
/// grows fastest: 330 k events at 64), and the u16 stencil at 64 and 256
/// (sparse: ≈ 10 k events spread over many cycles). Event-dense and
/// cycle-bound programs sit side by side so an event-queue change that
/// helps one and hurts the other shows.
pub fn sim_set() -> Vec<Program> {
    let mut out = Vec::new();
    for procs in [64, 256] {
        for k in all_kernels(procs) {
            if k.name != "Epithel" {
                out.push(Program::kernel(k, "kernel"));
            }
        }
        out.push(Program::scaling(ScalingIdiom::Stencil, 16, procs, "sparse"));
    }
    for procs in [16, 64] {
        for k in all_kernels(procs) {
            if k.name == "Epithel" {
                out.push(Program::kernel(k, "dense"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_set_is_236_programs_in_three_classes() {
        let set = compile_set(1);
        assert_eq!(set.len(), 236);
        let count = |c: &str| set.iter().filter(|p| p.class == c).count();
        assert_eq!((count("wide"), count("long"), count("small")), (6, 5, 225));
    }

    #[test]
    fn seed_picks_the_corpus_draw_and_nothing_else() {
        let (a, b) = (compile_set(1), compile_set(2));
        assert_eq!(a[11].id, "corpus_1");
        assert_eq!(b[11].id, "corpus_2");
        // Overlapping draws share programs; the fixed members are equal.
        assert_eq!(a[12].source, b[11].source);
        assert_eq!(a[0].source, b[0].source);
        assert_eq!(compile_set(1)[100].source, a[100].source);
    }

    #[test]
    fn sim_set_pairs_are_unique() {
        let set = sim_set();
        assert_eq!(set.len(), 12);
        let mut keys: Vec<(String, u32)> = set.iter().map(|p| (p.id.clone(), p.procs)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 12);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(9).shuffle(&mut a);
        Rng::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<u32>>());
    }
}
