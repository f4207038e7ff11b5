//! `compile_set(1)` of the repo benchmark (`benchmark/src/inputs.rs`),
//! rebuilt from the same generators: the 236 programs one `compile_cold`
//! pass compiles, in its order. Test binaries include it with
//! `#[path = "common/compile_set.rs"] mod compile_set;`.

use syncopt::core::corpus::corpus_program;
use syncopt::kernels::all_kernels;
use syncopt::kernels::scaling::{self, ScalingIdiom, ScalingParams};

/// One program of the set.
pub struct Program {
    /// `wide`, `long` or `small`.
    pub class: &'static str,
    /// A name unique within the set.
    pub id: String,
    pub source: String,
    pub procs: u32,
}

fn scaling_program(idiom: ScalingIdiom, unroll: u32, procs: u32, class: &'static str) -> Program {
    let params = ScalingParams {
        idiom,
        unroll,
        procs,
    };
    Program {
        class,
        id: format!("{idiom:?}_u{unroll}_p{procs}").to_lowercase(),
        source: scaling::generate(&params).source,
        procs,
    }
}

/// The wide, long and small classes, in the benchmark's order.
pub fn compile_set() -> Vec<Program> {
    let kernels = |procs, class| {
        all_kernels(procs).into_iter().map(move |k| Program {
            class,
            id: format!("{}_p{procs}", k.name).to_lowercase(),
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
        id: format!("corpus_{draw}"),
        source: corpus_program(draw),
        procs: 4,
    }));
    out.extend(kernels(16, "small"));
    out
}
