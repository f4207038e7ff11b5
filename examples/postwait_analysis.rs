//! Walkthrough of the paper's §5.1 example (Figure 5): how post-wait
//! synchronization analysis removes spurious delay edges.
//!
//! The producer writes `X` and `Y` and posts `F`; the consumer waits on
//! `F` and reads `Y` then `X`. Shasha–Snir alone finds cycles between the
//! data accesses and forces each write (and read) to complete before the
//! next — serializing the communication. The synchronization analysis
//! derives the precedence relation `R` through the post→wait edge and
//! shows only the delays *against the synchronization operations* are
//! needed.
//!
//! Run with: `cargo run --example postwait_analysis`

use syncopt::core::{analyze, DelaySet};
use syncopt::frontend::prepare_program;
use syncopt::ir::access::AccessKind;
use syncopt::ir::cfg::Cfg;
use syncopt::ir::lower::lower_main;

const SRC: &str = r#"
    shared int X; shared int Y; flag F;
    fn main() {
        int v; int w;
        if (MYPROC == 0) {
            X = 1;      // a1
            Y = 2;      // a2
            post F;     // a3
        } else {
            wait F;     // a4
            v = Y;      // a5
            w = X;      // a6
        }
    }
"#;

fn label(cfg: &Cfg, a: syncopt::ir::ids::AccessId) -> String {
    let info = cfg.accesses.info(a);
    let var = info
        .var
        .map(|v| cfg.vars.info(v).name.clone())
        .unwrap_or_default();
    format!("{a}:{:?} {var}", info.kind)
}

fn print_delays(cfg: &Cfg, title: &str, d: &DelaySet) {
    println!("{title} ({} pairs):", d.len());
    for (u, v) in d.pairs() {
        println!("  {}  →  {}", label(cfg, u), label(cfg, v));
    }
    println!();
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = lower_main(&prepare_program(SRC)?)?;
    let analysis = analyze(&cfg);

    print_delays(&cfg, "Shasha–Snir delay set D_SS", &analysis.delay_ss);
    print_delays(&cfg, "initial sync delay set D1 (step 2)", &analysis.d1);

    println!(
        "precedence relation R (step 3+4, {} pairs):",
        analysis.sync.precedence.len()
    );
    for (a, b) in analysis.sync.precedence.pairs() {
        println!("  {}  happens-before  {}", label(&cfg, a), label(&cfg, b));
    }
    println!();

    print_delays(&cfg, "refined delay set D (step 6)", &analysis.delay_sync);

    // The paper's claim, mechanically checked:
    let writes: Vec<_> = cfg
        .accesses
        .iter()
        .filter(|(_, i)| i.kind == AccessKind::Write)
        .map(|(id, _)| id)
        .collect();
    let gone = !analysis.delay_sync.contains(writes[0], writes[1]);
    println!(
        "producer writes may pipeline: {} (they could not under D_SS: {})",
        gone,
        analysis.delay_ss.contains(writes[0], writes[1]),
    );
    Ok(())
}
