//! EXPERIMENTS.md is checked output, not pasted text. Every fenced block
//! of harness output names its command in the info string (```` ```figures
//! fig13 ````); this test runs each command in-process and fails unless
//! the block is byte for byte what the command prints today. On a
//! mismatch it prints the command and its fresh output to paste in.

use syncopt_bench::{sweep, FIGURES};

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");

#[test]
fn every_figures_block_is_what_its_command_prints() {
    let (mut shown, mut stale) = (Vec::new(), String::new());
    let mut lines = EXPERIMENTS.lines().enumerate();
    while let Some((at, line)) = lines.next() {
        let Some(info) = line.strip_prefix("```") else {
            continue;
        };
        let body: String = lines
            .by_ref()
            .take_while(|(_, l)| *l != "```")
            .map(|(_, l)| format!("{l}\n"))
            .collect();
        let args = match info.split_once(' ') {
            Some(("figures", args)) => args,
            _ if info == "bash" => continue,
            _ => panic!(
                "EXPERIMENTS.md:{}: label harness output ```figures <args>",
                at + 1
            ),
        };
        let fresh = sweep::run(args.split_whitespace().map(str::to_string))
            .unwrap_or_else(|e| panic!("`figures {args}`: {e}"));
        if fresh != body {
            stale += &format!("\n`figures {args}` now prints:\n{fresh}");
        }
        shown.extend(args.split_whitespace().next());
    }
    assert!(stale.is_empty(), "stale blocks in EXPERIMENTS.md:{stale}");
    for figure in &FIGURES {
        assert!(
            shown.contains(&figure.name),
            "no `figures {}` block",
            figure.name
        );
    }
}
