//! The `figures` command line: figure names and the one `--procs` flag.
//!
//! `figures <name>...|all [--procs N]` prints the named rows of
//! [`FIGURES`] in table order, separated by blank lines; with no name it
//! lists the table. `--procs N` is the machine size of a single-size
//! figure and a cap on an axis figure. It does not apply to the fixed
//! two-processor setups of `table1` and `litmus`.

use std::fmt::Write as _;

use crate::{Draw, Figure, FIGURES};

/// The usage line printed with every command-line error.
pub const USAGE: &str = "usage: figures <name>...|all [--procs N]   (no name lists the figures)";

/// A figure with `--procs` applied: the function returning its text.
type Job = Box<dyn Fn() -> String>;

/// Runs a `figures` command line (without the program name) and returns
/// what it prints: the named figures, or the table's listing when no
/// figure is named.
///
/// # Errors
///
/// An unknown flag or name, `--procs 0`, a cap that leaves an axis empty,
/// or `--procs` on a fixed setup. Nothing is run then.
pub fn run(args: impl IntoIterator<Item = String>) -> Result<String, String> {
    let jobs = parse(args)?;
    if jobs.is_empty() {
        return Ok(listing());
    }
    Ok(jobs.iter().map(|job| job()).collect::<Vec<_>>().join("\n"))
}

fn parse(args: impl IntoIterator<Item = String>) -> Result<Vec<Job>, String> {
    let mut args = args.into_iter();
    let mut named = Vec::new();
    let mut procs = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--procs" => {
                let n: u32 = args
                    .next()
                    .ok_or("--procs needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --procs: {e}"))?;
                if n == 0 {
                    return Err("--procs must be at least 1".into());
                }
                procs = Some(n);
            }
            "all" => named.extend(FIGURES.iter().map(|f| f.name)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name => {
                let figure = FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
                    format!("unknown figure `{name}` (run `figures` for the list)")
                })?;
                named.push(figure.name);
            }
        }
    }
    FIGURES
        .iter()
        .filter(|f| named.contains(&f.name))
        .map(|f| job(f, procs))
        .collect()
}

/// Applies `--procs` to `figure`.
fn job(figure: &'static Figure, procs: Option<u32>) -> Result<Job, String> {
    let name = figure.name;
    match (figure.draw, procs) {
        (Draw::Fixed(draw), None) => Ok(Box::new(draw)),
        (Draw::Fixed(_), Some(_)) => Err(format!(
            "`{name}` is a fixed 2-processor setup; --procs does not apply"
        )),
        (Draw::Procs(default, draw), _) => Ok(Box::new(move || draw(procs.unwrap_or(default)))),
        (Draw::Axis(axis, _), Some(cap)) if cap < axis[0] => Err(format!(
            "--procs {cap} leaves `{name}` no processor count (its axis starts at {})",
            axis[0]
        )),
        (Draw::Axis(axis, draw), _) => {
            let kept: Vec<u32> = axis
                .iter()
                .copied()
                .filter(|&n| n <= procs.unwrap_or(n))
                .collect();
            Ok(Box::new(move || draw(&kept)))
        }
    }
}

fn listing() -> String {
    let mut out = format!("{USAGE}\n\n");
    for figure in &FIGURES {
        let procs = match figure.draw {
            Draw::Fixed(_) => "2 (fixed)".to_string(),
            Draw::Procs(n, _) => n.to_string(),
            Draw::Axis(axis, _) => format!("axis {}..{}", axis[0], axis[axis.len() - 1]),
        };
        let _ = writeln!(out, "  {:<14}{:<14}{}", figure.name, procs, figure.about);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn rejects(line: &str) -> String {
        let rejected = parse(args(line)).err();
        rejected.unwrap_or_else(|| panic!("`figures {line}` must be rejected"))
    }

    #[test]
    fn parse_accepts_the_shared_flags() {
        assert_eq!(parse(args("all")).unwrap().len(), FIGURES.len());
        assert_eq!(parse(args("fig12 fig13 fig12 --procs 8")).unwrap().len(), 2);
        assert_eq!(parse(args("--procs 2 weak_scaling")).unwrap().len(), 1);
        assert!(run(args(""))
            .unwrap()
            .contains("\n  weak_scaling  axis 2..1024  "));
        // Printed in table order, whatever the order named.
        let out = run(args("litmus table1")).unwrap();
        assert!(out.starts_with("Table 1:"), "{out}");
        assert!(out.contains("26\n\nLitmus exploration:"), "{out}");
    }

    #[test]
    fn parse_rejects_what_no_figure_takes() {
        assert!(rejects("fig12 --procs 0").contains("at least 1"));
        assert!(rejects("weak_scaling --procs 1").contains("no processor count"));
        assert!(rejects("fig13 --bogus").contains("unknown flag"));
        assert!(rejects("fig12 --preset smoke").contains("unknown flag `--preset`"));
        assert!(rejects("fig12 --threads 2").contains("unknown flag `--threads`"));
        assert!(rejects("fig14").contains("unknown figure"));
        assert!(rejects("table1 --procs 8").contains("fixed 2-processor"));
        assert!(rejects("litmus --procs 2").contains("fixed 2-processor"));
        assert!(rejects("all --procs 8").contains("`table1`"));
        assert!(rejects("fig12 --procs").contains("needs a value"));
        assert!(rejects("fig12 --procs many").contains("bad --procs"));
    }

    #[test]
    fn procs_sizes_single_figures_and_caps_axes() {
        let sized = run(args("delay_sizes --procs 8")).unwrap();
        assert!(sized.starts_with("Delay-set sizes per kernel (8 processors)\n"));
        let capped = run(args("fig13 --procs 3")).unwrap();
        let points: Vec<&str> = capped
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .filter(|p| p.parse::<u32>().is_ok())
            .collect();
        assert_eq!(points, ["1", "2"]);
    }
}
