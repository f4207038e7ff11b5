//! The shared sweep driver for the evaluation bench binaries.
//!
//! Every figure harness (`fig12`, `fig13`, `machines`, `weak_scaling`)
//! used to carry its own copy of the same boilerplate: pick a processor
//! count, generate kernels, run each configuration sequentially, print a
//! table. This module centralizes the two shared pieces:
//!
//! * [`SweepOptions`] / [`parse_args`] — the common `--procs`, `--preset`
//!   and `--threads` command line, so every harness can be shrunk for CI
//!   (`--preset smoke`) or resized (`--procs N`) uniformly;
//! * [`run_ordered`] — the deterministic parallel fan-out of the counter
//!   suites ([`syncopt::bench::run_ordered`]): independent sweep
//!   configurations are claimed by up to `threads` workers, and the
//!   results are merged back **in spec order**. A harness that formats
//!   from the returned vector therefore emits a bit-identical report at
//!   any thread count.

pub use syncopt::bench::run_ordered;

/// Which configuration grid a harness should sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preset {
    /// The full figure-quality grid (the default).
    #[default]
    Full,
    /// A small subset sized for CI smoke runs.
    Smoke,
}

/// The command line shared by the figure harnesses.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Override for the harness's default processor count (single-size
    /// harnesses) or an upper bound on the swept counts (scaling
    /// harnesses).
    pub procs: Option<u32>,
    /// Grid selection.
    pub preset: Preset,
    /// Worker threads for the sweep (1 = in-place sequential).
    pub threads: usize,
}

impl SweepOptions {
    /// The harness's processor count: the `--procs` override, the smoke
    /// size under `--preset smoke`, or the full default.
    pub fn procs_or(&self, full: u32, smoke: u32) -> u32 {
        self.procs.unwrap_or(match self.preset {
            Preset::Full => full,
            Preset::Smoke => smoke,
        })
    }

    /// Filters a scaling harness's processor-count axis: the smoke preset
    /// keeps `smoke_len` points, and `--procs N` drops counts above `N`.
    pub fn filter_counts(&self, counts: &[u32], smoke_len: usize) -> Vec<u32> {
        let take = match self.preset {
            Preset::Full => counts.len(),
            Preset::Smoke => smoke_len.min(counts.len()),
        };
        counts
            .iter()
            .take(take)
            .copied()
            .filter(|&p| self.procs.is_none_or(|cap| p <= cap))
            .collect()
    }
}

/// Parses `--procs N`, `--preset full|smoke` and `--threads T` from the
/// process arguments. Prints a usage line naming `bin` and exits with
/// status 2 on anything it does not recognize, so each harness keeps a
/// strict flag set.
pub fn parse_args(bin: &str) -> SweepOptions {
    match try_parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{bin}: {msg}");
            eprintln!("usage: {bin} [--procs N] [--preset full|smoke] [--threads T]");
            std::process::exit(2);
        }
    }
}

fn try_parse(mut argv: impl Iterator<Item = String>) -> Result<SweepOptions, String> {
    let mut opts = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--procs" => {
                opts.procs = Some(
                    argv.next()
                        .ok_or("--procs needs a value")?
                        .parse()
                        .map_err(|e| format!("bad --procs: {e}"))?,
                );
            }
            "--preset" => {
                opts.preset = match argv.next().ok_or("--preset needs a value")?.as_str() {
                    "full" => Preset::Full,
                    "smoke" => Preset::Smoke,
                    other => return Err(format!("unknown preset `{other}` (full|smoke)")),
                };
            }
            "--threads" => {
                opts.threads = argv
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_shared_flags() {
        let opts = try_parse(
            ["--procs", "8", "--preset", "smoke", "--threads", "3"]
                .map(str::to_string)
                .into_iter(),
        )
        .unwrap();
        assert_eq!(opts.procs, Some(8));
        assert_eq!(opts.preset, Preset::Smoke);
        assert_eq!(opts.threads, 3);
        assert!(try_parse(["--bogus".to_string()].into_iter()).is_err());
        assert!(try_parse(["--preset".to_string(), "tiny".to_string()].into_iter()).is_err());
        assert!(try_parse(["--sim-shards".to_string(), "2".to_string()].into_iter()).is_err());
        assert_eq!(try_parse(std::iter::empty()).unwrap().threads, 1);
    }

    #[test]
    fn procs_or_and_filter_counts_respect_preset_and_override() {
        let full = SweepOptions {
            threads: 1,
            ..SweepOptions::default()
        };
        assert_eq!(full.procs_or(64, 8), 64);
        assert_eq!(full.filter_counts(&[1, 2, 4, 8], 2), vec![1, 2, 4, 8]);

        let smoke = SweepOptions {
            preset: Preset::Smoke,
            threads: 1,
            ..SweepOptions::default()
        };
        assert_eq!(smoke.procs_or(64, 8), 8);
        assert_eq!(smoke.filter_counts(&[1, 2, 4, 8], 2), vec![1, 2]);

        let capped = SweepOptions {
            procs: Some(4),
            threads: 1,
            ..SweepOptions::default()
        };
        assert_eq!(capped.procs_or(64, 8), 4);
        assert_eq!(capped.filter_counts(&[1, 2, 4, 8], 2), vec![1, 2, 4]);
    }
}
