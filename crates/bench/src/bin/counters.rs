//! `counters [--suite delay|sim] [--smoke] [--out PATH] [--check BASELINE]
//! [--format human|json]`: runs a work-counter suite and prints its report
//! (`syncopt_bench::counters`).

use std::process::ExitCode;

use syncopt_bench::counters::{Cli, USAGE};

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("counters: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("counters: {msg}");
            ExitCode::FAILURE
        }
    }
}
