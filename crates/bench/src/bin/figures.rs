//! `figures <name>...|all [--procs N]`: prints the evaluation's tables and
//! figures by name, or lists them (`syncopt_bench::FIGURES`) given none.

fn main() {
    match syncopt_bench::sweep::run(std::env::args().skip(1)) {
        Ok(text) => print!("{text}"),
        Err(msg) => {
            eprintln!("figures: {msg}");
            eprintln!("{}", syncopt_bench::sweep::USAGE);
            std::process::exit(2);
        }
    }
}
