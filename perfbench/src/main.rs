//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run record and one line per metric, then, as the last line
//! of standard output, the JSON result. Exits 0 only when every op and
//! every check passed; 2 on a usage error.

use perfbench::workloads::Shape;
use perfbench::{metrics, parse_args, run};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--trace-dir <dir>]",
                perfbench::WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let report = run(&args, Shape::DEFAULT);
    for (key, value) in &report.info {
        println!("# {key}: {value}");
    }
    for (name, value) in &report.metrics {
        println!(
            "{name:<34} {value:>18.6} {}",
            metrics::unit(name).unwrap_or("")
        );
    }
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{}", report.json_line());
    std::process::exit(if report.correct { 0 } else { 1 });
}
