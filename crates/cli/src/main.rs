//! `mdmp` — the command-line interface of the reduced-precision
//! multi-dimensional matrix profile reproduction.
//!
//! Run `mdmp` without arguments for usage.

mod args;
mod cluster;
mod commands;
mod profile_io;
mod serve;

use args::{Command, ParsedArgs};
use std::io::{self, Write};

// Usage and error text are written with the result ignored: a reader that
// has gone away (EPIPE) must not turn exit code 2 or 1 into a panic's 101.
fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        let _ = write!(io::stdout(), "{}", commands::usage());
        std::process::exit(if raw.is_empty() { 2 } else { 0 });
    }
    let parsed = match ParsedArgs::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(io::stderr(), "error: {e}\n\n{}", commands::usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = dispatch(&parsed) {
        let _ = writeln!(io::stderr(), "error: {e}");
        std::process::exit(1);
    }
}

/// Run the parsed command.
fn dispatch(args: &ParsedArgs) -> Result<(), String> {
    match args.command {
        Command::Compute => commands::compute(args),
        Command::Motifs => commands::mine(args, false),
        Command::Discords => commands::mine(args, true),
        Command::Generate => commands::generate(args),
        Command::Estimate => commands::estimate(args),
        Command::Serve => serve::serve(args),
        Command::Submit => serve::submit(args),
        Command::Status => serve::status(args),
        Command::Stream => serve::stream(args),
        Command::Info => commands::info(args),
        Command::ClusterSubmit => cluster::submit(args),
    }
}
