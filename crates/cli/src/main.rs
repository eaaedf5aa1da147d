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

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print!("{}", commands::usage());
        std::process::exit(if raw.is_empty() { 2 } else { 0 });
    }
    let parsed = match ParsedArgs::parse(&raw) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::usage());
            std::process::exit(2);
        }
    };
    if let Err(e) = dispatch(&parsed) {
        eprintln!("error: {e}");
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
