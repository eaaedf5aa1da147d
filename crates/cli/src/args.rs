//! The one command-line grammar of `mdmp`: a subcommand (one word, or
//! `cluster submit`) followed by `--key value`, `--key=value` and `--flag`
//! options, with typed accessors and helpful errors.
//!
//! Each [`Command`] names its flags (the options that take no value); every
//! other option takes one. A command reads its options through the typed
//! accessors, which mark them as read, and then calls
//! [`ParsedArgs::reject_unknown`], the typo guard for everything it did not
//! read.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A subcommand of `mdmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `compute`: a matrix profile from CSV series.
    Compute,
    /// `motifs`: mine a stored profile for motifs.
    Motifs,
    /// `discords`: mine a stored profile for discords.
    Discords,
    /// `generate`: write a synthetic dataset.
    Generate,
    /// `estimate`: modelled runtime at any scale.
    Estimate,
    /// `serve`: run the job service (also a cluster worker node).
    Serve,
    /// `submit`: send one job to a service.
    Submit,
    /// `status`: job status, stats, metrics or shutdown.
    Status,
    /// `stream`: drive a streaming session.
    Stream,
    /// `info`: devices and precision modes.
    Info,
    /// `cluster submit`: shard one job across worker nodes.
    ClusterSubmit,
}

impl Command {
    /// Every command, in usage order.
    pub const ALL: [Command; 11] = [
        Command::Compute,
        Command::Motifs,
        Command::Discords,
        Command::Generate,
        Command::Estimate,
        Command::Serve,
        Command::Submit,
        Command::Status,
        Command::Stream,
        Command::Info,
        Command::ClusterSubmit,
    ];

    /// The command as typed on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Command::Compute => "compute",
            Command::Motifs => "motifs",
            Command::Discords => "discords",
            Command::Generate => "generate",
            Command::Estimate => "estimate",
            Command::Serve => "serve",
            Command::Submit => "submit",
            Command::Status => "status",
            Command::Stream => "stream",
            Command::Info => "info",
            Command::ClusterSubmit => "cluster submit",
        }
    }

    /// The options of this command that take no value.
    pub fn flags(self) -> &'static [&'static str] {
        match self {
            Command::Compute => &["self-join", "no-clamp", "report", "repair-dropouts"],
            Command::Estimate => &["self-join", "no-clamp"],
            Command::Submit => &["wait"],
            Command::Status => &["metrics", "shutdown", "abort"],
            Command::ClusterSubmit => &["metrics"],
            _ => &[],
        }
    }

    /// Read the command words at the head of `raw`; returns the command
    /// and how many words it took.
    fn from_words(raw: &[String]) -> Result<(Command, usize), ArgError> {
        let first = raw
            .first()
            .ok_or_else(|| ArgError("missing subcommand".into()))?;
        if first.starts_with("--") {
            return Err(ArgError(format!(
                "expected a subcommand before options, found '{first}'"
            )));
        }
        if first == "cluster" {
            return match raw.get(1).map(String::as_str) {
                Some("submit") => Ok((Command::ClusterSubmit, 2)),
                Some("serve") => Err(ArgError(
                    "unknown cluster subcommand 'serve' (submit): a worker node is `mdmp serve`"
                        .into(),
                )),
                Some(other) => Err(ArgError(format!(
                    "unknown cluster subcommand '{other}' (submit)"
                ))),
                None => Err(ArgError("missing cluster subcommand (submit)".into())),
            };
        }
        Command::ALL
            .into_iter()
            .find(|c| c.name() == first)
            .map(|c| (c, 1))
            .ok_or_else(|| ArgError(format!("unknown command '{first}'")))
    }
}

/// Parsed command line: a subcommand plus its options.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    /// The subcommand.
    pub command: Command,
    /// Value options; `None` when the option was given without a value.
    options: BTreeMap<String, Option<String>>,
    flags: Vec<String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Argument-parsing/validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parse raw arguments (without the program name).
    pub fn parse(raw: &[String]) -> Result<ParsedArgs, ArgError> {
        let (command, words) = Command::from_words(raw)?;
        let mut options = BTreeMap::new();
        let mut flags: Vec<String> = Vec::new();
        let mut iter = raw[words..].iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument '{arg}' (options start with --)"
                )));
            };
            if key.is_empty() {
                return Err(ArgError("empty option name '--'".into()));
            }
            let (key, inline) = match key.split_once('=') {
                Some((k, v)) => (k, Some(v.to_string())),
                None => (key, None),
            };
            let twice = || ArgError(format!("option --{key} given twice"));
            if command.flags().contains(&key) {
                if inline.is_some() || iter.peek().is_some_and(|next| !next.starts_with("--")) {
                    return Err(ArgError(format!("--{key} is a flag and takes no value")));
                }
                if flags.iter().any(|f| f == key) {
                    return Err(twice());
                }
                flags.push(key.to_string());
                continue;
            }
            // A value option without a value is kept as such: reading it
            // reports the missing value, and if nothing reads it the typo
            // guard reports an unknown option.
            let value = inline.or_else(|| iter.next_if(|next| !next.starts_with("--")).cloned());
            if options.insert(key.to_string(), value).is_some() {
                return Err(twice());
            }
        }
        Ok(ParsedArgs {
            command,
            options,
            flags,
            consumed: std::cell::RefCell::new(Vec::new()),
        })
    }

    /// The raw value of option `key`, marking it as read.
    fn raw(&self, key: &str) -> Result<Option<&str>, ArgError> {
        self.consumed.borrow_mut().push(key.to_string());
        match self.options.get(key) {
            None => Ok(None),
            Some(None) => Err(ArgError(format!("--{key} needs a value"))),
            Some(Some(value)) => Ok(Some(value)),
        }
    }

    /// An optional typed option.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: fmt::Display,
    {
        self.raw(key)?
            .map(|raw| {
                raw.parse()
                    .map_err(|e| ArgError(format!("invalid value for --{key}: {e}")))
            })
            .transpose()
    }

    /// A required typed option.
    pub fn require<T: FromStr>(&self, key: &str) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        self.get(key)?
            .ok_or_else(|| ArgError(format!("missing required option --{key}")))
    }

    /// An optional typed option with a default.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// A boolean flag (present or absent); `key` must be one of the
    /// command's [`Command::flags`].
    pub fn flag(&self, key: &str) -> bool {
        debug_assert!(
            self.command.flags().contains(&key),
            "--{key} is not a flag of '{}'",
            self.command.name()
        );
        self.consumed.borrow_mut().push(key.to_string());
        self.flags.iter().any(|f| f == key)
    }

    /// After reading everything, reject unknown options (typo guard).
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        for key in self.options.keys().chain(self.flags.iter()) {
            if !consumed.iter().any(|c| c == key) {
                return Err(ArgError(format!("unknown option --{key}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<ParsedArgs, ArgError> {
        let raw: Vec<String> = parts.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&raw)
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["compute", "--m", "64", "--self-join", "--tiles=16"]).unwrap();
        assert_eq!(a.command, Command::Compute);
        assert_eq!(a.require::<usize>("m").unwrap(), 64);
        assert_eq!(a.get_or::<usize>("tiles", 1).unwrap(), 16);
        assert!(a.flag("self-join"));
        assert!(!a.flag("report"));
        assert!(a.reject_unknown().is_ok());
    }

    #[test]
    fn missing_required_option() {
        let a = parse(&["compute"]).unwrap();
        let err = a.require::<usize>("m").unwrap_err();
        assert!(err.to_string().contains("--m"));
    }

    #[test]
    fn invalid_typed_value() {
        let a = parse(&["compute", "--m", "abc"]).unwrap();
        assert!(a.require::<usize>("m").is_err());
    }

    #[test]
    fn duplicate_option_rejected() {
        for command in [&["compute"][..], &["cluster", "submit"]] {
            for tail in [
                &["--m", "1", "--m", "2"][..],
                &["--m=1", "--m=2"],
                &["--m", "1", "--m=2"],
            ] {
                let line = [command, tail].concat();
                let err = parse(&line).unwrap_err();
                assert_eq!(err.0, "option --m given twice", "{line:?}");
            }
        }
        let err = parse(&["status", "--metrics", "--metrics"]).unwrap_err();
        assert_eq!(err.0, "option --metrics given twice");
    }

    #[test]
    fn missing_subcommand_and_positional_garbage() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--m", "1"]).is_err());
        assert!(parse(&["compute", "stray"]).is_err());
        assert_eq!(parse(&["cmd"]).unwrap_err().0, "unknown command 'cmd'");
        assert!(parse(&["cluster"]).is_err());
        assert!(parse(&["cluster", "frobnicate"]).is_err());
    }

    #[test]
    fn unknown_option_detected() {
        let a = parse(&["compute", "--m", "64", "--typo", "1"]).unwrap();
        let _ = a.require::<usize>("m");
        let err = a.reject_unknown().unwrap_err();
        assert_eq!(err.0, "unknown option --typo");
    }

    #[test]
    fn defaults_and_optionals() {
        let a = parse(&["estimate", "--n", "1024"]).unwrap();
        assert_eq!(a.get_or::<String>("mode", "fp64".into()).unwrap(), "fp64");
        assert_eq!(a.get::<usize>("gpus").unwrap(), None);
        assert_eq!(a.require::<usize>("n").unwrap(), 1024);
    }

    /// A flag followed by a value is an error for every flag of every
    /// command: the value must not be taken for the flag's own, which
    /// would leave the flag unset (`submit --wait 5` would not wait,
    /// `status --shutdown now` would not shut down). A bare flag parses.
    #[test]
    fn flag_followed_by_a_value_is_an_error() {
        let mut checked = 0;
        for command in Command::ALL {
            let words: Vec<&str> = command.name().split(' ').collect();
            for &flag in command.flags() {
                let option = format!("--{flag}");
                let want = format!("--{flag} is a flag and takes no value");
                for tail in [
                    vec![option.as_str(), "5"],
                    vec![option.as_str(), "now", "--m", "8"],
                    vec![format!("{option}=1").as_str()],
                ] {
                    let err = parse(&[&words[..], &tail[..]].concat()).unwrap_err();
                    assert_eq!(err.0, want, "{} {tail:?}", command.name());
                }
                let a = parse(&[&words[..], &[option.as_str(), "--m", "8"]].concat()).unwrap();
                assert!(a.flag(flag));
                assert_eq!(a.require::<usize>("m").unwrap(), 8);
                checked += 1;
            }
        }
        // --self-join and --no-clamp belong to compute and estimate.
        assert_eq!(checked, 11);
    }

    #[test]
    fn value_option_without_a_value() {
        let a = parse(&["cluster", "submit", "--m", "--nodes", "a:1"]).unwrap();
        assert_eq!(a.require::<usize>("m").unwrap_err().0, "--m needs a value");
        let a = parse(&["submit", "--n", "64", "--bogus"]).unwrap();
        let _ = a.get::<usize>("n");
        assert_eq!(a.reject_unknown().unwrap_err().0, "unknown option --bogus");
    }

    #[test]
    fn cluster_submit_shares_the_grammar() {
        let a = parse(&["cluster", "submit", "--m=16", "--nodes", "a:1"]).unwrap();
        assert_eq!(a.command, Command::ClusterSubmit);
        assert_eq!(a.require::<usize>("m").unwrap(), 16);
        let err = parse(&["cluster", "submit", "--m", "16", "--m", "8"]).unwrap_err();
        assert_eq!(err.0, "option --m given twice");
        let err = parse(&["cluster", "serve", "--addr", "127.0.0.1:1"]).unwrap_err();
        assert!(err.0.contains("`mdmp serve`"), "{err}");
    }
}
