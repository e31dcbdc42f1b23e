//! The one command model shared by the `moccml` CLI and the daemon: a
//! typed [`Command`] built from either an argument list
//! ([`Command::from_args`]) or a protocol [`Request`]
//! ([`Command::from_request`]). Both funnel their raw knobs through
//! [`Command::new`], so ranges are checked in one place; only the
//! daemon path fills its own defaults and clamps to the
//! [`ServiceConfig`] caps.

use crate::cli::USAGE;
use crate::protocol::{Method, Request, RequestOptions};
use crate::service::ServiceConfig;
use moccml_engine::{
    ExploreOptions, Lexicographic, MaxParallel, MinSerial, Policy, Random, SafeMaxParallel,
};
use moccml_smc::SmcOptions;
use std::borrow::Cow;

/// Exploration state bound the daemon applies when a request names none.
const DAEMON_MAX_STATES: usize = 100_000;

/// Text a command reads: a file named on the command line (read when
/// the command runs), or text sent inline in a protocol request.
pub(crate) enum Input {
    File(String),
    Inline(String),
}

impl Input {
    pub(crate) fn read(&self) -> Result<Cow<'_, str>, String> {
        match self {
            Input::File(path) => std::fs::read_to_string(path)
                .map(Cow::Owned)
                .map_err(|e| format!("cannot read `{path}`: {e}")),
            Input::Inline(text) => Ok(Cow::Borrowed(text)),
        }
    }

    /// How messages name this input: the file path, or `fallback` for
    /// inline text, which has none.
    pub(crate) fn label<'a>(&'a self, fallback: &'a str) -> &'a str {
        match self {
            Input::File(path) => path,
            Input::Inline(_) => fallback,
        }
    }
}

/// What a [`Command`] does.
pub(crate) enum Op {
    Check(ExploreOptions),
    Explore(ExploreOptions),
    Simulate {
        steps: usize,
        policy_name: String,
        policy: Box<dyn Policy>,
    },
    /// Replay a recorded schedule (`Schedule::parse_lines` format).
    Conformance(Input),
    Statistical(SmcOptions),
    Lint {
        deny_warnings: bool,
    },
}

/// One validated verification command; `stats` (CLI only) also
/// measures throughput.
pub(crate) struct Command {
    pub(crate) spec: Input,
    pub(crate) op: Op,
    pub(crate) stats: bool,
}

/// Output format of a CLI command.
pub(crate) enum Format {
    Text,
    Json,
}

/// The flags each subcommand accepts; `--stats` and `--statistical` are
/// switches, every other flag takes a value. (`--trace` is taken off
/// the argument list before dispatch and applies to all subcommands.)
fn accepted_flags(command: &str, statistical: bool) -> Option<&'static str> {
    Some(match (command, statistical) {
        ("check", false) => "--workers --max-states --max-depth --stats --format --statistical",
        ("check", true) => {
            "--statistical --workers --epsilon --delta --prob-threshold --max-trace-len --seed \
             --format"
        }
        ("explore", _) => "--workers --max-states --max-depth --stats --format",
        ("simulate", _) => "--steps --policy --seed --format",
        ("conformance", _) => "--stats --format",
        ("lint", _) => "--deny --format",
        ("serve", _) => "--listen --workers --cache-capacity --queue-depth",
        _ => return None,
    })
}

/// A subcommand's argument list split into positionals and flags, every
/// flag checked against what the subcommand accepts.
pub(crate) struct Argv {
    positional: Vec<String>,
    /// `(flag, value)`; switches carry an empty value.
    flags: Vec<(String, String)>,
}

impl Argv {
    /// Splits `args` (command first) for the subcommand `args[0]`.
    pub(crate) fn parse(args: &[String]) -> Result<Argv, String> {
        let command = args.first().map_or("", String::as_str);
        let rest = args.get(1..).unwrap_or_default();
        let statistical = command == "check" && rest.iter().any(|a| a == "--statistical");
        let accepted = accepted_flags(command, statistical)
            .ok_or_else(|| format!("unknown command `{command}`\n{USAGE}"))?;
        let mut argv = Argv {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut tokens = rest.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                argv.positional.push(token.clone());
            } else if !accepted.split(' ').any(|flag| flag == token) {
                let mode = if statistical { " --statistical" } else { "" };
                return Err(format!(
                    "unknown option `{token}` for `{command}{mode}`\n{USAGE}"
                ));
            } else if token == "--stats" || token == "--statistical" {
                argv.flags.push((token.clone(), String::new()));
            } else {
                let value = tokens.next().ok_or(format!("{token} needs a value"))?;
                argv.flags.push((token.clone(), value.clone()));
            }
        }
        Ok(argv)
    }

    /// The positional arguments, which must be exactly those `names`.
    pub(crate) fn positional(&self, names: &[&str]) -> Result<&[String], String> {
        if let Some(missing) = names.get(self.positional.len()) {
            return Err(format!("missing {missing}\n{USAGE}"));
        }
        if let Some(extra) = self.positional.get(names.len()) {
            return Err(format!("unexpected argument `{extra}`\n{USAGE}"));
        }
        Ok(&self.positional)
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The flag's value (the last one given, if repeated).
    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        let mut values = self.flags.iter().filter(|(flag, _)| flag == name);
        values.next_back().map(|(_, value)| value.as_str())
    }

    pub(crate) fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{name}: invalid value `{v}`"))
            })
            .transpose()
    }
}

impl Command {
    /// Builds a command from the CLI argument list (command first, no
    /// `--trace`), returning it with the requested output format.
    pub(crate) fn from_args(args: &[String]) -> Result<(Command, Format), String> {
        let argv = Argv::parse(args)?;
        let method = match args[0].as_str() {
            "check" if argv.has("--statistical") => Method::Smc,
            name => Method::parse(name)
                .filter(|m| m.is_job() && *m != Method::Smc)
                .ok_or_else(|| format!("unknown command `{name}`\n{USAGE}"))?,
        };
        let positional = if method == Method::Conformance {
            argv.positional(&["<spec.mcc> path", "<trace> path"])?
        } else {
            argv.positional(&["<spec.mcc> path"])?
        };
        let format = match argv.value("--format") {
            None | Some("text") => Format::Text,
            Some("json") => Format::Json,
            Some(other) => return Err(format!("--format expects `text` or `json`, got `{other}`")),
        };
        let deny_warnings = match argv.value("--deny") {
            None => false,
            Some("warnings") => true,
            Some(other) => return Err(format!("--deny expects `warnings`, got `{other}`")),
        };
        let options = RequestOptions {
            workers: argv.parsed("--workers")?,
            max_states: argv.parsed("--max-states")?,
            max_depth: argv.parsed("--max-depth")?,
            timeout_ms: None,
            steps: argv.parsed("--steps")?,
            policy: argv.value("--policy").map(str::to_owned),
            seed: argv.parsed("--seed")?,
            deny_warnings,
            epsilon: argv.parsed("--epsilon")?,
            delta: argv.parsed("--delta")?,
            prob_threshold: argv.parsed("--prob-threshold")?,
            max_trace_len: argv.parsed("--max-trace-len")?,
        };
        let spec = Input::File(positional[0].clone());
        let trace = positional.get(1).cloned().map(Input::File);
        let command = Command::new(method, spec, trace, &options, None)?;
        let stats = argv.has("--stats");
        Ok((Command { stats, ..command }, format))
    }

    /// Builds a command from a protocol job request, with the daemon's
    /// defaults and every budget clamped to the `config` caps.
    pub(crate) fn from_request(
        request: &Request,
        config: &ServiceConfig,
    ) -> Result<Command, String> {
        let spec = request.spec.clone().map(Input::Inline);
        let spec = spec.ok_or("request needs a `spec` (the .mcc text)")?;
        let trace = request.trace.clone().map(Input::Inline);
        Command::new(request.method, spec, trace, &request.options, Some(config))
    }

    /// The one validation step both front ends share: checks ranges,
    /// applies defaults, and — when `caps` is given (the daemon) —
    /// clamps budgets to the service limits instead of rejecting them.
    pub(crate) fn new(
        method: Method,
        spec: Input,
        trace: Option<Input>,
        o: &RequestOptions,
        caps: Option<&ServiceConfig>,
    ) -> Result<Command, String> {
        let (workers, max_states, max_depth, steps) = match caps {
            None => (o.workers, o.max_states, o.max_depth, o.steps),
            Some(c) => (
                Some(o.workers.unwrap_or(1).clamp(1, c.max_job_workers.max(1))),
                Some(o.max_states.unwrap_or(DAEMON_MAX_STATES).min(c.max_states)),
                Some(o.max_depth.unwrap_or(usize::MAX).min(c.max_depth)),
                Some(o.steps.unwrap_or(20).min(c.max_steps)),
            ),
        };
        let explore = || {
            let d = ExploreOptions::default();
            ExploreOptions {
                max_states: max_states.unwrap_or(d.max_states),
                max_depth: max_depth.unwrap_or(d.max_depth),
                workers: workers.map_or(d.workers, |n| n.max(1)),
                ..d
            }
        };
        let op = match method {
            Method::Check => Op::Check(explore()),
            Method::Explore => Op::Explore(explore()),
            Method::Simulate => {
                let name = o.policy.as_deref().unwrap_or("lexicographic");
                Op::Simulate {
                    steps: steps.unwrap_or(20),
                    policy: boxed_policy(name, o.seed.unwrap_or(42))?,
                    policy_name: name.to_owned(),
                }
            }
            Method::Conformance => Op::Conformance(
                trace.ok_or("conformance needs a `trace` (Schedule::parse_lines text)")?,
            ),
            Method::Smc => Op::Statistical(smc_options(o, workers)?),
            Method::Lint => Op::Lint {
                deny_warnings: o.deny_warnings,
            },
            other => return Err(format!("`{}` is not a verification job", other.name())),
        };
        Ok(Command {
            spec,
            op,
            stats: false,
        })
    }
}

/// Validated [`SmcOptions`]: out-of-range knobs become messages instead
/// of the library's panics.
fn smc_options(o: &RequestOptions, workers: Option<usize>) -> Result<SmcOptions, String> {
    let unit = [
        ("epsilon", o.epsilon),
        ("delta", o.delta),
        ("prob-threshold", o.prob_threshold),
    ];
    for (name, value) in unit {
        if let Some(v) = value.filter(|v| !(*v > 0.0 && *v < 1.0)) {
            return Err(format!("{name} must be in (0, 1), got {v}"));
        }
    }
    if o.max_trace_len == Some(0) {
        return Err("max-trace-len must be positive".to_owned());
    }
    let d = SmcOptions::default();
    Ok(SmcOptions {
        epsilon: o.epsilon.unwrap_or(d.epsilon),
        delta: o.delta.unwrap_or(d.delta),
        prob_threshold: o.prob_threshold,
        max_trace_len: o.max_trace_len.unwrap_or(d.max_trace_len),
        seed: o.seed.unwrap_or(d.seed),
        workers: workers.map_or(d.workers, |w| w.max(1)),
    })
}

pub(crate) fn boxed_policy(name: &str, seed: u64) -> Result<Box<dyn Policy>, String> {
    Ok(match name {
        "lexicographic" => Box::new(Lexicographic),
        "random" => Box::new(Random::new(seed)),
        "max-parallel" => Box::new(MaxParallel),
        "min-serial" => Box::new(MinSerial),
        "safe" => Box::new(SafeMaxParallel),
        other => {
            return Err(format!(
                "unknown policy `{other}` (expected lexicographic, random, \
                 max-parallel, min-serial or safe)"
            ))
        }
    })
}
