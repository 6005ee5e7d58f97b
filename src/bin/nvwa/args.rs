//! The one flag parser. Every subcommand's row of `SUBCOMMANDS` lists its
//! positionals and every flag it accepts with the kind of value the flag
//! takes; [`Args::parse`] reads argv against that row before any work, so
//! an unknown flag, a flag without its value or a value that does not
//! parse is a usage error (exit 2, the flag named) and never a default.

use std::process::ExitCode;
use std::str::FromStr;

/// The value a flag takes, with its placeholder in the usage text. A
/// placeholder ending in `...` marks a repeatable flag.
#[derive(Clone, Copy)]
pub enum Value {
    /// No value: the flag is a switch.
    Switch,
    /// Any text.
    Text(&'static str),
    /// An unsigned integer.
    Int(&'static str),
    /// An unsigned integer of at least 1: a count the program cannot run
    /// with at zero.
    Count(&'static str),
    /// A real number.
    Real(&'static str),
}

impl Value {
    fn placeholder(self) -> &'static str {
        match self {
            Value::Switch => "",
            Value::Text(p) | Value::Int(p) | Value::Count(p) | Value::Real(p) => p,
        }
    }

    /// Checks `raw` as this flag's value.
    fn check(self, name: &str, raw: &str) -> Result<(), String> {
        let parses = match self {
            Value::Switch | Value::Text(_) => true,
            Value::Int(_) => raw.parse::<u64>().is_ok(),
            Value::Count(_) if raw.parse::<usize>() == Ok(0) => {
                return Err(format!("{name}: must be at least 1"))
            }
            Value::Count(_) => raw.parse::<usize>().is_ok(),
            Value::Real(_) => raw.parse::<f64>().is_ok(),
        };
        if parses {
            Ok(())
        } else {
            Err(format!("{name}: cannot parse {raw:?}"))
        }
    }
}

/// One accepted flag: its name and the value it takes.
pub type FlagSpec = (&'static str, Value);

/// One subcommand: its name, its entry point, its usage line without the
/// flags (positionals in `<required>`, `[optional]` and `...` repeated
/// form), and every flag it accepts.
pub type Command = (
    &'static str,
    fn(&Args) -> Result<(), ExitCode>,
    &'static str,
    &'static [FlagSpec],
);

/// A command line read against one subcommand's row.
pub struct Args {
    /// The arguments that are neither a flag nor a flag's value.
    pub positional: Vec<String>,
    flags: Vec<(&'static str, String)>,
    known: &'static [FlagSpec],
}

impl Args {
    /// Reads `argv` (the arguments after the subcommand name) against the
    /// row `command`. `Err` names the first usage error: a `--flag` the
    /// row does not list, a value flag whose value is missing or is
    /// another flag, a value that does not parse as its kind, or a
    /// positional count the usage line does not allow.
    pub fn parse(argv: &[String], command: &Command) -> Result<Args, String> {
        let &(name, _, usage, known) = command;
        let mut args = Args {
            positional: Vec::new(),
            flags: Vec::new(),
            known,
        };
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.positional.push(arg.clone());
                continue;
            }
            let Some(&(flag, value)) = known.iter().find(|(flag, _)| flag == arg) else {
                return Err(format!("{arg}: unknown flag"));
            };
            let raw = match value {
                Value::Switch => String::new(),
                _ => (argv.next())
                    .filter(|raw| !raw.starts_with("--"))
                    .ok_or(format!("{flag}: missing value"))?
                    .clone(),
            };
            value.check(flag, &raw)?;
            args.flags.push((flag, raw));
        }
        let slots = usage.split_whitespace().skip(1);
        let required = slots.clone().filter(|s| s.starts_with('<')).count();
        let unbounded = slots.clone().any(|s| s.contains("..."));
        if let Some(extra) = args.positional.get(slots.count()).filter(|_| !unbounded) {
            return Err(format!("{extra}: unexpected argument"));
        }
        if args.positional.len() < required {
            return Err(format!("{name}: missing arguments: {usage}"));
        }
        Ok(args)
    }

    /// Every value of flag `name`, in command-line order.
    fn values(&self, name: &str) -> Vec<&str> {
        debug_assert!(
            self.known.iter().any(|(flag, _)| *flag == name),
            "{name} is not in this subcommand's row"
        );
        (self.flags.iter())
            .filter(|(flag, _)| *flag == name)
            .map(|(_, raw)| raw.as_str())
            .collect()
    }

    /// The value of flag `name` (its first occurrence), `None` when absent.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.values(name).first().copied()
    }

    /// Whether flag `name` is on the command line.
    pub fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The value of flag `name` as a `T`, `None` when absent.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).map(checked)
    }

    /// Every value of repeatable flag `name` as a `T`, in order.
    pub fn all<T: FromStr>(&self, name: &str) -> Vec<T> {
        self.values(name).into_iter().map(checked).collect()
    }

    /// `--threads N` where the row lists it; `None` when absent or `0`
    /// (auto: `NVWA_THREADS`, then hardware parallelism).
    pub fn threads(&self) -> Option<usize> {
        let (_, raw) = self.flags.iter().find(|(flag, _)| *flag == "--threads")?;
        Some(checked(raw)).filter(|&n| n > 0)
    }
}

/// A value [`Args::parse`] has already checked against its kind.
fn checked<T: FromStr>(raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| unreachable!("{raw:?} was checked against the flag table"))
}

/// The usage synopsis of one subcommand: `head`, then every flag of
/// `known` as `[--flag VALUE]`, wrapped at 80 columns.
pub fn synopsis(head: &str, known: &[FlagSpec]) -> String {
    let mut text = head.to_string();
    let mut width = text.len();
    for (name, value) in known {
        let value = value.placeholder();
        let sep = if value.is_empty() { "" } else { " " };
        let item = format!(" [{name}{sep}{value}]");
        if width + item.len() > 80 {
            text += "\n       ";
            width = 7;
        }
        text += &item;
        width += item.len();
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROW: Command = (
        "run",
        |_| Ok(()),
        "run <in> [out]",
        &[
            ("--threads", Value::Int("N")),
            ("--frac", Value::Real("F")),
            ("--reads", Value::Count("N")),
            ("--out", Value::Text("PATH")),
            ("--seed", Value::Int("S...")),
            ("--full", Value::Switch),
        ],
    );

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse(&argv, &ROW)
    }

    #[test]
    fn threads_flag_parsing() {
        let threads = |argv: &[&str]| parse(argv).map(|args| args.threads());
        assert_eq!(threads(&["x", "--threads", "4"]), Ok(Some(4)));
        assert_eq!(threads(&["x", "--threads", "2", "y"]), Ok(Some(2)));
        let missing = Err("--threads: missing value".to_string());
        assert_eq!(threads(&["x", "--threads"]), missing);
        let garbage = Err("--threads: cannot parse \"zero\"".to_string());
        assert_eq!(threads(&["x", "--threads", "zero"]), garbage);
        assert_eq!(threads(&["x", "--threads", "0"]), Ok(None));
        assert_eq!(threads(&["x"]), Ok(None));
        let frac = parse(&["x", "--frac", "0.5"]).unwrap();
        assert_eq!(frac.get::<f64>("--frac"), Some(0.5));
    }

    #[test]
    fn positionals_skip_flag_values() {
        let args = parse(&["--out", "o.txt", "in", "--full", "out"]).unwrap();
        assert_eq!(args.positional, ["in", "out"]);
        assert_eq!(args.text("--out"), Some("o.txt"));
        assert!(args.has("--full"));
        let unexpected = Err("c: unexpected argument".to_string());
        assert_eq!(parse(&["a", "b", "c"]).map(|a| a.positional), unexpected);
        let missing = Err("run: missing arguments: run <in> [out]".to_string());
        assert_eq!(parse(&["--full"]).map(|a| a.positional), missing);
    }

    #[test]
    fn values_are_checked_up_front() {
        let error = |argv: &[&str]| parse(argv).err().unwrap();
        assert_eq!(error(&["x", "--out"]), "--out: missing value");
        assert_eq!(error(&["x", "--out", "--full"]), "--out: missing value");
        assert_eq!(error(&["x", "--reads", "0"]), "--reads: must be at least 1");
        assert_eq!(error(&["x", "--seed", "-1"]), "--seed: cannot parse \"-1\"");
        assert_eq!(error(&["x", "--sede", "1"]), "--sede: unknown flag");
    }

    #[test]
    fn repeatable_flags_collect_in_order() {
        let args = parse(&["x", "--seed", "3", "--seed", "1"]).unwrap();
        assert_eq!(args.all::<u64>("--seed"), [3, 1]);
        assert_eq!(args.get::<u64>("--seed"), Some(3));
    }

    #[test]
    fn synopsis_wraps_at_80_columns() {
        let text = synopsis("  nvwa run <in> [out]", ROW.3);
        assert!(text.starts_with("  nvwa run <in> [out] [--threads N] [--frac F]"));
        assert!(text.contains("[--seed S...]") && text.contains("[--full]"));
        assert!(text.lines().all(|line| line.len() <= 80));
    }
}
