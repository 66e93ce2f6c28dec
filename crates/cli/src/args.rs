//! Minimal `--flag value` argument parsing (kept dependency-free).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, `--key value` options and bare flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, Vec<String>>,
    flags: Vec<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = argv.iter().peekable();
        args.command = iter.next().cloned().unwrap_or_default();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if name.is_empty() {
                    return Err("empty option name `--`".into());
                }
                // A value follows unless the next token is another option or absent.
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().cloned().expect("peeked");
                        args.options.entry(name.to_string()).or_default().push(value);
                    }
                    _ => args.flags.push(name.to_string()),
                }
            } else {
                args.positional.push(token.clone());
            }
        }
        Ok(args)
    }

    /// Last value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).and_then(|v| v.last()).map(|s| s.as_str())
    }

    /// All values of a repeatable `--name` option.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.options.get(name).map(|v| v.iter().map(|s| s.as_str()).collect()).unwrap_or_default()
    }

    /// Whether the bare flag `--name` was given.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.contains(&name.to_string())
    }

    /// Required option, parsed.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.get(name).ok_or_else(|| format!("missing required option --{name}"))?;
        raw.parse::<T>().map_err(|_| format!("invalid value for --{name}: `{raw}`"))
    }

    /// Rejects the first option or flag (options in name order, then flags
    /// in command-line order) whose name is not in `known`, so a typo or a
    /// retired option fails loudly instead of being silently ignored.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        let unknown = self.options.keys().chain(&self.flags).find(|n| !known.contains(&n.as_str()));
        match unknown {
            Some(name) => Err(format!("unknown option --{name} for `{}`", self.command)),
            None => Ok(()),
        }
    }

    /// Optional option with a default, parsed.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => {
                raw.parse::<T>().map_err(|_| format!("invalid value for --{name}: `{raw}`"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_vec(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let args = Args::parse(&to_vec(&["solve", "--instance", "a.txt", "--full", "--seed", "7"]))
            .unwrap();
        assert_eq!(args.command, "solve");
        assert_eq!(args.get("instance"), Some("a.txt"));
        assert!(args.has_flag("full"));
        assert_eq!(args.get_or::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(args.get_or::<u64>("missing", 42).unwrap(), 42);
    }

    #[test]
    fn repeatable_options() {
        let args =
            Args::parse(&to_vec(&["simulate", "--fail", "1:0:5", "--fail", "2:3:9"])).unwrap();
        assert_eq!(args.get_all("fail"), vec!["1:0:5", "2:3:9"]);
    }

    #[test]
    fn missing_required_option_is_an_error() {
        let args = Args::parse(&to_vec(&["solve"])).unwrap();
        assert!(args.require::<String>("instance").is_err());
    }

    #[test]
    fn invalid_numeric_value_is_an_error() {
        let args = Args::parse(&to_vec(&["gen", "--clients", "many"])).unwrap();
        assert!(args.require::<usize>("clients").is_err());
    }

    #[test]
    fn unknown_options_and_flags_are_named() {
        let args = Args::parse(&to_vec(&["serve", "--instance", "a.txt", "--naive"])).unwrap();
        assert!(args.reject_unknown(&["instance", "naive"]).is_ok());
        let err = args.reject_unknown(&["instance"]).unwrap_err();
        assert!(err.contains("--naive"), "{err}");
        let err = args.reject_unknown(&["naive"]).unwrap_err();
        assert!(err.contains("--instance") && err.contains("`serve`"), "{err}");
    }

    #[test]
    fn positional_arguments_are_collected() {
        let args = Args::parse(&to_vec(&["experiment", "e1", "--full"])).unwrap();
        assert_eq!(args.positional, vec!["e1"]);
        assert!(args.has_flag("full"));
    }
}
