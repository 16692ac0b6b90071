//! Minimal argument parser (flag/value pairs after a subcommand).
//!
//! Kept dependency-free on purpose: the workspace's sanctioned external
//! crates do not include an option parser, and the CLI's surface is small.

use std::collections::BTreeMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--flag value` / `--flag` options.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options (`--key` alone stores an empty string).
    pub options: BTreeMap<String, String>,
}

impl Args {
    /// Parses an argument list (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a message when no subcommand is present.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().unwrap_or_default(),
                    _ => String::new(),
                };
                parsed.options.insert(key.to_string(), value);
            } else if parsed.command.is_empty() {
                parsed.command = arg;
            } else {
                parsed.positional.push(arg);
            }
        }
        if parsed.command.is_empty() {
            return Err("missing subcommand".to_string());
        }
        Ok(parsed)
    }

    /// Returns an option value, if present and non-empty.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options
            .get(key)
            .map(String::as_str)
            .filter(|v| !v.is_empty())
    }

    /// Returns an option parsed to `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns a message when the value is present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    /// Whether a bare flag was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Rejects any option outside `accepted`, so a typo or a retired flag
    /// fails loudly instead of being silently ignored.
    ///
    /// # Errors
    ///
    /// `unknown flag --X` for the first option not in `accepted`.
    pub fn reject_unknown(&self, accepted: &[&str]) -> Result<(), String> {
        match self
            .options
            .keys()
            .find(|key| !accepted.contains(&key.as_str()))
        {
            Some(flag) => Err(format!("unknown flag --{flag}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn subcommand_positionals_and_options() {
        let a = parse("run matrix.mtx --engine chason --channels 16 --verbose");
        assert_eq!(a.command, "run");
        assert_eq!(a.positional, vec!["matrix.mtx"]);
        assert_eq!(a.get("engine"), Some("chason"));
        assert_eq!(a.get_or("channels", 0usize).unwrap(), 16);
        assert!(a.has_flag("verbose"));
        assert_eq!(a.get("verbose"), None, "bare flags have no value");
    }

    #[test]
    fn defaults_and_parse_errors() {
        let a = parse("schedule m.mtx --pes abc");
        assert_eq!(a.get_or("channels", 16usize).unwrap(), 16);
        assert!(a.get_or("pes", 8usize).is_err());
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert!(Args::parse(vec!["--flag".to_string()]).is_err());
        assert!(Args::parse(Vec::new()).is_err());
    }

    #[test]
    fn unknown_flags_are_named() {
        let a = parse("serve --workers 4 --wokers 8");
        assert_eq!(
            a.reject_unknown(&["workers"]),
            Err("unknown flag --wokers".to_string())
        );
        assert_eq!(a.reject_unknown(&["workers", "wokers"]), Ok(()));
    }

    #[test]
    fn flag_followed_by_flag_keeps_both() {
        let a = parse("gen --quiet --seed 7");
        assert!(a.has_flag("quiet"));
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
    }
}
