//! Tiny hand-rolled flag parser (no offline argument-parsing crate).

use std::collections::HashMap;

/// Parsed command line: positional arguments plus `--flag value` pairs.
#[derive(Clone, Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

/// Errors produced while reading flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments. Every `--name` consumes the following token as
    /// its value, except a bare `--help`, which is kept as a positional
    /// token (as `-h` is) for the caller to answer with usage.
    ///
    /// # Errors
    ///
    /// Returns an error when a flag has no value or appears twice.
    pub fn parse(raw: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = raw.into_iter();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--").filter(|&name| name != "help") {
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError(format!("flag --{name} needs a value")))?;
                if out.flags.insert(name.to_owned(), value).is_some() {
                    return Err(ArgError(format!("flag --{name} given twice")));
                }
            } else {
                out.positional.push(tok);
            }
        }
        Ok(out)
    }

    /// The positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A flag's raw value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A flag parsed into `T`, or `default` when absent.
    ///
    /// # Errors
    ///
    /// Returns an error when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("flag --{name}: cannot parse {v:?}"))),
        }
    }

    /// Rejects flags outside the allowed set (typo protection).
    ///
    /// # Errors
    ///
    /// Returns an error naming the first unknown flag.
    pub fn check_flags(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for name in self.flags.keys() {
            if !allowed.contains(&name.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{name} (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn positional_and_flags() {
        let a = parse("run-trace trace.txt --nodes 100 --seed 7").unwrap();
        assert_eq!(a.positional(), ["run-trace", "trace.txt"]);
        assert_eq!(a.get("nodes"), Some("100"));
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_or("missing", 42u64).unwrap(), 42);
    }

    #[test]
    fn unknown_flags_rejected() {
        let a = parse("x --nodes 5 --typo 1").unwrap();
        assert!(a.check_flags(&["nodes"]).is_err());
        assert!(a.check_flags(&["nodes", "typo"]).is_ok());
    }

    #[test]
    fn help_is_positional() {
        let a = parse("--help").unwrap();
        assert_eq!(a.positional(), ["--help"]);
        let a = parse("ring --help --nodes 5 -h").unwrap();
        assert_eq!(a.positional(), ["ring", "--help", "-h"]);
        assert_eq!(a.get("nodes"), Some("5"));
    }

    #[test]
    fn errors() {
        assert!(parse("x --flag").is_err());
        assert!(parse("--a 1 --a 2").is_err());
        let a = parse("--n abc").unwrap();
        assert!(a.get_or("n", 0u64).is_err());
    }
}
