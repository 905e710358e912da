//! A small dependency-free flag parser: `--key value` and `--switch`.

use std::collections::HashMap;
use std::fmt;

/// Parsed command-line flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

/// A flag-parsing or validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Flags {
    /// Parses `--key value` pairs and bare `--switch`es. `known_switches`
    /// lists the flags that take no value, `known_values` the flags that
    /// take one; any other `--key` is an error, so a typo or a retired
    /// flag fails loudly instead of being silently ignored.
    pub fn parse(
        args: &[String],
        known_switches: &[&str],
        known_values: &[&str],
    ) -> Result<Flags, ArgError> {
        let mut flags = Flags::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError(format!("unexpected argument `{arg}`")));
            };
            if known_switches.contains(&key) {
                flags.switches.push(key.to_string());
            } else if !known_values.contains(&key) {
                return Err(ArgError(format!("unknown flag --{key}")));
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError(format!("--{key} needs a value")))?;
                flags.values.insert(key.to_string(), value.clone());
            }
        }
        Ok(flags)
    }

    /// True if the bare switch was given.
    #[must_use]
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// The raw value of `--key`, if given.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// A parsed value of `--key`, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: cannot parse `{v}`"))),
        }
    }

    /// [`Flags::get_or`] for a count that must be at least `min`.
    pub fn get_at_least<T>(&self, key: &str, default: T, min: T) -> Result<T, ArgError>
    where
        T: std::str::FromStr + PartialOrd + fmt::Display,
    {
        let v = self.get_or(key, default)?;
        if v < min {
            return Err(ArgError(format!("--{key} must be >= {min}")));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let f = Flags::parse(&args(&["--ms", "30", "--dram-hit"]), &["dram-hit"], &["ms"]).unwrap();
        assert_eq!(f.get("ms"), Some("30"));
        assert!(f.switch("dram-hit"));
        assert!(!f.switch("other"));
        assert_eq!(f.get_or("ms", 0u64).unwrap(), 30);
        assert_eq!(f.get_or("missing", 7u64).unwrap(), 7);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Flags::parse(&args(&["ms"]), &[], &["ms"]).is_err());
        assert!(Flags::parse(&args(&["--ms"]), &[], &["ms"]).is_err());
        let f = Flags::parse(&args(&["--ms", "abc"]), &[], &["ms"]).unwrap();
        assert!(f.get_or("ms", 0u64).is_err());
        // Undeclared keys (typos, retired flags) are rejected, not ignored.
        let typo = Flags::parse(&args(&["--ms", "3", "--sed", "4"]), &[], &["ms", "seed"]);
        assert_eq!(typo.unwrap_err(), ArgError("unknown flag --sed".into()));
        assert!(Flags::parse(&args(&["--reads", "--workers", "2"]), &["reads"], &["ms"]).is_err());
        let f = Flags::parse(&args(&["--qd", "0"]), &[], &["qd"]).unwrap();
        assert_eq!(f.get_at_least("qd", 64usize, 1), Err(ArgError("--qd must be >= 1".into())));
        assert_eq!(f.get_at_least("pages", 8u32, 1), Ok(8));
    }
}
