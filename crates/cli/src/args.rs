//! A small hand-rolled argument parser (`--key value` flags + positionals).

use std::collections::BTreeMap;

/// Parsed command-line arguments: positional values plus `--key value`
/// options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses raw arguments. `--key value` becomes an option, a bare
    /// `--key` at the end or followed by another `--` token becomes a
    /// boolean flag, everything else is positional.
    pub(crate) fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if let Some(key) = token.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name '--'".into());
                }
                let next_is_value = argv.get(i + 1).is_some_and(|v| !v.starts_with("--"));
                if next_is_value {
                    args.options.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    args.flags.push(key.to_string());
                    i += 1;
                }
            } else {
                args.positional.push(token.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// Positional argument at `idx`.
    pub(crate) fn positional(&self, idx: usize) -> Option<&str> {
        self.positional.get(idx).map(String::as_str)
    }

    /// Number of positional arguments.
    pub(crate) fn positional_len(&self) -> usize {
        self.positional.len()
    }

    /// String option by name.
    pub(crate) fn option(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Parsed numeric option with a default.
    pub(crate) fn option_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse::<T>()
                .map_err(|_| format!("invalid value '{raw}' for --{key}")),
        }
    }

    /// `true` if the boolean flag was given.
    pub(crate) fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn positionals_and_options() {
        let a = parse(&["run", "ghz", "--size", "5", "--device", "IonQ"]);
        assert_eq!(a.positional(0), Some("run"));
        assert_eq!(a.positional(1), Some("ghz"));
        assert_eq!(a.option("size"), Some("5"));
        assert_eq!(a.option("device"), Some("IonQ"));
        assert_eq!(a.positional_len(), 2);
    }

    #[test]
    fn boolean_flags() {
        let a = parse(&["run", "--open", "--shots", "100"]);
        assert!(a.flag("open"));
        assert!(!a.flag("closed"));
        assert_eq!(a.option("shots"), Some("100"));
    }

    #[test]
    fn trailing_flag() {
        let a = parse(&["run", "--open"]);
        assert!(a.flag("open"));
    }

    #[test]
    fn numeric_parsing_with_default() {
        let a = parse(&["x", "--size", "7"]);
        assert_eq!(a.option_parse("size", 3usize).unwrap(), 7);
        assert_eq!(a.option_parse("rounds", 2usize).unwrap(), 2);
        let bad = parse(&["x", "--size", "abc"]);
        assert!(bad.option_parse("size", 3usize).is_err());
    }

    #[test]
    fn rejects_bare_double_dash() {
        let argv = vec!["--".to_string()];
        assert!(Args::parse(&argv).is_err());
    }
}
