//! The `key = value` configuration format.
//!
//! Both DSEARCH and DPRml are tailored through "a straightforward
//! configuration file" (paper §3.1/§3.2). This module implements that
//! format: one `key = value` pair per line, `#` comments, blank lines
//! ignored, keys case-insensitive. Typed accessors return a
//! [`ConfigError`] naming the offending key so application-level error
//! messages stay useful.

use std::collections::BTreeMap;
use std::fmt;

/// Error raised by configuration parsing or typed access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A line was not of the form `key = value`.
    Malformed { line_number: usize, line: String },
    /// The same key appeared twice.
    Duplicate { key: String },
    /// A required key was absent.
    Missing { key: String },
    /// A value could not be parsed as the requested type.
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Malformed { line_number, line } => {
                write!(
                    f,
                    "line {line_number}: expected `key = value`, got `{line}`"
                )
            }
            ConfigError::Duplicate { key } => write!(f, "duplicate key `{key}`"),
            ConfigError::Missing { key } => write!(f, "missing required key `{key}`"),
            ConfigError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "key `{key}`: cannot parse `{value}` as {expected}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// An immutable bag of `key = value` settings.
///
/// ```
/// use biodist_util::config::Config;
/// let cfg = Config::parse("algorithm = sw  # kernel\ntop_hits = 25\n").unwrap();
/// assert_eq!(cfg.get("Algorithm"), Some("sw"));
/// assert_eq!(cfg.get_u64_or("top_hits", 10).unwrap(), 25);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Config {
    entries: BTreeMap<String, String>,
}

impl Config {
    /// Parses the configuration text format.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut entries = BTreeMap::new();
        for (i, raw) in text.lines().enumerate() {
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(ConfigError::Malformed {
                    line_number: i + 1,
                    line: raw.to_string(),
                });
            };
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if key.is_empty() {
                return Err(ConfigError::Malformed {
                    line_number: i + 1,
                    line: raw.to_string(),
                });
            }
            if entries.insert(key.clone(), value).is_some() {
                return Err(ConfigError::Duplicate { key });
            }
        }
        Ok(Self { entries })
    }

    /// Raw string lookup (key is case-insensitive).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .get(&key.to_ascii_lowercase())
            .map(|s| s.as_str())
    }

    /// Returns the string value for a required key.
    pub fn require(&self, key: &str) -> Result<&str, ConfigError> {
        self.get(key).ok_or_else(|| ConfigError::Missing {
            key: key.to_string(),
        })
    }

    fn parse_as<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ConfigError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| ConfigError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// Integer value with a default.
    pub fn get_u64_or(&self, key: &str, default: u64) -> Result<u64, ConfigError> {
        Ok(self
            .parse_as::<u64>(key, "an unsigned integer")?
            .unwrap_or(default))
    }

    /// Float value with a default.
    pub fn get_f64_or(&self, key: &str, default: f64) -> Result<f64, ConfigError> {
        Ok(self.parse_as::<f64>(key, "a number")?.unwrap_or(default))
    }

    /// Boolean value with a default. Accepts `true/false/yes/no/on/off/1/0`.
    pub fn get_bool_or(&self, key: &str, default: bool) -> Result<bool, ConfigError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => match v.to_ascii_lowercase().as_str() {
                "true" | "yes" | "on" | "1" => Ok(true),
                "false" | "no" | "off" | "0" => Ok(false),
                _ => Err(ConfigError::BadValue {
                    key: key.to_string(),
                    value: v.to_string(),
                    expected: "a boolean (true/false/yes/no/on/off/1/0)",
                }),
            },
        }
    }

    /// Number of defined keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no keys are defined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_typical_file() {
        let cfg = Config::parse(
            "# DSEARCH configuration\n\
             algorithm = smith-waterman\n\
             matrix    = blosum62   # protein scoring\n\
             gap_open  = 11\n\
             gap_extend = 1\n\
             \n\
             top_hits = 25\n",
        )
        .unwrap();
        assert_eq!(cfg.get("algorithm"), Some("smith-waterman"));
        assert_eq!(cfg.get("MATRIX"), Some("blosum62"));
        assert_eq!(cfg.get_u64_or("top_hits", 10).unwrap(), 25);
        assert_eq!(cfg.get_u64_or("absent", 10).unwrap(), 10);
        assert_eq!(cfg.len(), 5);
    }

    #[test]
    fn comment_only_and_blank_lines_are_ignored() {
        let cfg = Config::parse("# nothing\n\n   \n# more\n").unwrap();
        assert!(cfg.is_empty());
    }

    #[test]
    fn value_may_contain_equals_sign() {
        let cfg = Config::parse("expr = a=b\n").unwrap();
        assert_eq!(cfg.get("expr"), Some("a=b"));
    }

    #[test]
    fn malformed_line_is_reported_with_number() {
        let err = Config::parse("ok = 1\nnot a pair\n").unwrap_err();
        assert_eq!(
            err,
            ConfigError::Malformed {
                line_number: 2,
                line: "not a pair".into()
            }
        );
    }

    #[test]
    fn duplicate_keys_are_rejected_case_insensitively() {
        let err = Config::parse("Key = 1\nKEY = 2\n").unwrap_err();
        assert_eq!(err, ConfigError::Duplicate { key: "key".into() });
    }

    #[test]
    fn require_names_missing_key() {
        let cfg = Config::parse("").unwrap();
        let err = cfg.require("database").unwrap_err();
        assert_eq!(
            err,
            ConfigError::Missing {
                key: "database".into()
            }
        );
    }

    #[test]
    fn typed_accessors_reject_garbage() {
        let cfg = Config::parse("n = twelve\nb = maybe\n").unwrap();
        assert!(matches!(
            cfg.get_u64_or("n", 0),
            Err(ConfigError::BadValue { .. })
        ));
        assert!(matches!(
            cfg.get_bool_or("b", false),
            Err(ConfigError::BadValue { .. })
        ));
    }

    #[test]
    fn booleans_accept_all_documented_spellings() {
        let cfg = Config::parse("a=yes\nb=OFF\nc=1\nd=False\n").unwrap();
        assert!(cfg.get_bool_or("a", false).unwrap());
        assert!(!cfg.get_bool_or("b", true).unwrap());
        assert!(cfg.get_bool_or("c", false).unwrap());
        assert!(!cfg.get_bool_or("d", true).unwrap());
    }

    #[test]
    fn floats_parse_with_default_fallback() {
        let cfg = Config::parse("alpha = 0.5\n").unwrap();
        assert_eq!(cfg.get_f64_or("alpha", 1.0).unwrap(), 0.5);
        assert_eq!(cfg.get_f64_or("beta", 1.0).unwrap(), 1.0);
    }

    #[test]
    fn error_display_is_informative() {
        let err = ConfigError::BadValue {
            key: "gap".into(),
            value: "x".into(),
            expected: "a number",
        };
        assert_eq!(err.to_string(), "key `gap`: cannot parse `x` as a number");
    }
}
