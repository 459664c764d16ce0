//! Output checks against the reference committed with the benchmark.
//!
//! The reference is a text file of `key<TAB>value` lines.  A value is a
//! list of space-separated tokens; tokens that are both decimal numbers
//! (they contain `.` or `e`) compare within [`FLOAT_TOLERANCE`], every other
//! token compares exactly.

use std::collections::BTreeMap;

/// Largest accepted difference of a fractional value (0.1 percentage
/// point of an element or resistor deviation).
const FLOAT_TOLERANCE: f64 = 1e-3;

/// Expected values by key.
pub struct Reference {
    entries: BTreeMap<String, String>,
}

impl Reference {
    /// Parses the `key<TAB>value` lines of a reference file; `#` lines are
    /// comments.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('\t')
                .ok_or_else(|| format!("reference line {}: no tab", n + 1))?;
            if entries.insert(key.to_owned(), value.to_owned()).is_some() {
                return Err(format!("reference line {}: duplicate key {key}", n + 1));
            }
        }
        Ok(Reference { entries })
    }

    /// Replaces the value of `key` (used by tests to corrupt a reference).
    #[cfg(test)]
    pub fn set(&mut self, key: &str, value: &str) {
        self.entries.insert(key.to_owned(), value.to_owned());
    }
}

/// Compares results against a [`Reference`], or, with no reference,
/// records them so a new reference can be written.
pub struct Checker {
    reference: Option<Reference>,
    recorded: BTreeMap<String, String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their check.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

/// The checks of one operation, collected before it is counted.
#[derive(Default)]
pub struct OpCheck {
    errors: Vec<String>,
}

impl OpCheck {
    /// Notes a failed condition.
    pub fn fail(&mut self, message: String) {
        self.errors.push(message);
    }
}

impl Checker {
    /// A checker comparing against `reference`.
    pub fn new(reference: Reference) -> Self {
        Self::with(Some(reference))
    }

    /// A checker that accepts everything and records it.
    pub fn recording() -> Self {
        Self::with(None)
    }

    fn with(reference: Option<Reference>) -> Self {
        Checker {
            reference,
            recorded: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Compares `value` with the reference entry for `key`.
    pub fn expect(&mut self, op: &mut OpCheck, key: String, value: String) {
        if let Some(reference) = &self.reference {
            match reference.entries.get(&key) {
                None => op.fail(format!("{key}: not in the reference")),
                Some(expected) if !values_match(expected, &value) => {
                    op.fail(format!("{key}: got `{value}`, reference `{expected}`"))
                }
                Some(_) => {}
            }
        }
        self.recorded.insert(key, value);
    }

    /// Counts one operation: failed when the call errored or any check of
    /// `op` failed.
    pub fn finish<T, E: std::fmt::Display>(
        &mut self,
        name: &str,
        call: &Result<T, E>,
        op: OpCheck,
    ) {
        self.attempted += 1;
        let mut errors = op.errors;
        if let Err(e) = call {
            errors.push(format!("call failed: {e}"));
        }
        if !errors.is_empty() {
            self.failed += 1;
            self.failures.push(format!("{name}: {}", errors.join("; ")));
        }
    }

    /// The recorded results as reference-file lines.
    pub fn reference_text(&self) -> String {
        self.recorded
            .iter()
            .map(|(k, v)| format!("{k}\t{v}\n"))
            .collect()
    }
}

fn values_match(expected: &str, actual: &str) -> bool {
    let (e, a): (Vec<&str>, Vec<&str>) = (
        expected.split_whitespace().collect(),
        actual.split_whitespace().collect(),
    );
    e.len() == a.len() && e.iter().zip(&a).all(|(e, a)| tokens_match(e, a))
}

fn tokens_match(expected: &str, actual: &str) -> bool {
    let decimal = |t: &str| {
        t.contains(['.', 'e'])
            .then(|| t.parse::<f64>().ok())
            .flatten()
    };
    match (decimal(expected), decimal(actual)) {
        (Some(e), Some(a)) => (e - a).abs() <= FLOAT_TOLERANCE,
        _ => expected == actual,
    }
}

/// Formats an optional fraction for a reference value (`-` for `None`).
pub fn fraction(value: Option<f64>) -> String {
    value.map_or("-".to_owned(), |v| format!("{v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimals_compare_within_tolerance_and_the_rest_exactly() {
        assert!(values_match("12 0.25 R1", "12 0.2509 R1"));
        assert!(!values_match("12 0.25 R1", "12 0.252 R1"));
        assert!(!values_match("12 0.25", "13 0.25"));
        assert!(!values_match("12", "12.0004"));
        assert!(!values_match("-", "0.1"));
        assert!(!values_match("1 2", "1 2 3"));
    }

    #[test]
    fn missing_and_mismatched_keys_fail_the_operation() {
        let mut checker = Checker::new(Reference::parse("a\t1\nb\t0.5\n").unwrap());
        let mut op = OpCheck::default();
        checker.expect(&mut op, "a".into(), "1".into());
        checker.expect(&mut op, "b".into(), "0.5004".into());
        checker.finish("ok", &Ok::<(), String>(()), op);
        let mut op = OpCheck::default();
        checker.expect(&mut op, "c".into(), "1".into());
        checker.finish("missing", &Ok::<(), String>(()), op);
        checker.finish("errored", &Err::<(), _>("boom"), OpCheck::default());
        assert_eq!((checker.attempted, checker.failed), (3, 2));
        assert!(Reference::parse("no tab here").is_err());
    }
}
