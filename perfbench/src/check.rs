//! The output check: stored per-workload fingerprints and the rule that
//! every repetition of a run reproduces the same simulated output.

use std::fmt;

/// The simulated output that identifies a run: any change to the model,
/// the workload generator or the event order changes at least one field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub events: u64,
    pub state_digest: u64,
    pub gc_issue_digest: u64,
    pub requests_completed: u64,
    /// Per tenant: `(name, [submitted, completed, rejected, expired])`.
    pub tenants: Vec<(String, [u64; 4])>,
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "events={} state_digest={:#018x} gc_issue_digest={:#018x} completed={}",
            self.events, self.state_digest, self.gc_issue_digest, self.requests_completed
        )?;
        for (name, [s, c, r, e]) in &self.tenants {
            write!(f, " tenant.{name}={s}/{c}/{r}/{e}")?;
        }
        Ok(())
    }
}

/// Fingerprints recorded with the benchmark, one per line:
/// `<workload> seed=<n> span_ns=<n> <fingerprint>`.
const STORED: &str = include_str!("../fingerprints.txt");

/// The key a stored fingerprint line starts with.
pub fn key(workload: &str, seed: u64, span_ns: u64) -> String {
    format!("{workload} seed={seed} span_ns={span_ns}")
}

/// The stored fingerprint for this key, if one was recorded.
pub fn stored(key: &str) -> Option<&'static str> {
    STORED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' '))
}

/// Checks one repetition's fingerprint against the stored one (when this
/// key has one) and against the run's first repetition. Returns the
/// mismatches found.
pub fn fingerprint_errors(key: &str, got: &Fingerprint, first: &Fingerprint) -> Vec<String> {
    let mut errors = Vec::new();
    let line = got.to_string();
    if let Some(want) = stored(key) {
        if line != want {
            errors.push(format!(
                "fingerprint mismatch for `{key}`:\n  stored {want}\n  got    {line}"
            ));
        }
    }
    if got != first {
        errors.push(format!(
            "repetitions disagree for `{key}`:\n  first {first}\n  this  {line}"
        ));
    }
    errors
}

/// True when `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            events: 10,
            state_digest: 0xabc,
            gc_issue_digest: 0x1,
            requests_completed: 3,
            tenants: vec![("a".into(), [4, 3, 1, 0])],
        }
    }

    #[test]
    fn fingerprint_line_round_trips_through_the_key() {
        let line = format!("{} {}", key("w", 1, 5), fp());
        assert_eq!(
            line.strip_prefix(&key("w", 1, 5)).unwrap().trim_start(),
            fp().to_string()
        );
        assert!(fp().to_string().ends_with("tenant.a=4/3/1/0"));
    }

    #[test]
    fn disagreeing_repetitions_are_reported() {
        let mut other = fp();
        other.events += 1;
        assert!(fingerprint_errors("no-such-key", &fp(), &fp()).is_empty());
        assert_eq!(fingerprint_errors("no-such-key", &other, &fp()).len(), 1);
    }

    #[test]
    fn metric_names_are_checked() {
        assert!(valid_metric_name("model.io_stage.flash_chip_us"));
        assert!(valid_metric_name("sim_ms_per_wall_s"));
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(""));
    }
}
