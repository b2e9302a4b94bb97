//! Persisted run records: spec + outcome, one JSON object per run.
//!
//! A record is a pure function of its spec (outcomes are deterministic
//! given the spec — see the module docs in [`crate::spec`]), so its
//! serialization is byte-stable: replaying a sweep from cache produces
//! JSONL identical to the first pass. Wall-clock measurements therefore
//! live in sweep stats, never in records.

use crate::json::Json;
use crate::spec::{RunSpec, SCHEMA_VERSION};

/// The outcome of executing one [`RunSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Per-repetition benchmark scores, in repetition order.
    pub scores: Vec<f64>,
    /// SWAPs the router inserted across the benchmark's circuits.
    pub swap_count: u64,
    /// Native two-qubit gates in the executed circuit(s).
    pub two_qubit_gates: u64,
}

impl RunOutcome {
    /// Mean score across repetitions (0 for an empty run).
    pub fn mean_score(&self) -> f64 {
        if self.scores.is_empty() {
            return 0.0;
        }
        self.scores.iter().sum::<f64>() / self.scores.len() as f64
    }

    /// Population standard deviation across repetitions.
    pub fn std_dev(&self) -> f64 {
        if self.scores.len() < 2 {
            return 0.0;
        }
        let m = self.mean_score();
        (self.scores.iter().map(|s| (s - m) * (s - m)).sum::<f64>() / self.scores.len() as f64)
            .sqrt()
    }
}

/// A cacheable run artifact: the spec, its content hash, and the outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// What was run.
    pub spec: RunSpec,
    /// What it produced.
    pub outcome: RunOutcome,
}

impl RunRecord {
    /// One-line serialization — both the on-disk object format and the
    /// sweep JSONL line format.
    pub fn to_line(&self) -> String {
        self.line_with_hash(&self.spec.content_hash())
    }

    /// [`RunRecord::to_line`] for a caller that already holds the spec's
    /// content hash. The embedded `hash` field is redundant with the spec
    /// (reads check it against the spec) but makes records
    /// self-describing and lets `cache verify` detect spec tampering.
    pub(crate) fn line_with_hash(&self, hash: &str) -> String {
        Json::Obj(vec![
            ("schema".into(), Json::uint(SCHEMA_VERSION)),
            ("hash".into(), Json::str(hash)),
            ("spec".into(), self.spec.to_json()),
            (
                "outcome".into(),
                Json::Obj(vec![
                    (
                        "scores".into(),
                        Json::Arr(
                            self.outcome
                                .scores
                                .iter()
                                .map(|&s| Json::float(s))
                                .collect(),
                        ),
                    ),
                    ("mean_score".into(), Json::float(self.outcome.mean_score())),
                    ("std_dev".into(), Json::float(self.outcome.std_dev())),
                    ("swap_count".into(), Json::uint(self.outcome.swap_count)),
                    (
                        "two_qubit_gates".into(),
                        Json::uint(self.outcome.two_qubit_gates),
                    ),
                ]),
            ),
        ])
        .to_string()
    }

    /// Parses a serialized record and returns it with its stored `hash`
    /// field, checking the schema version, every field and that every
    /// score is finite, but not the hash: the caller decides what the
    /// hash must equal.
    pub(crate) fn parse_unhashed(text: &str) -> Result<(RunRecord, String), String> {
        let value = Json::parse(text)?;
        let schema = value
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("missing schema version")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema} != supported {SCHEMA_VERSION}"
            ));
        }
        let stored_hash = value
            .get("hash")
            .and_then(Json::as_str)
            .ok_or("missing hash")?;
        let spec = RunSpec::from_json(value.get("spec").ok_or("missing spec")?)?;
        let outcome = value.get("outcome").ok_or("missing outcome")?;
        let scores_json = outcome
            .get("scores")
            .and_then(Json::as_arr)
            .ok_or("missing outcome.scores")?;
        let mut scores = Vec::with_capacity(scores_json.len());
        for s in scores_json {
            let s = s.as_f64().ok_or("non-numeric score")?;
            if !s.is_finite() {
                return Err("non-finite score".into());
            }
            scores.push(s);
        }
        let record = RunRecord {
            spec,
            outcome: RunOutcome {
                scores,
                swap_count: outcome
                    .get("swap_count")
                    .and_then(Json::as_u64)
                    .ok_or("missing outcome.swap_count")?,
                two_qubit_gates: outcome
                    .get("two_qubit_gates")
                    .and_then(Json::as_u64)
                    .ok_or("missing outcome.two_qubit_gates")?,
            },
        };
        Ok((record, stored_hash.to_string()))
    }
}

/// Why a record whose stored hash is not its spec's is rejected, by
/// `from_str` and `cache verify` alike.
pub(crate) const HASH_MISMATCH: &str = "stored hash does not match spec";

/// Parses and *validates* a serialized record: schema version must
/// match, the stored hash must equal the recomputed spec hash, and
/// every score must be finite. Any violation is an `Err`, which the
/// store maps to a cache miss.
impl std::str::FromStr for RunRecord {
    type Err = String;

    fn from_str(text: &str) -> Result<RunRecord, String> {
        let (record, stored_hash) = RunRecord::parse_unhashed(text)?;
        if record.spec.content_hash() != stored_hash {
            return Err(HASH_MISMATCH.into());
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn record() -> RunRecord {
        RunRecord {
            spec: RunSpec::new("ghz", vec![("size".into(), "4".into())], "IonQ", 35, 3, 1),
            outcome: RunOutcome {
                scores: vec![0.91, 0.93, 0.9],
                swap_count: 0,
                two_qubit_gates: 3,
            },
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let r = record();
        let line = r.to_line();
        let back = RunRecord::from_str(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn outcome_statistics() {
        let o = record().outcome;
        assert!((o.mean_score() - 0.913333333).abs() < 1e-8);
        assert!(o.std_dev() > 0.0);
        let empty = RunOutcome {
            scores: vec![],
            swap_count: 0,
            two_qubit_gates: 0,
        };
        assert_eq!(empty.mean_score(), 0.0);
        assert_eq!(empty.std_dev(), 0.0);
    }

    #[test]
    fn tampered_spec_fails_hash_validation() {
        let line = record().to_line();
        // Flip the device name without updating the hash.
        let tampered = line.replace("IonQ", "AQT");
        assert!(RunRecord::from_str(&tampered).is_err());
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let line = record().to_line().replace("\"schema\":2", "\"schema\":999");
        let err = RunRecord::from_str(&line).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn garbage_inputs_error_not_panic() {
        for bad in ["", "{", "null", "42", "{\"schema\":1}", "not json at all"] {
            assert!(RunRecord::from_str(bad).is_err(), "{bad:?}");
        }
        // Truncation at every prefix length must never panic.
        let line = record().to_line();
        for i in 0..line.len() {
            let _ = RunRecord::from_str(&line[..i]);
        }
    }

    #[test]
    fn non_finite_scores_are_rejected() {
        let mut r = record();
        r.outcome.scores[1] = f64::NAN; // serializes as null
        assert!(RunRecord::from_str(&r.to_line()).is_err());
    }
}
