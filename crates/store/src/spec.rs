//! The canonical run specification and its stable content hash.
//!
//! A [`RunSpec`] names everything that determines a run's outcome: the
//! benchmark (id + parameters), the device, the transpile configuration,
//! shots, repetitions, seed, and division. Two runs with equal specs are
//! bit-identical by construction (the simulator derives every RNG stream
//! from the seed alone), so the spec's SHA-256 content hash is a sound
//! cache key: hit ⇒ the stored outcome equals what a fresh run would
//! produce.
//!
//! Hash inputs are the *canonical string* — a line-per-field encoding
//! with sorted, escaped parameters — not the JSON serialization, so
//! cosmetic changes to the JSON layout cannot silently invalidate every
//! cache. Anything that legitimately changes outcomes must appear in the
//! canonical string; bumping [`SCHEMA_VERSION`] invalidates the world.

use crate::json::Json;

/// Version of both the canonical hash encoding and the on-disk record
/// schema. Stored entries whose schema differs are treated as misses and
/// collected by `gc`.
///
/// v2: the transpile configuration became a named pipeline id (replacing
/// the `optimize` + `verify` flag pair), so cache keys distinguish
/// pipelines.
pub const SCHEMA_VERSION: u64 = 2;

/// Transpiler configuration, as stable strings (the store crate does not
/// depend on the transpiler; executors parse these back into their own
/// enums and must reject unknown values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranspileSpec {
    /// Placement strategy id: `trivial`, `greedy`, or `noise-aware`.
    pub placement: String,
    /// Name of one of the transpiler's built-in pipelines:
    /// `closed-default`, `closed-stages`, `no-optimize`, ...
    pub pipeline: String,
}

impl TranspileSpec {
    /// Decodes a wire `transpile` object: string `placement` and
    /// `pipeline` fields.
    pub(crate) fn from_json(value: Option<&Json>) -> Result<TranspileSpec, String> {
        let Some(t @ Json::Obj(_)) = value else {
            return Err("missing or non-object field 'transpile'".into());
        };
        let field = |key: &str| t.get(key).and_then(Json::as_str).map(str::to_string);
        Ok(TranspileSpec {
            placement: field("placement").ok_or("missing transpile.placement")?,
            pipeline: field("pipeline").ok_or("missing transpile.pipeline")?,
        })
    }
}

/// Decodes a wire `params` object into `(name, value)` pairs; every value
/// must be a string.
pub(crate) fn params_from_json(value: Option<&Json>) -> Result<Vec<(String, String)>, String> {
    let Some(Json::Obj(fields)) = value else {
        return Err("missing or non-object field 'params'".into());
    };
    let mut params = Vec::with_capacity(fields.len());
    for (k, v) in fields {
        let v = v
            .as_str()
            .ok_or_else(|| format!("non-string param '{k}'"))?;
        params.push((k.clone(), v.to_string()));
    }
    Ok(params)
}

impl Default for TranspileSpec {
    fn default() -> Self {
        TranspileSpec {
            placement: "greedy".into(),
            pipeline: "closed-default".into(),
        }
    }
}

/// A fully-specified evaluation run — the unit of caching.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Benchmark id, e.g. `ghz` or `qaoa-swap`.
    pub benchmark: String,
    /// Benchmark parameters as string key/value pairs, e.g.
    /// `[("size", "4")]`. Kept sorted by key (see `RunSpec::normalize`).
    pub params: Vec<(String, String)>,
    /// Device display name, e.g. `IBM-Montreal`.
    pub device: String,
    /// Transpiler configuration.
    pub transpile: TranspileSpec,
    /// Shots per circuit per repetition.
    pub shots: u64,
    /// Independent repetitions.
    pub repetitions: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// `closed` or `open` (readout-mitigated) division.
    pub division: String,
}

impl RunSpec {
    /// A spec with default transpile config and closed division.
    pub fn new(
        benchmark: impl Into<String>,
        params: Vec<(String, String)>,
        device: impl Into<String>,
        shots: u64,
        repetitions: u64,
        seed: u64,
    ) -> RunSpec {
        let mut spec = RunSpec {
            benchmark: benchmark.into(),
            params,
            device: device.into(),
            transpile: TranspileSpec::default(),
            shots,
            repetitions,
            seed,
            division: "closed".into(),
        };
        spec.normalize();
        spec
    }

    /// Sorts parameters by key so equal specs hash equally regardless of
    /// construction order.
    pub(crate) fn normalize(&mut self) {
        self.params.sort();
    }

    /// The canonical encoding the content hash is computed over: one
    /// `key=value` line per field in fixed order, parameters sorted,
    /// values escaped so embedded newlines cannot forge field
    /// boundaries.
    pub fn canonical_string(&self) -> String {
        let mut spec = self.clone();
        spec.normalize();
        let mut out = String::new();
        out.push_str(&format!("schema={SCHEMA_VERSION}\n"));
        out.push_str(&format!("benchmark={}\n", escape(&spec.benchmark)));
        for (k, v) in &spec.params {
            out.push_str(&format!("param.{}={}\n", escape(k), escape(v)));
        }
        out.push_str(&format!("device={}\n", escape(&spec.device)));
        out.push_str(&format!(
            "placement={}\n",
            escape(&spec.transpile.placement)
        ));
        out.push_str(&format!("pipeline={}\n", escape(&spec.transpile.pipeline)));
        out.push_str(&format!("shots={}\n", spec.shots));
        out.push_str(&format!("repetitions={}\n", spec.repetitions));
        out.push_str(&format!("seed={}\n", spec.seed));
        out.push_str(&format!("division={}\n", escape(&spec.division)));
        out
    }

    /// Stable content address: hex SHA-256 of the canonical string.
    pub fn content_hash(&self) -> String {
        crate::hash::sha256_hex(self.canonical_string().as_bytes())
    }

    /// JSON encoding (field order fixed; serialization is deterministic).
    pub fn to_json(&self) -> Json {
        let mut spec = self.clone();
        spec.normalize();
        let params = Json::Obj(
            spec.params
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                .collect(),
        );
        Json::Obj(vec![
            ("benchmark".into(), Json::str(spec.benchmark)),
            ("params".into(), params),
            ("device".into(), Json::str(spec.device)),
            (
                "transpile".into(),
                Json::Obj(vec![
                    ("placement".into(), Json::str(spec.transpile.placement)),
                    ("pipeline".into(), Json::str(spec.transpile.pipeline)),
                ]),
            ),
            ("shots".into(), Json::uint(spec.shots)),
            ("repetitions".into(), Json::uint(spec.repetitions)),
            ("seed".into(), Json::uint(spec.seed)),
            ("division".into(), Json::str(spec.division)),
        ])
    }

    /// Decodes a spec from JSON; any missing or mistyped field is an
    /// error (the store maps it to a cache miss, never a panic).
    pub fn from_json(value: &Json) -> Result<RunSpec, String> {
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field '{key}'"))
        };
        let uint_field = |key: &str| -> Result<u64, String> {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing or non-integer field '{key}'"))
        };
        let params = params_from_json(value.get("params"))?;
        let transpile = TranspileSpec::from_json(value.get("transpile"))?;
        let mut spec = RunSpec {
            benchmark: str_field("benchmark")?,
            params,
            device: str_field("device")?,
            transpile,
            shots: uint_field("shots")?,
            repetitions: uint_field("repetitions")?,
            seed: uint_field("seed")?,
            division: str_field("division")?,
        };
        spec.normalize();
        Ok(spec)
    }
}

/// Escapes `\` and newline so multi-line values cannot collide with the
/// line-oriented canonical encoding.
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> RunSpec {
        RunSpec::new(
            "ghz",
            vec![("size".into(), "4".into())],
            "IBM-Montreal",
            2000,
            3,
            1,
        )
    }

    #[test]
    fn hash_is_stable_across_releases() {
        // Frozen: if this changes, every cache on every machine silently
        // invalidates. Bump SCHEMA_VERSION instead of editing the vector.
        assert_eq!(
            spec().content_hash(),
            crate::hash::sha256_hex(spec().canonical_string().as_bytes())
        );
        assert_eq!(
            spec().canonical_string(),
            "schema=2\nbenchmark=ghz\nparam.size=4\ndevice=IBM-Montreal\nplacement=greedy\npipeline=closed-default\nshots=2000\nrepetitions=3\nseed=1\ndivision=closed\n"
        );
    }

    #[test]
    fn corpus_and_mirror_specs_encode_canonically() {
        // The benchmark registry's corpus ids and `-mirror` variants
        // reuse the frozen schema=2 encoding: the mirror suffix lives in
        // the benchmark field, never in the params, so every
        // pre-existing key is untouched and no schema bump is needed.
        let qft = RunSpec::new("qft", vec![("size".into(), "8".into())], "IonQ", 1000, 3, 7);
        assert_eq!(
            qft.canonical_string(),
            "schema=2\nbenchmark=qft\nparam.size=8\ndevice=IonQ\nplacement=greedy\npipeline=closed-default\nshots=1000\nrepetitions=3\nseed=7\ndivision=closed\n"
        );
        let mirror = RunSpec::new(
            "ghz-mirror",
            vec![("size".into(), "4".into())],
            "IBM-Montreal",
            2000,
            3,
            1,
        );
        assert_eq!(
            mirror.canonical_string(),
            "schema=2\nbenchmark=ghz-mirror\nparam.size=4\ndevice=IBM-Montreal\nplacement=greedy\npipeline=closed-default\nshots=2000\nrepetitions=3\nseed=1\ndivision=closed\n"
        );
        // Same params as the base ghz spec, different id — a distinct
        // cache cell, not a collision.
        assert_ne!(mirror.content_hash(), spec().content_hash());
        assert_eq!(
            SCHEMA_VERSION, 2,
            "registry refactor must not bump the schema"
        );
    }

    #[test]
    fn param_order_does_not_affect_hash() {
        let a = RunSpec::new(
            "bit-code",
            vec![
                ("size".into(), "3".into()),
                ("rounds".into(), "2".into()),
                ("init".into(), "101".into()),
            ],
            "AQT",
            100,
            1,
            0,
        );
        let b = RunSpec::new(
            "bit-code",
            vec![
                ("init".into(), "101".into()),
                ("rounds".into(), "2".into()),
                ("size".into(), "3".into()),
            ],
            "AQT",
            100,
            1,
            0,
        );
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn every_field_feeds_the_hash() {
        let base = spec();
        let mut variants = Vec::new();
        let mut v = base.clone();
        v.benchmark = "vqe".into();
        variants.push(v);
        let mut v = base.clone();
        v.params[0].1 = "5".into();
        variants.push(v);
        let mut v = base.clone();
        v.device = "IonQ".into();
        variants.push(v);
        let mut v = base.clone();
        v.transpile.placement = "trivial".into();
        variants.push(v);
        let mut v = base.clone();
        v.transpile.pipeline = "closed-stages".into();
        variants.push(v);
        let mut v = base.clone();
        v.transpile.pipeline = "no-optimize".into();
        variants.push(v);
        let mut v = base.clone();
        v.shots = 100;
        variants.push(v);
        let mut v = base.clone();
        v.repetitions = 1;
        variants.push(v);
        let mut v = base.clone();
        v.seed = 99;
        variants.push(v);
        let mut v = base.clone();
        v.division = "open".into();
        variants.push(v);
        for v in variants {
            assert_ne!(v.content_hash(), base.content_hash(), "{v:?}");
        }
    }

    #[test]
    fn newline_values_cannot_forge_fields() {
        let mut a = spec();
        a.params = vec![("x".into(), "1\nparam.y=2".into())];
        let mut b = spec();
        b.params = vec![("x".into(), "1".into()), ("y".into(), "2".into())];
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn json_round_trip() {
        let s = spec();
        let back = RunSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.content_hash(), s.content_hash());
    }

    #[test]
    fn from_json_rejects_malformed_specs() {
        let good = spec().to_json();
        assert!(RunSpec::from_json(&Json::Null).is_err());
        assert!(RunSpec::from_json(&Json::Obj(vec![])).is_err());
        // Drop each top-level field in turn.
        if let Json::Obj(fields) = &good {
            for i in 0..fields.len() {
                let mut pruned = fields.clone();
                pruned.remove(i);
                assert!(
                    RunSpec::from_json(&Json::Obj(pruned)).is_err(),
                    "dropping {} should fail",
                    fields[i].0
                );
            }
            // A schema-1 transpile object: the (optimize, verify) flag
            // pair in place of a pipeline name.
            let mut legacy = fields.clone();
            for (k, v) in legacy.iter_mut() {
                if k == "transpile" {
                    *v = Json::Obj(vec![
                        ("placement".into(), Json::str("greedy")),
                        ("optimize".into(), Json::Bool(true)),
                        ("verify".into(), Json::str("final")),
                    ]);
                }
            }
            let err = RunSpec::from_json(&Json::Obj(legacy)).unwrap_err();
            assert!(err.contains("transpile.pipeline"), "{err}");
        }
    }
}
