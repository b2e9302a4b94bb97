//! The data-driven benchmark registry.
//!
//! Mirrors the transpiler's named pipelines: every benchmark the harness can
//! run is a [`BenchmarkEntry`] — a stable kebab-case id, a one-line
//! summary, a declared parameter schema, and a build function — instead
//! of an arm in a hard-coded match. `benchmark_from_params` (and through
//! it every spec execution, grid expansion, and CLI flag) resolves here,
//! so adding a benchmark is adding one entry, and tools like
//! `supermarq bench list` can enumerate and document the whole suite from
//! data.
//!
//! Every base entry also registers a `<id>-mirror` variant: the same
//! circuit family wrapped in [`Mirror`], scored by `P(expected
//! bitstring)`. Mirror ids share the base entry's parameter schema, so
//! `ghz-mirror` takes exactly the parameters of `ghz` and gets its own
//! canonical store spec (the suffix lives in the benchmark id, never in
//! the params, keeping all pre-existing cache keys byte-identical).

use crate::benchmark::Benchmark;
use crate::benchmarks::{
    BernsteinVaziraniBenchmark, BitCodeBenchmark, GhzBenchmark, GroverBenchmark,
    HamiltonianSimBenchmark, MerminBellBenchmark, PhaseCodeBenchmark, QaoaSwapBenchmark,
    QaoaVanillaBenchmark, QftBenchmark, RippleAdderBenchmark, VqeBenchmark,
};
use crate::mirror::Mirror;
use crate::spec::{default_init, ExecError};
use supermarq_obs::Span;

/// The suffix that selects the [`Mirror`] variant of a base entry.
pub(crate) const MIRROR_SUFFIX: &str = "-mirror";

/// Sentinel for "no declared upper bound".
const NO_MAX: usize = usize::MAX;

/// How a declared parameter is typed and bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// The instance width driver, a `usize` in `[min, max]`.
    Size {
        /// Smallest accepted value.
        min: usize,
        /// Largest accepted value (`usize::MAX` = unbounded).
        max: usize,
    },
    /// A count parameter (rounds, layers, steps): a `usize` of at least
    /// `min`.
    Count {
        /// Smallest accepted value.
        min: usize,
    },
    /// A `u64` RNG/instance seed, unbounded.
    Seed,
    /// A `0`/`1` string whose length must equal the entry's `size`.
    InitBits,
    /// A `u64` whose binary width must fit in the entry's `size` bits.
    BitMask,
}

/// One declared parameter of a registry entry.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Canonical parameter key (also the CLI flag name).
    pub key: &'static str,
    /// Type and bounds.
    pub kind: ParamKind,
    /// One-line description for `bench list`.
    pub help: &'static str,
    /// Default value as a canonical string, given `(size,
    /// instance_seed)`; `None` for the size parameter itself (the caller
    /// supplies it).
    pub default: Option<fn(usize, u64) -> String>,
}

/// Typed parameter values after schema validation, handed to an entry's
/// build function (which therefore cannot fail).
struct Resolved {
    nums: Vec<(&'static str, u64)>,
    bits: Option<Vec<bool>>,
}

impl Resolved {
    fn num(&self, key: &str) -> u64 {
        self.nums
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .expect("validated parameter present")
    }
    fn size(&self) -> usize {
        self.num("size") as usize
    }
    fn bits(&self) -> &[bool] {
        self.bits.as_deref().expect("validated init present")
    }
}

/// One registered benchmark family.
pub struct BenchmarkEntry {
    id: &'static str,
    summary: &'static str,
    schema: &'static [ParamSpec],
    build: fn(&Resolved) -> Box<dyn Benchmark>,
}

impl BenchmarkEntry {
    /// Stable kebab-case id (`"ghz"`, `"qaoa-swap"`, ...).
    pub fn id(&self) -> &'static str {
        self.id
    }

    /// One-line description for listings.
    pub fn summary(&self) -> &'static str {
        self.summary
    }

    /// The declared parameters, sorted by key (the canonical spec
    /// order).
    pub fn schema(&self) -> &'static [ParamSpec] {
        self.schema
    }

    fn resolve_params(&self, params: &[(String, String)]) -> Result<Resolved, ExecError> {
        let expected: Vec<&str> = self.schema.iter().map(|p| p.key).collect();
        expect_keys(params, &expected)?;
        let mut resolved = Resolved {
            nums: Vec::new(),
            bits: None,
        };
        // Size first: InitBits/BitMask bounds depend on it.
        for p in self.schema {
            if let ParamKind::Size { min, max } = p.kind {
                let size: usize = parse_num(p.key, require(params, p.key)?)?;
                if size < min {
                    return Err(ExecError::Invalid(format!(
                        "parameter '{}' must be at least {min}, got {size}",
                        p.key
                    )));
                }
                if max != NO_MAX && size > max {
                    return Err(ExecError::Invalid(format!(
                        "{} size must be at most {max}, got {size}",
                        self.id
                    )));
                }
                resolved.nums.push((p.key, size as u64));
            }
        }
        for p in self.schema {
            let raw = require(params, p.key)?;
            match p.kind {
                ParamKind::Size { .. } => {}
                ParamKind::Count { min } => {
                    let v: usize = parse_num(p.key, raw)?;
                    if v < min {
                        return Err(ExecError::Invalid(format!(
                            "parameter '{}' must be >= {min}",
                            p.key
                        )));
                    }
                    resolved.nums.push((p.key, v as u64));
                }
                ParamKind::Seed => {
                    resolved.nums.push((p.key, parse_num(p.key, raw)?));
                }
                ParamKind::InitBits => {
                    resolved.bits = Some(parse_init(raw, resolved.size())?);
                }
                ParamKind::BitMask => {
                    let v: u64 = parse_num(p.key, raw)?;
                    let size = resolved.size();
                    if size < 64 && v >> size != 0 {
                        return Err(ExecError::Invalid(format!(
                            "parameter '{}' must fit in {size} bits, got {raw}",
                            p.key
                        )));
                    }
                    resolved.nums.push((p.key, v));
                }
            }
        }
        Ok(resolved)
    }
}

/// Returns the value of `key` in `params`, or an error naming it.
fn require<'p>(params: &'p [(String, String)], key: &str) -> Result<&'p str, ExecError> {
    params
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| ExecError::Invalid(format!("missing parameter '{key}'")))
}

fn parse_num<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, ExecError> {
    raw.parse::<T>()
        .map_err(|_| ExecError::Invalid(format!("invalid value '{raw}' for parameter '{key}'")))
}

/// Checks `params` carries exactly `expected` keys (sorted) — the
/// strictness that makes cache keys canonical: there is no spec with a
/// defaulted-but-omitted parameter aliasing a spec that spells it out.
fn expect_keys(params: &[(String, String)], expected: &[&str]) -> Result<(), ExecError> {
    let mut keys: Vec<&str> = params.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    if keys != expected {
        return Err(ExecError::Invalid(format!(
            "expected parameters {expected:?}, got {keys:?}"
        )));
    }
    Ok(())
}

/// Parses an error-correction initial state: a `0`/`1` bitstring of
/// length `size` (`1` = flipped / `|+⟩` depending on the code).
fn parse_init(raw: &str, size: usize) -> Result<Vec<bool>, ExecError> {
    if raw.len() != size || !raw.bytes().all(|b| b == b'0' || b == b'1') {
        return Err(ExecError::Invalid(format!(
            "parameter 'init' must be a {size}-character 0/1 string, got '{raw}'"
        )));
    }
    Ok(raw.bytes().map(|b| b == b'1').collect())
}

/// Alternating-bit default mask (`...0101`) truncated to `size` bits —
/// the deterministic default for `secret`/`a`/`marked` parameters.
fn alternating_mask(size: usize) -> u64 {
    let mask = if size >= 64 {
        u64::MAX
    } else {
        (1u64 << size) - 1
    };
    0x5555_5555_5555_5555 & mask
}

macro_rules! size_param {
    ($min:expr, $max:expr, $help:expr) => {
        ParamSpec {
            key: "size",
            kind: ParamKind::Size {
                min: $min,
                max: $max,
            },
            help: $help,
            default: None,
        }
    };
}

static ENTRIES: &[BenchmarkEntry] = &[
    BenchmarkEntry {
        id: "ghz",
        summary: "GHZ state preparation, scored by Hellinger fidelity vs the ideal cat state",
        schema: &[size_param!(2, NO_MAX, "number of qubits")],
        build: |r| Box::new(GhzBenchmark::new(r.size())),
    },
    BenchmarkEntry {
        id: "mermin-bell",
        summary: "Mermin-Bell inequality violation in a synthesized shared eigenbasis",
        schema: &[size_param!(
            2,
            16,
            "number of qubits (term enumeration is 2^n)"
        )],
        build: |r| Box::new(MerminBellBenchmark::new(r.size())),
    },
    BenchmarkEntry {
        id: "bit-code",
        summary: "bit-flip repetition code with mid-circuit syndrome measurement",
        schema: &[
            ParamSpec {
                key: "init",
                kind: ParamKind::InitBits,
                help: "initial data bitstring (1 = flipped)",
                default: Some(|size, _| default_init(size)),
            },
            ParamSpec {
                key: "rounds",
                kind: ParamKind::Count { min: 1 },
                help: "error-correction rounds",
                default: Some(|_, _| "2".into()),
            },
            size_param!(2, NO_MAX, "data qubits (2*size - 1 total)"),
        ],
        build: |r| {
            Box::new(BitCodeBenchmark::new(
                r.size(),
                r.num("rounds") as usize,
                r.bits(),
            ))
        },
    },
    BenchmarkEntry {
        id: "phase-code",
        summary: "phase-flip repetition code with mid-circuit syndrome measurement",
        schema: &[
            ParamSpec {
                key: "init",
                kind: ParamKind::InitBits,
                help: "initial data states (1 = |+>, 0 = |->)",
                default: Some(|size, _| default_init(size)),
            },
            ParamSpec {
                key: "rounds",
                kind: ParamKind::Count { min: 1 },
                help: "error-correction rounds",
                default: Some(|_, _| "2".into()),
            },
            size_param!(2, NO_MAX, "data qubits (2*size - 1 total)"),
        ],
        build: |r| {
            Box::new(PhaseCodeBenchmark::new(
                r.size(),
                r.num("rounds") as usize,
                r.bits(),
            ))
        },
    },
    BenchmarkEntry {
        id: "qaoa-vanilla",
        summary: "level-1 QAOA on an SK MaxCut instance, all-to-all rzz ansatz",
        schema: &[
            ParamSpec {
                key: "seed",
                kind: ParamKind::Seed,
                help: "SK instance seed",
                default: Some(|_, instance_seed| instance_seed.to_string()),
            },
            size_param!(2, NO_MAX, "number of qubits"),
        ],
        build: |r| Box::new(QaoaVanillaBenchmark::new(r.size(), r.num("seed"))),
    },
    BenchmarkEntry {
        id: "qaoa-swap",
        summary: "level-1 QAOA on the same SK instances via the nearest-neighbor SWAP network",
        schema: &[
            ParamSpec {
                key: "seed",
                kind: ParamKind::Seed,
                help: "SK instance seed",
                default: Some(|_, instance_seed| instance_seed.to_string()),
            },
            size_param!(2, NO_MAX, "number of qubits"),
        ],
        build: |r| Box::new(QaoaSwapBenchmark::new(r.size(), r.num("seed"))),
    },
    BenchmarkEntry {
        id: "vqe",
        summary: "one-iteration TFIM VQE scored against the classically optimized energy",
        schema: &[
            ParamSpec {
                key: "layers",
                kind: ParamKind::Count { min: 1 },
                help: "ansatz layers",
                default: Some(|_, _| "1".into()),
            },
            size_param!(2, 12, "number of spins (classical optimization guard)"),
        ],
        build: |r| Box::new(VqeBenchmark::new(r.size(), r.num("layers") as usize)),
    },
    BenchmarkEntry {
        id: "hamsim",
        summary: "Trotterized driven transverse-field Ising evolution, scored on magnetization",
        schema: &[
            size_param!(2, NO_MAX, "number of spins"),
            ParamSpec {
                key: "steps",
                kind: ParamKind::Count { min: 1 },
                help: "Trotter steps over one drive period",
                default: Some(|_, _| "4".into()),
            },
        ],
        build: |r| {
            Box::new(HamiltonianSimBenchmark::new(
                r.size(),
                r.num("steps") as usize,
            ))
        },
    },
    BenchmarkEntry {
        id: "qft",
        summary: "quantum Fourier transform scored vs the uniform output distribution",
        schema: &[size_param!(2, 32, "number of qubits")],
        build: |r| Box::new(QftBenchmark::new(r.size())),
    },
    BenchmarkEntry {
        id: "bv",
        summary: "Bernstein-Vazirani hidden-string recovery (size data qubits + 1 ancilla)",
        schema: &[
            ParamSpec {
                key: "secret",
                kind: ParamKind::BitMask,
                help: "hidden bitstring as an integer",
                default: Some(|size, _| alternating_mask(size).to_string()),
            },
            size_param!(2, 63, "data qubits"),
        ],
        build: |r| Box::new(BernsteinVaziraniBenchmark::new(r.size(), r.num("secret"))),
    },
    BenchmarkEntry {
        id: "adder",
        summary: "Cuccaro ripple-carry adder over two size-bit registers (2*size + 1 qubits)",
        schema: &[
            ParamSpec {
                key: "a",
                kind: ParamKind::BitMask,
                help: "first addend",
                default: Some(|size, _| alternating_mask(size).to_string()),
            },
            ParamSpec {
                key: "b",
                kind: ParamKind::BitMask,
                help: "second addend",
                default: Some(|size, _| {
                    (0xAAAA_AAAA_AAAA_AAAAu64 & alternating_mask(size).wrapping_mul(3)).to_string()
                }),
            },
            size_param!(1, 31, "bits per register"),
        ],
        build: |r| Box::new(RippleAdderBenchmark::new(r.size(), r.num("a"), r.num("b"))),
    },
    BenchmarkEntry {
        id: "grover",
        summary: "Grover search at the optimal iteration count, scored vs the ideal success",
        schema: &[
            ParamSpec {
                key: "marked",
                kind: ParamKind::BitMask,
                help: "marked element",
                default: Some(|size, _| alternating_mask(size).to_string()),
            },
            size_param!(2, 12, "data qubits (exact multi-controlled Z)"),
        ],
        build: |r| Box::new(GroverBenchmark::new(r.size(), r.num("marked"))),
    },
];

/// A resolved registry id: the base entry plus whether the mirror
/// variant was selected.
#[derive(Clone, Copy)]
pub struct ResolvedId<'r> {
    /// The base entry the id resolved to.
    pub entry: &'r BenchmarkEntry,
    /// `true` when the id carried the `-mirror` suffix.
    pub mirror: bool,
}

/// The registry of every runnable benchmark family.
#[derive(Clone, Copy, Default)]
pub struct BenchmarkRegistry {
    _private: (),
}

impl BenchmarkRegistry {
    /// The built-in registry (all entries are static data).
    pub const fn builtin() -> Self {
        BenchmarkRegistry { _private: () }
    }

    /// Every base entry, in registration order (paper suite first, then
    /// the Table-I corpus).
    pub fn entries(&self) -> &'static [BenchmarkEntry] {
        ENTRIES
    }

    /// Looks up a *base* entry by exact id.
    pub fn get(&self, id: &str) -> Option<&'static BenchmarkEntry> {
        ENTRIES.iter().find(|e| e.id == id)
    }

    /// Resolves an id, peeling the `-mirror` suffix.
    pub fn resolve(&self, id: &str) -> Option<ResolvedId<'static>> {
        if let Some(base) = id.strip_suffix(MIRROR_SUFFIX) {
            self.get(base).map(|entry| ResolvedId {
                entry,
                mirror: true,
            })
        } else {
            self.get(id).map(|entry| ResolvedId {
                entry,
                mirror: false,
            })
        }
    }

    /// Every runnable id: each base id followed by its mirror variant.
    pub fn all_ids(&self) -> Vec<String> {
        ENTRIES
            .iter()
            .flat_map(|e| [e.id.to_string(), format!("{}{MIRROR_SUFFIX}", e.id)])
            .collect()
    }

    /// Instantiates a benchmark by id, validating `params` against the
    /// entry's schema and wrapping in [`Mirror`] for `-mirror` ids. The
    /// construction runs inside one `bench.generate` span: circuit
    /// generation and, for VQE and QAOA, the classical parameter search.
    ///
    /// # Errors
    ///
    /// [`ExecError::Invalid`] for unknown ids, missing or extra
    /// parameters, or out-of-range values.
    pub fn build(
        &self,
        id: &str,
        params: &[(String, String)],
    ) -> Result<Box<dyn Benchmark>, ExecError> {
        let _span = Span::open("bench.generate").with("benchmark", id);
        let resolved = self
            .resolve(id)
            .ok_or_else(|| ExecError::Invalid(format!("unknown benchmark '{id}'")))?;
        let values = resolved.entry.resolve_params(params)?;
        let base = (resolved.entry.build)(&values);
        if resolved.mirror {
            Ok(Box::new(Mirror::new(base)))
        } else {
            Ok(base)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::CircuitFamily;

    fn p(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn registry_has_twelve_base_entries_and_mirrors() {
        let reg = BenchmarkRegistry::builtin();
        assert_eq!(reg.entries().len(), 12);
        assert_eq!(reg.all_ids().len(), 24);
        assert!(reg.all_ids().contains(&"ghz-mirror".to_string()));
    }

    #[test]
    fn schemas_are_sorted_by_key() {
        // The canonical-spec contract: expect_keys compares against the
        // schema order, so schemas must be key-sorted.
        for e in BenchmarkRegistry::builtin().entries() {
            let keys: Vec<&str> = e.schema().iter().map(|p| p.key).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "{}", e.id());
        }
    }

    #[test]
    fn every_non_size_param_has_a_default() {
        for e in BenchmarkRegistry::builtin().entries() {
            for p in e.schema() {
                if p.key == "size" {
                    assert!(p.default.is_none(), "{}", e.id());
                } else {
                    let d = p.default.expect("non-size default")(4, 1);
                    assert!(!d.is_empty(), "{}.{}", e.id(), p.key);
                }
            }
        }
    }

    #[test]
    fn mirror_resolution() {
        let reg = BenchmarkRegistry::builtin();
        assert!(!reg.resolve("qft").unwrap().mirror);
        assert!(reg.resolve("qft-mirror").unwrap().mirror);
        assert_eq!(reg.resolve("qft-mirror").unwrap().entry.id(), "qft");
        assert!(reg.resolve("nope-mirror").is_none());
        assert!(reg.resolve("nope").is_none());
    }

    #[test]
    fn build_wraps_mirror_ids() {
        let reg = BenchmarkRegistry::builtin();
        let base = reg.build("ghz", &p(&[("size", "4")])).unwrap();
        let mirror = reg.build("ghz-mirror", &p(&[("size", "4")])).unwrap();
        assert_eq!(base.name(), "GHZ-4");
        assert_eq!(mirror.name(), "GHZ-4-mirror");
        assert_eq!(base.num_qubits(), mirror.num_qubits());
    }

    #[test]
    fn bitmask_params_are_range_checked() {
        let reg = BenchmarkRegistry::builtin();
        assert!(reg
            .build("bv", &p(&[("secret", "3"), ("size", "3")]))
            .is_ok());
        let err = match reg.build("bv", &p(&[("secret", "8"), ("size", "3")])) {
            Err(e) => e,
            Ok(_) => panic!("oversized secret accepted"),
        };
        assert!(err.to_string().contains("must fit in 3 bits"), "{err}");
        assert!(reg
            .build("adder", &p(&[("a", "4"), ("b", "1"), ("size", "2")]))
            .is_err());
        assert!(reg
            .build("grover", &p(&[("marked", "7"), ("size", "3")]))
            .is_ok());
    }
}
