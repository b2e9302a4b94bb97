//! The batch sweep engine: grid expansion, cache partitioning, parallel
//! execution of misses, JSONL streaming, and per-sweep statistics.
//!
//! A sweep is resumable by construction: every job is a [`RunSpec`], the
//! engine asks the store first, and only cache misses reach the
//! executor. Kill a sweep halfway and rerun it — completed cells are
//! hits, the remainder executes, and the emitted JSONL is byte-identical
//! to an uninterrupted run because results are written in spec order and
//! records contain no wall-clock data.

use std::io::{self, Write};
use std::time::Instant;

use rayon::prelude::*;
use supermarq_obs::{counter, FieldValue, Span};

use crate::record::{RunOutcome, RunRecord};
use crate::spec::{params_from_json, RunSpec, TranspileSpec, SCHEMA_VERSION};
use crate::store::Store;
use crate::Json;

/// Most runs one decoded grid may expand to (`benchmarks x devices x
/// shots x seeds`). The serve daemon expands a `batch` grid before any
/// admission check, and one 1 MiB frame of one-digit shots and seeds
/// could otherwise ask for about 6x10^10 specs: an allocation failure
/// aborts the process. The Fig. 2 grid is 200 cells; the cap leaves room
/// for sweeps 500 times larger, a few tens of MB of specs.
pub const MAX_GRID_CELLS: usize = 100_000;

/// A declarative sweep grid; [`SweepGrid::expand`] takes the cartesian
/// product into a deterministic job list.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    /// Benchmark points: `(benchmark id, params)`.
    pub benchmarks: Vec<(String, Vec<(String, String)>)>,
    /// Device names.
    pub devices: Vec<String>,
    /// Shot counts to sweep.
    pub shots: Vec<u64>,
    /// Base seeds to sweep.
    pub seeds: Vec<u64>,
    /// Repetitions per run (fixed across the grid).
    pub repetitions: u64,
    /// Transpile configuration (fixed across the grid).
    pub transpile: TranspileSpec,
    /// `closed` or `open` (fixed across the grid).
    pub division: String,
}

impl SweepGrid {
    /// JSON encoding — the wire format `supermarq serve` accepts for
    /// `batch` requests (grids are expanded server-side, so a client
    /// ships one small object instead of N specs).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "benchmarks".into(),
                Json::Arr(
                    self.benchmarks
                        .iter()
                        .map(|(id, params)| {
                            Json::Obj(vec![
                                ("id".into(), Json::str(id.clone())),
                                (
                                    "params".into(),
                                    Json::Obj(
                                        params
                                            .iter()
                                            .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "devices".into(),
                Json::Arr(self.devices.iter().map(|d| Json::str(d.clone())).collect()),
            ),
            (
                "shots".into(),
                Json::Arr(self.shots.iter().map(|&s| Json::uint(s)).collect()),
            ),
            (
                "seeds".into(),
                Json::Arr(self.seeds.iter().map(|&s| Json::uint(s)).collect()),
            ),
            ("repetitions".into(), Json::uint(self.repetitions)),
            (
                "transpile".into(),
                Json::Obj(vec![
                    (
                        "placement".into(),
                        Json::str(self.transpile.placement.clone()),
                    ),
                    (
                        "pipeline".into(),
                        Json::str(self.transpile.pipeline.clone()),
                    ),
                ]),
            ),
            ("division".into(), Json::str(self.division.clone())),
        ])
    }

    /// Decodes a grid from JSON. Strict: every field present and
    /// correctly typed, or an error naming the offender — a malformed
    /// network request must produce a message, never a panic. A grid that
    /// would expand to more than [`MAX_GRID_CELLS`] runs is rejected.
    pub fn from_json(value: &Json) -> Result<SweepGrid, String> {
        let arr_field = |key: &str| -> Result<&[Json], String> {
            value
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing or non-array field '{key}'"))
        };
        let mut benchmarks = Vec::new();
        for entry in arr_field("benchmarks")? {
            let id = entry
                .get("id")
                .and_then(Json::as_str)
                .ok_or("benchmark entry missing string 'id'")?
                .to_string();
            benchmarks.push((id, params_from_json(entry.get("params"))?));
        }
        let mut devices = Vec::new();
        for d in arr_field("devices")? {
            devices.push(d.as_str().ok_or("non-string device name")?.to_string());
        }
        let uints = |key: &str| -> Result<Vec<u64>, String> {
            arr_field(key)?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .ok_or_else(|| format!("non-integer entry in '{key}'"))
                })
                .collect()
        };
        let (shots, seeds) = (uints("shots")?, uints("seeds")?);
        let cells = [benchmarks.len(), devices.len(), shots.len(), seeds.len()]
            .into_iter()
            .try_fold(1usize, usize::checked_mul);
        if cells.is_none_or(|n| n > MAX_GRID_CELLS) {
            return Err(format!(
                "grid expands to more than {MAX_GRID_CELLS} runs \
                 (benchmarks x devices x shots x seeds)"
            ));
        }
        let transpile = TranspileSpec::from_json(value.get("transpile"))?;
        Ok(SweepGrid {
            benchmarks,
            devices,
            shots,
            seeds,
            repetitions: value
                .get("repetitions")
                .and_then(Json::as_u64)
                .ok_or("missing or non-integer field 'repetitions'")?,
            transpile,
            division: value
                .get("division")
                .and_then(Json::as_str)
                .ok_or("missing or non-string field 'division'")?
                .to_string(),
        })
    }

    /// Expands the grid in deterministic nested order:
    /// benchmark → device → shots → seed.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut specs = Vec::new();
        for (benchmark, params) in &self.benchmarks {
            for device in &self.devices {
                for &shots in &self.shots {
                    for &seed in &self.seeds {
                        let mut spec = RunSpec::new(
                            benchmark.clone(),
                            params.clone(),
                            device.clone(),
                            shots,
                            self.repetitions,
                            seed,
                        );
                        spec.transpile = self.transpile.clone();
                        spec.division = if self.division.is_empty() {
                            "closed".into()
                        } else {
                            self.division.clone()
                        };
                        specs.push(spec);
                    }
                }
            }
        }
        specs
    }
}

/// Per-sweep statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Jobs in the sweep.
    pub total: usize,
    /// Jobs served from the store.
    pub hits: usize,
    /// Jobs that had to execute.
    pub misses: usize,
    /// Jobs whose executor returned an error.
    pub failures: usize,
    /// Executed jobs whose result could not be persisted (I/O error);
    /// the sweep still reports their outcomes.
    pub store_errors: usize,
    /// Wall-clock duration of the sweep in milliseconds (`u64` millis is
    /// ~584M years — plenty for a serialized summary field).
    pub elapsed_ms: u64,
}

impl SweepStats {
    /// One-line summary, grep-friendly for CI assertions.
    pub fn summary(&self) -> String {
        format!(
            "sweep: total={} hits={} misses={} failures={} store_errors={} elapsed_ms={}",
            self.total, self.hits, self.misses, self.failures, self.store_errors, self.elapsed_ms
        )
    }
}

/// The outcome of one sweep job, in the order the specs were given.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The job's spec.
    pub spec: RunSpec,
    /// Whether the result came from the store.
    pub from_cache: bool,
    /// Whether persisting a fresh success failed (I/O error). The
    /// outcome is still reported; the store just couldn't keep it.
    pub store_error: bool,
    /// The record, or the executor's error message.
    pub outcome: Result<RunRecord, String>,
}

impl SweepResult {
    /// The JSONL line for this result. Success lines are exactly the
    /// stored record serialization; failure lines carry the error and
    /// the spec. Both are deterministic.
    pub fn to_line(&self) -> String {
        match &self.outcome {
            Ok(record) => record.to_line(),
            Err(message) => Json::Obj(vec![
                ("schema".into(), Json::uint(SCHEMA_VERSION)),
                ("error".into(), Json::str(message.clone())),
                ("spec".into(), self.spec.to_json()),
            ])
            .to_string(),
        }
    }
}

/// A completed sweep: per-job results plus aggregate stats.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One result per input spec, in input order.
    pub results: Vec<SweepResult>,
    /// Aggregate statistics.
    pub stats: SweepStats,
}

/// Runs sweeps against one store.
pub struct SweepEngine<'a> {
    store: &'a Store,
    use_cache: bool,
}

impl<'a> SweepEngine<'a> {
    /// An engine over `store` with caching enabled.
    pub fn new(store: &'a Store) -> SweepEngine<'a> {
        SweepEngine {
            store,
            use_cache: true,
        }
    }

    /// Disables cache *reads* (every job executes; results are still
    /// persisted) — the force-recompute escape hatch.
    pub fn with_cache(mut self, use_cache: bool) -> SweepEngine<'a> {
        self.use_cache = use_cache;
        self
    }

    /// Runs a single job end to end: consult the store (honoring
    /// [`SweepEngine::with_cache`]), execute on miss, persist fresh
    /// successes. This is the unit of work shared by
    /// [`SweepEngine::run`]'s fan-out and the serve daemon's workers.
    ///
    /// The store is consulted *here*, at execution time — so a job that
    /// queued behind a twin published meanwhile by another process (or
    /// another worker on a shared store) resolves as a hit instead of a
    /// duplicate simulation. No global obs counters are emitted; batch
    /// callers aggregate their own.
    pub fn run_job<F>(&self, spec: &RunSpec, exec: F) -> SweepResult
    where
        F: FnOnce(&RunSpec) -> Result<RunOutcome, String>,
    {
        if self.use_cache {
            if let Some(record) = self.store.get(spec) {
                return SweepResult {
                    spec: spec.clone(),
                    from_cache: true,
                    store_error: false,
                    outcome: Ok(record),
                };
            }
        }
        match exec(spec) {
            Ok(outcome) => {
                let record = RunRecord {
                    spec: spec.clone(),
                    outcome,
                };
                let store_error = self.store.put(&record).is_err();
                SweepResult {
                    spec: spec.clone(),
                    from_cache: false,
                    store_error,
                    outcome: Ok(record),
                }
            }
            Err(message) => SweepResult {
                spec: spec.clone(),
                from_cache: false,
                store_error: false,
                outcome: Err(message),
            },
        }
    }

    /// Runs every spec: cache hits resolve immediately, misses fan out
    /// over the rayon pool through `exec`, and fresh results are
    /// persisted. Results come back in input order.
    pub fn run<F>(&self, specs: &[RunSpec], exec: F) -> SweepReport
    where
        F: Fn(&RunSpec) -> Result<RunOutcome, String> + Sync,
    {
        let start = Instant::now();
        let run_span = Span::open("sweep.run").with("jobs", specs.len());
        let mut stats = SweepStats {
            total: specs.len(),
            ..SweepStats::default()
        };
        // Partition into hits and misses up front.
        let cached: Vec<Option<RunRecord>> = specs
            .iter()
            .map(|spec| {
                if self.use_cache {
                    self.store.get(spec)
                } else {
                    None
                }
            })
            .collect();
        // Fan the misses over the pool. Each job is independent; results
        // land back in their input slot, so output order (and therefore
        // the JSONL byte stream) is deterministic at any thread count.
        // Job spans close on pool workers, so they carry an explicit
        // parent id (and trace, when one is active) instead of relying
        // on the thread-current chain.
        let parent = run_span.id();
        let trace = supermarq_obs::current_trace();
        let miss_indices: Vec<usize> = (0..specs.len()).filter(|&i| cached[i].is_none()).collect();
        // Each miss goes through `run_job`, the same path the serve
        // daemon's workers use. (A job may still resolve as a hit there
        // if a cooperating process published it between partition and
        // execution; the partition-time stats below keep counting it as
        // a miss, which is what "we didn't have it when asked" means.)
        let executed: Vec<(usize, SweepResult)> = miss_indices
            .par_iter()
            .map(|&i| {
                let mut span = Span::open_with_link("sweep.job", parent, trace).with("index", i);
                let result = self.run_job(&specs[i], |spec| exec(spec));
                span.record("ok", result.outcome.is_ok());
                (i, result)
            })
            .collect();
        let mut fresh: Vec<Option<SweepResult>> = vec![None; specs.len()];
        for (i, result) in executed {
            if result.outcome.is_err() {
                stats.failures += 1;
            }
            if result.store_error {
                stats.store_errors += 1;
            }
            fresh[i] = Some(result);
        }
        let mut results = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            match (&cached[i], fresh[i].take()) {
                (Some(record), _) => {
                    stats.hits += 1;
                    results.push(SweepResult {
                        spec: spec.clone(),
                        from_cache: true,
                        store_error: false,
                        outcome: Ok(record.clone()),
                    });
                }
                (None, Some(result)) => {
                    stats.misses += 1;
                    results.push(result);
                }
                (None, None) => unreachable!("every miss index was executed"),
            }
        }
        stats.elapsed_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
        counter!("store.hits").add(stats.hits as u64);
        counter!("store.misses").add(stats.misses as u64);
        counter!("store.errors").add((stats.failures + stats.store_errors) as u64);
        supermarq_obs::emit_event(
            "sweep.stats",
            &[
                ("total", FieldValue::from(stats.total)),
                ("hits", FieldValue::from(stats.hits)),
                ("misses", FieldValue::from(stats.misses)),
                ("failures", FieldValue::from(stats.failures)),
                ("store_errors", FieldValue::from(stats.store_errors)),
                ("elapsed_ms", FieldValue::from(stats.elapsed_ms)),
            ],
        );
        SweepReport { results, stats }
    }

    /// Like [`SweepEngine::run`], additionally streaming one JSONL line
    /// per result (in spec order) to `sink`.
    pub fn run_to_writer<F>(
        &self,
        specs: &[RunSpec],
        exec: F,
        sink: &mut dyn Write,
    ) -> io::Result<SweepReport>
    where
        F: Fn(&RunSpec) -> Result<RunOutcome, String> + Sync,
    {
        let report = self.run(specs, exec);
        for result in &report.results {
            sink.write_all(result.to_line().as_bytes())?;
            sink.write_all(b"\n")?;
        }
        sink.flush()?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_store(tag: &str) -> Store {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "supermarq-sweep-unit-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn grid() -> SweepGrid {
        SweepGrid {
            benchmarks: vec![
                ("ghz".into(), vec![("size".into(), "3".into())]),
                ("ghz".into(), vec![("size".into(), "4".into())]),
            ],
            devices: vec!["IonQ".into(), "AQT".into()],
            shots: vec![50],
            seeds: vec![1, 2],
            repetitions: 2,
            transpile: TranspileSpec::default(),
            division: "closed".into(),
        }
    }

    fn fake_exec(spec: &RunSpec) -> Result<RunOutcome, String> {
        // Deterministic pure function of the spec.
        let x = (spec.seed as f64 + spec.shots as f64) / 1000.0;
        Ok(RunOutcome {
            scores: (0..spec.repetitions)
                .map(|r| x + r as f64 / 100.0)
                .collect(),
            swap_count: spec.seed,
            two_qubit_gates: spec.shots,
        })
    }

    #[test]
    fn grid_expansion_is_deterministic_cartesian_product() {
        let specs = grid().expand();
        // 2 benchmarks x 2 devices x 1 shot count x 2 seeds.
        assert_eq!(specs.len(), 8);
        assert_eq!(specs, grid().expand());
        // Nested order: benchmark outermost, seed innermost.
        assert_eq!(specs[0].device, "IonQ");
        assert_eq!(specs[0].seed, 1);
        assert_eq!(specs[1].seed, 2);
        assert_eq!(specs[2].device, "AQT");
    }

    #[test]
    fn first_pass_misses_second_pass_hits() {
        let store = temp_store("passes");
        let specs = grid().expand();
        let engine = SweepEngine::new(&store);
        let first = engine.run(&specs, fake_exec);
        assert_eq!(first.stats.misses, specs.len());
        assert_eq!(first.stats.hits, 0);
        assert_eq!(first.stats.failures, 0);
        let second = engine.run(&specs, |_| -> Result<RunOutcome, String> {
            panic!("second pass must not execute anything")
        });
        assert_eq!(second.stats.hits, specs.len());
        assert_eq!(second.stats.misses, 0);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.outcome, b.outcome);
            assert!(!a.from_cache);
            assert!(b.from_cache);
        }
    }

    #[test]
    fn disabling_cache_forces_execution_but_still_persists() {
        let store = temp_store("nocache");
        let specs = grid().expand();
        let calls = AtomicUsize::new(0);
        let exec = |spec: &RunSpec| {
            calls.fetch_add(1, Ordering::Relaxed);
            fake_exec(spec)
        };
        SweepEngine::new(&store).with_cache(false).run(&specs, exec);
        SweepEngine::new(&store).with_cache(false).run(&specs, exec);
        assert_eq!(calls.load(Ordering::Relaxed), 2 * specs.len());
        // Results were persisted: a caching engine now sees all hits.
        let report = SweepEngine::new(&store).run(&specs, exec);
        assert_eq!(report.stats.hits, specs.len());
    }

    #[test]
    fn failures_are_counted_not_cached_and_rendered_as_error_lines() {
        let store = temp_store("failures");
        let specs = grid().expand();
        let exec = |spec: &RunSpec| {
            if spec.device == "AQT" {
                Err(format!("{} does not fit", spec.benchmark))
            } else {
                fake_exec(spec)
            }
        };
        let mut out = Vec::new();
        let report = SweepEngine::new(&store)
            .run_to_writer(&specs, exec, &mut out)
            .unwrap();
        assert_eq!(report.stats.failures, 4);
        assert_eq!(report.stats.misses, specs.len());
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), specs.len());
        assert_eq!(text.matches("\"error\"").count(), 4);
        // Failures were not persisted: a second pass re-executes them.
        let second = SweepEngine::new(&store).run(&specs, exec);
        assert_eq!(second.stats.hits, specs.len() - 4);
        assert_eq!(second.stats.failures, 4);
    }

    #[test]
    fn grid_json_round_trips_through_the_wire_format() {
        let grid = grid();
        let encoded = grid.to_json().to_string();
        let decoded = SweepGrid::from_json(&Json::parse(&encoded).unwrap()).unwrap();
        // The grid itself has no PartialEq; the expansion is the
        // contract that matters on the wire.
        assert_eq!(decoded.expand(), grid.expand());
        assert_eq!(decoded.to_json().to_string(), encoded);
    }

    #[test]
    fn grid_beyond_the_cell_cap_is_rejected_before_expansion() {
        // grid() has 2 benchmarks x 2 devices x 1 shot count: seeds
        // decide the cell count.
        let decode = |seeds: usize| {
            let mut g = grid();
            g.seeds = (0..seeds as u64).collect();
            SweepGrid::from_json(&g.to_json())
        };
        assert!(decode(MAX_GRID_CELLS / 4).is_ok());
        let err = decode(MAX_GRID_CELLS / 4 + 1).expect_err("over the cap");
        assert!(
            err.contains(&format!("more than {MAX_GRID_CELLS} runs")),
            "{err}"
        );
    }

    #[test]
    fn grid_from_json_rejects_malformed_input_with_messages() {
        let bad = [
            ("{}", "benchmarks"),
            (r#"{"benchmarks":[{"id":"ghz"}]}"#, "params"),
            (
                r#"{"benchmarks":[],"devices":[1],"shots":[],"seeds":[],"repetitions":1,"transpile":{"placement":"line","pipeline":"default"},"division":"closed"}"#,
                "device",
            ),
            (
                r#"{"benchmarks":[],"devices":[],"shots":[-3],"seeds":[],"repetitions":1,"transpile":{"placement":"line","pipeline":"default"},"division":"closed"}"#,
                "shots",
            ),
            (
                r#"{"benchmarks":[],"devices":[],"shots":[],"seeds":[],"repetitions":1,"transpile":"none","division":"closed"}"#,
                "transpile",
            ),
            (
                r#"{"benchmarks":[],"devices":[],"shots":[],"seeds":[],"transpile":{"placement":"line","pipeline":"default"},"division":"closed"}"#,
                "repetitions",
            ),
        ];
        for (text, needle) in bad {
            let err = SweepGrid::from_json(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn run_job_hits_executes_and_persists() {
        let store = temp_store("runjob");
        let spec = &grid().expand()[0];
        let engine = SweepEngine::new(&store);
        let first = engine.run_job(spec, fake_exec);
        assert!(!first.from_cache);
        assert!(!first.store_error);
        // Persisted: the rerun is a hit and must not execute.
        let second = engine.run_job(spec, |_| panic!("warm job must not execute"));
        assert!(second.from_cache);
        assert_eq!(first.outcome, second.outcome);
        assert_eq!(first.to_line(), second.to_line());
        // Failures are reported but never cached.
        let mut failing = spec.clone();
        failing.seed = 999;
        let failed = engine.run_job(&failing, |_| Err("boom".into()));
        assert_eq!(failed.outcome, Err("boom".into()));
        assert!(failed.to_line().contains("\"error\":\"boom\""));
        let retried = engine.run_job(&failing, fake_exec);
        assert!(!retried.from_cache, "failures must not be cached");
        assert!(retried.outcome.is_ok());
    }

    #[test]
    fn run_job_without_cache_always_executes() {
        let store = temp_store("runjob-nocache");
        let spec = &grid().expand()[0];
        let engine = SweepEngine::new(&store).with_cache(false);
        let calls = AtomicUsize::new(0);
        for _ in 0..2 {
            let result = engine.run_job(spec, |s| {
                calls.fetch_add(1, Ordering::Relaxed);
                fake_exec(s)
            });
            assert!(!result.from_cache);
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        // Results still persisted for caching readers.
        assert!(
            SweepEngine::new(&store)
                .run_job(spec, |_| panic!("must hit"))
                .from_cache
        );
    }

    #[test]
    fn stats_summary_is_grep_friendly() {
        let stats = SweepStats {
            total: 8,
            hits: 8,
            misses: 0,
            failures: 0,
            store_errors: 0,
            elapsed_ms: 12,
        };
        let line = stats.summary();
        assert!(line.contains("hits=8"));
        assert!(line.contains("misses=0"));
    }
}
