//! The on-disk content-addressed store.
//!
//! Layout (all JSON, human-inspectable):
//!
//! ```text
//! .supermarq-store/
//!   objects/<h[0..2]>/<h>.json   # one validated RunRecord per file
//!   tmp/<h>.<pid>.<n>.tmp        # in-flight writes (renamed into place)
//! ```
//!
//! Guarantees:
//! - **Atomic publication** — records are written to `tmp/` and
//!   `rename`d into `objects/`; readers never observe a half-written
//!   object. A crash leaves only a stray `tmp/` file, which reads
//!   ignore and [`Store::gc`] removes.
//! - **Reads never panic** — truncated, garbled, tampered, or
//!   schema-mismatched entries are cache *misses*, and `gc` deletes
//!   them.
//! - **Concurrent writers are safe** — each in-flight write gets a
//!   unique temp name (pid + global counter); last rename wins, and
//!   since records are pure functions of their spec, all writers carry
//!   identical bytes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use supermarq_obs::Span;

use crate::hash::sha256_hex;
use crate::json::Json;
use crate::record::{RunRecord, HASH_MISMATCH};
use crate::spec::RunSpec;

/// Default store directory name, resolved relative to the working
/// directory unless the `SUPERMARQ_STORE` environment variable names
/// another location.
pub const DEFAULT_STORE_DIR: &str = ".supermarq-store";

/// Monotonic discriminator for temp-file names within this process.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// How recently a `tmp/` file must have been modified for [`Store::gc`]
/// to consider it *in flight* rather than crash-stranded. A store
/// directory is shared between the serve daemon and independent
/// `supermarq batch` processes; a gc racing a live writer must not
/// delete the temp file out from under its pending rename.
pub const TMP_GRACE: Duration = Duration::from_secs(60);

/// Aggregate store statistics (`supermarq cache stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Object files present.
    pub entries: usize,
    /// Total bytes across object files.
    pub bytes: u64,
    /// Stray in-flight files under `tmp/` (crash leftovers).
    pub stray_tmp: usize,
}

impl StoreStats {
    /// Strict-JSON encoding — the single serializer shared by
    /// `supermarq cache stats --format json` and the serve daemon's
    /// `stats` response, so both speak one schema.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("entries".into(), Json::uint(self.entries as u64)),
            ("bytes".into(), Json::uint(self.bytes)),
            ("stray_tmp".into(), Json::uint(self.stray_tmp as u64)),
        ])
    }
}

/// Full-scan validation report (`supermarq cache verify`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Entries that parsed and validated.
    pub ok: usize,
    /// Entries that failed to read/parse/validate, with the reason.
    pub corrupt: Vec<(PathBuf, String)>,
    /// Entries whose file name does not match their content hash.
    pub misplaced: Vec<PathBuf>,
}

impl VerifyReport {
    /// True when every entry validated.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.misplaced.is_empty()
    }
}

/// Garbage-collection report (`supermarq cache gc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Stray temp files removed.
    pub removed_tmp: usize,
    /// Corrupt / schema-mismatched / misplaced objects removed.
    pub removed_objects: usize,
    /// Valid entries kept.
    pub kept: usize,
}

/// A content-addressed run-record store rooted at one directory.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("tmp"))?;
        Ok(Store { root })
    }

    /// Opens the default store: `$SUPERMARQ_STORE` if set, else
    /// [`DEFAULT_STORE_DIR`] in the working directory.
    pub fn open_default() -> io::Result<Store> {
        Store::open(default_root())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the object file for a given content hash.
    pub fn object_path(&self, hash: &str) -> PathBuf {
        let shard = hash.get(..2).unwrap_or("xx");
        self.root
            .join("objects")
            .join(shard)
            .join(format!("{hash}.json"))
    }

    /// Looks up a record by spec. Returns `None` on absence *or* on any
    /// form of bad data — truncation, garbling, schema mismatch, or a
    /// record whose spec hashes differently than the file name claims.
    ///
    /// The requested spec is hashed once, for the address. The stored
    /// record is accepted when its `hash` field is that address and its
    /// spec's canonical string is the requested spec's. Hashing the
    /// stored spec and comparing the result to both would accept the
    /// same records, barring a SHA-256 collision.
    pub fn get(&self, spec: &RunSpec) -> Option<RunRecord> {
        let mut span = Span::open("store.read");
        let canonical = spec.canonical_string();
        let hash = sha256_hex(canonical.as_bytes());
        let result = (|| {
            let text = fs::read_to_string(self.object_path(&hash)).ok()?;
            let (record, stored_hash) = RunRecord::parse_unhashed(&text).ok()?;
            (stored_hash == hash && record.spec.canonical_string() == canonical).then_some(record)
        })();
        span.record("hit", result.is_some());
        result
    }

    /// Persists a record atomically, returning its content hash. Safe to
    /// call concurrently for the same spec from multiple threads or
    /// processes.
    pub fn put(&self, record: &RunRecord) -> io::Result<String> {
        let _span = Span::open("store.write");
        let hash = record.spec.content_hash();
        let final_path = self.object_path(&hash);
        if let Some(parent) = final_path.parent() {
            fs::create_dir_all(parent)?;
        }
        let tmp_path = self.root.join("tmp").join(format!(
            "{hash}.{}.{}.tmp",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let mut line = record.line_with_hash(&hash);
        line.push('\n');
        fs::write(&tmp_path, line)?;
        let renamed = fs::rename(&tmp_path, &final_path);
        if renamed.is_err() {
            // Clean up our temp file before surfacing the error.
            let _ = fs::remove_file(&tmp_path);
        }
        renamed?;
        Ok(hash)
    }

    /// Cheap scan: entry count, byte total, stray temp files. Does not
    /// parse records (use [`Store::verify`] for that).
    pub fn stats(&self) -> io::Result<StoreStats> {
        let mut stats = StoreStats::default();
        for path in self.object_files()? {
            stats.entries += 1;
            stats.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        }
        stats.stray_tmp = self.tmp_files()?.len();
        Ok(stats)
    }

    /// Parses and validates every object file, hashing each stored spec
    /// once: that hash must equal the record's `hash` field (else the
    /// entry is corrupt) and name the file (else it is misplaced).
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut span = Span::open("store.validate");
        let mut report = VerifyReport::default();
        for path in self.object_files()? {
            let parsed = fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| RunRecord::parse_unhashed(&text));
            match parsed {
                Err(e) => report.corrupt.push((path, e)),
                Ok((record, stored_hash)) => {
                    let hash = record.spec.content_hash();
                    if hash != stored_hash {
                        report.corrupt.push((path, HASH_MISMATCH.into()));
                    } else if self.object_path(&hash) == path {
                        report.ok += 1;
                    } else {
                        report.misplaced.push(path);
                    }
                }
            }
        }
        span.record("ok", report.ok);
        span.record("corrupt", report.corrupt.len());
        Ok(report)
    }

    /// Removes stray temp files and every invalid object (corrupt,
    /// schema-mismatched, misplaced). Valid entries are untouched.
    ///
    /// Temp files younger than [`TMP_GRACE`] are left alone: with a
    /// serve daemon and batch processes sharing one store, a fresh
    /// `tmp/` file is most likely a concurrent writer's in-flight
    /// record, and deleting it would make that writer's rename fail.
    pub fn gc(&self) -> io::Result<GcReport> {
        self.gc_with_grace(TMP_GRACE)
    }

    /// [`Store::gc`] with an explicit temp-file grace period. A zero
    /// grace removes every temp file regardless of age — the right call
    /// when the caller *knows* no other process is writing (tests,
    /// post-crash cleanup of a store it owns exclusively).
    pub fn gc_with_grace(&self, grace: Duration) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        for path in self.tmp_files()? {
            let in_flight = grace > Duration::ZERO
                && fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|mtime| mtime.elapsed().ok())
                    .is_some_and(|age| age < grace);
            if !in_flight && fs::remove_file(&path).is_ok() {
                report.removed_tmp += 1;
            }
        }
        let verify = self.verify()?;
        report.kept = verify.ok;
        for (path, _) in &verify.corrupt {
            if fs::remove_file(path).is_ok() {
                report.removed_objects += 1;
            }
        }
        for path in &verify.misplaced {
            if fs::remove_file(path).is_ok() {
                report.removed_objects += 1;
            }
        }
        Ok(report)
    }

    /// Every `objects/<shard>/<hash>.json` file, sorted for
    /// deterministic reporting.
    fn object_files(&self) -> io::Result<Vec<PathBuf>> {
        let mut files = Vec::new();
        let objects = self.root.join("objects");
        for shard in read_dir_sorted(&objects)? {
            if shard.is_dir() {
                for file in read_dir_sorted(&shard)? {
                    if file.extension().is_some_and(|e| e == "json") {
                        files.push(file);
                    }
                }
            }
        }
        Ok(files)
    }

    fn tmp_files(&self) -> io::Result<Vec<PathBuf>> {
        read_dir_sorted(&self.root.join("tmp"))
    }
}

/// Resolves the default store root from the environment.
pub fn default_root() -> PathBuf {
    match std::env::var_os("SUPERMARQ_STORE") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(DEFAULT_STORE_DIR),
    }
}

fn read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries = Vec::new();
    match fs::read_dir(dir) {
        // A store dir someone deleted mid-run is empty, not an error.
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(entries),
        Err(e) => return Err(e),
        Ok(iter) => {
            for entry in iter {
                entries.push(entry?.path());
            }
        }
    }
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RunOutcome;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "supermarq-store-unit-{tag}-{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn record(seed: u64) -> RunRecord {
        RunRecord {
            spec: RunSpec::new(
                "ghz",
                vec![("size".into(), "3".into())],
                "IonQ",
                100,
                2,
                seed,
            ),
            outcome: RunOutcome {
                scores: vec![0.9, 0.95],
                swap_count: 0,
                two_qubit_gates: 2,
            },
        }
    }

    #[test]
    fn put_get_round_trip() {
        let store = temp_store("roundtrip");
        let r = record(1);
        assert!(store.get(&r.spec).is_none());
        let hash = store.put(&r).unwrap();
        assert_eq!(hash, r.spec.content_hash());
        assert_eq!(store.get(&r.spec), Some(r));
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.stray_tmp, 0);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn distinct_specs_get_distinct_objects() {
        let store = temp_store("distinct");
        store.put(&record(1)).unwrap();
        store.put(&record(2)).unwrap();
        assert_eq!(store.stats().unwrap().entries, 2);
        assert_eq!(store.get(&record(1).spec).unwrap(), record(1));
        assert_eq!(store.get(&record(2).spec).unwrap(), record(2));
    }

    #[test]
    fn overwriting_same_key_is_idempotent() {
        let store = temp_store("idem");
        store.put(&record(1)).unwrap();
        store.put(&record(1)).unwrap();
        assert_eq!(store.stats().unwrap().entries, 1);
    }

    #[test]
    fn verify_and_gc_on_clean_store() {
        let store = temp_store("clean");
        store.put(&record(1)).unwrap();
        let report = store.verify().unwrap();
        assert!(report.is_clean());
        assert_eq!(report.ok, 1);
        let gc = store.gc().unwrap();
        assert_eq!(
            gc,
            GcReport {
                removed_tmp: 0,
                removed_objects: 0,
                kept: 1
            }
        );
        assert_eq!(store.get(&record(1).spec), Some(record(1)));
    }

    #[test]
    fn stats_json_uses_the_shared_schema() {
        let store = temp_store("stats-json");
        store.put(&record(1)).unwrap();
        let stats = store.stats().unwrap();
        let json = stats.to_json();
        // Exactly the three documented fields, in documented order.
        match &json {
            Json::Obj(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["entries", "bytes", "stray_tmp"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
        assert_eq!(json.get("entries").and_then(Json::as_u64), Some(1));
        assert!(json.get("bytes").and_then(Json::as_u64).unwrap() > 0);
        // The line re-parses through the same strict parser.
        let line = json.to_string();
        assert_eq!(Json::parse(&line).unwrap(), json);
    }

    #[test]
    fn gc_spares_in_flight_tmp_files_within_the_grace_period() {
        let store = temp_store("gc-grace");
        store.put(&record(1)).unwrap();
        let tmp = store.root().join("tmp").join("abcd.1.0.tmp");
        fs::write(&tmp, "half-written").unwrap();
        // Default gc treats the fresh file as a concurrent writer's
        // in-flight record and leaves it alone.
        let report = store.gc().unwrap();
        assert_eq!(report.removed_tmp, 0);
        assert!(tmp.exists());
        // Zero grace (exclusive owner) removes it.
        let report = store.gc_with_grace(Duration::ZERO).unwrap();
        assert_eq!(report.removed_tmp, 1);
        assert!(!tmp.exists());
    }

    /// The SHA-256 evaluations `f` makes on this thread.
    fn hashes_made(f: impl FnOnce()) -> usize {
        let before = crate::hash::evaluations();
        f();
        crate::hash::evaluations() - before
    }

    #[test]
    fn a_put_hashes_once() {
        let store = temp_store("hash-put");
        let hashes = hashes_made(|| {
            store.put(&record(1)).unwrap();
        });
        assert_eq!(hashes, 1);
    }

    #[test]
    fn a_warm_get_hashes_once() {
        let store = temp_store("hash-get");
        store.put(&record(1)).unwrap();
        let spec = record(1).spec;
        assert_eq!(
            hashes_made(|| assert_eq!(store.get(&spec), Some(record(1)))),
            1
        );
    }

    #[test]
    fn verify_hashes_once_per_entry() {
        let store = temp_store("hash-verify");
        for seed in 0..3 {
            store.put(&record(seed)).unwrap();
        }
        assert_eq!(hashes_made(|| assert_eq!(store.verify().unwrap().ok, 3)), 3);
    }

    #[test]
    fn default_root_honors_environment() {
        // Reads (never mutates) the process environment, so the test is
        // safe under parallel execution whatever the harness exports.
        match std::env::var_os("SUPERMARQ_STORE") {
            Some(dir) if !dir.is_empty() => assert_eq!(default_root(), PathBuf::from(dir)),
            _ => assert_eq!(default_root(), PathBuf::from(DEFAULT_STORE_DIR)),
        }
    }
}
