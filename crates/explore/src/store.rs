//! The content-addressed, on-disk result store.
//!
//! One file per job result, named by the job's 64-bit key
//! (`<dir>/<16-hex>.result`), in a line-oriented `field=value` format that
//! round-trips every counter exactly (all fields are integers). Writes go
//! through a per-process temporary file and an atomic rename
//! (`write_atomic`, which the journal's checkpoints share), so parallel
//! workers and even concurrent sweep processes never observe torn files.
//!
//! Every record carries a `checksum=` line — FNV-1a 64 over the canonical
//! field block — so a truncated or bit-flipped entry is detected on read,
//! **evicted** (the file is deleted), and reported as a miss; the sweep
//! then recomputes and rewrites it. A well-formed record whose version is
//! not ours is left on disk untouched (it may belong to a newer binary
//! sharing the store) and also reads as a miss.
//!
//! The directory defaults to `sweeps/` and is overridable with the
//! `MIPSX_SWEEP_DIR` environment variable (used by CI to keep the store
//! out of the checkout).

use std::path::{Path, PathBuf};
use std::time::Instant;

use mipsx_telemetry::Telemetry;

use crate::engine::JobResult;
use crate::key::{fnv1a, key_hex};

/// Store format version, written into every file; unknown versions read as
/// cache misses. Version 2 added the `checksum=` integrity line; version 3
/// added the `frozen_cycles` and `stall_events` counters; version 4 records
/// every `RunStats` counter, in `RunStats` order (`nops` before `squashed`).
const FORMAT_VERSION: u32 = 4;

/// Handle to the result store (or to nothing, when caching is off).
#[derive(Clone, Debug)]
pub struct ResultStore {
    dir: Option<PathBuf>,
}

impl ResultStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn at(dir: impl Into<PathBuf>) -> ResultStore {
        ResultStore {
            dir: Some(dir.into()),
        }
    }

    /// The disabled store: every load misses, every save is dropped.
    pub fn disabled() -> ResultStore {
        ResultStore { dir: None }
    }

    /// The default store root: `$MIPSX_SWEEP_DIR`, or `sweeps/` under the
    /// current directory.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("MIPSX_SWEEP_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("sweeps"))
    }

    /// Whether caching is enabled.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    fn path_for(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{}.result", key_hex(key))))
    }

    /// Load the result stored under `key`, if present and well-formed.
    /// A corrupt entry (checksum mismatch, truncation, unparsable fields)
    /// is deleted so the recomputed result can take its place.
    ///
    /// With `tele` live (and the store enabled) this counts `store.reads`
    /// / `store.read_hits` / `store.corrupt_evictions` and samples
    /// `store.read_ns`; otherwise it reads no clock.
    pub fn load(&self, key: u64, tele: &Telemetry) -> Option<JobResult> {
        if !tele.is_enabled() || !self.is_enabled() {
            return self.read(key).0;
        }
        let start = Instant::now();
        let (result, evicted) = self.read(key);
        tele.timing_observe("store.read_ns", start.elapsed().as_nanos() as u64);
        tele.timing_count("store.reads", 1);
        if result.is_some() {
            tele.timing_count("store.read_hits", 1);
        }
        if evicted {
            tele.timing_count("store.corrupt_evictions", 1);
        }
        result
    }

    /// `(result, evicted-a-corrupt-entry)`.
    fn read(&self, key: u64) -> (Option<JobResult>, bool) {
        let Some(path) = self.path_for(key) else {
            return (None, false);
        };
        let Ok(text) = std::fs::read_to_string(&path) else {
            return (None, false);
        };
        match parse_record(&text) {
            Ok(result) => (Some(result), false),
            Err(Miss::Foreign) => (None, false),
            Err(Miss::Corrupt) => {
                let _ = std::fs::remove_file(&path);
                (None, true)
            }
        }
    }

    /// Persist `result` under `key`. `note` is a human-readable comment
    /// (job label) written into the file header; it is not read back.
    /// Failures are silent by design — a read-only store degrades to
    /// caching nothing, not to failing the sweep.
    ///
    /// With `tele` live (and the store enabled) this counts
    /// `store.writes` and samples `store.write_ns`.
    pub fn save(&self, key: u64, result: &JobResult, note: &str, tele: &Telemetry) {
        if !tele.is_enabled() || !self.is_enabled() {
            self.write(key, result, note);
            return;
        }
        let start = Instant::now();
        self.write(key, result, note);
        tele.timing_observe("store.write_ns", start.elapsed().as_nanos() as u64);
        tele.timing_count("store.writes", 1);
    }

    fn write(&self, key: u64, result: &JobResult, note: &str) {
        let Some(path) = self.path_for(key) else {
            return;
        };
        let mut text = format!(
            "# mipsx sweep result\nversion={FORMAT_VERSION}\n# {}\n",
            note.replace('\n', " ")
        );
        let record = result.to_record();
        text.push_str(&record);
        text.push_str(&format!("checksum={}\n", key_hex(fnv1a(record.as_bytes()))));
        write_atomic(&path, text.as_bytes());
    }
}

/// Write `bytes` to `path` through a per-process temporary file and an
/// atomic rename, creating the directory if needed, so no reader ever
/// observes a torn file. Silent on failure. The one writer of both the
/// result store and the journal's checkpoints.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    if std::fs::write(&tmp, bytes).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

/// Why a record on disk is not a result.
enum Miss {
    /// Well-formed header with a version that is not ours — a miss, but
    /// not ours to delete.
    Foreign,
    /// Truncated, bit-flipped, or otherwise unparsable — evict it.
    Corrupt,
}

/// The record's result: current version, fields parse, checksum matches.
fn parse_record(text: &str) -> Result<JobResult, Miss> {
    let mut version: Option<u32> = None;
    let mut checksum: Option<u64> = None;
    let mut fields: Vec<(&str, u64)> = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((k, v)) = line.split_once('=') else {
            return Err(Miss::Corrupt);
        };
        match k {
            "version" => version = v.parse().ok(),
            "checksum" => checksum = u64::from_str_radix(v, 16).ok(),
            _ => match v.parse() {
                Ok(n) => fields.push((k, n)),
                Err(_) => return Err(Miss::Corrupt),
            },
        }
    }
    match version {
        Some(v) if v == FORMAT_VERSION => {}
        Some(_) => return Err(Miss::Foreign),
        None => return Err(Miss::Corrupt),
    }
    let (Some(stored), Some(result)) = (checksum, JobResult::from_pairs(&fields)) else {
        return Err(Miss::Corrupt);
    };
    // Recompute over the canonical re-serialization: any flipped digit or
    // dropped line changes either the parse or this hash.
    if fnv1a(result.to_record().as_bytes()) != stored {
        return Err(Miss::Corrupt);
    }
    Ok(result)
}

/// A store rooted in a fresh, unique temporary directory (test helper).
pub fn temp_store(tag: &str) -> ResultStore {
    ResultStore::at(temp_dir(tag))
}

/// A fresh, unique path under the temporary directory (test helper).
pub(crate) fn temp_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("mipsx-sweep-{tag}-{}-{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_misses() {
        let store = temp_store("store-test");
        let r = JobResult {
            cycles: 123,
            instructions: 45,
            ..JobResult::default()
        };
        assert!(store.load(7, &Telemetry::disabled()).is_none());
        store.save(7, &r, "label with\nnewline", &Telemetry::disabled());
        assert_eq!(store.load(7, &Telemetry::disabled()), Some(r));
        assert!(store.load(8, &Telemetry::disabled()).is_none());
    }

    #[test]
    fn disabled_store_is_inert() {
        let store = ResultStore::disabled();
        store.save(1, &JobResult::default(), "x", &Telemetry::disabled());
        assert!(store.load(1, &Telemetry::disabled()).is_none());
        assert!(!store.is_enabled());
    }

    #[test]
    fn traced_paths_record_latencies() {
        let store = temp_store("store-traced");
        let tele = Telemetry::enabled();
        let r = JobResult {
            cycles: 9,
            ..JobResult::default()
        };
        assert!(store.load(3, &tele).is_none());
        store.save(3, &r, "traced", &tele);
        assert_eq!(store.load(3, &tele), Some(r));
        let snap = tele.snapshot();
        assert_eq!(snap.timing_counters.get("store.reads"), Some(&2));
        assert_eq!(snap.timing_counters.get("store.read_hits"), Some(&1));
        assert_eq!(snap.timing_counters.get("store.writes"), Some(&1));
        assert_eq!(snap.timing_histograms["store.read_ns"].count, 2);
        assert_eq!(snap.timing_histograms["store.write_ns"].count, 1);
    }

    #[test]
    fn corrupt_entries_are_evicted_and_recomputable() {
        let store = temp_store("store-corrupt");
        let tele = Telemetry::enabled();
        let r = JobResult {
            cycles: 123_456,
            instructions: 7,
            ..JobResult::default()
        };
        store.save(4, &r, "victim", &Telemetry::disabled());
        let path = store
            .dir
            .as_ref()
            .unwrap()
            .join(format!("{}.result", key_hex(4)));

        // Bit-flip: change one digit of a counter without touching the
        // checksum line. The record still parses — only the hash betrays it.
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replacen("cycles=123456", "cycles=123457", 1);
        assert_ne!(text, flipped, "fixture must actually flip a digit");
        std::fs::write(&path, flipped).unwrap();
        assert_eq!(store.load(4, &tele), None);
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert_eq!(
            tele.snapshot()
                .timing_counters
                .get("store.corrupt_evictions"),
            Some(&1)
        );

        // Truncation: cut the file mid-record (losing the checksum line).
        store.save(4, &r, "victim", &Telemetry::disabled());
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.load(4, &tele), None);
        assert!(!path.exists());

        // Recompute-and-rewrite restores service.
        store.save(4, &r, "victim", &Telemetry::disabled());
        assert_eq!(store.load(4, &Telemetry::disabled()), Some(r));
    }

    #[test]
    fn malformed_files_read_as_misses() {
        let store = temp_store("store-bad");
        store.save(9, &JobResult::default(), "ok", &Telemetry::disabled());
        let path = match &store.dir {
            Some(d) => d.join(format!("{}.result", key_hex(9))),
            None => unreachable!(),
        };
        std::fs::write(&path, "version=999\ncycles=1\n").unwrap();
        assert!(store.load(9, &Telemetry::disabled()).is_none());
        std::fs::write(&path, "not a record at all").unwrap();
        assert!(store.load(9, &Telemetry::disabled()).is_none());
    }

    /// Version 3's 24-field record, in its order; version 2's is the same
    /// minus `frozen_cycles` and `stall_events`.
    const V3_FIELDS: [&str; 24] = [
        "cycles",
        "instructions",
        "squashed",
        "nops",
        "branches",
        "branches_taken",
        "branch_slot_nops",
        "branch_slot_squashed",
        "loads",
        "stores",
        "exceptions",
        "icache_stall_cycles",
        "ecache_stall_cycles",
        "frozen_cycles",
        "stall_events",
        "icache_accesses",
        "icache_misses",
        "icache_fill_stalls",
        "ecache_accesses",
        "ecache_misses",
        "sched_branches",
        "sched_squashing",
        "sched_slot_nops",
        "sched_load_nops",
    ];

    #[test]
    fn a_well_formed_v2_record_is_a_miss_left_on_disk() {
        let store = temp_store("store-v2");
        store.save(5, &JobResult::default(), "current", &Telemetry::disabled());
        let path = store
            .dir
            .as_ref()
            .unwrap()
            .join(format!("{}.result", key_hex(5)));
        let v2_fields = V3_FIELDS
            .into_iter()
            .filter(|&f| f != "frozen_cycles" && f != "stall_events");
        // Each older field set, with a checksum that matches it.
        for (version, fields) in [(2, v2_fields.collect::<Vec<_>>()), (3, V3_FIELDS.to_vec())] {
            let record: String = fields.iter().map(|f| format!("{f}=0\n")).collect();
            let old = format!(
                "# mipsx sweep result\nversion={version}\n# older\n{record}checksum={}\n",
                key_hex(fnv1a(record.as_bytes()))
            );
            std::fs::write(&path, &old).unwrap();
            assert_eq!(store.load(5, &Telemetry::disabled()), None, "v{version}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                old,
                "v{version}: not ours to delete"
            );
        }
    }
}
