//! The spec pin and checkpoint directory of a resumable sweep.
//!
//! The result store records finished jobs; the journal pins the spec and
//! holds checkpoints. A journaled sweep writes a three-line header to the
//! journal file once and keeps mid-run machine snapshots for long jobs in a
//! `<journal>.snaps/` sibling directory. Resuming with the same spec serves
//! finished jobs from the result store, and an in-flight job restarts from
//! its last checkpoint rather than from cycle zero.
//!
//! The header pins a **fingerprint** — FNV-1a 64 over the expanded job
//! list (every canonical point, workload id, fault spec, and the cycle
//! budget) — so a journal can never be replayed against a different
//! sweep: any drift in the spec changes the fingerprint and resume
//! refuses with a [`SpecError`] instead of silently mixing results.
//!
//! Snapshot files are written via temp-file-plus-rename (like the result
//! store) and deleted once their job's result is in the store, so the
//! `.snaps/` directory holds only work actually in flight.

use std::io::ErrorKind;
use std::path::PathBuf;

use crate::key::{canonical_point, fnv1a, key_hex};
use crate::spec::{Job, SpecError};

/// Journal format version, written into the header; a mismatch refuses
/// to resume rather than guessing.
const JOURNAL_VERSION: u32 = 1;

/// How a sweep should journal its progress.
#[derive(Clone, Debug)]
pub struct JournalConfig {
    /// The journal file. Its sibling `<path>.snaps/` directory holds
    /// mid-run machine snapshots.
    pub path: PathBuf,
    /// Check an existing journal at `path` against the spec and restore
    /// checkpointed jobs, instead of truncating it. A missing file simply
    /// starts a fresh journal, so the first run and every retry can use
    /// the same invocation.
    pub resume: bool,
    /// Checkpoint a running machine every this many cycles (0 disables
    /// mid-run snapshots).
    pub snapshot_interval: u64,
}

impl JournalConfig {
    /// A fresh (non-resuming) journal at `path` with no mid-run
    /// snapshots.
    pub fn new(path: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig {
            path: path.into(),
            resume: false,
            snapshot_interval: 0,
        }
    }
}

/// An open journal: where its checkpoints live and how often to take
/// them. Shared immutably across workers.
#[derive(Debug)]
pub struct Journal {
    snaps: PathBuf,
    snapshot_interval: u64,
}

/// Fingerprint of an expanded job list: what the journal header pins.
pub fn fingerprint(jobs: &[Job], run_cycles: u64) -> u64 {
    let mut text = format!("run_cycles={run_cycles}\n");
    for job in jobs {
        text.push_str(&canonical_point(&job.point));
        text.push(' ');
        text.push_str(&job.workload.id());
        text.push(' ');
        text.push_str(job.fault.as_deref().unwrap_or("-"));
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

impl Journal {
    /// Open (or create) the journal described by `cfg` for a sweep whose
    /// job list hashes to `fingerprint`.
    ///
    /// # Errors
    /// Refuses to resume a journal whose fingerprint or version does not
    /// match, or which exists but cannot be read (it is left untouched),
    /// and reports I/O failures creating the file — a sweep that cannot
    /// record its progress should say so up front, not discover it after
    /// hours of simulation.
    pub fn open(cfg: &JournalConfig, fingerprint: u64) -> Result<Journal, SpecError> {
        let fail = |why: String| SpecError(format!("journal {}: {why}", cfg.path.display()));
        match cfg.resume.then(|| std::fs::read_to_string(&cfg.path)) {
            Some(Ok(text)) => check_header(&text, fingerprint).map_err(fail)?,
            Some(Err(e)) if e.kind() != ErrorKind::NotFound => return Err(fail(e.to_string())),
            _ => {
                if let Some(dir) = cfg.path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir).map_err(|e| fail(e.to_string()))?;
                }
                let header = format!(
                    "# mipsx sweep journal\nversion={JOURNAL_VERSION}\nfingerprint={}\n",
                    key_hex(fingerprint)
                );
                std::fs::write(&cfg.path, header).map_err(|e| fail(e.to_string()))?;
            }
        }
        Ok(Journal {
            snaps: PathBuf::from(format!("{}.snaps", cfg.path.display())),
            snapshot_interval: cfg.snapshot_interval,
        })
    }

    /// Cycles between mid-run checkpoints (0 = none).
    pub fn snapshot_interval(&self) -> u64 {
        self.snapshot_interval
    }

    fn snapshot_path(&self, key: u64) -> PathBuf {
        self.snaps.join(format!("{}.msnap", key_hex(key)))
    }

    /// Persist a mid-run checkpoint for `key` (temp file + atomic
    /// rename; silent on failure).
    pub fn save_snapshot(&self, key: u64, bytes: &[u8]) {
        if std::fs::create_dir_all(&self.snaps).is_err() {
            return;
        }
        let tmp = self
            .snaps
            .join(format!(".{}.tmp.{}", key_hex(key), std::process::id()));
        if std::fs::write(&tmp, bytes).is_ok()
            && std::fs::rename(&tmp, self.snapshot_path(key)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// The last checkpoint recorded for `key`, if any.
    pub fn load_snapshot(&self, key: u64) -> Option<Vec<u8>> {
        std::fs::read(self.snapshot_path(key)).ok()
    }

    /// Delete the checkpoint for `key` (no-op if there is none).
    pub fn clear_snapshot(&self, key: u64) {
        let _ = std::fs::remove_file(self.snapshot_path(key));
    }
}

/// Validate a journal's header `version` and `fingerprint`. Other lines
/// are ignored.
fn check_header(text: &str, expected_fingerprint: u64) -> Result<(), String> {
    let mut version: Option<u32> = None;
    let mut fingerprint: Option<u64> = None;
    for (k, v) in text.lines().filter_map(|line| line.trim().split_once('=')) {
        match k {
            "version" => version = v.parse().ok(),
            "fingerprint" => fingerprint = u64::from_str_radix(v, 16).ok(),
            _ => {}
        }
    }
    match version {
        Some(JOURNAL_VERSION) => {}
        Some(v) => return Err(format!("unsupported journal version {v}")),
        None => return Err("missing journal version header".to_string()),
    }
    if fingerprint != Some(expected_fingerprint) {
        return Err(format!(
            "fingerprint mismatch: journal {}, sweep {} — the spec changed since this \
             journal was written",
            fingerprint
                .map(key_hex)
                .unwrap_or_else(|| "<missing>".into()),
            key_hex(expected_fingerprint)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> JournalConfig {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        JournalConfig::new(std::env::temp_dir().join(format!(
            "mipsx-journal-{tag}-{}-{n}.journal",
            std::process::id()
        )))
    }

    #[test]
    fn resume_with_missing_file_starts_fresh() {
        let mut cfg = temp_journal("fresh");
        cfg.resume = true;
        Journal::open(&cfg, 1).unwrap();
        let text = std::fs::read_to_string(&cfg.path).unwrap();
        assert!(
            text.ends_with("version=1\nfingerprint=0000000000000001\n"),
            "{text}"
        );
        // The header it wrote pins the spec for the next retry.
        Journal::open(&cfg, 1).unwrap();
    }

    #[test]
    fn fingerprint_mismatch_refuses_resume() {
        let mut cfg = temp_journal("fp");
        Journal::open(&cfg, 0x1111).unwrap();
        cfg.resume = true;
        let err = Journal::open(&cfg, 0x2222).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn unreadable_journal_is_refused_and_left_alone() {
        let mut cfg = temp_journal("unreadable");
        cfg.resume = true;
        let bytes = b"version=1\nfingerprint=\xff\xfe\n";
        std::fs::write(&cfg.path, bytes).unwrap();
        let err = Journal::open(&cfg, 7).unwrap_err();
        assert!(err.to_string().contains("journal"), "{err}");
        assert_eq!(std::fs::read(&cfg.path).unwrap(), bytes);
    }

    #[test]
    fn snapshots_round_trip_and_clear_on_done() {
        let cfg = temp_journal("snaps");
        let j = Journal::open(&cfg, 9).unwrap();
        assert!(j.load_snapshot(3).is_none());
        j.save_snapshot(3, b"machine bytes");
        assert_eq!(j.load_snapshot(3).as_deref(), Some(&b"machine bytes"[..]));
        j.save_snapshot(3, b"newer bytes");
        assert_eq!(j.load_snapshot(3).as_deref(), Some(&b"newer bytes"[..]));
        // A job whose result reached the store drops its checkpoint.
        j.clear_snapshot(3);
        assert!(j.load_snapshot(3).is_none());
    }
}
