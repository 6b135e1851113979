//! The checkpoint directory of a resumable sweep.
//!
//! The result store records finished jobs; the journal holds checkpoints.
//! A journaled sweep keeps mid-run machine snapshots of long jobs in one
//! directory, one file per job named by its key (`<dir>/<16-hex>.msnap`).
//! A job key hashes everything the job's result depends on — engine epoch,
//! canonical point, workload, image digest, fault plan and cycle budget
//! ([`crate::key::job_key`]) — so a checkpoint can only ever resume its own
//! job, whichever sweep finds it. Rerunning any sweep over the same
//! directory serves finished jobs from the result store, and an in-flight
//! job restarts from its last checkpoint rather than from cycle zero.
//!
//! Snapshot files are written through the result store's temp-file-plus-
//! rename writer and deleted once their job's result is in the store, so
//! the directory holds only work actually in flight.

use std::path::PathBuf;

use crate::key::key_hex;
use crate::spec::SpecError;
use crate::store::write_atomic;

/// A sweep's checkpoint directory and how often to checkpoint into it.
/// Shared immutably across workers.
#[derive(Clone, Debug)]
pub struct Journal {
    /// The checkpoint directory, created before any job runs.
    pub dir: PathBuf,
    /// Checkpoint a running machine every this many cycles (0 disables
    /// mid-run snapshots).
    pub snapshot_interval: u64,
}

impl Journal {
    /// Create the directory if it is missing.
    ///
    /// # Errors
    /// Reports a location that cannot be created — a sweep that cannot
    /// record its progress should say so up front, not discover it after
    /// hours of simulation.
    pub fn create(&self) -> Result<(), SpecError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| SpecError(format!("journal {}: {e}", self.dir.display())))
    }

    fn snapshot_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}.msnap", key_hex(key)))
    }

    /// Persist a mid-run checkpoint for `key` (temp file + atomic
    /// rename; silent on failure).
    pub fn save_snapshot(&self, key: u64, bytes: &[u8]) {
        write_atomic(&self.snapshot_path(key), bytes);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_round_trip_and_clear_on_done() {
        let j = Journal {
            dir: crate::store::temp_dir("journal-snaps"),
            snapshot_interval: 0,
        };
        j.create().unwrap();
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
