//! A fixed-size thread pool over a known job list.
//!
//! The sweep engine knows every job up front, so the pool is one loop:
//! each worker takes the next job index from a shared counter, runs it,
//! and writes the result into that index's slot. The calling thread is
//! one of the workers, so a one-thread pool spawns nothing and runs the
//! jobs in order on the caller; with more threads the load balances by
//! construction — a worker that drew a long job simply draws fewer.
//! There are no external dependencies and no unsafe code.
//!
//! Results are written into a slot vector indexed by job index, so the
//! output order is the job order regardless of which worker ran what —
//! the property the byte-identical-aggregation guarantee rests on.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mipsx_telemetry::Telemetry;

/// Run `worker(index)` for every `index in 0..count` on `threads` workers
/// and return the results in index order — the pool's one entry point.
///
/// `threads` is clamped to `1..=count` (zero means one); the calling
/// thread works too, so `threads − 1` helpers are spawned. With one
/// thread the jobs run on the calling thread in index order — the serial
/// baseline the determinism tests compare against, and what keeps a
/// serial sweep's per-thread machine reuse on the caller.
///
/// **Quarantine.** A panicking job does not take the pool (and the whole
/// sweep) down with it: each call to `worker` runs under
/// [`std::panic::catch_unwind`], and a panic becomes `Err(message)` in
/// that job's slot while every other job still runs to completion. The
/// panic payload is recovered when it is a `String` or `&str` (which
/// covers `panic!`, `assert!`, `unwrap`/`expect`); anything else degrades
/// to a generic message. The worker is wrapped in [`AssertUnwindSafe`]:
/// the sweep engine only shares the job list, the result store, and
/// telemetry across jobs, and all of those are either read-only or
/// internally synchronized, so a half-finished job cannot leave them in a
/// state later jobs would misread.
///
/// **Telemetry.** When `tele` is live, each worker records busy/idle
/// nanoseconds (`pool.busy_ns`, `pool.idle_ns`) and its task count
/// (`pool.tasks`), and the pool records the worker count (`pool.workers`
/// gauge); each quarantined job counts one `pool.quarantined` tick. With
/// telemetry disabled there are no clock reads.
pub fn run_indexed<T, F>(
    count: usize,
    threads: usize,
    tele: &Telemetry,
    worker: F,
) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, count);
    tele.gauge_max("pool.workers", threads as u64);
    let live = tele.is_enabled();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    let work = || {
        let started = live.then(Instant::now);
        let (mut busy_ns, mut tasks) = (0u64, 0u64);
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let job_start = live.then(Instant::now);
            let value = catch_unwind(AssertUnwindSafe(|| worker(i))).map_err(|payload| {
                tele.count("pool.quarantined", 1);
                if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else {
                    "worker panicked (non-string payload)".to_string()
                }
            });
            *slots[i].lock().expect("pool poisoned") = Some(value);
            if let Some(t) = job_start {
                busy_ns += t.elapsed().as_nanos() as u64;
                tasks += 1;
            }
        }
        if let Some(t) = started {
            let alive_ns = t.elapsed().as_nanos() as u64;
            tele.timing_count("pool.busy_ns", busy_ns);
            tele.timing_count("pool.idle_ns", alive_ns.saturating_sub(busy_ns));
            tele.timing_count("pool.tasks", tasks);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool poisoned")
                .expect("every job index was executed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `run_indexed` without telemetry, for jobs that never panic.
    fn run_all<T: Send>(
        count: usize,
        threads: usize,
        worker: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        run_indexed(count, threads, &Telemetry::disabled(), worker)
            .into_iter()
            .map(|slot| slot.expect("job panicked"))
            .collect()
    }

    #[test]
    fn all_jobs_run_once_in_index_order() {
        let calls = AtomicUsize::new(0);
        let out = run_all(100, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let serial = run_all(37, 1, |i| i as u64 * i as u64);
        let parallel = run_all(37, 8, |i| i as u64 * i as u64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn one_long_job_does_not_hold_up_the_rest() {
        // One job is 1000x the others: the other workers keep taking the
        // next index while it runs, and results stay in index order.
        let out = run_all(16, 4, |i| {
            let reps = if i == 0 { 100_000 } else { 100 };
            (0..reps).fold(i as u64, |a, x| a.wrapping_add(x))
        });
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn degenerate_counts() {
        assert!(run_all(0, 4, |i| i).is_empty());
        assert_eq!(run_all(1, 16, |i| i), vec![0]);
        assert_eq!(run_all(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn the_shared_counter_hands_out_every_job_exactly_once() {
        // 1000 jobs on 4 workers, far more than any sweep runs: each index
        // is taken from the shared counter by exactly one worker.
        let calls = AtomicUsize::new(0);
        let tele = Telemetry::enabled();
        let out = run_indexed(1000, 4, &tele, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).map(Ok).collect::<Vec<_>>());
        assert_eq!(
            tele.snapshot().timing_counters.get("pool.tasks"),
            Some(&1000)
        );
    }

    #[test]
    fn telemetry_accounts_for_every_task() {
        let tele = Telemetry::enabled();
        let out = run_indexed(50, 4, &tele, |i| i);
        assert_eq!(out.len(), 50);
        let snap = tele.snapshot();
        assert_eq!(snap.timing_counters.get("pool.tasks"), Some(&50));
        assert_eq!(snap.gauges.get("pool.workers"), Some(&4));
        assert!(snap.timing_counters.contains_key("pool.busy_ns"));
        assert!(snap.timing_counters.contains_key("pool.idle_ns"));
    }

    #[test]
    fn a_panicking_job_is_quarantined_not_fatal() {
        let cases: [(usize, usize, &[usize]); 5] = [
            (8, 4, &[5]),
            (8, 1, &[5]),
            (8, 2, &[5]),
            (8, 8, &[5]),
            (1000, 4, &[0, 31, 500, 998, 999]),
        ];
        for (count, threads, bad) in cases {
            let tele = Telemetry::enabled();
            let out = run_indexed(count, threads, &tele, |i| {
                if bad.contains(&i) {
                    panic!("job {i} exploded");
                }
                i * 2
            });
            assert_eq!(out.len(), count);
            for (i, slot) in out.iter().enumerate() {
                match slot {
                    Ok(v) if !bad.contains(&i) => assert_eq!(*v, i * 2),
                    Err(msg) if bad.contains(&i) => {
                        assert!(msg.contains(&format!("job {i} exploded")))
                    }
                    other => panic!("{threads} threads, job {i}: unexpected {other:?}"),
                }
            }
            assert_eq!(
                tele.snapshot().counters.get("pool.quarantined"),
                Some(&(bad.len() as u64)),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn one_thread_runs_every_job_on_the_caller() {
        // Sweep jobs park their machine in a thread-local between jobs;
        // a serial sweep relies on every job sharing the caller's.
        let caller = std::thread::current().id();
        let ids = run_all(20, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn quarantine_works_on_the_serial_path_too() {
        let out = run_indexed(3, 1, &Telemetry::disabled(), |i| {
            assert!(i != 1, "assert-style panic");
            i
        });
        assert!(out[0].is_ok() && out[2].is_ok());
        assert!(out[1].as_ref().unwrap_err().contains("assert-style panic"));
    }

    #[test]
    fn serial_path_counts_tasks_too() {
        let tele = Telemetry::enabled();
        run_indexed(7, 1, &tele, |i| i);
        let snap = tele.snapshot();
        assert_eq!(snap.timing_counters.get("pool.tasks"), Some(&7));
        assert_eq!(snap.gauges.get("pool.workers"), Some(&1));
    }
}
