//! A fixed-size work-stealing thread pool over a known job list.
//!
//! The sweep engine knows every job up front, so the pool is deliberately
//! minimal: contiguous index *chunks* are dealt round-robin into one deque
//! per worker; each worker pops from the *front* of its own deque and,
//! when empty, steals from the *back* of the most-loaded victim. Chunks
//! stay size 1 until the job list is large relative to the fleet, so small
//! sweeps schedule exactly job-by-job while a many-tiny-jobs sweep
//! amortizes its queue traffic over whole batches. There are no external
//! dependencies and no unsafe code — deques are `Mutex`-guarded, which is
//! negligible next to jobs that each simulate millions of cycles.
//!
//! Results are written into a slot vector indexed by job index, so the
//! output order is the job order regardless of which worker ran what —
//! the property the byte-identical-aggregation guarantee rests on.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use mipsx_telemetry::Telemetry;

/// Run `worker(index)` for every `index in 0..count` on `threads` workers
/// and return the results in index order — the pool's one entry point.
///
/// `threads` is clamped to `1..=count` (zero means one). With one thread
/// the jobs run on the calling thread in order, with no pool machinery —
/// the serial baseline the determinism tests compare against.
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
/// nanoseconds (`pool.busy_ns`, `pool.idle_ns`), its task and steal
/// counts (`pool.tasks`, `pool.steals`), and the pool records the worker
/// count and deepest queue observed at a steal attempt (`pool.workers`,
/// `pool.queue_depth_max` gauges); each quarantined job counts one
/// `pool.quarantined` tick. With telemetry disabled there are no clock
/// reads.
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
    let worker = |i| {
        catch_unwind(AssertUnwindSafe(|| worker(i))).map_err(|payload| {
            if tele.is_enabled() {
                tele.count("pool.quarantined", 1);
            }
            if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else {
                "worker panicked (non-string payload)".to_string()
            }
        })
    };
    if count == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, count);
    if threads == 1 {
        if tele.is_enabled() {
            tele.gauge_max("pool.workers", 1);
            let start = Instant::now();
            let out: Vec<_> = (0..count)
                .map(|i| {
                    tele.timing_count("pool.tasks", 1);
                    worker(i)
                })
                .collect();
            tele.timing_count("pool.busy_ns", start.elapsed().as_nanos() as u64);
            return out;
        }
        return (0..count).map(worker).collect();
    }

    // Deal contiguous chunks round-robin. A chunk of 1 (any sweep under
    // 8 jobs per worker) reproduces the historical job-by-job dealing
    // exactly; bigger sweeps batch so each queue operation — and each
    // steal — moves several small jobs at once. `pool.tasks` still counts
    // *jobs*, not chunks, so its total stays the job count.
    let chunk = (count / (threads * 8)).clamp(1, 32);
    let mut deal: Vec<VecDeque<(usize, usize)>> = (0..threads).map(|_| VecDeque::new()).collect();
    for (i, start) in (0..count).step_by(chunk).enumerate() {
        deal[i % threads].push_back((start, count.min(start + chunk)));
    }
    let queues: Vec<Mutex<VecDeque<(usize, usize)>>> = deal.into_iter().map(Mutex::new).collect();
    let results: Vec<Mutex<Option<Result<T, String>>>> =
        (0..count).map(|_| Mutex::new(None)).collect();
    if tele.is_enabled() {
        tele.gauge_max("pool.workers", threads as u64);
    }

    std::thread::scope(|scope| {
        for me in 0..threads {
            let queues = &queues;
            let results = &results;
            let worker = &worker;
            scope.spawn(move || {
                let live = tele.is_enabled();
                let spawned = live.then(Instant::now);
                let mut busy_ns = 0u64;
                let mut tasks = 0u64;
                let mut steals = 0u64;
                loop {
                    // Own work first (front of own deque)…
                    let mut job = queues[me].lock().expect("pool poisoned").pop_front();
                    // …then steal from the back of the fullest victim.
                    if job.is_none() {
                        let victim = (0..threads).filter(|&v| v != me).max_by_key(|&v| {
                            let depth = queues[v].lock().expect("pool poisoned").len();
                            if live {
                                tele.gauge_max("pool.queue_depth_max", depth as u64);
                            }
                            depth
                        });
                        if let Some(v) = victim {
                            job = queues[v].lock().expect("pool poisoned").pop_back();
                            if live && job.is_some() {
                                steals += 1;
                            }
                        }
                    }
                    let Some((start, end)) = job else { break };
                    let task_start = live.then(Instant::now);
                    for (index, slot) in results.iter().enumerate().take(end).skip(start) {
                        let value = worker(index);
                        *slot.lock().expect("pool poisoned") = Some(value);
                    }
                    if let Some(t) = task_start {
                        busy_ns += t.elapsed().as_nanos() as u64;
                        tasks += (end - start) as u64;
                    }
                }
                if let Some(t) = spawned {
                    let alive_ns = t.elapsed().as_nanos() as u64;
                    tele.timing_count("pool.busy_ns", busy_ns);
                    tele.timing_count("pool.idle_ns", alive_ns.saturating_sub(busy_ns));
                    tele.timing_count("pool.tasks", tasks);
                    tele.timing_count("pool.steals", steals);
                }
            });
        }
    });

    results
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
    fn stealing_drains_imbalanced_loads() {
        // One job is 1000x the others; the pool must still finish and keep
        // index order.
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
    fn chunked_dealing_covers_every_job_exactly_once() {
        // 1000 jobs on 4 workers → chunk size 31: the batched path, unlike
        // the small sweeps above (≤ 8 jobs/worker keep chunk size 1).
        let calls = AtomicUsize::new(0);
        let tele = Telemetry::enabled();
        let out = run_indexed(1000, 4, &tele, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).map(Ok).collect::<Vec<_>>());
        // pool.tasks counts jobs, not chunks.
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
        let tele = Telemetry::enabled();
        let out = run_indexed(8, 4, &tele, |i| {
            if i == 5 {
                panic!("job {i} exploded");
            }
            i * 2
        });
        assert_eq!(out.len(), 8);
        for (i, slot) in out.iter().enumerate() {
            match slot {
                Ok(v) if i != 5 => assert_eq!(*v, i * 2),
                Err(msg) if i == 5 => assert!(msg.contains("job 5 exploded")),
                other => panic!("job {i}: unexpected {other:?}"),
            }
        }
        assert_eq!(tele.snapshot().counters.get("pool.quarantined"), Some(&1));
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
