//! Deterministic fan-out: run an indexed batch of independent jobs on
//! a scoped thread pool and return results in index order.
//!
//! DST seed sweeps are embarrassingly parallel — every seed is an
//! isolated simulation — but a parallel sweep is only trustworthy if
//! its *output* is indistinguishable from the serial one. [`run_indexed`]
//! guarantees that by construction: workers self-schedule indices off a
//! shared atomic counter (no per-thread striping, so stragglers don't
//! idle the pool) and write each result into its own pre-allocated
//! slot, so the returned `Vec` is always in index order no matter which
//! worker ran what. Callers that fold the results in index order get
//! byte-identical reports at any `jobs` count — the property the
//! `runtime dst --jobs` CLI gates on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `count` jobs — `job(i)` for `i` in `0..count` — on `jobs`
/// worker threads and returns the results in index order.
///
/// `jobs == 0` is treated as 1. With `jobs == 1` or `count <= 1` the
/// work runs inline on the caller's thread (no pool, no overhead), so
/// `--jobs 1` is *exactly* the serial path.
///
/// # Panics
///
/// Propagates a panic from any job after the scope joins.
pub fn run_indexed<T, F>(count: usize, jobs: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1);
    if jobs == 1 || count <= 1 {
        return (0..count).map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(count) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let out = job(i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(64, 4, |i| i * i);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| format!("seed{}:{}", i, (i as u64).wrapping_mul(0x9E37_79B9));
        let serial = run_indexed(33, 1, f);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(run_indexed(33, jobs, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_and_empty_batch_are_fine() {
        assert_eq!(run_indexed(5, 0, |i| i), vec![0, 1, 2, 3, 4]);
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn more_jobs_than_work_is_fine() {
        assert_eq!(run_indexed(2, 16, |i| i + 1), vec![1, 2]);
    }

    #[test]
    fn four_jobs_on_four_workers_all_run_at_once() {
        // Each job checks in, then waits for all four to have checked
        // in. Run one after another, job `i` gives up reading `i + 1`;
        // the count is what is checked, not a time, so a loaded host
        // can slow the test but cannot fail it.
        use std::time::{Duration, Instant};
        let arrived = AtomicUsize::new(0);
        let seen = run_indexed(4, 4, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let give_up = Instant::now() + Duration::from_secs(5);
            loop {
                let n = arrived.load(Ordering::SeqCst);
                if n == 4 || Instant::now() >= give_up {
                    return n;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(seen, vec![4, 4, 4, 4]);
    }
}
