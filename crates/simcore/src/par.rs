//! A zero-dependency parallel runner for independent simulation jobs.
//!
//! Simulation sweeps are embarrassingly parallel: each policy run (and
//! each machine of a cluster run) is a self-contained deterministic
//! simulation. This module fans such jobs across OS threads with
//! `std::thread::scope` — no external crates, no work-stealing runtime —
//! while keeping results in **input order**, so any output assembled from
//! the results is byte-identical at any thread count.
//!
//! The thread count comes from the `BENCH_THREADS` environment variable;
//! unset or invalid values fall back to the host's available parallelism.
//! `BENCH_THREADS=1` forces fully sequential execution on the calling
//! thread (handy for timing baselines and debugging). Callers that must
//! not consult the environment (benchmarks, determinism tests) can pin
//! the fan width explicitly with [`par_map_with`].

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The worker-thread count: `BENCH_THREADS` if set to a positive integer,
/// otherwise the host's available parallelism (1 if unknown).
pub fn bench_threads() -> usize {
    match std::env::var("BENCH_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to [`bench_threads`] worker threads and
/// returns the results **in input order** regardless of scheduling.
///
/// `f` receives `(index, item)`. Items are claimed from a shared counter,
/// so long jobs do not serialize behind short ones. With one thread (or
/// one item) everything runs on the calling thread. A panic in any job
/// (e.g. a simulation deadlock) propagates to the caller with its
/// original payload.
///
/// # Examples
///
/// ```
/// let squares = faas_simcore::par::par_map(vec![1u64, 2, 3], |i, x| x * x + i as u64);
/// assert_eq!(squares, vec![1, 5, 11]);
/// ```
///
/// # Panics
///
/// Re-raises the panic of the lowest-index job that panicked.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_with(bench_threads(), items, f)
}

/// [`par_map`] with an explicit worker-thread cap instead of the
/// `BENCH_THREADS` environment variable — for callers that need a pinned,
/// environment-independent fan width (timing benchmarks, determinism
/// tests sweeping thread counts in-process).
///
/// # Panics
///
/// Re-raises the panic of the lowest-index job that panicked, with its
/// original payload.
pub fn par_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Each worker catches its jobs' panics and reports the first one it
    // saw (its claims ascend, so that is its lowest index). Every job
    // still runs, so the payload re-raised below — the lowest-index
    // panic overall — is the one the serial path would have raised.
    let first_panic = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut first: Option<(usize, Box<dyn Any + Send>)> = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return first;
                        }
                        let item = jobs[i]
                            .lock()
                            .expect("job slot poisoned")
                            .take()
                            .expect("job claimed twice");
                        match panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                            Ok(out) => *slots[i].lock().expect("result slot poisoned") = Some(out),
                            Err(payload) => {
                                first.get_or_insert((i, payload));
                            }
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .filter_map(|w| w.join().expect("worker catches its jobs' panics"))
            .min_by_key(|&(i, _)| i)
    });
    if let Some((_, payload)) = first_panic {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker finished every claimed job")
        })
        .collect()
}

/// Runs a batch of heterogeneous jobs in parallel, returning their results
/// in input order. Sugar over [`par_map`] for sweeps whose cases are not
/// uniform enough for a single `(index, item)` closure.
///
/// # Panics
///
/// Re-raises the panic of the lowest-index job that panicked.
pub fn run_all<R: Send>(jobs: Vec<Box<dyn FnOnce() -> R + Send + '_>>) -> Vec<R> {
    par_map(jobs, |_, job| job())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        // Make later items finish first by sleeping less.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(items, |i, x| {
            std::thread::sleep(std::time::Duration::from_micros(200 - 10 * x));
            (i, x * 2)
        });
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, 2 * i as u64);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, |_, x: u32| x).is_empty());
        assert_eq!(par_map(vec![7u32], |i, x| x + i as u32), vec![7]);
    }

    #[test]
    fn explicit_thread_cap_matches_env_path() {
        let items: Vec<u64> = (0..32).collect();
        let serial = par_map_with(1, items.clone(), |i, x| x * 3 + i as u64);
        let fanned = par_map_with(4, items, |i, x| x * 3 + i as u64);
        assert_eq!(serial, fanned);
    }

    #[test]
    fn run_all_mixes_job_shapes() {
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "first".to_string()),
            Box::new(|| format!("{}", 2 * 21)),
        ];
        assert_eq!(run_all(jobs), vec!["first".to_string(), "42".to_string()]);
    }

    #[test]
    fn thread_count_env_parsing() {
        // Can't mutate the environment safely in parallel tests; just
        // check the fallback is sane.
        assert!(bench_threads() >= 1);
    }

    #[test]
    fn lowest_index_panic_payload_wins_at_any_fan_width() {
        for threads in [1, 4] {
            let payload = std::panic::catch_unwind(|| {
                par_map_with(threads, (0..8u32).collect(), |_, x| {
                    assert!(x % 3 != 2, "job {x}");
                    x
                })
            })
            .expect_err("jobs 2 and 5 panic");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("job 2"), "fan {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = par_map(vec![0u8, 1], |_, x| {
            if x == 1 {
                panic!("boom");
            }
            x
        });
    }
}
