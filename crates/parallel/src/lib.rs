//! Dependency-free parallel fan-out for independent simulation runs.
//!
//! Parameter sweeps and multi-seed replays run many *independent*
//! simulations — each fully deterministic on its own inputs — so they
//! parallelize trivially: fan the (seed, N, scheme) points across
//! threads and reassemble results **by input index**. Because each run
//! shares no state with any other and results come back in input order,
//! the output is bit-identical to the serial driver no matter how the
//! scheduler interleaves the workers.
//!
//! The pool is built on [`std::thread::scope`] only (the workspace is
//! hermetic: no rayon/crossbeam), with a single atomic work counter for
//! load balancing.
//!
//! # Examples
//!
//! ```
//! let squares = dctcp_parallel::par_map(vec![1u64, 2, 3, 4], 2, |_idx, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the `DCTCP_JOBS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown).
pub fn available_threads() -> usize {
    if let Ok(v) = std::env::var("DCTCP_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item on up to `threads` worker threads and
/// returns the results **in input order** — element `i` of the output is
/// always `f(i, items[i])`, so a fan-out over deterministic jobs is
/// bit-identical to running them serially.
///
/// `f` receives the item's input index alongside the item. With
/// `threads <= 1` (or a single item) everything runs inline on the
/// caller's thread with no pool at all — the serial and parallel drivers
/// are literally the same code path fed the same inputs.
///
/// # Panics
///
/// Propagates the first worker panic after all threads have stopped
/// (via [`std::thread::scope`] joining).
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }
    let workers = threads.min(n);
    // Hand each worker items by index through per-slot locks: the shared
    // counter balances load, the slot index — not completion order —
    // decides where a result lands.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let item = inputs[i]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("item claimed twice");
                    let out = f(i, item);
                    *outputs[i].lock().expect("output slot poisoned") = Some(out);
                })
            })
            .collect();
        // Join explicitly so a worker panic resurfaces with its original
        // payload instead of scope's generic message.
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    outputs
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("output slot poisoned")
                .unwrap_or_else(|| panic!("worker produced no result for item {i}"))
        })
        .collect()
}

/// A worker panic caught by [`run_isolated`] and carried as a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaughtPanic {
    /// The panic payload rendered as text (`&str` / `String` payloads
    /// verbatim, anything else a fixed placeholder), so the message is a
    /// deterministic function of the panic site.
    pub message: String,
}

impl std::fmt::Display for CaughtPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panicked: {}", self.message)
    }
}

/// Runs `f` under [`std::panic::catch_unwind`], converting a panic into
/// a typed [`CaughtPanic`] instead of unwinding into the caller.
///
/// This is the supervision primitive: one poisoned job must not take
/// down its siblings or the driver. `f` is wrapped in
/// [`AssertUnwindSafe`](std::panic::AssertUnwindSafe), which is sound
/// for the fan-out drivers here because a failed job's partial state is
/// discarded wholesale — nothing observes the interior of a job that
/// panicked.
///
/// # Examples
///
/// ```
/// let ok = dctcp_parallel::run_isolated(|| 2 + 2);
/// assert_eq!(ok, Ok(4));
///
/// let err = dctcp_parallel::run_isolated(|| -> u32 { panic!("boom") });
/// assert_eq!(err.unwrap_err().message, "boom");
/// ```
pub fn run_isolated<R, F: FnOnce() -> R>(f: F) -> Result<R, CaughtPanic> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        CaughtPanic { message }
    })
}

/// Why a [`drive_windows`] run stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WindowError<E> {
    /// A shard's step returned an error. The lowest shard index is
    /// reported when several fail in the same window, so the outcome is
    /// deterministic.
    Job {
        /// Index of the failing shard.
        index: usize,
        /// The shard's own error.
        error: E,
    },
    /// A shard's step panicked. The panic is caught inside the worker so
    /// every sibling still reaches the window barrier — a poisoned shard
    /// can never deadlock the others.
    Panic {
        /// Index of the panicking shard.
        index: usize,
        /// The rendered panic payload.
        panic: CaughtPanic,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for WindowError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WindowError::Job { index, error } => write!(f, "shard {index} failed: {error}"),
            WindowError::Panic { index, panic } => write!(f, "shard {index} {panic}"),
        }
    }
}

/// Drives a set of shards through barrier-synchronized time windows.
///
/// Each iteration, `plan` runs alone on the caller's thread with mutable
/// access to **all** shards — this is the synchronization point where a
/// conservative parallel simulation exchanges cross-shard mailboxes and
/// computes the next safe window bound. `plan` returns `Some(window)` to
/// run one more window or `None` to finish. Then `step` runs once per
/// shard — concurrently on scoped worker threads when `threads > 1`,
/// inline otherwise — and the loop does not continue until every shard
/// has finished the window (the barrier is the thread join itself).
///
/// Panics inside `step` are caught per shard ([`run_isolated`]), so a
/// poisoned shard releases the barrier instead of wedging it; errors and
/// panics are reported for the lowest failing shard index, making the
/// failure deterministic for deterministic shards.
///
/// # Errors
///
/// Returns [`WindowError::Job`] when a step reports an error and
/// [`WindowError::Panic`] when one panics, in both cases for the lowest
/// failing shard index of the first failing window.
pub fn drive_windows<S, W, E, P, F>(
    shards: &mut [S],
    threads: usize,
    mut plan: P,
    step: F,
) -> Result<(), WindowError<E>>
where
    S: Send,
    W: Copy + Send,
    E: Send,
    P: FnMut(&mut [S]) -> Option<W>,
    F: Fn(usize, &mut S, W) -> Result<(), E> + Sync,
{
    while let Some(window) = plan(shards) {
        let results: Vec<Result<Result<(), E>, CaughtPanic>> = if threads <= 1 || shards.len() <= 1
        {
            shards
                .iter_mut()
                .enumerate()
                .map(|(i, s)| run_isolated(|| step(i, s, window)))
                .collect()
        } else {
            let step = &step;
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .enumerate()
                    .map(|(i, s)| scope.spawn(move || run_isolated(|| step(i, s, window))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        // `step` is caught inside the worker, so join
                        // only fails if the catch itself died.
                        h.join().unwrap_or_else(|_| {
                            Err(CaughtPanic {
                                message: "worker thread died outside the panic guard".into(),
                            })
                        })
                    })
                    .collect()
            })
        };
        for (index, result) in results.into_iter().enumerate() {
            match result {
                Ok(Ok(())) => {}
                Ok(Err(error)) => return Err(WindowError::Job { index, error }),
                Err(panic) => return Err(WindowError::Panic { index, panic }),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_input_ordered() {
        // Jobs finish out of order (larger inputs sleep longer when run
        // concurrently); results must still land by input index.
        let items: Vec<u64> = (0..64).rev().collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        let got = par_map(items, 8, |_i, x| {
            std::thread::sleep(std::time::Duration::from_micros(x * 10));
            x * 3
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn index_matches_item_position() {
        let got = par_map(vec![10u64, 20, 30], 3, |i, x| (i, x));
        assert_eq!(got, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let job = |_i: usize, seed: u64| {
            // A deterministic pseudo-sim: results depend only on input.
            let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..1000 {
                h ^= h >> 33;
                h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
            }
            h
        };
        let seeds: Vec<u64> = (1..=40).collect();
        let serial = par_map(seeds.clone(), 1, job);
        for threads in [2, 4, 7] {
            assert_eq!(par_map(seeds.clone(), threads, job), serial);
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map((0..100u64).collect(), 4, |_i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(calls.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(empty, 4, |_i, x: u64| x).is_empty());
        assert_eq!(par_map(vec![5u64], 4, |_i, x| x + 1), vec![6]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        assert_eq!(par_map(vec![1u64, 2], 64, |_i, x| x), vec![1, 2]);
    }

    #[test]
    fn non_copy_items_move_through() {
        let items = vec![String::from("a"), String::from("bb")];
        let got = par_map(items, 2, |_i, s| s.len());
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        par_map(vec![1u64, 2, 3], 2, |_i, x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    /// A toy "simulation": each shard advances its clock to the window
    /// bound, accumulating work; the plan hands out three fixed windows.
    fn drive_counters(threads: usize) -> Vec<u64> {
        let mut shards: Vec<u64> = vec![0; 4];
        let mut windows = vec![10u64, 20, 30].into_iter();
        drive_windows::<_, _, (), _, _>(
            &mut shards,
            threads,
            |_shards| windows.next(),
            |i, s, w| {
                *s = w + i as u64;
                Ok(())
            },
        )
        .unwrap();
        shards
    }

    #[test]
    fn drive_windows_serial_and_parallel_agree() {
        let serial = drive_counters(1);
        assert_eq!(serial, vec![30, 31, 32, 33]);
        for threads in [2, 4, 8] {
            assert_eq!(drive_counters(threads), serial);
        }
    }

    #[test]
    fn drive_windows_plan_sees_step_mutations() {
        // The plan observes state written by the previous window's steps:
        // that is the barrier guarantee.
        let mut shards: Vec<u64> = vec![0; 3];
        let mut rounds = 0;
        drive_windows::<_, _, (), _, _>(
            &mut shards,
            2,
            |shards| {
                if rounds > 0 {
                    assert!(shards.iter().all(|&s| s == rounds));
                }
                rounds += 1;
                (rounds <= 5).then_some(rounds)
            },
            |_i, s, w| {
                *s = w;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(shards, vec![5, 5, 5]);
    }

    #[test]
    fn drive_windows_reports_lowest_index_job_error() {
        for threads in [1, 4] {
            let mut shards: Vec<u64> = (0..8).collect();
            let mut first = true;
            let err = drive_windows(
                &mut shards,
                threads,
                |_shards| {
                    let w = first.then_some(1u64);
                    first = false;
                    w
                },
                |i, s, _w| {
                    if *s % 3 == 1 {
                        Err(format!("bad shard {i}"))
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
            assert_eq!(
                err,
                WindowError::Job {
                    index: 1,
                    error: "bad shard 1".to_string(),
                }
            );
        }
    }

    #[test]
    fn drive_windows_panic_releases_barrier_and_is_typed() {
        for threads in [1, 4] {
            let mut shards: Vec<u64> = vec![0; 4];
            let mut first = true;
            let err = drive_windows::<_, _, (), _, _>(
                &mut shards,
                threads,
                |_shards| {
                    let w = first.then_some(1u64);
                    first = false;
                    w
                },
                |i, s, w| {
                    if i == 2 {
                        panic!("shard {i} poisoned");
                    }
                    *s = w;
                    Ok(())
                },
            )
            .unwrap_err();
            match err {
                WindowError::Panic { index, panic } => {
                    assert_eq!(index, 2);
                    assert_eq!(panic.message, "shard 2 poisoned");
                }
                other => panic!("expected panic error, got {other:?}"),
            }
            // Siblings still completed their window before the error
            // surfaced: the barrier was released, not wedged.
            assert_eq!(shards[0], 1);
            assert_eq!(shards[3], 1);
        }
    }

    #[test]
    fn run_isolated_renders_string_and_opaque_payloads() {
        assert_eq!(
            run_isolated(|| -> () { std::panic::panic_any(String::from("owned")) })
                .unwrap_err()
                .message,
            "owned"
        );
        assert_eq!(
            run_isolated(|| -> () { std::panic::panic_any(42u64) })
                .unwrap_err()
                .message,
            "non-string panic payload"
        );
        assert_eq!(
            run_isolated(|| -> () { panic!("formatted {}", 7) })
                .unwrap_err()
                .message,
            "formatted 7"
        );
    }
}
