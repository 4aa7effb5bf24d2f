//! Deterministic parallel execution for the LongSight simulators.
//!
//! Every simulation crate in this workspace promises bit-reproducible
//! results under a seed. That promise traditionally forced the code to be
//! single-threaded: floating-point reductions are order-sensitive, so naive
//! work-stealing parallelism would change outputs from run to run.
//!
//! This crate provides the middle path: [`deterministic_map`] evaluates
//! independent work items on a scoped [`std::thread`] worker pool and
//! collects the results **in index order**. As long as each item's
//! computation is a pure function of that item (no cross-item accumulation
//! inside the closure), the returned vector is bit-identical to the serial
//! `items.iter().map(..)` — at any thread count, with any chunk schedule.
//! Callers that need a reduction fold the returned vector serially, which
//! fixes the floating-point reduction order once and for all.
//!
//! The thread count is resolved from, in priority order:
//!
//! 1. [`set_thread_count`] (the CLI's `--threads` flag),
//! 2. the `LONGSIGHT_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! `LONGSIGHT_THREADS=1` (or `set_thread_count(1)`) disables the pool
//! entirely and runs the exact serial code path.
//!
//! # Example
//!
//! ```
//! let squares = longsight_exec::map_range(10, |i| (i * i) as u64);
//! assert_eq!(squares, (0..10).map(|i| (i * i) as u64).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Global override for the worker-thread count (`0` = no override).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread is executing chunks for a parallel map. Nested
    /// maps run serially instead of spawning a second pool level — the outer
    /// map already owns every core, so extra threads would only add spawn
    /// overhead and oversubscription. (Serial nested execution is trivially
    /// bit-identical, so the determinism contract is unaffected.)
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker for the guard's lifetime;
/// restores the previous state on drop (including on unwind, so a panicking
/// caller does not stay pinned to serial execution).
struct WorkerGuard {
    prev: bool,
}

impl WorkerGuard {
    fn enter() -> Self {
        let prev = IN_WORKER.replace(true);
        Self { prev }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.set(self.prev);
    }
}

/// Work below this many items is never parallelized: thread spawn overhead
/// (~tens of microseconds) would dominate.
const MIN_PARALLEL_ITEMS: usize = 2;

/// Overrides the worker-thread count for the whole process.
///
/// Passing `0` clears the override, restoring `LONGSIGHT_THREADS` /
/// hardware-parallelism resolution. Intended for the CLI `--threads` flag
/// and for the parallel≡serial equivalence tests.
pub fn set_thread_count(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The worker-thread count parallel maps will use.
///
/// Resolution order: [`set_thread_count`] override, then the
/// `LONGSIGHT_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. Invalid or zero environment
/// values fall through to hardware parallelism; the result is always ≥ 1.
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("LONGSIGHT_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `0..n` on the worker pool, returning results in index
/// order.
///
/// Semantically identical to `(0..n).map(f).collect()`, and bit-identical
/// to it whenever `f(i)` depends only on `i` (and on data it reads
/// immutably). Runs serially when the resolved thread count is 1 or `n` is
/// too small to amortize thread spawning.
///
/// # Panics
///
/// Propagates a panic raised by `f` on any thread, once every worker has
/// been joined.
pub fn map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = thread_count().min(n);
    if threads <= 1 || n < MIN_PARALLEL_ITEMS || IN_WORKER.get() {
        return (0..n).map(f).collect();
    }

    // Chunked static scheduling: more chunks than threads so uneven items
    // balance, dealt round-robin, so thread `t` runs chunks t, t + threads,
    // ... Which thread computes an item, and allocates for it, is then a
    // function of the item alone, so the heap layout, and with it the
    // process's peak resident set, does not follow thread timing. The
    // chunk shape never affects results — collection is by chunk index.
    let chunk = n.div_ceil(threads * 4).max(1);
    let chunks = n.div_ceil(chunk);
    let work = |t: usize| -> Vec<Vec<R>> {
        let _guard = WorkerGuard::enter();
        (t..chunks)
            .step_by(threads)
            .map(|c| (c * chunk..((c + 1) * chunk).min(n)).map(&f).collect())
            .collect()
    };
    let mut per_thread: Vec<std::vec::IntoIter<Vec<R>>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|t| scope.spawn(move || work(t))).collect();
        // The calling thread is worker 0: one fewer spawn, and no core
        // idles while the caller blocks on the joins. An explicit join
        // waits for the worker to exit, so its allocator cache is returned
        // before the caller allocates again.
        let mut parts = vec![work(0).into_iter()];
        for h in spawned {
            let done = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
            parts.push(done.into_iter());
        }
        parts
    });

    let mut out = Vec::with_capacity(n);
    for c in 0..chunks {
        out.extend(per_thread[c % threads].next().expect("every chunk ran"));
    }
    out
}

/// Maps `f` over `items` in parallel, returning results in item order.
///
/// The closure receives `(index, &item)`. See [`map_range`] for the
/// determinism contract and scheduling behaviour.
pub fn deterministic_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_range(items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that touch the process-global override / env var.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` with a temporary thread-count override, restoring the
    /// previous override afterwards (tests share the process-global).
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        let _guard = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = THREAD_OVERRIDE.swap(n, Ordering::SeqCst);
        let out = f();
        THREAD_OVERRIDE.store(prev, Ordering::SeqCst);
        out
    }

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let got = with_threads(threads, || map_range(1000, |i| i * 3));
            let want: Vec<usize> = (0..1000).map(|i| i * 3).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise_for_floats() {
        let items: Vec<f64> = (0..513).map(|i| (i as f64).sin() * 1e3).collect();
        let serial = with_threads(1, || deterministic_map(&items, |_, x| x.sqrt().to_bits()));
        for threads in [2, 3, 4, 16] {
            let par = with_threads(threads, || {
                deterministic_map(&items, |_, x| x.sqrt().to_bits())
            });
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    fn chunks_are_dealt_round_robin() {
        // 2 threads, 16 items: 8 chunks of 2; the caller runs chunks 0, 2,
        // 4, 6 and the one spawned worker chunks 1, 3, 5, 7, on every run.
        let caller = std::thread::current().id();
        for _ in 0..20 {
            let ran_on = with_threads(2, || map_range(16, |_| std::thread::current().id()));
            for (i, id) in ran_on.iter().enumerate() {
                assert_eq!(*id == caller, (i / 2) % 2 == 0, "item {i}");
            }
            assert!(ran_on[2..].iter().step_by(4).all(|id| *id == ran_on[2]));
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(map_range(0, |i| i).is_empty());
        assert_eq!(map_range(1, |i| i + 7), vec![7]);
        let empty: Vec<u32> = Vec::new();
        assert!(deterministic_map(&empty, |_, &x| x).is_empty());
    }

    #[test]
    fn closure_sees_matching_index_and_item() {
        let items: Vec<usize> = (100..200).collect();
        let got = with_threads(4, || deterministic_map(&items, |i, &x| (i, x)));
        for (i, &(gi, gx)) in got.iter().enumerate() {
            assert_eq!(gi, i);
            assert_eq!(gx, i + 100);
        }
    }

    #[test]
    fn nested_maps_match_serial_and_do_not_explode() {
        let want: Vec<Vec<usize>> = (0..32).map(|i| (0..50).map(|j| i * j).collect()).collect();
        let got = with_threads(4, || map_range(32, |i| map_range(50, |j| i * j)));
        assert_eq!(got, want);
        // After the outer map returns, the calling thread is no longer a
        // worker: a fresh top-level map may parallelize again.
        let flat = with_threads(4, || map_range(100, |i| i + 1));
        assert_eq!(flat, (1..=100).collect::<Vec<_>>());
    }

    #[test]
    fn override_takes_priority() {
        with_threads(3, || assert_eq!(thread_count(), 3));
        with_threads(0, || assert!(thread_count() >= 1));
    }

    #[test]
    fn env_variable_is_honored_without_override() {
        with_threads(0, || {
            std::env::set_var("LONGSIGHT_THREADS", "5");
            assert_eq!(thread_count(), 5);
            std::env::set_var("LONGSIGHT_THREADS", "not-a-number");
            assert!(thread_count() >= 1);
            std::env::remove_var("LONGSIGHT_THREADS");
        });
    }

    #[test]
    fn worker_panics_propagate() {
        let result = with_threads(4, || {
            std::panic::catch_unwind(|| {
                map_range(100, |i| {
                    assert!(i != 57, "intentional failure");
                    i
                })
            })
        });
        assert!(result.is_err());
    }
}
