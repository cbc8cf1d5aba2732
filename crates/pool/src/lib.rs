//! # smartcrowd-pool — deterministic fan-out/join on std threads
//!
//! The paper's evaluation is bounded by block verification and PoW
//! production (§VII), yet every hot loop in this workspace was written
//! single-threaded. This crate is the zero-dependency parallel substrate
//! the chain, chaos and bench layers fan out on: plain `std::thread::scope`
//! workers plus atomics — no rayon, no crossbeam, no unsafe.
//!
//! ## Determinism contract
//!
//! Parallelism must never leak into results. [`Pool::par_chunks`], the
//! one scheduler, claims contiguous index chunks with an atomic cursor,
//! each worker tags its chunk's results with the starting index, and the
//! join merges them **in index order**; [`Pool::par_map`] is its per-item
//! wrapper, so its output is exactly `items.iter().map(f).collect()`
//! regardless of thread count or OS scheduling. A seeded run therefore
//! produces byte-identical results with `SMARTCROWD_THREADS=1` and `=8`,
//! which the workspace's telemetry-snapshot determinism tests rely on.
//!
//! ## Who works
//!
//! The caller is worker 0: it claims chunks off the same cursor as the
//! `threads − 1` scoped helpers it spawns, so a call pays one spawn fewer
//! than its width and never leaves the calling thread idle. Spawning still
//! costs tens of microseconds per helper, so only work well above that
//! fans out at all: below `MIN_PARALLEL_ITEMS` items the call runs inline,
//! and callers hand the pool only batches whose items are expensive (ECDSA
//! recoveries, seed sweeps), never cheap hashing.
//!
//! ## Telemetry
//!
//! `pool.tasks` counts the items handed to [`Pool::par_chunks`] (see
//! `OBSERVABILITY.md`), once per call on the caller's thread, so the count
//! is independent of the thread count.
//!
//! ```
//! use smartcrowd_pool::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The unwrap/expect wall (configured in the workspace clippy.toml): the
// pool runs inside consensus-critical validation, so library code must
// not introduce panics of its own. Tests are exempt.
#![warn(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable overriding the global pool's thread count.
pub(crate) const THREADS_ENV: &str = "SMARTCROWD_THREADS";

/// Below this many items [`Pool::par_chunks`] (and so [`Pool::par_map`])
/// runs inline on the caller's thread: spawn cost dwarfs the work for
/// tiny batches.
pub(crate) const MIN_PARALLEL_ITEMS: usize = 16;

/// A fixed-width scoped thread pool.
///
/// Threads are spawned per call via [`std::thread::scope`], which lets
/// tasks borrow from the caller's stack without `'static` bounds or
/// unsafe code, and propagates worker panics to the caller on join.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Builds a pool from the environment: `SMARTCROWD_THREADS` when set
    /// to a positive integer, otherwise the machine's available
    /// parallelism (1 if unknown).
    pub(crate) fn from_env() -> Self {
        let configured = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1);
        let threads = configured.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        Pool::new(threads)
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` on up to [`Pool::threads`] workers and
    /// returns the results **in input order**: byte-for-byte the
    /// sequential `items.iter().map(f).collect()`, through the one
    /// scheduler, [`Pool::par_chunks`].
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_chunks(items, |chunk| chunk.iter().map(&f).collect())
    }

    /// Runs `f` over contiguous chunks of `items` on up to
    /// [`Pool::threads`] workers and concatenates what it returns **in
    /// input order**; `f` returns one result per item of its chunk, so
    /// the output is index-aligned with `items`.
    ///
    /// The caller is worker 0 and spawns `threads − 1` scoped helpers.
    /// Every worker claims chunks through one atomic cursor and tags each
    /// result with its chunk's starting index; the join sorts by that index
    /// before concatenating, so the output is `f` of each chunk in order no
    /// matter how the OS schedules the workers or which of them claimed
    /// what. Below `MIN_PARALLEL_ITEMS` items, or on one thread, the whole
    /// slice is one chunk on the caller's thread. This is for work that
    /// shares a cost across a chunk (one inversion for a burst of
    /// signatures). The chunk boundaries depend on the thread count, so the
    /// output is thread-count-invariant exactly when `f`'s result for an
    /// item depends on that item alone. A panic inside `f`, on the caller's
    /// thread or a helper's, is propagated to the caller after every helper
    /// has stopped.
    pub fn par_chunks<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&[T]) -> Vec<R> + Sync,
    {
        smartcrowd_telemetry::counter!("pool.tasks").add(items.len() as u64);
        if self.threads == 1 || items.len() < MIN_PARALLEL_ITEMS {
            return f(items);
        }
        let workers = self.threads.min(items.len());
        // 4 chunks per worker balances load without fragmenting the merge.
        let chunk = items.len().div_ceil(workers * 4).max(1);
        let cursor = AtomicUsize::new(0);
        let claim = || claim_chunks(items, chunk, &cursor, &f);
        let tagged = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
            // Should the caller's own chunk panic, `scope` joins every
            // helper before it re-raises that panic.
            let mut all = claim();
            let mut panicked = None;
            for helper in helpers {
                match helper.join() {
                    Ok(local) => all.extend(local),
                    // Keep joining the rest so no helper outlives the
                    // scope, then re-raise the first panic.
                    Err(payload) => panicked = panicked.or(Some(payload)),
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
            all
        });
        merge_in_order(tagged)
    }
}

/// One worker's loop: claims `chunk` items at a time off `cursor` until
/// `items` is used up and runs `f` on each claim, tagged with its start.
fn claim_chunks<T, R>(
    items: &[T],
    chunk: usize,
    cursor: &AtomicUsize,
    f: &impl Fn(&[T]) -> Vec<R>,
) -> Vec<(usize, Vec<R>)> {
    let mut local = Vec::new();
    loop {
        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
        if start >= items.len() {
            return local;
        }
        let end = (start + chunk).min(items.len());
        local.push((start, f(&items[start..end])));
    }
}

/// Concatenates tagged chunk results in start order, whichever worker
/// produced them.
fn merge_in_order<R>(mut tagged: Vec<(usize, Vec<R>)>) -> Vec<R> {
    tagged.sort_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(tagged.iter().map(|(_, part)| part.len()).sum());
    for (_, mut part) in tagged {
        out.append(&mut part);
    }
    out
}

impl Default for Pool {
    fn default() -> Self {
        Pool::from_env()
    }
}

/// The process-wide pool, sized once from `Pool::from_env` on first use.
///
/// Hot paths that cannot thread a `&Pool` parameter through their call
/// chain (the signature cache's batch checks, mempool batch admission,
/// block validation) share this instance.
/// Because every pool API is deterministic in its results, sharing one
/// global never affects outcomes — only wall-clock time.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(Pool::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_map() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            assert_eq!(pool.par_map(&items, |x| x * 3 + 1), expected);
        }
    }

    #[test]
    fn par_chunks_covers_each_item_once_in_order() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 8] {
            let chunks = std::sync::Mutex::new(Vec::new());
            let out = Pool::new(threads).par_chunks(&items, |chunk| {
                chunks.lock().unwrap().push(chunk.to_vec());
                chunk.iter().map(|x| x * 3 + 1).collect()
            });
            assert_eq!(out, expected, "threads = {threads}");
            // The chunks, by first item, tile the input: contiguous, in
            // order, every item in exactly one.
            let mut chunks = chunks.into_inner().unwrap();
            chunks.sort_by_key(|chunk| chunk[0]);
            assert_eq!(chunks.concat(), items, "threads = {threads}");
            assert_eq!(chunks.len() == 1, threads == 1, "threads = {threads}");
        }
    }

    #[test]
    fn par_chunks_runs_small_inputs_as_one_chunk_inline() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..MIN_PARALLEL_ITEMS as u64 - 1).collect();
        for threads in [1, 8] {
            let calls = AtomicUsize::new(0);
            let out = Pool::new(threads).par_chunks(&items, |chunk| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert_eq!(std::thread::current().id(), caller);
                assert_eq!(chunk.len(), items.len());
                chunk.to_vec()
            });
            assert_eq!((out, calls.into_inner()), (items.clone(), 1));
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_map(&[] as &[u64], |x| *x), Vec::<u64>::new());
        assert_eq!(pool.par_map(&[7u64], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_preserves_order_under_uneven_work() {
        // Earlier items take longer: without the ordered merge the fast
        // tail chunks would arrive first.
        let items: Vec<u64> = (0..200).collect();
        let pool = Pool::new(8);
        let out = pool.par_map(&items, |&x| {
            if x < 20 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn chunks_the_caller_claims_before_any_helper_starts_merge_in_order() {
        // The schedule in which the caller, worker 0, drains the cursor
        // before a helper thread is running: every helper's loop then
        // claims nothing, and the merge holds the caller's results alone.
        let items: Vec<u64> = (0..100).collect();
        let f = |chunk: &[u64]| chunk.iter().map(|x| x * 3 + 1).collect::<Vec<_>>();
        let expected = f(&items);
        for threads in [1, 2, 3, 8] {
            let chunk = items.len().div_ceil(threads * 4);
            let cursor = AtomicUsize::new(0);
            let mut tagged = claim_chunks(&items, chunk, &cursor, &f);
            assert_eq!(tagged.len(), items.len().div_ceil(chunk));
            for _ in 1..threads {
                let late = claim_chunks(&items, chunk, &cursor, &f);
                assert!(late.is_empty(), "threads = {threads}");
                tagged.extend(late);
            }
            assert_eq!(merge_in_order(tagged), expected, "threads = {threads}");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn default_pool_has_at_least_one_thread() {
        assert!(Pool::default().threads() >= 1);
        assert!(global().threads() >= 1);
    }
}
