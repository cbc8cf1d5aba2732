//! Pool stress and edge-case coverage: N threads × M tasks, panic
//! propagation out of the caller's and the helpers' chunks, and the
//! zero/one-task fast paths.

use smartcrowd_pool::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn n_threads_times_m_tasks_full_matrix() {
    for threads in [1usize, 2, 3, 4, 7, 8, 16] {
        for tasks in [0usize, 1, 2, 15, 16, 17, 64, 257, 1000] {
            let items: Vec<usize> = (0..tasks).collect();
            let pool = Pool::new(threads);
            let out = pool.par_map(&items, |&i| i.wrapping_mul(2654435761) ^ threads);
            let expected: Vec<usize> = items
                .iter()
                .map(|&i| i.wrapping_mul(2654435761) ^ threads)
                .collect();
            assert_eq!(out, expected, "threads={threads} tasks={tasks}");
        }
    }
}

#[test]
fn every_task_runs_exactly_once() {
    let counter = AtomicUsize::new(0);
    let items: Vec<u32> = (0..513).collect();
    let pool = Pool::new(8);
    let out = pool.par_map(&items, |&i| {
        counter.fetch_add(1, Ordering::Relaxed);
        i
    });
    assert_eq!(out.len(), 513);
    assert_eq!(counter.load(Ordering::Relaxed), 513);
}

#[test]
fn panic_in_task_propagates_to_caller() {
    let items: Vec<u32> = (0..100).collect();
    let pool = Pool::new(4);
    let result = std::panic::catch_unwind(|| {
        pool.par_map(&items, |&i| {
            assert!(i != 57, "boom at {i}");
            i
        })
    });
    let payload = result.expect_err("worker panic must propagate");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("boom at 57"),
        "unexpected payload: {message}"
    );
}

/// Yields until `ready()` holds: forces an interleaving without a sleep.
/// Gives up after 10 s, so a schedule that never comes fails the test
/// instead of hanging it.
fn wait_until(ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !ready() {
        assert!(Instant::now() < deadline, "the awaited schedule never came");
        std::thread::yield_now();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn panic_in_the_callers_own_chunk_reaches_it_after_every_helper_joins() {
    // The caller works as worker 0. Its chunk panics while a helper is
    // still inside one of its own; the panic must reach the caller only
    // once that helper has finished. At one thread there is no helper.
    let items: Vec<u32> = (0..64).collect();
    for threads in [1usize, 2, 3, 8] {
        let caller = std::thread::current().id();
        let caller_panicking = AtomicBool::new(false);
        let helper_chunks = AtomicUsize::new(0);
        let helpers_busy = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(threads).par_chunks(&items, |chunk| {
                if std::thread::current().id() == caller {
                    wait_until(|| threads == 1 || helper_chunks.load(Ordering::SeqCst) > 0);
                    caller_panicking.store(true, Ordering::SeqCst);
                    panic!("caller boom");
                }
                helpers_busy.fetch_add(1, Ordering::SeqCst);
                helper_chunks.fetch_add(1, Ordering::SeqCst);
                wait_until(|| caller_panicking.load(Ordering::SeqCst));
                helpers_busy.fetch_sub(1, Ordering::SeqCst);
                chunk.to_vec()
            })
        }));
        let payload = result.expect_err("the caller's panic must propagate");
        assert_eq!(panic_message(&*payload), "caller boom", "threads={threads}");
        assert_eq!(helpers_busy.load(Ordering::SeqCst), 0, "threads={threads}");
        assert_eq!(
            helper_chunks.load(Ordering::SeqCst) > 0,
            threads > 1,
            "threads={threads}"
        );
    }
}

#[test]
fn panic_in_a_helpers_chunk_reaches_the_caller_after_every_helper_joins() {
    // One helper's first chunk panics; every other chunk, the caller's
    // included, waits for that panic and then completes. All of them must
    // have completed when the panic reaches the caller. (One thread has no
    // helper, so the case starts at two.)
    let items: Vec<u32> = (0..64).collect();
    for threads in [2usize, 3, 8] {
        let caller = std::thread::current().id();
        let panicked = AtomicBool::new(false);
        let panicked_len = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(threads).par_chunks(&items, |chunk| {
                if std::thread::current().id() != caller && !panicked.swap(true, Ordering::SeqCst) {
                    panicked_len.store(chunk.len(), Ordering::SeqCst);
                    panic!("helper boom");
                }
                wait_until(|| panicked.load(Ordering::SeqCst));
                completed.fetch_add(chunk.len(), Ordering::SeqCst);
                chunk.to_vec()
            })
        }));
        let payload = result.expect_err("a helper's panic must propagate");
        assert_eq!(panic_message(&*payload), "helper boom", "threads={threads}");
        assert_eq!(
            completed.load(Ordering::SeqCst) + panicked_len.load(Ordering::SeqCst),
            items.len(),
            "threads={threads}"
        );
    }
}

#[test]
fn results_identical_across_thread_counts() {
    // The determinism contract: same input, same output bytes, any pool.
    let items: Vec<u64> = (0..2048).collect();
    let reference = Pool::new(1).par_map(&items, |&x| x.wrapping_mul(x) ^ 0xdead_beef);
    for threads in [2, 4, 8, 32] {
        let out = Pool::new(threads).par_map(&items, |&x| x.wrapping_mul(x) ^ 0xdead_beef);
        assert_eq!(out, reference, "threads={threads}");
    }
}
