//! The scoped fork-join executor with per-worker deques and work stealing.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::Mutex;

use crate::ParallelConfig;

/// Maps `f` over `items` on a scoped worker pool, returning results in item
/// order.
///
/// `f` receives the item's index alongside the item so callers can derive
/// per-task seeds (see [`crate::derive_seed`]).  The output is identical for
/// every thread count as long as `f(index, item)` itself is deterministic;
/// scheduling only decides *which worker* runs a task, never what the task
/// computes or where its result lands.
///
/// Workers are spawned per call via [`std::thread::scope`], which lets `f`
/// borrow freely from the caller's stack (networks, datasets, noise models)
/// without `Arc`.  Spawn cost is nanoseconds-to-microseconds against the
/// milliseconds-scale simulation tasks this crate exists for.
///
/// # Panics
/// Propagates panics from `f`.
pub fn parallel_map<T, R, F>(config: &ParallelConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_parallel_map(config, items, |index, item| {
        Ok::<R, Infallible>(f(index, item))
    }) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// [`parallel_map`] with per-worker state: every worker thread calls `init`
/// exactly once and hands the resulting value mutably to each of its tasks.
///
/// This is the hook the simulation engine uses to give every worker one
/// reusable `SimWorkspace`: `init` builds the (empty) workspace, tasks fill
/// and reuse it.  Because the state is per-*worker* while results are keyed
/// by per-*item* index, the output is identical for every thread count as
/// long as `f` is deterministic given `(index, item)` — state must only
/// carry scratch space, never values that influence results.
///
/// # Panics
/// Propagates panics from `init` or `f`.
pub fn parallel_map_init<T, S, R, I, F>(
    config: &ParallelConfig,
    items: &[T],
    init: I,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    match try_parallel_map_init(config, items, init, |state, index, item| {
        Ok::<R, Infallible>(f(state, index, item))
    }) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// Fallible variant of [`parallel_map`].
///
/// All tasks run to completion (there is no early exit, so a failing grid is
/// still fully explored and the choice of reported error cannot depend on
/// scheduling); afterwards the error of the **lowest-indexed** failing task
/// is returned, or the full result vector if every task succeeded.
///
/// # Errors
/// Returns the lowest-indexed error produced by `f`.
///
/// # Panics
/// Propagates panics from `f`.
pub fn try_parallel_map<T, R, E, F>(config: &ParallelConfig, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    try_parallel_map_init(config, items, || (), |(), index, item| f(index, item))
}

/// Fallible variant of [`parallel_map_init`]; error handling follows
/// [`try_parallel_map`] (all tasks run, the lowest-indexed error wins).
///
/// # Errors
/// Returns the lowest-indexed error produced by `f`.
///
/// # Panics
/// Propagates panics from `init` or `f`.
pub fn try_parallel_map_init<T, S, R, E, I, F>(
    config: &ParallelConfig,
    items: &[T],
    init: I,
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let len = items.len();
    if len == 0 {
        return Ok(Vec::new());
    }
    let threads = config.effective_threads().clamp(1, len);

    if threads == 1 {
        let mut state = init();
        let mut out = Vec::with_capacity(len);
        for (index, item) in items.iter().enumerate() {
            out.push(f(&mut state, index, item)?);
        }
        return Ok(out);
    }

    // Pre-distribute the tasks round-robin over per-worker deques.  No new
    // tasks are ever injected, so "all deques empty" is a stable termination
    // condition.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|worker| Mutex::new((worker..len).step_by(threads).collect()))
        .collect();

    let mut slots: Vec<Option<Result<R, E>>> = (0..len).map(|_| None).collect();
    let result_sink: Mutex<Vec<(usize, Result<R, E>)>> = Mutex::new(Vec::with_capacity(len));

    std::thread::scope(|scope| {
        for worker in 0..threads {
            let queues = &queues;
            let result_sink = &result_sink;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                // One state per worker thread, reused across all the tasks
                // this worker runs or steals.
                let mut state = init();
                let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                while let Some(index) = next_task(queues, worker) {
                    local.push((index, f(&mut state, index, &items[index])));
                }
                result_sink
                    .lock()
                    .expect("result lock poisoned")
                    .extend(local);
            });
        }
    });

    for (index, result) in result_sink.into_inner().expect("result lock poisoned") {
        slots[index] = Some(result);
    }
    let mut out = Vec::with_capacity(len);
    for slot in slots {
        match slot.expect("executor ran every task exactly once") {
            Ok(value) => out.push(value),
            Err(error) => return Err(error),
        }
    }
    Ok(out)
}

/// Pops the worker's own next task (front of its deque, FIFO) or steals the
/// last task (back of the deque, the coldest work) from a peer.
fn next_task(queues: &[Mutex<VecDeque<usize>>], worker: usize) -> Option<usize> {
    if let Some(index) = queues[worker]
        .lock()
        .expect("queue lock poisoned")
        .pop_front()
    {
        return Some(index);
    }
    let n = queues.len();
    for offset in 1..n {
        let victim = (worker + offset) % n;
        if let Some(index) = queues[victim]
            .lock()
            .expect("queue lock poisoned")
            .pop_back()
        {
            return Some(index);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> =
            parallel_map(&ParallelConfig::with_threads(4), &[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_are_in_item_order_for_every_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 8] {
            let out = parallel_map(&ParallelConfig::with_threads(threads), &items, |_, &x| {
                x * 3 + 1
            });
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn indices_match_items() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&ParallelConfig::with_threads(4), &items, |index, &item| {
            (index, item)
        });
        for (index, &(seen_index, item)) in out.iter().enumerate() {
            assert_eq!(index, seen_index);
            assert_eq!(index, item);
        }
    }

    #[test]
    fn uneven_task_costs_still_complete_via_stealing() {
        // One pathological task (index 0) sleeps; stealing must keep the
        // other workers busy and everything must still come back in order.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&ParallelConfig::with_threads(4), &items, |_, &x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x * x
        });
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..1000).collect();
        parallel_map(&ParallelConfig::with_threads(8), &items, |_, _| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn lowest_indexed_error_is_reported() {
        let items: Vec<u32> = (0..100).collect();
        for threads in [1, 4] {
            let result: Result<Vec<u32>, u32> =
                try_parallel_map(&ParallelConfig::with_threads(threads), &items, |_, &x| {
                    if x == 41 || x == 97 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                });
            assert_eq!(result, Err(41), "threads={threads}");
        }
    }

    #[test]
    fn more_threads_than_batches_degrades_gracefully() {
        let items = [1u8, 2, 3];
        let out = parallel_map(&ParallelConfig::with_threads(64), &items, |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn map_init_runs_init_once_per_worker() {
        let states = AtomicUsize::new(0);
        let items: Vec<usize> = (0..200).collect();
        let out = parallel_map_init(
            &ParallelConfig::with_threads(4),
            &items,
            || {
                states.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |scratch, _, &x| {
                scratch.push(x); // scratch persists across this worker's tasks
                x * 2
            },
        );
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let created = states.load(Ordering::Relaxed);
        assert!(
            (1..=4).contains(&created),
            "expected at most one state per worker, got {created}"
        );
    }

    #[test]
    fn map_init_results_are_thread_count_invariant() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x + 7).collect();
        for threads in [1, 2, 4, 8] {
            let out = parallel_map_init(
                &ParallelConfig::with_threads(threads),
                &items,
                || 0usize,
                |_, _, &x| x + 7,
            );
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn try_map_init_reports_lowest_indexed_error() {
        let items: Vec<u32> = (0..50).collect();
        for threads in [1, 4] {
            let result: Result<Vec<u32>, u32> = try_parallel_map_init(
                &ParallelConfig::with_threads(threads),
                &items,
                || (),
                |(), _, &x| {
                    if x % 13 == 12 {
                        Err(x)
                    } else {
                        Ok(x)
                    }
                },
            );
            assert_eq!(result, Err(12), "threads={threads}");
        }
    }
}
