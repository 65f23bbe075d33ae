//! Worker-pool primitives on [`std::thread::scope`].
//!
//! Members are handed to workers — the "subset of processors" assignment of
//! Fig. 2 — either claimed one at a time from a shared cursor
//! (`parallel_for_each_ws`, and [`try_for_each_ws`] when an item can
//! fail) or, for column-major buffers, split into one contiguous chunk of
//! columns per worker (`parallel_for_each_column_ws`). Every worker owns
//! its scratch, so there are no locks in the hot path.

use std::sync::{Mutex, PoisonError};

/// Runs `f(index, item, workspace)` over all items with one dedicated
/// mutable workspace per worker. Every worker pulls the next unclaimed item
/// index from a shared atomic cursor until the queue drains, so a cheap or
/// already-finished item never pins a worker while another grinds through
/// an expensive one — the load balances dynamically, which is what members
/// of different grid sizes and step counts need. Each item's computation is
/// independent of which worker claims it, so results are bit-identical to
/// the sequential loop for every workspace count; only the scratch buffers
/// are worker-local.
///
/// The calling thread is one of the workers: it runs `workspaces[0]`'s
/// claim loop itself and one thread fewer is spawned, so a caller that
/// fans out small batches often (a service tick) does not pay for a
/// thread it would only sit waiting on. With a single workspace or a
/// single item the loop runs inline.
///
/// # Panics
/// Panics if `workspaces` is empty while `items` is not. A panic in `f`
/// is re-raised on the caller once every worker has joined, so no worker
/// outlives the call and a caller's `catch_unwind` sees the panic.
pub(crate) fn parallel_for_each_ws<T: Send, W: Send, F>(items: &mut [T], workspaces: &mut [W], f: F)
where
    F: Fn(usize, &mut T, &mut W) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    assert!(
        !workspaces.is_empty(),
        "parallel_for_each_ws needs at least one workspace"
    );
    let threads = workspaces.len().min(n);
    if threads == 1 {
        let w = &mut workspaces[0];
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item, w);
        }
        return;
    }

    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Raw base pointer of the item slice, made sendable so each scoped
    /// worker can materialize disjoint `&mut` borrows from claimed indices.
    struct SendPtr<T>(*mut T);
    // SAFETY: the pointer is only dereferenced at indices claimed from the
    // shared cursor (each handed out once), and `T: Send` lets the item
    // behind a claimed index be mutated from whichever thread claimed it.
    unsafe impl<T: Send> Send for SendPtr<T> {}
    impl<T> Clone for SendPtr<T> {
        fn clone(&self) -> Self {
            *self
        }
    }
    impl<T> Copy for SendPtr<T> {}

    /// One worker's loop: claim the next index, run `f` on it, until the
    /// cursor passes `n`.
    fn claim_loop<T, W, F: Fn(usize, &mut T, &mut W)>(
        base: SendPtr<T>,
        n: usize,
        cursor: &AtomicUsize,
        f: &F,
        w: &mut W,
    ) {
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // SAFETY: `fetch_add` hands out each index in `0..n` to exactly
            // one worker, so the `&mut` borrows formed here are disjoint,
            // in-bounds, and outlived by the scope that holds the exclusive
            // borrow of `items`.
            let item = unsafe { &mut *base.0.add(i) };
            f(i, item, w);
        }
    }

    let cursor = AtomicUsize::new(0);
    let base = SendPtr(items.as_mut_ptr());
    let (own, spawned) = workspaces[..threads]
        .split_first_mut()
        .expect("threads >= 2 past the inline path");
    std::thread::scope(|scope| {
        let (f, cursor) = (&f, &cursor);
        for w in spawned {
            scope.spawn(move || claim_loop(base, n, cursor, f, w));
        }
        claim_loop(base, n, cursor, f, own);
    });
}

/// `parallel_for_each_ws` for a fallible `f`: every item still runs, and
/// the result is the error of the lowest-indexed failing item, so which
/// failure is reported never depends on which worker claimed what first.
/// Adds no allocation to the fan-out.
///
/// # Errors
/// The error `f` returned for the lowest failing index.
///
/// # Panics
/// As `parallel_for_each_ws`.
pub fn try_for_each_ws<T: Send, W: Send, E: Send, F>(
    items: &mut [T],
    workspaces: &mut [W],
    f: F,
) -> Result<(), E>
where
    F: Fn(usize, &mut T, &mut W) -> Result<(), E> + Sync,
{
    let lowest = LowestError::new();
    parallel_for_each_ws(items, workspaces, |i, item, w| {
        if let Err(e) = f(i, item, w) {
            lowest.record(i, e);
        }
    });
    lowest.into_result()
}

/// The error of the lowest-indexed failing item, recorded from any number
/// of workers.
pub(crate) struct LowestError<E>(Mutex<Option<(usize, E)>>);

impl<E> LowestError<E> {
    pub(crate) fn new() -> Self {
        LowestError(Mutex::new(None))
    }

    /// Keeps `e` if no item below `i` has failed.
    pub(crate) fn record(&self, i: usize, e: E) {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref().is_none_or(|(j, _)| i < *j) {
            *slot = Some((i, e));
        }
    }

    pub(crate) fn into_result(self) -> Result<(), E> {
        match self.0.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }
}

/// Runs `f(col_index, column, workspace)` over the contiguous
/// length-`col_len` columns of a column-major buffer with one dedicated
/// mutable workspace per worker: the flat buffer is split directly into one
/// contiguous chunk of columns per workspace (no per-call `Vec` of column
/// borrows). With a single workspace the loop runs inline. Each
/// column's computation is independent of the partitioning and scratch
/// reuse, so results are bit-identical for every workspace count — this is
/// the member-parallel observation-packing shape (one `H(X)` column per
/// member, one operator scratch per worker).
///
/// # Panics
/// Panics if `data.len()` is not a multiple of `col_len`, or if
/// `workspaces` is empty while `data` is not. A panic in `f` is re-raised
/// on the caller once every worker has joined.
pub(crate) fn parallel_for_each_column_ws<W: Send, F>(
    data: &mut [f64],
    col_len: usize,
    workspaces: &mut [W],
    f: F,
) where
    F: Fn(usize, &mut [f64], &mut W) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert_eq!(
        data.len() % col_len,
        0,
        "buffer length must be a whole number of columns"
    );
    assert!(
        !workspaces.is_empty(),
        "parallel_for_each_column_ws needs at least one workspace"
    );
    let n_cols = data.len() / col_len;
    let threads = workspaces.len().min(n_cols);
    if threads == 1 {
        let w = &mut workspaces[0];
        for (j, col) in data.chunks_mut(col_len).enumerate() {
            f(j, col, w);
        }
        return;
    }
    let cols_per_chunk = n_cols.div_ceil(threads);
    std::thread::scope(|scope| {
        for ((c, chunk), w) in data
            .chunks_mut(cols_per_chunk * col_len)
            .enumerate()
            .zip(workspaces.iter_mut())
        {
            let f = &f;
            scope.spawn(move || {
                for (k, col) in chunk.chunks_mut(col_len).enumerate() {
                    f(c * cols_per_chunk + k, col, w);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn for_each_ws_bitwise_identical_across_worker_counts() {
        // Each worker's scratch must not leak into results: outputs are
        // bit-identical no matter how many workspaces (= workers) serve the
        // slice, even though the scratch is reused within a worker.
        let init: Vec<f64> = (0..83).map(|i| (i as f64) * 0.61 - 20.0).collect();
        let run = |n_ws: usize| -> Vec<u64> {
            let mut items = init.clone();
            let mut wss: Vec<Vec<f64>> = vec![Vec::new(); n_ws];
            parallel_for_each_ws(&mut items, &mut wss, |i, x, scratch| {
                scratch.clear();
                scratch.resize(8, *x);
                let s: f64 = scratch.iter().sum();
                *x = (s * 0.125 + i as f64).sin();
            });
            items.iter().map(|v| v.to_bits()).collect()
        };
        let seq = run(1);
        for n_ws in [2, 3, 7, 100] {
            assert_eq!(seq, run(n_ws), "workspaces = {n_ws}");
        }
    }

    #[test]
    fn for_each_ws_handles_empty_items() {
        let mut empty: Vec<u8> = vec![];
        let mut wss: Vec<()> = vec![];
        parallel_for_each_ws(&mut empty, &mut wss, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "at least one workspace")]
    fn for_each_ws_rejects_missing_workspaces() {
        let mut items = vec![1u8];
        let mut wss: Vec<()> = vec![];
        parallel_for_each_ws(&mut items, &mut wss, |_, _, _| {});
    }

    #[test]
    fn dynamic_ws_bitwise_identical_across_worker_counts() {
        // The claim order is nondeterministic, but each item's computation
        // depends only on its own index/value, so outputs must be
        // bit-identical for every workspace count.
        let init: Vec<f64> = (0..83).map(|i| (i as f64) * 0.61 - 20.0).collect();
        let run = |n_ws: usize| -> Vec<u64> {
            let mut items = init.clone();
            let mut wss: Vec<Vec<f64>> = vec![Vec::new(); n_ws];
            parallel_for_each_ws(&mut items, &mut wss, |i, x, scratch| {
                scratch.clear();
                scratch.resize(8, *x);
                let s: f64 = scratch.iter().sum();
                *x = (s * 0.125 + i as f64).sin();
            });
            items.iter().map(|v| v.to_bits()).collect()
        };
        let seq = run(1);
        for n_ws in [2, 3, 7, 100] {
            assert_eq!(seq, run(n_ws), "workspaces = {n_ws}");
        }
    }

    #[test]
    fn dynamic_ws_skewed_costs_overlap() {
        // One slot blocks until every other slot has finished. Static
        // chunking would co-locate the blocker with undone slots on the
        // same worker and never complete; the dynamic cursor lets the
        // other worker drain the cheap slots while the blocker waits.
        let n = 16;
        let mut items: Vec<usize> = vec![0; n];
        let mut wss: Vec<()> = vec![(), ()];
        let done = AtomicUsize::new(0);
        let overlapped = AtomicUsize::new(0);
        parallel_for_each_ws(&mut items, &mut wss, |i, item, _| {
            if i == 0 {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while done.load(Ordering::SeqCst) < n - 1 {
                    if std::time::Instant::now() > deadline {
                        return; // overlapped stays 0 -> assert below fails
                    }
                    std::thread::yield_now();
                }
                overlapped.store(1, Ordering::SeqCst);
            }
            *item = i + 1;
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(
            overlapped.load(Ordering::SeqCst),
            1,
            "cheap slots did not overlap the expensive one"
        );
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, i + 1, "slot {i} not visited exactly once");
        }
    }

    #[test]
    fn dynamic_ws_caller_is_a_worker() {
        // Three workspaces = the caller plus two spawned threads. The first
        // three items rendezvous, so all three workers must be claiming at
        // once; workspace 0 must then have been used, and only ever from
        // the calling thread. Item costs are skewed so the claim order
        // differs from the index order.
        let n = 40;
        let work = |i: usize| -> f64 {
            let iters = if i.is_multiple_of(7) { 20_000 } else { 50 };
            (0..iters).fold(i as f64, |a, k| (a + k as f64).sin())
        };
        let mut items = vec![0.0_f64; n];
        let mut wss: Vec<Vec<std::thread::ThreadId>> = vec![Vec::new(); 3];
        let arrived = AtomicUsize::new(0);
        let met = AtomicUsize::new(0);
        parallel_for_each_ws(&mut items, &mut wss, |i, item, seen| {
            seen.push(std::thread::current().id());
            if i < 3 {
                arrived.fetch_add(1, Ordering::SeqCst);
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while arrived.load(Ordering::SeqCst) < 3 && std::time::Instant::now() < deadline {
                    std::thread::yield_now();
                }
                if arrived.load(Ordering::SeqCst) >= 3 {
                    met.fetch_add(1, Ordering::SeqCst);
                }
            }
            *item = work(i);
        });
        assert_eq!(
            met.load(Ordering::SeqCst),
            3,
            "three workers never overlapped"
        );
        let caller = std::thread::current().id();
        assert!(!wss[0].is_empty(), "the caller claimed nothing");
        assert!(
            wss[0].iter().all(|&id| id == caller),
            "workspace 0 was used off the calling thread"
        );
        assert_eq!(wss.iter().map(Vec::len).sum::<usize>(), n);
        let threads: std::collections::HashSet<_> = wss.iter().flatten().collect();
        assert!(threads.len() <= wss.len(), "more threads than workspaces");
        let sequential: Vec<f64> = (0..n).map(work).collect();
        assert_eq!(items, sequential);
    }

    #[test]
    fn dynamic_ws_handles_empty_items() {
        let mut empty: Vec<u8> = vec![];
        let mut wss: Vec<()> = vec![];
        parallel_for_each_ws(&mut empty, &mut wss, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "at least one workspace")]
    fn dynamic_ws_rejects_missing_workspaces() {
        let mut items = vec![1u8];
        let mut wss: Vec<()> = vec![];
        parallel_for_each_ws(&mut items, &mut wss, |_, _, _| {});
    }

    #[test]
    fn dynamic_ws_more_slots_than_workers_visits_each_once() {
        let mut items: Vec<usize> = vec![0; 37];
        let mut wss: Vec<()> = vec![(); 3];
        let visits = AtomicUsize::new(0);
        parallel_for_each_ws(&mut items, &mut wss, |i, item, _| {
            *item += i;
            visits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(visits.load(Ordering::Relaxed), 37);
        for (i, v) in items.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn try_for_each_ws_reports_the_lowest_failing_index() {
        // Items fail at chosen indices, and the lowest of them is by far
        // the slowest, so with two or more workers the others fail first;
        // the reported failure must still be the lowest index, every time,
        // and every item must still run.
        for failing in [vec![5], vec![3, 17], vec![0, 1, 29], vec![11, 12, 30, 31]] {
            for workers in 1..=4 {
                for _ in 0..20 {
                    let mut items = vec![0usize; 32];
                    let mut wss = vec![(); workers];
                    let out = try_for_each_ws(&mut items, &mut wss, |i, item, ()| {
                        let spin: u64 = if i == failing[0] { 200_000 } else { 10 };
                        std::hint::black_box((0..spin).fold(0, |a, k| a ^ k));
                        *item = 1;
                        if failing.contains(&i) {
                            return Err(i);
                        }
                        Ok(())
                    });
                    assert_eq!(out, Err(failing[0]), "workers = {workers}");
                    assert!(items.iter().all(|&v| v == 1), "every item runs");
                }
            }
        }
        let mut none = vec![0u8; 7];
        assert_eq!(
            try_for_each_ws(&mut none, &mut [(), ()], |_, _, _| Ok::<(), ()>(())),
            Ok(())
        );
    }

    #[test]
    fn column_split_ws_bitwise_identical_across_workspace_counts() {
        // The workspace variant must reproduce the sequential per-column
        // kernel bit-for-bit for any workspace count, with worker-local
        // scratch reuse invisible in the results.
        let col_len = 11;
        let n_cols = 23;
        let init: Vec<f64> = (0..col_len * n_cols)
            .map(|i| (i as f64) * 0.53 - 30.0)
            .collect();
        let run = |n_ws: usize| -> Vec<u64> {
            let mut data = init.clone();
            let mut wss: Vec<Vec<f64>> = vec![Vec::new(); n_ws];
            parallel_for_each_column_ws(&mut data, col_len, &mut wss, |j, col, scratch| {
                scratch.clear();
                scratch.extend_from_slice(col);
                let s: f64 = scratch.iter().sum();
                for (k, v) in col.iter_mut().enumerate() {
                    *v = (*v + s * 1e-3 + (j + k) as f64).sin();
                }
            });
            data.iter().map(|v| v.to_bits()).collect()
        };
        let seq = run(1);
        for n_ws in [2, 3, 5, 23, 64] {
            assert_eq!(seq, run(n_ws), "workspaces = {n_ws}");
        }
    }

    #[test]
    fn column_split_ws_handles_empty_and_rejects_missing_workspaces() {
        let mut empty: Vec<f64> = vec![];
        let mut none: Vec<()> = vec![];
        parallel_for_each_column_ws(&mut empty, 4, &mut none, |_, _, _| {});
        let caught = std::panic::catch_unwind(|| {
            let mut data = vec![0.0; 8];
            let mut none: Vec<()> = vec![];
            parallel_for_each_column_ws(&mut data, 4, &mut none, |_, _, _| {});
        });
        assert!(caught.is_err(), "missing workspaces must be rejected");
    }

    #[test]
    fn column_split_ws_rejects_ragged() {
        let caught = std::panic::catch_unwind(|| {
            let mut ragged = vec![0.0; 7];
            let mut wss: Vec<()> = vec![(); 2];
            parallel_for_each_column_ws(&mut ragged, 4, &mut wss, |_, _, _| {});
        });
        assert!(caught.is_err(), "ragged buffers must be rejected");
    }
}
