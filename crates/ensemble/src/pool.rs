//! The worker pool on [`std::thread::scope`]: one fallible fan-out.
//!
//! Items are handed to workers — the "subset of processors" assignment of
//! Fig. 2 — one at a time from a shared queue, each worker with a scratch
//! workspace of its own. Items are whatever an iterator yields: members of
//! a slice, columns of a column-major buffer (`chunks_mut`), or plain
//! indices (`0..n`).

use std::sync::{Mutex, PoisonError};

/// Runs `f(index, item, workspace)` over every item, one dedicated mutable
/// workspace per worker, and returns the error of the lowest-indexed
/// failing item. Every item still runs, so which failure is reported never
/// depends on which worker claimed what first.
///
/// Workers claim `(index, item)` pairs from one queue until it drains, so a
/// cheap item never waits behind an expensive one on the same worker — the
/// load balances dynamically, which members of different step counts need.
/// The queue's lock is released before `f` runs. Each item's computation
/// depends only on its index and item, so results are bit-identical to the
/// sequential loop for every workspace count.
///
/// The calling thread is one of the workers: it runs `workspaces[0]`'s
/// claim loop itself and one thread fewer is spawned. With a single
/// workspace or a single item the loop runs inline and spawns nothing, so
/// a warm caller on one worker allocates nothing.
///
/// # Errors
/// The error `f` returned for the lowest failing index.
///
/// # Panics
/// Panics if `workspaces` is empty while there are items. A panic in `f`
/// is re-raised on the caller once every worker has joined, so no worker
/// outlives the call and a caller's `catch_unwind` sees the panic.
pub fn try_for_each_ws<I, W, E, F>(items: I, workspaces: &mut [W], f: F) -> Result<(), E>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    W: Send,
    E: Send,
    F: Fn(usize, I::Item, &mut W) -> Result<(), E> + Sync,
{
    let items = items.into_iter();
    let n = items.len();
    if n == 0 {
        return Ok(());
    }
    let queue = Mutex::new(items.enumerate());
    let lowest: Mutex<Option<(usize, E)>> = Mutex::new(None);
    // Poisoning is ignored: the queue's guard is never held across `f`,
    // and the error slot holds a whole value at every step.
    let claim_loop = |w: &mut W| loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some((i, item)) = next else { break };
        if let Err(e) = f(i, item, w) {
            let mut slot = lowest.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                *slot = Some((i, e));
            }
        }
    };
    let threads = workspaces.len().min(n);
    let (own, spawned) = workspaces[..threads]
        .split_first_mut()
        .expect("try_for_each_ws needs at least one workspace");
    if spawned.is_empty() {
        claim_loop(own);
    } else {
        std::thread::scope(|scope| {
            for w in spawned {
                scope.spawn(|| claim_loop(w));
            }
            claim_loop(own);
        });
    }
    match lowest.into_inner().unwrap_or_else(PoisonError::into_inner) {
        Some((_, e)) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// `try_for_each_ws` for an infallible `f`.
    fn for_each_ws<I, W: Send>(
        items: I,
        workspaces: &mut [W],
        f: impl Fn(usize, I::Item, &mut W) + Sync,
    ) where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator + Send,
    {
        try_for_each_ws(items, workspaces, |i, item, w| {
            f(i, item, w);
            Ok::<(), ()>(())
        })
        .expect("infallible");
    }

    #[test]
    fn dynamic_ws_bitwise_identical_across_worker_counts() {
        // The claim order is nondeterministic, but each item's computation
        // depends only on its own index/value, so outputs must be
        // bit-identical for every workspace count, even though the scratch
        // is reused within a worker.
        let init: Vec<f64> = (0..83).map(|i| (i as f64) * 0.61 - 20.0).collect();
        let run = |n_ws: usize| -> Vec<u64> {
            let mut items = init.clone();
            let mut wss: Vec<Vec<f64>> = vec![Vec::new(); n_ws];
            for_each_ws(&mut items, &mut wss, |i, x, scratch| {
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
        // same worker and never complete; the shared queue lets the
        // other worker drain the cheap slots while the blocker waits.
        let n = 16;
        let mut items: Vec<usize> = vec![0; n];
        let mut wss: Vec<()> = vec![(), ()];
        let done = AtomicUsize::new(0);
        let overlapped = AtomicUsize::new(0);
        for_each_ws(&mut items, &mut wss, |i, item, _| {
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
        for_each_ws(&mut items, &mut wss, |i, item, seen| {
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
        for_each_ws(&mut empty, &mut wss, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "at least one workspace")]
    fn dynamic_ws_rejects_missing_workspaces() {
        let mut items = vec![1u8];
        let mut wss: Vec<()> = vec![];
        for_each_ws(&mut items, &mut wss, |_, _, _| {});
    }

    #[test]
    fn dynamic_ws_more_slots_than_workers_visits_each_once() {
        let mut items: Vec<usize> = vec![0; 37];
        let mut wss: Vec<()> = vec![(); 3];
        let visits = AtomicUsize::new(0);
        for_each_ws(&mut items, &mut wss, |i, item, _| {
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
        // Columns of a column-major buffer fed through `chunks_mut`: every
        // workspace count must reproduce the sequential per-column kernel
        // bit for bit, with worker-local scratch reuse invisible.
        let col_len = 11;
        let n_cols = 23;
        let init: Vec<f64> = (0..col_len * n_cols)
            .map(|i| (i as f64) * 0.53 - 30.0)
            .collect();
        let run = |n_ws: usize| -> Vec<u64> {
            let mut data = init.clone();
            let mut wss: Vec<Vec<f64>> = vec![Vec::new(); n_ws];
            for_each_ws(data.chunks_mut(col_len), &mut wss, |j, col, scratch| {
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
        for_each_ws(empty.chunks_mut(4), &mut none, |_, _, _| {});
        let caught = std::panic::catch_unwind(|| {
            let mut data = [0.0; 8];
            let mut none: Vec<()> = vec![];
            for_each_ws(data.chunks_mut(4), &mut none, |_, _, _| {});
        });
        assert!(caught.is_err(), "missing workspaces must be rejected");
    }
}
