//! Persistent worker pool for the analysis drivers.
//!
//! The per-round work of the fixpoint analyses is embarrassingly parallel:
//! every subjob's service bounds for round `r` depend only on round `r − 1`
//! values. Earlier revisions fanned each round out over fresh
//! [`std::thread::scope`] threads, paying tens of microseconds of thread
//! start-up per round — a real tax once an [`crate::AnalysisSession`]
//! re-analyzes thousands of slightly-perturbed systems. This module replaces
//! that with a process-wide pool of long-lived workers, built from `std`
//! primitives only (no external crates, no `unsafe`):
//!
//! * Workers park on a [`Condvar`] over a shared [`VecDeque`] of boxed jobs
//!   and live for the life of the process.
//! * [`pool_map`] splits an indexed computation into chunks claimed from a
//!   shared atomic cursor. The **calling thread participates**: it claims
//!   chunks like any worker and only blocks on results for chunks some
//!   worker is actively computing. This makes nested `pool_map` calls
//!   deadlock-free — a worker that re-enters `pool_map` simply computes the
//!   inner map itself if no peer is free — and keeps the fast path (small
//!   `n`, single-core machine) allocation-light and sequential.
//! * A panic inside a worker-executed closure is converted into a panic on
//!   the calling thread via a drop-guard message rather than a silent hang;
//!   the worker itself survives and returns to the queue.
//! * Results travel back **one message per chunk**, not per item, so channel
//!   overhead stays constant-per-participant even for thousand-element maps.
//! * [`pool_map_stateful`] additionally gives every participating thread a
//!   private, `init`-built state value threaded through its `f` calls — the
//!   substrate for batched Monte-Carlo sweeps that reuse a scenario sampler
//!   and warm buffers per thread.
//!
//! Results are returned in index order and are deterministic: which thread
//! computes `f(i)` never affects the output.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type Job = Box<dyn FnOnce() + Send>;

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// A process-wide set of long-lived worker threads fed from one queue.
struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

impl WorkerPool {
    fn with_workers(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        for k in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rta-pool-{k}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
        }
        WorkerPool { shared, workers }
    }

    fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
            // The caller participates in every map, so `cores - 1` workers
            // saturate the machine without oversubscribing it.
            WorkerPool::with_workers(cores.saturating_sub(1))
        })
    }

    fn submit(&self, job: Job) {
        let mut queue = self.shared.queue.lock().expect("pool queue lock");
        queue.push_back(job);
        drop(queue);
        self.shared.available.notify_one();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.available.wait(queue).expect("pool queue wait");
            }
        };
        // Keep the worker alive across panicking jobs; the job's drop-guard
        // reports the failure to the thread that submitted it.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

/// Number of threads a [`pool_map`] call can use, caller included.
pub fn pool_threads() -> usize {
    WorkerPool::global().workers + 1
}

enum Msg<T> {
    /// One computed chunk: the start index and the values for
    /// `start..start + vals.len()`. Chunk-granular messages keep channel
    /// traffic at a handful of sends per participant instead of one per
    /// item — the difference is measurable when `n` is in the thousands
    /// and `f` is cheap (Monte-Carlo admission sweeps).
    Chunk(usize, Vec<T>),
    /// Sent from a ticket's drop-guard when its closure panicked.
    Failed,
}

/// Reports ticket failure on unwind so the caller panics instead of hanging.
struct TicketGuard<T> {
    tx: Sender<Msg<T>>,
    armed: bool,
}

impl<T> Drop for TicketGuard<T> {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.tx.send(Msg::Failed);
        }
    }
}

/// Evaluate `f(0), f(1), …, f(n-1)` on the persistent pool and return the
/// results in index order.
///
/// The calling thread claims and computes chunks alongside the pool workers,
/// so the call makes progress even when every worker is busy — including
/// when it is itself running on a pool worker (nested maps). Panics raised
/// by `f` on a worker are re-raised on the calling thread.
pub fn pool_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    pool_map_stateful(n, || (), move |(), i| f(i))
}

/// Like [`pool_map`], but each participating thread carries a private state
/// value `S` built once by `init` and threaded through every `f` call that
/// thread makes.
///
/// This is the hook that lets Monte-Carlo sweeps reuse expensive per-thread
/// resources (a scenario sampler, warm buffers) across the scenarios a
/// thread happens to process: a thread calls `init()` exactly once, then
/// evaluates each claimed index with `&mut` access to its state. `S` never
/// crosses a thread boundary, so it needs neither `Send` nor `Sync` — a
/// [`rta_curves::Scratch`] works fine. The admission sweeps derive job set
/// `i` from a seed inside `f`, so no `Vec<TaskSystem>` ever materializes.
///
/// Determinism contract: the returned `Vec` is index-ordered, but which
/// indices land on which thread (and hence on which state value) is **not**
/// deterministic, so results are reproducible only when `f(state, i)`
/// depends on `state` through value-independent reuse (caches, warm
/// buffers), never through accumulation. Carrying one scenario's analysis
/// state (a fixpoint memo, a verdict) into the next would break this and
/// would be unsound besides: such state belongs to the system it was
/// computed on.
pub fn pool_map_stateful<S, T, I, F>(n: usize, init: I, f: F) -> Vec<T>
where
    T: Send + 'static,
    I: Fn() -> S + Send + Sync + 'static,
    F: Fn(&mut S, usize) -> T + Send + Sync + 'static,
{
    let pool = WorkerPool::global();
    // Spawn-free fast path: tiny batches are cheaper inline — dispatch
    // overhead (ticket submit, channel, wake-ups) costs more than a handful
    // of evaluations.
    if pool.workers == 0 || n < 8 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }

    let shared = Arc::new((init, f));
    let next = Arc::new(AtomicUsize::new(0));
    let participants = (pool.workers + 1).min(n);
    // Several chunks per participant so an unlucky expensive chunk cannot
    // serialize the whole map behind one thread.
    let chunk = n.div_ceil(participants * 4).max(1);
    let tickets = participants.min(n.div_ceil(chunk)).saturating_sub(1);

    let (tx, rx) = channel::<Msg<T>>();
    for _ in 0..tickets {
        let shared = Arc::clone(&shared);
        let next = Arc::clone(&next);
        let tx = tx.clone();
        pool.submit(Box::new(move || {
            let mut guard = TicketGuard { tx, armed: true };
            let (init, f) = &*shared;
            let mut state = init();
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                let mut vals = Vec::with_capacity(end - start);
                for i in start..end {
                    vals.push(f(&mut state, i));
                }
                // A send error means the caller already panicked and dropped
                // the receiver; abandon the remaining work.
                if guard.tx.send(Msg::Chunk(start, vals)).is_err() {
                    break;
                }
            }
            guard.armed = false;
        }));
    }
    drop(tx);

    let mut out: Vec<Option<T>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let mut filled = 0usize;
    let (init, f) = &*shared;
    let mut state = init();
    // Caller participation: claim chunks until the cursor is exhausted.
    loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        for (off, slot) in out[start..end].iter_mut().enumerate() {
            *slot = Some(f(&mut state, start + off));
            filled += 1;
        }
    }
    // Collect the chunks claimed by workers. Every claimed chunk is either
    // delivered or covered by a `Failed` marker from the ticket guard, so
    // this loop terminates.
    while filled < n {
        match rx.recv() {
            Ok(Msg::Chunk(start, vals)) => {
                for (slot, v) in out[start..].iter_mut().zip(vals) {
                    *slot = Some(v);
                    filled += 1;
                }
            }
            Ok(Msg::Failed) => panic!("pool_map: a worker task panicked"),
            Err(_) => panic!("pool_map: workers disconnected with {filled}/{n} results"),
        }
    }
    out.into_iter()
        .map(|x| x.expect("every index computed"))
        .collect()
}

/// Evaluate `f(state, 0), …, f(state, n-1)` across the pool and return the
/// **per-thread states** after all indices are processed.
///
/// Where [`pool_map_stateful`] returns per-index results and discards the
/// states, this returns the states and discards per-index results — the
/// shape wanted by streaming accumulation (Monte-Carlo counters, histograms):
/// each participating thread folds the indices it claims into its own `S`,
/// and the caller merges the returned states. No per-draw values ever cross
/// a thread boundary.
///
/// The returned vector holds one state per thread that actually claimed at
/// least one chunk (at most [`pool_threads`], at least one for `n > 0`), in
/// **unspecified order** — which indices landed in which state is scheduling
/// -dependent, so the caller's merge must be commutative and associative for
/// the final fold to be partition-independent. `S` crosses back to the
/// caller once at the end and therefore must be `Send`.
pub fn pool_fold_states<S, I, F>(n: usize, init: I, f: F) -> Vec<S>
where
    S: Send + 'static,
    I: Fn() -> S + Send + Sync + 'static,
    F: Fn(&mut S, usize) + Send + Sync + 'static,
{
    let pool = WorkerPool::global();
    if pool.workers == 0 || n < 8 {
        let mut state = init();
        for i in 0..n {
            f(&mut state, i);
        }
        return vec![state];
    }

    let shared = Arc::new((init, f));
    let next = Arc::new(AtomicUsize::new(0));
    let participants = (pool.workers + 1).min(n);
    let chunk = n.div_ceil(participants * 4).max(1);
    let tickets = participants.min(n.div_ceil(chunk)).saturating_sub(1);

    // One message per ticket: its final state (None when the ticket never
    // claimed a chunk), or `Failed` from the drop-guard on panic.
    let (tx, rx) = channel::<Msg<Option<S>>>();
    for _ in 0..tickets {
        let shared = Arc::clone(&shared);
        let next = Arc::clone(&next);
        let tx = tx.clone();
        pool.submit(Box::new(move || {
            let mut guard = TicketGuard { tx, armed: true };
            let (init, f) = &*shared;
            // Built lazily on the first claimed chunk so losing tickets
            // (all chunks already taken) cost nothing.
            let mut state: Option<S> = None;
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let s = state.get_or_insert_with(init);
                let end = (start + chunk).min(n);
                for i in start..end {
                    f(s, i);
                }
            }
            let _ = guard.tx.send(Msg::Chunk(0, vec![state]));
            guard.armed = false;
        }));
    }
    drop(tx);

    let (init, f) = &*shared;
    let mut state = init();
    loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        for i in start..end {
            f(&mut state, i);
        }
    }
    let mut states = vec![state];
    // Every ticket either delivers its (possibly None) state or a `Failed`
    // marker via the guard, so exactly `tickets` messages arrive.
    for _ in 0..tickets {
        match rx.recv() {
            Ok(Msg::Chunk(_, vals)) => states.extend(vals.into_iter().flatten()),
            Ok(Msg::Failed) => panic!("pool_fold_states: a worker task panicked"),
            Err(_) => panic!("pool_fold_states: workers disconnected early"),
        }
    }
    states
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for n in [0, 1, 3, 4, 7, 64, 1000] {
            let v = pool_map(n, |i| i * i);
            assert_eq!(v, (0..n).map(|i| i * i).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn closures_can_capture_shared_state() {
        let data: Arc<Vec<i64>> = Arc::new((0..100).collect());
        let v = pool_map(data.len(), move |i| data[i] + 1);
        assert_eq!(v[99], 100);
    }

    #[test]
    fn nested_maps_do_not_deadlock() {
        // Every outer chunk re-enters pool_map while its siblings occupy the
        // workers; caller participation must keep all of them progressing.
        let v = pool_map(16, |i| pool_map(64, move |j| i * j).iter().sum::<usize>());
        for (i, total) in v.into_iter().enumerate() {
            assert_eq!(total, i * (63 * 64) / 2, "outer index {i}");
        }
    }

    #[test]
    fn repeated_maps_reuse_the_pool() {
        // Exercises ticket cleanup across many small maps: stale tickets
        // from earlier maps must drain as no-ops without corrupting later
        // results.
        for round in 0..50 {
            let v = pool_map(32, move |i| i + round);
            assert_eq!(v[31], 31 + round, "round {round}");
        }
    }

    #[test]
    fn pool_reports_at_least_the_caller() {
        assert!(pool_threads() >= 1);
    }

    #[test]
    fn stateful_map_builds_one_state_per_thread() {
        use std::sync::atomic::AtomicUsize;

        // Each participant gets its own warm buffer; results must still be
        // index-ordered and value-correct regardless of which thread (and
        // hence which buffer) computed each index.
        static INITS: AtomicUsize = AtomicUsize::new(0);
        let v = pool_map_stateful(
            1000,
            || {
                INITS.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::new()
            },
            |buf, i| {
                buf.clear();
                buf.extend(0..=i % 10);
                buf.iter().sum::<usize>() + i
            },
        );
        for (i, got) in v.into_iter().enumerate() {
            let m = i % 10;
            assert_eq!(got, m * (m + 1) / 2 + i, "index {i}");
        }
        // At most one state per participating thread (workers may not all
        // win a ticket, but none builds two states).
        assert!(INITS.load(Ordering::Relaxed) <= pool_threads());
    }

    #[test]
    fn fold_states_cover_every_index_exactly_once() {
        for n in [0, 1, 7, 8, 100, 1000] {
            let states = pool_fold_states(
                n,
                || (0u64, 0u64), // (count, index sum)
                |s, i| {
                    s.0 += 1;
                    s.1 += i as u64;
                },
            );
            assert!(!states.is_empty());
            assert!(states.len() <= pool_threads());
            let count: u64 = states.iter().map(|s| s.0).sum();
            let sum: u64 = states.iter().map(|s| s.1).sum();
            assert_eq!(count, n as u64, "n={n}");
            assert_eq!(sum, (0..n as u64).sum::<u64>(), "n={n}");
        }
    }

    #[test]
    fn fold_states_merge_matches_sequential_fold() {
        // Integer accumulators merged across threads must equal the
        // sequential fold bit-for-bit — the property the WCDFP engine
        // builds on.
        let mut seq = [0u64; 16];
        for i in 0..5000usize {
            seq[i % 16] += (i * i) as u64;
        }
        let states = pool_fold_states(5000, || [0u64; 16], |s, i| s[i % 16] += (i * i) as u64);
        let mut merged = [0u64; 16];
        for s in states {
            for (m, v) in merged.iter_mut().zip(s) {
                *m += v;
            }
        }
        assert_eq!(merged, seq);
    }

    #[test]
    fn stateful_map_runs_inline_when_small() {
        // Below the dispatch threshold the caller computes everything with a
        // single state, so stateful accumulation is sequential and exact.
        let v = pool_map_stateful(
            7,
            || 0usize,
            |acc, i| {
                *acc += i;
                *acc
            },
        );
        assert_eq!(v, vec![0, 1, 3, 6, 10, 15, 21]);
    }
}
