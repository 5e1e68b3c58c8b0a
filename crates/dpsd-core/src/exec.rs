//! Deterministic parallel execution over scoped `std::thread` workers.
//!
//! The workloads this workspace parallelizes are embarrassingly
//! parallel — batched range queries are read-only, and multi-synopsis
//! builds draw every random bit from a per-task seeded stream — so the
//! runtime can promise something stronger than "safe": **the output is
//! a pure function of the input, independent of thread count and
//! scheduling**. Concretely:
//!
//! * every task's result lands in a slot fixed by its submission index,
//!   so merged output order never depends on completion order;
//! * tasks share no mutable state — a task sees only its index and the
//!   caller's `Sync` captures;
//! * callers that need randomness derive an RNG from the task index
//!   (e.g. [`crate::rng::derived`]) instead of sharing a generator, so
//!   draws cannot migrate between tasks when the schedule changes.
//!
//! Under those rules [`par_map_tasks`] with any [`Parallelism`] returns
//! **bit-identical** results to a sequential `for` loop, which is how
//! [`crate::synopsis::ParallelQuery::query_batch_parallel`] can be
//! guarded by the same fingerprint tests as the sequential query path.
//!
//! There is no persistent pool: each call spawns scoped workers
//! ([`std::thread::scope`]) that exit when the call returns. Spawning a
//! thread costs ~10 µs, noise next to the multi-millisecond batch and
//! build tasks this runtime exists for, and scoped workers let tasks
//! borrow the caller's data without `Arc` plumbing.
//!
//! # Example
//!
//! ```
//! use dpsd_core::exec::{par_map_tasks, Parallelism};
//!
//! // Sum the squares of 0..100 in four fixed slots; the result is the
//! // same for every thread count, including sequential.
//! let per_slot = |slot: usize| (slot..100).step_by(4).map(|v| v * v).sum::<usize>();
//! let parallel: usize = par_map_tasks(Parallelism::fixed(4), 4, per_slot).into_iter().sum();
//! let sequential: usize = par_map_tasks(Parallelism::Sequential, 4, per_slot).into_iter().sum();
//! assert_eq!(parallel, sequential);
//! assert_eq!(parallel, (0..100).map(|v| v * v).sum());
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many worker threads a parallel operation may use.
///
/// Every variant produces **identical output** — parallelism here only
/// ever changes wall-clock time, never results — so the choice is purely
/// about hardware: [`Parallelism::Auto`] for servers and CI,
/// [`Parallelism::Sequential`] for profiling or single-core containers,
/// [`Parallelism::Fixed`] for benchmarks that pin a thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run on the calling thread; spawn nothing.
    Sequential,
    /// Use exactly this many workers (the calling thread waits).
    Fixed(NonZeroUsize),
    /// Use [`std::thread::available_parallelism`] workers (falls back to
    /// sequential when the hint is unavailable).
    Auto,
}

impl Parallelism {
    /// A fixed thread count; `0` and `1` collapse to
    /// [`Parallelism::Sequential`].
    pub fn fixed(threads: usize) -> Self {
        match NonZeroUsize::new(threads) {
            Some(n) if n.get() > 1 => Parallelism::Fixed(n),
            _ => Parallelism::Sequential,
        }
    }

    /// Reads the `DPSD_THREADS` environment variable: unset, empty, `0`,
    /// or `auto` mean [`Parallelism::Auto`]; any other number is a fixed
    /// count (`1` = sequential). Unparseable values fall back to `Auto`.
    ///
    /// This is the knob the experiment harness and benches honor, so one
    /// variable pins the whole pipeline to a thread count.
    pub fn from_env() -> Self {
        match std::env::var("DPSD_THREADS") {
            Ok(raw) => {
                let raw = raw.trim();
                if raw.is_empty() || raw == "auto" || raw == "0" {
                    Parallelism::Auto
                } else {
                    raw.parse()
                        .map(Parallelism::fixed)
                        .unwrap_or(Parallelism::Auto)
                }
            }
            Err(_) => Parallelism::Auto,
        }
    }

    /// The concrete number of workers this policy resolves to (>= 1).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.get(),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Runs `n_tasks` independent tasks and collects their results **in
/// submission order** (`out[i]` is `run(i)`), using at most
/// `par.threads()` scoped workers.
///
/// Determinism: the output vector is a pure function of `run` — thread
/// count and scheduling only affect wall-clock time. Tasks are handed
/// out through an atomic cursor (work stealing by index), so uneven task
/// costs cannot idle a worker while slots remain.
///
/// # Panics
///
/// If a task panics, all workers finish their current task and the panic
/// propagates to the caller (via [`std::thread::scope`]), matching the
/// sequential behaviour of a panicking loop body.
pub fn par_map_tasks<R, F>(par: Parallelism, n_tasks: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = par.threads().min(n_tasks);
    if workers <= 1 {
        return (0..n_tasks).map(run).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                let result = run(i);
                // dpsd-allow(no-lock-unwrap): slot locks are held only for this infallible assignment, so they cannot be poisoned; a panicking task is rethrown by the scope join before anyone reads the slots
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned") // dpsd-allow(no-panic-in-lib): see the slot-lock invariant above
                .expect("worker filled every claimed slot") // dpsd-allow(no-panic-in-lib): the atomic cursor hands every index in 0..n_tasks to exactly one worker
        })
        .collect()
}

/// Lower bound on items per shard for [`par_map_shards`]: below this,
/// thread spawn overhead dominates any conceivable per-item win.
pub const MIN_SHARD: usize = 64;

/// Shards a slice into contiguous chunks, maps each chunk on the worker
/// pool, and concatenates the per-chunk outputs in slice order.
///
/// The shard count adapts to `par` (a few shards per worker, for load
/// balance) but keeps every shard at `min_shard` items or more — only
/// the final remainder chunk may come up short. Output
/// equals `f(items)` whenever `f` is *shard-oblivious* — maps each item
/// independently of its neighbours, as a batch of range queries does
/// (each answer is its own descent, whatever shard it lands in).
pub fn par_map_shards<T, R, F>(par: Parallelism, items: &[T], min_shard: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> Vec<R> + Sync,
{
    let workers = par.threads();
    let min_shard = min_shard.max(1);
    if workers <= 1 || items.len() <= min_shard {
        return f(items);
    }
    // A few shards per worker smooths uneven per-item cost; the floor
    // division caps the shard count so no shard drops below `min_shard`
    // items, and the ceiling division keeps every shard within one item
    // of the same size.
    let target_shards = (workers * 4).min((items.len() / min_shard).max(1));
    let shard_len = items.len().div_ceil(target_shards);
    let shards: Vec<&[T]> = items.chunks(shard_len).collect();
    par_map_tasks(par, shards.len(), |i| f(shards[i]))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_collapses_degenerate_counts() {
        assert_eq!(Parallelism::fixed(0), Parallelism::Sequential);
        assert_eq!(Parallelism::fixed(1), Parallelism::Sequential);
        assert_eq!(Parallelism::fixed(3).threads(), 3);
        assert_eq!(Parallelism::Sequential.threads(), 1);
        assert!(Parallelism::Auto.threads() >= 1);
    }

    #[test]
    fn par_map_tasks_preserves_submission_order() {
        for par in [
            Parallelism::Sequential,
            Parallelism::fixed(2),
            Parallelism::fixed(3),
            Parallelism::fixed(8),
        ] {
            let out = par_map_tasks(par, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>(), "{par:?}");
        }
    }

    #[test]
    fn par_map_tasks_handles_more_workers_than_tasks() {
        let out = par_map_tasks(Parallelism::fixed(16), 3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
        let empty: Vec<usize> = par_map_tasks(Parallelism::fixed(4), 0, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn par_map_shards_equals_direct_call() {
        let items: Vec<u64> = (0..1000).collect();
        let f = |chunk: &[u64]| chunk.iter().map(|&v| v * 3 + 1).collect::<Vec<_>>();
        let direct = f(&items);
        for par in [
            Parallelism::Sequential,
            Parallelism::fixed(2),
            Parallelism::fixed(8),
        ] {
            assert_eq!(par_map_shards(par, &items, 64, f), direct, "{par:?}");
        }
        // Tiny inputs skip sharding entirely.
        assert_eq!(
            par_map_shards(Parallelism::fixed(8), &items[..10], 64, f),
            f(&items[..10])
        );
        let none: Vec<u64> = vec![];
        assert!(par_map_shards(Parallelism::fixed(4), &none, 64, f).is_empty());
    }

    #[test]
    fn shards_respect_the_minimum_size() {
        for (n_items, min_shard) in [(100usize, 64usize), (1000, 64), (129, 64), (4096, 100)] {
            let items: Vec<u64> = (0..n_items as u64).collect();
            let lens = Mutex::new(Vec::new());
            let out = par_map_shards(Parallelism::fixed(8), &items, min_shard, |chunk| {
                lens.lock().unwrap().push(chunk.len());
                chunk.to_vec()
            });
            assert_eq!(out, items);
            let mut lens = lens.into_inner().unwrap();
            // Shards are claimed in any order; only sizes matter. At
            // most the single remainder chunk may fall below the floor.
            lens.sort_unstable();
            let below: Vec<usize> = lens.iter().copied().filter(|&l| l < min_shard).collect();
            assert!(
                below.len() <= 1,
                "n={n_items} min={min_shard}: more than the remainder below floor: {lens:?}"
            );
        }
    }

    #[test]
    fn par_map_tasks_runs_every_task_once() {
        use std::sync::atomic::AtomicU64;
        let hits: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        par_map_tasks(Parallelism::fixed(4), 50, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn from_env_parses_the_knob() {
        // Serialized by the env-var lock implicit in single-threaded
        // test bodies: set, read, restore.
        let prior = std::env::var("DPSD_THREADS").ok();
        for (raw, expect) in [
            ("auto", Parallelism::Auto),
            ("0", Parallelism::Auto),
            ("", Parallelism::Auto),
            ("1", Parallelism::Sequential),
            ("4", Parallelism::fixed(4)),
            ("not-a-number", Parallelism::Auto),
        ] {
            std::env::set_var("DPSD_THREADS", raw);
            assert_eq!(Parallelism::from_env(), expect, "raw {raw:?}");
        }
        match prior {
            Some(v) => std::env::set_var("DPSD_THREADS", v),
            None => std::env::remove_var("DPSD_THREADS"),
        }
    }

    #[test]
    #[should_panic] // scope re-panics with its own payload after joining
    fn worker_panic_propagates() {
        par_map_tasks(Parallelism::fixed(2), 16, |i| {
            if i == 7 {
                panic!("task 7 exploded");
            }
        });
    }
}
