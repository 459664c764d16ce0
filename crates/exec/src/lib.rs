//! # msatpg-exec — the workspace's one concurrency story
//!
//! A std-only **persistent worker pool** with chunked, self-scheduling
//! parallel iteration and block-boundary barriers.  The hot layers of the
//! mixed-signal ATPG flow — PPSFP fault re-evaluation, pipelined per-fault
//! test generation, per-parameter worst-case deviation rows, per-element
//! analog tests — all run on one execution substrate instead of ad-hoc
//! threading.
//!
//! ## Design
//!
//! * **No external dependencies.**  The container builds offline, so the
//!   pool is built on [`std::thread::scope`] (workers may borrow the
//!   caller's data), a mutex/condvar round descriptor and an atomic claim
//!   cursor.
//! * **Persistent workers, round barriers.**  [`WorkerPool::session`]
//!   spawns one worker set for a whole campaign; work is submitted in
//!   rounds through a channel-free injector, and [`Session::wait`] is the
//!   barrier at which the driver reads the round's results and updates
//!   shared state (fault-dropping sets, covered flags) before the next
//!   round.  [`PoolStats`] counts spawns, jobs and barriers so tests can
//!   assert the amortization (one spawn set per campaign, not one per
//!   64-pattern block).  See the [`pool`] module docs for the lifecycle.
//! * **Work stealing by chunk self-scheduling.**  Idle workers claim the
//!   next unprocessed chunk of the current round with a compare-and-swap on
//!   the shared cursor, so a worker that finishes early immediately steals
//!   the next chunk instead of idling behind a static partition.
//! * **Deterministic ordered reduction.**  Every chunk's result is slotted
//!   by chunk index and merged in chunk order, so the output of
//!   [`WorkerPool::run_chunks`] / [`Session::wait`] is a pure function of
//!   `(items, chunk_size, f)` — never of the scheduling order or the worker
//!   count.  Callers that keep per-item work schedule-independent (see the
//!   determinism contract on [`WorkerPool::run_chunks`]) therefore get
//!   **byte-identical** results for [`ExecPolicy::Serial`], `Threads(2)`,
//!   `Threads(8)`, … — the property the workspace's determinism suite
//!   asserts.
//! * **One execution setting.**  The caller's [`WorkerPool`] carries the
//!   run's [`ExecPolicy`] and [`PanicPolicy`]; the engines of the digital,
//!   analog and core crates take the pool in their `run_on` entry points
//!   and hold no policy of their own (the one exception is the fault
//!   simulator's `with_policy`, which the flow benchmark still calls).
//!   `Serial` runs inline on the caller's thread with zero setup cost.  The crate never reads the environment:
//!   `MSATPG_THREADS` is resolved to a concrete policy once, by
//!   `msatpg_core::AtpgOptions::from_env`.
//!
//! ## Example
//!
//! ```
//! use msatpg_exec::{ExecPolicy, WorkerPool};
//!
//! let items: Vec<u64> = (0..1000).collect();
//! let sums = |policy| {
//!     WorkerPool::new(policy).run_chunks(&items, 64, || (), |(), _, _, c| c.iter().sum::<u64>())
//! };
//! // Deterministic ordered reduction.
//! assert_eq!(sums(ExecPolicy::Serial), sums(ExecPolicy::Threads(4)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod chaos;
pub mod pool;

pub use cancel::{CancelReason, CancelToken};
pub use chaos::{ChaosEvent, ChaosInjector};
pub use pool::{ChunkPanic, PanicPolicy, PoolStats, Session, WorkerPool};

/// How a parallelizable loop is executed.
///
/// The default everywhere in the workspace is [`ExecPolicy::Serial`]: every
/// parallel entry point produces byte-identical output across policies, so
/// enabling threads is purely a wall-clock decision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecPolicy {
    /// Run inline on the caller's thread (no pool, no spawn overhead).
    #[default]
    Serial,
    /// Run on a scoped pool of exactly `n` workers (`0` and `1` degrade to
    /// the inline serial path).
    Threads(usize),
}

impl ExecPolicy {
    /// The number of workers this policy runs on.
    pub fn workers(self) -> usize {
        match self {
            ExecPolicy::Serial => 1,
            ExecPolicy::Threads(n) => n.max(1),
        }
    }

    /// `true` when the policy resolves to the inline serial path.
    pub fn is_serial(self) -> bool {
        self.workers() <= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One stateless `run_chunks` call on a fresh pool.
    fn map_chunks<T: Sync, R: Send>(
        policy: ExecPolicy,
        items: &[T],
        chunk_size: usize,
        f: impl Fn(usize, usize, &[T]) -> R + Sync,
    ) -> Vec<R> {
        WorkerPool::new(policy).run_chunks(items, chunk_size, || (), |(), ci, off, c| f(ci, off, c))
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(ExecPolicy::Serial.workers(), 1);
        assert!(ExecPolicy::Serial.is_serial());
        assert_eq!(ExecPolicy::Threads(0).workers(), 1);
        assert!(ExecPolicy::Threads(1).is_serial());
        assert_eq!(ExecPolicy::Threads(8).workers(), 8);
        assert!(!ExecPolicy::Threads(8).is_serial());
        assert_eq!(ExecPolicy::default(), ExecPolicy::Serial);
    }

    #[test]
    fn chunk_indices_and_offsets_are_consistent() {
        let items: Vec<u32> = (0..103).collect();
        for policy in [ExecPolicy::Serial, ExecPolicy::Threads(3)] {
            let spans = map_chunks(policy, &items, 10, |ci, off, chunk| {
                assert_eq!(off, ci * 10);
                assert_eq!(chunk[0], off as u32);
                (ci, off, chunk.len())
            });
            assert_eq!(spans.len(), 11);
            assert_eq!(spans[10], (10, 100, 3), "last chunk is the remainder");
            let total: usize = spans.iter().map(|&(_, _, n)| n).sum();
            assert_eq!(total, items.len());
        }
    }

    #[test]
    fn results_are_ordered_and_policy_independent() {
        let items: Vec<u64> = (0..4096).map(|i| i * 7 + 3).collect();
        let squares = |policy| {
            map_chunks(policy, &items, 33, |_, _, c| {
                c.iter().map(|&x| x.wrapping_mul(x)).sum::<u64>()
            })
        };
        let reference = squares(ExecPolicy::Serial);
        for threads in [2, 5, 8] {
            assert_eq!(
                squares(ExecPolicy::Threads(threads)),
                reference,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let items: Vec<usize> = (0..1000).collect();
        let visits = AtomicU64::new(0);
        let chunks = map_chunks(ExecPolicy::Threads(7), &items, 13, |_, _, c| {
            visits.fetch_add(c.len() as u64, Ordering::Relaxed);
            c.to_vec()
        });
        assert_eq!(visits.load(Ordering::Relaxed), 1000);
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, items, "concatenated chunks reproduce the input order");
    }

    #[test]
    fn worker_state_is_initialized_per_worker_and_reused() {
        // Count init() calls: the serial path creates one state, a threaded
        // run at most `workers` states (fewer if some workers never claim a
        // chunk before the cursor drains).
        let items: Vec<u8> = vec![0; 64];
        let inits = AtomicU64::new(0);
        let count_inits = |policy| {
            inits.store(0, Ordering::Relaxed);
            let _ = WorkerPool::new(policy).run_chunks(
                &items,
                4,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u8>::new()
                },
                |scratch, _, _, c| {
                    scratch.clear();
                    scratch.extend_from_slice(c);
                    scratch.len()
                },
            );
            inits.load(Ordering::Relaxed)
        };
        assert_eq!(count_inits(ExecPolicy::Serial), 1);
        let n = count_inits(ExecPolicy::Threads(3));
        assert!((1..=3).contains(&n), "workers initialized {n} states");
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: [u8; 0] = [];
        let out = map_chunks(ExecPolicy::Threads(4), &items, 8, |_, _, c| c.len());
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_never_exceeds_chunk_count() {
        // 2 chunks, 16 requested workers: must not deadlock or misbehave.
        let items: Vec<u32> = (0..20).collect();
        let out = map_chunks(ExecPolicy::Threads(16), &items, 10, |ci, _, c| {
            (ci, c.iter().sum::<u32>())
        });
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn zero_chunk_size_panics() {
        let items = [1u8, 2, 3];
        let _ = map_chunks(ExecPolicy::Serial, &items, 0, |_, _, c| c.len());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            map_chunks(ExecPolicy::Threads(4), &items, 8, |_, off, _| {
                if off == 40 {
                    panic!("boom at 40");
                }
                off
            })
        });
        assert!(result.is_err());
    }
}
