//! # nrsnn-runtime
//!
//! The parallel execution substrate of the NRSNN reproduction: a std-only,
//! dependency-free scoped thread pool with work stealing, plus deterministic
//! per-task seed derivation.
//!
//! The paper's evaluation (Figs. 2–4, 6–8, Tables I–II) is an embarrassingly
//! parallel `(coding × noise level × sample)` grid of independent SNN
//! simulations.  This crate supplies the two ingredients needed to run that
//! grid on all cores *without changing a single result bit*:
//!
//! * [`parallel_map`] / [`try_parallel_map`] — a fork-join map over a slice.
//!   Tasks are pre-distributed round-robin over per-worker deques; idle
//!   workers steal from the back of their peers' deques, so uneven task
//!   costs (deep CNN points next to cheap MLP points) still load-balance.
//!   Results are reassembled **by task index**, so the output order never
//!   depends on scheduling.
//! * [`WorkerPool`] — the *service* counterpart of the scoped pool: named,
//!   long-lived worker threads that park on the caller's own queue and join
//!   (with panic propagation) at shutdown.  The inference server in
//!   `nrsnn-serve` runs its dynamic batcher on one of these.
//! * [`derive_seed`] — a SplitMix64-style mix of a master seed and a task
//!   index.  Giving every task its own derived RNG stream (instead of
//!   threading one RNG through all tasks serially) is what makes the
//!   parallel and serial paths bit-identical.
//!
//! The thread count is controlled by [`ParallelConfig`]; a
//! [`ParallelConfig::auto`] configuration honours the `NRSNN_THREADS`
//! environment variable.
//!
//! ## Example: a deterministic parallel sweep
//!
//! ```
//! use nrsnn_runtime::{derive_seed, parallel_map, ParallelConfig};
//!
//! // Any per-task computation that seeds its randomness through
//! // `derive_seed` is invariant to the worker count ...
//! let tasks: Vec<u64> = (0..64).collect();
//! let run = |cfg: &ParallelConfig| {
//!     parallel_map(cfg, &tasks, |index, &task| {
//!         derive_seed(42, index as u64).wrapping_add(task)
//!     })
//! };
//!
//! // ... so one worker and four workers produce identical output.
//! let serial = run(&ParallelConfig::serial());
//! let parallel = run(&ParallelConfig::with_threads(4));
//! assert_eq!(serial, parallel);
//! ```
//!
//! ## Fallible tasks
//!
//! ```
//! use nrsnn_runtime::{try_parallel_map, ParallelConfig};
//!
//! let items = [2u32, 4, 5, 6];
//! let result: Result<Vec<u32>, String> =
//!     try_parallel_map(&ParallelConfig::with_threads(2), &items, |_, &x| {
//!         if x % 2 == 0 {
//!             Ok(x / 2)
//!         } else {
//!             Err(format!("{x} is odd"))
//!         }
//!     });
//! // The lowest-indexed failure is reported, regardless of which worker
//! // hit it first.
//! assert_eq!(result, Err("5 is odd".to_string()));
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod config;
mod pool;
mod seed;
mod service;

pub use config::{ParallelConfig, THREADS_ENV_VAR};
pub use pool::{parallel_map, parallel_map_init, try_parallel_map, try_parallel_map_init};
pub use seed::derive_seed;
pub use service::WorkerPool;
