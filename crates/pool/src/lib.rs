//! # qcor-pool — work-sharing thread pool substrate
//!
//! The paper's evaluation runs quantum kernels on the Quantum++ simulator,
//! whose inner loops are parallelized with OpenMP and whose thread count is
//! controlled by `OMP_NUM_THREADS`. This crate is the Rust analogue of that
//! substrate: a small, from-scratch work-sharing runtime providing
//!
//! * [`ThreadPool`] — a team of persistent worker threads plus the calling
//!   thread (the "master", as in an OpenMP parallel region),
//! * [`ThreadPool::parallel_for`] — a work-shared loop over an index range
//!   with static or dynamic chunk scheduling,
//! * [`ThreadPool::parallel_reduce`] — a work-shared map/reduce,
//! * [`ThreadPool::scope`] — fork/join task parallelism with borrowed data,
//! * [`num_threads_from_env`] — the `OMP_NUM_THREADS` analogue
//!   (`QCOR_NUM_THREADS`).
//!
//! The design goal mirrors OpenMP semantics that matter for the paper's
//! experiments:
//!
//! * a pool created with `num_threads = n` uses exactly `n` CPU workers for a
//!   work-shared loop (`n - 1` background threads plus the caller), so that
//!   "one kernel with N threads" and "two kernels with N/2 threads each"
//!   partition the machine the same way the paper's QCOR + OpenMP setup does;
//! * nested parallelism is disabled by default (like `OMP_NESTED=false`): a
//!   `parallel_for` issued from inside a worker of the *same* pool runs
//!   inline sequentially instead of deadlocking or oversubscribing.
//!
//! Everything is implemented with `crossbeam` channels, `parking_lot`
//! synchronization and a handful of atomics; there is no dependency on rayon
//! or OpenMP.

mod latch;
mod pool;
mod scope;

pub use latch::{CountLatch, WaitGroup};
pub use pool::{batch_steal_count, current_worker_pool_id, PoolBuilder, Schedule, ThreadPool};
pub use scope::Scope;

use std::num::NonZeroUsize;

/// Environment variable controlling the default worker count, analogous to
/// `OMP_NUM_THREADS` in the paper's setup.
pub const NUM_THREADS_ENV: &str = "QCOR_NUM_THREADS";

/// Number of logical CPUs visible to the process (at least 1).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Resolve the default thread count: `QCOR_NUM_THREADS` if set and valid,
/// otherwise the number of logical CPUs.
///
/// This mirrors how the paper's experiments set `OMP_NUM_THREADS` to choose
/// the per-kernel simulator thread count.
pub fn num_threads_from_env() -> usize {
    match std::env::var(NUM_THREADS_ENV) {
        Ok(v) => v.trim().parse::<usize>().ok().filter(|&n| n > 0).unwrap_or_else(available_parallelism),
        Err(_) => available_parallelism(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn env_fallback_is_positive() {
        assert!(num_threads_from_env() >= 1);
    }
}
