//! Per-thread kernel instrumentation counters.
//!
//! The control-aware state-vector kernels enumerate only the amplitude
//! indices that satisfy their control masks, so a CX visits 2× fewer and a
//! CCX 4× fewer indices than a full scan, and a fused two-qubit block
//! (`Dense2`) visits `2^(n-2-c)` quads instead of two full pair sweeps.
//! That claim is load-bearing for the kernel and compile tests, so every
//! kernel reports the exact number of loop iterations it executes — both
//! to a grand total and to a per-kernel-class bucket — so fusion
//! regressions are observable as counter shifts, not just as timing noise.
//!
//! The counters are **thread-local** and recorded once per kernel
//! invocation on the thread that *issued* the kernel (before any
//! work-sharing), which makes them race-free against concurrently running
//! tests and free of atomic contention; the cost of two `Cell` adds per
//! kernel call is unmeasurable next to the amplitude loop, so the
//! instrumentation is compiled in unconditionally rather than hidden
//! behind a feature gate. To audit a multi-threaded run, read the counters
//! on the thread that drives the kernels (chunked shot plans record on
//! whichever worker runs the chunk — drive the plan through a 1-thread
//! pool, or call [`crate::run_once`] directly, when exact totals matter).
//! [`forked_sweeps`] counts, the same way, how many of those kernel
//! invocations the fork rule sent to the pool.

use std::cell::Cell;

/// The kernel families the compiled executor dispatches to, in the order
/// they are reported by [`kernel_iteration_breakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// General 2×2 matrix kernel ([`crate::StateVector::apply_single`]).
    Dense,
    /// Fused 4×4 two-qubit block kernel ([`crate::StateVector::apply_pair`]).
    Dense2,
    /// Anti-diagonal 2×2 kernel (X/Y-like; swaps pair halves).
    Flip,
    /// Diagonal 2×2 kernel (no pair mixing).
    Diag,
    /// Masked phase multiply (diagonal over many qubits at once).
    Phase,
    /// Qubit transposition kernel.
    Swap,
    /// Global scalar multiply.
    Scale,
    /// General index permutation (scratch-based).
    Perm,
}

/// All kernel classes, in reporting order.
pub const KERNEL_CLASSES: [KernelClass; 8] = [
    KernelClass::Dense,
    KernelClass::Dense2,
    KernelClass::Flip,
    KernelClass::Diag,
    KernelClass::Phase,
    KernelClass::Swap,
    KernelClass::Scale,
    KernelClass::Perm,
];

impl KernelClass {
    /// Stable lowercase label, used by the benchmark's trace output.
    pub fn label(self) -> &'static str {
        match self {
            KernelClass::Dense => "dense",
            KernelClass::Dense2 => "dense2",
            KernelClass::Flip => "flip",
            KernelClass::Diag => "diag",
            KernelClass::Phase => "phase",
            KernelClass::Swap => "swap",
            KernelClass::Scale => "scale",
            KernelClass::Perm => "perm",
        }
    }
}

thread_local! {
    static FORKED_SWEEPS: Cell<u64> = const { Cell::new(0) };
    static KERNEL_ITERS: Cell<u64> = const { Cell::new(0) };
    static CLASS_ITERS: [Cell<u64>; 8] = const {
        [
            Cell::new(0),
            Cell::new(0),
            Cell::new(0),
            Cell::new(0),
            Cell::new(0),
            Cell::new(0),
            Cell::new(0),
            Cell::new(0),
        ]
    };
}

/// Record `n` loop iterations executed by a state-vector kernel of `class`.
#[inline]
pub(crate) fn record_iterations(class: KernelClass, n: usize) {
    KERNEL_ITERS.with(|c| c.set(c.get() + n as u64));
    CLASS_ITERS.with(|cs| {
        let c = &cs[class as usize];
        c.set(c.get() + n as u64);
    });
}

/// Total loop iterations issued by state-vector update kernels from this
/// thread since the last [`reset_kernel_iterations`].
pub fn kernel_iterations() -> u64 {
    KERNEL_ITERS.with(Cell::get)
}

/// Loop iterations issued by kernels of one class from this thread since
/// the last [`reset_kernel_iterations`].
pub fn kernel_class_iterations(class: KernelClass) -> u64 {
    CLASS_ITERS.with(|cs| cs[class as usize].get())
}

/// Per-class iteration counts `(class, iterations)` for every kernel
/// class, in [`KERNEL_CLASSES`] order. The sum equals
/// [`kernel_iterations`].
pub fn kernel_iteration_breakdown() -> [(KernelClass, u64); 8] {
    CLASS_ITERS.with(|cs| {
        let mut out = [(KernelClass::Dense, 0u64); 8];
        for (slot, class) in out.iter_mut().zip(KERNEL_CLASSES) {
            *slot = (class, cs[class as usize].get());
        }
        out
    })
}

/// Reset this thread's kernel iteration counters (total and per-class) to
/// zero.
pub fn reset_kernel_iterations() {
    KERNEL_ITERS.with(|c| c.set(0));
    CLASS_ITERS.with(|cs| {
        for c in cs {
            c.set(0);
        }
    });
}

/// Record one sweep (update kernel or measurement reduction) that the fork
/// rule handed to the pool instead of running inline.
#[inline]
pub(crate) fn record_forked_sweep() {
    FORKED_SWEEPS.with(|c| c.set(c.get() + 1));
}

/// Sweeps issued from this thread that were work-shared over a pool
/// (`parallel_for` / ordered reduce) rather than run inline, over the
/// thread's lifetime — take a difference around the region of interest.
/// Thread-local like the iteration counters, so concurrently running tests
/// cannot disturb it. This is what pins the fork rule
/// (`StateVector`'s module docs): a small register must read 0 here.
pub fn forked_sweeps() -> u64 {
    FORKED_SWEEPS.with(Cell::get)
}

// Compile-cache hit/miss counters. Unlike the kernel iteration counters
// these are **process-global atomics**: compilations are rare (once per
// circuit structure, not per shot or per amplitude) so contention is nil,
// and cache lookups issued from pool worker threads must still be visible
// to the test/bench thread reading the ratio.
use std::sync::atomic::{AtomicU64, Ordering};

static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn record_cache_hit() {
    CACHE_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn record_cache_miss() {
    CACHE_MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide compile-cache hits since the last
/// [`reset_compile_cache_stats`] — lookups that found a structurally equal
/// template and skipped lowering.
pub fn compile_cache_hits() -> u64 {
    CACHE_HITS.load(Ordering::Relaxed)
}

/// Process-wide compile-cache misses since the last
/// [`reset_compile_cache_stats`] — lookups that had to build a template.
pub fn compile_cache_misses() -> u64 {
    CACHE_MISSES.load(Ordering::Relaxed)
}

/// Zero the compile-cache hit/miss counters (they are process-global;
/// tests touching them serialize through the cache's own lock or run
/// single-threaded assertions on deltas).
pub fn reset_compile_cache_stats() {
    CACHE_HITS.store(0, Ordering::Relaxed);
    CACHE_MISSES.store(0, Ordering::Relaxed);
}

/// Number of amplitude-shard jobs submitted to the pool. Kernel sweeps
/// are never sharded — each one forks over the pool or runs inline — so
/// this is always `0`. Kept for stats readers that still report the
/// counter.
pub fn shard_jobs_launched() -> u64 {
    0
}

/// Number of sharded pair sweeps whose stride spanned a shard. Kernel
/// sweeps are never sharded, so this is always `0`. Kept for stats readers
/// that still report the counter.
pub fn shard_exchange_steps() -> u64 {
    0
}

// Shot-plan counter. One ShotPlan execution = one call into the batched
// scheduler core; process-global like the cache counters so plans issued
// from worker threads (e.g. grouped Pauli estimation inside an objective
// evaluation) are visible to the asserting thread. Backing the grouped-VQE
// "one plan per commuting group" test in `qcor-algos`.

static SHOT_PLANS: AtomicU64 = AtomicU64::new(0);

pub(crate) fn record_shot_plan() {
    SHOT_PLANS.fetch_add(1, Ordering::Relaxed);
}

/// Process-wide number of shot plans executed by the batched scheduler
/// since the last [`reset_shot_plan_stats`] (empty plans — zero shots —
/// are not counted).
pub fn shot_plans_issued() -> u64 {
    SHOT_PLANS.load(Ordering::Relaxed)
}

/// Zero the shot-plan counter.
pub fn reset_shot_plan_stats() {
    SHOT_PLANS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        reset_kernel_iterations();
        record_iterations(KernelClass::Dense, 3);
        record_iterations(KernelClass::Flip, 4);
        assert_eq!(kernel_iterations(), 7);
        reset_kernel_iterations();
        record_iterations(KernelClass::Dense, 1);
        assert_eq!(kernel_iterations(), 1);
    }

    #[test]
    fn counter_is_thread_local() {
        reset_kernel_iterations();
        record_iterations(KernelClass::Dense2, 5);
        let other = std::thread::spawn(kernel_iterations).join().unwrap();
        assert_eq!(other, 0, "another thread's counter must be independent");
        assert_eq!(kernel_iterations(), 5);
    }

    #[test]
    fn per_class_buckets_partition_the_total() {
        reset_kernel_iterations();
        record_iterations(KernelClass::Dense, 2);
        record_iterations(KernelClass::Dense2, 8);
        record_iterations(KernelClass::Dense2, 8);
        record_iterations(KernelClass::Swap, 1);
        assert_eq!(kernel_class_iterations(KernelClass::Dense2), 16);
        assert_eq!(kernel_class_iterations(KernelClass::Swap), 1);
        assert_eq!(kernel_class_iterations(KernelClass::Phase), 0);
        let breakdown = kernel_iteration_breakdown();
        let sum: u64 = breakdown.iter().map(|&(_, n)| n).sum();
        assert_eq!(sum, kernel_iterations());
        assert_eq!(breakdown[1], (KernelClass::Dense2, 16));
    }

    #[test]
    fn labels_are_stable_and_distinct() {
        let labels: Vec<_> = KERNEL_CLASSES.iter().map(|c| c.label()).collect();
        assert_eq!(labels, ["dense", "dense2", "flip", "diag", "phase", "swap", "scale", "perm"]);
    }
}
