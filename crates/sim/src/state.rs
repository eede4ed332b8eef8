//! The state vector and its (optionally parallel) update kernels.
//!
//! A [`StateVector`] stores the 2^n amplitudes of an n-qubit register and
//! exposes the primitive updates gates compile to: single-qubit matrix
//! application with an arbitrary control mask, conditional phase rotation,
//! (controlled) swaps, controlled classical permutations, measurement and
//! reset.
//!
//! Every kernel loops over amplitude indices; when the state's
//! [`ThreadPool`] has more than one thread the loop *may* be work-shared over
//! the pool, as Quantum++'s OpenMP pragmas work-share its amplitude loops.
//! This is the paper's "inner simulator level parallelism".
//!
//! # When a sweep forks
//!
//! Unlike Quantum++, whose pragmas fork unconditionally, every sweep passes
//! through one cost rule in the dispatch funnel (`dispatch` for the update
//! kernels, `reduce` for the measurement sums): it goes to the pool only
//! when the bytes it touches — compressed iteration count × bytes per
//! iteration of its kernel class — divided over the team reach
//! [`FORK_MIN_BYTES_PER_THREAD`]; otherwise it runs inline on the caller.
//! The per-index arithmetic is the same closure either way and every write
//! is owned by exactly one iteration, so inline and forked sweeps are
//! bit-identical. An 11-qubit Shor register (32 KiB) therefore never forks,
//! a 20-qubit state always does, and a controlled sweep over a mid-size
//! state forks only while its *compressed* range is still worth splitting.
//! [`StateVector::set_par_threshold`] overrides the floor per state; `1`
//! restores Quantum++'s unconditional forking, the setting under which the
//! paper's evaluation (§VI-A) observes the fork/join overhead of
//! oversubscribing a small kernel with threads.
//!
//! # Control-aware index enumeration
//!
//! Unlike Quantum++ (and our earlier port of it), controlled kernels do not
//! scan all indices and branch-skip the ones whose control bits are unset.
//! Instead they enumerate exactly the indices that satisfy the control
//! mask: a compressed loop counter `k` stands for the index with the fixed
//! bits (controls = 1, cleared bits = 0) inserted at their sorted
//! positions ([`BitInserts`]). A kernel with `c` control bits therefore
//! executes `2^(n-1-c)` loop iterations instead of `2^(n-1)` — a CX does
//! half the iterations of an H, a CCX a quarter — and the loop body is
//! branch-free. The executed iteration counts are reported to
//! [`crate::stats`], which is what the kernel tests assert on.
//!
//! The same enumeration serves the measurement sweeps:
//! [`StateVector::collapse`] visits the pairs with the measured bit clear,
//! and [`StateVector::prob_one`] sums only the indices with it set.
//! Measurement reductions (`prob_one`, `norm_sqr`) fold fixed-size chunks
//! of the full index space in a fixed order via
//! [`ThreadPool::parallel_reduce_ordered`], so their sums are bit-identical
//! on any pool size — the inner-parallel path no longer depends on
//! floating-point fold order.
//!
//! # Loop shape and memory layout
//!
//! A chunk of counters is expanded **once**, at its first counter; the
//! rest of the chunk is walked as maximal unit-stride runs
//! ([`BitInserts::runs`]). Between the fixed bits an index counts like an
//! integer, so a run is `2^z` consecutive indices for the lowest fixed bit
//! `z` (the whole chunk when no bit is fixed), and the next run starts at
//! the O(1) masked successor `(((i | fixed) + 1) & !fixed) | ones` of the
//! last index `i` (Warren, *Hacker's Delight*, ch. 2): the carry ripples
//! through the fixed bits, which are then restored. That visits the same
//! indices in the same order as expanding every counter, with no per-index
//! loop over the fixed bits, and the inner loops are unit-stride, so the
//! compiler can autovectorize them and the prefetcher can stream them.
//! Each kernel's arithmetic is written once, as a sweep over
//! `(amplitudes, runs)` in [`sweep`]: the [`StateVector`] kernels run it
//! per dispatch chunk, cache-blocked replay over a whole block.
//!
//! Amplitudes are stored interleaved (`re, im` pairs — AoS). Timed against
//! the alternatives on an uncontrolled dense layer over 2^20 amplitudes
//! (1 logical CPU, best of 5), a split re/im (SoA) sweep took 1.055× and a
//! per-iteration-expand AoS sweep 1.051× the contiguous-run AoS sweep, so
//! the interleaved layout is kept — it is also what keeps `amplitudes()`
//! zero-copy.
//!
//! # Cache-blocked replay
//!
//! For large states the dominant cost is streaming the full vector through
//! the cache hierarchy once per gate. [`StateVector::for_each_block`]
//! partitions the amplitude array into contiguous cache-sized blocks and
//! hands each block to a closure exactly once (work-shared over the pool),
//! letting the compiled executor apply an entire run of block-local fused
//! kernels while each block is L2-resident — the state streams through
//! memory once per *run*, not once per gate.

#[cfg(test)]
use crate::complex::c64;
use crate::complex::Complex64;
use crate::stats::KernelClass;
use qcor_pool::ThreadPool;
use rand::Rng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Raw pointer to the amplitude buffer, shared across pool workers.
///
/// SAFETY invariant: every kernel that uses this wrapper writes each index
/// from exactly one chunk (indices are partitioned by `parallel_for`), so
/// no two threads alias a write.
#[derive(Clone, Copy)]
pub(crate) struct AmpsPtr(*mut Complex64);
unsafe impl Send for AmpsPtr {}
unsafe impl Sync for AmpsPtr {}

impl AmpsPtr {
    /// The start of `amps`, for a sweep over that buffer.
    pub(crate) fn new(amps: &mut [Complex64]) -> Self {
        AmpsPtr(amps.as_mut_ptr())
    }

    /// SAFETY: caller guarantees `i` is in bounds and not concurrently
    /// written by another thread.
    #[inline]
    unsafe fn at(self, i: usize) -> &'static mut Complex64 {
        unsafe { &mut *self.0.add(i) }
    }

    /// SAFETY: caller guarantees `start..start + len` is in bounds and not
    /// concurrently accessed by another thread.
    #[inline]
    unsafe fn slice(self, start: usize, len: usize) -> &'static mut [Complex64] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

/// Bit insertion: maps a compressed loop counter to a full basis index by
/// inserting fixed bits at their positions.
///
/// `ones_mask` positions are inserted as 1 (control bits), `zeros_mask`
/// positions as 0 (the target bit of a pair loop, or cleared-control bits).
/// The counters `0..len >> (ones + zeros).count_ones()` stand for exactly
/// the indices with those bits fixed — no scan, no branch. The mapping is
/// injective and increasing, so parallel chunks of counters never alias a
/// write. A sweep walks its chunk with [`BitInserts::runs`]: one
/// [`BitInserts::expand`] for the chunk's first counter, then unit-stride
/// runs joined by the O(1) masked successor. Two words, so building one
/// per kernel invocation (or per measurement) costs nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BitInserts {
    /// `ones_mask | zeros_mask`.
    fixed: usize,
    ones: usize,
}

/// The indices of a counter range as maximal unit-stride runs, ascending;
/// see [`BitInserts::runs`].
pub(crate) struct Runs {
    /// First index of the next run.
    next: usize,
    /// Counters not yet yielded.
    left: usize,
    /// The bits below the lowest fixed bit (all bits when none is fixed):
    /// inside a run they count like an integer.
    free_low: usize,
    fixed: usize,
    ones: usize,
}

impl Iterator for Runs {
    type Item = Range<usize>;

    #[inline]
    fn next(&mut self) -> Option<Range<usize>> {
        if self.left == 0 {
            return None;
        }
        let start = self.next;
        // The run ends where the free low bits wrap, or at the range end.
        let len = (self.free_low - (start & self.free_low)).min(self.left - 1) + 1;
        self.left -= len;
        // Masked successor of the run's last index: the carry out of the
        // free bits ripples through the fixed ones, which are then restored.
        let last = start + len - 1;
        self.next = ((last | self.fixed).wrapping_add(1) & !self.fixed) | self.ones;
        Some(start..start + len)
    }
}

impl Runs {
    /// Call `f` on every index of every run, ascending — the one loop
    /// every masked sweep runs.
    #[inline(always)]
    pub(crate) fn each(self, mut f: impl FnMut(usize)) {
        for run in self {
            run.for_each(&mut f);
        }
    }
}

impl BitInserts {
    pub(crate) fn new(ones_mask: usize, zeros_mask: usize) -> Self {
        debug_assert_eq!(ones_mask & zeros_mask, 0, "a bit cannot be fixed to both 0 and 1");
        BitInserts { fixed: ones_mask | zeros_mask, ones: ones_mask }
    }

    /// The counters `0..amps >> fixed.count_ones()` that cover a state (or
    /// block) of `amps` amplitudes.
    pub(crate) fn all(&self, amps: usize) -> Range<usize> {
        0..amps >> self.fixed.count_ones()
    }

    /// The index counter `k` stands for: the fixed bits inserted lowest
    /// first (each position is absolute in the expanded index, which is
    /// why ascending order is correct).
    #[inline]
    pub(crate) fn expand(&self, mut k: usize) -> usize {
        let mut rest = self.fixed;
        while rest != 0 {
            let bit = rest & rest.wrapping_neg();
            k = ((k & !(bit - 1)) << 1) | (self.ones & bit) | (k & (bit - 1));
            rest &= rest - 1;
        }
        k
    }

    /// The indices of the counters in `range`, ascending, as maximal
    /// unit-stride runs: `2^tz(fixed)` indices each (fewer at the range
    /// ends; the whole range when no bit is fixed). Only `range.start` is
    /// expanded; every later run starts at the masked successor
    /// `(((i | fixed) + 1) & !fixed) | ones` of the previous run's last
    /// index `i` (Warren, *Hacker's Delight*, ch. 2).
    #[inline]
    pub(crate) fn runs(&self, range: Range<usize>) -> Runs {
        let free_low =
            if self.fixed == 0 { usize::MAX } else { (self.fixed & self.fixed.wrapping_neg()) - 1 };
        Runs {
            next: if range.is_empty() { 0 } else { self.expand(range.start) },
            left: range.len(),
            free_low,
            fixed: self.fixed,
            ones: self.ones,
        }
    }
}

/// The masked sweeps: each kernel's per-index arithmetic, written once,
/// over the indices of `runs` (see [`BitInserts::runs`]). The
/// [`StateVector`] kernels run them per dispatch chunk; cache-blocked
/// replay (`compile.rs`) runs them over a whole block.
///
/// # Safety
///
/// For every sweep: `p` addresses a buffer holding every index the sweep
/// reaches from `runs` (each index and its partners, `| stride`,
/// `| s0 | s1` or `^ flip`), and no other thread touches those indices
/// while it runs. Distinct counters reach disjoint index sets, so runs of
/// disjoint counter ranges may be swept concurrently.
pub(crate) mod sweep {
    use super::{AmpsPtr, Runs};
    use crate::complex::Complex64;

    /// Dense 2×2 `m` on the pairs `(i, i | stride)`.
    ///
    /// # Safety
    /// The module contract.
    pub(crate) unsafe fn dense(p: AmpsPtr, runs: Runs, stride: usize, m: &[[Complex64; 2]; 2]) {
        runs.each(|i| {
            let j = i | stride;
            // SAFETY: the module contract covers `i` and `j`.
            unsafe {
                let (a, b) = (*p.at(i), *p.at(j));
                *p.at(i) = m[0][0] * a + m[0][1] * b;
                *p.at(j) = m[1][0] * a + m[1][1] * b;
            }
        });
    }

    /// Dense 4×4 `m` on the quads based at `i` (pair-basis index
    /// `s = bit(s1) << 1 | bit(s0)`).
    ///
    /// # Safety
    /// The module contract.
    pub(crate) unsafe fn quad(p: AmpsPtr, runs: Runs, s0: usize, s1: usize, m: &[[Complex64; 4]; 4]) {
        runs.each(|i00| {
            let idx = [i00, i00 | s0, i00 | s1, i00 | s0 | s1];
            // SAFETY: the module contract covers the quad.
            unsafe {
                let a = idx.map(|i| *p.at(i));
                for (r, &i) in idx.iter().enumerate() {
                    *p.at(i) = m[r][0] * a[0] + m[r][1] * a[1] + m[r][2] * a[2] + m[r][3] * a[3];
                }
            }
        });
    }

    /// Anti-diagonal `[[0, m01], [m10, 0]]` on the pairs `(i, i | stride)`;
    /// a pure bit flip (both entries 1) exchanges them without multiplies.
    ///
    /// # Safety
    /// The module contract.
    pub(crate) unsafe fn antidiag(p: AmpsPtr, runs: Runs, stride: usize, m01: Complex64, m10: Complex64) {
        if m01 == Complex64::ONE && m10 == Complex64::ONE {
            // SAFETY: forwarded from the caller; `i ^ stride == i | stride`.
            return unsafe { swap(p, runs, stride) };
        }
        runs.each(|i| {
            let j = i | stride;
            // SAFETY: the module contract covers `i` and `j`.
            unsafe {
                let (a, b) = (*p.at(i), *p.at(j));
                *p.at(i) = m01 * b;
                *p.at(j) = m10 * a;
            }
        });
    }

    /// `diag(d0, d1)` on the pairs `(i, i | stride)`.
    ///
    /// # Safety
    /// The module contract.
    pub(crate) unsafe fn diag(p: AmpsPtr, runs: Runs, stride: usize, d0: Complex64, d1: Complex64) {
        runs.each(|i| {
            // SAFETY: the module contract covers `i` and `i | stride`.
            unsafe {
                *p.at(i) *= d0;
                *p.at(i | stride) *= d1;
            }
        });
    }

    /// Multiply every reached amplitude by `z` (phases and global scale).
    ///
    /// # Safety
    /// The module contract.
    pub(crate) unsafe fn mul(p: AmpsPtr, runs: Runs, z: Complex64) {
        // SAFETY: the module contract covers `i`.
        runs.each(|i| unsafe { *p.at(i) *= z });
    }

    /// Exchange the amplitudes `i` and `i ^ flip`.
    ///
    /// # Safety
    /// The module contract.
    pub(crate) unsafe fn swap(p: AmpsPtr, runs: Runs, flip: usize) {
        // SAFETY: the module contract covers `i` and `i ^ flip`.
        runs.each(|i| unsafe { std::ptr::swap(p.at(i), p.at(i ^ flip)) });
    }
}

/// Bytes of one amplitude — the unit the fork rule prices sweeps in. A
/// kernel passes `dispatch` the bytes one of its loop iterations touches:
/// `AMP_BYTES` for the per-index kernels (phase, scale, permutation,
/// collapse, reset, the reductions), `2 * AMP_BYTES` for the pair kernels
/// (dense, flip, diag, swap), `4 * AMP_BYTES` for the quad kernel, a whole
/// block for cache-blocked replay.
const AMP_BYTES: usize = std::mem::size_of::<Complex64>();

/// The fork floor: a sweep is work-shared over the pool only when every
/// team member's share of it is at least this many bytes; otherwise it
/// runs inline on the caller, with bit-identical arithmetic. A sweep's size
/// is its compressed iteration count (control bits already factored out)
/// times the 16-byte amplitudes one iteration touches — so an uncontrolled
/// sweep weighs exactly the state's size and each control bit halves it.
/// [`StateVector::set_par_threshold`] overrides the floor per state.
///
/// Derivation, from the probes `benchmark -- trace` takes on the 2-CPU
/// reference host (`shor_seq`, seed 1, parent of this rule):
///
/// * one fork/join on the 2-thread pool costs
///   `pool.parallel_for_2048_us` = 31.8 µs (a futex wake and park of the
///   second team member; it does not shrink with the loop);
/// * an inline sweep streams `sim.replay_us_per_shot` = 1176 µs for
///   `sim.kernel_iters` = 374 784 iterations (3.1 ns each) which, priced by
///   class as `dispatch` prices them, touch 8.73 MB: 7.4 B/ns.
///   (Since masked sweeps step over unit-stride runs, the same 10 s trace
///   reads 1637 µs, 4.4 ns per iteration, against 2759 µs, 7.4 ns, for the
///   per-index-expand sweeps on the same, slower host. The floor below is
///   not yet re-derived from that rate.)
///
/// Splitting `W` bytes over `T` threads saves `W·(1 − 1/T)/rate` and costs
/// one fork/join, so on the smallest team (`T = 2`) it breaks even when a
/// member's share `W/2` takes as long as the fork/join: 31.8 µs × 7.4 B/ns
/// = 236 KB. The floor is the next power of two, 256 KiB. Timing forced
/// against inline sweeps on that host agrees: at a 128 KiB share the forked
/// dense sweep loses (28.7 → 37.5 µs), at 256 KiB it is about even (dense
/// 59.9 → 66.5 µs, controlled dense 86 → 69 µs), at 512 KiB it wins
/// 1.2–1.4×; at the 16 KiB share of an 11-qubit Shor register it costs 9×
/// (3.5 → 31 µs), which is what inverted fig4. A larger team pays more per
/// fork/join but also saves more per byte; pricing the *share* rather than
/// the total keeps one constant for both.
///
/// The shot plan's inner-parallel floor (`INNER_PAR_MIN_AMPS`) is
/// expressed through this constant, so the plan and the kernels cannot
/// disagree about which states are worth inner parallelism.
pub const FORK_MIN_BYTES_PER_THREAD: usize = 1 << 18;

/// Smallest state (in amplitudes) any of whose sweeps fork under the
/// default floor: an uncontrolled sweep on the smallest team that can fork
/// (two threads). 2^15 amplitudes = 512 KiB. [`crate::ShotPlan`] stops
/// shot-chunking exactly here — below it no kernel would use the pool that
/// a one-chunk run's state holds, so shots must carry the parallelism. (The plan is pool-size-independent by contract, so it is
/// stated for two threads; a wider team needs a proportionally larger
/// state before its full-width sweeps fork.)
pub(crate) const INNER_PAR_MIN_AMPS: usize = 2 * FORK_MIN_BYTES_PER_THREAD / AMP_BYTES;

/// The total sweep bytes at which a state on `pool` starts forking, given
/// the per-thread floor: `usize::MAX` (never) on a team of one, so the
/// check in `dispatch` / `reduce` is a single comparison.
fn fork_min_bytes(pool: &ThreadPool, per_thread: usize) -> usize {
    let team = pool.num_threads();
    if team > 1 {
        per_thread.saturating_mul(team)
    } else {
        usize::MAX
    }
}

/// An n-qubit pure state.
///
/// Bit convention is little-endian: basis index `i` assigns qubit `q` the
/// bit `(i >> q) & 1`.
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex64>,
    pool: Arc<ThreadPool>,
    /// Sweeps touching at least this many bytes fork (see
    /// [`fork_min_bytes`]); fixed per `(pool, par_threshold)`.
    fork_min_bytes: usize,
    /// Reusable destination buffer for permutation kernels, allocated on
    /// first use and kept for the lifetime of the state so repeated
    /// `apply_controlled_permutation` calls (Shor's modular exponentiation)
    /// perform zero steady-state allocations.
    scratch: Vec<Complex64>,
    /// How many times `scratch` has been (re)allocated — asserted by the
    /// zero-steady-state-allocation tests.
    scratch_allocs: usize,
}

impl std::fmt::Debug for StateVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateVector")
            .field("num_qubits", &self.num_qubits)
            .field("pool_threads", &self.pool.num_threads())
            .finish()
    }
}

impl StateVector {
    /// |0...0⟩ on `num_qubits` qubits, simulated sequentially.
    pub fn new(num_qubits: usize) -> Self {
        Self::with_pool(num_qubits, ThreadPool::sequential())
    }

    /// |0...0⟩ with amplitude loops work-shared over `pool`.
    pub fn with_pool(num_qubits: usize, pool: Arc<ThreadPool>) -> Self {
        assert!(num_qubits <= 30, "state vector of {num_qubits} qubits will not fit in memory");
        let mut amps = vec![Complex64::ZERO; 1usize << num_qubits];
        amps[0] = Complex64::ONE;
        StateVector {
            num_qubits,
            amps,
            fork_min_bytes: fork_min_bytes(&pool, FORK_MIN_BYTES_PER_THREAD),
            pool,
            scratch: Vec::new(),
            scratch_allocs: 0,
        }
    }

    /// Construct from explicit amplitudes (must have power-of-two length and
    /// unit norm up to `1e-9`).
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        assert!(amps.len().is_power_of_two() && !amps.is_empty(), "length must be a power of two");
        let n = amps.len().trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-9, "state must be normalized (got norm² = {norm})");
        StateVector {
            num_qubits: n,
            amps,
            pool: ThreadPool::sequential(),
            fork_min_bytes: usize::MAX,
            scratch: Vec::new(),
            scratch_allocs: 0,
        }
    }

    /// Construct from raw amplitudes (no unit-norm check — a density
    /// matrix's vec(ρ) is not a unit vector mid-Kraus-sum), inheriting
    /// this state's pool and dispatch configuration — so a Kraus branch
    /// built from a pooled density matrix keeps work-sharing its sweeps
    /// instead of silently dropping to the sequential pool.
    pub(crate) fn raw_with_amplitudes_like(&self, amps: Vec<Complex64>) -> Self {
        assert!(amps.len().is_power_of_two() && !amps.is_empty());
        let n = amps.len().trailing_zeros() as usize;
        StateVector {
            num_qubits: n,
            amps,
            pool: Arc::clone(&self.pool),
            fork_min_bytes: self.fork_min_bytes,
            scratch: Vec::new(),
            scratch_allocs: 0,
        }
    }

    /// Reset to |0...0⟩ without reallocating.
    pub fn reset_to_zero(&mut self) {
        let ptr = AmpsPtr::new(&mut self.amps);
        self.dispatch(self.amps.len(), AMP_BYTES, |range| {
            for i in range {
                // SAFETY: disjoint indices per chunk.
                unsafe { *ptr.at(i) = Complex64::ZERO };
            }
        });
        self.amps[0] = Complex64::ONE;
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of amplitudes (2^n).
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Always false — a state vector has at least one amplitude.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The amplitudes, basis-index order.
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Amplitude of basis state `i`.
    pub fn amp(&self, i: usize) -> Complex64 {
        self.amps[i]
    }

    /// The thread pool used by the kernels.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Override the fork floor for this state: the minimum bytes of a
    /// sweep each team member must receive before the sweep is work-shared
    /// over the pool (default [`FORK_MIN_BYTES_PER_THREAD`], which states
    /// the rule and its derivation). `1` forks every sweep on a
    /// multi-thread pool — Quantum++'s unconditional OpenMP work-sharing,
    /// and what the forked-vs-sequential equivalence tests set so that a
    /// small register actually exercises the pool. Amplitudes and seeded
    /// counts do not depend on the value.
    pub fn set_par_threshold(&mut self, bytes_per_thread: usize) {
        self.fork_min_bytes = fork_min_bytes(&self.pool, bytes_per_thread.max(1));
    }

    /// The fork rule: does a sweep of `len` iterations touching
    /// `iter_bytes` each reach the state's fork floor?
    #[inline]
    fn forks(&self, len: usize, iter_bytes: usize) -> bool {
        len.saturating_mul(iter_bytes) >= self.fork_min_bytes
    }

    /// Work-share `f` over `0..len` when the sweep's `len * iter_bytes`
    /// bytes reach the state's fork floor, else run it inline.
    #[inline]
    fn dispatch<F: Fn(Range<usize>) + Sync>(&self, len: usize, iter_bytes: usize, f: F) {
        if self.forks(len, iter_bytes) {
            crate::stats::record_forked_sweep();
            self.pool.parallel_for(0..len, f);
        } else {
            f(0..len);
        }
    }

    /// Fixed chunk size of the ordered measurement reductions. The
    /// partition is a pure function of the loop length (never the pool
    /// size), so reduction sums are bit-identical on any team — see
    /// [`ThreadPool::parallel_reduce_ordered`].
    const REDUCE_GRAIN: usize = 1 << 12;

    /// Sum a per-index quantity over `0..len` with a **fixed** chunk
    /// partition and fold order: work-shared under the same fork rule as
    /// `dispatch` (one amplitude read per index), but bit-identical
    /// regardless of pool size, scheduling or whether it forked.
    #[inline]
    fn reduce<F: Fn(Range<usize>) -> f64 + Sync>(&self, len: usize, f: F) -> f64 {
        if self.forks(len, AMP_BYTES) {
            crate::stats::record_forked_sweep();
            return self.pool.parallel_reduce_ordered(0..len, Self::REDUCE_GRAIN, 0.0, f, |a, b| a + b);
        }
        // Same partition, evaluated inline in chunk order.
        (0..len)
            .step_by(Self::REDUCE_GRAIN)
            .map(|lo| f(lo..(lo + Self::REDUCE_GRAIN).min(len)))
            .fold(0.0, |a, b| a + b)
    }

    /// Record `class`'s iterations and run `sweep` over every counter of
    /// `ins` on this state's amplitudes, forked or inline under the fork
    /// rule (`iter_bytes` per counter).
    #[inline]
    fn masked<F>(&mut self, class: KernelClass, ins: BitInserts, iter_bytes: usize, sweep: F)
    where
        F: Fn(AmpsPtr, Runs) + Sync,
    {
        let counters = ins.all(self.amps.len());
        crate::stats::record_iterations(class, counters.len());
        let p = AmpsPtr::new(&mut self.amps);
        self.dispatch(counters.len(), iter_bytes, |range| sweep(p, ins.runs(range)));
    }

    /// Apply a single-qubit matrix `m` (row-major `[[m00,m01],[m10,m11]]`) to
    /// qubit `t`, restricted to basis states where every bit of
    /// `ctrl_mask` is set (`ctrl_mask` must not include bit `t`; 0 means
    /// no controls).
    ///
    /// Control-aware: only the `2^(n-1-c)` amplitude pairs satisfying the
    /// `c` control bits are visited (no scan-and-skip).
    pub fn apply_single(&mut self, t: usize, m: [[Complex64; 2]; 2], ctrl_mask: usize) {
        debug_assert!(t < self.num_qubits);
        debug_assert_eq!(ctrl_mask & (1 << t), 0, "control mask must exclude the target");
        let stride = 1usize << t;
        // SAFETY: `masked` hands each chunk a disjoint range of counters
        // whose pairs lie inside this state.
        self.masked(
            KernelClass::Dense,
            BitInserts::new(ctrl_mask, stride),
            2 * AMP_BYTES,
            |p, runs| unsafe { sweep::dense(p, runs, stride, &m) },
        );
    }

    /// Apply a two-qubit matrix `m` (row-major, basis index
    /// `s = bit(t1) << 1 | bit(t0)`) to the qubit pair `(t0, t1)` with
    /// `t0 < t1`, restricted to basis states where every bit of
    /// `ctrl_mask` is set (`ctrl_mask` must not include either pair bit).
    ///
    /// This is the replay kernel of a fused [`crate::KernelOp::Dense2`]
    /// block: one sweep visiting `2^(n-2-c)` amplitude quads, instead of
    /// one full sweep per fused gate. Like every other kernel it builds
    /// its `BitInserts` inline — zero steady-state allocations.
    pub fn apply_pair(&mut self, t0: usize, t1: usize, m: &[[Complex64; 4]; 4], ctrl_mask: usize) {
        assert!(t0 < t1, "pair must be ordered low-to-high");
        debug_assert!(t1 < self.num_qubits);
        debug_assert_eq!(ctrl_mask & ((1 << t0) | (1 << t1)), 0, "control mask must exclude the pair");
        let (s0, s1) = (1usize << t0, 1usize << t1);
        // SAFETY: as in `apply_single`, for quads.
        self.masked(
            KernelClass::Dense2,
            BitInserts::new(ctrl_mask, s0 | s1),
            4 * AMP_BYTES,
            |p, runs| unsafe { sweep::quad(p, runs, s0, s1, m) },
        );
    }

    /// Apply the anti-diagonal matrix [[0, m01], [m10, 0]] to qubit `t`
    /// under `ctrl_mask` — the branch-free specialization backing X / CX /
    /// CCX (and Y up to its phases): each visited pair is exchanged with
    /// two multiplies instead of a full 2×2 apply (zero multiplies for a
    /// pure bit flip).
    pub fn apply_antidiag(&mut self, t: usize, m01: Complex64, m10: Complex64, ctrl_mask: usize) {
        debug_assert!(t < self.num_qubits);
        debug_assert_eq!(ctrl_mask & (1 << t), 0, "control mask must exclude the target");
        let stride = 1usize << t;
        // SAFETY: as in `apply_single`.
        self.masked(KernelClass::Flip, BitInserts::new(ctrl_mask, stride), 2 * AMP_BYTES, |p, runs| unsafe {
            sweep::antidiag(p, runs, stride, m01, m10)
        });
    }

    /// Apply the diagonal matrix diag(d0, d1) to qubit `t` under
    /// `ctrl_mask`: visited pairs multiply their |0⟩ amplitude by `d0` and
    /// their |1⟩ amplitude by `d1`, branch-free.
    pub fn apply_diag(&mut self, t: usize, d0: Complex64, d1: Complex64, ctrl_mask: usize) {
        debug_assert!(t < self.num_qubits);
        debug_assert_eq!(ctrl_mask & (1 << t), 0, "control mask must exclude the target");
        let stride = 1usize << t;
        // SAFETY: as in `apply_single`.
        self.masked(KernelClass::Diag, BitInserts::new(ctrl_mask, stride), 2 * AMP_BYTES, |p, runs| unsafe {
            sweep::diag(p, runs, stride, d0, d1)
        });
    }

    /// Multiply amplitudes by e^{iθ} on basis states where all bits of
    /// `set_mask` are 1 and all bits of `clear_mask` are 0.
    pub fn phase_where(&mut self, set_mask: usize, clear_mask: usize, theta: f64) {
        self.mul_where(set_mask, clear_mask, Complex64::from_polar_unit(theta));
    }

    /// Multiply amplitudes by `z` on basis states where all bits of
    /// `set_mask` are 1 and all bits of `clear_mask` are 0 — the phase
    /// kernel behind every diagonal gate, control-aware: only the
    /// `2^(n-s-c)` matching indices are visited.
    pub fn mul_where(&mut self, set_mask: usize, clear_mask: usize, z: Complex64) {
        debug_assert_eq!(set_mask & clear_mask, 0);
        // SAFETY: as in `apply_single`, for single indices.
        self.masked(KernelClass::Phase, BitInserts::new(set_mask, clear_mask), AMP_BYTES, |p, runs| unsafe {
            sweep::mul(p, runs, z)
        });
    }

    /// Multiply every amplitude by `z` (used for the global phase of Rz).
    pub fn scale_all(&mut self, z: Complex64) {
        // SAFETY: as in `mul_where`.
        self.masked(KernelClass::Scale, BitInserts::new(0, 0), AMP_BYTES, |p, runs| unsafe {
            sweep::mul(p, runs, z)
        });
    }

    /// Swap qubits `a` and `b`, restricted to basis states where
    /// `ctrl_mask` bits are all set (0 = unconditional).
    ///
    /// Control-aware: enumerates only the `2^(n-2-c)` indices with
    /// `a = 1`, `b = 0` and every control bit set — each swapped pair is
    /// visited exactly once from its (a=1, b=0) side.
    pub fn apply_swap(&mut self, a: usize, b: usize, ctrl_mask: usize) {
        assert_ne!(a, b, "swap requires distinct qubits");
        debug_assert_eq!(ctrl_mask & ((1 << a) | (1 << b)), 0);
        let (bit_a, bit_b) = (1usize << a, 1usize << b);
        // SAFETY: as in `apply_single`; each pair is reached once, from its
        // a=1, b=0 side.
        self.masked(
            KernelClass::Swap,
            BitInserts::new(ctrl_mask | bit_a, bit_b),
            2 * AMP_BYTES,
            |p, runs| unsafe { sweep::swap(p, runs, bit_a | bit_b) },
        );
    }

    /// Apply the classical bijection `perm` to the value encoded (little-
    /// endian) in `targets`, restricted to basis states where `ctrl_mask`
    /// bits are set. `perm` must have length `2^targets.len()` and be a
    /// bijection.
    pub fn apply_controlled_permutation(&mut self, ctrl_mask: usize, targets: &[usize], perm: &[usize]) {
        assert_eq!(perm.len(), 1usize << targets.len(), "permutation table size mismatch");
        // Invert the permutation so each destination pulls from its source.
        let mut inv = vec![usize::MAX; perm.len()];
        for (x, &y) in perm.iter().enumerate() {
            assert!(y < perm.len() && inv[y] == usize::MAX, "perm is not a bijection");
            inv[y] = x;
        }
        self.apply_permutation_with_inverse(ctrl_mask, targets, &inv);
    }

    /// [`StateVector::apply_controlled_permutation`] with the inverse
    /// permutation already computed — the replay path of a compiled
    /// circuit, which inverts the table once at compile time instead of
    /// allocating and inverting on every shot.
    ///
    /// Uses the state's reusable scratch buffer as the destination, so
    /// repeated calls perform **zero steady-state allocations**, and
    /// enumerates only the control-satisfying indices (everything else is
    /// a bulk copy).
    pub fn apply_permutation_with_inverse(&mut self, ctrl_mask: usize, targets: &[usize], inv: &[usize]) {
        assert_eq!(inv.len(), 1usize << targets.len(), "permutation table size mismatch");
        if self.scratch.len() != self.amps.len() {
            self.scratch = vec![Complex64::ZERO; self.amps.len()];
            self.scratch_allocs += 1;
        }
        if ctrl_mask != 0 {
            // Indices failing the controls keep their amplitude.
            self.scratch.copy_from_slice(&self.amps);
        }
        let ins = BitInserts::new(ctrl_mask, 0);
        let counters = ins.all(self.amps.len());
        crate::stats::record_iterations(KernelClass::Perm, counters.len());
        let out = AmpsPtr::new(&mut self.scratch);
        let amps = &self.amps;
        let src_of = |i: usize| -> usize {
            let mut x = 0usize;
            for (pos, &q) in targets.iter().enumerate() {
                x |= ((i >> q) & 1) << pos;
            }
            let sx = inv[x];
            let mut j = i;
            for (pos, &q) in targets.iter().enumerate() {
                j = (j & !(1 << q)) | (((sx >> pos) & 1) << q);
            }
            j
        };
        self.dispatch(counters.len(), AMP_BYTES, |range| {
            // SAFETY: each output index is written from one counter only;
            // reads are shared.
            ins.runs(range).each(|i| unsafe { *out.at(i) = amps[src_of(i)] });
        });
        std::mem::swap(&mut self.amps, &mut self.scratch);
    }

    /// How many times the permutation scratch buffer has been allocated
    /// over this state's lifetime (1 after any number of permutation calls
    /// = zero steady-state allocations).
    pub fn scratch_allocations(&self) -> usize {
        self.scratch_allocs
    }

    /// Partition the amplitude array into contiguous blocks of
    /// `1 << block_qubits` amplitudes and run `f` on each block exactly
    /// once, work-shared over the pool.
    ///
    /// This is the cache-blocked replay primitive: the compiled executor
    /// applies an entire run of block-local kernels (every support bit
    /// below `block_qubits`) to each block while it is cache-resident.
    /// Blocks are disjoint `&mut` slices, and block-local kernels cannot
    /// read or write across a block boundary, so the result is
    /// bit-identical to applying the same kernels to the full state one at
    /// a time — only the traversal order (and the cache behavior) changes.
    ///
    /// `block_qubits` must not exceed the register size.
    pub(crate) fn for_each_block<F: Fn(&mut [Complex64]) + Sync>(&mut self, block_qubits: usize, f: F) {
        let block_len = 1usize << block_qubits;
        assert!(block_len <= self.amps.len(), "block larger than the state");
        let blocks = self.amps.len() >> block_qubits;
        let ptr = AmpsPtr::new(&mut self.amps);
        self.dispatch(blocks, block_len * AMP_BYTES, |range| {
            for b in range {
                // SAFETY: blocks are disjoint across b values and `f` is
                // handed each block exactly once, so no two threads alias.
                let block = unsafe { ptr.slice(b << block_qubits, block_len) };
                f(block);
            }
        });
    }

    /// Probability of measuring |1⟩ on qubit `q`.
    pub fn prob_one(&self, q: usize) -> f64 {
        let bit = 1usize << q;
        let ins = BitInserts::new(bit, 0);
        // Counters of the set-bit indices below `x`: each full `2·bit`
        // period holds `bit` of them. A chunk of the full index space thus
        // sums its own set-bit indices, in ascending order.
        let below = |x: usize| ((x >> 1) & !(bit - 1)) + (x & (2 * bit - 1)).saturating_sub(bit);
        let amps = &self.amps;
        self.reduce(self.amps.len(), |range| {
            let mut acc = 0.0;
            ins.runs(below(range.start)..below(range.end)).each(|i| acc += amps[i].norm_sqr());
            acc
        })
    }

    /// Sample a basis index from the state's |amp|² distribution with one
    /// uniform draw `u ∈ [0, 1)`: the first index whose running |amp|² sum
    /// exceeds `u · total`.
    ///
    /// The search walks the fixed `REDUCE_GRAIN` partition the measurement
    /// reductions use: each block's sum is one in-order fold (the blocks
    /// forked over the pool or run inline under the fork rule), the walk
    /// visits the sums in order, and only the chosen block is scanned index
    /// by index. So the result is bit-identical on any pool size and fork
    /// floor, and it is never an index of zero probability (a scan that
    /// rounding carries past the block's end returns the block's last
    /// non-zero index).
    pub fn sample_index(&self, u: f64) -> usize {
        debug_assert!((0.0..1.0).contains(&u), "u = {u} outside [0, 1)");
        let amps = &self.amps;
        let len = amps.len();
        let grain = Self::REDUCE_GRAIN;
        let block = |b: usize| b * grain..((b + 1) * grain).min(len);
        let weight = |range: Range<usize>| range.fold(0.0, |acc, i| acc + amps[i].norm_sqr());
        let blocks = len.div_ceil(grain);
        // Forked, the block sums are gathered once, each written in place
        // by the worker that folds it: workers allocate nothing, since a
        // worker's first allocation binds it to an allocator arena of its
        // own, which made `deep20`'s peak RSS jump by 16 MiB between runs.
        // Inline, each sum is recomputed where the walk needs it (same
        // fold, same value).
        let sums = self.forks(len, AMP_BYTES).then(|| {
            crate::stats::record_forked_sweep();
            let sums: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(0)).collect();
            self.pool.parallel_for(0..blocks, |range| {
                for b in range {
                    sums[b].store(weight(block(b)).to_bits(), Ordering::Relaxed);
                }
            });
            sums.into_iter().map(|sum| f64::from_bits(sum.into_inner())).collect::<Vec<_>>()
        });
        let block_sum = |b: usize| sums.as_ref().map_or_else(|| weight(block(b)), |s| s[b]);
        let target = u * (0..blocks).map(block_sum).fold(0.0, |a, b| a + b);
        let mut below = 0.0;
        for b in 0..blocks {
            let sum = block_sum(b);
            if below + sum > target {
                let mut last = None;
                for i in block(b).filter(|&i| amps[i].norm_sqr() > 0.0) {
                    below += amps[i].norm_sqr();
                    if below > target {
                        return i;
                    }
                    last = Some(i);
                }
                return last.expect("a block of positive weight holds a non-zero amplitude");
            }
            below += sum;
        }
        // Rounding can leave `u · total` at `total`: take the last index
        // of non-zero probability.
        (0..len).rev().find(|&i| amps[i].norm_sqr() > 0.0).expect("cannot sample the zero vector")
    }

    /// Probability distribution over all basis states (|amp|²).
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Measure qubit `q` in the computational basis: samples an outcome,
    /// collapses the state, renormalizes, and returns the outcome bit.
    pub fn measure(&mut self, q: usize, rng: &mut impl Rng) -> u8 {
        let p1 = self.prob_one(q).clamp(0.0, 1.0);
        let outcome = if rng.gen::<f64>() < p1 { 1u8 } else { 0u8 };
        self.collapse(q, outcome, if outcome == 1 { p1 } else { 1.0 - p1 });
        outcome
    }

    /// Project qubit `q` onto `outcome` (which must have probability
    /// `prob > 0`) and renormalize.
    pub fn collapse(&mut self, q: usize, outcome: u8, prob: f64) {
        assert!(prob > 0.0, "cannot collapse onto a zero-probability outcome");
        let bit = 1usize << q;
        // Visit the pairs `(i, i | bit)` once each: one side is kept and
        // rescaled, the other zeroed.
        let (keep, drop) = if outcome == 1 { (bit, 0) } else { (0, bit) };
        let scale = 1.0 / prob.sqrt();
        let ins = BitInserts::new(0, bit);
        let pairs = ins.all(self.amps.len());
        let p = AmpsPtr::new(&mut self.amps);
        self.dispatch(pairs.len(), 2 * AMP_BYTES, |range| {
            // SAFETY: disjoint pairs per chunk, inside the state.
            ins.runs(range).each(|i| unsafe {
                *p.at(i | keep) = p.at(i | keep).scale(scale);
                *p.at(i | drop) = Complex64::ZERO;
            });
        });
    }

    /// Reset qubit `q` to |0⟩ (measure and flip if needed).
    pub fn reset(&mut self, q: usize, rng: &mut impl Rng) {
        if self.measure(q, rng) == 1 {
            // X on qubit q
            self.apply_swap_bitflip(q);
        }
    }

    /// Apply X to qubit `q` by index pairing (internal fast path for reset).
    fn apply_swap_bitflip(&mut self, q: usize) {
        self.apply_antidiag(q, Complex64::ONE, Complex64::ONE, 0);
    }

    /// ⟨self|other⟩.
    pub fn inner_product(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.len(), other.len());
        let mut acc = Complex64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// Squared overlap |⟨self|other⟩|².
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Σ|amp|² (should stay 1 under unitary evolution).
    pub fn norm_sqr(&self) -> f64 {
        let amps = &self.amps;
        self.reduce(self.amps.len(), |range| range.map(|i| amps[i].norm_sqr()).sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn h_matrix() -> [[Complex64; 2]; 2] {
        let s = c64(FRAC_1_SQRT_2, 0.0);
        [[s, s], [s, -s]]
    }

    #[test]
    fn initial_state_is_all_zero() {
        let sv = StateVector::new(3);
        assert_eq!(sv.len(), 8);
        assert_eq!(sv.amp(0), Complex64::ONE);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_gives_uniform_superposition() {
        let mut sv = StateVector::new(1);
        sv.apply_single(0, h_matrix(), 0);
        assert!(sv.amp(0).approx_eq(c64(FRAC_1_SQRT_2, 0.0), 1e-12));
        assert!(sv.amp(1).approx_eq(c64(FRAC_1_SQRT_2, 0.0), 1e-12));
    }

    #[test]
    fn bell_state_via_h_and_controlled_x() {
        let mut sv = StateVector::new(2);
        sv.apply_single(0, h_matrix(), 0);
        let x = [[Complex64::ZERO, Complex64::ONE], [Complex64::ONE, Complex64::ZERO]];
        sv.apply_single(1, x, 1 << 0); // CX control q0 target q1
        assert!(sv.amp(0b00).approx_eq(c64(FRAC_1_SQRT_2, 0.0), 1e-12));
        assert!(sv.amp(0b11).approx_eq(c64(FRAC_1_SQRT_2, 0.0), 1e-12));
        assert!(sv.amp(0b01).approx_eq(Complex64::ZERO, 1e-12));
        assert!(sv.amp(0b10).approx_eq(Complex64::ZERO, 1e-12));
    }

    #[test]
    fn phase_where_applies_to_selected_states() {
        let mut sv =
            StateVector::from_amplitudes(vec![c64(0.5, 0.0), c64(0.5, 0.0), c64(0.5, 0.0), c64(0.5, 0.0)]);
        sv.phase_where(0b11, 0, std::f64::consts::PI); // CZ
        assert!(sv.amp(0b11).approx_eq(c64(-0.5, 0.0), 1e-12));
        assert!(sv.amp(0b01).approx_eq(c64(0.5, 0.0), 1e-12));
    }

    #[test]
    fn swap_exchanges_bits() {
        let mut sv = StateVector::new(2);
        let x = [[Complex64::ZERO, Complex64::ONE], [Complex64::ONE, Complex64::ZERO]];
        sv.apply_single(0, x, 0); // |01⟩ (q0=1)
        sv.apply_swap(0, 1, 0);
        assert!(sv.amp(0b10).approx_eq(Complex64::ONE, 1e-12)); // q1=1
    }

    #[test]
    fn controlled_permutation_maps_values() {
        // 2 target qubits encode x ∈ {0..3}; perm = +1 mod 4; no controls.
        let mut sv = StateVector::new(2);
        let perm: Vec<usize> = (0..4).map(|x| (x + 1) % 4).collect();
        sv.apply_controlled_permutation(0, &[0, 1], &perm);
        assert!(sv.amp(1).approx_eq(Complex64::ONE, 1e-12)); // 0 → 1
    }

    #[test]
    fn controlled_permutation_respects_control() {
        // Control qubit 2 is |0⟩: nothing moves.
        let mut sv = StateVector::new(3);
        let perm: Vec<usize> = (0..4).map(|x| (x + 1) % 4).collect();
        sv.apply_controlled_permutation(1 << 2, &[0, 1], &perm);
        assert!(sv.amp(0).approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn measure_collapses_and_normalizes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sv = StateVector::new(2);
        sv.apply_single(0, h_matrix(), 0);
        let x = [[Complex64::ZERO, Complex64::ONE], [Complex64::ONE, Complex64::ZERO]];
        sv.apply_single(1, x, 1); // Bell
        let m0 = sv.measure(0, &mut rng);
        let m1 = sv.measure(1, &mut rng);
        assert_eq!(m0, m1, "Bell state measurements must correlate");
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measurement_statistics_match_probabilities() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut ones = 0;
        for _ in 0..2000 {
            let mut sv = StateVector::new(1);
            sv.apply_single(0, h_matrix(), 0);
            ones += sv.measure(0, &mut rng) as usize;
        }
        let frac = ones as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "measured {frac}");
    }

    /// A normalized state with weight `w[i]` on index `i` of `len`, zero
    /// elsewhere.
    fn weighted(len: usize, weights: &[(usize, f64)]) -> StateVector {
        let total: f64 = weights.iter().map(|&(_, w)| w).sum();
        let mut amps = vec![Complex64::ZERO; len];
        for &(i, w) in weights {
            amps[i] = c64((w / total).sqrt(), 0.0);
        }
        StateVector::from_amplitudes(amps)
    }

    #[test]
    fn sample_index_never_returns_a_zero_probability_index() {
        let bell = weighted(4, &[(0, 1.0), (3, 1.0)]);
        let ghz4 = weighted(16, &[(0, 1.0), (15, 1.0)]);
        // Two REDUCE_GRAIN blocks: weight inside the first one only, so the
        // state's whole trailing block (and the first block's tail) is zero.
        let trailing = weighted(1 << 13, &[(3, 0.2), (7, 0.5), (4000, 0.3)]);
        // And the mirror: zero leading block, weight in the last one.
        let leading = weighted(1 << 13, &[(5000, 0.6), (8190, 0.4)]);
        let last = 1.0 - f64::EPSILON;
        for (label, state, first, final_index) in [
            ("bell", &bell, 0, 3),
            ("ghz4", &ghz4, 0, 15),
            ("trailing", &trailing, 3, 4000),
            ("leading", &leading, 5000, 8190),
        ] {
            assert_eq!(state.sample_index(0.0), first, "{label}: u = 0");
            assert_eq!(state.sample_index(last), final_index, "{label}: u = 1 - ε");
            for k in 0..1000 {
                let i = state.sample_index(k as f64 / 1000.0);
                assert!(state.amp(i).norm_sqr() > 0.0, "{label}: u = {k}/1000 sampled zero-probability {i}");
            }
        }
        // The running sum picks each index over a u-interval of its own
        // probability's width.
        assert_eq!(bell.sample_index(0.499), 0);
        assert_eq!(bell.sample_index(0.501), 3);
        assert_eq!(trailing.sample_index(0.199), 3);
        assert_eq!(trailing.sample_index(0.201), 7);
        assert_eq!(trailing.sample_index(0.701), 4000);
    }

    #[test]
    fn reset_forces_zero() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let mut sv = StateVector::new(1);
            sv.apply_single(0, h_matrix(), 0);
            sv.reset(0, &mut rng);
            assert!(sv.amp(1).approx_eq(Complex64::ZERO, 1e-12));
            assert!(sv.amp(0).norm_sqr() > 0.999);
        }
    }

    #[test]
    fn parallel_pool_matches_sequential() {
        let mut seq = StateVector::new(6);
        let mut par = forking_state();
        let forked_before = crate::stats::forked_sweeps();
        // A layered random-ish circuit applied to both.
        for q in 0..6 {
            seq.apply_single(q, h_matrix(), 0);
            par.apply_single(q, h_matrix(), 0);
        }
        for q in 0..5 {
            let x = [[Complex64::ZERO, Complex64::ONE], [Complex64::ONE, Complex64::ZERO]];
            seq.apply_single(q + 1, x, 1 << q);
            par.apply_single(q + 1, x, 1 << q);
            seq.phase_where((1 << q) | (1 << (q + 1)), 0, 0.3 * (q as f64 + 1.0));
            par.phase_where((1 << q) | (1 << (q + 1)), 0, 0.3 * (q as f64 + 1.0));
        }
        assert_eq!(crate::stats::forked_sweeps() - forked_before, 16, "every pooled sweep must fork");
        assert_eq!(seq.amplitudes(), par.amplitudes());
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut a = StateVector::new(3);
        let mut b = StateVector::new(3);
        a.apply_single(1, h_matrix(), 0);
        b.apply_single(1, h_matrix(), 0);
        assert!((a.fidelity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reset_to_zero_reuses_buffer() {
        let mut sv = StateVector::new(4);
        sv.apply_single(2, h_matrix(), 0);
        sv.reset_to_zero();
        assert_eq!(sv.amp(0), Complex64::ONE);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn bad_permutation_panics() {
        let mut sv = StateVector::new(2);
        sv.apply_controlled_permutation(0, &[0, 1], &[0, 0, 1, 2]);
    }

    // ---- control-aware enumeration vs the old scan-and-skip kernels ----
    //
    // Reference implementations of the pre-PR-4 kernels: scan every index
    // (or pair) and branch-skip the ones failing the control mask. Every
    // masked kernel must produce bit-identical amplitudes, inline and on a
    // pool that forks every sweep.

    fn insert_zero_at(k: usize, t: usize) -> usize {
        let low = (1usize << t) - 1;
        ((k & !low) << 1) | (k & low)
    }

    /// The pairs `(i, i | 1 << t)` whose `i` satisfies `ctrl`, in scan order.
    fn scan_pairs(len: usize, t: usize, ctrl: usize) -> impl Iterator<Item = (usize, usize)> {
        (0..len / 2)
            .map(move |k| insert_zero_at(k, t))
            .filter(move |i| i & ctrl == ctrl)
            .map(move |i| (i, i | 1 << t))
    }

    fn scan_apply_single(amps: &mut [Complex64], t: usize, m: [[Complex64; 2]; 2], ctrl: usize) {
        for (i, j) in scan_pairs(amps.len(), t, ctrl) {
            let (a, b) = (amps[i], amps[j]);
            amps[i] = m[0][0] * a + m[0][1] * b;
            amps[j] = m[1][0] * a + m[1][1] * b;
        }
    }

    fn scan_antidiag(amps: &mut [Complex64], t: usize, m01: Complex64, m10: Complex64, ctrl: usize) {
        for (i, j) in scan_pairs(amps.len(), t, ctrl) {
            let (a, b) = (amps[i], amps[j]);
            amps[i] = m01 * b;
            amps[j] = m10 * a;
        }
    }

    fn scan_diag(amps: &mut [Complex64], t: usize, d0: Complex64, d1: Complex64, ctrl: usize) {
        for (i, j) in scan_pairs(amps.len(), t, ctrl) {
            amps[i] *= d0;
            amps[j] *= d1;
        }
    }

    fn scan_mul_where(amps: &mut [Complex64], set: usize, clear: usize, z: Complex64) {
        for (i, amp) in amps.iter_mut().enumerate() {
            if i & set == set && i & clear == 0 {
                *amp *= z;
            }
        }
    }

    fn scan_swap(amps: &mut [Complex64], a: usize, b: usize, ctrl: usize) {
        let (bit_a, bit_b) = (1usize << a, 1usize << b);
        for i in 0..amps.len() {
            if i & bit_a != 0 && i & bit_b == 0 && i & ctrl == ctrl {
                amps.swap(i, i ^ bit_a ^ bit_b);
            }
        }
    }

    fn scan_permutation(amps: &mut [Complex64], ctrl: usize, targets: &[usize], perm: &[usize]) {
        let old = amps.to_vec();
        for (i, src) in old.iter().enumerate() {
            if i & ctrl == ctrl {
                let x: usize = targets.iter().enumerate().map(|(pos, &q)| ((i >> q) & 1) << pos).sum();
                let y = perm[x];
                let j = targets
                    .iter()
                    .enumerate()
                    .fold(i, |j, (pos, &q)| (j & !(1 << q)) | ((y >> pos) & 1) << q);
                amps[j] = *src;
            }
        }
    }

    fn scan_collapse(amps: &mut [Complex64], q: usize, outcome: u8, prob: f64) {
        let scale = 1.0 / prob.sqrt();
        for (i, amp) in amps.iter_mut().enumerate() {
            *amp = if (i >> q) as u8 & 1 == outcome { amp.scale(scale) } else { Complex64::ZERO };
        }
    }

    /// A 6-qubit state on a 4-thread pool that forks every sweep — the
    /// default floor would run a register this small inline and the
    /// forked-vs-sequential comparisons below would compare nothing. Its
    /// chunks are a single counter or a few, so they split unit-stride runs.
    fn forking_state() -> StateVector {
        forking_state_of(6)
    }

    fn forking_state_of(num_qubits: usize) -> StateVector {
        let mut par = StateVector::with_pool(num_qubits, Arc::new(ThreadPool::new(4)));
        par.set_par_threshold(1);
        par
    }

    /// Drive `sv` to a deterministic non-trivial state.
    fn scramble(mut sv: StateVector) -> StateVector {
        let n = sv.num_qubits();
        for q in 0..n {
            sv.apply_single(q, h_matrix(), 0);
            sv.phase_where(1 << q, 0, 0.17 * (q as f64 + 1.0));
        }
        for q in 0..n - 1 {
            let x = [[Complex64::ZERO, Complex64::ONE], [Complex64::ONE, Complex64::ZERO]];
            sv.apply_single(q + 1, x, 1 << q);
        }
        sv
    }

    /// A deterministic non-trivial 6-qubit state to run kernels against.
    fn scrambled_state() -> StateVector {
        scramble(StateVector::new(6))
    }

    fn assert_bits_eq(expect: &[Complex64], got: &[Complex64], label: &str) {
        for (i, (e, g)) in expect.iter().zip(got).enumerate() {
            assert_eq!(e.re.to_bits(), g.re.to_bits(), "{label}: re of amplitude {i}");
            assert_eq!(e.im.to_bits(), g.im.to_bits(), "{label}: im of amplitude {i}");
        }
    }

    /// `kernel` on the scrambled state must leave exactly the amplitudes
    /// `reference` leaves, inline and forked.
    fn assert_matches_scan(
        label: &str,
        reference: impl Fn(&mut [Complex64]),
        kernel: impl Fn(&mut StateVector),
    ) {
        let mut expect = scrambled_state().amplitudes().to_vec();
        reference(&mut expect);
        let mut inline = scrambled_state();
        kernel(&mut inline);
        assert_bits_eq(&expect, inline.amplitudes(), &format!("{label}, inline"));
        let mut forked = scramble(forking_state());
        let forked_before = crate::stats::forked_sweeps();
        kernel(&mut forked);
        assert!(crate::stats::forked_sweeps() > forked_before, "{label}: the pooled sweep must fork");
        assert_bits_eq(&expect, forked.amplitudes(), &format!("{label}, forked"));
    }

    /// Control masks for a target at qubit 2: none, one, two on both sides
    /// of it, three on both sides, two above it only.
    const CTRLS_AROUND_2: [usize; 5] =
        [0, 1 << 0, (1 << 0) | (1 << 4), (1 << 1) | (1 << 3) | (1 << 5), 0b110000];

    #[test]
    fn control_aware_single_matches_scan_and_skip() {
        let u = [[c64(0.6, 0.0), c64(0.0, 0.8)], [c64(0.0, 0.8), c64(0.6, 0.0)]];
        for ctrl in CTRLS_AROUND_2 {
            assert_matches_scan(
                &format!("dense ctrl={ctrl:#b}"),
                |amps| scan_apply_single(amps, 2, u, ctrl),
                |sv| sv.apply_single(2, u, ctrl),
            );
        }
    }

    #[test]
    fn control_aware_antidiag_and_diag_match_scan_and_skip() {
        let (a, b) = (Complex64::from_polar_unit(0.3), Complex64::from_polar_unit(-1.1));
        for ctrl in CTRLS_AROUND_2 {
            for (m01, m10) in [(Complex64::ONE, Complex64::ONE), (a, b)] {
                assert_matches_scan(
                    &format!("antidiag ctrl={ctrl:#b} m01={m01}"),
                    |amps| scan_antidiag(amps, 2, m01, m10, ctrl),
                    |sv| sv.apply_antidiag(2, m01, m10, ctrl),
                );
            }
            assert_matches_scan(
                &format!("diag ctrl={ctrl:#b}"),
                |amps| scan_diag(amps, 2, a, b, ctrl),
                |sv| sv.apply_diag(2, a, b, ctrl),
            );
        }
    }

    #[test]
    fn control_aware_mul_where_matches_scan_and_skip() {
        let z = Complex64::from_polar_unit(1.234);
        for (set, clear) in [
            (1usize << 1, 0usize),
            ((1 << 0) | (1 << 3), 1 << 5),
            (0, (1 << 2) | (1 << 4)),
            ((1 << 2) | (1 << 5), (1 << 0) | (1 << 3)),
            (0b110000, 0b1000),
        ] {
            assert_matches_scan(
                &format!("mul_where set={set:#b} clear={clear:#b}"),
                |amps| scan_mul_where(amps, set, clear, z),
                |sv| sv.mul_where(set, clear, z),
            );
        }
        assert_matches_scan("scale_all", |amps| scan_mul_where(amps, 0, 0, z), |sv| sv.scale_all(z));
    }

    #[test]
    fn control_aware_swap_matches_scan_and_skip() {
        for (a, b, ctrl) in [
            (0usize, 3usize, 0usize),
            (0, 3, 1 << 2),
            (0, 3, (1 << 2) | (1 << 5)),
            (4, 1, (1 << 0) | (1 << 5)),
            (2, 3, 0b110000),
        ] {
            assert_matches_scan(
                &format!("swap {a}<->{b} ctrl={ctrl:#b}"),
                |amps| scan_swap(amps, a, b, ctrl),
                |sv| sv.apply_swap(a, b, ctrl),
            );
        }
    }

    #[test]
    fn control_aware_permutation_matches_scan_and_skip() {
        let perm: Vec<usize> = (0..8).map(|x| (x * 3 + 1) % 8).collect();
        for (targets, ctrl) in
            [([1usize, 2, 3], 0usize), ([1, 2, 3], (1 << 0) | (1 << 5)), ([0, 2, 5], 0b10010)]
        {
            assert_matches_scan(
                &format!("permutation {targets:?} ctrl={ctrl:#b}"),
                |amps| scan_permutation(amps, ctrl, &targets, &perm),
                |sv| sv.apply_controlled_permutation(ctrl, &targets, &perm),
            );
        }
    }

    #[test]
    fn collapse_matches_scan_and_skip() {
        for q in [0usize, 3, 5] {
            for outcome in [0u8, 1] {
                let prob = 0.3 + 0.1 * q as f64;
                assert_matches_scan(
                    &format!("collapse q={q} outcome={outcome}"),
                    |amps| scan_collapse(amps, q, outcome, prob),
                    |sv| sv.collapse(q, outcome, prob),
                );
            }
        }
    }

    #[test]
    fn prob_one_sums_like_the_chunked_scan() {
        // Four reduce chunks: a low qubit has set bits inside every chunk,
        // a high one sets whole chunks, and for the top qubit a chunk starts
        // half-way through its set half.
        let n = 14;
        // Uneven magnitudes, so a sum regrouped across chunks rounds
        // differently (the scrambled state's are all equal, hence exact).
        let uneven = |mut sv: StateVector| {
            for q in 0..n {
                let (c, s) = ((0.3 + 0.1 * q as f64).cos(), (0.3 + 0.1 * q as f64).sin());
                sv.apply_single(q, [[c64(c, 0.0), c64(-s, 0.0)], [c64(s, 0.0), c64(c, 0.0)]], 0);
            }
            sv
        };
        let inline = uneven(scramble(StateVector::new(n)));
        let forked = uneven(scramble(forking_state_of(n)));
        let amps = inline.amplitudes();
        for q in 0..n {
            let expect = (0..amps.len())
                .step_by(StateVector::REDUCE_GRAIN)
                .map(|lo| {
                    let mut acc = 0.0;
                    for (i, a) in amps.iter().enumerate().take(lo + StateVector::REDUCE_GRAIN).skip(lo) {
                        if i & (1 << q) != 0 {
                            acc += a.norm_sqr();
                        }
                    }
                    acc
                })
                .fold(0.0, |a, b| a + b);
            assert_eq!(inline.prob_one(q).to_bits(), expect.to_bits(), "q={q}, inline");
            assert_eq!(forked.prob_one(q).to_bits(), expect.to_bits(), "q={q}, forked");
        }
    }

    #[test]
    fn antidiag_and_diag_kernels_match_dense_apply() {
        // X via the anti-diagonal kernel vs the dense matrix.
        let x = [[Complex64::ZERO, Complex64::ONE], [Complex64::ONE, Complex64::ZERO]];
        let mut a = scrambled_state();
        let mut b = scrambled_state();
        a.apply_single(3, x, 1 << 1);
        b.apply_antidiag(3, Complex64::ONE, Complex64::ONE, 1 << 1);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-15));
        }
        // diag(d0, d1) via the diagonal kernel vs the dense matrix.
        let (d0, d1) = (Complex64::from_polar_unit(-0.4), Complex64::from_polar_unit(0.9));
        let dm = [[d0, Complex64::ZERO], [Complex64::ZERO, d1]];
        let mut a = scrambled_state();
        let mut b = scrambled_state();
        a.apply_single(2, dm, 1 << 4);
        b.apply_diag(2, d0, d1, 1 << 4);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert!(x.approx_eq(*y, 1e-15));
        }
    }

    #[test]
    fn controlled_kernels_iterate_exponentially_less() {
        use crate::stats::{kernel_iterations, reset_kernel_iterations};
        let mut sv = StateVector::new(8);
        let x = [[Complex64::ZERO, Complex64::ONE], [Complex64::ONE, Complex64::ZERO]];
        reset_kernel_iterations();
        sv.apply_single(0, x, 0);
        assert_eq!(kernel_iterations(), 128); // 2^(8-1)
        reset_kernel_iterations();
        sv.apply_single(1, x, 1 << 0); // CX
        assert_eq!(kernel_iterations(), 64); // 2^(8-2)
        reset_kernel_iterations();
        sv.apply_single(2, x, 0b11); // CCX
        assert_eq!(kernel_iterations(), 32); // 2^(8-3)
        reset_kernel_iterations();
        sv.apply_swap(0, 1, 1 << 7); // CSwap
        assert_eq!(kernel_iterations(), 32); // 2^(8-3)
        reset_kernel_iterations();
        sv.mul_where(0b101, 0, Complex64::I);
        assert_eq!(kernel_iterations(), 64); // 2^(8-2)
    }

    #[test]
    fn permutation_scratch_allocates_once() {
        let mut sv = StateVector::new(6);
        let perm: Vec<usize> = (0..16).map(|x| (x + 3) % 16).collect();
        assert_eq!(sv.scratch_allocations(), 0);
        for _ in 0..20 {
            sv.apply_controlled_permutation(1 << 5, &[0, 1, 2, 3], &perm);
        }
        assert_eq!(sv.scratch_allocations(), 1, "steady-state permutations must not allocate");
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn precomputed_inverse_matches_public_permutation() {
        let perm: Vec<usize> = vec![2, 0, 3, 1];
        let mut inv = vec![0usize; 4];
        for (x, &y) in perm.iter().enumerate() {
            inv[y] = x;
        }
        let mut a = scrambled_state();
        let mut b = scrambled_state();
        a.apply_controlled_permutation(1 << 4, &[1, 2], &perm);
        b.apply_permutation_with_inverse(1 << 4, &[1, 2], &inv);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    /// Scan-and-skip reference for the pair kernel: visit every index with
    /// both pair bits clear and the controls satisfied, gather the quad,
    /// apply the 4×4.
    fn scan_apply_pair(amps: &mut [Complex64], t0: usize, t1: usize, m: &[[Complex64; 4]; 4], ctrl: usize) {
        let (s0, s1) = (1usize << t0, 1usize << t1);
        for i00 in 0..amps.len() {
            if i00 & (s0 | s1) != 0 || i00 & ctrl != ctrl {
                continue;
            }
            let idx = [i00, i00 | s0, i00 | s1, i00 | s0 | s1];
            let a = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
            for (r, &i) in idx.iter().enumerate() {
                amps[i] = m[r][0] * a[0] + m[r][1] * a[1] + m[r][2] * a[2] + m[r][3] * a[3];
            }
        }
    }

    fn test_pair_matrix() -> [[Complex64; 4]; 4] {
        // An arbitrary unitary-ish 4×4 (unitarity is irrelevant for the
        // kernel-equivalence check; exact arithmetic equality is what
        // matters).
        let mut m = [[Complex64::ZERO; 4]; 4];
        for (r, row) in m.iter_mut().enumerate() {
            for (c, cell) in row.iter_mut().enumerate() {
                *cell = c64(0.1 + 0.2 * r as f64 - 0.15 * c as f64, 0.05 * (r * 4 + c) as f64);
            }
        }
        m
    }

    #[test]
    fn pair_kernel_matches_scan_and_skip() {
        let m = test_pair_matrix();
        for (t0, t1, ctrl) in [
            (0usize, 1usize, 0usize),
            (2, 4, 0),
            (0, 5, 1 << 2),
            (1, 3, (1 << 0) | (1 << 5)),
            (1, 4, (1 << 0) | (1 << 2) | (1 << 5)),
            (0, 1, 0b110000),
        ] {
            assert_matches_scan(
                &format!("pair t0={t0} t1={t1} ctrl={ctrl:#b}"),
                |amps| scan_apply_pair(amps, t0, t1, &m, ctrl),
                |sv| sv.apply_pair(t0, t1, &m, ctrl),
            );
        }
    }

    #[test]
    fn pair_kernel_parallel_matches_sequential() {
        let m = test_pair_matrix();
        let mut seq = scrambled_state();
        let mut par = scramble(forking_state());
        seq.apply_pair(1, 4, &m, 0);
        let forked_before = crate::stats::forked_sweeps();
        par.apply_pair(1, 4, &m, 0);
        assert_eq!(crate::stats::forked_sweeps() - forked_before, 1, "the pooled pair sweep must fork");
        assert_bits_eq(seq.amplitudes(), par.amplitudes(), "pair");
    }

    #[test]
    fn pair_kernel_iterates_quarter_of_the_state() {
        use crate::stats::{kernel_class_iterations, kernel_iterations, reset_kernel_iterations};
        let m = test_pair_matrix();
        let mut sv = StateVector::new(8);
        reset_kernel_iterations();
        sv.apply_pair(0, 1, &m, 0);
        assert_eq!(kernel_iterations(), 64); // 2^(8-2)
        assert_eq!(kernel_class_iterations(KernelClass::Dense2), 64);
        reset_kernel_iterations();
        sv.apply_pair(2, 5, &m, 1 << 0);
        assert_eq!(kernel_iterations(), 32); // 2^(8-2-1)
        reset_kernel_iterations();
        sv.apply_pair(3, 4, &m, (1 << 0) | (1 << 7));
        assert_eq!(kernel_iterations(), 16); // 2^(8-2-2)
        assert_eq!(kernel_class_iterations(KernelClass::Dense2), 16);
        assert_eq!(kernel_class_iterations(KernelClass::Dense), 0);
    }

    #[test]
    fn for_each_block_covers_every_amplitude_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut sv = scrambled_state();
        let expect: Vec<Complex64> = sv.amplitudes().iter().map(|a| a.scale(2.0)).collect();
        let blocks = AtomicUsize::new(0);
        sv.for_each_block(2, |block| {
            assert_eq!(block.len(), 4);
            blocks.fetch_add(1, Ordering::Relaxed);
            for a in block {
                *a = a.scale(2.0);
            }
        });
        assert_eq!(blocks.load(Ordering::Relaxed), 16);
        for (e, g) in expect.iter().zip(sv.amplitudes()) {
            assert_eq!(e, g);
        }
    }

    #[test]
    fn bit_inserts_enumerate_exactly_the_matching_indices() {
        let ones = (1usize << 1) | (1 << 4);
        let zeros = 1usize << 2;
        let inserts = BitInserts::new(ones, zeros);
        let n = 6;
        let mut seen: Vec<usize> = inserts.all(1 << n).map(|k| inserts.expand(k)).collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..1usize << n).filter(|i| i & ones == ones && i & zeros == 0).collect();
        assert_eq!(seen, expect);
    }

    /// The runs of a counter range, flattened, are the expansions of its
    /// counters; each run is non-empty, no longer than `2^tz(fixed)`, and
    /// maximal (the next run does not continue it).
    fn assert_runs_flatten_to_expand(ones: usize, zeros: usize, range: Range<usize>) {
        let ins = BitInserts::new(ones, zeros);
        let label = format!("ones={ones:#b} zeros={zeros:#b} range={range:?}");
        let runs: Vec<Range<usize>> = ins.runs(range.clone()).collect();
        let fixed = ones | zeros;
        let max_run = if fixed == 0 { usize::MAX } else { fixed & fixed.wrapping_neg() };
        for (i, run) in runs.iter().enumerate() {
            assert!(!run.is_empty() && run.len() <= max_run, "{label}: run {run:?}");
            if let Some(next) = runs.get(i + 1) {
                assert!(next.start > run.end, "{label}: {run:?} then {next:?}");
            }
        }
        let flat: Vec<usize> = runs.into_iter().flatten().collect();
        let expect: Vec<usize> = range.map(|k| ins.expand(k)).collect();
        assert_eq!(flat, expect, "{label}");
    }

    #[test]
    fn bit_inserts_runs_flatten_to_expand() {
        let n = 24;
        let len = |ones: usize, zeros: usize| (1usize << n) >> (ones | zeros).count_ones();
        // No fixed bit (one run), bit 0 fixed (runs of one index), lowest
        // fixed bit above 0; empty ranges, ranges ending at `len`.
        let (hi_ones, hi_zeros) = ((1usize << 5) | (1 << 23), (1usize << 3) | (1 << 12));
        for (ones, zeros) in [(0usize, 0usize), (1, 1 << 7), (1 << 9, 1), (hi_ones, hi_zeros), (0, 1 << 3)] {
            let len = len(ones, zeros);
            for range in [0..0, 17..17, 0..300, 5..len.min(5000), len - 1000..len, len..len] {
                assert_runs_flatten_to_expand(ones, zeros, range);
            }
        }
        let mut rng = StdRng::seed_from_u64(36);
        for _ in 0..300 {
            let (mut ones, mut zeros) = (0usize, 0usize);
            for bit in 0..n {
                match rng.gen_range(0..5) {
                    0 => ones |= 1 << bit,
                    1 => zeros |= 1 << bit,
                    _ => {}
                }
            }
            let len = len(ones, zeros);
            let start = rng.gen_range(0..=len);
            let end = rng.gen_range(start..=len.min(start + 4096));
            assert_runs_flatten_to_expand(ones, zeros, start..end);
        }
    }
}
