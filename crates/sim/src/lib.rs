//! # qcor-sim — parallel state-vector quantum circuit simulator
//!
//! The Quantum++ analogue of this reproduction: a from-scratch state-vector
//! simulator whose amplitude loops are work-shared over a
//! [`qcor_pool::ThreadPool`] the way Quantum++'s loops are work-shared by
//! OpenMP. The pool's thread count plays the role of `OMP_NUM_THREADS` in
//! the paper's evaluation (§VI): a kernel simulated "with N threads" is a
//! [`StateVector`] whose pool has team size N. Unlike OpenMP's pragmas the
//! work-sharing is cost-ruled: a sweep forks only when each thread's share
//! reaches [`FORK_MIN_BYTES_PER_THREAD`] (`par_threshold = 1` restores
//! fork-on-every-loop).
//!
//! * [`Complex64`] — in-tree complex arithmetic,
//! * [`StateVector`] — amplitudes plus primitive update kernels
//!   (control-aware: controlled kernels enumerate only the indices their
//!   control masks select),
//! * [`gates`] — gate matrices and instruction dispatch,
//! * [`compile`] — the compile-then-execute layer: [`CompiledCircuit`]
//!   lowers a circuit once into fused, precomputed kernel ops, and
//!   [`CompiledTemplate`] lowers a circuit *structure* once so an angle
//!   sweep only re-binds parameters,
//! * [`cache`] — the process-wide compile cache keyed by structural
//!   circuit hash (capacity `QCOR_COMPILE_CACHE_CAPACITY`),
//! * [`executor`] — the batched shot scheduler: one execution core,
//!   [`ShotPlan::execute`], behind [`run_shots`] and [`run_noisy_shots`];
//!   counts and exact distributions,
//! * [`apply`] — the [`ApplyState`] trait: the primitive-kernel surface
//!   compiled replay dispatches to, implemented by pure states directly
//!   and by [`DensityMatrix`] as superoperator (ket + conjugated bra)
//!   sweeps,
//! * [`noise`] — noise-channel lowering ([`compile_noisy`]) shared by the
//!   exact density replay and the trajectory sampler,
//! * [`stats`] — per-thread kernel iteration and forked-sweep counters
//!   (the former backing the kernel and fusion tests, the latter the fork
//!   rule's tests) and the process-global compile-cache hit/miss counters.

pub mod apply;
pub mod cache;
pub mod cancel;
pub mod compile;
mod complex;
pub mod density;
pub mod executor;
pub mod gates;
pub mod noise;
mod state;
pub mod stats;

pub use apply::ApplyState;
pub use cache::{clear_compile_cache, compile_cached};
pub use cancel::{cancel_requested, set_thread_cancel_token, thread_cancel_token, CancelToken};
pub use compile::{terminal_suffix, CompiledCircuit, CompiledTemplate, KernelOp};
pub use complex::{c64, Complex64};
pub use density::{DensityMatrix, NoiseModel};
pub use executor::{
    derive_stream_seed, exact_distribution, run_noisy_shots, run_once, run_once_interpreted, run_shots,
    Counts, RunConfig, ShotPlan, ShotRecord, ShotRun,
};
pub use noise::{apply_readout_error, compile_noisy, NoisyCompiled, NoisyOp};
pub use state::{StateVector, FORK_MIN_BYTES_PER_THREAD};
