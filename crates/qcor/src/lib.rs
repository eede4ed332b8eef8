//! # qcor — the user-facing facade
//!
//! This crate is the `qcor::` namespace that application code, the
//! examples, and the integration tests import — the Rust analogue of the
//! single `qcor` C++ namespace in the paper. It contains no logic of its
//! own: everything is re-exported from the layer crates
//!
//! ```text
//! qcor-pool → qcor-sim / qcor-circuit → qcor-xacc → qcor-pauli → qcor-core → qcor
//! ```
//!
//! The paper's Bell kernel (Listing 4) through this facade:
//!
//! ```
//! use qcor::{initialize, qalloc, InitOptions, Kernel};
//!
//! initialize(InitOptions::default().threads(1)).unwrap();
//! let q = qalloc(2);
//! let bell = Kernel::from_xasm(
//!     "__qpu__ void bell(qreg q) {
//!          H(q[0]); CX(q[0], q[1]);
//!          for (int i = 0; i < q.size(); i++) { Measure(q[i]); }
//!      }",
//!     2,
//! )
//! .unwrap();
//! bell.invoke(&q, &[]).unwrap();
//! assert_eq!(q.total_shots(), 1024);
//! ```

// The runtime API: initialize / initialize_legacy_shared, qalloc, QReg,
// Kernel, QPUManager (+ RoutingPolicy multi-backend routing, load-weighted
// under capability policies), spawn / async_task / submit and the
// ExecutionService behind them (bounded kernel queue that blocks the
// submitter when full, per-tenant round robin keyed by set_thread_tenant,
// work-conserving in-task joins, TaskFuture::cancel with cooperative
// mid-execution stop, and live introspection via
// ExecutionService::introspect / QCOR_DEBUG_ENDPOINT), execute /
// execute_with, objective functions, optimizers, and QcorError.
pub use qcor_core::*;

// Kernel-language and circuit tooling, addressable as `qcor::xasm::…`
// just like the `qcor::` JIT utilities in the paper's listings.
pub use qcor_circuit::{draw, library, passes, qasm, xasm};
pub use qcor_circuit::{Circuit, CircuitError, GateKind, Instruction, ParamCircuit};

// The accelerator service registry (XACC's `getAccelerator` analogue) and
// its error type, for code that registers custom backends.
pub use qcor_xacc::{registry, XaccError};

// The threading substrate, exposed for advanced users who tune pool sizes
// the way the paper tunes OMP_NUM_THREADS.
pub use qcor_pool::{available_parallelism, num_threads_from_env, PoolBuilder, Schedule, ThreadPool};

// The simulator's batched shot scheduler: one execution core,
// `ShotPlan::execute`, partitions a shot loop into chunks sized by cost
// (or `RunConfig::chunk_shots`) and runs them on a shared pool, with
// per-chunk derived RNG streams (fixed `(seed, tasks, chunk_shots)` ⇒
// byte-identical merged counts). Exposed for programs that drive the
// simulator directly or tune chunking.
pub use qcor_sim as sim;
pub use qcor_sim::{run_shots, Counts, RunConfig, ShotPlan};

// Cooperative cancellation: task code polls `cancel_requested()` at its
// own safe points; the shot scheduler checks between chunk jobs
// (`ShotPlan::execute` with a `CancelToken`, reporting a `ShotRun`), so a
// cancelled sweep stops at the next chunk boundary with the completed
// prefix's exact counts.
pub use qcor_sim::{cancel_requested, CancelToken, ShotRun};

// Compile-then-execute: a `CompiledCircuit` lowers a circuit once into
// fused kernel ops (precomputed matrices, merged phase sweeps, two-qubit
// block fusion, control-aware kernels) and replays it per shot. Every
// executor compiles through the structural compile cache.
pub use qcor_sim::{CompiledCircuit, KernelOp};

// Noise-model execution. `compile_noisy` lowers a circuit plus a
// `NoiseModel` once into fused kernel ops interleaved with channel ops;
// the exact density path replays them as superoperator sweeps
// (`DensityMatrix` implements `ApplyState`, the primitive-kernel surface
// compiled replay dispatches to) while `run_noisy_shots` samples
// trajectories through the same `ShotPlan::execute` as the pure-state
// executor, so seeded noisy counts are byte-identical on any pool size.
// The `qpp-noisy` backend always samples trajectories; the `qpp-density`
// backend runs the exact evolution of the same noise params.
pub use qcor_sim::{
    apply_readout_error, compile_noisy, run_noisy_shots, ApplyState, DensityMatrix, NoiseModel,
    NoisyCompiled, NoisyOp,
};

// Grouped Pauli measurement: `pauli::grouping::group_qubit_wise`
// partitions a Hamiltonian into qubit-wise-commuting measurement groups
// and `pauli::expectation::estimate_with` estimates ⟨H⟩ with exactly one
// circuit execution — one batched ShotPlan — per group rather than one
// per term. The sampled objective strategy (`strategy = "sampled"`) and
// `qcor_algos::vqe::sampled_energy` ride on it.
pub use qcor_pauli as pauli;
pub use qcor_pauli::{Pauli, PauliString, PauliSum};
