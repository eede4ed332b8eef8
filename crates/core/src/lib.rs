//! # qcor — a thread-safe quantum-classical runtime
//!
//! This crate is the Rust reproduction of the paper's primary contribution:
//! user-level multi-threading for the QCOR heterogeneous quantum-classical
//! programming model. It provides the user-facing runtime of paper
//! Listings 1–5 with the two fixes of §V:
//!
//! 1. **Thread-safe user API** — [`qalloc`] registers buffers in a global
//!    table behind a mutex (Listing 6); every public routine here may be
//!    called concurrently from any number of threads.
//! 2. **Increased parallelism** — accelerators are *cloneable* (fresh
//!    instance per [`initialize`] call) and the singleton [`QPUManager`]
//!    maps each OS thread to its own accelerator instance (Listing 8), so
//!    concurrent kernels never share simulator state.
//!
//! Beyond the paper, the runtime scales this shape out: [`spawn`] /
//! [`async_task`] enqueue on a bounded kernel queue drained by a shared
//! pool ([`ExecutionService`]: a full queue blocks the submitter, and
//! tenants are served in round robin), and the [`QPUManager`] routes
//! initializations across registered backends ([`RoutingPolicy`]:
//! pinned, round-robin, or by [`BackendCapability`]).
//!
//! The paper's Bell example (Listing 4) translates directly:
//!
//! ```
//! use qcor::{initialize, qalloc, InitOptions, Kernel};
//!
//! fn foo() {
//!     initialize(InitOptions::default().threads(1)).unwrap();
//!     let q = qalloc(2);
//!     let bell = Kernel::from_xasm(
//!         "__qpu__ void bell(qreg q) {
//!              H(q[0]); CX(q[0], q[1]);
//!              for (int i = 0; i < q.size(); i++) { Measure(q[i]); }
//!          }",
//!         2,
//!     ).unwrap();
//!     bell.invoke(&q, &[]).unwrap();
//!     assert_eq!(q.total_shots(), 1024);
//! }
//!
//! // Two kernels in parallel, each on its own accelerator instance:
//! let t0 = qcor::spawn(foo);
//! let t1 = qcor::spawn(foo);
//! t0.get();
//! t1.get();
//! ```

mod allocation;
mod exec_service;
mod introspect;
mod kernel;
mod objective;
pub mod optim;
mod qpu_manager;
mod runtime;
mod threading;

pub use allocation::{
    allocated_buffer_count, clear_allocated_buffers, find_buffer, qalloc, qalloc_named, QReg,
};
pub use exec_service::{
    set_thread_tenant, thread_tenant, ExecServiceConfig, ExecutionService, ServiceStats, DEFAULT_TENANT,
};
pub use introspect::{DebugServer, ServiceIntrospection, TenantStats};
pub use kernel::Kernel;
pub use objective::{create_objective_function, EvalStrategy, ObjectiveFunction};
pub use optim::{create_optimizer, Optimizer, OptimizerResult};
pub use qpu_manager::{QPUManager, RoutingPolicy};
pub use runtime::{
    current_options, execute, execute_with, initialize, initialize_legacy_shared, InitOptions,
};
pub use threading::{async_task, spawn, TaskFuture};

pub use qcor_xacc::{Accelerator, AcceleratorBuffer, BackendCapability, ExecOptions, HetMap, HetValue};

/// Submit `f` to the global [`ExecutionService`]: [`spawn`] that reports
/// a shut-down service as an error instead of panicking.
pub fn submit<F, T>(f: F) -> Result<TaskFuture<T>, QcorError>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    ExecutionService::global().submit(f)
}

/// Errors surfaced by the runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum QcorError {
    /// The current thread has not called [`initialize`].
    NotInitialized,
    /// The registry has no such backend.
    UnknownBackend(String),
    /// The backend failed to execute a kernel.
    Execution(String),
    /// Kernel construction/binding failed.
    Kernel(String),
    /// The task was cancelled via `TaskFuture::cancel` while it was still
    /// queued; it never ran.
    TaskCancelled,
    /// Backend routing failed (bad policy parameters, or no backend
    /// matches the requested capability).
    Routing(String),
    /// A backend factory or [`create_optimizer`] rejected its construction
    /// parameters (e.g. a mistyped `threads` or `max-iters` value, or an
    /// unknown optimizer name). Permanently invalid configuration —
    /// retrying without fixing the params cannot succeed, unlike
    /// [`QcorError::Execution`].
    InvalidParam(String),
}

impl std::fmt::Display for QcorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QcorError::NotInitialized => write!(
                f,
                "quantum::initialize() has not been called on this thread \
                 (each thread must register its accelerator with the QPUManager)"
            ),
            QcorError::UnknownBackend(name) => write!(f, "unknown backend `{name}`"),
            QcorError::Execution(msg) => write!(f, "kernel execution failed: {msg}"),
            QcorError::Kernel(msg) => write!(f, "kernel error: {msg}"),
            QcorError::TaskCancelled => {
                write!(f, "task was cancelled while queued and never ran")
            }
            QcorError::Routing(msg) => write!(f, "backend routing failed: {msg}"),
            QcorError::InvalidParam(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for QcorError {}

impl From<qcor_xacc::XaccError> for QcorError {
    fn from(e: qcor_xacc::XaccError) -> Self {
        match e {
            qcor_xacc::XaccError::UnknownService(name) => QcorError::UnknownBackend(name),
            qcor_xacc::XaccError::Execution(msg) => QcorError::Execution(msg),
            qcor_xacc::XaccError::InvalidParam(msg) => QcorError::InvalidParam(msg),
        }
    }
}

impl From<qcor_circuit::CircuitError> for QcorError {
    fn from(e: qcor_circuit::CircuitError) -> Self {
        QcorError::Kernel(e.to_string())
    }
}
