//! # qcor-xacc — service framework and accelerator backends
//!
//! QCOR sits on XACC, a system-level software framework that provides the
//! `Accelerator` abstraction, the `AcceleratorBuffer` results container, and
//! a service registry (`xacc::getService<T>()` / `xacc::getAccelerator()`).
//! This crate rebuilds those pieces:
//!
//! * [`AcceleratorBuffer`] — named qubit-register buffer accumulating
//!   measurement counts, printable in the JSON-ish format of paper
//!   Listing 2,
//! * [`Accelerator`] — the backend trait,
//! * [`registry`] — the service registry. Services registered through a
//!   *factory* are **cloneable**: every [`registry::get_accelerator`] call
//!   returns a fresh instance (the fix the paper applies in §V-B.2).
//!   Services registered as a *singleton* return the **same** shared
//!   instance from every call — exactly the pre-fix behaviour whose data
//!   race the paper describes in §V-A.2,
//! * [`backends`] — `qpp` (the Quantum++-analogue state-vector simulator
//!   backend), `qpp-noisy` (depolarizing + readout error), `remote`
//!   (simulated network-latency accelerator), and `qpp-legacy-shared`
//!   (a singleton backend with a shared gate queue that reproduces the
//!   interleaved-circuit corruption of the original implementation).

pub mod accelerator;
pub mod backends;
mod buffer;
mod hetmap;
pub mod registry;

pub use accelerator::{Accelerator, ExecOptions};
pub use buffer::AcceleratorBuffer;
pub use hetmap::{HetMap, HetValue};

/// Errors surfaced by accelerators and the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum XaccError {
    /// No service registered under the requested name.
    UnknownService(String),
    /// The backend rejected the circuit or configuration.
    Execution(String),
    /// A factory rejected its construction parameters. Surfaced as an
    /// `Err` through `get_accelerator`/`initialize` — fallible
    /// construction, not a panic deep inside the factory.
    InvalidParam(String),
}

impl std::fmt::Display for XaccError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XaccError::UnknownService(name) => write!(f, "no accelerator service named `{name}`"),
            XaccError::Execution(msg) => write!(f, "accelerator execution failed: {msg}"),
            XaccError::InvalidParam(msg) => write!(f, "invalid accelerator parameter: {msg}"),
        }
    }
}

impl std::error::Error for XaccError {}
