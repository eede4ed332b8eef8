//! # qcor-circuit — quantum circuit IR and kernel languages
//!
//! QCOR programs express quantum kernels in a DSL (the paper uses XACC's
//! XASM; OpenQASM is also supported by XACC) that the QCOR compiler lowers
//! to an instruction stream executed by an `Accelerator`. This crate is that
//! layer of the reproduction:
//!
//! * [`GateKind`] / [`Instruction`] / [`Circuit`] — the concrete instruction
//!   set and container consumed by the simulator,
//! * [`ParamCircuit`] — a parametric kernel template (symbolic angles such
//!   as the `theta` of the paper's VQE ansatz, Listing 3) that is bound to
//!   concrete values at invocation time,
//! * [`xasm`] — a parser for the XASM subset used by the paper's kernels
//!   (Listings 1, 3, 4),
//! * [`qasm`] — an OpenQASM 2 subset parser and writer,
//! * [`passes`] — peephole optimizer passes (the "quantum JIT compilation"
//!   workload of the paper's §VII discussion),
//! * [`library`] — Bell/GHZ/QFT builders,
//! * [`arith`] — Draper QFT arithmetic and the Beauregard modular
//!   exponentiation construction used by Shor's kernel (paper ref. \[20\]).

pub mod arith;
mod circuit;
pub mod draw;
mod expr;
mod gate;
pub mod library;
pub mod passes;
pub mod qasm;
pub mod xasm;

pub use circuit::{Circuit, ParamCircuit, ParamInstruction};
pub use expr::{EvalError, ParamExpr};
pub use gate::{GateKind, Instruction};

/// Hard upper bound on register width. The compiler and simulator pack
/// qubit sets into `usize` bitmasks (`support_mask`, control masks, phase
/// sweeps), so a qubit index of 64 or more would shift past the word and —
/// in release builds — silently wrap, corrupting fusion decisions. Circuits
/// wider than this are rejected at construction.
pub const MAX_QUBITS: usize = 64;

/// Errors produced while parsing or manipulating circuits.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A gate referenced a qubit index outside the register.
    QubitOutOfRange { gate: String, qubit: usize, size: usize },
    /// The register is wider than the `usize`-bitmask budget ([`MAX_QUBITS`]).
    TooManyQubits { requested: usize, max: usize },
    /// Parse error with a line number and message.
    Parse { line: usize, message: String },
    /// A parameter expression referenced an unbound variable.
    UnboundParam(String),
    /// Attempted to invert a non-unitary instruction (measure/reset).
    NotInvertible(String),
    /// Anything else.
    Invalid(String),
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::QubitOutOfRange { gate, qubit, size } => {
                write!(f, "gate {gate} addresses qubit {qubit} but the register has {size} qubits")
            }
            CircuitError::TooManyQubits { requested, max } => {
                write!(f, "circuit requests {requested} qubits but bitmask-based compilation supports at most {max}")
            }
            CircuitError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            CircuitError::UnboundParam(name) => write!(f, "unbound kernel parameter `{name}`"),
            CircuitError::NotInvertible(what) => write!(f, "instruction `{what}` is not invertible"),
            CircuitError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for CircuitError {}
