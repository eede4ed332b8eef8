//! The `Accelerator` trait: the XACC abstraction over quantum backends.

use crate::buffer::AcceleratorBuffer;
use crate::XaccError;
use qcor_circuit::Circuit;

/// Per-execution options.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Number of repetitions of the kernel.
    pub shots: usize,
    /// RNG seed (`None` = OS entropy). Backends must produce identical
    /// counts for identical seeds.
    pub seed: Option<u64>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { shots: 1024, seed: None }
    }
}

impl ExecOptions {
    /// Options with an explicit shot count.
    pub fn with_shots(shots: usize) -> Self {
        ExecOptions { shots, ..Default::default() }
    }

    /// Builder-style seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

/// A quantum execution resource (hardware QPU or simulator).
///
/// In the paper's machine model (Fig. 1) several CPU threads may drive one
/// or more accelerators; the thread-safety story of this reproduction
/// revolves around *which instance* of an `Accelerator` each thread talks
/// to (see [`crate::registry`]).
pub trait Accelerator: Send + Sync {
    /// Service name (e.g. `"qpp"`).
    fn name(&self) -> String;

    /// Execute `circuit` for `opts.shots` repetitions, accumulating
    /// measurement counts into `buffer`.
    fn execute(
        &self,
        buffer: &mut AcceleratorBuffer,
        circuit: &Circuit,
        opts: &ExecOptions,
    ) -> Result<(), XaccError>;

    /// Number of simulator threads this instance uses for one kernel
    /// (the `OMP_NUM_THREADS` analogue). Hardware backends report 1.
    fn num_threads(&self) -> usize {
        1
    }

    /// Whether fresh instances of this service can be constructed per call
    /// (the paper's `xacc::Cloneable`). Singleton services return `false`
    /// and are shared — the §V-A.2 data-race hazard.
    fn is_cloneable(&self) -> bool {
        true
    }
}
