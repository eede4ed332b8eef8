//! The `qpp` backend: the Quantum++-analogue state-vector simulator,
//! wrapped as an [`Accelerator`].
//!
//! Each instance owns its own thread pool, so distinct instances obtained
//! from the cloneable factory partition the machine's cores the way the
//! paper's per-kernel `OMP_NUM_THREADS` settings do.

use crate::accelerator::{Accelerator, ExecOptions};
use crate::buffer::AcceleratorBuffer;
use crate::hetmap::HetMap;
use crate::XaccError;
use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use qcor_sim::{run_shots, RunConfig, FORK_MIN_BYTES_PER_THREAD};
use std::sync::Arc;

/// State-vector simulator backend.
#[derive(Debug)]
pub struct QppAccelerator {
    pool: Arc<ThreadPool>,
    par_threshold: usize,
    /// Explicit shots-per-chunk for the batched shot scheduler
    /// (`None` = chunks sized by cost).
    chunk_shots: Option<usize>,
}

impl QppAccelerator {
    /// A backend simulating with `threads` simulator threads.
    pub fn new(threads: usize) -> Self {
        Self::with_pool(Arc::new(qcor_pool::PoolBuilder::new().num_threads(threads).name("qpp").build()))
    }

    /// A backend sharing an existing pool.
    pub fn with_pool(pool: Arc<ThreadPool>) -> Self {
        QppAccelerator { pool, par_threshold: FORK_MIN_BYTES_PER_THREAD, chunk_shots: None }
    }

    /// Construct from registry params: `threads` (default: all cores or
    /// `QCOR_NUM_THREADS`), `par-threshold` (the kernels' fork floor in bytes
    /// of a sweep per pool thread, default
    /// [`qcor_sim::FORK_MIN_BYTES_PER_THREAD`]; `1` forks every sweep as
    /// Quantum++ does — see
    /// [`qcor_sim::StateVector::set_par_threshold`]) and `chunk-shots`
    /// (explicit scheduler chunk size; `chunk-shots` = shots with
    /// `par-threshold` = 1 is the pre-scheduler fork-per-sweep path).
    ///
    /// Bad parameter values — a value of the wrong type or sign, or zero
    /// for any of the three — are rejected with
    /// [`XaccError::InvalidParam`] naming the key, surfaced as
    /// an `Err` through `get_accelerator`/`initialize`.
    pub fn from_params(params: &HetMap) -> Result<Self, XaccError> {
        let threads = params.try_positive("threads")?.unwrap_or_else(qcor_pool::num_threads_from_env);
        let mut acc = Self::new(threads);
        if let Some(t) = params.try_positive("par-threshold")? {
            acc.par_threshold = t;
        }
        acc.chunk_shots = params.try_positive("chunk-shots")?;
        Ok(acc)
    }

    /// The simulator thread pool.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }
}

impl Accelerator for QppAccelerator {
    fn name(&self) -> String {
        "qpp".to_string()
    }

    fn execute(
        &self,
        buffer: &mut AcceleratorBuffer,
        circuit: &Circuit,
        opts: &ExecOptions,
    ) -> Result<(), XaccError> {
        if circuit.num_qubits() > buffer.size() {
            return Err(XaccError::Execution(format!(
                "kernel uses {} qubits but the buffer has {}",
                circuit.num_qubits(),
                buffer.size()
            )));
        }
        let config = RunConfig {
            shots: opts.shots,
            seed: opts.seed,
            par_threshold: self.par_threshold,
            chunk_shots: self.chunk_shots,
        };
        let counts = run_shots(circuit, Arc::clone(&self.pool), &config);
        buffer.merge_counts(&counts);
        Ok(())
    }

    fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcor_circuit::library;

    #[test]
    fn executes_bell_kernel() {
        let acc = QppAccelerator::new(1);
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::with_shots(512).seeded(1)).unwrap();
        assert_eq!(buf.total_shots(), 512);
        assert!(buf.measurements().keys().all(|k| k == "00" || k == "11"));
    }

    #[test]
    fn from_params_parses_scheduler_knobs() {
        let acc =
            QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("chunk-shots", 8usize))
                .unwrap();
        assert_eq!(acc.chunk_shots, Some(8));
        assert_eq!(acc.par_threshold, FORK_MIN_BYTES_PER_THREAD, "unset = the kernels' fork floor");
        let forking =
            QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("par-threshold", 1usize))
                .unwrap();
        assert_eq!(forking.par_threshold, 1);
    }

    #[test]
    fn from_params_rejects_zero_knobs() {
        for key in ["threads", "par-threshold", "chunk-shots"] {
            let err = QppAccelerator::from_params(&HetMap::new().with(key, 0usize)).unwrap_err();
            assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains(key)), "{key}: {err}");
        }
    }

    #[test]
    fn cached_and_uncached_execute_identical_seeded_counts() {
        // A cleared cache compiles cold (a miss); the repeat run rebinds the
        // stored template (a hit). Cache state must never show in counts.
        let acc = QppAccelerator::new(1);
        let opts = ExecOptions::with_shots(256).seeded(33);
        let mut buf_a = AcceleratorBuffer::with_name("a", 3);
        let mut buf_b = AcceleratorBuffer::with_name("b", 3);
        qcor_sim::clear_compile_cache();
        acc.execute(&mut buf_a, &library::ghz_kernel(3), &opts).unwrap();
        acc.execute(&mut buf_b, &library::ghz_kernel(3), &opts).unwrap();
        assert_eq!(buf_a.measurements(), buf_b.measurements());
    }

    #[test]
    fn rejects_undersized_buffer() {
        let acc = QppAccelerator::new(1);
        let mut buf = AcceleratorBuffer::with_name("b", 1);
        let err = acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn repeated_execute_accumulates() {
        let acc = QppAccelerator::new(1);
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        let opts = ExecOptions::with_shots(100).seeded(3);
        acc.execute(&mut buf, &library::bell_kernel(), &opts).unwrap();
        acc.execute(&mut buf, &library::bell_kernel(), &opts).unwrap();
        assert_eq!(buf.total_shots(), 200);
    }

    #[test]
    fn parallel_instance_matches_distribution() {
        let acc = QppAccelerator::new(4);
        assert_eq!(acc.num_threads(), 4);
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::with_shots(512).seeded(2)).unwrap();
        let p00 = buf.probability("00");
        assert!((p00 - 0.5).abs() < 0.1, "p(00) = {p00}");
    }
}
