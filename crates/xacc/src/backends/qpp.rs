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
use qcor_sim::{run_shots, Granularity, RunConfig, FORK_MIN_BYTES_PER_THREAD};
use std::sync::Arc;

/// State-vector simulator backend.
#[derive(Debug)]
pub struct QppAccelerator {
    pool: Arc<ThreadPool>,
    par_threshold: usize,
    /// Explicit shots-per-chunk for the batched shot scheduler
    /// (`None` = adaptive granularity).
    chunk_shots: Option<usize>,
    /// Chunk-sizing policy when `chunk_shots` is unset.
    granularity: Granularity,
    /// Gate fusion (compile-then-execute) override; `None` defers to the
    /// `QCOR_GATE_FUSION` process default.
    fusion: Option<bool>,
    /// Compile-cache override; `None` defers to the `QCOR_COMPILE_CACHE`
    /// process default (enabled).
    compile_cache: Option<bool>,
}

impl QppAccelerator {
    /// A backend simulating with `threads` simulator threads.
    pub fn new(threads: usize) -> Self {
        Self::with_pool(Arc::new(qcor_pool::PoolBuilder::new().num_threads(threads).name("qpp").build()))
    }

    /// A backend sharing an existing pool.
    pub fn with_pool(pool: Arc<ThreadPool>) -> Self {
        QppAccelerator {
            pool,
            par_threshold: FORK_MIN_BYTES_PER_THREAD,
            chunk_shots: None,
            granularity: Granularity::Auto,
            fusion: None,
            compile_cache: None,
        }
    }

    /// Construct from registry params: `threads` (default: all cores or
    /// `QCOR_NUM_THREADS`), `par-threshold` (the kernels' fork floor in bytes
    /// of a sweep per pool thread, default
    /// [`qcor_sim::FORK_MIN_BYTES_PER_THREAD`]; `1` forks every sweep as
    /// Quantum++ does — see
    /// [`qcor_sim::StateVector::set_par_threshold`]), `chunk-shots`
    /// (explicit scheduler chunk size), `granularity`
    /// (`"auto"` | `"sequential"`), `fusion` (bool, or `"on"`/`"off"`;
    /// default: the `QCOR_GATE_FUSION` process default), `compile-cache`
    /// (bool, or `"on"`/`"off"`; default: the `QCOR_COMPILE_CACHE` process
    /// default — reuse one structural template per circuit shape across an
    /// angle sweep).
    ///
    /// Bad parameter values — an unknown token or a value of the wrong type
    /// or sign — are rejected with [`XaccError::InvalidParam`], surfaced as
    /// an `Err` through `get_accelerator`/`initialize` like the routing
    /// params.
    pub fn from_params(params: &HetMap) -> Result<Self, XaccError> {
        let threads = params.try_usize("threads")?.unwrap_or_else(qcor_pool::num_threads_from_env);
        let mut acc = Self::new(threads.max(1));
        if let Some(t) = params.try_usize("par-threshold")? {
            acc.par_threshold = t.max(1);
        }
        acc.chunk_shots = params.try_usize("chunk-shots")?.map(|k| k.max(1));
        if let Some(g) = params.try_str("granularity")? {
            acc.granularity = match g {
                "sequential" => Granularity::Sequential,
                "auto" => Granularity::Auto,
                other => {
                    return Err(XaccError::InvalidParam(format!(
                        "unknown granularity {other:?}: expected \"auto\" or \"sequential\""
                    )))
                }
            };
        }
        // String values share the `QCOR_GATE_FUSION` token vocabulary
        // (`qcor_sim::parse_fusion_token`); plain bools pass through; any
        // other value or type is a hard configuration error.
        acc.fusion = match params.get("fusion") {
            None => None,
            Some(&crate::HetValue::Bool(b)) => Some(b),
            Some(crate::HetValue::Str(s)) => match qcor_sim::parse_fusion_token(s) {
                Some(b) => Some(b),
                None => {
                    return Err(XaccError::InvalidParam(format!(
                        "unknown fusion setting {s:?}: expected a bool or 0/1/true/false/on/off"
                    )))
                }
            },
            Some(other) => {
                return Err(XaccError::InvalidParam(format!(
                    "fusion must be a bool or string, got {other:?}"
                )))
            }
        };
        // `compile-cache` shares the `QCOR_COMPILE_CACHE` token vocabulary
        // (`qcor_sim::parse_cache_token`) — same discipline as `fusion`.
        acc.compile_cache = match params.get("compile-cache") {
            None => None,
            Some(&crate::HetValue::Bool(b)) => Some(b),
            Some(crate::HetValue::Str(s)) => match qcor_sim::parse_cache_token(s) {
                Some(b) => Some(b),
                None => {
                    return Err(XaccError::InvalidParam(format!(
                        "unknown compile-cache setting {s:?}: expected a bool or 0/1/true/false/on/off"
                    )))
                }
            },
            Some(other) => {
                return Err(XaccError::InvalidParam(format!(
                    "compile-cache must be a bool or string, got {other:?}"
                )))
            }
        };
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
            granularity: self.granularity,
            fusion: self.fusion,
            compile_cache: self.compile_cache,
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
        let acc = QppAccelerator::from_params(
            &HetMap::new()
                .with("threads", 1usize)
                .with("chunk-shots", 8usize)
                .with("granularity", "sequential")
                .with("fusion", false),
        )
        .unwrap();
        assert_eq!(acc.chunk_shots, Some(8));
        assert_eq!(acc.granularity, Granularity::Sequential);
        assert_eq!(acc.fusion, Some(false));
        assert_eq!(acc.par_threshold, FORK_MIN_BYTES_PER_THREAD, "unset = the kernels' fork floor");
        let on = QppAccelerator::from_params(
            &HetMap::new().with("threads", 1usize).with("fusion", "on").with("par-threshold", 1usize),
        )
        .unwrap();
        assert_eq!(on.fusion, Some(true));
        assert_eq!(on.par_threshold, 1);
    }

    #[test]
    fn from_params_rejects_unknown_granularity_as_err() {
        let err = QppAccelerator::from_params(
            &HetMap::new().with("threads", 1usize).with("granularity", "Sequential"),
        )
        .unwrap_err();
        assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains("granularity")), "{err}");
    }

    #[test]
    fn from_params_fusion_accepts_env_token_set() {
        // The param accepts exactly what QCOR_GATE_FUSION accepts.
        for (token, expect) in
            [("1", true), ("true", true), ("on", true), ("0", false), ("false", false), ("off", false)]
        {
            let acc =
                QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("fusion", token))
                    .unwrap();
            assert_eq!(acc.fusion, Some(expect), "token {token:?}");
        }
    }

    #[test]
    fn from_params_rejects_unknown_fusion_as_err() {
        let err = QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("fusion", "maybe"))
            .unwrap_err();
        assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains("fusion")), "{err}");
        // Wrong-typed values are rejected too, not silently ignored.
        let err = QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("fusion", 3usize))
            .unwrap_err();
        assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains("fusion")), "{err}");
    }

    #[test]
    fn from_params_compile_cache_accepts_env_token_set() {
        // The param accepts exactly what QCOR_COMPILE_CACHE accepts.
        for (token, expect) in
            [("1", true), ("true", true), ("on", true), ("0", false), ("false", false), ("off", false)]
        {
            let acc = QppAccelerator::from_params(
                &HetMap::new().with("threads", 1usize).with("compile-cache", token),
            )
            .unwrap();
            assert_eq!(acc.compile_cache, Some(expect), "token {token:?}");
        }
        let plain_bool =
            QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("compile-cache", false))
                .unwrap();
        assert_eq!(plain_bool.compile_cache, Some(false));
        let unset = QppAccelerator::from_params(&HetMap::new().with("threads", 1usize)).unwrap();
        assert_eq!(unset.compile_cache, None);
    }

    #[test]
    fn from_params_rejects_unknown_compile_cache_as_err() {
        let err = QppAccelerator::from_params(
            &HetMap::new().with("threads", 1usize).with("compile-cache", "maybe"),
        )
        .unwrap_err();
        assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains("compile-cache")), "{err}");
        // Wrong-typed values are rejected too, not silently ignored.
        let err =
            QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("compile-cache", 3usize))
                .unwrap_err();
        assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains("compile-cache")), "{err}");
    }

    #[test]
    fn cached_and_uncached_execute_identical_seeded_counts() {
        let cached =
            QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("compile-cache", true))
                .unwrap();
        let cold =
            QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("compile-cache", false))
                .unwrap();
        let opts = ExecOptions::with_shots(256).seeded(33);
        let mut buf_a = AcceleratorBuffer::with_name("a", 3);
        let mut buf_b = AcceleratorBuffer::with_name("b", 3);
        cached.execute(&mut buf_a, &library::ghz_kernel(3), &opts).unwrap();
        cold.execute(&mut buf_b, &library::ghz_kernel(3), &opts).unwrap();
        assert_eq!(buf_a.measurements(), buf_b.measurements());
    }

    #[test]
    fn fused_and_unfused_execute_identical_seeded_counts() {
        let fused =
            QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("fusion", true)).unwrap();
        let unfused =
            QppAccelerator::from_params(&HetMap::new().with("threads", 1usize).with("fusion", false))
                .unwrap();
        let opts = ExecOptions::with_shots(256).seeded(12);
        let mut buf_a = AcceleratorBuffer::with_name("a", 3);
        let mut buf_b = AcceleratorBuffer::with_name("b", 3);
        fused.execute(&mut buf_a, &library::ghz_kernel(3), &opts).unwrap();
        unfused.execute(&mut buf_b, &library::ghz_kernel(3), &opts).unwrap();
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
