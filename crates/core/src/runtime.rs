//! `quantum::initialize()` and kernel execution.
//!
//! As in the paper's implementation (§V-C), each thread that wants to run
//! quantum kernels calls [`initialize`] first; the runtime obtains a
//! *fresh* accelerator instance from the (cloneable) registry factory and
//! registers it with the [`QPUManager`] under the current thread id.
//! [`execute`] then routes every kernel invocation from this thread to its
//! own instance. The [`crate::spawn`]/[`crate::async_task`] wrappers do the
//! initialize call automatically, which is the convenience the paper
//! proposes as `qcor::thread` / `qcor::async`; behind them sits the
//! bounded kernel queue of [`crate::ExecutionService`] (configured by
//! `QCOR_SERVICE_THREADS` and `QCOR_QUEUE_CAPACITY`), whose
//! work-conserving joins make it safe to `wait` on sibling task futures
//! from inside a task.

use crate::allocation::QReg;
use crate::qpu_manager::{QPUManager, ThreadContext};
use crate::QcorError;
use qcor_circuit::Circuit;
use qcor_xacc::{registry, ExecOptions, HetMap};

/// Options for [`initialize`].
#[derive(Debug, Clone)]
pub struct InitOptions {
    /// Backend service name (default `"qpp"`).
    pub backend: String,
    /// Simulator threads per kernel (the per-kernel `OMP_NUM_THREADS` of
    /// the paper's experiments). `None` = backend default.
    pub threads: Option<usize>,
    /// Shots per kernel invocation (default 1024, as in Listing 2).
    pub shots: usize,
    /// RNG seed for reproducible counts.
    pub seed: Option<u64>,
    /// Additional backend parameters.
    pub params: HetMap,
    /// Session tenant for the calling thread: when set, [`initialize`]
    /// also calls [`crate::set_thread_tenant`], so subsequent execution-
    /// service submissions from this thread are fair-queued and accounted
    /// under this tenant. `None` leaves the thread's tenant untouched.
    pub tenant: Option<String>,
}

impl Default for InitOptions {
    fn default() -> Self {
        InitOptions {
            backend: "qpp".to_string(),
            threads: None,
            shots: 1024,
            seed: None,
            params: HetMap::new(),
            tenant: None,
        }
    }
}

impl InitOptions {
    /// Select a backend by name.
    pub fn backend(mut self, name: impl Into<String>) -> Self {
        self.backend = name.into();
        self
    }

    /// Simulator threads per kernel.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Shots per kernel invocation.
    pub fn shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Extra backend parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl Into<qcor_xacc::HetValue>) -> Self {
        self.params.insert(key, value);
        self
    }

    /// Session tenant for this thread's submissions (see
    /// [`InitOptions::tenant`]).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Explicit shots-per-chunk for the backend's batched shot scheduler
    /// (see `qcor_sim::ShotPlan`); part of the determinism tuple
    /// `(seed, tasks, chunk_shots)`. Default: chunks sized by cost.
    /// `chunk_shots` = shots together with `.param("par-threshold", 1usize)`
    /// is the pre-scheduler behavior (every shot on the executing thread, a
    /// fork/join per sweep), kept for A/B comparison.
    pub fn chunk_shots(mut self, chunk_shots: usize) -> Self {
        self.params.insert("chunk-shots", chunk_shots.max(1));
        self
    }
}

/// `quantum::initialize()` — obtain an accelerator for the calling thread
/// and register it with the [`QPUManager`].
///
/// Because the built-in backends are registered as cloneable factories,
/// every call constructs a fresh instance: two threads that both
/// initialize get independent simulators (the §V-B.2 fix).
pub fn initialize(opts: InitOptions) -> Result<(), QcorError> {
    let mut params = opts.params.clone();
    if let Some(t) = opts.threads {
        params.insert("threads", t);
    }
    let qpu = registry::get_accelerator(&opts.backend, &params)?;
    let exec = ExecOptions { shots: opts.shots, seed: opts.seed };
    if let Some(tenant) = &opts.tenant {
        crate::exec_service::set_thread_tenant(Some(tenant));
    }
    QPUManager::instance().set_qpu(ThreadContext { qpu, exec, init: opts });
    Ok(())
}

/// Initialize against the **legacy shared singleton** backend
/// (`qpp-legacy-shared`): every thread ends up driving the *same*
/// accelerator instance, reproducing the pre-fix §V-A.2 behaviour. Used by
/// the race-reproduction experiment; do not use in real programs.
pub fn initialize_legacy_shared(shots: usize, seed: Option<u64>) -> Result<(), QcorError> {
    let opts = InitOptions::default().backend("qpp-legacy-shared").shots(shots);
    let opts = match seed {
        Some(s) => opts.seed(s),
        None => opts,
    };
    initialize(opts)
}

/// The calling thread's registered options, if initialized.
pub fn current_options() -> Option<InitOptions> {
    QPUManager::instance().get_qpu().map(|ctx| ctx.init)
}

/// Execute a concrete circuit against `q` on the calling thread's
/// accelerator with its registered shots/seed.
pub fn execute(q: &QReg, circuit: &Circuit) -> Result<(), QcorError> {
    let ctx = QPUManager::instance().get_qpu().ok_or(QcorError::NotInitialized)?;
    q.with_buffer(|buf| ctx.qpu.execute(buf, circuit, &ctx.exec))?;
    Ok(())
}

/// Execute with explicit options (overriding the registered shots/seed).
pub fn execute_with(q: &QReg, circuit: &Circuit, exec: &ExecOptions) -> Result<(), QcorError> {
    let ctx = QPUManager::instance().get_qpu().ok_or(QcorError::NotInitialized)?;
    q.with_buffer(|buf| ctx.qpu.execute(buf, circuit, exec))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::qalloc;
    use qcor_circuit::library;

    #[test]
    fn execute_without_initialize_errors() {
        // Run on a scratch thread so other tests' registrations don't leak in.
        let err = std::thread::spawn(|| {
            let q = qalloc(2);
            execute(&q, &library::bell_kernel())
        })
        .join()
        .unwrap();
        assert_eq!(err, Err(QcorError::NotInitialized));
    }

    #[test]
    fn initialize_then_execute_bell() {
        std::thread::spawn(|| {
            initialize(InitOptions::default().threads(1).shots(256).seed(11)).unwrap();
            let q = qalloc(2);
            execute(&q, &library::bell_kernel()).unwrap();
            assert_eq!(q.total_shots(), 256);
            let counts = q.measurement_counts();
            assert!(counts.keys().all(|k| k == "00" || k == "11"), "{counts:?}");
            QPUManager::instance().clear_current();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn unknown_backend_fails() {
        std::thread::spawn(|| {
            let err = initialize(InitOptions::default().backend("warp-drive"));
            assert_eq!(err, Err(QcorError::UnknownBackend("warp-drive".to_string())));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn per_thread_instances_are_distinct() {
        // Both threads hold their instance until both have read its
        // address: were one to finish first, the allocator could hand the
        // freed address to the other and two distinct instances would
        // compare equal.
        let both_alive = std::sync::Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let both_alive = std::sync::Arc::clone(&both_alive);
            handles.push(std::thread::spawn(move || {
                initialize(InitOptions::default().threads(1)).unwrap();
                let ctx = QPUManager::instance().get_qpu().unwrap();
                let ptr = std::sync::Arc::as_ptr(&ctx.qpu) as *const () as usize;
                both_alive.wait();
                QPUManager::instance().clear_current();
                ptr
            }));
        }
        let a = handles.remove(0).join().unwrap();
        let b = handles.remove(0).join().unwrap();
        assert_ne!(a, b, "threads must receive distinct cloneable instances");
    }

    #[test]
    fn legacy_shared_instances_are_the_same() {
        let mut handles = Vec::new();
        for _ in 0..2 {
            handles.push(std::thread::spawn(|| {
                initialize_legacy_shared(16, Some(0)).unwrap();
                let ctx = QPUManager::instance().get_qpu().unwrap();
                let ptr = std::sync::Arc::as_ptr(&ctx.qpu) as *const () as usize;
                QPUManager::instance().clear_current();
                ptr
            }));
        }
        let a = handles.remove(0).join().unwrap();
        let b = handles.remove(0).join().unwrap();
        assert_eq!(a, b, "legacy mode must share the singleton");
    }

    #[test]
    fn bad_backend_params_error_through_initialize() {
        // Fallible factory construction: qpp's mistyped-param rejections
        // surface as Err through initialize() — no panic inside the factory.
        std::thread::spawn(|| {
            let err = initialize(InitOptions::default().threads(1).param("chunk-shots", "x"));
            assert!(
                matches!(err, Err(QcorError::InvalidParam(ref msg)) if msg.contains("chunk-shots")),
                "{err:?}"
            );
            let err = initialize(InitOptions::default().threads(1).param("par-threshold", "perhaps"));
            assert!(
                matches!(err, Err(QcorError::InvalidParam(ref msg)) if msg.contains("par-threshold")),
                "{err:?}"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn execute_with_overrides_shots() {
        std::thread::spawn(|| {
            initialize(InitOptions::default().threads(1).shots(1024).seed(1)).unwrap();
            let q = qalloc(2);
            execute_with(&q, &library::bell_kernel(), &ExecOptions::with_shots(8).seeded(2)).unwrap();
            assert_eq!(q.total_shots(), 8);
            QPUManager::instance().clear_current();
        })
        .join()
        .unwrap();
    }
}
