//! The variational quantum eigensolver of paper Listing 3, plus the
//! asynchronous multi-start driver sketched in §VII ("the pleasantly
//! parallel nature of the optimization process can be utilized with
//! multiple asynchronous quantum kernel instances minimizing over
//! θ-space").

use qcor::{
    create_objective_function, create_optimizer, qalloc, ExecutionService, HetMap, Kernel, ObjectiveFunction,
    OptimizerResult, QcorError,
};
use qcor_circuit::Circuit;
use qcor_pauli::{deuteron_hamiltonian, PauliSum};
use qcor_pool::ThreadPool;
use qcor_sim::{derive_stream_seed, run_shots, RunConfig};
use std::sync::Arc;

/// The ansatz of paper Listing 3.
pub const DEUTERON_ANSATZ_XASM: &str = r#"
__qpu__ void ansatz(qreg q, double theta) {
    X(q[0]);
    Ry(q[1], theta);
    CX(q[1], q[0]);
}
"#;

/// Compile the Listing 3 ansatz kernel.
pub fn deuteron_ansatz() -> Kernel {
    Kernel::from_xasm(DEUTERON_ANSATZ_XASM, 2).expect("static ansatz source is valid")
}

/// Result of a VQE run.
#[derive(Debug, Clone, PartialEq)]
pub struct VqeResult {
    /// Minimum energy found.
    pub energy: f64,
    /// Optimal variational parameters.
    pub params: Vec<f64>,
    /// Objective evaluations consumed.
    pub evaluations: usize,
    /// The starting point that won (multi-start only; equals the initial
    /// guess otherwise).
    pub start: Vec<f64>,
}

/// Run VQE for an arbitrary ansatz/Hamiltonian with the named optimizer
/// (exact expectation evaluation).
pub fn run_vqe(
    ansatz: Kernel,
    hamiltonian: PauliSum,
    n_params: usize,
    optimizer_name: &str,
    x0: &[f64],
) -> Result<VqeResult, QcorError> {
    let n_qubits = hamiltonian.num_qubits().max(2);
    let q = qalloc(n_qubits);
    let objective: ObjectiveFunction = create_objective_function(
        ansatz,
        hamiltonian,
        q,
        n_params,
        &HetMap::new().with("gradient-strategy", "central").with("step", 1e-3),
    )?;
    let optimizer = create_optimizer(optimizer_name, &HetMap::new())?;
    let OptimizerResult { opt_val, opt_params, evaluations, .. } = optimizer.optimize(&objective, x0);
    Ok(VqeResult { energy: opt_val, params: opt_params, evaluations, start: x0.to_vec() })
}

/// The full Listing 3 program: Deuteron VQE from θ = 0 with L-BFGS
/// (the `nlopt`/`l-bfgs` configuration of the paper).
pub fn deuteron_vqe() -> Result<VqeResult, QcorError> {
    run_vqe(deuteron_ansatz(), deuteron_hamiltonian(), 1, "l-bfgs", &[0.0])
}

/// Grouped sampled expectation of `hamiltonian` over the state `prep`
/// prepares. The Hamiltonian is partitioned into qubit-wise-commuting
/// measurement groups (`qcor_pauli::grouping::group_qubit_wise`) and the
/// simulator executes **exactly one batched `ShotPlan` per group** —
/// never one per Pauli term — each on its own derived RNG stream, so the
/// estimate is deterministic for a fixed `(seed, shots)` on any pool
/// size.
pub fn sampled_energy(
    prep: &Circuit,
    hamiltonian: &PauliSum,
    shots: usize,
    seed: u64,
    pool: &Arc<ThreadPool>,
) -> f64 {
    let mut group = 0usize;
    qcor_pauli::expectation::estimate_with(hamiltonian, prep, |circuit| {
        let config = RunConfig { shots, seed: Some(derive_stream_seed(seed, group)), ..RunConfig::default() };
        group += 1;
        run_shots(circuit, Arc::clone(pool), &config)
    })
}

/// Optimizer iteration budget of [`run_vqe_sampled`]. A sampled objective
/// re-seeds every evaluation, so its shot noise (≈ Σ|c|/√shots) keeps a
/// simplex from ever shrinking below the optimizers' default tolerances
/// (Nelder–Mead: 1e-10) — without a budget every run burns the full
/// default 1 000 iterations. Thirty iterations settle the deuteron
/// ansatz well inside the shot noise.
const SAMPLED_MAX_ITERS: usize = 30;

/// VQE with shot-based objective evaluation (`strategy = "sampled"`) on
/// the active backend: every energy evaluation measures the grouped
/// Hamiltonian, one backend execution per qubit-wise-commuting group.
/// Requires an initialized runtime ([`qcor::initialize`]), which supplies
/// the shot budget and base seed. The optimizer stops after
/// `SAMPLED_MAX_ITERS` (30) iterations.
pub fn run_vqe_sampled(
    ansatz: Kernel,
    hamiltonian: PauliSum,
    n_params: usize,
    optimizer_name: &str,
    x0: &[f64],
) -> Result<VqeResult, QcorError> {
    let n_qubits = hamiltonian.num_qubits().max(2);
    let q = qalloc(n_qubits);
    let objective: ObjectiveFunction = create_objective_function(
        ansatz,
        hamiltonian,
        q,
        n_params,
        // A coarser finite-difference step than the exact path: central
        // differences at 1e-3 would drown in shot noise.
        &HetMap::new().with("gradient-strategy", "central").with("step", 1e-2).with("strategy", "sampled"),
    )?;
    let optimizer = create_optimizer(optimizer_name, &HetMap::new().with("max-iters", SAMPLED_MAX_ITERS))?;
    let OptimizerResult { opt_val, opt_params, evaluations, .. } = optimizer.optimize(&objective, x0);
    Ok(VqeResult { energy: opt_val, params: opt_params, evaluations, start: x0.to_vec() })
}

/// Multi-start VQE: an asynchronous driver task fans one task per
/// starting point out onto the global kernel queue and joins them
/// **in-task**, returning the best result. This is the §VII VQE
/// parallelization scenario. The in-task sibling joins are legal because
/// `TaskFuture::wait` is work-conserving — a driver whose starts are
/// still queued runs them on its own executor instead of parking — so an
/// arbitrary number of concurrent sweeps never exhausts the service's
/// thread budget.
pub fn deuteron_vqe_multistart(starts: &[f64], optimizer_name: &'static str) -> Result<VqeResult, QcorError> {
    let starts = starts.to_vec();
    qcor::async_task(move || {
        let futures: Vec<_> = starts
            .iter()
            .map(|&theta0| {
                qcor::async_task(move || {
                    run_vqe(deuteron_ansatz(), deuteron_hamiltonian(), 1, optimizer_name, &[theta0])
                })
            })
            .collect();
        join_best(futures)
    })
    .get()
}

/// Multi-start VQE submitted to an explicit [`ExecutionService`]: heavy
/// sweeps inherit the service's bounded queue and thread budget instead
/// of the global defaults. The driver runs as a task of the service and
/// joins its per-start siblings in-task (work-conserving join); a start
/// cancelled while queued surfaces as [`QcorError::TaskCancelled`].
pub fn deuteron_vqe_multistart_on(
    service: &Arc<ExecutionService>,
    starts: &[f64],
    optimizer_name: &'static str,
) -> Result<VqeResult, QcorError> {
    let starts = starts.to_vec();
    let svc = Arc::clone(service);
    service
        .submit(move || {
            let futures = starts
                .iter()
                .map(|&theta0| {
                    svc.submit(move || {
                        run_vqe(deuteron_ansatz(), deuteron_hamiltonian(), 1, optimizer_name, &[theta0])
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            join_best(futures)
        })?
        .wait()?
}

fn join_best(futures: Vec<qcor::TaskFuture<Result<VqeResult, QcorError>>>) -> Result<VqeResult, QcorError> {
    let mut best: Option<VqeResult> = None;
    for f in futures {
        // The error-aware join: queue-level outcomes (cancelled tasks)
        // surface as errors instead of panics.
        let result = f.wait()??;
        let better = match &best {
            Some(b) => result.energy < b.energy,
            None => true,
        };
        if better {
            best = Some(result);
        }
    }
    best.ok_or_else(|| QcorError::Kernel("multi-start VQE needs at least one start".into()))
}

/// Reference ground-state energy of the Deuteron Hamiltonian on this
/// ansatz (for tests and EXPERIMENTS.md).
pub const DEUTERON_GROUND_STATE: f64 = -1.748_865;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listing_3_program_reaches_ground_state() {
        let r = deuteron_vqe().unwrap();
        assert!((r.energy - DEUTERON_GROUND_STATE).abs() < 1e-3, "{r:?}");
        assert!(r.evaluations > 2);
    }

    #[test]
    fn all_optimizers_reach_ground_state() {
        for name in ["l-bfgs", "nelder-mead", "adam"] {
            let r = run_vqe(deuteron_ansatz(), deuteron_hamiltonian(), 1, name, &[0.1]).unwrap();
            assert!((r.energy - DEUTERON_GROUND_STATE).abs() < 5e-3, "{name}: {r:?}");
        }
    }

    #[test]
    fn multistart_beats_or_matches_single_start() {
        let single = run_vqe(deuteron_ansatz(), deuteron_hamiltonian(), 1, "l-bfgs", &[3.0]).unwrap();
        let multi = deuteron_vqe_multistart(&[-2.0, 0.0, 1.0, 3.0], "l-bfgs").unwrap();
        assert!(multi.energy <= single.energy + 1e-9);
        assert!((multi.energy - DEUTERON_GROUND_STATE).abs() < 1e-3, "{multi:?}");
    }

    #[test]
    fn multistart_on_bounded_service_matches_global_path() {
        use qcor::ExecServiceConfig;
        // A 2-thread service with a tiny blocking queue: all four starts
        // flow through without loss (the in-task driver helps drain its
        // own siblings), and the best energy still lands.
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(2)));
        let multi = deuteron_vqe_multistart_on(&svc, &[-2.0, 0.0, 1.0, 3.0], "l-bfgs").unwrap();
        assert!((multi.energy - DEUTERON_GROUND_STATE).abs() < 1e-3, "{multi:?}");
        svc.drain();
        assert_eq!(svc.stats().completed, 5);
    }

    #[test]
    fn sampled_energy_is_deterministic_for_a_fixed_seed() {
        let h = deuteron_hamiltonian();
        let mut prep = Circuit::new(2);
        prep.x(0).ry(1, 0.3).cx(1, 0);
        let a = sampled_energy(&prep, &h, 4096, 42, &Arc::new(ThreadPool::new(1)));
        let b = sampled_energy(&prep, &h, 4096, 42, &Arc::new(ThreadPool::new(4)));
        assert_eq!(a, b, "seeded grouped estimate must be pool-size invariant");
    }

    #[test]
    fn sampled_vqe_lands_near_the_ground_state() {
        std::thread::spawn(|| {
            qcor::initialize(qcor::InitOptions::default().threads(1).shots(8192).seed(11)).unwrap();
            let r =
                run_vqe_sampled(deuteron_ansatz(), deuteron_hamiltonian(), 1, "nelder-mead", &[0.4]).unwrap();
            assert!((r.energy - DEUTERON_GROUND_STATE).abs() < 0.3, "{r:?}");
            assert!(r.evaluations > 2);
            qcor::QPUManager::instance().clear_current();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn unknown_optimizer_errors() {
        assert!(run_vqe(deuteron_ansatz(), deuteron_hamiltonian(), 1, "quantum-annealing", &[0.0]).is_err());
    }

    #[test]
    fn empty_multistart_errors() {
        assert!(deuteron_vqe_multistart(&[], "l-bfgs").is_err());
    }
}
