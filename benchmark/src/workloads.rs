//! The seven workloads. Each op is what a user program would write against
//! `qcor::` and `qcor_algos::`; the task bodies stamp a span around each
//! call into a layer (a no-op when tracing is off).
//!
//! An op has three parts so the latency clock covers only the middle one:
//! `input` (seeded generation, before the clock), `run` (submit → `get`
//! returns), `verify` (after the clock; yields the hash that feeds
//! `counts_digest`).

use crate::measure::Digest;
use crate::trace::{OpTrace, TaskSpans, TaskTrace};
use qcor::pauli::grouping::group_qubit_wise;
use qcor::sim::{Counts, NoiseModel};
use qcor::{
    async_task, create_objective_function, execute, initialize, qalloc, Circuit, HetMap, InitOptions, Kernel,
    PauliSum, QcorError, TaskFuture, ThreadPool,
};
use qcor_algos::bell::{bell_kernel, BELL_XASM};
use qcor_algos::qaoa::{qaoa_ansatz, Graph};
use qcor_algos::shor::{shor_attempt, Factors, KernelKind, ShorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What the layer probes run on: a circuit of the workload's own shape
/// and the settings its ops execute it with.
pub struct ProbeSample {
    pub circuit: Circuit,
    pub shots: usize,
    pub threads: usize,
    pub backend: &'static str,
    /// The noise the `qpp-noisy` backend applies, when `backend` is that.
    pub noise: Option<(NoiseModel, f64)>,
    /// The kernel whose `bind` the ops pay, with its arguments.
    pub kernel: Kernel,
    pub args: Vec<f64>,
}

pub trait Workload: Sync {
    const NAME: &'static str;
    /// Seed-derivation tag. `shor_par` and `shor_seq` share one, so they
    /// run the identical kernels and seeds.
    const SEED_TAG: &'static str = Self::NAME;
    /// Closed-loop client threads (capped at `nproc` by the harness).
    const CLIENTS: usize;
    type Input: Send;
    type Output: Send;

    /// Fixed inputs of the run, from the run seed.
    fn new(seed: u64) -> Self;
    fn input(&self, op_seed: u64, client: usize) -> Self::Input;
    fn run(&self, input: Self::Input, trace: &mut OpTrace) -> Self::Output;
    fn verify(&self, out: &Self::Output) -> Result<u64, String>;
    fn probe_sample(&self) -> ProbeSample;
}

/// Submit `body` as an `async_task` (`qcor::spawn` under the paper's other
/// name), handing it the span recorder.
fn submit<T: Send + 'static>(
    trace: &OpTrace,
    body: impl FnOnce(&mut TaskTrace) -> T + Send + 'static,
) -> TaskFuture<(T, TaskSpans)> {
    let submitted = trace.submit_stamp();
    async_task(move || {
        let mut t = TaskTrace::begin(submitted);
        let out = body(&mut t);
        (out, t.end())
    })
}

fn join<T>(trace: &mut OpTrace, future: TaskFuture<(T, TaskSpans)>) -> T {
    let (out, spans) = future.get();
    trace.joined(spans);
    out
}

fn hash_counts(counts: &Counts) -> u64 {
    let mut d = Digest::default();
    for (bits, &n) in counts {
        d.bytes(bits.as_bytes());
        d.word(n as u64);
    }
    d.finish()
}

type CountsResult = Result<Counts, QcorError>;

/// Counts of a measure-all circuit: `shots` in total, every key `width` bits.
fn verify_counts(out: &CountsResult, shots: usize, width: usize) -> Result<u64, String> {
    let counts = out.as_ref().map_err(|e| e.to_string())?;
    let total: usize = counts.values().sum();
    if total != shots {
        return Err(format!("counts sum to {total}, expected {shots}"));
    }
    if let Some(bad) = counts.keys().find(|k| k.len() != width) {
        return Err(format!("key `{bad}` is not {width} bits"));
    }
    Ok(hash_counts(counts))
}

/// A seeded random circuit over the gate set h/rx/ry/rz/t/cx/cz/cphase,
/// measured on every qubit.
pub fn random_circuit(qubits: usize, gates: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(qubits);
    for _ in 0..gates {
        let q = rng.gen_range(0..qubits);
        let other = (q + rng.gen_range(1..qubits)) % qubits;
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        match rng.gen_range(0..8) {
            0 => c.h(q),
            1 => c.rx(q, theta),
            2 => c.ry(q, theta),
            3 => c.rz(q, theta),
            4 => c.t(q),
            5 => c.cx(q, other),
            6 => c.cz(q, other),
            _ => c.cphase(q, other, theta),
        };
    }
    c.measure_all();
    c
}

/// Seed of the circuits that `noisy_traj` and `deep20` keep for a whole
/// run. Not the run seed: a run seed picks the sampling streams, and the
/// work per op must not change with it.
const FIXED_CIRCUIT_SEED: u64 = 20;

/// initialize → qalloc → execute of a given circuit, as one task body.
fn execute_body(opts: InitOptions, circuit: &Circuit, t: &mut TaskTrace) -> CountsResult {
    t.span("core.initialize", || initialize(opts))?;
    let q = t.span("core.qalloc", || qalloc(circuit.num_qubits()));
    t.span("xacc.execute", || execute(&q, circuit))?;
    Ok(q.measurement_counts())
}

// ---------------------------------------------------------------- bell_par

const BELL_SHOTS: usize = 1024;

/// Paper fig3: the Bell kernel of Listing 4 from two threads.
pub struct BellPar;

impl Workload for BellPar {
    const NAME: &'static str = "bell_par";
    const CLIENTS: usize = 2;
    type Input = u64;
    type Output = CountsResult;

    fn new(_seed: u64) -> Self {
        BellPar
    }

    fn input(&self, op_seed: u64, _client: usize) -> u64 {
        op_seed
    }

    fn run(&self, seed: u64, trace: &mut OpTrace) -> CountsResult {
        let future = submit(trace, move |t| {
            let opts = InitOptions::default().threads(1).shots(BELL_SHOTS).seed(seed);
            t.span("core.initialize", || initialize(opts))?;
            let q = t.span("core.qalloc", || qalloc(2));
            let bell = t.span("circuit.bind", bell_kernel);
            t.span("xacc.execute", || bell.invoke(&q, &[]))?;
            Ok(q.measurement_counts())
        });
        join(trace, future)
    }

    fn verify(&self, out: &CountsResult) -> Result<u64, String> {
        let hash = verify_counts(out, BELL_SHOTS, 2)?;
        match out.as_ref().unwrap().keys().find(|k| *k != "00" && *k != "11") {
            Some(bad) => Err(format!("Bell kernel measured `{bad}`")),
            None => Ok(hash),
        }
    }

    fn probe_sample(&self) -> ProbeSample {
        let kernel = bell_kernel();
        ProbeSample {
            circuit: kernel.bind(&[]).expect("Bell kernel takes no arguments"),
            shots: BELL_SHOTS,
            threads: 1,
            backend: "qpp",
            noise: None,
            kernel,
            args: Vec::new(),
        }
    }
}

// ----------------------------------------------------- shor_par / shor_seq

const SHOR_N: u64 = 15;
const SHOR_BASES: [u64; 2] = [2, 7];
const SHOR_SHOTS: usize = 2;

/// One `SHOR(15, a)` attempt on its own simulator pool, as in
/// `qcor_algos::shor::factorize_parallel`.
fn shor_task(a: u64, threads: usize, seed: u64, t: &mut TaskTrace) -> Option<Factors> {
    let pool = t.span("pool.build", || Arc::new(ThreadPool::new(threads)));
    let config =
        ShorConfig { shots: SHOR_SHOTS, kernel: KernelKind::Beauregard, threads, ..ShorConfig::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    t.span("xacc.execute", || shor_attempt(SHOR_N, a, &config, pool, &mut rng))
}

type ShorOutput = [Option<Factors>; 2];

fn verify_shor(out: &ShorOutput) -> Result<u64, String> {
    let mut d = Digest::default();
    for f in out.iter().flatten() {
        if f.p * f.q != SHOR_N || f.p <= 1 {
            return Err(format!("{} x {} is not a factorization of {SHOR_N}", f.p, f.q));
        }
    }
    for f in out {
        // A failed base (`None`) is a legal outcome of Algorithm 1, not an error.
        d.word(f.as_ref().map_or(0, |f| f.p << 32 | f.order));
    }
    Ok(d.finish())
}

/// A Beauregard round on the 11-qubit register: H, controlled-U_a, H and
/// the control's measurement — what `sample_phase` replays per phase bit.
fn shor_probe_sample(threads: usize) -> ProbeSample {
    let layout = qcor_circuit::arith::ShorLayout::for_modulus(SHOR_N);
    let mut round = Circuit::new(layout.num_qubits());
    round.h(layout.ctrl);
    round.extend(&layout.controlled_modexp_step(SHOR_BASES[0], 0, SHOR_N));
    round.h(layout.ctrl).measure(layout.ctrl);
    ProbeSample {
        kernel: Kernel::from_circuit("shor_round", round.clone()),
        circuit: round,
        shots: SHOR_SHOTS,
        threads,
        backend: "qpp",
        noise: None,
        args: Vec::new(),
    }
}

/// Paper fig4 "Parallel": both attempts at once, one simulator thread each.
pub struct ShorPar;

impl Workload for ShorPar {
    const NAME: &'static str = "shor_par";
    const SEED_TAG: &'static str = "shor";
    const CLIENTS: usize = 1;
    type Input = u64;
    type Output = ShorOutput;

    fn new(_seed: u64) -> Self {
        ShorPar
    }

    fn input(&self, op_seed: u64, _client: usize) -> u64 {
        op_seed
    }

    fn run(&self, seed: u64, trace: &mut OpTrace) -> ShorOutput {
        let futures = SHOR_BASES.map(|a| submit(trace, move |t| shor_task(a, 1, seed ^ a, t)));
        futures.map(|f| join(trace, f))
    }

    fn verify(&self, out: &ShorOutput) -> Result<u64, String> {
        verify_shor(out)
    }

    fn probe_sample(&self) -> ProbeSample {
        shor_probe_sample(1)
    }
}

/// Paper fig4 "One-by-One": the same attempts one after the other, each
/// with every core as simulator threads.
pub struct ShorSeq;

impl Workload for ShorSeq {
    const NAME: &'static str = "shor_seq";
    const SEED_TAG: &'static str = "shor";
    const CLIENTS: usize = 1;
    type Input = u64;
    type Output = ShorOutput;

    fn new(_seed: u64) -> Self {
        ShorSeq
    }

    fn input(&self, op_seed: u64, _client: usize) -> u64 {
        op_seed
    }

    fn run(&self, seed: u64, trace: &mut OpTrace) -> ShorOutput {
        let threads = qcor::available_parallelism();
        SHOR_BASES.map(|a| {
            let future = submit(trace, move |t| shor_task(a, threads, seed ^ a, t));
            join(trace, future)
        })
    }

    fn verify(&self, out: &ShorOutput) -> Result<u64, String> {
        verify_shor(out)
    }

    fn probe_sample(&self) -> ProbeSample {
        shor_probe_sample(qcor::available_parallelism())
    }
}

// --------------------------------------------------------------- vqe_sweep

const VQE_QUBITS: usize = 10;
const VQE_LAYERS: usize = 3;
const VQE_POINTS: usize = 32;
const VQE_SHOTS: usize = 128;
const VQE_TENANTS: [&str; 2] = ["vqe-a", "vqe-b"];

type Angles = [f64; 2 * VQE_LAYERS];

/// H = Σᵢ ZᵢZᵢ₊₁ + 0.5·XᵢXᵢ₊₁ + 0.3·Xᵢ on the 10-cycle.
pub fn vqe_hamiltonian() -> PauliSum {
    let mut h = PauliSum::zero();
    for i in 0..VQE_QUBITS {
        let j = (i + 1) % VQE_QUBITS;
        h = h
            + PauliSum::z(i) * PauliSum::z(j)
            + PauliSum::x(i) * PauliSum::x(j) * 0.5
            + PauliSum::x(i) * 0.3;
    }
    h
}

/// One 32-point angle sweep of a sampled QAOA objective, per tenant.
pub struct VqeSweep {
    hamiltonian: PauliSum,
    /// Point 0 of every sweep, and its exact energy.
    reference: Angles,
    exact_reference: f64,
    norm1: f64,
    /// Upper bound on the standard deviation of a sampled energy: within a
    /// measurement group the term estimates may be fully correlated.
    sigma: f64,
}

pub struct SweepInput {
    client: usize,
    seed: u64,
    points: Vec<Angles>,
}

fn vqe_point(
    h: PauliSum,
    tenant: &str,
    seed: u64,
    angles: Angles,
    t: &mut TaskTrace,
) -> Result<f64, QcorError> {
    t.span("core.initialize", || {
        initialize(InitOptions::default().threads(1).shots(VQE_SHOTS).seed(seed).tenant(tenant))
    })?;
    let q = t.span("core.qalloc", || qalloc(VQE_QUBITS));
    let objective = t.span("circuit.bind", || {
        let ansatz = qaoa_ansatz(&Graph::cycle(VQE_QUBITS), VQE_LAYERS);
        create_objective_function(ansatz, h, q, angles.len(), &HetMap::new().with("strategy", "sampled"))
    })?;
    t.span("xacc.execute", || objective.evaluate(&angles))
}

impl Workload for VqeSweep {
    const NAME: &'static str = "vqe_sweep";
    const CLIENTS: usize = 2;
    type Input = SweepInput;
    type Output = Vec<Result<f64, QcorError>>;

    fn new(seed: u64) -> Self {
        let hamiltonian = vqe_hamiltonian();
        let mut rng = StdRng::seed_from_u64(seed);
        let reference: Angles = std::array::from_fn(|_| rng.gen_range(0.1..1.4));
        let ansatz = qaoa_ansatz(&Graph::cycle(VQE_QUBITS), VQE_LAYERS);
        let exact = create_objective_function(
            ansatz,
            hamiltonian.clone(),
            qalloc(VQE_QUBITS),
            reference.len(),
            &HetMap::new(),
        )
        .and_then(|objective| objective.evaluate(&reference))
        .expect("the exact strategy needs no accelerator");
        let group_weights = group_qubit_wise(&hamiltonian)
            .groups
            .iter()
            .map(|g| g.terms.iter().map(|(c, _)| c.re.abs()).sum::<f64>())
            .collect::<Vec<_>>();
        VqeSweep {
            reference,
            exact_reference: exact,
            norm1: group_weights.iter().sum(),
            sigma: (group_weights.iter().map(|w| w * w).sum::<f64>() / VQE_SHOTS as f64).sqrt(),
            hamiltonian,
        }
    }

    fn input(&self, op_seed: u64, client: usize) -> SweepInput {
        let mut rng = StdRng::seed_from_u64(op_seed);
        let start = rng.gen_range(0.0..std::f64::consts::PI);
        let points = (0..VQE_POINTS)
            .map(|i| {
                let mut angles = self.reference;
                if i > 0 {
                    angles[0] = start + i as f64 * std::f64::consts::PI / VQE_POINTS as f64;
                }
                angles
            })
            .collect();
        SweepInput { client, seed: op_seed, points }
    }

    fn run(&self, input: SweepInput, trace: &mut OpTrace) -> Self::Output {
        // Tasks are fair-queued under the submitting thread's tenant.
        let tenant = VQE_TENANTS[input.client % VQE_TENANTS.len()];
        qcor::set_thread_tenant(Some(tenant));
        let futures: Vec<_> = input
            .points
            .into_iter()
            .enumerate()
            .map(|(i, angles)| {
                let (h, seed) = (self.hamiltonian.clone(), input.seed.wrapping_add(i as u64));
                submit(trace, move |t| vqe_point(h, tenant, seed, angles, t))
            })
            .collect();
        futures.into_iter().map(|f| join(trace, f)).collect()
    }

    fn verify(&self, out: &Self::Output) -> Result<u64, String> {
        let mut d = Digest::default();
        for (i, energy) in out.iter().enumerate() {
            let e = *energy.as_ref().map_err(|e| e.to_string())?;
            if !e.is_finite() || e.abs() > self.norm1 {
                return Err(format!("point {i}: energy {e} outside ±‖H‖₁ = {}", self.norm1));
            }
            d.word(e.to_bits());
        }
        let e0 = *out[0].as_ref().unwrap();
        if (e0 - self.exact_reference).abs() > 5.0 * self.sigma {
            return Err(format!(
                "point 0: sampled {e0} is more than 5σ (σ = {}) from exact {}",
                self.sigma, self.exact_reference
            ));
        }
        Ok(d.finish())
    }

    fn probe_sample(&self) -> ProbeSample {
        let kernel = qaoa_ansatz(&Graph::cycle(VQE_QUBITS), VQE_LAYERS);
        let mut circuit = kernel.bind(&self.reference).expect("ansatz takes 2p angles");
        let basis = &group_qubit_wise(&self.hamiltonian).groups[0].basis;
        circuit.extend(&qcor::pauli::expectation::measurement_circuit(basis, VQE_QUBITS));
        ProbeSample {
            circuit,
            shots: VQE_SHOTS,
            threads: 1,
            backend: "qpp",
            noise: None,
            kernel,
            args: self.reference.to_vec(),
        }
    }
}

// ----------------------------------------------------------- circuit_churn

const CHURN_QUBITS: usize = 12;
const CHURN_GATES: usize = 200;
const CHURN_SHOTS: usize = 16;

/// A fresh circuit structure per op: every compile-cache lookup misses.
pub struct CircuitChurn;

impl Workload for CircuitChurn {
    const NAME: &'static str = "circuit_churn";
    const CLIENTS: usize = 2;
    type Input = (u64, Circuit);
    type Output = CountsResult;

    fn new(_seed: u64) -> Self {
        CircuitChurn
    }

    fn input(&self, op_seed: u64, _client: usize) -> (u64, Circuit) {
        (op_seed, random_circuit(CHURN_QUBITS, CHURN_GATES, op_seed))
    }

    fn run(&self, (seed, circuit): (u64, Circuit), trace: &mut OpTrace) -> CountsResult {
        let opts = InitOptions::default().threads(1).shots(CHURN_SHOTS).seed(seed);
        let future = submit(trace, move |t| execute_body(opts, &circuit, t));
        join(trace, future)
    }

    fn verify(&self, out: &CountsResult) -> Result<u64, String> {
        verify_counts(out, CHURN_SHOTS, CHURN_QUBITS)
    }

    fn probe_sample(&self) -> ProbeSample {
        let circuit = random_circuit(CHURN_QUBITS, CHURN_GATES, 0);
        ProbeSample {
            kernel: Kernel::from_circuit("churn", circuit.clone()),
            circuit,
            shots: CHURN_SHOTS,
            threads: 1,
            backend: "qpp",
            noise: None,
            args: Vec::new(),
        }
    }
}

// -------------------------------------------------------------- noisy_traj

const NOISY_QUBITS: usize = 10;
const NOISY_GATES: usize = 120;
const NOISY_SHOTS: usize = 512;
const NOISY_DEPOLARIZING: f64 = 0.002;
const NOISY_READOUT: f64 = 0.01;

/// Trajectory sampling of one fixed circuit on the `qpp-noisy` backend.
pub struct NoisyTraj {
    circuit: Arc<Circuit>,
}

impl Workload for NoisyTraj {
    const NAME: &'static str = "noisy_traj";
    const CLIENTS: usize = 2;
    type Input = u64;
    type Output = CountsResult;

    fn new(_seed: u64) -> Self {
        NoisyTraj { circuit: Arc::new(random_circuit(NOISY_QUBITS, NOISY_GATES, FIXED_CIRCUIT_SEED)) }
    }

    fn input(&self, op_seed: u64, _client: usize) -> u64 {
        op_seed
    }

    fn run(&self, seed: u64, trace: &mut OpTrace) -> CountsResult {
        let circuit = Arc::clone(&self.circuit);
        let opts = InitOptions::default()
            .backend("qpp-noisy")
            .threads(1)
            .shots(NOISY_SHOTS)
            .seed(seed)
            .param("depolarizing", NOISY_DEPOLARIZING)
            .param("readout-error", NOISY_READOUT);
        let future = submit(trace, move |t| execute_body(opts, &circuit, t));
        join(trace, future)
    }

    fn verify(&self, out: &CountsResult) -> Result<u64, String> {
        verify_counts(out, NOISY_SHOTS, NOISY_QUBITS)
    }

    fn probe_sample(&self) -> ProbeSample {
        let circuit = Circuit::clone(&self.circuit);
        ProbeSample {
            kernel: Kernel::from_circuit("noisy", circuit.clone()),
            circuit,
            shots: NOISY_SHOTS,
            threads: 1,
            backend: "qpp-noisy",
            noise: Some((
                NoiseModel { depolarizing: NOISY_DEPOLARIZING, ..NoiseModel::default() },
                NOISY_READOUT,
            )),
            args: Vec::new(),
        }
    }
}

// ------------------------------------------------------------------ deep20

const DEEP_QUBITS: usize = 20;
const DEEP_GATES: usize = 300;
const DEEP_SHOTS: usize = 2;

/// The big-state regime: a 16 MiB state with every core as simulator threads.
pub struct Deep20 {
    circuit: Arc<Circuit>,
}

impl Workload for Deep20 {
    const NAME: &'static str = "deep20";
    const CLIENTS: usize = 1;
    type Input = u64;
    type Output = CountsResult;

    fn new(_seed: u64) -> Self {
        Deep20 { circuit: Arc::new(random_circuit(DEEP_QUBITS, DEEP_GATES, FIXED_CIRCUIT_SEED)) }
    }

    fn input(&self, op_seed: u64, _client: usize) -> u64 {
        op_seed
    }

    fn run(&self, seed: u64, trace: &mut OpTrace) -> CountsResult {
        let circuit = Arc::clone(&self.circuit);
        let opts = InitOptions::default().threads(qcor::available_parallelism()).shots(DEEP_SHOTS).seed(seed);
        let future = submit(trace, move |t| execute_body(opts, &circuit, t));
        join(trace, future)
    }

    fn verify(&self, out: &CountsResult) -> Result<u64, String> {
        verify_counts(out, DEEP_SHOTS, DEEP_QUBITS)
    }

    fn probe_sample(&self) -> ProbeSample {
        let circuit = Circuit::clone(&self.circuit);
        ProbeSample {
            kernel: Kernel::from_circuit("deep20", circuit.clone()),
            circuit,
            shots: DEEP_SHOTS,
            threads: qcor::available_parallelism(),
            backend: "qpp",
            noise: None,
            args: Vec::new(),
        }
    }
}

/// The XASM source the `circuit.parse_us` probe parses.
pub const PARSE_PROBE_XASM: &str = BELL_XASM;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_circuits_are_a_function_of_the_seed() {
        let a = random_circuit(12, 200, 9);
        assert_eq!(a, random_circuit(12, 200, 9));
        assert_ne!(a, random_circuit(12, 200, 10));
        assert_eq!(a.len(), 200 + 12);
        assert_eq!(a.measured_qubits().len(), 12);
    }

    #[test]
    fn hamiltonian_has_the_stated_terms() {
        let h = vqe_hamiltonian();
        assert_eq!(h.terms().len(), 3 * VQE_QUBITS);
        let norm1: f64 = h.terms().iter().map(|(c, _)| c.re.abs()).sum();
        assert!((norm1 - 18.0).abs() < 1e-12);
    }

    #[test]
    fn shor_outputs_verify_and_hash_by_value() {
        let f = |p, q| Some(Factors { p, q, base: 2, order: 4 });
        assert!(verify_shor(&[f(3, 5), None]).is_ok());
        assert_eq!(verify_shor(&[f(3, 5), None]), verify_shor(&[f(3, 5), None]));
        assert_ne!(verify_shor(&[f(3, 5), None]), verify_shor(&[None, f(3, 5)]));
        assert!(verify_shor(&[f(1, 15), None]).is_err());
        assert!(verify_shor(&[f(2, 7), None]).is_err());
    }

    #[test]
    fn counts_must_sum_to_shots_with_full_width_keys() {
        let counts = |pairs: &[(&str, usize)]| Ok(pairs.iter().map(|&(k, n)| (k.to_string(), n)).collect());
        assert!(verify_counts(&counts(&[("00", 3), ("11", 1)]), 4, 2).is_ok());
        assert!(verify_counts(&counts(&[("00", 3)]), 4, 2).is_err());
        assert!(verify_counts(&counts(&[("0", 4)]), 4, 2).is_err());
        assert!(verify_counts(&Err(QcorError::NotInitialized), 4, 2).is_err());
    }
}
