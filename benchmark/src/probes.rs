//! Layer probes: after the op loop, call each layer directly on the
//! calling thread, on the workload's own kind of input, and time it.
//! Every value is the median of repeated calls.

use crate::workloads::{vqe_hamiltonian, ProbeSample, PARSE_PROBE_XASM};
use qcor::pauli::{expectation::term_from_counts, grouping::group_qubit_wise};
use qcor::sim::stats::{kernel_iteration_breakdown, reset_kernel_iterations};
use qcor::sim::{compile_cached, Counts, RunConfig, StateVector};
use qcor::{
    registry, AcceleratorBuffer, CompiledCircuit, ExecOptions, ExecutionService, HetMap, Kernel, ShotPlan,
    ThreadPool,
};
use qcor_algos::shor::{estimate_order, factors_from_order};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of every probe's RNG: the kernel iteration counts must repeat exactly.
const PROBE_SEED: u64 = 0x5EED;

/// Median wall time of `f` in microseconds: at least three calls, then
/// more until 50 ms or 200 calls have gone by.
fn median_us<R>(mut f: impl FnMut() -> R) -> f64 {
    let begun = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || (samples.len() < 200 && begun.elapsed() < Duration::from_millis(50)) {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::measure::median(&samples)
}

pub struct ProbeReport {
    /// `(metric name, value)` in reporting order.
    pub values: Vec<(&'static str, f64)>,
    /// `sim.kernel_iters` by kernel class, for the detail line.
    pub kernel_iters_by_class: Vec<(&'static str, u64)>,
}

pub fn run(sample: &ProbeSample) -> ProbeReport {
    let ProbeSample { circuit, shots, threads, .. } = sample;
    let config = RunConfig { shots: *shots, seed: Some(PROBE_SEED), ..RunConfig::default() };
    let pool = Arc::new(ThreadPool::new(*threads));
    let mut values = Vec::new();
    let mut put = |name: &'static str, v: f64| values.push((name, v));

    put("circuit.parse_us", median_us(|| Kernel::from_xasm(PARSE_PROBE_XASM, 2)));
    put("circuit.bind_us", median_us(|| sample.kernel.bind(&sample.args)));

    put("sim.compile_cold_us", median_us(|| CompiledCircuit::compile(circuit)));
    compile_cached(circuit);
    put("sim.compile_cached_us", median_us(|| compile_cached(circuit)));
    put("sim.plan_us", median_us(|| ShotPlan::for_circuit(circuit, &config)));
    put("sim.plan_chunks", ShotPlan::for_circuit(circuit, &config).num_chunks() as f64);
    let run_shots_us = median_us(|| match &sample.noise {
        Some((noise, readout)) => qcor::run_noisy_shots(circuit, noise, *readout, Arc::clone(&pool), &config),
        None => qcor::run_shots(circuit, Arc::clone(&pool), &config),
    });
    put("sim.run_shots_us", run_shots_us);

    // Pure-state replay on the sequential pool, where the thread-local
    // kernel counters are exact.
    let compiled = CompiledCircuit::compile(circuit);
    let mut state = StateVector::with_pool(circuit.num_qubits(), ThreadPool::sequential());
    let replay = |state: &mut StateVector| {
        state.reset_to_zero();
        compiled.run_once(state, &mut StdRng::seed_from_u64(PROBE_SEED))
    };
    put("sim.replay_us_per_shot", median_us(|| replay(&mut state)));
    reset_kernel_iterations();
    replay(&mut state);
    let breakdown = kernel_iteration_breakdown();
    let iters: u64 = breakdown.iter().map(|&(_, n)| n).sum();
    put("sim.kernel_iters", iters as f64);
    // Computed, not measured: each iteration reads and writes one pair of
    // 16-byte amplitudes.
    put("sim.replay_mib_computed", iters as f64 * 64.0 / (1 << 20) as f64);

    let params = sample.backend_params();
    let exec = ExecOptions { shots: *shots, seed: Some(PROBE_SEED) };
    put("xacc.clone_us", median_us(|| registry::get_accelerator(sample.backend, &params)));
    let through_backend_us = median_us(|| {
        let qpu = registry::get_accelerator(sample.backend, &params).expect("backend is registered");
        let mut buffer = AcceleratorBuffer::new(circuit.num_qubits());
        qpu.execute(&mut buffer, circuit, &exec).expect("probe circuit executes");
        buffer
    });
    put("xacc.backend_overhead_us", through_backend_us - run_shots_us);

    put(
        "core.service_roundtrip_us",
        median_us(|| ExecutionService::global().submit_blocking(|| ()).map(|f| f.get())),
    );

    put("pool.build_us", median_us(|| ThreadPool::new(*threads)));
    put("pool.batch_roundtrip_us", median_us(|| pool.submit_batch((0..*threads).map(|_| || ()).collect())));
    put(
        "pool.parallel_for_2048_us",
        median_us(|| {
            pool.parallel_for(0..2048, |r| {
                black_box(r);
            })
        }),
    );
    put(
        "pool.parallel_for_1m_us",
        median_us(|| {
            pool.parallel_for(0..1 << 20, |r| {
                black_box(r);
            })
        }),
    );

    let hamiltonian = vqe_hamiltonian();
    let grouped = group_qubit_wise(&hamiltonian);
    put("pauli.group_us", median_us(|| group_qubit_wise(&hamiltonian)));
    put("pauli.groups", grouped.groups.len() as f64);
    let group = &grouped.groups[0];
    let measured = group.basis.support();
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);
    let mut counts = Counts::new();
    for _ in 0..128 {
        let bits: String = measured.iter().map(|_| if rng.gen_bool(0.5) { '1' } else { '0' }).collect();
        *counts.entry(bits).or_default() += 1;
    }
    put(
        "pauli.reduce_us",
        median_us(|| {
            group.terms.iter().map(|(c, term)| c.re * term_from_counts(term, &counts, &measured)).sum::<f64>()
        }),
    );

    put(
        "algos.classical_us",
        median_us(|| {
            estimate_order(2, 15, black_box(&[64, 192, 128, 0]), 8).and_then(|r| factors_from_order(15, 2, r))
        }),
    );

    let kernel_iters_by_class = breakdown.iter().map(|&(class, n)| (class.label(), n)).collect();
    ProbeReport { values, kernel_iters_by_class }
}

impl ProbeSample {
    /// The registry params `qcor::initialize` passes for this workload.
    fn backend_params(&self) -> HetMap {
        let params = HetMap::new().with("threads", self.threads);
        match self.noise {
            Some((noise, readout)) => {
                params.with("depolarizing", noise.depolarizing).with("readout-error", readout)
            }
            None => params,
        }
    }
}
