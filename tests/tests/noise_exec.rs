//! Cross-representation correctness of the unified noise-execution layer.
//!
//! The same compiled plan (`compile_noisy`) drives three consumers: the
//! pure-state replay, the exact density (superoperator) replay, and the
//! trajectory sampler on the batched shot scheduler. These tests pin the
//! contracts between them:
//!
//! * a **noiseless** compiled density replay is exactly the outer product
//!   |ψ⟩⟨ψ| of the compiled pure-state replay (1e-12 per entry),
//! * **trajectory counts** are samples from the exact distribution the
//!   density path computes (chi-squared at α = 0.001, seeded), including
//!   circuits with mid-circuit measurement/reset and readout error,
//! * **grouped** Pauli estimation (one measured circuit per qubit-wise
//!   commuting group) equals the per-term exact expectation to 1e-10 on
//!   random Hamiltonians, evaluated on exact distributions so the only
//!   possible discrepancy is the grouping itself,
//! * seeded trajectory counts are **pool-size invariant**, also when the
//!   channel-free shots share one clean state, which a plan evolves
//!   exactly once.

use qcor_circuit::{library, Circuit};
use qcor_pauli::{expectation, grouping::group_qubit_wise, Pauli, PauliString, PauliSum};
use qcor_pool::ThreadPool;
use qcor_sim::stats::{kernel_iteration_breakdown, reset_kernel_iterations};
use qcor_sim::{
    apply_readout_error, c64, compile_cached, compile_noisy, exact_distribution, run_noisy_shots, run_once,
    ApplyState, Counts, DensityMatrix, NoiseModel, NoisyOp, RunConfig, StateVector,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Critical values of the chi-squared distribution at α = 0.001.
/// Index = degrees of freedom (0 unused).
const CHI2_CRIT_P001: [f64; 9] = [f64::NAN, 10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322, 26.124];

fn pool(threads: usize) -> Arc<ThreadPool> {
    Arc::new(ThreadPool::new(threads))
}

/// A seeded random unitary circuit (no measurements) over `n` qubits.
fn random_unitary_circuit(n: usize, depth: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..depth {
        let q = rng.gen_range(0..n);
        match rng.gen_range(0..6) {
            0 => {
                c.h(q);
            }
            1 => {
                c.x(q);
            }
            2 => {
                c.ry(q, rng.gen::<f64>() * 3.0);
            }
            3 => {
                c.rz(q, rng.gen::<f64>() * 3.0);
            }
            4 => {
                c.s(q);
            }
            _ => {
                let other = (q + 1 + rng.gen_range(0..n - 1)) % n;
                c.cx(q, other);
            }
        }
    }
    c
}

fn prepared(circuit: &Circuit) -> StateVector {
    let mut state = StateVector::new(circuit.num_qubits());
    let mut rng = StdRng::seed_from_u64(0); // unitary circuits: unused
    run_once(&mut state, circuit, &mut rng);
    state
}

// ---- density ≡ outer product through the compiled path ----------------

#[test]
fn noiseless_compiled_density_is_the_outer_product_of_the_state() {
    let mut rng = StdRng::seed_from_u64(2024);
    for n in [2usize, 3] {
        for _ in 0..4 {
            let circuit = random_unitary_circuit(n, 14, &mut rng);
            // Pure path: compiled single-shot replay.
            let psi = prepared(&circuit);
            // Density path: replay the *same* lowered plan as superoperator
            // sweeps through the ApplyState implementation.
            let plan = compile_noisy(&circuit, &NoiseModel::default());
            let mut rho = DensityMatrix::new(n);
            for op in plan.ops() {
                match op {
                    NoisyOp::Unitary(k) => rho.apply_kernel_op(k),
                    other => panic!("noiseless plan must be purely unitary, got {other:?}"),
                }
            }
            for r in 0..1usize << n {
                for col in 0..1usize << n {
                    let expected = psi.amp(r) * psi.amp(col).conj();
                    let got = rho.entry(r, col);
                    assert!(
                        (got.re - expected.re).abs() < 1e-12 && (got.im - expected.im).abs() < 1e-12,
                        "ρ[{r},{col}] = {got:?}, |ψ⟩⟨ψ| gives {expected:?}"
                    );
                }
            }
        }
    }
}

// ---- trajectory counts vs the exact density distribution --------------

/// Chi-squared goodness-of-fit of trajectory `counts` against the exact
/// outcome distribution `dist` from the density path. Outcomes the exact
/// path assigns probability ~0 must not be sampled at all.
fn chi_squared_vs(dist: &BTreeMap<String, f64>, counts: &Counts, shots: usize) -> (f64, usize) {
    for key in counts.keys() {
        assert!(
            dist.get(key).is_some_and(|&p| p > 1e-12),
            "outcome {key} was sampled but has probability 0 in the exact distribution"
        );
    }
    let mut statistic = 0.0;
    let mut cells = 0usize;
    for (key, &p) in dist {
        if p < 1e-12 {
            continue;
        }
        let expected = p * shots as f64;
        let observed = counts.get(key).copied().unwrap_or(0) as f64;
        statistic += (observed - expected) * (observed - expected) / expected;
        cells += 1;
    }
    (statistic, cells - 1)
}

/// A circuit exercising mid-circuit measurement *and* reset: the first
/// measurement of q0 is later overwritten by the terminal one, and the
/// reset re-pumps q0 into a fresh Bell pair with q1.
fn mid_circuit_circuit() -> Circuit {
    let mut c = Circuit::new(2);
    c.h(0).measure(0).reset(0).h(0).cx(0, 1).measure(0).measure(1);
    c
}

#[test]
fn trajectory_counts_fit_the_exact_density_distribution() {
    const SHOTS: usize = 8192;
    let cells: [(&str, Circuit, NoiseModel, f64); 4] = [
        (
            "bell/depol+dephase",
            library::bell_kernel(),
            NoiseModel { depolarizing: 0.05, dephasing: 0.03, ..Default::default() },
            0.0,
        ),
        (
            "ghz3/damping",
            library::ghz_kernel(3),
            NoiseModel { amplitude_damping: 0.08, ..Default::default() },
            0.0,
        ),
        (
            "bell/depol+readout",
            library::bell_kernel(),
            NoiseModel { depolarizing: 0.04, ..Default::default() },
            0.02,
        ),
        (
            "midcircuit/depol",
            mid_circuit_circuit(),
            NoiseModel { depolarizing: 0.05, ..Default::default() },
            0.0,
        ),
    ];
    // The first and third cells take the shared-clean-state path; the
    // damping and mid-circuit cells replay every shot.
    for (label, circuit, noise, readout) in &cells {
        let shares = !label.contains("damping") && !label.contains("midcircuit");
        assert_eq!(compile_noisy(circuit, noise).shares_clean_state(), shares, "{label}");
        let exact = DensityMatrix::run_noisy_circuit(circuit, pool(1), noise).unwrap();
        let exact = apply_readout_error(&exact, *readout);
        let config = RunConfig { shots: SHOTS, seed: Some(4242), ..RunConfig::default() };
        let counts = run_noisy_shots(circuit, noise, *readout, pool(2), &config);
        assert_eq!(counts.values().sum::<usize>(), SHOTS, "{label}");
        let (statistic, df) = chi_squared_vs(&exact, &counts, SHOTS);
        let critical = CHI2_CRIT_P001[df];
        assert!(
            statistic < critical,
            "{label}: chi² = {statistic:.2} exceeds the α=0.001 critical value {critical} (df = {df})"
        );
    }
}

// ---- grouped vs per-term Pauli estimation ------------------------------

/// A random Hamiltonian over `n` qubits with `terms` non-identity terms.
fn random_hamiltonian(n: usize, terms: usize, rng: &mut StdRng) -> PauliSum {
    let mut h = PauliSum::constant(rng.gen::<f64>() - 0.5);
    for _ in 0..terms {
        let mut pairs: Vec<(usize, Pauli)> = Vec::new();
        for q in 0..n {
            if rng.gen::<f64>() < 0.6 {
                let p = match rng.gen_range(0..3) {
                    0 => Pauli::X,
                    1 => Pauli::Y,
                    _ => Pauli::Z,
                };
                pairs.push((q, p));
            }
        }
        if pairs.is_empty() {
            continue;
        }
        h.add_term(c64(rng.gen::<f64>() * 4.0 - 2.0, 0.0), PauliString::from_pairs(pairs));
    }
    h
}

/// ⟨H⟩ through the grouped measurement pipeline, but on **exact** group
/// distributions (f64-weighted parity sums instead of sampled counts), so
/// the comparison against the operator-level expectation isolates the
/// grouping/basis-rotation logic from shot noise.
fn grouped_exact_energy(h: &PauliSum, prep: &Circuit) -> f64 {
    let grouped = group_qubit_wise(h);
    let n = prep.num_qubits().max(h.num_qubits());
    let mut energy = grouped.constant;
    for group in &grouped.groups {
        let mut circuit = Circuit::new(n);
        circuit.extend(prep);
        circuit.extend(&expectation::measurement_circuit(&group.basis, n));
        let probs = exact_distribution(&circuit, pool(1)).unwrap();
        for (coeff, term) in &group.terms {
            let support = term.support();
            let value: f64 = probs
                .iter()
                .enumerate()
                .map(|(index, &p)| {
                    let parity = support.iter().filter(|&&q| index >> q & 1 == 1).count();
                    if parity % 2 == 0 {
                        p
                    } else {
                        -p
                    }
                })
                .sum();
            energy += coeff.re * value;
        }
    }
    energy
}

#[test]
fn grouped_estimation_matches_per_term_expectation_on_random_hamiltonians() {
    let mut rng = StdRng::seed_from_u64(7031);
    for trial in 0..8 {
        let n = 3;
        let h = random_hamiltonian(n, 6, &mut rng);
        let prep = random_unitary_circuit(n, 12, &mut rng);
        let per_term = expectation::exact(&prepared(&prep), &h);
        let grouped = grouped_exact_energy(&h, &prep);
        assert!(
            (per_term - grouped).abs() < 1e-10,
            "trial {trial}: per-term {per_term} vs grouped {grouped} for {h:?}"
        );
        // Grouping must actually merge commuting terms, not run one
        // execution per term (identity terms are folded into the constant).
        let non_identity = h.terms().iter().filter(|(_, t)| !t.is_identity()).count();
        assert!(group_qubit_wise(&h).groups.len() <= non_identity);
    }
}

// ---- trajectory determinism --------------------------------------------

/// Render counts in a canonical byte form.
fn canonical(counts: &Counts) -> String {
    counts.iter().map(|(bits, n)| format!("{bits}:{n};")).collect()
}

#[test]
fn seeded_trajectory_counts_are_pool_size_invariant() {
    // Amplitude damping is the channel whose jump probability depends on
    // the live state (a parallel reduction), so it is the one that would
    // expose pool-size-dependent RNG consumption or float ordering.
    let cells: [(&str, Circuit, NoiseModel, f64); 3] = [
        (
            "bell/all-channels",
            library::bell_kernel(),
            NoiseModel { depolarizing: 0.02, dephasing: 0.05, amplitude_damping: 0.04 },
            0.01,
        ),
        (
            "ghz3/damping",
            library::ghz_kernel(3),
            NoiseModel { amplitude_damping: 0.1, ..Default::default() },
            0.0,
        ),
        (
            "midcircuit/depol",
            mid_circuit_circuit(),
            NoiseModel { depolarizing: 0.05, ..Default::default() },
            0.02,
        ),
    ];
    for (label, circuit, noise, readout) in &cells {
        for chunk_shots in [None, Some(17)] {
            let config = RunConfig { shots: 1000, seed: Some(909), chunk_shots, ..RunConfig::default() };
            let narrow = run_noisy_shots(circuit, noise, *readout, pool(1), &config);
            let mid = run_noisy_shots(circuit, noise, *readout, pool(2), &config);
            let wide = run_noisy_shots(circuit, noise, *readout, pool(4), &config);
            assert_eq!(narrow.values().sum::<usize>(), 1000, "{label}");
            assert_eq!(canonical(&narrow), canonical(&mid), "{label}/chunk{chunk_shots:?}: pool 1 vs 2");
            assert_eq!(canonical(&narrow), canonical(&wide), "{label}/chunk{chunk_shots:?}: pool 1 vs 4");
        }
    }
}

/// A measured 8-qubit circuit of every gate family, for the shared
/// clean-state tests.
fn shared_state_circuit() -> Circuit {
    let mut circuit = random_unitary_circuit(8, 40, &mut StdRng::seed_from_u64(17));
    circuit.measure_all();
    circuit
}

#[test]
fn shared_clean_state_counts_are_pool_size_invariant() {
    let circuit = shared_state_circuit();
    let noise = NoiseModel { depolarizing: 0.01, dephasing: 0.005, ..Default::default() };
    assert!(compile_noisy(&circuit, &noise).shares_clean_state());
    for chunk_shots in [None, Some(1), Some(37)] {
        for par_threshold in [RunConfig::default().par_threshold, 1] {
            let config = RunConfig { shots: 600, seed: Some(77), chunk_shots, par_threshold };
            let narrow = run_noisy_shots(&circuit, &noise, 0.02, pool(1), &config);
            assert_eq!(narrow.values().sum::<usize>(), 600);
            for threads in [2, 4] {
                let wide = run_noisy_shots(&circuit, &noise, 0.02, pool(threads), &config);
                assert_eq!(
                    canonical(&narrow),
                    canonical(&wide),
                    "chunk{chunk_shots:?}/floor {par_threshold}: pool 1 vs {threads}"
                );
            }
        }
    }
}

#[test]
fn a_noisy_plan_evolves_its_clean_state_once() {
    // At p = 1e-12 no channel fires in 512 shots, so every shot samples the
    // shared clean state. On the sequential pool every chunk runs on this
    // thread, whose kernel counters must then hold exactly one evolution
    // of the fused plan.
    let circuit = shared_state_circuit();
    let noise = NoiseModel { depolarizing: 1e-12, ..Default::default() };
    assert!(compile_noisy(&circuit, &noise).shares_clean_state());
    reset_kernel_iterations();
    let mut state = StateVector::new(circuit.num_qubits());
    compile_cached(&circuit).sample_once(&mut state, &mut StdRng::seed_from_u64(0));
    let one_evolution = kernel_iteration_breakdown();
    assert!(one_evolution.iter().any(|&(_, n)| n > 0));
    reset_kernel_iterations();
    let config = RunConfig { shots: 512, seed: Some(5), ..RunConfig::default() };
    let counts = run_noisy_shots(&circuit, &noise, 0.0, ThreadPool::sequential(), &config);
    assert_eq!(counts.values().sum::<usize>(), 512);
    assert_eq!(kernel_iteration_breakdown(), one_evolution, "512 clean shots, one evolution");
}
