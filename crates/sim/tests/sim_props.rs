//! Property tests for simulator invariants: norm preservation, unitarity
//! round-trips, equivalence of sequential and pool-parallel execution, and
//! agreement between the optimizer and the simulator.

use proptest::prelude::*;
use qcor_circuit::{passes, Circuit, GateKind, Instruction};
use qcor_pool::ThreadPool;
use qcor_sim::{run_once, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Random unitary-only instruction over `n ≥ 3` qubits.
fn unitary_instruction(n: usize) -> impl Strategy<Value = Instruction> {
    let q = 0..n;
    let angle = -6.5f64..6.5;
    prop_oneof![
        q.clone().prop_map(|a| Instruction::new(GateKind::H, vec![a], vec![])),
        q.clone().prop_map(|a| Instruction::new(GateKind::X, vec![a], vec![])),
        q.clone().prop_map(|a| Instruction::new(GateKind::Y, vec![a], vec![])),
        q.clone().prop_map(|a| Instruction::new(GateKind::Z, vec![a], vec![])),
        q.clone().prop_map(|a| Instruction::new(GateKind::S, vec![a], vec![])),
        q.clone().prop_map(|a| Instruction::new(GateKind::T, vec![a], vec![])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| Instruction::new(GateKind::Rx, vec![a], vec![t])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| Instruction::new(GateKind::Ry, vec![a], vec![t])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| Instruction::new(GateKind::Rz, vec![a], vec![t])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| Instruction::new(GateKind::Phase, vec![a], vec![t])),
        (q.clone(), q.clone(), angle.clone()).prop_filter_map("distinct", |(a, b, t)| {
            (a != b).then(|| Instruction::new(GateKind::CPhase, vec![a, b], vec![t]))
        }),
        (q.clone(), q.clone(), angle).prop_filter_map("distinct", |(a, b, t)| {
            (a != b).then(|| Instruction::new(GateKind::CRz, vec![a, b], vec![t]))
        }),
        (q.clone(), q.clone()).prop_filter_map("distinct", |(a, b)| {
            (a != b).then(|| Instruction::new(GateKind::CX, vec![a, b], vec![]))
        }),
        (q.clone(), q.clone()).prop_filter_map("distinct", |(a, b)| {
            (a != b).then(|| Instruction::new(GateKind::CZ, vec![a, b], vec![]))
        }),
        (q.clone(), q.clone()).prop_filter_map("distinct", |(a, b)| {
            (a != b).then(|| Instruction::new(GateKind::Swap, vec![a, b], vec![]))
        }),
        (q.clone(), q.clone(), q.clone()).prop_filter_map("distinct", |(a, b, c)| {
            (a != b && b != c && a != c).then(|| Instruction::new(GateKind::CCX, vec![a, b, c], vec![]))
        }),
        (q.clone(), q.clone(), q).prop_filter_map("distinct", |(a, b, c)| {
            (a != b && b != c && a != c).then(|| Instruction::new(GateKind::CSwap, vec![a, b, c], vec![]))
        }),
    ]
}

fn unitary_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(unitary_instruction(n), 0..max_len).prop_map(move |insts| {
        let mut c = Circuit::new(n);
        for i in insts {
            c.push(i);
        }
        c
    })
}

fn states_close(a: &StateVector, b: &StateVector, eps: f64) -> bool {
    a.amplitudes().iter().zip(b.amplitudes()).all(|(x, y)| x.approx_eq(*y, eps))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unitary_evolution_preserves_norm(c in unitary_circuit(4, 40)) {
        let mut state = StateVector::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        run_once(&mut state, &c, &mut rng);
        prop_assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn u_then_u_dagger_restores_initial_state(c in unitary_circuit(4, 25)) {
        let mut state = StateVector::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        run_once(&mut state, &c, &mut rng);
        run_once(&mut state, &c.inverse().unwrap(), &mut rng);
        prop_assert!(state.amp(0).approx_eq(qcor_sim::c64(1.0, 0.0), 1e-8), "amp0 = {}", state.amp(0));
        for i in 1..state.len() {
            prop_assert!(state.amp(i).norm_sqr() < 1e-16);
        }
    }

    #[test]
    fn parallel_execution_matches_sequential(c in unitary_circuit(5, 30), threads in 2usize..6) {
        let mut seq = StateVector::new(5);
        let mut par = StateVector::with_pool(5, Arc::new(ThreadPool::new(threads)));
        // Fork every sweep: under the default floor a 5-qubit state runs
        // inline and this would compare the sequential path with itself.
        par.set_par_threshold(1);
        let mut rng1 = StdRng::seed_from_u64(0);
        let mut rng2 = StdRng::seed_from_u64(0);
        run_once(&mut seq, &c, &mut rng1);
        run_once(&mut par, &c, &mut rng2);
        prop_assert!(states_close(&seq, &par, 1e-10));
    }

    #[test]
    fn optimizer_preserves_simulated_state(c in unitary_circuit(4, 30)) {
        let mut optimized = c.clone();
        passes::optimize(&mut optimized);
        let mut a = StateVector::new(4);
        let mut b = StateVector::new(4);
        let mut rng1 = StdRng::seed_from_u64(0);
        let mut rng2 = StdRng::seed_from_u64(0);
        run_once(&mut a, &c, &mut rng1);
        run_once(&mut b, &optimized, &mut rng2);
        // The optimizer preserves states exactly (not just up to global
        // phase): identity removal is restricted to exact identities.
        prop_assert!(states_close(&a, &b, 1e-9));
    }

    #[test]
    fn measurement_probabilities_sum_to_one(c in unitary_circuit(4, 20)) {
        let mut state = StateVector::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        run_once(&mut state, &c, &mut rng);
        let total: f64 = state.probabilities().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for q in 0..4 {
            let p = state.prob_one(q);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&p));
        }
    }

    #[test]
    fn measure_then_remeasure_is_consistent(c in unitary_circuit(3, 15), q in 0usize..3, seed in 0u64..1000) {
        let mut state = StateVector::new(3);
        let mut rng = StdRng::seed_from_u64(seed);
        run_once(&mut state, &c, &mut rng);
        let first = state.measure(q, &mut rng);
        // After collapse the same qubit must measure identically.
        let second = state.measure(q, &mut rng);
        prop_assert_eq!(first, second);
    }

    #[test]
    fn permutation_preserves_norm(seed in 0u64..500) {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = StateVector::new(5);
        // Prepare a superposition first.
        let mut prep = Circuit::new(5);
        for q in 0..5 {
            prep.h(q);
            prep.phase(q, 0.1 + q as f64);
        }
        run_once(&mut state, &prep, &mut rng);
        let mut perm: Vec<usize> = (0..8).collect();
        perm.shuffle(&mut rng);
        state.apply_controlled_permutation(1 << 4, &[0, 1, 2], &perm);
        prop_assert!((state.norm_sqr() - 1.0).abs() < 1e-9);
    }
}
