//! Pins the kernels' fork rule (`StateVector`'s module docs): which sweeps
//! go to the pool, and that the answer never changes a bit of the result.
//!
//! `stats::forked_sweeps` is thread-local and recorded on the issuing
//! thread, so every assertion here is a difference taken on the test's own
//! thread and cannot race a sibling test.

use qcor_circuit::arith::ShorLayout;
use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use qcor_sim::stats::forked_sweeps;
use qcor_sim::{run_shots, CompiledCircuit, Granularity, RunConfig, StateVector, FORK_MIN_BYTES_PER_THREAD};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Qubits of the smallest register whose full-width sweeps fork on two
/// threads under the default floor (16-byte amplitudes).
const FLOOR_QUBITS: usize = (2 * FORK_MIN_BYTES_PER_THREAD / 16).trailing_zeros() as usize;

/// Qubits of the smallest register the compiled executor replays
/// cache-blocked (`compile::CACHE_BLOCK_MIN_QUBITS`): from here its
/// block-local runs go through a forked `for_each_block`.
const CACHE_BLOCK_MIN_QUBITS: usize = 18;

/// The Beauregard round `sample_phase` replays per phase bit on the
/// 11-qubit register of N = 15, as the benchmark's Shor probe builds it.
fn shor_round() -> Circuit {
    let layout = ShorLayout::for_modulus(15);
    let mut round = Circuit::new(layout.num_qubits());
    round.h(layout.ctrl);
    round.extend(&layout.controlled_modexp_step(2, 0, 15));
    round.h(layout.ctrl).measure(layout.ctrl);
    round
}

/// A layered circuit touching every kernel family the compiler emits for
/// it (dense, fused pairs, flips, phases, swaps) plus mid-circuit
/// measurement, so both `dispatch` and `reduce` are exercised.
fn layered(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n - 1 {
        c.cx(q, q + 1);
        c.rz(q, 0.1 * (q as f64 + 1.0));
    }
    c.measure(0);
    c.swap(1, n - 1);
    c.cphase(2, n - 2, 0.7);
    c.ccx(0, 1, 2);
    for q in 0..n {
        c.ry(q, 0.3 + 0.05 * q as f64);
    }
    c.measure_all();
    c
}

/// Replay `circuit` once on `pool` with the given fork floor (`None` = the
/// default); returns the final amplitudes' bits, the measured bitstring and
/// how many sweeps forked.
fn replay(circuit: &Circuit, pool: Arc<ThreadPool>, floor: Option<usize>) -> (Vec<(u64, u64)>, String, u64) {
    let mut state = StateVector::with_pool(circuit.num_qubits(), pool);
    if let Some(bytes) = floor {
        state.set_par_threshold(bytes);
    }
    let before = forked_sweeps();
    let record = CompiledCircuit::compile(circuit).run_once(&mut state, &mut StdRng::seed_from_u64(11));
    let forked = forked_sweeps() - before;
    let bits = state.amplitudes().iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect();
    (bits, record.bitstring(), forked)
}

#[test]
fn shor_round_never_forks_under_the_default_floor() {
    let round = shor_round();
    assert_eq!(round.num_qubits(), 11);
    let (seq_amps, seq_bits, _) = replay(&round, ThreadPool::sequential(), None);
    let pool = Arc::new(ThreadPool::new(4));
    let (amps, bits, forked) = replay(&round, Arc::clone(&pool), None);
    assert_eq!(forked, 0, "a 32 KiB register must run every sweep inline");
    assert_eq!((amps, bits), (seq_amps.clone(), seq_bits.clone()));
    // The override brings Quantum++'s unconditional forking back — and
    // still moves no bit.
    let (amps, bits, forked) = replay(&round, pool, Some(1));
    assert!(forked > 100, "par_threshold = 1 must fork the round's sweeps, forked {forked}");
    assert_eq!((amps, bits), (seq_amps, seq_bits));
}

#[test]
fn forking_starts_at_the_floor_and_moves_no_bit() {
    for n in [FLOOR_QUBITS - 1, FLOOR_QUBITS, FLOOR_QUBITS + 1, CACHE_BLOCK_MIN_QUBITS] {
        let circuit = layered(n);
        let (seq_amps, seq_bits, seq_forked) = replay(&circuit, ThreadPool::sequential(), None);
        assert_eq!(seq_forked, 0, "a team of one never forks");
        let pool = Arc::new(ThreadPool::new(2));
        let (amps, bits, forked) = replay(&circuit, Arc::clone(&pool), None);
        if n < FLOOR_QUBITS {
            assert_eq!(forked, 0, "n={n}: below the floor nothing forks");
        } else {
            assert!(forked > 0, "n={n}: a full-width sweep at the floor must fork");
        }
        assert!(amps == seq_amps && bits == seq_bits, "n={n}: default floor changed the result");
        let (amps, bits, forced) = replay(&circuit, pool, Some(1));
        if n < CACHE_BLOCK_MIN_QUBITS {
            assert!(forced > forked, "n={n}: the override must fork the controlled sweeps too");
        } else {
            assert_eq!(forced, forked, "n={n}: every sweep of a blocked replay already forks");
        }
        assert!(amps == seq_amps && bits == seq_bits, "n={n}: forced forking changed the result");
    }
}

#[test]
fn seeded_counts_do_not_depend_on_the_floor() {
    for n in [FLOOR_QUBITS - 1, FLOOR_QUBITS, FLOOR_QUBITS + 1] {
        let circuit = layered(n);
        // Sequential granularity keeps every size on the single work item
        // whose sweeps are offered the pool.
        let config =
            RunConfig { shots: 3, seed: Some(5), granularity: Granularity::Sequential, ..Default::default() };
        let reference = run_shots(&circuit, ThreadPool::sequential(), &config);
        assert_eq!(reference.values().sum::<usize>(), 3);
        for par_threshold in [config.par_threshold, 1] {
            let config = RunConfig { par_threshold, ..config.clone() };
            let before = forked_sweeps();
            let counts = run_shots(&circuit, Arc::new(ThreadPool::new(2)), &config);
            let forked = forked_sweeps() - before;
            assert_eq!(counts, reference, "n={n} par_threshold={par_threshold}");
            let must_fork = par_threshold == 1 || n >= FLOOR_QUBITS;
            assert_eq!(forked > 0, must_fork, "n={n} par_threshold={par_threshold} forked {forked}");
        }
    }
}
