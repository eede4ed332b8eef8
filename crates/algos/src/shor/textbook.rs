//! Textbook order-finding kernel: quantum phase estimation over the
//! modular-multiplication unitary, with the modular exponentiation applied
//! as a controlled classical permutation of the work register.
//!
//! Layout: work register `x` = qubits `[0, n)` (initialized to 1),
//! counting register = qubits `[n, n + t)`.

use qcor_circuit::arith::{bit_width, mod_pow};
use qcor_circuit::library;
use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use qcor_sim::{run_once, StateVector};
use rand::Rng;
use std::sync::Arc;

/// One phase-estimation sample: returns the measured counting value `y`
/// (t bits). The state is simulated on `pool`.
pub fn sample_phase(a: u64, n_mod: u64, t_bits: u32, pool: Arc<ThreadPool>, rng: &mut impl Rng) -> u64 {
    assert!(n_mod >= 3, "modulus must be at least 3");
    assert_eq!(qcor_circuit::arith::gcd(a % n_mod, n_mod), 1, "base must be coprime with N");
    let n = bit_width(n_mod);
    let t = t_bits as usize;
    let total = n + t;
    let mut state = StateVector::with_pool(total, pool);

    // |x⟩ = |1⟩, counting register in uniform superposition.
    let mut prep = Circuit::new(total);
    prep.x(0);
    for j in 0..t {
        prep.h(n + j);
    }
    run_once(&mut state, &prep, rng);

    // Controlled-U_{a^{2^j}} per counting qubit, as a permutation of the
    // work register: values ≥ N are untouched (identity), matching the
    // unitary's action on the relevant subspace.
    let work: Vec<usize> = (0..n).collect();
    let space = 1usize << n;
    for j in 0..t {
        let a_pow = mod_pow(a, 1u64 << j, n_mod);
        let perm: Vec<usize> = (0..space)
            .map(|x| if (x as u64) < n_mod { (a_pow * x as u64 % n_mod) as usize } else { x })
            .collect();
        state.apply_controlled_permutation(1 << (n + j), &work, &perm);
    }

    // Inverse QFT on the counting register, then measure it.
    let counting: Vec<usize> = (n..n + t).collect();
    let mut iqft = Circuit::new(total);
    library::append_iqft(&mut iqft, &counting);
    run_once(&mut state, &iqft, rng);

    let mut y = 0u64;
    for (pos, &q) in counting.iter().enumerate() {
        if state.measure(q, rng) == 1 {
            y |= 1 << pos;
        }
    }
    y
}

/// The period-finding kernel (`SHOR_KERNEL` of paper Algorithm 1): draws
/// `shots` phase samples. The default counting width is `2n` bits.
pub fn shor_kernel(a: u64, n_mod: u64, shots: usize, pool: Arc<ThreadPool>, rng: &mut impl Rng) -> Vec<u64> {
    let t_bits = 2 * bit_width(n_mod) as u32;
    (0..shots).map(|_| sample_phase(a, n_mod, t_bits, Arc::clone(&pool), rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shor::fractions::convergent_denominators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq_pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(1))
    }

    #[test]
    fn phase_peaks_recover_order_of_7_mod_15() {
        // ord_15(7) = 4.
        let mut rng = StdRng::seed_from_u64(1);
        let samples = shor_kernel(7, 15, 12, seq_pool(), &mut rng);
        let mut found = false;
        for y in samples {
            for r in convergent_denominators(y, 8, 15) {
                if mod_pow(7, r, 15) == 1 {
                    assert_eq!(r % 4, 0, "any valid exponent is a multiple of the order");
                    found = true;
                }
            }
        }
        assert!(found, "at least one sample must recover the order");
    }

    #[test]
    fn order_of_2_mod_7_is_3() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples = shor_kernel(2, 7, 12, seq_pool(), &mut rng);
        let mut found = false;
        for y in samples {
            for r in convergent_denominators(y, 6, 7) {
                if r > 0 && mod_pow(2, r, 7) == 1 && r % 3 == 0 {
                    found = true;
                }
            }
        }
        assert!(found, "order 3 must be recoverable");
    }

    #[test]
    fn measurement_distribution_peaks_at_multiples() {
        // For a=7, N=15 (r=4, t=8): ideal peaks at y ∈ {0, 64, 128, 192}.
        let mut rng = StdRng::seed_from_u64(3);
        let mut near_peak = 0usize;
        let shots = 40;
        for _ in 0..shots {
            let y = sample_phase(7, 15, 8, seq_pool(), &mut rng);
            let nearest = [0u64, 64, 128, 192, 256].iter().map(|p| p.abs_diff(y)).min().unwrap();
            if nearest <= 2 {
                near_peak += 1;
            }
        }
        // r divides 2^t exactly here, so the distribution is ideal:
        // every sample lands exactly on a peak.
        assert!(near_peak >= shots * 9 / 10, "{near_peak}/{shots} near peaks");
    }

    #[test]
    fn parallel_pool_gives_valid_samples() {
        // 12 counting bits: a 16-qubit (1 MiB) register is the smallest
        // whose full-width sweeps pass the simulator's fork floor on three
        // threads — at the 8 bits of the tests above every sweep would run
        // inline and the pool would go unexercised.
        let pool = Arc::new(ThreadPool::new(3));
        let forked_before = qcor_sim::stats::forked_sweeps();
        let y = sample_phase(7, 15, 12, pool, &mut StdRng::seed_from_u64(4));
        assert!(qcor_sim::stats::forked_sweeps() > forked_before, "the 3-thread pool was never used");
        assert!(y < 4096);
        assert_eq!(y, sample_phase(7, 15, 12, seq_pool(), &mut StdRng::seed_from_u64(4)));
    }

    #[test]
    #[should_panic(expected = "coprime")]
    fn non_coprime_base_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        sample_phase(5, 15, 4, seq_pool(), &mut rng);
    }
}
