//! Beauregard order-finding kernel (paper reference \[20\]): 2n+3 qubits,
//! gate-level modular exponentiation, and the semiclassical one-qubit
//! inverse QFT (iterative phase estimation with measurement feedback).
//!
//! Per sample, the phase φ = s/r is read out bit by bit: iteration `i`
//! (from the least significant fraction bit upward) applies the controlled
//! U_{a^{2^{i−1}}} built from Draper adders, rotates the control by the
//! correction determined by previously measured bits, and measures it.
//! This needs mid-circuit measurement and classical feedback, which this
//! reproduction drives directly against the simulator state — the same
//! interactivity a hardware runtime needs from its control system.

use qcor_circuit::arith::{bit_width, ShorLayout};
use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use qcor_sim::{run_once, StateVector};
use rand::Rng;
use std::collections::HashMap;
use std::f64::consts::TAU;
use std::sync::{Arc, Mutex, OnceLock};

/// Cached per-(a, N) modular-exponentiation step circuits.
pub struct ModExpEngine {
    layout: ShorLayout,
    n_mod: u64,
    /// `steps[k]` implements controlled-U_{a^{2^k}}.
    steps: Vec<Circuit>,
    /// Number of phase bits read out (2n).
    pub t_bits: usize,
}

impl ModExpEngine {
    /// Build the step circuits for base `a` modulo `n_mod`.
    pub fn new(a: u64, n_mod: u64) -> Self {
        assert!(n_mod >= 3, "modulus must be at least 3");
        assert_eq!(qcor_circuit::arith::gcd(a % n_mod, n_mod), 1, "base must be coprime with N");
        let layout = ShorLayout::for_modulus(n_mod);
        let t_bits = 2 * bit_width(n_mod);
        let steps = (0..t_bits as u32).map(|k| layout.controlled_modexp_step(a, k, n_mod)).collect();
        ModExpEngine { layout, n_mod, steps, t_bits }
    }

    /// Total qubits (2n + 3).
    pub fn num_qubits(&self) -> usize {
        self.layout.num_qubits()
    }

    /// Total gate count across all cached steps.
    pub fn gate_count(&self) -> usize {
        self.steps.iter().map(Circuit::len).sum()
    }

    /// Draw one phase sample `y` (t bits) via semiclassical QPE.
    pub fn sample_phase(&self, pool: Arc<ThreadPool>, rng: &mut impl Rng) -> u64 {
        let ctrl = self.layout.ctrl;
        let t = self.t_bits;
        let mut state = StateVector::with_pool(self.num_qubits(), pool);

        // x ← 1.
        let mut prep = Circuit::new(self.num_qubits());
        prep.x(self.layout.x[0]);
        run_once(&mut state, &prep, rng);

        // bits[i] = φ_i (1-indexed; φ_1 is the most significant fraction bit).
        let mut bits = vec![0u8; t + 2];
        for i in (1..=t).rev() {
            let mut round = Circuit::new(self.num_qubits());
            round.h(ctrl);
            round.extend(&self.steps[i - 1]); // controlled U^{2^{i-1}}

            // Semiclassical correction from the already-measured lower bits.
            let mut angle = 0.0;
            for (l, &bit) in bits.iter().enumerate().take(t + 1).skip(i + 1) {
                if bit == 1 {
                    angle -= TAU / (1u64 << (l - i + 1)) as f64;
                }
            }
            if angle != 0.0 {
                round.phase(ctrl, angle);
            }
            round.h(ctrl);
            run_once(&mut state, &round, rng);
            let m = state.measure(ctrl, rng);
            bits[i] = m;
            if m == 1 {
                // Return the control to |0⟩ for the next round.
                let mut fix = Circuit::new(self.num_qubits());
                fix.x(ctrl);
                run_once(&mut state, &fix, rng);
            }
        }
        let mut y = 0u64;
        for (i, &bit) in bits.iter().enumerate().take(t + 1).skip(1) {
            if bit == 1 {
                y |= 1 << (t - i);
            }
        }
        y
    }

    /// The modulus this engine was built for.
    pub fn modulus(&self) -> u64 {
        self.n_mod
    }
}

/// The Beauregard period-finding kernel: `shots` phase samples for base
/// `a` mod `n_mod`, simulated on `pool`.
pub fn shor_kernel(a: u64, n_mod: u64, shots: usize, pool: Arc<ThreadPool>, rng: &mut impl Rng) -> Vec<u64> {
    let engine = shared_engine(a, n_mod);
    (0..shots).map(|_| engine.sample_phase(Arc::clone(&pool), rng)).collect()
}

/// Engines kept by [`shared_engine`]; more distinct `(a, N)` than this
/// empties the memo first, which bounds its memory.
const ENGINE_MEMO_CAPACITY: usize = 16;

/// The engine for `(a, n_mod)`, built once per process: its step circuits
/// depend on nothing else, so every attempt on the same base shares them.
fn shared_engine(a: u64, n_mod: u64) -> Arc<ModExpEngine> {
    type Memo = Mutex<HashMap<(u64, u64), Arc<ModExpEngine>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let memo = MEMO.get_or_init(Default::default);
    let cached = memo.lock().expect("engine memo poisoned").get(&(a, n_mod)).cloned();
    if let Some(engine) = cached {
        return engine;
    }
    // Built outside the lock: a concurrent miss builds an identical engine.
    let engine = Arc::new(ModExpEngine::new(a, n_mod));
    let mut memo = memo.lock().expect("engine memo poisoned");
    if memo.len() >= ENGINE_MEMO_CAPACITY {
        memo.clear();
    }
    Arc::clone(memo.entry((a, n_mod)).or_insert(engine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shor::fractions::convergent_denominators;
    use qcor_circuit::arith::mod_pow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq_pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(1))
    }

    /// Gate-level check of the controlled modular multiplier: with the
    /// control set, |x⟩ must map to |a·x mod N⟩ with ancillas restored.
    #[test]
    fn controlled_ua_multiplies_classically() {
        let n_mod = 15u64;
        let a = 7u64;
        let layout = ShorLayout::for_modulus(n_mod);
        let step = layout.controlled_modexp_step(a, 0, n_mod); // U_a
        let mut rng = StdRng::seed_from_u64(0);
        for x0 in [1u64, 2, 4, 7, 11] {
            let mut state = StateVector::new(layout.num_qubits());
            let mut prep = Circuit::new(layout.num_qubits());
            prep.x(layout.ctrl);
            for (pos, &q) in layout.x.iter().enumerate() {
                if x0 >> pos & 1 == 1 {
                    prep.x(q);
                }
            }
            run_once(&mut state, &prep, &mut rng);
            run_once(&mut state, &step, &mut rng);
            // Expected basis state: ctrl=1, x = a·x0 mod N, b = 0, anc = 0.
            let expect_x = a * x0 % n_mod;
            let mut expect_idx = 1usize << layout.ctrl;
            for (pos, &q) in layout.x.iter().enumerate() {
                if expect_x >> pos & 1 == 1 {
                    expect_idx |= 1 << q;
                }
            }
            let p = state.amp(expect_idx).norm_sqr();
            assert!(
                p > 0.999,
                "x0={x0}: expected |{expect_x}⟩ with prob 1, got {p} (state norm {})",
                state.norm_sqr()
            );
        }
    }

    #[test]
    fn control_off_is_identity() {
        let n_mod = 15u64;
        let layout = ShorLayout::for_modulus(n_mod);
        let step = layout.controlled_modexp_step(7, 0, n_mod);
        let mut rng = StdRng::seed_from_u64(0);
        let mut state = StateVector::new(layout.num_qubits());
        let mut prep = Circuit::new(layout.num_qubits());
        prep.x(layout.x[0]).x(layout.x[1]); // x = 3, ctrl = 0
        run_once(&mut state, &prep, &mut rng);
        run_once(&mut state, &step, &mut rng);
        let expect_idx = (1 << layout.x[0]) | (1 << layout.x[1]);
        assert!(state.amp(expect_idx).norm_sqr() > 0.999);
    }

    #[test]
    fn recovers_order_of_7_mod_15() {
        let mut rng = StdRng::seed_from_u64(11);
        let samples = shor_kernel(7, 15, 8, seq_pool(), &mut rng);
        let mut found = false;
        for y in samples {
            for r in convergent_denominators(y, 8, 15) {
                if mod_pow(7, r, 15) == 1 {
                    found = true;
                }
            }
        }
        assert!(found, "Beauregard kernel must recover a valid order");
    }

    #[test]
    fn engine_reports_sane_metadata() {
        let engine = ModExpEngine::new(2, 7);
        assert_eq!(engine.num_qubits(), 2 * 3 + 3);
        assert_eq!(engine.t_bits, 6);
        assert_eq!(engine.modulus(), 7);
        assert!(engine.gate_count() > 500, "gate-level modexp is large");
    }

    #[test]
    fn shared_engine_is_built_once_and_samples_like_a_fresh_one() {
        assert!(Arc::ptr_eq(&shared_engine(4, 15), &shared_engine(4, 15)));
        let fresh = ModExpEngine::new(4, 15);
        let mut rng = StdRng::seed_from_u64(5);
        let expect: Vec<u64> = (0..3).map(|_| fresh.sample_phase(seq_pool(), &mut rng)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(shor_kernel(4, 15, 3, seq_pool(), &mut rng), expect);
    }
}
