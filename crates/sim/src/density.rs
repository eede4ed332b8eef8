//! Density-matrix simulation — exact mixed-state evolution, used by the
//! `qpp-density` backend for noise studies (the paper's future work calls
//! for "additional quantum simulation ... back ends").
//!
//! Representation: vec(ρ) as a [`StateVector`] over `2n` qubits — entry
//! ρ_{r,c} lives at vector index `r | (c << n)` (ket bits low, bra bits
//! high). Unitary evolution ρ → UρU† is then `U` applied to the ket
//! qubits and `conj(U)` applied to the bra qubits, which lets every
//! (pool-parallelized) state-vector kernel be reused verbatim. Quantum
//! channels are applied as explicit Kraus sums.

use crate::apply::ApplyState;
use crate::complex::Complex64;
use crate::gates::apply_instruction;
use crate::noise::{compile_noisy, NoisyOp};
use crate::state::StateVector;
use qcor_circuit::{Circuit, GateKind, Instruction};
use qcor_pool::ThreadPool;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An exact n-qubit density matrix (n ≤ 12).
pub struct DensityMatrix {
    n: usize,
    /// vec(ρ) over 2n qubits.
    vec_state: StateVector,
}

impl std::fmt::Debug for DensityMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DensityMatrix").field("num_qubits", &self.n).finish()
    }
}

impl DensityMatrix {
    /// |0...0⟩⟨0...0| on `n` qubits.
    pub fn new(n: usize) -> Self {
        Self::with_pool(n, ThreadPool::sequential())
    }

    /// |0...0⟩⟨0...0| with kernels work-shared over `pool`.
    pub fn with_pool(n: usize, pool: Arc<ThreadPool>) -> Self {
        assert!(n <= 12, "density matrix of {n} qubits will not fit in memory");
        DensityMatrix { n, vec_state: StateVector::with_pool(2 * n, pool) }
    }

    /// Build |ψ⟩⟨ψ| from a pure state.
    pub fn from_pure(state: &StateVector) -> Self {
        let n = state.num_qubits();
        assert!(n <= 12);
        let dim = 1usize << n;
        let mut amps = vec![Complex64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                amps[r | (c << n)] = state.amp(r) * state.amp(c).conj();
            }
        }
        // vec(ρ) of a pure state has unit 2-norm, so this passes the
        // normalization check in from_amplitudes.
        DensityMatrix { n, vec_state: StateVector::from_amplitudes(amps) }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Override the fork floor of the vec(ρ) sweeps: minimum bytes of a
    /// sweep per pool thread before it is work-shared (see
    /// [`StateVector::set_par_threshold`]; `1` forks every sweep).
    pub fn set_par_threshold(&mut self, bytes_per_thread: usize) {
        self.vec_state.set_par_threshold(bytes_per_thread);
    }

    /// The pool this density matrix's sweeps work-share over.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        self.vec_state.pool()
    }

    /// A deep copy sharing this matrix's pool and dispatch configuration
    /// (used by the branching mid-circuit-measurement replay).
    fn clone_like(&self) -> Self {
        DensityMatrix {
            n: self.n,
            vec_state: self.vec_state.raw_with_amplitudes_like(self.vec_state.amplitudes().to_vec()),
        }
    }

    /// ρ_{r,c}.
    pub fn entry(&self, r: usize, c: usize) -> Complex64 {
        self.vec_state.amp(r | (c << self.n))
    }

    /// Tr ρ (1 for a valid state).
    pub fn trace(&self) -> Complex64 {
        let dim = 1usize << self.n;
        let mut acc = Complex64::ZERO;
        for r in 0..dim {
            acc += self.entry(r, r);
        }
        acc
    }

    /// Tr ρ² — 1 for pure states, < 1 for mixed states.
    pub fn purity(&self) -> f64 {
        // Tr ρ² = Σ_{r,c} ρ_{r,c} ρ_{c,r} = Σ |ρ_{r,c}|² for Hermitian ρ.
        self.vec_state.amplitudes().iter().map(|a| a.norm_sqr()).sum()
    }

    /// The diagonal as a probability distribution over basis states.
    pub fn diagonal_probabilities(&self) -> Vec<f64> {
        let dim = 1usize << self.n;
        (0..dim).map(|r| self.entry(r, r).re.max(0.0)).collect()
    }

    /// Apply a unitary instruction (measurements/resets are rejected —
    /// use [`DensityMatrix::measure_probabilities`] and channels instead).
    pub fn apply_unitary(&mut self, inst: &Instruction) {
        assert!(inst.gate.is_unitary(), "apply_unitary cannot process {}", inst.gate);
        if inst.gate == GateKind::Barrier {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0); // unitaries never consult it

        // Ket side: the instruction as-is on the low qubits.
        apply_instruction(&mut self.vec_state, inst, &mut rng);
        // Bra side: the conjugated instruction on the high qubits.
        let shifted: Vec<usize> = inst.qubits.iter().map(|&q| q + self.n).collect();
        match inst.gate {
            // Real matrices: conj(U) = U.
            GateKind::H
            | GateKind::X
            | GateKind::Z
            | GateKind::Ry
            | GateKind::CX
            | GateKind::CZ
            | GateKind::Swap
            | GateKind::CCX
            | GateKind::CSwap => {
                let mirrored = Instruction::new(inst.gate, shifted, inst.params.clone());
                apply_instruction(&mut self.vec_state, &mirrored, &mut rng);
            }
            // Angle-parameterized phases/rotations: conj(U(θ)) = U(−θ).
            GateKind::Rx
            | GateKind::Rz
            | GateKind::Phase
            | GateKind::CPhase
            | GateKind::CRz
            | GateKind::CCPhase => {
                let mirrored = Instruction::new(inst.gate, shifted, vec![-inst.params[0]]);
                apply_instruction(&mut self.vec_state, &mirrored, &mut rng);
            }
            // Fixed phases: conj(S) = S†, conj(T) = T†.
            GateKind::S | GateKind::Sdg | GateKind::T | GateKind::Tdg => {
                let kind = match inst.gate {
                    GateKind::S => GateKind::Sdg,
                    GateKind::Sdg => GateKind::S,
                    GateKind::T => GateKind::Tdg,
                    _ => GateKind::T,
                };
                let mirrored = Instruction::new(kind, shifted, vec![]);
                apply_instruction(&mut self.vec_state, &mirrored, &mut rng);
            }
            // conj(Y) = −Y: apply Y then negate everything (linear rep).
            GateKind::Y => {
                let mirrored = Instruction::new(GateKind::Y, shifted, vec![]);
                apply_instruction(&mut self.vec_state, &mirrored, &mut rng);
                self.vec_state.scale_all(Complex64::from_real(-1.0));
            }
            // conj(CY) = CY followed by Z on the control.
            GateKind::CY => {
                let mirrored = Instruction::new(GateKind::CY, shifted.clone(), vec![]);
                apply_instruction(&mut self.vec_state, &mirrored, &mut rng);
                let z = Instruction::new(GateKind::Z, vec![shifted[0]], vec![]);
                apply_instruction(&mut self.vec_state, &z, &mut rng);
            }
            // conj(U3(θ, φ, λ)) = U3(θ, −φ, −λ).
            GateKind::U3 => {
                let mirrored = Instruction::new(
                    GateKind::U3,
                    shifted,
                    vec![inst.params[0], -inst.params[1], -inst.params[2]],
                );
                apply_instruction(&mut self.vec_state, &mirrored, &mut rng);
            }
            GateKind::Measure | GateKind::Reset | GateKind::Barrier => unreachable!(),
        }
    }

    /// Apply a single-qubit channel given by Kraus operators:
    /// ρ ← Σ_k K_k ρ K_k†.
    pub fn apply_kraus_1q(&mut self, q: usize, kraus: &[[[Complex64; 2]; 2]]) {
        assert!(q < self.n);
        let original = self.vec_state.amplitudes().to_vec();
        let mut accumulated: Option<Vec<Complex64>> = None;
        for k in kraus {
            // Branch states inherit the density matrix's pool and dispatch
            // configuration, so Kraus sweeps work-share like unitary ones.
            let mut branch = self.vec_state.raw_with_amplitudes_like(original.clone());
            // K on the ket qubit, conj(K) on the bra qubit.
            branch.apply_single(q, *k, 0);
            let conj = [[k[0][0].conj(), k[0][1].conj()], [k[1][0].conj(), k[1][1].conj()]];
            branch.apply_single(q + self.n, conj, 0);
            match &mut accumulated {
                None => accumulated = Some(branch.amplitudes().to_vec()),
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(branch.amplitudes()) {
                        *a += *b;
                    }
                }
            }
        }
        self.vec_state =
            self.vec_state.raw_with_amplitudes_like(accumulated.expect("at least one Kraus operator"));
    }

    /// Depolarizing channel with probability `p`:
    /// ρ ← (1−p)ρ + p/3 (XρX + YρY + ZρZ).
    pub fn depolarize(&mut self, q: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        let s0 = (1.0 - p).sqrt();
        let s1 = (p / 3.0).sqrt();
        let kraus = [
            [[Complex64::from_real(s0), Complex64::ZERO], [Complex64::ZERO, Complex64::from_real(s0)]],
            [[Complex64::ZERO, Complex64::from_real(s1)], [Complex64::from_real(s1), Complex64::ZERO]], // √w·X
            [[Complex64::ZERO, Complex64::new(0.0, -s1)], [Complex64::new(0.0, s1), Complex64::ZERO]], // √w·Y
            [[Complex64::from_real(s1), Complex64::ZERO], [Complex64::ZERO, Complex64::from_real(-s1)]], // √w·Z
        ];
        self.apply_kraus_1q(q, &kraus);
    }

    /// Amplitude damping with rate `gamma`.
    pub fn amplitude_damp(&mut self, q: usize, gamma: f64) {
        assert!((0.0..=1.0).contains(&gamma));
        let kraus = [
            [
                [Complex64::ONE, Complex64::ZERO],
                [Complex64::ZERO, Complex64::from_real((1.0 - gamma).sqrt())],
            ],
            [[Complex64::ZERO, Complex64::from_real(gamma.sqrt())], [Complex64::ZERO, Complex64::ZERO]],
        ];
        self.apply_kraus_1q(q, &kraus);
    }

    /// Pure dephasing with probability `p` (phase-flip channel).
    pub fn dephase(&mut self, q: usize, p: f64) {
        assert!((0.0..=1.0).contains(&p));
        let s0 = (1.0 - p).sqrt();
        let s1 = p.sqrt();
        let kraus = [
            [[Complex64::from_real(s0), Complex64::ZERO], [Complex64::ZERO, Complex64::from_real(s0)]],
            [[Complex64::from_real(s1), Complex64::ZERO], [Complex64::ZERO, Complex64::from_real(-s1)]],
        ];
        self.apply_kraus_1q(q, &kraus);
    }

    /// P(qubit `q` measures 1) from the diagonal.
    pub fn prob_one(&self, q: usize) -> f64 {
        let dim = 1usize << self.n;
        (0..dim).filter(|r| r >> q & 1 == 1).map(|r| self.entry(r, r).re).sum()
    }

    /// Exact outcome distribution over the given measured qubits
    /// (marginalizing the rest), keyed like the executor's bitstrings
    /// (lowest measured qubit leftmost).
    pub fn measure_probabilities(&self, qubits: &[usize]) -> std::collections::BTreeMap<String, f64> {
        let mut sorted = qubits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let dim = 1usize << self.n;
        let mut out: std::collections::BTreeMap<String, f64> = Default::default();
        for r in 0..dim {
            let p = self.entry(r, r).re;
            if p <= 0.0 {
                continue;
            }
            let key: String = sorted.iter().map(|&q| if r >> q & 1 == 1 { '1' } else { '0' }).collect();
            *out.entry(key).or_insert(0.0) += p;
        }
        out
    }

    /// Project qubit `q` onto `outcome` (probability `prob`, must be > 0)
    /// and renormalize: ρ ← P ρ P / prob.
    pub fn project(&mut self, q: usize, outcome: u8, prob: f64) {
        assert!(q < self.n);
        assert!(prob > 0.0, "cannot project onto a zero-probability outcome");
        let (d0, d1) =
            if outcome == 0 { (Complex64::ONE, Complex64::ZERO) } else { (Complex64::ZERO, Complex64::ONE) };
        // P on the ket qubit and on the bra qubit (P is real-diagonal, so
        // no conjugation needed), then 1/prob on the whole matrix.
        self.vec_state.apply_diag(q, d0, d1, 0);
        self.vec_state.apply_diag(q + self.n, d0, d1, 0);
        self.vec_state.scale_all(Complex64::from_real(1.0 / prob));
    }

    /// Reset qubit `q` to |0⟩ as the exact channel
    /// ρ ← |0⟩⟨0|ρ|0⟩⟨0| + |0⟩⟨1|ρ|1⟩⟨0| (Kraus `{|0⟩⟨0|, |0⟩⟨1|}`).
    pub fn reset(&mut self, q: usize) {
        let kraus = [
            [[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, Complex64::ZERO]],
            [[Complex64::ZERO, Complex64::ONE], [Complex64::ZERO, Complex64::ZERO]],
        ];
        self.apply_kraus_1q(q, &kraus);
    }

    /// Evolve through `circuit` with `noise` applied after every unitary
    /// gate and return the exact outcome distribution over the measured
    /// qubits (all qubits when the circuit has no measurements), keyed
    /// like the executor's bitstrings.
    ///
    /// The circuit is lowered once via [`compile_noisy`] and replayed as
    /// compiled kernels on the superoperator view. Mid-circuit measurements branch
    /// the density matrix per outcome (project + renormalize, outcomes
    /// re-merged by probability weight; a re-measured qubit's last outcome
    /// wins, matching the sampling executor), resets apply the exact reset
    /// channel, and a purely terminal measurement suffix is marginalized
    /// directly without branching.
    pub fn run_noisy_circuit(
        circuit: &Circuit,
        pool: Arc<ThreadPool>,
        noise: &NoiseModel,
    ) -> Result<BTreeMap<String, f64>, String> {
        let plan = compile_noisy(circuit, noise);
        let n = plan.num_qubits();
        if n > 12 {
            return Err(format!("density matrix of {n} qubits will not fit in memory"));
        }
        let ops = plan.ops();
        let mut branches =
            vec![Branch { rho: DensityMatrix::with_pool(n, pool), weight: 1.0, bits: BTreeMap::new() }];
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        let mut idx = 0;
        while idx < ops.len() {
            // Terminal fast path: once only measurements remain, marginalize
            // each branch's diagonal in one pass instead of branching 2^k
            // ways over the k remaining measurements.
            if ops[idx..].iter().all(|op| matches!(op, NoisyOp::Measure { .. })) {
                let terminal: Vec<usize> = ops[idx..]
                    .iter()
                    .map(|op| match op {
                        NoisyOp::Measure { qubit } => *qubit,
                        _ => unreachable!(),
                    })
                    .collect();
                for branch in &branches {
                    branch.fold_terminal(&terminal, &mut out);
                }
                return Ok(out);
            }
            match &ops[idx] {
                NoisyOp::Unitary(kernel) => {
                    for branch in &mut branches {
                        branch.rho.apply_kernel_op(kernel);
                    }
                }
                NoisyOp::Depolarize { qubit, p } => {
                    for branch in &mut branches {
                        branch.rho.depolarize(*qubit, *p);
                    }
                }
                NoisyOp::Dephase { qubit, p } => {
                    for branch in &mut branches {
                        branch.rho.dephase(*qubit, *p);
                    }
                }
                NoisyOp::AmplitudeDamp { qubit, gamma } => {
                    for branch in &mut branches {
                        branch.rho.amplitude_damp(*qubit, *gamma);
                    }
                }
                NoisyOp::Reset { qubit } => {
                    for branch in &mut branches {
                        branch.rho.reset(*qubit);
                    }
                }
                NoisyOp::Measure { qubit } => {
                    let mut next = Vec::with_capacity(branches.len() * 2);
                    for branch in branches {
                        let p1 = branch.rho.prob_one(*qubit);
                        for (outcome, p) in [(0u8, 1.0 - p1), (1u8, p1)] {
                            // Skip (numerically) impossible outcomes — the
                            // projection would divide by ~0.
                            if p <= 1e-12 {
                                continue;
                            }
                            let mut b = Branch {
                                rho: branch.rho.clone_like(),
                                weight: branch.weight * p,
                                bits: branch.bits.clone(),
                            };
                            b.rho.project(*qubit, outcome, p);
                            b.bits.insert(*qubit, outcome);
                            next.push(b);
                        }
                    }
                    branches = next;
                }
            }
            idx += 1;
        }
        // No terminal-measurement suffix. Branches carrying recorded
        // mid-circuit outcomes report those; a plan with no measurements at
        // all reports the full diagonal, like the pre-compiled executor.
        for branch in &branches {
            if branch.bits.is_empty() {
                let all: Vec<usize> = (0..n).collect();
                branch.fold_terminal(&all, &mut out);
            } else {
                let key: String = branch.bits.values().map(|&b| if b == 1 { '1' } else { '0' }).collect();
                *out.entry(key).or_insert(0.0) += branch.weight;
            }
        }
        Ok(out)
    }
}

/// One outcome branch of the mid-circuit-measurement replay: a density
/// matrix conditioned on the recorded outcomes, its probability weight,
/// and the recorded (last-wins) bit per measured qubit.
struct Branch {
    rho: DensityMatrix,
    weight: f64,
    bits: BTreeMap<usize, u8>,
}

impl Branch {
    /// Fold this branch's distribution over the `terminal` measured qubits
    /// (combined with its recorded mid-circuit bits; terminal outcomes win
    /// on re-measured qubits) into `out`.
    fn fold_terminal(&self, terminal: &[usize], out: &mut BTreeMap<String, f64>) {
        let mut term_sorted = terminal.to_vec();
        term_sorted.sort_unstable();
        term_sorted.dedup();
        let mut all: Vec<usize> = self.bits.keys().copied().chain(term_sorted.iter().copied()).collect();
        all.sort_unstable();
        all.dedup();
        for (term_key, p) in self.rho.measure_probabilities(&term_sorted) {
            let key: String = all
                .iter()
                .map(|q| match term_sorted.binary_search(q) {
                    Ok(i) => term_key.as_bytes()[i] as char,
                    Err(_) => {
                        if self.bits[q] == 1 {
                            '1'
                        } else {
                            '0'
                        }
                    }
                })
                .collect();
            *out.entry(key).or_insert(0.0) += self.weight * p;
        }
    }
}

/// The superoperator view of compiled-kernel application: every unitary
/// kernel op runs once on the ket qubits (low half of vec(ρ)) and once,
/// conjugated and shifted by `n`, on the bra qubits — ρ → UρU† as two
/// state-vector sweeps, reusing the dense/flip/diag/phase classification
/// and the pool-parallel kernels verbatim.
impl ApplyState for DensityMatrix {
    fn num_qubits(&self) -> usize {
        self.n
    }

    fn apply_single(&mut self, target: usize, m: [[Complex64; 2]; 2], ctrl_mask: usize) {
        self.vec_state.apply_single(target, m, ctrl_mask);
        let conj = [[m[0][0].conj(), m[0][1].conj()], [m[1][0].conj(), m[1][1].conj()]];
        self.vec_state.apply_single(target + self.n, conj, ctrl_mask << self.n);
    }

    fn apply_pair(&mut self, t0: usize, t1: usize, m: &[[Complex64; 4]; 4], ctrl_mask: usize) {
        self.vec_state.apply_pair(t0, t1, m, ctrl_mask);
        let mut conj = [[Complex64::ZERO; 4]; 4];
        for (row, src) in conj.iter_mut().zip(m) {
            for (dst, v) in row.iter_mut().zip(src) {
                *dst = v.conj();
            }
        }
        self.vec_state.apply_pair(t0 + self.n, t1 + self.n, &conj, ctrl_mask << self.n);
    }

    fn apply_antidiag(&mut self, target: usize, m01: Complex64, m10: Complex64, ctrl_mask: usize) {
        self.vec_state.apply_antidiag(target, m01, m10, ctrl_mask);
        self.vec_state.apply_antidiag(target + self.n, m01.conj(), m10.conj(), ctrl_mask << self.n);
    }

    fn apply_diag(&mut self, target: usize, d0: Complex64, d1: Complex64, ctrl_mask: usize) {
        self.vec_state.apply_diag(target, d0, d1, ctrl_mask);
        self.vec_state.apply_diag(target + self.n, d0.conj(), d1.conj(), ctrl_mask << self.n);
    }

    fn mul_where(&mut self, set_mask: usize, clear_mask: usize, z: Complex64) {
        self.vec_state.mul_where(set_mask, clear_mask, z);
        self.vec_state.mul_where(set_mask << self.n, clear_mask << self.n, z.conj());
    }

    fn scale_all(&mut self, z: Complex64) {
        // U = z·I ⇒ ρ → zρz̄ = |z|²ρ (a unit global phase is a no-op on ρ,
        // as it must be).
        self.vec_state.scale_all(Complex64::from_real(z.norm_sqr()));
    }

    fn apply_swap(&mut self, a: usize, b: usize, ctrl_mask: usize) {
        self.vec_state.apply_swap(a, b, ctrl_mask);
        self.vec_state.apply_swap(a + self.n, b + self.n, ctrl_mask << self.n);
    }
}

/// Per-gate noise strengths for [`DensityMatrix::run_noisy_circuit`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing probability applied to each touched qubit per gate.
    pub depolarizing: f64,
    /// Dephasing probability per gate.
    pub dephasing: f64,
    /// Amplitude-damping rate per gate.
    pub amplitude_damping: f64,
}

impl NoiseModel {
    /// True when every channel strength is zero (the lowering then fuses
    /// across the whole unitary prefix).
    pub fn is_noiseless(&self) -> bool {
        self.depolarizing == 0.0 && self.dephasing == 0.0 && self.amplitude_damping == 0.0
    }

    /// Validate that every strength is a probability/rate in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        for (label, v) in [
            ("depolarizing", self.depolarizing),
            ("dephasing", self.dephasing),
            ("amplitude-damping", self.amplitude_damping),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{label} strength {v} outside [0, 1]"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;
    use qcor_circuit::library;
    use qcor_circuit::Circuit;

    fn apply_all(rho: &mut DensityMatrix, circuit: &Circuit) {
        for inst in circuit.instructions() {
            rho.apply_unitary(inst);
        }
    }

    #[test]
    fn initial_state_is_pure_zero() {
        let rho = DensityMatrix::new(2);
        assert!(rho.entry(0, 0).approx_eq(Complex64::ONE, 1e-12));
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_pure_state_evolution() {
        // Random-ish unitary circuit: ρ must equal |ψ⟩⟨ψ| at the end.
        let mut circuit = Circuit::new(3);
        circuit
            .h(0)
            .t(0)
            .cx(0, 1)
            .ry(2, 0.7)
            .s(1)
            .crz(1, 2, -0.4)
            .y(0)
            .u3(1, 0.2, 0.5, -0.3)
            .cphase(0, 2, 1.1);
        let mut rho = DensityMatrix::new(3);
        apply_all(&mut rho, &circuit);

        let mut psi = StateVector::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        crate::executor::run_once(&mut psi, &circuit, &mut rng);
        let reference = DensityMatrix::from_pure(&psi);
        for r in 0..8 {
            for c in 0..8 {
                assert!(
                    rho.entry(r, c).approx_eq(reference.entry(r, c), 1e-10),
                    "({r},{c}): {} vs {}",
                    rho.entry(r, c),
                    reference.entry(r, c)
                );
            }
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn bell_diagonal_probabilities() {
        let mut rho = DensityMatrix::new(2);
        apply_all(&mut rho, &library::ghz_state(2));
        let p = rho.diagonal_probabilities();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
        assert!(p[0b01] < 1e-12 && p[0b10] < 1e-12);
    }

    #[test]
    fn depolarizing_reduces_purity_but_preserves_trace() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary(&Instruction::new(GateKind::H, vec![0], vec![]));
        rho.depolarize(0, 0.2);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!(rho.purity() < 0.999, "purity {}", rho.purity());
        // Full depolarization → maximally mixed.
        let mut rho = DensityMatrix::new(1);
        rho.depolarize(0, 0.75); // p=3/4 with Pauli weights p/3 = I/2 fixed point
        assert!(rho.entry(0, 0).approx_eq(c64(0.5, 0.0), 1e-12));
        assert!(rho.entry(1, 1).approx_eq(c64(0.5, 0.0), 1e-12));
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary(&Instruction::new(GateKind::X, vec![0], vec![]));
        rho.amplitude_damp(0, 0.3);
        assert!((rho.entry(1, 1).re - 0.7).abs() < 1e-12);
        assert!((rho.entry(0, 0).re - 0.3).abs() < 1e-12);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dephasing_kills_coherences_only() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary(&Instruction::new(GateKind::H, vec![0], vec![]));
        let before = rho.entry(0, 1).norm();
        rho.dephase(0, 0.5);
        let after = rho.entry(0, 1).norm();
        assert!(after < before, "coherence must shrink: {before} → {after}");
        assert!((rho.entry(0, 0).re - 0.5).abs() < 1e-12, "populations untouched");
    }

    #[test]
    fn noisy_bell_distribution_leaks() {
        let mut circuit = library::ghz_state(2);
        circuit.measure_all();
        let noise = NoiseModel { depolarizing: 0.05, ..Default::default() };
        let dist = DensityMatrix::run_noisy_circuit(&circuit, Arc::new(ThreadPool::new(1)), &noise).unwrap();
        let total: f64 = dist.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
        let clean = dist.get("00").copied().unwrap_or(0.0) + dist.get("11").copied().unwrap_or(0.0);
        assert!(clean < 1.0 - 1e-6, "noise must leak probability, clean mass = {clean}");
        assert!(clean > 0.8, "but signal should dominate, clean mass = {clean}");
    }

    #[test]
    fn noiseless_run_matches_exact_distribution() {
        let circuit = library::bell_kernel();
        let dist =
            DensityMatrix::run_noisy_circuit(&circuit, Arc::new(ThreadPool::new(1)), &NoiseModel::default())
                .unwrap();
        assert!((dist["00"] - 0.5).abs() < 1e-10);
        assert!((dist["11"] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn measure_probabilities_marginalize() {
        let mut rho = DensityMatrix::new(2);
        apply_all(&mut rho, &library::ghz_state(2));
        let marginal = rho.measure_probabilities(&[0]);
        assert!((marginal["0"] - 0.5).abs() < 1e-12);
        assert!((marginal["1"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mid_circuit_measurement_projects_and_renormalizes() {
        // measure(0) on |0⟩ records 0 deterministically; the trailing H
        // acts on the projected state and is simply not measured again.
        let mut c = Circuit::new(1);
        c.measure(0).h(0);
        let dist = DensityMatrix::run_noisy_circuit(&c, Arc::new(ThreadPool::new(1)), &NoiseModel::default())
            .unwrap();
        assert_eq!(dist.len(), 1);
        assert!((dist["0"] - 1.0).abs() < 1e-12, "{dist:?}");
    }

    #[test]
    fn mid_circuit_measurement_branches_by_outcome() {
        // H then mid-circuit measure collapses qubit 0; the CX copies the
        // recorded outcome, so the final joint distribution stays perfectly
        // correlated at 50/50.
        let mut c = Circuit::new(2);
        c.h(0).measure(0).cx(0, 1).measure(0).measure(1);
        let dist = DensityMatrix::run_noisy_circuit(&c, Arc::new(ThreadPool::new(1)), &NoiseModel::default())
            .unwrap();
        assert!((dist["00"] - 0.5).abs() < 1e-12, "{dist:?}");
        assert!((dist["11"] - 0.5).abs() < 1e-12, "{dist:?}");
        assert_eq!(dist.len(), 2, "{dist:?}");
    }

    #[test]
    fn mid_circuit_remeasure_last_outcome_wins() {
        // Qubit 0 is measured (0), flipped, and measured again (1): the
        // bitstring reports the final outcome, like the sampling executor.
        let mut c = Circuit::new(1);
        c.measure(0).x(0).measure(0);
        let dist = DensityMatrix::run_noisy_circuit(&c, Arc::new(ThreadPool::new(1)), &NoiseModel::default())
            .unwrap();
        assert!((dist["1"] - 1.0).abs() < 1e-12, "{dist:?}");
    }

    #[test]
    fn reset_is_the_exact_reset_channel() {
        // H leaves qubit 0 in an even superposition; reset returns it to
        // |0⟩ regardless of what it held, and the later H makes that
        // observable as a fresh 50/50.
        let mut c = Circuit::new(1);
        c.h(0).reset(0).h(0).measure(0);
        let dist = DensityMatrix::run_noisy_circuit(&c, Arc::new(ThreadPool::new(1)), &NoiseModel::default())
            .unwrap();
        assert!((dist["0"] - 0.5).abs() < 1e-12, "{dist:?}");
        assert!((dist["1"] - 0.5).abs() < 1e-12, "{dist:?}");

        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary(&Instruction::new(GateKind::X, vec![0], vec![]));
        rho.reset(0);
        assert!(rho.entry(0, 0).approx_eq(Complex64::ONE, 1e-12));
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn compiled_kernel_replay_matches_instruction_path() {
        // The ApplyState superoperator view replaying fused compiled
        // kernels must agree with the per-instruction conjugation rules.
        let mut circuit = Circuit::new(3);
        circuit
            .h(0)
            .t(0)
            .cx(0, 1)
            .ry(2, 0.7)
            .s(1)
            .crz(1, 2, -0.4)
            .y(0)
            .u3(1, 0.2, 0.5, -0.3)
            .cphase(0, 2, 1.1)
            .swap(0, 2);
        let mut by_inst = DensityMatrix::new(3);
        apply_all(&mut by_inst, &circuit);

        let compiled = crate::compile::CompiledCircuit::compile(&circuit);
        let mut by_kernel = DensityMatrix::new(3);
        by_kernel.apply_unitary_ops(compiled.ops());

        for r in 0..8 {
            for c in 0..8 {
                assert!(
                    by_kernel.entry(r, c).approx_eq(by_inst.entry(r, c), 1e-10),
                    "({r},{c}): {} vs {}",
                    by_kernel.entry(r, c),
                    by_inst.entry(r, c)
                );
            }
        }
    }

    #[test]
    fn kraus_branches_inherit_the_pool() {
        // with_pool must thread the pool into Kraus sweeps (the branch
        // states used to silently fall back to the sequential pool).
        let pool = Arc::new(ThreadPool::new(2));
        let mut rho = DensityMatrix::with_pool(2, Arc::clone(&pool));
        rho.set_par_threshold(1);
        rho.apply_unitary(&Instruction::new(GateKind::H, vec![0], vec![]));
        rho.depolarize(0, 0.1);
        assert_eq!(rho.pool().num_threads(), 2, "channel application must not drop the pool");
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn density_sweeps_count_in_kernel_stats() {
        crate::stats::reset_kernel_iterations();
        let mut rho = DensityMatrix::new(2);
        rho.apply_unitary(&Instruction::new(GateKind::H, vec![0], vec![]));
        let after_unitary = crate::stats::kernel_iterations();
        assert!(after_unitary > 0, "unitary superoperator sweeps must be counted");
        rho.depolarize(0, 0.1);
        assert!(crate::stats::kernel_iterations() > after_unitary, "Kraus sweeps must be counted too");
    }

    #[test]
    fn noise_model_validation() {
        assert!(NoiseModel::default().validate().is_ok());
        assert!(NoiseModel::default().is_noiseless());
        let m = NoiseModel { depolarizing: 0.1, ..Default::default() };
        assert!(!m.is_noiseless());
        assert!(m.validate().is_ok());
        let bad = NoiseModel { dephasing: 1.5, ..Default::default() };
        assert!(bad.validate().unwrap_err().contains("dephasing"));
    }
}
