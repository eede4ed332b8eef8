//! Circuit containers: concrete [`Circuit`] and parametric [`ParamCircuit`].

use crate::expr::ParamExpr;
use crate::gate::{GateKind, Instruction};
use crate::CircuitError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A concrete quantum circuit: a qubit count plus an instruction stream with
/// all angle parameters bound. This is what the simulator executes.
///
/// `Circuit` doubles as a builder — the gate methods (`h`, `cx`, `ry`, ...)
/// append and return `&mut Self`, so the paper's Bell kernel (Listing 1)
/// reads almost the same in Rust:
///
/// ```
/// use qcor_circuit::Circuit;
/// let mut bell = Circuit::new(2);
/// bell.h(0).cx(0, 1);
/// for i in 0..bell.num_qubits() {
///     bell.measure(i);
/// }
/// assert_eq!(bell.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit over `num_qubits` qubits.
    ///
    /// Panics when `num_qubits` exceeds [`crate::MAX_QUBITS`] — the
    /// compiler packs qubit sets into `usize` bitmasks, so wider registers
    /// cannot be represented. Use [`Circuit::try_new`] for untrusted sizes.
    pub fn new(num_qubits: usize) -> Self {
        match Self::try_new(num_qubits) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// An empty circuit over `num_qubits` qubits, rejecting registers wider
    /// than [`crate::MAX_QUBITS`] with an error instead of panicking.
    pub fn try_new(num_qubits: usize) -> Result<Self, CircuitError> {
        if num_qubits > crate::MAX_QUBITS {
            return Err(CircuitError::TooManyQubits { requested: num_qubits, max: crate::MAX_QUBITS });
        }
        Ok(Circuit { num_qubits, instructions: Vec::new() })
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True when no instructions have been appended.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instruction stream.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Mutable access for optimizer passes.
    pub fn instructions_mut(&mut self) -> &mut Vec<Instruction> {
        &mut self.instructions
    }

    /// Append one instruction, validating qubit bounds.
    pub fn push(&mut self, inst: Instruction) -> &mut Self {
        for &q in &inst.qubits {
            assert!(
                q < self.num_qubits,
                "gate {} addresses qubit {q} but the register has {} qubits",
                inst.gate,
                self.num_qubits
            );
        }
        self.instructions.push(inst);
        self
    }

    /// Append one instruction, returning an error instead of panicking on a
    /// bad qubit index.
    pub fn try_push(&mut self, inst: Instruction) -> Result<&mut Self, CircuitError> {
        for &q in &inst.qubits {
            if q >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    gate: inst.gate.name().to_string(),
                    qubit: q,
                    size: self.num_qubits,
                });
            }
        }
        self.instructions.push(inst);
        Ok(self)
    }

    /// Append every instruction of `other` (registers must match in size or
    /// `other` must be smaller).
    pub fn extend(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "cannot extend a {}-qubit circuit with a {}-qubit circuit",
            self.num_qubits,
            other.num_qubits
        );
        self.instructions.extend(other.instructions.iter().cloned());
        self
    }

    /// Append `other` with its qubit indices shifted by `offset`.
    pub fn extend_mapped(&mut self, other: &Circuit, offset: usize) -> &mut Self {
        for inst in &other.instructions {
            let mut mapped = inst.clone();
            for q in &mut mapped.qubits {
                *q += offset;
            }
            self.push(mapped);
        }
        self
    }

    /// The adjoint circuit: instructions reversed with each gate inverted.
    /// Fails if the circuit contains measurements or resets.
    pub fn inverse(&self) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::new(self.num_qubits);
        for inst in self.instructions.iter().rev() {
            out.instructions.push(inst.inverse()?);
        }
        Ok(out)
    }

    /// Remap qubit indices through `map` (`map[old] = new`). The new register
    /// size is `new_size`.
    pub fn remap(&self, map: &[usize], new_size: usize) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::new(new_size);
        for inst in &self.instructions {
            let mut mapped = inst.clone();
            for q in &mut mapped.qubits {
                let new = *map.get(*q).ok_or_else(|| {
                    CircuitError::Invalid(format!("remap table has no entry for qubit {q}"))
                })?;
                if new >= new_size {
                    return Err(CircuitError::QubitOutOfRange {
                        gate: inst.gate.name().to_string(),
                        qubit: new,
                        size: new_size,
                    });
                }
                *q = new;
            }
            out.instructions.push(mapped);
        }
        Ok(out)
    }

    /// Number of instructions per gate kind.
    pub fn gate_counts(&self) -> HashMap<GateKind, usize> {
        let mut counts = HashMap::new();
        for inst in &self.instructions {
            *counts.entry(inst.gate).or_insert(0) += 1;
        }
        counts
    }

    /// Circuit depth: the length of the longest chain of instructions that
    /// share qubits (barriers synchronize all qubits).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut barrier_level = 0usize;
        for inst in &self.instructions {
            if inst.gate == GateKind::Barrier {
                barrier_level = level.iter().copied().max().unwrap_or(0).max(barrier_level);
                level.fill(barrier_level);
                continue;
            }
            let next = inst.qubits.iter().map(|&q| level[q]).max().unwrap_or(0).max(barrier_level) + 1;
            for &q in &inst.qubits {
                level[q] = next;
            }
        }
        level.into_iter().max().unwrap_or(0)
    }

    /// Indices of qubits that are measured, in program order without
    /// duplicates.
    pub fn measured_qubits(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for inst in &self.instructions {
            if inst.gate == GateKind::Measure && !out.contains(&inst.qubits[0]) {
                out.push(inst.qubits[0]);
            }
        }
        out
    }

    /// True if the circuit contains at least one measurement.
    pub fn has_measurements(&self) -> bool {
        self.instructions.iter().any(|i| i.gate == GateKind::Measure)
    }

    /// All bound angle parameters, flattened in program order. Slot `i` of
    /// this vector is parameter slot `i` in the structural view of the
    /// circuit (see [`Circuit::structural_hash`]): two circuits with equal
    /// structure differ only in this vector.
    pub fn flat_params(&self) -> Vec<f64> {
        self.instructions.iter().flat_map(|i| i.params.iter().copied()).collect()
    }

    /// Hash of the circuit's *structure*: qubit count, gate kinds, operands,
    /// classical bits and parameter counts — but not parameter values.
    /// Parameterized gates are identified by their parameter slot (their
    /// position in [`Circuit::flat_params`]), which the structure fully
    /// determines, so an angle sweep over one structure is a single hash.
    /// This is the key of the simulator's compile cache.
    pub fn structural_hash(&self) -> u64 {
        let mut h = HASH_SEED;
        h = mix_u64(h, self.num_qubits as u64);
        h = mix_u64(h, self.len() as u64);
        for inst in &self.instructions {
            h = mix_u64(h, inst.gate as u64);
            for &q in &inst.qubits {
                h = mix_u64(h, q as u64);
            }
            h = mix_u64(h, inst.params.len() as u64);
            match inst.cbit {
                Some(c) => {
                    h = mix_u64(h, 1);
                    h = mix_u64(h, c as u64);
                }
                None => h = mix_u64(h, 0),
            }
        }
        h
    }

    /// True when two circuits share a structure (equal up to parameter
    /// values). The compile cache verifies this on every hit so a hash
    /// collision can never substitute one circuit's plan for another's.
    pub fn structurally_equal(&self, other: &Circuit) -> bool {
        self.num_qubits == other.num_qubits
            && self.len() == other.len()
            && self.instructions.iter().zip(&other.instructions).all(|(x, y)| {
                x.gate == y.gate
                    && x.qubits == y.qubits
                    && x.cbit == y.cbit
                    && x.params.len() == y.params.len()
            })
    }

    // ----- builder methods -------------------------------------------------

    /// Append a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::H, vec![q], vec![]))
    }
    /// Append a Pauli-X.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::X, vec![q], vec![]))
    }
    /// Append a Pauli-Y.
    pub fn y(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::Y, vec![q], vec![]))
    }
    /// Append a Pauli-Z.
    pub fn z(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::Z, vec![q], vec![]))
    }
    /// Append an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::S, vec![q], vec![]))
    }
    /// Append an S-dagger.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::Sdg, vec![q], vec![]))
    }
    /// Append a T gate.
    pub fn t(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::T, vec![q], vec![]))
    }
    /// Append a T-dagger.
    pub fn tdg(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::Tdg, vec![q], vec![]))
    }
    /// Append an X-rotation.
    pub fn rx(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Instruction::new(GateKind::Rx, vec![q], vec![theta]))
    }
    /// Append a Y-rotation.
    pub fn ry(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Instruction::new(GateKind::Ry, vec![q], vec![theta]))
    }
    /// Append a Z-rotation.
    pub fn rz(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Instruction::new(GateKind::Rz, vec![q], vec![theta]))
    }
    /// Append a phase gate diag(1, e^{iθ}).
    pub fn phase(&mut self, q: usize, theta: f64) -> &mut Self {
        self.push(Instruction::new(GateKind::Phase, vec![q], vec![theta]))
    }
    /// Append a general single-qubit unitary U3(θ, φ, λ).
    pub fn u3(&mut self, q: usize, theta: f64, phi: f64, lambda: f64) -> &mut Self {
        self.push(Instruction::new(GateKind::U3, vec![q], vec![theta, phi, lambda]))
    }
    /// Append a CNOT with `control` and `target`.
    pub fn cx(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::CX, vec![control, target], vec![]))
    }
    /// Append a controlled-Y.
    pub fn cy(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::CY, vec![control, target], vec![]))
    }
    /// Append a controlled-Z.
    pub fn cz(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::CZ, vec![control, target], vec![]))
    }
    /// Append a controlled phase.
    pub fn cphase(&mut self, control: usize, target: usize, theta: f64) -> &mut Self {
        self.push(Instruction::new(GateKind::CPhase, vec![control, target], vec![theta]))
    }
    /// Append a controlled Rz.
    pub fn crz(&mut self, control: usize, target: usize, theta: f64) -> &mut Self {
        self.push(Instruction::new(GateKind::CRz, vec![control, target], vec![theta]))
    }
    /// Append a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::Swap, vec![a, b], vec![]))
    }
    /// Append a Toffoli.
    pub fn ccx(&mut self, c0: usize, c1: usize, target: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::CCX, vec![c0, c1, target], vec![]))
    }
    /// Append a controlled swap.
    pub fn cswap(&mut self, control: usize, a: usize, b: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::CSwap, vec![control, a, b], vec![]))
    }
    /// Append a doubly-controlled phase.
    pub fn ccphase(&mut self, c0: usize, c1: usize, target: usize, theta: f64) -> &mut Self {
        self.push(Instruction::new(GateKind::CCPhase, vec![c0, c1, target], vec![theta]))
    }
    /// Append a measurement.
    pub fn measure(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::Measure, vec![q], vec![]))
    }
    /// Append a measurement routed to classical bit `c`.
    pub fn measure_to(&mut self, q: usize, c: usize) -> &mut Self {
        let mut inst = Instruction::new(GateKind::Measure, vec![q], vec![]);
        inst.cbit = Some(c);
        self.push(inst)
    }
    /// Measure every qubit in index order.
    pub fn measure_all(&mut self) -> &mut Self {
        for q in 0..self.num_qubits {
            self.measure(q);
        }
        self
    }
    /// Append a reset.
    pub fn reset(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::Reset, vec![q], vec![]))
    }
    /// Append a barrier on one qubit (blocks optimizer reordering).
    pub fn barrier(&mut self, q: usize) -> &mut Self {
        self.push(Instruction::new(GateKind::Barrier, vec![q], vec![]))
    }
}

const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const HASH_MULT: u64 = 0x2545_f491_4f6c_dd1d;

// One whole word per round (not a byte at a time — the hash sits on the
// compile-cache lookup path, where a deep circuit is several hundred
// words). The hash is in-process only, never stored, so the mixing
// function is free to change.
fn mix_u64(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(HASH_MULT).rotate_left(23)
}

impl std::fmt::Display for Circuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "// {} qubits, {} instructions", self.num_qubits, self.len())?;
        for inst in &self.instructions {
            writeln!(f, "{inst};")?;
        }
        Ok(())
    }
}

/// One instruction of a parametric kernel: operands are fixed but angle
/// parameters are [`ParamExpr`]s over the kernel's classical arguments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamInstruction {
    /// What to apply.
    pub gate: GateKind,
    /// Qubit operands.
    pub qubits: Vec<usize>,
    /// Symbolic angle parameters.
    pub params: Vec<ParamExpr>,
}

/// A parametric kernel template, as produced by the XASM parser for kernels
/// with classical arguments (e.g. the `ansatz(qreg q, double theta)` of
/// paper Listing 3). Call [`ParamCircuit::bind`] with concrete argument
/// values to obtain an executable [`Circuit`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamCircuit {
    /// Kernel name, if one was declared.
    pub name: String,
    /// Declared classical parameter names, in order.
    pub param_names: Vec<String>,
    num_qubits: usize,
    instructions: Vec<ParamInstruction>,
}

impl ParamCircuit {
    /// An empty template.
    pub fn new(name: impl Into<String>, num_qubits: usize, param_names: Vec<String>) -> Self {
        assert!(
            num_qubits <= crate::MAX_QUBITS,
            "kernel requests {num_qubits} qubits but at most {} are supported",
            crate::MAX_QUBITS
        );
        ParamCircuit { name: name.into(), param_names, num_qubits, instructions: Vec::new() }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True when the template has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The symbolic instruction stream.
    pub fn instructions(&self) -> &[ParamInstruction] {
        &self.instructions
    }

    /// Append a symbolic instruction.
    pub fn push(&mut self, inst: ParamInstruction) -> &mut Self {
        assert_eq!(inst.qubits.len(), inst.gate.arity(), "{}: wrong operand count", inst.gate);
        assert_eq!(inst.params.len(), inst.gate.num_params(), "{}: wrong parameter count", inst.gate);
        for &q in &inst.qubits {
            assert!(q < self.num_qubits, "{}: qubit {q} out of range", inst.gate);
        }
        self.instructions.push(inst);
        self
    }

    /// Bind positional argument values (matching `param_names` order) and
    /// produce an executable circuit.
    pub fn bind(&self, args: &[f64]) -> Result<Circuit, CircuitError> {
        if args.len() != self.param_names.len() {
            return Err(CircuitError::Invalid(format!(
                "kernel `{}` takes {} parameter(s), got {}",
                self.name,
                self.param_names.len(),
                args.len()
            )));
        }
        let bindings: HashMap<String, f64> =
            self.param_names.iter().cloned().zip(args.iter().copied()).collect();
        self.bind_named(&bindings)
    }

    /// Bind named argument values and produce an executable circuit.
    pub fn bind_named(&self, bindings: &HashMap<String, f64>) -> Result<Circuit, CircuitError> {
        let mut out = Circuit::new(self.num_qubits);
        for inst in &self.instructions {
            let mut params = Vec::with_capacity(inst.params.len());
            for p in &inst.params {
                params.push(p.eval(bindings).map_err(|e| CircuitError::UnboundParam(e.unbound))?);
            }
            out.push(Instruction::new(inst.gate, inst.qubits.clone(), params));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bell() -> Circuit {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        c
    }

    #[test]
    fn builder_appends_in_order() {
        let c = bell();
        assert_eq!(c.len(), 4);
        assert_eq!(c.instructions()[0].gate, GateKind::H);
        assert_eq!(c.instructions()[1].gate, GateKind::CX);
        assert_eq!(c.instructions()[1].qubits, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "addresses qubit 5")]
    fn out_of_range_panics() {
        Circuit::new(2).h(5);
    }

    #[test]
    fn try_push_reports_out_of_range() {
        let mut c = Circuit::new(2);
        let err = c.try_push(Instruction::new(GateKind::H, vec![7], vec![])).unwrap_err();
        assert!(matches!(err, CircuitError::QubitOutOfRange { qubit: 7, size: 2, .. }));
    }

    #[test]
    fn try_new_rejects_registers_wider_than_the_bitmask() {
        let err = Circuit::try_new(crate::MAX_QUBITS + 1).unwrap_err();
        assert!(matches!(err, CircuitError::TooManyQubits { requested: 65, max: 64 }), "{err:?}");
        assert_eq!(Circuit::try_new(crate::MAX_QUBITS).unwrap().num_qubits(), crate::MAX_QUBITS);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(0).cx(0, 1).rz(1, 0.3);
        let inv = c.inverse().unwrap();
        assert_eq!(inv.len(), 4);
        assert_eq!(inv.instructions()[0].gate, GateKind::Rz);
        assert_eq!(inv.instructions()[0].params[0], -0.3);
        assert_eq!(inv.instructions()[2].gate, GateKind::Sdg);
    }

    #[test]
    fn inverse_fails_on_measurement() {
        assert!(bell().inverse().is_err());
    }

    #[test]
    fn depth_counts_parallel_layers() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2); // one layer
        assert_eq!(c.depth(), 1);
        c.cx(0, 1); // second layer
        c.h(2); // still second layer (q2 free)
        assert_eq!(c.depth(), 2);
        c.cx(1, 2); // third layer
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn barrier_synchronizes_depth() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.barrier(0);
        c.h(1); // after the barrier: must be layer 2 even though q1 was free
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn gate_counts_are_correct() {
        let c = bell();
        let counts = c.gate_counts();
        assert_eq!(counts[&GateKind::H], 1);
        assert_eq!(counts[&GateKind::CX], 1);
        assert_eq!(counts[&GateKind::Measure], 2);
    }

    #[test]
    fn measured_qubits_deduplicated_in_order() {
        let mut c = Circuit::new(3);
        c.measure(2).measure(0).measure(2);
        assert_eq!(c.measured_qubits(), vec![2, 0]);
    }

    #[test]
    fn extend_mapped_shifts_indices() {
        let mut big = Circuit::new(4);
        big.extend_mapped(&bell(), 2);
        assert_eq!(big.instructions()[1].qubits, vec![2, 3]);
    }

    #[test]
    fn remap_applies_table() {
        let c = bell();
        let mapped = c.remap(&[1, 0], 2).unwrap();
        assert_eq!(mapped.instructions()[0].qubits, vec![1]);
        assert_eq!(mapped.instructions()[1].qubits, vec![1, 0]);
    }

    #[test]
    fn param_circuit_binds_positionally() {
        let mut pc = ParamCircuit::new("ansatz", 2, vec!["theta".to_string()]);
        pc.push(ParamInstruction { gate: GateKind::X, qubits: vec![0], params: vec![] });
        pc.push(ParamInstruction {
            gate: GateKind::Ry,
            qubits: vec![1],
            params: vec![ParamExpr::parse("theta / 2").unwrap()],
        });
        let c = pc.bind(&[1.0]).unwrap();
        assert_eq!(c.instructions()[1].params[0], 0.5);
        assert!(pc.bind(&[]).is_err());
        assert!(pc.bind(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn param_circuit_unbound_var_errors() {
        let mut pc = ParamCircuit::new("k", 1, vec![]);
        pc.push(ParamInstruction {
            gate: GateKind::Rz,
            qubits: vec![0],
            params: vec![ParamExpr::var("mystery")],
        });
        assert!(matches!(pc.bind(&[]), Err(CircuitError::UnboundParam(_))));
    }

    #[test]
    fn structural_hash_ignores_angles_only() {
        let mut a = Circuit::new(3);
        a.ry(0, 0.1).cphase(0, 1, 0.2).measure(2);
        let mut b = Circuit::new(3);
        b.ry(0, 2.9).cphase(0, 1, -1.4).measure(2);
        assert_eq!(a.structural_hash(), b.structural_hash());
        assert!(a.structurally_equal(&b));

        // A different operand, gate kind, cbit or length must change it.
        let mut c = Circuit::new(3);
        c.ry(1, 0.1).cphase(0, 1, 0.2).measure(2);
        assert_ne!(a.structural_hash(), c.structural_hash());
        assert!(!a.structurally_equal(&c));
        let mut d = Circuit::new(3);
        d.rx(0, 0.1).cphase(0, 1, 0.2).measure(2);
        assert_ne!(a.structural_hash(), d.structural_hash());
        let mut e = Circuit::new(3);
        e.ry(0, 0.1).cphase(0, 1, 0.2).measure_to(2, 1);
        assert_ne!(a.structural_hash(), e.structural_hash());
    }

    #[test]
    fn structural_hash_separates_every_gate_kind() {
        // One single-gate circuit per kind, on operands that fit every
        // arity: all 25 hashes must be pairwise distinct.
        use GateKind::*;
        let kinds = [
            H, X, Y, Z, S, Sdg, T, Tdg, Rx, Ry, Rz, Phase, U3, CX, CY, CZ, CPhase, CRz, Swap, CCX, CSwap,
            CCPhase, Measure, Reset, Barrier,
        ];
        let hashes: Vec<u64> = kinds
            .iter()
            .map(|&gate| {
                let qubits = (0..gate.arity()).collect();
                let params = vec![0.5; gate.num_params()];
                let mut c = Circuit::new(3);
                c.push(Instruction::new(gate, qubits, params));
                c.structural_hash()
            })
            .collect();
        for (i, a) in hashes.iter().enumerate() {
            for (j, b) in hashes.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "{:?} and {:?} share a structural hash", kinds[i], kinds[j]);
            }
        }
    }

    #[test]
    fn flat_params_orders_slots_by_program_order() {
        let mut c = Circuit::new(2);
        c.h(0).ry(0, 0.5).u3(1, 1.0, 2.0, 3.0).cphase(0, 1, -0.25);
        assert_eq!(c.flat_params(), vec![0.5, 1.0, 2.0, 3.0, -0.25]);
    }

    #[test]
    fn display_emits_one_instruction_per_line() {
        let text = bell().to_string();
        assert!(text.contains("H(q[0]);"));
        assert!(text.contains("CX(q[0], q[1]);"));
    }
}
