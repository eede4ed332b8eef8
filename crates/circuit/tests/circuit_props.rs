//! Property tests for the circuit IR, parsers and optimizer.

use proptest::prelude::*;
use qcor_circuit::{passes, xasm, Circuit, GateKind, Instruction};

/// Strategy producing a random concrete instruction over `n` qubits (n ≥ 3).
fn instruction_strategy(n: usize) -> impl Strategy<Value = Instruction> {
    let q = 0..n;
    let angle = -10.0f64..10.0;
    prop_oneof![
        q.clone().prop_map(|a| Instruction::new(GateKind::H, vec![a], vec![])),
        q.clone().prop_map(|a| Instruction::new(GateKind::X, vec![a], vec![])),
        q.clone().prop_map(|a| Instruction::new(GateKind::S, vec![a], vec![])),
        q.clone().prop_map(|a| Instruction::new(GateKind::T, vec![a], vec![])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| Instruction::new(GateKind::Rx, vec![a], vec![t])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| Instruction::new(GateKind::Ry, vec![a], vec![t])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| Instruction::new(GateKind::Rz, vec![a], vec![t])),
        (q.clone(), angle.clone()).prop_map(|(a, t)| Instruction::new(GateKind::Phase, vec![a], vec![t])),
        (q.clone(), q.clone(), angle).prop_filter_map("distinct", |(a, b, t)| {
            (a != b).then(|| Instruction::new(GateKind::CPhase, vec![a, b], vec![t]))
        }),
        (q.clone(), q.clone()).prop_filter_map("distinct", |(a, b)| {
            (a != b).then(|| Instruction::new(GateKind::CX, vec![a, b], vec![]))
        }),
        (q.clone(), q.clone()).prop_filter_map("distinct", |(a, b)| {
            (a != b).then(|| Instruction::new(GateKind::Swap, vec![a, b], vec![]))
        }),
        (q.clone(), q.clone(), q).prop_filter_map("distinct", |(a, b, c)| {
            (a != b && b != c && a != c).then(|| Instruction::new(GateKind::CCX, vec![a, b, c], vec![]))
        }),
    ]
}

fn circuit_strategy(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    prop::collection::vec(instruction_strategy(n), 0..max_len).prop_map(move |insts| {
        let mut c = Circuit::new(n);
        for i in insts {
            c.push(i);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn display_round_trips_through_xasm(c in circuit_strategy(4, 30)) {
        let text = c.to_string();
        let parsed = xasm::parse_kernel(&text, 4).unwrap().bind(&[]).unwrap();
        prop_assert_eq!(parsed.len(), c.len());
        for (a, b) in parsed.instructions().iter().zip(c.instructions()) {
            prop_assert_eq!(a.gate, b.gate);
            prop_assert_eq!(&a.qubits, &b.qubits);
            for (pa, pb) in a.params.iter().zip(&b.params) {
                prop_assert!((pa - pb).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qasm_round_trips(c in circuit_strategy(4, 30)) {
        let text = qcor_circuit::qasm::to_qasm(&c);
        let parsed = qcor_circuit::qasm::parse(&text).unwrap();
        prop_assert_eq!(parsed.len(), c.len());
        for (a, b) in parsed.instructions().iter().zip(c.instructions()) {
            prop_assert_eq!(a.gate, b.gate);
            prop_assert_eq!(&a.qubits, &b.qubits);
            for (pa, pb) in a.params.iter().zip(&b.params) {
                prop_assert!((pa - pb).abs() < 1e-9);
            }
        }
    }

    // Fixpoint property for the QASM ingress/egress pair: parsing what we
    // emit must converge after one round. `parse(to_qasm(c))` may differ
    // from `c` only where QASM cannot express our IR exactly (CCPhase is
    // decomposed, bare `measure` gains an explicit cbit) — but emitting and
    // re-parsing *that* circuit must be the identity, angles bit-exact.
    #[test]
    fn qasm_emit_parse_reaches_fixpoint(c in circuit_strategy(4, 30)) {
        let c1 = qcor_circuit::qasm::parse(&qcor_circuit::qasm::to_qasm(&c)).unwrap();
        let c2 = qcor_circuit::qasm::parse(&qcor_circuit::qasm::to_qasm(&c1)).unwrap();
        prop_assert_eq!(&c2, &c1, "second emit/parse round must be the identity");
    }

    // Angles survive emit→parse exactly, not just to a tolerance: the
    // writer prints shortest-round-trip decimals and the reader parses
    // them back to the same bits.
    #[test]
    fn qasm_round_trip_is_bit_exact_on_angles(c in circuit_strategy(4, 30)) {
        let parsed = qcor_circuit::qasm::parse(&qcor_circuit::qasm::to_qasm(&c)).unwrap();
        prop_assert_eq!(parsed.len(), c.len());
        for (a, b) in parsed.instructions().iter().zip(c.instructions()) {
            prop_assert_eq!(a.gate, b.gate);
            prop_assert_eq!(&a.qubits, &b.qubits);
            for (pa, pb) in a.params.iter().zip(&b.params) {
                prop_assert_eq!(pa.to_bits(), pb.to_bits(), "angle must round-trip exactly");
            }
        }
    }

    #[test]
    fn optimizer_never_grows_and_is_idempotent(mut c in circuit_strategy(4, 40)) {
        let before = c.len();
        passes::optimize(&mut c);
        prop_assert!(c.len() <= before);
        let after_first = c.len();
        passes::optimize(&mut c);
        prop_assert_eq!(c.len(), after_first, "optimize must be idempotent");
    }

    #[test]
    fn double_inverse_is_identity(c in circuit_strategy(4, 25)) {
        let back = c.inverse().unwrap().inverse().unwrap();
        prop_assert_eq!(back, c);
    }

    #[test]
    fn u_udagger_optimizes_to_empty(c in circuit_strategy(3, 12)) {
        let mut composed = c.clone();
        composed.extend(&c.inverse().unwrap());
        passes::optimize(&mut composed);
        prop_assert!(composed.is_empty());
    }

    #[test]
    fn depth_at_most_len(c in circuit_strategy(4, 40)) {
        prop_assert!(c.depth() <= c.len());
    }
}
