//! Cross-crate property tests: kernels written as XASM text, compiled,
//! executed through the accelerator stack, must behave identically to the
//! same circuits driven directly through the simulator — at any pool size
//! and with either cloneable backend instance.

use proptest::prelude::*;
use qcor_circuit::{library, xasm, Circuit};
use qcor_pool::ThreadPool;
use qcor_sim::{
    run_once_interpreted, run_shots, run_shots_task_parallel, CompiledCircuit, Granularity, RunConfig,
    ShotPlan, StateVector,
};
use qcor_xacc::{registry, AcceleratorBuffer, ExecOptions, HetMap};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Generate a small random XASM kernel source over 3 qubits ending with
/// measurements.
fn xasm_source() -> impl Strategy<Value = String> {
    let gate = prop_oneof![
        (0usize..3).prop_map(|q| format!("H(q[{q}]);")),
        (0usize..3).prop_map(|q| format!("X(q[{q}]);")),
        (0usize..3).prop_map(|q| format!("T(q[{q}]);")),
        ((0usize..3), (-3.0f64..3.0)).prop_map(|(q, t)| format!("Ry(q[{q}], {t});")),
        ((0usize..3), (0usize..3))
            .prop_filter_map("distinct", |(a, b)| { (a != b).then(|| format!("CX(q[{a}], q[{b}]);")) }),
    ];
    prop::collection::vec(gate, 0..12).prop_map(|gates| {
        format!(
            "__qpu__ void k(qreg q) {{ {} for (int i = 0; i < q.size(); i++) {{ Measure(q[i]); }} }}",
            gates.join(" ")
        )
    })
}

const BUILDER_QUBITS: usize = 4;

/// Encoded random builder-circuit ops: `(kind, a, b, theta)` tuples
/// decoded by [`build_circuit`]. Includes the gate classes the pair-fusing
/// compiler treats specially: dense runs (pair fusion into `Dense2`),
/// swaps and controlled swaps (operand relabeling), multi-controlled
/// entanglers, and optional mid-circuit measure/reset boundaries.
fn builder_ops() -> impl Strategy<Value = Vec<(u8, usize, usize, f64)>> {
    prop::collection::vec(
        ((0u8..12), (0usize..BUILDER_QUBITS), (0usize..BUILDER_QUBITS), (-3.0f64..3.0)),
        0..24,
    )
}

/// Decode [`builder_ops`] tuples into a circuit. Operand clashes (e.g. a
/// swap of a qubit with itself) skip the op rather than filter the input,
/// so every generated vector is a valid circuit. `with_boundaries`
/// enables the mid-circuit `Measure`/`Reset` ops (kinds 10/11); without
/// it those kinds fall back to unitary gates so the circuit stays
/// measurement-free for amplitude comparison.
fn build_circuit(ops: &[(u8, usize, usize, f64)], with_boundaries: bool) -> Circuit {
    let mut c = Circuit::new(BUILDER_QUBITS);
    for &(kind, a, b, theta) in ops {
        match kind {
            0 => {
                c.h(a);
            }
            1 => {
                c.t(a);
            }
            2 => {
                c.ry(a, theta);
            }
            3 => {
                c.rz(a, theta);
            }
            4 => {
                c.s(a).h(a).tdg(a);
            }
            5 if a != b => {
                c.cx(a, b);
            }
            6 if a != b => {
                c.cz(a, b);
            }
            7 if a != b => {
                c.swap(a, b);
            }
            8 if a != b => {
                let ctrl = (a + b) % BUILDER_QUBITS;
                if ctrl != a && ctrl != b {
                    c.cswap(ctrl, a, b);
                }
            }
            9 if a != b => {
                let t = (a + b) % BUILDER_QUBITS;
                if t != a && t != b {
                    c.ccx(a, b, t);
                }
            }
            10 => {
                if with_boundaries {
                    c.measure(a);
                } else {
                    c.x(a);
                }
            }
            11 => {
                if with_boundaries {
                    c.reset(a);
                } else {
                    c.crz(a, (a + 1) % BUILDER_QUBITS, theta);
                }
            }
            _ => {}
        }
    }
    c
}

fn counts_via_accelerator(circuit: &Circuit, threads: usize, seed: u64) -> qcor_sim::Counts {
    let params = HetMap::new().with("threads", threads);
    let acc = registry::get_accelerator("qpp", &params).unwrap();
    let mut buf = AcceleratorBuffer::with_name("prop", circuit.num_qubits());
    acc.execute(&mut buf, circuit, &ExecOptions::with_shots(64).seeded(seed)).unwrap();
    buf.measurements().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn accelerator_matches_direct_simulation(src in xasm_source(), seed in 0u64..500) {
        let circuit = xasm::parse_kernel(&src, 3).unwrap().bind(&[]).unwrap();
        let direct = run_shots(
            &circuit,
            Arc::new(ThreadPool::new(1)),
            &RunConfig { shots: 64, seed: Some(seed), ..RunConfig::default() },
        );
        let via_acc = counts_via_accelerator(&circuit, 1, seed);
        prop_assert_eq!(direct, via_acc);
    }

    #[test]
    fn pool_size_does_not_change_seeded_counts(src in xasm_source(), seed in 0u64..500) {
        let circuit = xasm::parse_kernel(&src, 3).unwrap().bind(&[]).unwrap();
        let config = RunConfig { shots: 48, seed: Some(seed), ..RunConfig::default() };
        let seq = run_shots(&circuit, Arc::new(ThreadPool::new(1)), &config);
        let par = run_shots(&circuit, Arc::new(ThreadPool::new(3)), &config);
        prop_assert_eq!(seq, par, "thread count must never affect results");
        // The inner-parallel path with every sweep forked (`par_threshold`
        // 1 — the default floor runs a 3-qubit state inline, which would
        // compare the sequential path with itself).
        let forking = RunConfig { granularity: Granularity::Sequential, par_threshold: 1, ..config };
        let inline = run_shots(&circuit, Arc::new(ThreadPool::new(1)), &forking);
        let forked = run_shots(&circuit, Arc::new(ThreadPool::new(3)), &forking);
        prop_assert_eq!(inline, forked, "forked sweeps must never affect results");
    }

    #[test]
    fn distinct_cloneable_instances_agree(src in xasm_source(), seed in 0u64..500) {
        let circuit = xasm::parse_kernel(&src, 3).unwrap().bind(&[]).unwrap();
        let a = counts_via_accelerator(&circuit, 1, seed);
        let b = counts_via_accelerator(&circuit, 2, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn total_shots_always_conserved(src in xasm_source(), seed in 0u64..500) {
        let circuit = xasm::parse_kernel(&src, 3).unwrap().bind(&[]).unwrap();
        let counts = counts_via_accelerator(&circuit, 1, seed);
        let total: usize = counts.values().sum();
        prop_assert_eq!(total, 64);
        for bits in counts.keys() {
            prop_assert_eq!(bits.len(), 3, "every qubit is measured exactly once");
        }
    }

    // ---- batched shot scheduler properties ------------------------------

    /// Merged counts from the batched scheduler always sum to
    /// `config.shots`, for arbitrary (shots, tasks, chunk_shots) — both via
    /// the task-parallel entry point and via a plain `run_shots`.
    #[test]
    fn scheduler_merged_counts_sum_to_shots(
        shots in 0usize..300,
        tasks in 1usize..6,
        chunk in 0usize..40,
        seed in 0u64..500,
    ) {
        let circuit = library::bell_kernel();
        // chunk 0 encodes "no explicit override" (adaptive granularity).
        let chunk_shots = (chunk > 0).then_some(chunk);
        let config = RunConfig { shots, seed: Some(seed), chunk_shots, ..RunConfig::default() };
        let merged = run_shots_task_parallel(&circuit, tasks, 1, &config);
        prop_assert_eq!(merged.values().sum::<usize>(), shots);
        let direct = run_shots(&circuit, Arc::new(ThreadPool::new(2)), &config);
        prop_assert_eq!(direct.values().sum::<usize>(), shots);
    }

    /// The chunk partition covers `0..shots` exactly once: chunks are
    /// contiguous, in order, non-empty, and their lengths sum to `shots` —
    /// for explicit chunk sizes and for the task-capped planner.
    #[test]
    fn shot_plan_partitions_cover_exactly_once(
        shots in 0usize..5000,
        tasks in 1usize..9,
        chunk in 1usize..700,
    ) {
        let explicit = ShotPlan::with_chunk_shots(shots, chunk);
        let config = RunConfig { shots, chunk_shots: Some(chunk), ..RunConfig::default() };
        let planned = ShotPlan::for_tasks(&library::bell_kernel(), &config, tasks);
        for plan in [explicit, planned] {
            let mut next = 0usize;
            let mut chunks = 0usize;
            for span in plan.chunks() {
                prop_assert_eq!(span.start, next, "chunks must be contiguous and ordered");
                prop_assert!(!span.is_empty(), "no chunk may be empty");
                next = span.end;
                chunks += 1;
            }
            prop_assert_eq!(next, shots, "chunks must cover 0..shots");
            prop_assert_eq!(chunks, plan.num_chunks());
        }
    }

    /// A fixed (seed, tasks, chunk_shots) schedule is reproducible: two
    /// runs merge to byte-identical counts, whatever the pool size.
    #[test]
    fn scheduler_is_deterministic_for_fixed_tuple(
        shots in 0usize..200,
        tasks in 1usize..6,
        chunk in 0usize..30,
        seed in 0u64..500,
    ) {
        let circuit = library::ghz_kernel(3);
        let chunk_shots = (chunk > 0).then_some(chunk);
        let config = RunConfig { shots, seed: Some(seed), chunk_shots, ..RunConfig::default() };
        let a = run_shots_task_parallel(&circuit, tasks, 1, &config);
        let b = run_shots_task_parallel(&circuit, tasks, 2, &config);
        prop_assert_eq!(a, b);
    }

    // ---- compiled (fused) vs interpreted execution ----------------------

    /// The compiled replay of a random kernel produces the same amplitudes
    /// as the interpreted executor to 1e-12 — gate fusion must be exactly
    /// circuit-equivalent, not just statistically close. (Measurements are
    /// stripped so the comparison sees the full unitary prefix.)
    #[test]
    fn fused_and_unfused_amplitudes_agree(src in xasm_source(), seed in 0u64..500) {
        let circuit = xasm::parse_kernel(&src, 3).unwrap().bind(&[]).unwrap();
        let mut unitary = Circuit::new(circuit.num_qubits());
        for inst in circuit.instructions() {
            if inst.gate.is_unitary() {
                unitary.push(inst.clone());
            }
        }
        let mut interp = StateVector::new(3);
        let mut fused = StateVector::new(3);
        let mut rng1 = StdRng::seed_from_u64(seed);
        let mut rng2 = StdRng::seed_from_u64(seed);
        run_once_interpreted(&mut interp, &unitary, &mut rng1);
        let compiled = CompiledCircuit::compile(&unitary);
        prop_assert!(compiled.len() <= compiled.source_len(), "fusion must never grow the op list");
        compiled.run_once(&mut fused, &mut rng2);
        for (a, b) in interp.amplitudes().iter().zip(fused.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-12), "fused {b} != interpreted {a}");
        }
    }

    /// Seeded counts are identical with fusion on and off, across the full
    /// scheduler (random circuits with mid-stream measurements included):
    /// both executors consume the same RNG stream in the same order, so
    /// the `(seed, tasks, chunk_shots)` determinism contract holds across
    /// the fusion knob.
    #[test]
    fn fused_and_unfused_seeded_counts_identical(
        src in xasm_source(),
        seed in 0u64..500,
        chunk in 0usize..20,
    ) {
        let circuit = xasm::parse_kernel(&src, 3).unwrap().bind(&[]).unwrap();
        let chunk_shots = (chunk > 0).then_some(chunk);
        let fused_cfg = RunConfig {
            shots: 48, seed: Some(seed), chunk_shots, fusion: Some(true), ..RunConfig::default()
        };
        let interp_cfg = RunConfig { fusion: Some(false), ..fused_cfg.clone() };
        let fused = run_shots(&circuit, Arc::new(ThreadPool::new(1)), &fused_cfg);
        let interp = run_shots(&circuit, Arc::new(ThreadPool::new(2)), &interp_cfg);
        prop_assert_eq!(fused, interp, "fusion knob must not change seeded counts");
    }

    // ---- two-qubit block fusion + swap relabeling -----------------------

    /// The pair-fusing compiler (Dense2 blocks, swap relabeling, the
    /// permutation flush) is exactly circuit-equivalent on random
    /// swap-heavy builder circuits: fused amplitudes match the interpreted
    /// executor to 1e-12.
    #[test]
    fn pair_fused_swap_circuits_amplitudes_agree(
        ops in builder_ops(),
        seed in 0u64..500,
    ) {
        let circuit = build_circuit(&ops, false);
        let mut interp = StateVector::new(BUILDER_QUBITS);
        let mut fused = StateVector::new(BUILDER_QUBITS);
        run_once_interpreted(&mut interp, &circuit, &mut StdRng::seed_from_u64(seed));
        let compiled = CompiledCircuit::compile(&circuit);
        compiled.run_once(&mut fused, &mut StdRng::seed_from_u64(seed));
        for (a, b) in interp.amplitudes().iter().zip(fused.amplitudes()) {
            prop_assert!(a.approx_eq(*b, 1e-12), "fused {b} != interpreted {a}");
        }
    }

    /// Mid-circuit `Measure`/`Reset` instructions are hard fusion
    /// boundaries: with random swaps and entanglers around them, fused and
    /// interpreted execution still consume identical RNG streams and merge
    /// identical seeded counts through the full scheduler.
    #[test]
    fn pair_fused_mid_measure_counts_identical(
        ops in builder_ops(),
        seed in 0u64..500,
        chunk in 0usize..16,
    ) {
        let mut circuit = build_circuit(&ops, true);
        circuit.measure_all();
        let chunk_shots = (chunk > 0).then_some(chunk);
        let fused_cfg = RunConfig {
            shots: 32, seed: Some(seed), chunk_shots, fusion: Some(true), ..RunConfig::default()
        };
        let interp_cfg = RunConfig { fusion: Some(false), ..fused_cfg.clone() };
        let fused = run_shots(&circuit, Arc::new(ThreadPool::new(1)), &fused_cfg);
        let interp = run_shots(&circuit, Arc::new(ThreadPool::new(2)), &interp_cfg);
        prop_assert_eq!(fused, interp, "fusion knob must not change seeded counts");
    }

    /// Relabeled measurement reports logical qubits: a shot record from
    /// the compiled replay of a swap-permuted circuit has one outcome per
    /// measured logical qubit, bit-exact with the interpreted record when
    /// every amplitude is concentrated on one basis state (X/Swap-only
    /// circuits are deterministic).
    #[test]
    fn swap_relabel_reports_logical_outcomes(
        flips in prop::collection::vec(0usize..BUILDER_QUBITS, 0..6),
        swaps in prop::collection::vec(((0usize..BUILDER_QUBITS), (0usize..BUILDER_QUBITS)), 0..6),
        seed in 0u64..100,
    ) {
        let mut circuit = Circuit::new(BUILDER_QUBITS);
        for &q in &flips {
            circuit.x(q);
        }
        for &(a, b) in &swaps {
            if a != b {
                circuit.swap(a, b);
            }
        }
        circuit.measure_all();
        let mut interp = StateVector::new(BUILDER_QUBITS);
        let mut fused = StateVector::new(BUILDER_QUBITS);
        let rec_i = run_once_interpreted(&mut interp, &circuit, &mut StdRng::seed_from_u64(seed));
        let rec_f = CompiledCircuit::compile(&circuit)
            .run_once(&mut fused, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(rec_i.bitstring(), rec_f.bitstring());
    }
}
