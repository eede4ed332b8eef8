//! Cross-crate wire-format and compile-cache integration: a circuit that
//! travels through the versioned binary codec must execute identically to
//! the original through the full accelerator stack, and the structural
//! compile cache must be invisible in results while observable in its
//! hit/miss counters.

use proptest::prelude::*;
use qcor_circuit::{library, wire as cwire, Circuit};
use qcor_pool::ThreadPool;
use qcor_sim::{clear_compile_cache, compile_cached, run_shots, CompiledCircuit, RunConfig, StateVector};
use qcor_xacc::{registry, AcceleratorBuffer, ExecOptions, HetMap};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A parameterized workload touching every serialized gate class the
/// compiler treats specially: dense singles, phase folds, controlled
/// entanglers, swaps and mid-circuit measurement.
fn sweep_kernel(theta: f64) -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).rx(1, theta).rz(2, -0.5 * theta).cx(0, 1).cphase(1, 2, 0.25 * theta);
    c.swap(2, 3).crz(0, 3, theta).t(3).measure(1);
    c.ry(2, 0.3 * theta);
    c.measure_all();
    c
}

#[test]
fn circuit_wire_round_trip_preserves_seeded_counts() {
    for (i, theta) in [0.0, 0.7, -2.4, std::f64::consts::PI].into_iter().enumerate() {
        let original = sweep_kernel(theta);
        let decoded = cwire::decode(&cwire::encode(&original)).unwrap();
        assert_eq!(original, decoded, "wire round trip must be lossless");
        let config = RunConfig { shots: 128, seed: Some(40 + i as u64), ..RunConfig::default() };
        let pool = Arc::new(ThreadPool::new(1));
        let a = run_shots(&original, Arc::clone(&pool), &config);
        let b = run_shots(&decoded, pool, &config);
        assert_eq!(a, b, "decoded circuit must execute identically (theta = {theta})");
    }
}

#[test]
fn cached_sweep_matches_cold_through_accelerator_stack() {
    clear_compile_cache();
    let hits0 = qcor_sim::stats::compile_cache_hits();
    let cached =
        registry::get_accelerator("qpp", &HetMap::new().with("threads", 1usize).with("compile-cache", true))
            .unwrap();
    let cold =
        registry::get_accelerator("qpp", &HetMap::new().with("threads", 1usize).with("compile-cache", false))
            .unwrap();
    for i in 0..5 {
        let circuit = sweep_kernel(0.3 + 0.9 * i as f64);
        let opts = ExecOptions::with_shots(96).seeded(70 + i as u64);
        let mut buf_a = AcceleratorBuffer::with_name("cached", 4);
        let mut buf_b = AcceleratorBuffer::with_name("cold", 4);
        cached.execute(&mut buf_a, &circuit, &opts).unwrap();
        cold.execute(&mut buf_b, &circuit, &opts).unwrap();
        assert_eq!(
            buf_a.measurements(),
            buf_b.measurements(),
            "cache must not change seeded counts (sweep step {i})"
        );
    }
    // All five sweep steps share one structure; after the first compile the
    // cached backend must hit (counters are process-global, so assert on
    // the delta).
    assert!(
        qcor_sim::stats::compile_cache_hits() - hits0 >= 4,
        "angle sweep through the accelerator must reuse the cached template"
    );
}

#[test]
fn cache_hits_skip_lowering_but_cold_path_unaffected() {
    clear_compile_cache();
    let circuit = library::qft(4);
    let misses0 = qcor_sim::stats::compile_cache_misses();
    let hits0 = qcor_sim::stats::compile_cache_hits();
    let a = compile_cached(&circuit);
    let b = compile_cached(&circuit);
    assert!(qcor_sim::stats::compile_cache_misses() - misses0 >= 1);
    assert!(qcor_sim::stats::compile_cache_hits() - hits0 >= 1);
    let cold = CompiledCircuit::compile(&circuit);
    let run = |plan: &CompiledCircuit| {
        let mut s = StateVector::new(4);
        let mut r = StdRng::seed_from_u64(3);
        plan.run_once(&mut s, &mut r);
        s
    };
    let (sa, sb, sc) = (run(&a), run(&b), run(&cold));
    for ((x, y), z) in sa.amplitudes().iter().zip(sb.amplitudes()).zip(sc.amplitudes()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "hit and miss rebinds must agree exactly");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "hit and miss rebinds must agree exactly");
        assert!(x.approx_eq(*z, 1e-12), "cached {x} vs cold {z}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sweep angle round-trips through the circuit codec and merges
    /// identical seeded counts.
    #[test]
    fn wire_round_trips_preserve_execution(theta in -6.0f64..6.0, seed in 0u64..300) {
        let circuit = sweep_kernel(theta);
        let decoded = cwire::decode(&cwire::encode(&circuit)).unwrap();
        let config = RunConfig { shots: 32, seed: Some(seed), ..RunConfig::default() };
        let pool = Arc::new(ThreadPool::new(1));
        prop_assert_eq!(
            run_shots(&circuit, Arc::clone(&pool), &config),
            run_shots(&decoded, pool, &config)
        );
    }

    /// The structural hash is angle-independent: every angle pair maps to
    /// the same key, and the cached rebind agrees with a cold compile.
    #[test]
    fn structural_hash_is_angle_independent(a in -6.0f64..6.0, b in -6.0f64..6.0, seed in 0u64..300) {
        let ca = sweep_kernel(a);
        let cb = sweep_kernel(b);
        prop_assert_eq!(cwire::structural_hash(&ca), cwire::structural_hash(&cb));
        prop_assert!(cwire::structurally_equal(&ca, &cb));
        let cached = compile_cached(&ca);
        let cold = CompiledCircuit::compile(&ca);
        let mut s1 = StateVector::new(4);
        let mut s2 = StateVector::new(4);
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        prop_assert_eq!(cached.run_once(&mut s1, &mut r1), cold.run_once(&mut s2, &mut r2));
    }
}
