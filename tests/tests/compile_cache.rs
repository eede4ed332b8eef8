//! Cross-crate compile-cache integration: the structural compile cache
//! must be invisible in results through the full accelerator stack while
//! observable in its hit/miss counters.

use proptest::prelude::*;
use qcor_circuit::{library, Circuit};
use qcor_sim::stats::{compile_cache_hits, compile_cache_misses};
use qcor_sim::{clear_compile_cache, compile_cached, CompiledCircuit, StateVector};
use qcor_xacc::{registry, AcceleratorBuffer, ExecOptions, HetMap};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests that clear the process-global cache and assert on
/// its counters: a clear from one test between another's miss and hit
/// would turn that hit into a miss. (Tests that only compile can run
/// alongside — they can add hits and misses, never remove them.)
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A parameterized workload touching every gate class the compiler treats
/// specially: dense singles, phase folds, controlled entanglers, swaps and
/// mid-circuit measurement.
fn sweep_kernel(theta: f64) -> Circuit {
    let mut c = Circuit::new(4);
    c.h(0).rx(1, theta).rz(2, -0.5 * theta).cx(0, 1).cphase(1, 2, 0.25 * theta);
    c.swap(2, 3).crz(0, 3, theta).t(3).measure(1);
    c.ry(2, 0.3 * theta);
    c.measure_all();
    c
}

#[test]
fn cached_sweep_matches_cold_through_accelerator_stack() {
    let _serial = serial();
    let acc = registry::get_accelerator("qpp", &HetMap::new().with("threads", 1usize)).unwrap();
    let run = |circuit: &Circuit, seed: u64| {
        let mut buf = AcceleratorBuffer::with_name("sweep", 4);
        acc.execute(&mut buf, circuit, &ExecOptions::with_shots(96).seeded(seed)).unwrap();
        buf.measurements().clone()
    };
    for i in 0..5u64 {
        let circuit = sweep_kernel(0.3 + 0.9 * i as f64);
        // A cleared cache must miss; the same invocation right after must
        // hit the template the miss stored, and merge identical counts.
        clear_compile_cache();
        let misses0 = compile_cache_misses();
        let cold = run(&circuit, 70 + i);
        assert!(compile_cache_misses() > misses0, "a cleared cache must miss (sweep step {i})");
        let hits0 = compile_cache_hits();
        let warm = run(&circuit, 70 + i);
        assert!(compile_cache_hits() > hits0, "the warm run must hit (sweep step {i})");
        assert_eq!(cold, warm, "cache state must not change seeded counts (sweep step {i})");
    }
}

#[test]
fn cache_hits_skip_lowering_but_cold_path_unaffected() {
    let _serial = serial();
    clear_compile_cache();
    let circuit = library::qft(4);
    let misses0 = compile_cache_misses();
    let hits0 = compile_cache_hits();
    let a = compile_cached(&circuit);
    let b = compile_cached(&circuit);
    assert!(compile_cache_misses() - misses0 >= 1);
    assert!(compile_cache_hits() - hits0 >= 1);
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

    /// The structural hash is angle-independent: every angle pair maps to
    /// the same key, and the cached rebind agrees with a cold compile.
    #[test]
    fn structural_hash_is_angle_independent(a in -6.0f64..6.0, b in -6.0f64..6.0, seed in 0u64..300) {
        let ca = sweep_kernel(a);
        let cb = sweep_kernel(b);
        prop_assert_eq!(ca.structural_hash(), cb.structural_hash());
        prop_assert!(ca.structurally_equal(&cb));
        let cached = compile_cached(&ca);
        let cold = CompiledCircuit::compile(&ca);
        let mut s1 = StateVector::new(4);
        let mut s2 = StateVector::new(4);
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        prop_assert_eq!(cached.run_once(&mut s1, &mut r1), cold.run_once(&mut s2, &mut r2));
    }
}
