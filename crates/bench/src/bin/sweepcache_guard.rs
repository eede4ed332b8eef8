//! Perf-regression guard for the structural compile cache.
//!
//! Two gates, both of which fail the process (non-zero exit) on breach:
//!
//! 1. **Correctness** — at every step of an angle sweep over one circuit
//!    structure, the replay of the plan from [`compile_cached`] must
//!    merge the same seeded counts as the replay of
//!    [`CompiledCircuit::compile`]'s plan, and the sweep must actually hit
//!    the cache (≥ sweep-1 hits on the process-global counter after the
//!    first compile).
//! 2. **Sweep compile time** — re-compiling the swept structure through
//!    the cache (template hit + parameter rebind) must run at
//!    ≤ 0.7× the cold compile (full lowering + fusion) per invocation:
//!    anything slower means the rebind path stopped skipping the
//!    lowering pipeline. Cold and cached reps alternate, so a slow
//!    stretch of the host hits both sides alike.
//!
//! Results land in `target/bench/BENCH_sweepcache.json` (uploaded as a CI artifact; run
//! under both `QCOR_NUM_THREADS=1` and `4` in the workflow).
//!
//! ```text
//! cargo run -p qcor-bench --release --bin sweepcache_guard
//! ```

use qcor_bench::{seeded_counts, time_once};
use qcor_circuit::Circuit;
use qcor_sim::stats::{compile_cache_hits, compile_cache_misses};
use qcor_sim::{clear_compile_cache, compile_cached, CompiledCircuit, Counts};
use std::time::Duration;

const QUBITS: usize = 10;
const SWEEP: usize = 32;
const SHOTS: usize = 64;
const REPS: usize = 7;
/// Rebinding a cached template must stay well under a cold compile.
const MAX_RATIO: f64 = 0.7;

/// A deep parameterized ansatz: layers of Rx/Ry/Rz rotations (one
/// parameter slot each) interleaved with CX chains and CPhase ladders —
/// the angle-sweep workload class the compile cache targets. Every layer
/// re-derives its angles from `theta`, so a sweep varies every parameter
/// while keeping the structure fixed.
fn ansatz(theta: f64) -> Circuit {
    let mut c = Circuit::new(QUBITS);
    for layer in 0..12 {
        let t = theta + 0.1 * layer as f64;
        for q in 0..QUBITS {
            c.rx(q, t).ry(q, 0.5 * t).rz(q, -t);
        }
        for q in 0..QUBITS - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..QUBITS - 1 {
            c.cphase(q, q + 1, 0.25 * t);
        }
    }
    c.measure_all();
    c
}

fn sweep_angle(i: usize) -> f64 {
    0.05 + i as f64 * 0.21
}

/// `SHOTS` seeded shots of `plan` on one RNG stream.
fn replay_counts(plan: &CompiledCircuit) -> Counts {
    seeded_counts(QUBITS, SHOTS, 1, |state, rng| plan.run_once(state, rng))
}

/// Gate 1: the cached and the cold plan merge identical seeded counts at
/// every sweep step, and the sweep hits the cache after its first compile.
fn assert_sweep_counts_and_hits() -> (u64, u64) {
    clear_compile_cache();
    let hits0 = compile_cache_hits();
    let misses0 = compile_cache_misses();
    for i in 0..SWEEP {
        let circuit = ansatz(sweep_angle(i));
        let cached = replay_counts(&compile_cached(&circuit));
        let cold = replay_counts(&CompiledCircuit::compile(&circuit));
        assert_eq!(cached, cold, "cache changed seeded counts at sweep step {i}");
    }
    let hits = compile_cache_hits() - hits0;
    let misses = compile_cache_misses() - misses0;
    assert!(
        hits >= (SWEEP - 1) as u64,
        "sweep must hit the cache after the first compile ({hits} hits / {misses} misses)"
    );
    (hits, misses)
}

fn main() {
    let circuit = ansatz(sweep_angle(0));
    let compiled = CompiledCircuit::compile(&circuit);
    println!(
        "sweep kernel: {} instructions -> {} fused kernel ops, {SWEEP} sweep points",
        compiled.source_len(),
        compiled.len()
    );

    // Correctness gate first — no point timing a broken cache.
    let (hits, misses) = assert_sweep_counts_and_hits();
    println!("sweep counters: {hits} hits / {misses} misses (counts identical to cold)");

    // Timing gate: per-invocation compile cost across the sweep — cold
    // (full lowering + fusion every time) vs cached (one template build,
    // then lookup + rebind per angle). The sweep circuits are built once
    // outside the timed region (construction cost is identical on both
    // paths and would only dilute the ratio being guarded), and the
    // compiled plans are consumed via their op counts so neither loop can
    // be optimized away.
    let sweep_circuits: Vec<Circuit> = (0..SWEEP).map(|i| ansatz(sweep_angle(i))).collect();
    clear_compile_cache();
    compile_cached(&circuit); // warm the template outside the timed region
    let (mut cold_best, mut cached_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..REPS {
        cold_best = cold_best.min(time_once(|| {
            let total_ops: usize = sweep_circuits.iter().map(|c| CompiledCircuit::compile(c).len()).sum();
            assert!(total_ops > 0);
        }));
        cached_best = cached_best.min(time_once(|| {
            let total_ops: usize = sweep_circuits.iter().map(|c| compile_cached(c).len()).sum();
            assert!(total_ops > 0);
        }));
    }
    let rows = [("sweep_compile/cold", cold_best), ("sweep_compile/cached", cached_best)];
    let ratio = cached_best.as_secs_f64() / cold_best.as_secs_f64();

    let benchmarks: String = rows
        .iter()
        .map(|(name, time)| {
            format!(
                "    {{ \"name\": \"{name}\", \"best_ns\": {:.1}, \"reps\": {REPS} }}",
                time.as_secs_f64() * 1e9
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"meta\": {{\n    \"command\": \"cargo run -p qcor-bench --release --bin sweepcache_guard\",\n    \
         \"logical_cpus\": {},\n    \"qcor_num_threads\": {},\n    \
         \"guard\": \"fail if cached sweep compile divided by cold exceeds {MAX_RATIO}\",\n    \
         \"note\": \"structural compile cache guard: an angle sweep reuses one template (hit + rebind) instead of re-lowering; cold and cached reps alternate; also asserts seeded-count equality of cached and cold plans and the cache-hit counters\"\n  }},\n  \
         \"ratio_cached_over_cold\": {ratio:.3},\n  \
         \"sweep_points\": {SWEEP},\n  \
         \"source_instructions\": {},\n  \"fused_kernel_ops\": {},\n  \
         \"cache_counters\": {{ \"hits\": {hits}, \"misses\": {misses} }},\n  \
         \"benchmarks\": [\n{benchmarks}\n  ]\n}}\n",
        qcor_pool::available_parallelism(),
        qcor_pool::num_threads_from_env(),
        compiled.source_len(),
        compiled.len(),
    );
    let recorded = qcor_bench::write_guard_record("BENCH_sweepcache.json", &json);

    for (name, time) in &rows {
        println!("{name:<38} {:>10.1} us", time.as_secs_f64() * 1e6);
    }
    qcor_bench::enforce_guard_ratio("cached / cold sweep compile", ratio, MAX_RATIO, &recorded);
}
