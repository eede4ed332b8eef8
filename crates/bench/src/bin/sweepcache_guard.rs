//! Perf-regression guard for the structural compile cache + wire format.
//!
//! Three gates, all of which fail the process (non-zero exit) on breach:
//!
//! 1. **Correctness** — an angle sweep over one circuit structure must
//!    merge identical seeded counts with the cache on and off, and the
//!    sweep must actually hit the cache (≥ sweep-1 hits on the
//!    process-global counter after the first compile).
//! 2. **Wire format** — the swept kernel must survive the versioned
//!    circuit codec losslessly.
//! 3. **Sweep compile time** — re-compiling the swept structure through
//!    the cache (template hit + parameter rebind) must run at
//!    ≤ 0.7× the cold compile (full lowering + fusion) per invocation:
//!    anything slower means the rebind path stopped skipping the
//!    lowering pipeline.
//!
//! Results land in `BENCH_sweepcache.json` (uploaded as a CI artifact; run
//! under both `QCOR_NUM_THREADS=1` and `4` in the workflow).
//!
//! ```text
//! cargo run -p qcor-bench --release --bin sweepcache_guard
//! ```

use qcor_circuit::{wire as cwire, Circuit};
use qcor_pool::ThreadPool;
use qcor_sim::stats::{compile_cache_hits, compile_cache_misses};
use qcor_sim::{clear_compile_cache, compile_cached, CompiledCircuit, RunConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

/// Gate 1: cached and cold execution merge identical seeded counts across
/// the sweep, and the sweep hits the cache after its first compile.
fn assert_sweep_counts_and_hits(pool: &Arc<ThreadPool>) -> (u64, u64) {
    clear_compile_cache();
    let hits0 = compile_cache_hits();
    let misses0 = compile_cache_misses();
    let cached_cfg =
        RunConfig { shots: SHOTS, seed: Some(1), compile_cache: Some(true), ..RunConfig::default() };
    let cold_cfg = RunConfig { compile_cache: Some(false), ..cached_cfg.clone() };
    for i in 0..SWEEP {
        let circuit = ansatz(sweep_angle(i));
        let cached = qcor_sim::run_shots(&circuit, Arc::clone(pool), &cached_cfg);
        let cold = qcor_sim::run_shots(&circuit, Arc::clone(pool), &cold_cfg);
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

/// Gate 2: the swept kernel survives the circuit codec losslessly.
fn assert_wire_round_trip(circuit: &Circuit) -> usize {
    let circuit_bytes = cwire::encode(circuit);
    let decoded = cwire::decode(&circuit_bytes).expect("circuit codec must round-trip");
    assert_eq!(circuit, &decoded, "circuit wire round trip must be lossless");
    circuit_bytes.len()
}

fn main() {
    let circuit = ansatz(sweep_angle(0));
    let compiled = CompiledCircuit::compile(&circuit);
    println!(
        "sweep kernel: {} instructions -> {} fused kernel ops, {SWEEP} sweep points",
        compiled.source_len(),
        compiled.len()
    );

    // Correctness gates first — no point timing a broken cache.
    let pool = Arc::new(ThreadPool::new(qcor_pool::num_threads_from_env()));
    let (hits, misses) = assert_sweep_counts_and_hits(&pool);
    println!("sweep counters: {hits} hits / {misses} misses (counts identical to cold)");
    let circuit_bytes = assert_wire_round_trip(&circuit);
    println!("wire round trip: circuit {circuit_bytes} bytes");

    // Timing gate: per-invocation compile cost across the sweep — cold
    // (full lowering + fusion every time) vs cached (one template build,
    // then lookup + rebind per angle). The sweep circuits are built once
    // outside the timed region (construction cost is identical on both
    // paths and would only dilute the ratio being guarded), and the
    // compiled plans are consumed via their op counts so neither loop can
    // be optimized away.
    let sweep_circuits: Vec<Circuit> = (0..SWEEP).map(|i| ansatz(sweep_angle(i))).collect();
    let mut rows: Vec<(String, Duration)> = Vec::new();
    let cold_best = best_of(REPS, || {
        let mut total_ops = 0usize;
        for c in &sweep_circuits {
            total_ops += CompiledCircuit::compile(c).len();
        }
        assert!(total_ops > 0);
    });
    rows.push(("sweep_compile/cold".to_string(), cold_best));
    clear_compile_cache();
    compile_cached(&circuit); // warm the template outside the timed region
    let cached_best = best_of(REPS, || {
        let mut total_ops = 0usize;
        for c in &sweep_circuits {
            total_ops += compile_cached(c).len();
        }
        assert!(total_ops > 0);
    });
    rows.push(("sweep_compile/cached".to_string(), cached_best));
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
         \"note\": \"structural compile cache guard: an angle sweep reuses one template (hit + rebind) instead of re-lowering; also asserts seeded-count equality, cache-hit counters, and the circuit wire-codec round trip\"\n  }},\n  \
         \"ratio_cached_over_cold\": {ratio:.3},\n  \
         \"sweep_points\": {SWEEP},\n  \
         \"source_instructions\": {},\n  \"fused_kernel_ops\": {},\n  \
         \"cache_counters\": {{ \"hits\": {hits}, \"misses\": {misses} }},\n  \
         \"wire_bytes\": {{ \"circuit\": {circuit_bytes} }},\n  \
         \"benchmarks\": [\n{benchmarks}\n  ]\n}}\n",
        qcor_pool::available_parallelism(),
        qcor_pool::num_threads_from_env(),
        compiled.source_len(),
        compiled.len(),
    );
    std::fs::write("BENCH_sweepcache.json", &json).expect("failed to write BENCH_sweepcache.json");

    for (name, time) in &rows {
        println!("{name:<38} {:>10.1} us", time.as_secs_f64() * 1e6);
    }
    qcor_bench::enforce_guard_ratio("cached / cold sweep compile", ratio, MAX_RATIO, "BENCH_sweepcache.json");
}
