//! Perf-regression + correctness guard for amplitude-sharded execution.
//!
//! Two gates, both of which fail the process (non-zero exit) on breach:
//!
//! 1. **Amplitude bit-identity** — replaying the 20-qubit kernel with
//!    amplitude sharding on (`StateVector::set_amp_shards`) must leave
//!    the state bit-identical to the plain sequential sweep, including
//!    the high-qubit targets that take the pairwise-exchange step.
//! 2. **Sharded replay overhead** — at `QCOR_NUM_THREADS=1` (batch jobs
//!    run inline on the submitter) the sharded replay must stay at
//!    ≤ 1.1× the sequential replay. At higher thread counts the ratio is
//!    recorded but not gated: CI runs in a single-CPU container, so
//!    multi-thread "speedups" there are scheduler noise, not signal.
//!
//! Results land in `BENCH_shardsim.json` together with the shard-job /
//! exchange-step counters (uploaded as a CI artifact; run
//! under both `QCOR_NUM_THREADS=1` and `4` in the workflow).
//!
//! ```text
//! cargo run -p qcor-bench --release --bin shardsim_guard
//! ```

use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use qcor_sim::stats::{reset_shard_stats, shard_exchange_steps, shard_jobs_launched};
use qcor_sim::{CompiledCircuit, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Replay workload: large enough that sharding is the intended regime
/// (2^20 amplitudes, above the cache-block floor).
const REPLAY_QUBITS: usize = 20;
const SHARDS: usize = 4;
const REPS: usize = 5;
/// Inline sharded dispatch must be near-free next to the sweeps it wraps.
const MAX_RATIO: f64 = 1.1;

/// A dense measurement-free kernel mixing low-qubit sweeps with
/// high-qubit targets (`REPLAY_QUBITS - 1` and `- 2`), so the sharded
/// replay exercises both the plain per-shard sweep and the
/// pairwise-exchange step on every layer.
fn replay_kernel() -> Circuit {
    let mut c = Circuit::new(REPLAY_QUBITS);
    for layer in 0..4 {
        let t = 0.3 + 0.17 * layer as f64;
        for q in 0..REPLAY_QUBITS {
            c.h(q).rz(q, t);
        }
        for q in 0..REPLAY_QUBITS - 1 {
            c.cx(q, q + 1);
        }
        c.cx(REPLAY_QUBITS - 1, 0).h(REPLAY_QUBITS - 1).h(REPLAY_QUBITS - 2);
    }
    c
}

/// Best-of timing with the two variants interleaved every rep, so load
/// drift on a shared (single-CPU CI) host hits both sides equally
/// instead of biasing whichever ran second.
fn best_of_pair(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (Duration, Duration) {
    let mut best_a = Duration::MAX;
    let mut best_b = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        a();
        best_a = best_a.min(start.elapsed());
        let start = Instant::now();
        b();
        best_b = best_b.min(start.elapsed());
    }
    (best_a, best_b)
}

/// Gate 1: sharded replay leaves amplitudes bit-identical to sequential.
fn assert_sharded_replay_bit_identical(plan: &CompiledCircuit, pool: &Arc<ThreadPool>) {
    let mut reference = StateVector::new(REPLAY_QUBITS);
    plan.run_once(&mut reference, &mut StdRng::seed_from_u64(7));
    let mut sharded = StateVector::with_pool(REPLAY_QUBITS, Arc::clone(pool));
    sharded.set_amp_shards(Some(SHARDS));
    plan.run_once(&mut sharded, &mut StdRng::seed_from_u64(7));
    for (a, b) in reference.amplitudes().iter().zip(sharded.amplitudes()) {
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "sharded replay must be bit-identical");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "sharded replay must be bit-identical");
    }
}

fn main() {
    let circuit = replay_kernel();
    let plan = CompiledCircuit::compile(&circuit);
    let threads = qcor_pool::num_threads_from_env();
    let pool = Arc::new(ThreadPool::new(threads));
    println!(
        "replay kernel: {} instructions -> {} fused kernel ops over 2^{REPLAY_QUBITS} amplitudes",
        plan.source_len(),
        plan.len()
    );

    // Correctness gate first — no point timing a broken shard sweep.
    assert_sharded_replay_bit_identical(&plan, &pool);
    println!("sharded replay bit-identical to sequential ({SHARDS} shards, {threads} thread pool)");

    // Timing gate: the same compiled replay with sharding off vs on. One
    // state per variant, allocated outside the timed region; each rep
    // replays the full plan, so the ratio isolates dispatch overhead.
    let mut seq_state = StateVector::with_pool(REPLAY_QUBITS, Arc::clone(&pool));
    let mut shard_state = StateVector::with_pool(REPLAY_QUBITS, Arc::clone(&pool));
    shard_state.set_amp_shards(Some(SHARDS));
    reset_shard_stats();
    let (sequential_best, sharded_best) = best_of_pair(
        REPS,
        || {
            plan.run_once(&mut seq_state, &mut StdRng::seed_from_u64(7));
        },
        || {
            plan.run_once(&mut shard_state, &mut StdRng::seed_from_u64(7));
        },
    );
    let rows: Vec<(String, Duration)> = vec![
        ("replay_20q/sequential".to_string(), sequential_best),
        ("replay_20q/sharded".to_string(), sharded_best),
    ];
    let ratio = sharded_best.as_secs_f64() / sequential_best.as_secs_f64();

    let shard_jobs = shard_jobs_launched();
    let exchanges = shard_exchange_steps();
    assert!(shard_jobs > 0, "sharded replay must launch shard jobs");
    assert!(exchanges > 0, "high-qubit targets must take the exchange step");

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
    let guarded = threads == 1;
    let json = format!(
        "{{\n  \"meta\": {{\n    \"command\": \"cargo run -p qcor-bench --release --bin shardsim_guard\",\n    \
         \"logical_cpus\": {},\n    \"qcor_num_threads\": {threads},\n    \
         \"guard\": \"fail if sharded replay divided by sequential exceeds {MAX_RATIO} at QCOR_NUM_THREADS=1\",\n    \
         \"guard_enforced\": {guarded},\n    \
         \"note\": \"sharded-execution guard: a 20-qubit compiled replay with {SHARDS} amplitude shards vs the sequential sweep; also asserts bit-identical amplitudes. CI runs in a single-CPU container, so multi-thread ratios are recorded but not gated.\"\n  }},\n  \
         \"ratio_sharded_over_sequential\": {ratio:.3},\n  \
         \"shard_counters\": {{ \"shard_jobs_launched\": {shard_jobs}, \"exchange_steps\": {exchanges} }},\n  \
         \"benchmarks\": [\n{benchmarks}\n  ]\n}}\n",
        qcor_pool::available_parallelism(),
    );
    std::fs::write("BENCH_shardsim.json", &json).expect("failed to write BENCH_shardsim.json");

    for (name, time) in &rows {
        println!("{name:<38} {:>10.1} us", time.as_secs_f64() * 1e6);
    }
    println!("shard counters: {shard_jobs} jobs, {exchanges} exchange steps");
    if guarded {
        qcor_bench::enforce_guard_ratio(
            "sharded / sequential replay",
            ratio,
            MAX_RATIO,
            "BENCH_shardsim.json",
        );
    } else {
        println!(
            "\nsharded / sequential replay = {ratio:.2} (record-only at {threads} threads; \
             guarded at QCOR_NUM_THREADS=1); recorded to BENCH_shardsim.json"
        );
    }
}
