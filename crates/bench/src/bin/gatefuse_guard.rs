//! Perf-regression guard for compile-then-execute (gate fusion +
//! control-aware kernels).
//!
//! Four gates, all of which fail the process (non-zero exit) on breach:
//!
//! 1. **Runtime** — a GHZ+CX-heavy kernel with fusable single-qubit runs
//!    is sampled for the same seeded shots on one RNG stream by the
//!    compiled replay (compile included) and by the interpreter
//!    ([`run_once_interpreted`]); the counts must be equal and compiled ÷
//!    interpreted must be ≤ 1.0 (the compiled path must never lose to
//!    per-shot re-interpretation).
//! 2. **Iteration reduction** — the control-aware kernels must execute
//!    exactly `2^c`-fewer loop iterations per `c` control bits (asserted
//!    via the `qcor_sim::stats` per-thread iteration counter), the fused
//!    `Dense2` pair kernel must visit exactly `2^(n-2-c)` quads, and a
//!    compiled replay of the guard kernel must issue fewer total
//!    iterations than the interpreted replay. The per-kernel-class
//!    iteration breakdown (dense/dense2/flip/diag/phase/swap) of one
//!    compiled replay is recorded in the JSON.
//! 3. **Zero steady-state allocations** — repeated Shor-style
//!    `apply_controlled_permutation` calls must allocate the scratch
//!    buffer exactly once, and a compiled replay never touches the
//!    scratch allocator at all.
//! 4. **Deep-circuit runtime** — a 20-qubit kernel whose single-qubit
//!    runs fuse into two-qubit `Dense2` blocks (and whose replay is
//!    cache-block segmented at that state size) must run at
//!    ≤ 0.43× the interpreted time: at this depth fusion removes enough
//!    full-state sweeps that anything slower means the pair-fusion or
//!    blocking machinery regressed.
//!
//! Results land in `target/bench/BENCH_gatefuse.json` (uploaded as a CI artifact; run
//! under both `QCOR_NUM_THREADS=1` and `4` in the workflow).
//!
//! ```text
//! cargo run -p qcor-bench --release --bin gatefuse_guard
//! ```

use qcor_bench::seeded_counts;
use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use qcor_sim::stats::{
    kernel_class_iterations, kernel_iteration_breakdown, kernel_iterations, reset_kernel_iterations,
    KernelClass,
};
use qcor_sim::{run_once_interpreted, CompiledCircuit, Complex64, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const QUBITS: usize = 10;
const SHOTS: usize = 96;
const REPS: usize = 7;
/// The compiled path must at worst tie the interpreted path.
const MAX_RATIO: f64 = 1.0;

const DEEP_QUBITS: usize = 20;
const DEEP_REPS: usize = 3;
/// The deep kernel's compiled replay must beat the interpreted replay by
/// better than 2.3× — pair fusion collapses each qubit's gate runs into
/// `Dense2` blocks, so most full-state sweeps disappear outright.
const MAX_DEEP_RATIO: f64 = 0.43;

/// GHZ preparation followed by CX-heavy layers interleaved with fusable
/// single-qubit runs and phase sweeps — the workload class the compiler
/// targets: dense entangling structure (controlled kernels) plus local
/// gate runs (fusion).
fn guard_kernel() -> Circuit {
    let mut c = Circuit::new(QUBITS);
    c.h(0);
    for q in 0..QUBITS - 1 {
        c.cx(q, q + 1);
    }
    for layer in 0..3 {
        for q in 0..QUBITS {
            // A 6-gate single-qubit run that fuses to one dense op.
            c.t(q).h(q).s(q).h(q).tdg(q).rz(q, 0.11 * (layer + 1) as f64);
        }
        for q in 0..QUBITS - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..QUBITS - 2 {
            c.cz(q, q + 2);
        }
    }
    c.measure_all();
    c
}

/// The deep-circuit scenario: 20 qubits (2^20 amplitudes, past the
/// cache-blocking threshold), GHZ skeleton plus layers of 8-gate
/// single-qubit runs — each run fuses to one dense op, and adjacent
/// qubits' dense ops pair into `Dense2` blocks — interleaved with CX
/// chains and CZ layers. No terminal measurement: the scenario times the
/// replay itself (measurement reductions cost the same on both paths and
/// would only dilute the ratio being guarded).
fn deep_kernel() -> Circuit {
    let mut c = Circuit::new(DEEP_QUBITS);
    c.h(0);
    for q in 0..DEEP_QUBITS - 1 {
        c.cx(q, q + 1);
    }
    for layer in 0..2 {
        let theta = 0.07 * (layer + 1) as f64;
        for q in 0..DEEP_QUBITS {
            c.t(q).h(q).s(q).rx(q, theta).h(q).tdg(q).ry(q, 1.3 * theta).rz(q, theta);
        }
        for q in 0..DEEP_QUBITS - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..DEEP_QUBITS - 2 {
            c.cz(q, q + 2);
        }
    }
    c
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

/// Gate 2a: direct `2^c` iteration-reduction asserts against the kernel
/// iteration counter. Returns `(uncontrolled, cx, ccx)` iteration counts
/// for the JSON record.
fn assert_controlled_iteration_reduction() -> (u64, u64, u64) {
    let n = 12usize;
    let len = 1u64 << n;
    let x = [
        [qcor_sim::Complex64::ZERO, qcor_sim::Complex64::ONE],
        [qcor_sim::Complex64::ONE, qcor_sim::Complex64::ZERO],
    ];
    let mut sv = StateVector::new(n);
    reset_kernel_iterations();
    sv.apply_single(0, x, 0);
    let plain = kernel_iterations();
    assert_eq!(plain, len / 2, "uncontrolled kernel must visit 2^(n-1) pairs");
    reset_kernel_iterations();
    sv.apply_single(1, x, 1 << 0);
    let cx = kernel_iterations();
    assert_eq!(cx, len / 4, "1-control kernel must visit 2^(n-2) pairs (2x reduction)");
    reset_kernel_iterations();
    sv.apply_single(2, x, 0b11);
    let ccx = kernel_iterations();
    assert_eq!(ccx, len / 8, "2-control kernel must visit 2^(n-3) pairs (4x reduction)");
    (plain, cx, ccx)
}

/// Gate 2b: the fused two-qubit `Dense2` kernel must visit exactly
/// `2^(n-2-c)` amplitude quads — one sweep replaces every gate folded
/// into the block, at a quarter (uncontrolled) of the full state in quad
/// steps. Returns `(uncontrolled, one_control)` quad counts.
fn assert_pair_iteration_reduction() -> (u64, u64) {
    let n = 12usize;
    let len = 1u64 << n;
    let mut m = [[Complex64::ZERO; 4]; 4];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = Complex64::ONE;
    }
    let mut sv = StateVector::new(n);
    reset_kernel_iterations();
    sv.apply_pair(0, 1, &m, 0);
    let quads = kernel_class_iterations(KernelClass::Dense2);
    assert_eq!(quads, len / 4, "uncontrolled Dense2 must visit exactly 2^(n-2) quads");
    reset_kernel_iterations();
    sv.apply_pair(0, 1, &m, 1 << 2);
    let ctrl_quads = kernel_class_iterations(KernelClass::Dense2);
    assert_eq!(ctrl_quads, len / 8, "1-control Dense2 must visit exactly 2^(n-2-1) quads");
    (quads, ctrl_quads)
}

/// Per-kernel-class iteration counts of one compiled replay of `circuit`
/// (zero-count classes included, so the JSON schema is stable).
fn class_breakdown(compiled: &CompiledCircuit, num_qubits: usize) -> Vec<(&'static str, u64)> {
    let mut state = StateVector::new(num_qubits);
    let mut rng = StdRng::seed_from_u64(5);
    reset_kernel_iterations();
    compiled.run_once(&mut state, &mut rng);
    kernel_iteration_breakdown().iter().map(|&(class, count)| (class.label(), count)).collect()
}

/// Gate 2c: a compiled replay of the guard kernel issues fewer total loop
/// iterations than the interpreted replay (fusion removed whole passes).
fn assert_compiled_iterations_shrink(circuit: &Circuit) -> (u64, u64) {
    let compiled = CompiledCircuit::compile(circuit);
    let mut rng = StdRng::seed_from_u64(5);
    let mut state = StateVector::new(QUBITS);
    reset_kernel_iterations();
    run_once_interpreted(&mut state, circuit, &mut rng);
    let interpreted = kernel_iterations();
    let mut rng = StdRng::seed_from_u64(5);
    let mut state = StateVector::new(QUBITS);
    reset_kernel_iterations();
    compiled.run_once(&mut state, &mut rng);
    let fused = kernel_iterations();
    assert!(
        fused < interpreted,
        "compiled replay must issue fewer kernel iterations ({fused} vs {interpreted})"
    );
    (interpreted, fused)
}

/// Gate 3: Shor-style modular-multiplication permutations must hit the
/// scratch buffer, not the allocator, in steady state.
fn assert_permutation_zero_steady_state_allocs() {
    let work = 8usize;
    let modulus = 251usize; // prime < 2^8, so ×a is a bijection on 0..251
    let a = 7usize;
    let perm: Vec<usize> =
        (0..1usize << work).map(|x| if x < modulus { (x * a) % modulus } else { x }).collect();
    let mut sv = StateVector::new(work + 1);
    assert_eq!(sv.scratch_allocations(), 0);
    for _ in 0..24 {
        sv.apply_controlled_permutation(1 << work, &(0..work).collect::<Vec<_>>(), &perm);
    }
    assert_eq!(
        sv.scratch_allocations(),
        1,
        "apply_controlled_permutation must reuse its scratch buffer across calls"
    );
}

/// Gate 4: time the deep 20-qubit kernel compiled vs interpreted (one
/// shot per rep — at 2^20 amplitudes a single replay is the workload).
/// Also asserts the compiled replay never touches the scratch allocator.
fn deep_scenario(pool: &Arc<ThreadPool>) -> (Duration, Duration, f64, usize, usize) {
    let circuit = deep_kernel();
    let compiled = CompiledCircuit::compile(&circuit);
    assert!(compiled.len() < compiled.source_len(), "fusion must shrink the deep kernel");
    let mut state = StateVector::with_pool(DEEP_QUBITS, Arc::clone(pool));
    let interp_best = best_of(DEEP_REPS, || {
        state.reset_to_zero();
        let mut rng = StdRng::seed_from_u64(3);
        run_once_interpreted(&mut state, &circuit, &mut rng);
    });
    let fused_best = best_of(DEEP_REPS, || {
        state.reset_to_zero();
        let mut rng = StdRng::seed_from_u64(3);
        compiled.run_once(&mut state, &mut rng);
    });
    assert_eq!(state.scratch_allocations(), 0, "compiled replay must not touch the scratch allocator");
    let ratio = fused_best.as_secs_f64() / interp_best.as_secs_f64();
    (interp_best, fused_best, ratio, compiled.source_len(), compiled.len())
}

fn main() {
    let circuit = guard_kernel();
    let compiled = CompiledCircuit::compile(&circuit);
    println!("guard kernel: {} instructions -> {} fused kernel ops", compiled.source_len(), compiled.len());
    assert!(compiled.len() < compiled.source_len(), "fusion must shrink the guard kernel");

    // Correctness gates first — no point timing a broken executor.
    let (plain_iters, cx_iters, ccx_iters) = assert_controlled_iteration_reduction();
    let (pair_iters, pair_ctrl_iters) = assert_pair_iteration_reduction();
    let (interp_iters, fused_iters) = assert_compiled_iterations_shrink(&circuit);
    assert_permutation_zero_steady_state_allocs();
    let breakdown = class_breakdown(&compiled, QUBITS);
    println!("iteration counts: uncontrolled {plain_iters}, CX {cx_iters} (/2), CCX {ccx_iters} (/4)");
    println!(
        "dense2 quad counts: uncontrolled {pair_iters} (2^(n-2)), 1-control {pair_ctrl_iters} (2^(n-3))"
    );
    println!("guard-kernel iterations per shot: interpreted {interp_iters}, compiled {fused_iters}");
    let shown: Vec<String> =
        breakdown.iter().filter(|(_, c)| *c > 0).map(|(l, c)| format!("{l} {c}")).collect();
    println!("compiled per-class iterations: {}", shown.join(", "));

    // Runtime gate: the same seeded shots on one stream, interpreted vs
    // compiled (the compile is inside the timed region). The first
    // interpreted run is the warm-up and the reference counts.
    let interpret =
        || seeded_counts(QUBITS, SHOTS, 1, |state, rng| run_once_interpreted(state, &circuit, rng));
    let expected = interpret();
    let mut rows: Vec<(String, Duration)> = Vec::new();
    let interp_best = best_of(REPS, || {
        assert_eq!(interpret().values().sum::<usize>(), SHOTS);
    });
    rows.push(("guard_kernel/interpreted".to_string(), interp_best));
    let fused_best = best_of(REPS, || {
        let compiled = CompiledCircuit::compile(&circuit);
        let counts = seeded_counts(QUBITS, SHOTS, 1, |state, rng| compiled.run_once(state, rng));
        assert_eq!(counts, expected, "the compiled replay changed seeded counts");
    });
    rows.push(("guard_kernel/compiled".to_string(), fused_best));

    let ratio = fused_best.as_secs_f64() / interp_best.as_secs_f64();

    // Deep-circuit gate: 20 qubits, one shot per rep, Dense2-heavy.
    let pool = Arc::new(ThreadPool::new(qcor_pool::num_threads_from_env()));
    let (deep_interp, deep_fused, deep_ratio, deep_src, deep_ops) = deep_scenario(&pool);
    println!("deep kernel: {deep_src} instructions -> {deep_ops} fused kernel ops");
    rows.push(("deep_kernel/interpreted".to_string(), deep_interp));
    rows.push(("deep_kernel/compiled".to_string(), deep_fused));

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
    let breakdown_json: String =
        breakdown.iter().map(|(label, count)| format!("\"{label}\": {count}")).collect::<Vec<_>>().join(", ");
    let json = format!(
        "{{\n  \"meta\": {{\n    \"command\": \"cargo run -p qcor-bench --release --bin gatefuse_guard\",\n    \
         \"logical_cpus\": {},\n    \"qcor_num_threads\": {},\n    \
         \"guard\": \"fail if compiled divided by interpreted exceeds {MAX_RATIO}, or deep-kernel ratio exceeds {MAX_DEEP_RATIO}\",\n    \
         \"note\": \"compile-then-execute guard: gate fusion + two-qubit block fusion + control-aware kernels, timed against the interpreter on the same seeded shots (compile included); also asserts 2^c iteration reduction, exact 2^(n-2-c) Dense2 quad counts, and zero steady-state allocations\"\n  }},\n  \
         \"ratio_compiled_over_interpreted\": {ratio:.3},\n  \
         \"deep_ratio_compiled_over_interpreted\": {deep_ratio:.3},\n  \
         \"source_instructions\": {},\n  \"fused_kernel_ops\": {},\n  \
         \"deep_source_instructions\": {deep_src},\n  \"deep_fused_kernel_ops\": {deep_ops},\n  \
         \"iterations_per_shot\": {{ \"interpreted\": {interp_iters}, \"compiled\": {fused_iters} }},\n  \
         \"compiled_class_iterations\": {{ {breakdown_json} }},\n  \
         \"controlled_iteration_counts\": {{ \"uncontrolled\": {plain_iters}, \"cx\": {cx_iters}, \"ccx\": {ccx_iters} }},\n  \
         \"dense2_quad_counts\": {{ \"uncontrolled\": {pair_iters}, \"one_control\": {pair_ctrl_iters} }},\n  \
         \"benchmarks\": [\n{benchmarks}\n  ]\n}}\n",
        qcor_pool::available_parallelism(),
        qcor_pool::num_threads_from_env(),
        compiled.source_len(),
        compiled.len(),
    );
    let recorded = qcor_bench::write_guard_record("BENCH_gatefuse.json", &json);

    for (name, time) in &rows {
        println!("{name:<38} {:>10.1} us", time.as_secs_f64() * 1e6);
    }
    qcor_bench::enforce_guard_ratio("compiled / interpreted", ratio, MAX_RATIO, &recorded);
    qcor_bench::enforce_guard_ratio("deep compiled / interpreted", deep_ratio, MAX_DEEP_RATIO, &recorded);
}
