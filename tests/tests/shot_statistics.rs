//! Statistical correctness of the batched shot scheduler.
//!
//! Every scheduling configuration — single chunk, per-shot chunks, odd
//! chunk sizes, task-level parallelism, the legacy sequential path — must
//! sample from the **same distribution**, namely the circuit's exact
//! output distribution. Each case draws a seeded sample and runs a
//! chi-squared goodness-of-fit test against `exact_distribution`.
//!
//! # Tolerance
//!
//! The chi-squared statistic is compared against the critical value at
//! significance α = 0.001 for the distribution's degrees of freedom
//! (`#outcomes with p > 0` − 1). With seeded RNG streams the test is fully
//! deterministic — the α only calibrates how extreme a (fixed) sample we
//! tolerate; a correctly-distributed sampler fails a fresh seed with
//! probability 0.1% per cell, and the seeds below were not cherry-picked.
//!
//! The file also carries the scheduler's determinism regression tests:
//! for a fixed `(seed, tasks, chunk_shots)` the merged counts must be
//! byte-identical across runs, pool sizes, and scheduling edge cases
//! (`tasks > shots`, `shots % tasks != 0`).

use qcor_circuit::{library, Circuit};
use qcor_pool::ThreadPool;
use qcor_sim::{exact_distribution, run_shots, Counts, RunConfig, ShotPlan};
use std::sync::Arc;

/// `tasks`-way shot-level parallelism on one pool of
/// `tasks × threads_per_task` threads (`tasks` clamped to the shots).
fn task_parallel(circuit: &Circuit, tasks: usize, threads_per_task: usize, config: &RunConfig) -> Counts {
    let pool = Arc::new(ThreadPool::new(tasks.min(config.shots).max(1) * threads_per_task));
    ShotPlan::for_tasks(circuit, config, tasks).execute(circuit, pool, config, None, None).counts
}

/// Critical values of the chi-squared distribution at α = 0.001.
/// Index = degrees of freedom (0 unused).
const CHI2_CRIT_P001: [f64; 9] = [f64::NAN, 10.828, 13.816, 16.266, 18.467, 20.515, 22.458, 24.322, 26.124];

fn seq_pool() -> Arc<ThreadPool> {
    Arc::new(ThreadPool::new(1))
}

/// Map a counts bitstring (leftmost char = lowest-indexed qubit) back to
/// the little-endian basis-state index of `exact_distribution`.
fn basis_index(bits: &str) -> usize {
    bits.bytes().enumerate().map(|(pos, b)| (usize::from(b == b'1')) << pos).sum()
}

/// Chi-squared goodness-of-fit of `counts` against the exact distribution
/// `probs`. Returns `(statistic, degrees_of_freedom)`. Outcomes with
/// probability 0 must not appear in `counts` at all (asserted here — a
/// forbidden outcome is a simulator bug, not a statistical fluctuation).
fn chi_squared(counts: &Counts, probs: &[f64], shots: usize) -> (f64, usize) {
    let mut observed = vec![0usize; probs.len()];
    for (bits, &count) in counts {
        observed[basis_index(bits)] += count;
    }
    let mut statistic = 0.0;
    let mut cells = 0usize;
    for (index, &p) in probs.iter().enumerate() {
        if p < 1e-12 {
            assert_eq!(
                observed[index], 0,
                "outcome {index:b} has probability 0 but was sampled {} times",
                observed[index]
            );
            continue;
        }
        let expected = p * shots as f64;
        let diff = observed[index] as f64 - expected;
        statistic += diff * diff / expected;
        cells += 1;
    }
    (statistic, cells - 1)
}

/// Run the chi-squared check for one (circuit, scheduler-config) cell.
fn assert_well_distributed(label: &str, circuit: &Circuit, counts: Counts, shots: usize) {
    assert_eq!(counts.values().sum::<usize>(), shots, "{label}: counts must sum to shots");
    let probs = exact_distribution(circuit, seq_pool()).unwrap();
    let (statistic, df) = chi_squared(&counts, &probs, shots);
    let critical = CHI2_CRIT_P001[df];
    assert!(
        statistic < critical,
        "{label}: chi² = {statistic:.2} exceeds the α=0.001 critical value {critical} (df = {df})"
    );
}

/// A biased two-qubit product state: Ry rotations make every outcome
/// probability distinct and non-zero (df = 3).
fn biased_circuit() -> Circuit {
    let mut c = Circuit::new(2);
    c.ry(0, 1.0).ry(1, 2.2).measure(0).measure(1);
    c
}

/// A uniform three-qubit superposition (df = 7).
fn uniform3_circuit() -> Circuit {
    let mut c = Circuit::new(3);
    c.h(0).h(1).h(2).measure(0).measure(1).measure(2);
    c
}

const SHOTS: usize = 4096;

#[test]
fn scheduler_counts_fit_exact_distribution_across_configs() {
    let circuits: [(&str, Circuit); 4] = [
        ("bell", library::bell_kernel()),
        ("ghz3", library::ghz_kernel(3)),
        ("biased_ry", biased_circuit()),
        ("uniform3", uniform3_circuit()),
    ];
    for (name, circuit) in &circuits {
        // Every scheduling shape must draw from the same distribution:
        // adaptive single-chunk, pathological per-shot chunks, odd chunk
        // sizes, and the legacy sequential path (one chunk of every shot)
        // with every sweep forked (`par_threshold` 1; the default floor
        // would run these few-qubit states inline).
        let configs: [(&str, RunConfig, usize); 5] = [
            ("auto/pool1", RunConfig { shots: SHOTS, seed: Some(101), ..RunConfig::default() }, 1),
            ("auto/pool3", RunConfig { shots: SHOTS, seed: Some(202), ..RunConfig::default() }, 3),
            (
                "chunk1/pool2",
                RunConfig { shots: SHOTS, seed: Some(303), chunk_shots: Some(1), ..RunConfig::default() },
                2,
            ),
            (
                "chunk37/pool2",
                RunConfig { shots: SHOTS, seed: Some(404), chunk_shots: Some(37), ..RunConfig::default() },
                2,
            ),
            (
                "sequential/pool2",
                RunConfig { shots: SHOTS, seed: Some(505), chunk_shots: Some(SHOTS), par_threshold: 1 },
                2,
            ),
        ];
        for (config_name, config, threads) in configs {
            let counts = run_shots(circuit, Arc::new(ThreadPool::new(threads)), &config);
            assert_well_distributed(&format!("{name}/{config_name}"), circuit, counts, SHOTS);
        }
    }
}

#[test]
fn task_parallel_counts_fit_exact_distribution() {
    let circuit = library::bell_kernel();
    for (tasks, chunk_shots) in [(3usize, None), (5, Some(13)), (2, Some(256))] {
        let config = RunConfig { shots: SHOTS, seed: Some(606), chunk_shots, ..RunConfig::default() };
        let counts = task_parallel(&circuit, tasks, 1, &config);
        let label = format!("bell/tasks{tasks}/chunk{chunk_shots:?}");
        assert_well_distributed(&label, &circuit, counts, SHOTS);
    }
}

#[test]
fn merged_streams_fit_distribution_with_biased_outcomes() {
    // Chunk-derived RNG streams must stay independent: merging many short
    // streams over a biased distribution is where correlated streams
    // would show up as a chi-squared blow-up.
    let circuit = biased_circuit();
    let config = RunConfig { shots: SHOTS, seed: Some(707), chunk_shots: Some(8), ..RunConfig::default() };
    let counts = task_parallel(&circuit, 4, 2, &config);
    assert_well_distributed("biased_ry/tasks4x2/chunk8", &circuit, counts, SHOTS);
}

// ---- determinism regression -------------------------------------------

/// Render counts in a canonical byte form (BTreeMap order is already
/// deterministic; the string makes "byte-identical" literal).
fn canonical(counts: &Counts) -> String {
    counts.iter().map(|(bits, n)| format!("{bits}:{n};")).collect()
}

#[test]
fn fixed_tuple_reproduces_byte_identical_counts() {
    let circuit = library::ghz_kernel(3);
    for (shots, tasks, chunk_shots) in [
        (1000, 3, None),       // shots % tasks != 0
        (1000, 4, Some(77)),   // explicit chunking, uneven tail
        (5, 7, None),          // tasks > shots
        (3, 64, Some(2)),      // tasks >> shots with explicit chunks
        (1024, 1, Some(1024)), // single chunk
    ] {
        let config = RunConfig { shots, seed: Some(99), chunk_shots, ..RunConfig::default() };
        let first = task_parallel(&circuit, tasks, 1, &config);
        let second = task_parallel(&circuit, tasks, 1, &config);
        assert_eq!(
            canonical(&first),
            canonical(&second),
            "(shots={shots}, tasks={tasks}, chunk_shots={chunk_shots:?}) must be reproducible"
        );
        // Pool size is not part of the determinism tuple: more threads per
        // task must not change the merged counts either.
        let wider = task_parallel(&circuit, tasks, 3, &config);
        assert_eq!(canonical(&first), canonical(&wider));
        assert_eq!(first.values().sum::<usize>(), shots);
    }
}

#[test]
fn direct_run_shots_is_pool_size_invariant() {
    let circuit = biased_circuit();
    let config = RunConfig { shots: 512, seed: Some(1234), chunk_shots: Some(19), ..RunConfig::default() };
    let narrow = run_shots(&circuit, Arc::new(ThreadPool::new(1)), &config);
    let wide = run_shots(&circuit, Arc::new(ThreadPool::new(4)), &config);
    assert_eq!(canonical(&narrow), canonical(&wide));
}
