//! Harness shared by the figure-reproduction binaries (`fig3_bell`,
//! `fig4_shor`, `fig5_scaling`) and the Criterion micro-benchmarks.
//!
//! The paper's two experimental variants (§VI) are modeled directly:
//!
//! * **One-by-One (conventional)** — run kernel 1 with N simulator
//!   threads, then kernel 2 with N simulator threads.
//! * **Parallel (the paper's approach)** — run both kernels at the same
//!   time on two OS threads, each kernel simulating with N/2 threads.
//!
//! Accelerator/pool construction happens *outside* the timed region, so
//! the measurement captures kernel execution the way the paper's
//! wall-clock numbers do.

use qcor_pool::ThreadPool;
use qcor_sim::{Counts, ShotRecord, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A kernel task: given its (pre-built) simulator pool, run to completion.
pub type KernelTask = Box<dyn FnOnce(Arc<ThreadPool>) + Send>;

/// Time one closure.
pub fn time_once<F: FnOnce()>(f: F) -> Duration {
    let start = Instant::now();
    f();
    start.elapsed()
}

/// Merged counts of `shots` shots on one RNG stream seeded with `seed`,
/// each run by `shot` on a `num_qubits` state reset in between. Any two
/// executors that draw from the stream in program order (the compiled
/// replay, the interpreter) merge identical counts here.
pub fn seeded_counts(
    num_qubits: usize,
    shots: usize,
    seed: u64,
    mut shot: impl FnMut(&mut StateVector, &mut StdRng) -> ShotRecord,
) -> Counts {
    let mut state = StateVector::new(num_qubits);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = Counts::new();
    for i in 0..shots {
        if i > 0 {
            state.reset_to_zero();
        }
        *counts.entry(shot(&mut state, &mut rng).bitstring()).or_insert(0) += 1;
    }
    counts
}

/// Record a perf-guard binary's JSON as `target/bench/<file>` under the
/// workspace root, whatever the working directory, and return the path.
/// `target/` is git-ignored, so a guard run leaves the tree clean; the
/// `BENCH_*.json` files at the repository root are older recordings that
/// no guard rewrites.
pub fn write_guard_record(file: &str, json: &str) -> PathBuf {
    let workspace =
        Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("crates/bench is two levels deep");
    let dir = workspace.join("target").join("bench");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("failed to create {}: {e}", dir.display()));
    let path = dir.join(file);
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("failed to write {}: {e}", path.display()));
    path
}

/// Shared tail of a perf-guard binary (`shotsched_guard`, `queue_guard`,
/// ...): print `ratio` against its regression `limit` and **exit
/// non-zero** on breach, so a CI step fails. `what` names the ratio (e.g.
/// "queued / inline"); `recorded_to` is the path
/// [`write_guard_record`] returned for the caller's JSON.
pub fn enforce_guard_ratio(what: &str, ratio: f64, limit: f64, recorded_to: &Path) {
    println!("\n{what} = {ratio:.2} (limit {limit})");
    if ratio > limit {
        eprintln!(
            "FAIL: {what} ratio {ratio:.2} exceeds the regression limit {limit} (recorded to {})",
            recorded_to.display()
        );
        std::process::exit(1);
    }
    println!("OK: within the regression budget; recorded to {}", recorded_to.display());
}

/// Run `make_tasks()` under both variants `reps` times and keep the best
/// (minimum) wall time per variant — the standard way to suppress noise
/// for throughput-style comparisons.
pub struct VariantTimer {
    /// Repetitions per variant.
    pub reps: usize,
}

impl Default for VariantTimer {
    fn default() -> Self {
        VariantTimer { reps: 3 }
    }
}

impl VariantTimer {
    /// One-by-One: each task runs to completion before the next starts,
    /// each with its own pre-built pool of `threads_per_kernel` threads.
    pub fn one_by_one<F>(&self, make_tasks: F, threads_per_kernel: usize) -> Duration
    where
        F: Fn() -> Vec<KernelTask>,
    {
        let mut best = Duration::MAX;
        for _ in 0..self.reps {
            let tasks = make_tasks();
            // Pools are constructed before the clock starts.
            let pools: Vec<Arc<ThreadPool>> =
                (0..tasks.len()).map(|_| Arc::new(ThreadPool::new(threads_per_kernel))).collect();
            let elapsed = time_once(|| {
                for (task, pool) in tasks.into_iter().zip(pools) {
                    task(pool);
                }
            });
            best = best.min(elapsed);
        }
        best
    }

    /// Parallel: all tasks start together on their own OS threads, each
    /// with a pre-built pool of `threads_per_kernel` threads.
    pub fn parallel<F>(&self, make_tasks: F, threads_per_kernel: usize) -> Duration
    where
        F: Fn() -> Vec<KernelTask>,
    {
        let mut best = Duration::MAX;
        for _ in 0..self.reps {
            let tasks = make_tasks();
            let pools: Vec<Arc<ThreadPool>> =
                (0..tasks.len()).map(|_| Arc::new(ThreadPool::new(threads_per_kernel))).collect();
            let elapsed = time_once(|| {
                let handles: Vec<_> = tasks
                    .into_iter()
                    .zip(pools)
                    .map(|(task, pool)| std::thread::spawn(move || task(pool)))
                    .collect();
                for h in handles {
                    h.join().expect("kernel task panicked");
                }
            });
            best = best.min(elapsed);
        }
        best
    }

    /// Shared-pool parallel (the batched shot scheduler's model): all
    /// tasks run as work items of one [`ThreadPool::submit_batch`] on a
    /// single pre-built pool of `total_threads` threads — no OS-thread
    /// spawn and no private pool per task. A task running on a pool
    /// worker executes its own parallel constructs inline.
    pub fn parallel_shared<F>(&self, make_tasks: F, total_threads: usize) -> Duration
    where
        F: Fn() -> Vec<KernelTask>,
    {
        let mut best = Duration::MAX;
        for _ in 0..self.reps {
            let tasks = make_tasks();
            let pool = Arc::new(ThreadPool::new(total_threads));
            let elapsed = time_once(|| {
                let jobs: Vec<_> = tasks
                    .into_iter()
                    .map(|task| {
                        let pool = Arc::clone(&pool);
                        move || task(pool)
                    })
                    .collect();
                pool.submit_batch(jobs);
            });
            best = best.min(elapsed);
        }
        best
    }
}

/// A row of a reproduction table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Variant label, e.g. `One-by-One (12 threads)`.
    pub label: String,
    /// Measured wall time.
    pub time: Duration,
    /// Speedup relative to the table's baseline row.
    pub speedup: f64,
    /// The figure's reported speedup for the analogous configuration, if
    /// the machine shape allows a direct analogy.
    pub paper: Option<f64>,
}

/// Print a figure-reproduction table, computing speedups against
/// `rows[baseline]`.
pub fn print_table(title: &str, rows: &mut [Row], baseline: usize) {
    let base = rows[baseline].time.as_secs_f64();
    for row in rows.iter_mut() {
        row.speedup = base / row.time.as_secs_f64();
    }
    println!("\n{title}");
    println!("{:-<78}", "");
    println!("{:<38} {:>10} {:>10} {:>12}", "variant", "time (ms)", "speedup", "paper");
    for row in rows.iter() {
        let paper = row.paper.map(|p| format!("{p:.2}")).unwrap_or_else(|| "-".to_string());
        println!(
            "{:<38} {:>10.1} {:>10.2} {:>12}",
            row.label,
            row.time.as_secs_f64() * 1e3,
            row.speedup,
            paper
        );
    }
    println!("{:-<78}", "");
}

/// The machine's logical CPU count, and the paper-analogous thread
/// ladder. The paper's box has 24 hardware threads; on a machine with C
/// logical CPUs the analogy is baseline = C/2, oversubscribed = C,
/// parallel halves = C/4 and C/2 per task.
pub struct MachineShape {
    /// Logical CPUs.
    pub logical_cpus: usize,
    /// The "12 threads" analogue (half the machine).
    pub half: usize,
    /// The "24 threads" analogue (the whole machine).
    pub full: usize,
    /// The "6 threads/task" analogue.
    pub quarter: usize,
}

impl MachineShape {
    /// Detect the current machine.
    pub fn detect() -> Self {
        let logical_cpus = qcor_pool::available_parallelism();
        MachineShape {
            logical_cpus,
            half: (logical_cpus / 2).max(1),
            full: logical_cpus.max(1),
            quarter: (logical_cpus / 4).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn variants_run_all_tasks() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let timer = VariantTimer { reps: 1 };
        let make = || -> Vec<KernelTask> {
            (0..3)
                .map(|_| {
                    Box::new(|_pool: Arc<ThreadPool>| {
                        RAN.fetch_add(1, Ordering::Relaxed);
                    }) as KernelTask
                })
                .collect()
        };
        timer.one_by_one(make, 1);
        assert_eq!(RAN.load(Ordering::Relaxed), 3);
        timer.parallel(make, 1);
        assert_eq!(RAN.load(Ordering::Relaxed), 6);
        timer.parallel_shared(make, 2);
        assert_eq!(RAN.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn table_computes_speedups() {
        let mut rows = vec![
            Row { label: "base".into(), time: Duration::from_millis(100), speedup: 0.0, paper: Some(1.0) },
            Row { label: "fast".into(), time: Duration::from_millis(50), speedup: 0.0, paper: None },
        ];
        print_table("test", &mut rows, 0);
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        assert!((rows[1].speedup - 2.0).abs() < 1e-12);
    }

    #[test]
    fn machine_shape_is_sane() {
        let m = MachineShape::detect();
        assert!(m.full >= m.half && m.half >= m.quarter && m.quarter >= 1);
    }
}
