//! Perf-regression guard for the batched shot scheduler.
//!
//! Measures the Bell kernel at 512 shots on 1-thread and 2-thread pools
//! (plus the shot-parallel ablation), records the numbers to
//! `target/bench/BENCH_shotsched.json`, and **exits non-zero** if the `/2` ÷ `/1` ratio
//! exceeds [`MAX_RATIO`]. Before the scheduler that ratio was ~100× (the
//! 2-thread pool paid a fork/join on every 4-amplitude loop); the
//! scheduler must keep it within 5× on any machine, including a 1-CPU CI
//! container.
//!
//! ```text
//! cargo run -p qcor-bench --release --bin shotsched_guard
//! ```

use qcor_circuit::library;
use qcor_pool::ThreadPool;
use qcor_sim::{run_shots, RunConfig, ShotPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHOTS: usize = 512;
const REPS: usize = 11;
const MAX_RATIO: f64 = 5.0;

fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed());
    }
    best
}

fn main() {
    let circuit = library::bell_kernel();
    let config = RunConfig { shots: SHOTS, seed: Some(1), ..RunConfig::default() };
    let mut rows: Vec<(String, Duration)> = Vec::new();

    for threads in [1usize, 2] {
        let pool = Arc::new(ThreadPool::new(threads));
        run_shots(&circuit, Arc::clone(&pool), &config); // warm-up
        let best = best_of(REPS, || {
            let counts = run_shots(&circuit, Arc::clone(&pool), &config);
            assert_eq!(counts.values().sum::<usize>(), SHOTS);
        });
        rows.push((format!("bell_kernel/shots512/{threads}"), best));
    }
    for tasks in [1usize, 2] {
        let pool = Arc::new(ThreadPool::new(tasks));
        let plan = ShotPlan::for_tasks(&circuit, &config, tasks);
        let best = best_of(REPS, || {
            let counts = plan.execute(&circuit, Arc::clone(&pool), &config, None, None).counts;
            assert_eq!(counts.values().sum::<usize>(), SHOTS);
        });
        rows.push((format!("bell_kernel/shot_parallel_512/{tasks}"), best));
    }

    let t1 = rows[0].1.as_secs_f64();
    let t2 = rows[1].1.as_secs_f64();
    let ratio = t2 / t1;

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
        "{{\n  \"meta\": {{\n    \"command\": \"cargo run -p qcor-bench --release --bin shotsched_guard\",\n    \
         \"logical_cpus\": {},\n    \"guard\": \"fail if shots512/2 divided by shots512/1 exceeds {MAX_RATIO}\",\n    \
         \"note\": \"batched shot scheduler regression guard; pre-scheduler baseline ratio was ~100x (BENCH_baseline.json)\"\n  }},\n  \
         \"ratio_shots512_2_over_1\": {ratio:.3},\n  \"benchmarks\": [\n{benchmarks}\n  ]\n}}\n",
        qcor_pool::available_parallelism(),
    );
    let recorded = qcor_bench::write_guard_record("BENCH_shotsched.json", &json);

    for (name, time) in &rows {
        println!("{name:<38} {:>10.1} us", time.as_secs_f64() * 1e6);
    }
    println!("(pre-scheduler baseline ratio: ~100)");
    qcor_bench::enforce_guard_ratio("shots512/2 / shots512/1", ratio, MAX_RATIO, &recorded);
}
