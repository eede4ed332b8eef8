//! Criterion companion to Figure 3: Bell-kernel shot loops at different
//! simulator thread counts, with the batched shot scheduler (default) and
//! the pre-scheduler per-gate dispatch path (one chunk of every shot, fork
//! floor 1) side by side. The headline series is `shots512/{1,2}`: before the
//! scheduler, `/2` was ~100× slower than `/1` on a 1-CPU host because
//! every tiny amplitude loop paid a pool fork/join.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcor_circuit::library;
use qcor_pool::ThreadPool;
use qcor_sim::{run_shots, RunConfig, ShotPlan};
use std::sync::Arc;
use std::time::Duration;

fn bench_bell(c: &mut Criterion) {
    let mut group = c.benchmark_group("bell_kernel");
    group.sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    let circuit = library::bell_kernel();
    let max_threads = qcor_pool::available_parallelism().max(2);
    let mut ladder = vec![1usize, 2, max_threads];
    ladder.dedup();
    for threads in ladder {
        let pool = Arc::new(ThreadPool::new(threads));
        group.bench_with_input(BenchmarkId::new("shots512", threads), &threads, |b, _| {
            b.iter(|| {
                let config = RunConfig { shots: 512, seed: Some(1), ..RunConfig::default() };
                let counts = run_shots(&circuit, Arc::clone(&pool), &config);
                assert_eq!(counts.values().sum::<usize>(), 512);
            });
        });
        // The pre-scheduler path (every amplitude loop work-shared over the
        // pool: one work item, fork floor 1), kept measurable for the A/B
        // trajectory.
        group.bench_with_input(BenchmarkId::new("shots512_seq", threads), &threads, |b, _| {
            b.iter(|| {
                let config =
                    RunConfig { shots: 512, seed: Some(1), chunk_shots: Some(512), par_threshold: 1 };
                let counts = run_shots(&circuit, Arc::clone(&pool), &config);
                assert_eq!(counts.values().sum::<usize>(), 512);
            });
        });
    }
    // Shot-level parallelism ablation (paper §II's second parallelism
    // level): the same 512 shots split across 2 tasks vs one task.
    for tasks in [1usize, 2] {
        let pool = Arc::new(ThreadPool::new(tasks));
        group.bench_with_input(BenchmarkId::new("shot_parallel_512", tasks), &tasks, |b, &tasks| {
            b.iter(|| {
                let config = RunConfig { shots: 512, seed: Some(1), ..RunConfig::default() };
                let plan = ShotPlan::for_tasks(&circuit, &config, tasks);
                let counts = plan.execute(&circuit, Arc::clone(&pool), &config, None, None).counts;
                assert_eq!(counts.values().sum::<usize>(), 512);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bell);
criterion_main!(benches);
