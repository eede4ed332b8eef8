//! The paper's three timing figures on this machine, each printed as a
//! table of speedups next to the paper's reference column:
//!
//! * **Figure 3**: two Bell kernels (1024 shots each), one-by-one vs
//!   parallel. Paper (Ryzen9 3900X, 12C/24T): 1.00 / 0.96 / 1.30 / 1.63.
//! * **Figure 4**: SHOR(N=15, a=2) and SHOR(N=15, a=7), 10 shots each, on
//!   the Beauregard gate-level kernel. Paper: 1.00 / 1.02 / 1.20 / 1.22.
//! * **Figure 5**: strong scaling of two SHOR(N=7, a=2) kernels over the
//!   paper's thread ladder {2, 4, 6, 12, 24}, clamped to this machine.
//!
//! The paper's two variants (§VI) are modeled directly. *One-by-One* runs
//! kernel 1 with N simulator threads, then kernel 2. *Parallel* runs both
//! kernels at once on two OS threads, each simulating with its own pool.
//! Figure 5 adds the shared-pool variant: both kernels as jobs of one
//! `submit_batch` on a single pool. Pools are built before the clock
//! starts, and every variant keeps its best of a few repetitions.
//!
//! On a machine with C logical CPUs the paper's 24-thread box maps to
//! half = C/2 ("12 threads"), full = C ("24 threads") and quarter = C/4
//! ("6 threads/task").
//!
//! ```text
//! cargo run --release -p qcor --example paper_figures
//! ```

use qcor::{library, run_shots, RunConfig, ThreadPool};
use qcor_algos::shor::beauregard::ModExpEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A kernel task: given its pre-built simulator pool, run to completion.
type KernelTask = Box<dyn FnOnce(Arc<ThreadPool>) + Send>;

#[derive(Clone, Copy)]
enum Mode {
    OneByOne,
    Parallel,
    SharedPool,
}

/// One table row: a variant, its simulator threads (per kernel, or in
/// total for the shared pool) and the paper's speedup, where the machine
/// shape allows a direct analogy.
struct Row {
    mode: Mode,
    threads: usize,
    paper: Option<f64>,
}

fn row(mode: Mode, threads: usize, paper: Option<f64>) -> Row {
    Row { mode, threads, paper }
}

/// Best wall time of `reps` runs of the kernels from `make_tasks` in `mode`.
fn time_variant(reps: usize, mode: Mode, threads: usize, make_tasks: fn() -> Vec<KernelTask>) -> Duration {
    (0..reps)
        .map(|_| {
            let tasks = make_tasks();
            let pools: Vec<Arc<ThreadPool>> = match mode {
                Mode::SharedPool => vec![Arc::new(ThreadPool::new(threads))],
                _ => tasks.iter().map(|_| Arc::new(ThreadPool::new(threads))).collect(),
            };
            let start = Instant::now();
            match mode {
                Mode::OneByOne => tasks.into_iter().zip(pools).for_each(|(task, pool)| task(pool)),
                Mode::Parallel => {
                    let handles: Vec<_> = tasks
                        .into_iter()
                        .zip(pools)
                        .map(|(task, pool)| std::thread::spawn(move || task(pool)))
                        .collect();
                    handles.into_iter().for_each(|h| h.join().expect("kernel task panicked"));
                }
                Mode::SharedPool => {
                    let pool = &pools[0];
                    pool.submit_batch(tasks.into_iter().map(|task| move || task(Arc::clone(pool))).collect());
                }
            }
            start.elapsed()
        })
        .min()
        .expect("at least one rep")
}

/// Time every row and print the table, with speedups over `rows[0]`. Ends
/// with the paper's qualitative claim: the best parallel variant beats the
/// best one-by-one variant.
fn print_figure(title: &str, reps: usize, make_tasks: fn() -> Vec<KernelTask>, rows: &[Row]) {
    let cpus = qcor::available_parallelism();
    let times: Vec<Duration> =
        rows.iter().map(|r| time_variant(reps, r.mode, r.threads, make_tasks)).collect();
    let speedups: Vec<f64> = times.iter().map(|t| times[0].as_secs_f64() / t.as_secs_f64()).collect();
    println!("\n{title} ({cpus} logical CPUs; paper: 24)");
    println!("{:-<78}", "");
    println!("{:<38} {:>10} {:>10} {:>12}", "variant", "time (ms)", "speedup", "paper");
    for ((r, time), speedup) in rows.iter().zip(&times).zip(&speedups) {
        let label = match r.mode {
            Mode::OneByOne => format!("One-by-One ({} threads)", r.threads),
            Mode::Parallel => format!("Parallel 2 x ({} threads/task)", r.threads),
            Mode::SharedPool => format!("Shared pool ({} threads)", r.threads),
        };
        let label = if r.threads > cpus { format!("{label}, oversub.") } else { label };
        let paper = r.paper.map_or_else(|| "-".to_string(), |p| format!("{p:.2}"));
        println!("{label:<38} {:>10.1} {speedup:>10.2} {paper:>12}", time.as_secs_f64() * 1e3);
    }
    println!("{:-<78}", "");
    let best = |parallel: bool| {
        rows.iter()
            .zip(&speedups)
            .filter(|(r, _)| matches!(r.mode, Mode::OneByOne) != parallel)
            .map(|(_, &s)| s)
            .fold(0.0, f64::max)
    };
    let (par, obo) = (best(true), best(false));
    let verdict = if par >= obo { "parallel wins (matches paper)" } else { "MISMATCH" };
    println!("shape check: best parallel speedup {par:.2} vs best one-by-one {obo:.2} -> {verdict}");
}

fn bell_tasks() -> Vec<KernelTask> {
    (0..2u64)
        .map(|i| {
            Box::new(move |pool: Arc<ThreadPool>| {
                let config = RunConfig { shots: 1024, seed: Some(42 + i), ..RunConfig::default() };
                let counts = run_shots(&library::bell_kernel(), pool, &config);
                assert_eq!(counts.values().sum::<usize>(), 1024);
            }) as KernelTask
        })
        .collect()
}

/// Two Beauregard period-finding kernels, 10 shots each.
fn shor_tasks(n: u64, bases: [u64; 2], seed: u64) -> Vec<KernelTask> {
    (0..2)
        .map(|i| {
            Box::new(move |pool: Arc<ThreadPool>| {
                let engine = ModExpEngine::new(bases[i], n);
                let mut rng = StdRng::seed_from_u64(seed + i as u64);
                for _ in 0..10 {
                    assert!(engine.sample_phase(Arc::clone(&pool), &mut rng) < 1 << engine.t_bits);
                }
            }) as KernelTask
        })
        .collect()
}

fn main() {
    let cpus = qcor::available_parallelism();
    let (quarter, half, full) = ((cpus / 4).max(1), (cpus / 2).max(1), cpus);
    let ladder = |paper: [f64; 4]| {
        vec![
            row(Mode::OneByOne, half, Some(paper[0])),
            row(Mode::OneByOne, full, Some(paper[1])),
            row(Mode::OneByOne, 2 * full, None),
            row(Mode::Parallel, quarter, Some(paper[2])),
            row(Mode::Parallel, half, Some(paper[3])),
        ]
    };
    print_figure(
        "Figure 3 — two Bell kernels, 1024 shots each (speedup over one-by-one half-machine)",
        5,
        bell_tasks,
        &ladder([1.00, 0.96, 1.30, 1.63]),
    );
    print_figure(
        "Figure 4 — SHOR(N=15, a=2) and SHOR(N=15, a=7), 10 shots each (speedup over one-by-one half-machine)",
        3,
        || shor_tasks(15, [2, 7], 100),
        &ladder([1.00, 1.02, 1.20, 1.22]),
    );

    // Figure 5: (threads, one-by-one, parallel 2 x threads/2) in the paper.
    const PAPER_FIG5: [(usize, f64, f64); 5] =
        [(2, 1.72, 1.89), (4, 3.06, 3.27), (6, 4.18, 4.72), (12, 6.53, 7.69), (24, 6.53, 7.82)];
    let mut rows = vec![row(Mode::OneByOne, 1, Some(1.00))];
    for &(t, obo, par) in PAPER_FIG5.iter().filter(|&&(t, _, _)| t <= cpus) {
        rows.push(row(Mode::OneByOne, t, Some(obo)));
        rows.push(row(Mode::Parallel, t / 2, Some(par)));
        rows.push(row(Mode::SharedPool, t, None));
    }
    if rows.len() == 1 {
        // A 1-CPU machine reaches no paper point; compare the variants at 1.
        rows.extend([row(Mode::Parallel, 1, None), row(Mode::SharedPool, 1, None)]);
    }
    print_figure(
        "Figure 5 — strong scaling of two SHOR(N=7, a=2) kernels, 10 shots each (speedup over one-by-one, 1 thread)",
        3,
        || shor_tasks(7, [2, 2], 7),
        &rows,
    );
}
