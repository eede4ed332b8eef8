//! The paper's Figure 2, executable: all three levels of parallelism in a
//! quantum-classical program composed in one process —
//!
//! * **task level** — three SHOR(N=15, aₚ) tasks run as `qcor::async_task`s
//!   (queued on the global execution service, not thread-per-task),
//! * **shot level**  — a shot loop split into chunks on one shared pool
//!   (`ShotPlan::for_tasks(..).execute(..)`),
//! * **inner simulator level** — every state vector work-shares its
//!   amplitude loops over its own `qcor-pool`.
//!
//! ```text
//! cargo run -p qcor --release --example multilevel_parallelism
//! ```

use qcor_algos::shor::{estimate_order, factors_from_order};
use qcor_circuit::arith::bit_width;
use qcor_pool::ThreadPool;
use qcor_sim::{RunConfig, ShotPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n: u64 = 15;
    let bases = [2u64, 7, 13]; // coprime with 15; orders 4, 4, 4
    let shots_per_task = 8;
    let start = Instant::now();

    // Task level: one async task per base (Figure 2's Task1..Task3).
    let tasks: Vec<_> = bases
        .iter()
        .map(|&a| {
            qcor::async_task(move || {
                // Inner level: each phase sample's state vector gets its
                // own pool.
                let mut rng = StdRng::seed_from_u64(a);
                let t_bits = 2 * bit_width(n) as u32;
                let samples: Vec<u64> = (0..shots_per_task)
                    .map(|_| {
                        qcor_algos::shor::textbook::sample_phase(
                            a,
                            n,
                            t_bits,
                            Arc::new(ThreadPool::new(1)),
                            &mut rng,
                        )
                    })
                    .collect();
                let order = estimate_order(a, n, &samples, t_bits);
                (a, samples, order)
            })
        })
        .collect();

    for task in tasks {
        let (a, samples, order) = task.get();
        match order {
            Some(r) => {
                let factors = factors_from_order(n, a, r);
                println!(
                    "task a={a:2}: samples {samples:?} -> order {r} -> {}",
                    match factors {
                        Some(f) => format!("{} x {}", f.p, f.q),
                        None => "trivial (a^(r/2) = -1 mod N)".to_string(),
                    }
                );
            }
            None => println!("task a={a:2}: samples {samples:?} -> order not recovered"),
        }
    }

    // Shot-level parallelism demonstrated standalone on the Bell kernel:
    // the same 1024 shots, one task vs two tasks, identical distribution.
    let bell = qcor_circuit::library::bell_kernel();
    let config = RunConfig { shots: 1024, seed: Some(1), ..RunConfig::default() };
    for tasks in [1usize, 2] {
        let t = Instant::now();
        let pool = Arc::new(ThreadPool::new(tasks));
        let counts =
            ShotPlan::for_tasks(&bell, &config, tasks).execute(&bell, pool, &config, None, None).counts;
        println!(
            "bell 1024 shots across {tasks} task(s): p(00) = {:.3} in {:?}",
            counts.get("00").copied().unwrap_or(0) as f64 / 1024.0,
            t.elapsed()
        );
    }
    println!("total wall time {:?}", start.elapsed());
}
