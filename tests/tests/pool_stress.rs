//! Opt-in stress harness for the pool fork/join layer.
//!
//! Background: during PR 3 a single hang of
//! `shot_statistics.rs::scheduler_counts_…` was observed on the 1-CPU CI
//! container — 0% CPU, the test thread **and** one `qcor-pool-0` worker
//! both parked in futex wait on a team-2 pool, pointing at a rare lost
//! wakeup somewhere in the `CountLatch`/channel stack. It
//! never reproduced in targeted re-runs, so this file turns the signature
//! into a repeatable hammer:
//!
//! * thousands of team-2 fork/join cycles through the *full* stack the
//!   hanging test exercised (`ShotPlan::for_tasks(..).execute(..)` →
//!   `submit_batch` → `parallel_for`/`CountLatch`),
//! * plus tight loops on each fork/join primitive in isolation, so a hang
//!   localizes the layer,
//! * plus a ping-pong/MPMC hammer over the vendored crossbeam channel
//!   stub — the flake's remaining suspect, audited and hardened (notify
//!   under the lock + wakeup chaining) in `vendor/crossbeam/src/channel.rs`.
//!
//! The tests are **opt-in** (`QCOR_STRESS=1`) because they trade minutes
//! of wall clock for wakeup-race coverage; without the variable they skip
//! instantly and print how to enable them. A lost wakeup shows up as a
//! hang, which the test harness timeout turns into a failure.
//!
//! The audit companion lives in `qcor-pool`'s `latch.rs`: the condvar
//! discipline (predicate re-checked under the lock, final decrementer
//! notifies while holding it) is documented there and hammered by the
//! always-on `latch_wakeup_race_*` tests.

use qcor_circuit::library;
use qcor_pool::{CountLatch, ThreadPool};
use qcor_sim::{RunConfig, ShotPlan};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn stress_enabled() -> bool {
    let enabled = std::env::var("QCOR_STRESS").map(|v| v.trim() == "1").unwrap_or(false);
    if !enabled {
        eprintln!("skipping pool stress test (set QCOR_STRESS=1 to run)");
    }
    enabled
}

/// The shot_statistics hang signature, end to end: seeded Bell sampling
/// with 2-way task parallelism on a shared team-2 pool, repeated a few
/// thousand times. Every iteration builds a fresh pool (worker spawn +
/// shutdown are part of the suspect window) and crosses the full
/// `submit_batch` → `CountLatch` fork/join path.
#[test]
fn team2_fork_join_shot_sampling_stress() {
    if !stress_enabled() {
        return;
    }
    let circuit = library::bell_kernel();
    for iter in 0..4000 {
        let config =
            RunConfig { shots: 16, seed: Some(iter as u64), chunk_shots: Some(1), ..RunConfig::default() };
        let pool = Arc::new(ThreadPool::new(2));
        let counts =
            ShotPlan::for_tasks(&circuit, &config, 2).execute(&circuit, pool, &config, None, None).counts;
        assert_eq!(counts.values().sum::<usize>(), 16, "iteration {iter}");
    }
}

/// `parallel_for` on a long-lived team-2 pool: the `CountLatch` barrier at
/// the end of every construct is the narrowest wait in the stack.
#[test]
fn team2_parallel_for_latch_stress() {
    if !stress_enabled() {
        return;
    }
    let pool = ThreadPool::new(2);
    let hits = AtomicUsize::new(0);
    for iter in 0..200_000 {
        hits.store(0, Ordering::Relaxed);
        pool.parallel_for(0..8, |chunk| {
            hits.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8, "iteration {iter}");
    }
}

/// Channel ping-pong hammer over the vendored crossbeam stub (the
/// ROADMAP flake's remaining suspect, audited + hardened in the channel
/// module): two threads bounce a token through a pair of bounded(1)
/// channels tens of thousands of times — every round trip crosses the
/// park/notify window twice, so a lost wakeup hangs within seconds.
/// A second phase hammers the MPMC shape the pool actually uses (several
/// cloned receivers racing one sender on an unbounded channel).
#[test]
fn channel_ping_pong_stress() {
    if !stress_enabled() {
        return;
    }
    use crossbeam::channel::{bounded, unbounded};

    // Phase 1: strict ping-pong, fresh channels every few thousand rounds
    // so construction/teardown join the suspect window.
    for round in 0..8 {
        let (ping_tx, ping_rx) = bounded::<u64>(1);
        let (pong_tx, pong_rx) = bounded::<u64>(1);
        let pong = std::thread::spawn(move || {
            while let Ok(v) = ping_rx.recv() {
                if pong_tx.send(v + 1).is_err() {
                    break;
                }
            }
        });
        let mut value = 0u64;
        for i in 0..25_000u64 {
            ping_tx.send(value).unwrap();
            value = pong_rx.recv().unwrap();
            assert_eq!(value, 2 * i + 1, "round {round}, iteration {i}");
            value += 1;
        }
        drop(ping_tx);
        pong.join().unwrap();
    }

    // Phase 2: the worker_loop shape — one producer, a team of cloned
    // receivers splitting messages, repeated with fresh channels.
    for iter in 0..2_000 {
        let (tx, rx) = unbounded::<u64>();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || (0..).map_while(|_| rx.recv().ok()).sum::<u64>())
            })
            .collect();
        drop(rx);
        let n = 64u64;
        for v in 1..=n {
            tx.send(v).unwrap();
        }
        drop(tx);
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(total, n * (n + 1) / 2, "iteration {iter}");
    }
}

/// Raw latch wait/notify races without any pool machinery: one waiter, one
/// decrementer, fresh latch per iteration.
#[test]
fn raw_latch_wakeup_stress() {
    if !stress_enabled() {
        return;
    }
    for _ in 0..50_000 {
        let latch = Arc::new(CountLatch::new(1));
        let l = Arc::clone(&latch);
        let t = std::thread::spawn(move || l.count_down());
        latch.wait();
        t.join().unwrap();
    }
}
