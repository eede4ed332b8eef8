//! The counting latch used to implement fork/join completion.
//!
//! A [`CountLatch`] is set to the number of participants of a parallel
//! construct; each participant counts it down once, and the thread that
//! issued the construct blocks until the count reaches zero. This is the
//! same completion mechanism an OpenMP runtime uses at the implicit barrier
//! that ends a parallel region.
//!
//! # Lost-wakeup audit (the condvar discipline)
//!
//! The latch follows the only condvar protocol that cannot lose a wakeup:
//!
//! 1. **Waiters check the predicate under the lock.** `wait` takes the
//!    mutex and loops `while count != 0 { cond.wait(..) }`, so a spurious
//!    wakeup can't strand a waiter.
//! 2. **The final decrementer notifies while holding the lock.** The
//!    decrement that reaches zero and its `notify_all` both run under the
//!    mutex, which serializes the notification against any waiter that is
//!    between its predicate check and its `cond.wait` — the decrementer
//!    either sees the waiter already parked (notify wakes it) or the
//!    waiter's in-lock re-check sees the zero count (it never parks).
//! 3. **A latch is safe to free once `wait` returns.** Latches live in the
//!    frame of the thread that waits on them (a `parallel_for` job or a
//!    `submit_batch` descriptor), and that frame unwinds as soon as `wait`
//!    returns, so no participant may touch the latch after the
//!    waiter can observe zero. A decrement that leaves the count above zero
//!    is a lock-free compare-and-swap and never touches the latch again;
//!    the decrement that reaches zero happens under the lock, and `wait`
//!    decides only under the lock (there is no lock-free fast path), so the
//!    waiter cannot return before the final decrementer has released the
//!    mutex — its last touch. Had the final decrement run before taking the
//!    lock, a waiter's zero read could free the latch while the decrementer
//!    was still about to lock it: a worker then parks on a mutex word in a
//!    frame that has already returned.
//!
//! The counters use `AcqRel`/`Acquire` orderings so a waiter that observes
//! zero also observes every write the participants made before counting
//! down. The `latch_wakeup_race_*` tests below hammer the narrow window
//! between a waiter's check and `cond.wait` (set `QCOR_STRESS=1` for the
//! multi-thousand-iteration version in `tests/tests/pool_stress.rs`, which
//! drives the full fork/join stack).

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A latch initialized with a count; [`CountLatch::count_down`] decrements it
/// and [`CountLatch::wait`] blocks until it reaches zero.
///
/// A `count_down` that leaves other participants outstanding is a single
/// lock-free compare-and-swap; the mutex/condvar pair is only touched by
/// the last decrementer and by waiters. The latch may be dropped as soon as
/// `wait` returns (audit point 3).
#[derive(Debug)]
pub struct CountLatch {
    count: AtomicUsize,
    lock: Mutex<()>,
    cond: Condvar,
}

impl CountLatch {
    /// Create a latch that requires `count` decrements before waiters wake.
    pub fn new(count: usize) -> Self {
        Self { count: AtomicUsize::new(count), lock: Mutex::new(()), cond: Condvar::new() }
    }

    /// Number of outstanding decrements.
    pub fn remaining(&self) -> usize {
        self.count.load(Ordering::Acquire)
    }

    /// Record one participant's completion. Panics if called more times than
    /// the initial count. Only a decrement that may reach zero takes the
    /// lock.
    pub fn count_down(&self) {
        let mut current = self.count.load(Ordering::Acquire);
        while current > 1 {
            match self.count.compare_exchange_weak(current, current - 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
        let _guard = self.lock.lock();
        match self.count.fetch_update(Ordering::AcqRel, Ordering::Acquire, |c| c.checked_sub(1)) {
            Ok(1) => self.cond.notify_all(),
            Ok(_) => {}
            Err(_) => panic!("CountLatch::count_down called more times than its count"),
        }
    }

    /// Block until the count reaches zero. Returns immediately if it already
    /// has.
    pub fn wait(&self) {
        let mut guard = self.lock.lock();
        while self.count.load(Ordering::Acquire) != 0 {
            self.cond.wait(&mut guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn latch_zero_count_does_not_block() {
        let latch = CountLatch::new(0);
        latch.wait();
    }

    #[test]
    fn latch_counts_down_across_threads() {
        let latch = Arc::new(CountLatch::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&latch);
            handles.push(thread::spawn(move || l.count_down()));
        }
        latch.wait();
        assert_eq!(latch.remaining(), 0);
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "count_down called more times")]
    fn latch_overflow_panics() {
        let latch = CountLatch::new(1);
        latch.count_down();
        latch.count_down();
    }

    /// How many wait/notify race iterations the audit tests run: a quick
    /// default so `cargo test` stays fast, thousands under `QCOR_STRESS=1`
    /// to actually chase the lost-wakeup window on a loaded machine.
    fn race_iterations() -> usize {
        if std::env::var("QCOR_STRESS").map(|v| v == "1").unwrap_or(false) {
            20_000
        } else {
            500
        }
    }

    #[test]
    fn latch_wakeup_race_single_participant() {
        // Tightest possible window: the waiter races a lone decrementer.
        // A lost wakeup hangs the test (caught by the harness timeout).
        for _ in 0..race_iterations() {
            let latch = Arc::new(CountLatch::new(1));
            let l = Arc::clone(&latch);
            let t = thread::spawn(move || l.count_down());
            latch.wait();
            assert_eq!(latch.remaining(), 0);
            t.join().unwrap();
        }
    }

    #[test]
    fn latch_many_waiters_all_wake() {
        let latch = Arc::new(CountLatch::new(1));
        let mut waiters = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&latch);
            waiters.push(thread::spawn(move || l.wait()));
        }
        thread::sleep(std::time::Duration::from_millis(10));
        latch.count_down();
        for w in waiters {
            w.join().unwrap();
        }
    }
}
