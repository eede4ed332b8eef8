//! Property tests: a work-shared loop must be observationally equivalent to
//! the sequential loop for any range, team size, and schedule.

use proptest::prelude::*;
use qcor_pool::{Schedule, ThreadPool};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    prop_oneof![Just(Schedule::Static), Just(Schedule::Auto), (1usize..64).prop_map(Schedule::Dynamic),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn covers_each_index_exactly_once(
        start in 0usize..1000,
        len in 0usize..2000,
        threads in 1usize..9,
        schedule in schedule_strategy(),
    ) {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_with(start..start + len, schedule, |chunk| {
            for i in chunk {
                hits[i - start].fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn scope_runs_every_task(task_count in 0usize..200, threads in 1usize..9) {
        let pool = ThreadPool::new(threads);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..task_count {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
            }
        });
        let expect: u64 = (1..=task_count as u64).sum();
        prop_assert_eq!(counter.load(Ordering::Relaxed), expect);
    }
}
