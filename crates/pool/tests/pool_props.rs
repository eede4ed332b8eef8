//! Property test: a work-shared loop must be observationally equivalent to
//! the sequential loop for any range and team size.

use proptest::prelude::*;
use qcor_pool::ThreadPool;
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn covers_each_index_exactly_once(
        start in 0usize..1000,
        len in 0usize..2000,
        threads in 1usize..9,
    ) {
        let pool = ThreadPool::new(threads);
        let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(start..start + len, |chunk| {
            for i in chunk {
                hits[i - start].fetch_add(1, Ordering::Relaxed);
            }
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
