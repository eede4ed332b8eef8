//! `qalloc` registers exactly one buffer per call, concurrent `qalloc`
//! loses no registration, and a buffer leaves the table with its last
//! handle.
//!
//! The buffer table is process-global and the assertions are on its exact
//! size, so this lives in a test binary of its own: keep it the only test
//! in this file, so that no sibling test can `qalloc` into or clear the
//! table underneath it.

use qcor_core::{allocated_buffer_count, find_buffer, qalloc, QReg};

#[test]
fn concurrent_qalloc_is_safe_and_lossless() {
    let q = qalloc(2);
    assert_eq!(allocated_buffer_count(), 1);
    assert!(find_buffer(&q.name()).is_ok());

    let threads = 8;
    let per_thread = 64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                (0..per_thread)
                    .map(|_| {
                        let q = qalloc(2);
                        assert_eq!(q.size(), 2);
                        q
                    })
                    .collect::<Vec<QReg>>()
            })
        })
        .collect();
    let held: Vec<QReg> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    assert_eq!(allocated_buffer_count(), 1 + threads * per_thread);
    assert!(held.iter().all(|q| find_buffer(&q.name()).is_ok()));

    // The table keeps no buffer alive: entries go with their last handle.
    let name = held[0].name();
    let alias = held[0].clone();
    drop(held);
    assert_eq!(allocated_buffer_count(), 2, "an aliased buffer stays registered");
    assert!(find_buffer(&name).is_ok());
    drop(alias);
    assert!(find_buffer(&name).is_err());
    assert_eq!(allocated_buffer_count(), 1);
}
