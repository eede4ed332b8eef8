//! Interleaved `qalloc` + kernel execution from many threads loses no
//! buffer registration and contaminates no counts.
//!
//! The buffer table is process-global and the final assertions are on its
//! exact size, so this lives in a test binary of its own (split out of
//! `runtime_stress.rs`): keep it the only test in this file, so that no
//! sibling test can `qalloc` into or clear the table underneath it.

use qcor::{initialize, qalloc, InitOptions, Kernel, QPUManager};

const GHZ3: &str = r#"
__qpu__ void ghz(qreg q) {
    H(q[0]);
    CX(q[0], q[1]);
    CX(q[1], q[2]);
    for (int i = 0; i < q.size(); i++) { Measure(q[i]); }
}
"#;

#[test]
fn interleaved_qalloc_and_execute_from_many_threads() {
    let threads = 8;
    let iterations = 12;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                initialize(InitOptions::default().threads(1).shots(16).seed(t)).unwrap();
                let kernel = Kernel::from_xasm(GHZ3, 3).unwrap();
                let registers: Vec<_> = (0..iterations)
                    .map(|_| {
                        let q = qalloc(3);
                        kernel.invoke(&q, &[]).unwrap();
                        assert_eq!(q.total_shots(), 16);
                        let counts = q.measurement_counts();
                        assert!(
                            counts.keys().all(|k| k == "000" || k == "111"),
                            "thread {t} saw contaminated counts: {counts:?}"
                        );
                        q
                    })
                    .collect();
                QPUManager::instance().clear_current();
                registers
            })
        })
        .collect();
    // Every register is still held, so every registration must be there.
    let held: Vec<_> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    assert_eq!(qcor::allocated_buffer_count(), threads as usize * iterations);
    drop(held);
    assert_eq!(qcor::allocated_buffer_count(), 0, "the table must not outlive the handles");
}
