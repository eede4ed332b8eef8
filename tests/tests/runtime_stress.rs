//! Concurrency stress for the thread-safety claims: many threads hammer
//! `qalloc`, `initialize`, the QPUManager and kernel execution at once.
//! Rust's model guarantees absence of memory unsafety; these tests check
//! the *semantic* guarantees — no lost registrations, no cross-thread
//! contamination, consistent totals.

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
fn rapid_initialize_reinitialize_cycles() {
    // Re-initializing must atomically swap the thread's accelerator; the
    // shots setting of the most recent initialize wins.
    std::thread::spawn(|| {
        let kernel = Kernel::from_xasm(GHZ3, 3).unwrap();
        for round in 0..20u64 {
            let shots = 8 + (round as usize % 3) * 4;
            initialize(InitOptions::default().threads(1).shots(shots).seed(round)).unwrap();
            let q = qalloc(3);
            kernel.invoke(&q, &[]).unwrap();
            assert_eq!(q.total_shots(), shots);
        }
        QPUManager::instance().clear_current();
    })
    .join()
    .unwrap();
}

#[test]
fn nested_spawns_inherit_transitively() {
    // spawn inside spawn: grandchildren still get initialized contexts.
    std::thread::spawn(|| {
        initialize(InitOptions::default().threads(1).shots(8).seed(1)).unwrap();
        let outer = qcor::spawn(|| {
            let inner = qcor::spawn(|| {
                let q = qalloc(2);
                Kernel::from_xasm("H(q[0]); Measure(q[0]); Measure(q[1]);", 2)
                    .unwrap()
                    .invoke(&q, &[])
                    .unwrap();
                q.total_shots()
            });
            inner.get()
        });
        assert_eq!(outer.get(), 8);
        QPUManager::instance().clear_current();
    })
    .join()
    .unwrap();
}

#[test]
fn shared_qreg_across_tasks_accumulates_atomically() {
    // Several tasks writing into the SAME buffer (clone-aliased QReg):
    // totals must be exact — the mutex-guarded buffer is the unit of
    // thread safety here.
    std::thread::spawn(|| {
        initialize(InitOptions::default().threads(1).shots(32).seed(9)).unwrap();
        let q = qalloc(2);
        let kernel_src = "H(q[0]); CX(q[0], q[1]); Measure(q[0]); Measure(q[1]);";
        let tasks: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                qcor::spawn(move || {
                    Kernel::from_xasm(kernel_src, 2).unwrap().invoke(&q, &[]).unwrap();
                })
            })
            .collect();
        for t in tasks {
            t.get();
        }
        assert_eq!(q.total_shots(), 4 * 32);
        QPUManager::instance().clear_current();
    })
    .join()
    .unwrap();
}

#[test]
fn task_futures_complete_in_any_order() {
    let futures: Vec<_> = (0..6)
        .map(|i| {
            qcor::async_task(move || {
                // Stagger runtimes so completion order scrambles.
                std::thread::sleep(std::time::Duration::from_millis((6 - i) * 3));
                i
            })
        })
        .collect();
    // Collect in spawn order regardless of completion order.
    let values: Vec<u64> = futures.into_iter().map(|f| f.get()).collect();
    assert_eq!(values, vec![0, 1, 2, 3, 4, 5]);
}
