//! RACE experiment (DESIGN.md): reproduce the §V-A.2 shared-accelerator
//! data race through the public runtime API, and show the paper's fix
//! (cloneable accelerators + QPUManager) eliminates it.
//!
//! * Legacy mode: every thread's `initialize` resolves to the *same*
//!   `qpp-legacy-shared` singleton; concurrent kernels interleave their
//!   gate streams and produce corrupted counts.
//! * Fixed mode: `initialize` constructs a fresh `qpp` instance per
//!   thread; concurrent kernels are perfectly isolated.

use qcor::{initialize, initialize_legacy_shared, qalloc, InitOptions, Kernel, QReg};
use std::sync::{Mutex, MutexGuard, PoisonError};

const BELL: &str = r#"
__qpu__ void bell(qreg q) {
    using qcor::xasm;
    H(q[0]);
    CX(q[0], q[1]);
    for (int i = 0; i < q.size(); i++) { Measure(q[i]); }
}
"#;

fn bell_run(shots: usize, seed: u64, legacy: bool) -> QReg {
    if legacy {
        initialize_legacy_shared(shots, Some(seed)).unwrap();
    } else {
        initialize(InitOptions::default().threads(1).shots(shots).seed(seed)).unwrap();
    }
    let q = qalloc(2);
    Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
    q
}

/// Both legacy tests drive the one process-wide `qpp-legacy-shared`
/// singleton, and the test harness runs tests in parallel: this lock keeps
/// the corruption test's threads from racing the sequential test's runs.
static LEGACY_SINGLETON: Mutex<()> = Mutex::new(());

fn lock_legacy_singleton() -> MutexGuard<'static, ()> {
    // A failed assertion in the other legacy test poisons the lock; the
    // singleton itself is still usable.
    LEGACY_SINGLETON.lock().unwrap_or_else(PoisonError::into_inner)
}

fn is_clean_bell(q: &QReg, shots: usize) -> bool {
    q.total_shots() == shots && q.measurement_counts().keys().all(|k| k == "00" || k == "11")
}

#[test]
fn legacy_shared_backend_corrupts_concurrent_kernels() {
    let _singleton = lock_legacy_singleton();
    let mut corrupted = false;
    for attempt in 0..25 {
        let handles: Vec<_> =
            (0..2).map(|t| std::thread::spawn(move || bell_run(64, attempt * 10 + t, true))).collect();
        for h in handles {
            let q = h.join().unwrap();
            if !is_clean_bell(&q, 64) {
                corrupted = true;
            }
        }
        if corrupted {
            break;
        }
    }
    assert!(
        corrupted,
        "two threads on the shared singleton never corrupted a Bell run; \
         the pre-fix reproduction has lost its race"
    );
}

#[test]
fn legacy_shared_backend_is_fine_single_threaded() {
    // The pre-fix code was correct sequentially — only concurrency breaks it.
    let _singleton = lock_legacy_singleton();
    std::thread::spawn(|| {
        for seed in 0..4 {
            let q = bell_run(128, seed, true);
            assert!(is_clean_bell(&q, 128), "{:?}", q.measurement_counts());
        }
    })
    .join()
    .unwrap();
}

#[test]
fn qpu_manager_fix_isolates_concurrent_kernels() {
    // Many rounds of 4 concurrent kernels: never a corrupted result.
    for round in 0..10 {
        let handles: Vec<_> =
            (0..4).map(|t| std::thread::spawn(move || bell_run(64, round * 100 + t, false))).collect();
        for h in handles {
            let q = h.join().unwrap();
            assert!(
                is_clean_bell(&q, 64),
                "fixed runtime produced corrupted counts: {:?}",
                q.measurement_counts()
            );
        }
    }
}

#[test]
fn qcor_spawn_wrapper_also_isolates() {
    // The qcor::spawn wrapper (auto-initialize) on top of a parent init.
    std::thread::spawn(|| {
        initialize(InitOptions::default().threads(1).shots(64).seed(1)).unwrap();
        let tasks: Vec<_> = (0..4)
            .map(|_| {
                qcor::spawn(|| {
                    let q = qalloc(2);
                    Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
                    q
                })
            })
            .collect();
        for t in tasks {
            let q = t.get();
            assert!(is_clean_bell(&q, 64));
        }
    })
    .join()
    .unwrap();
}
