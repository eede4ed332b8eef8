//! Backend consistency matrix: every registered backend, driven through
//! the public `qcor` runtime, must (a) execute the Bell kernel, (b)
//! conserve shots, and (c) agree on the ideal distribution when its noise
//! is turned off. Each run also checks that `initialize` registered an
//! instance of exactly the backend it named for the calling thread.

use qcor::{initialize, qalloc, InitOptions, Kernel, QPUManager, QReg};

const BELL: &str = r#"
__qpu__ void bell(qreg q) {
    using qcor::xasm;
    H(q[0]);
    CX(q[0], q[1]);
    for (int i = 0; i < q.size(); i++) { Measure(q[i]); }
}
"#;

fn run_backend(opts: InitOptions, shots: usize) -> QReg {
    std::thread::spawn(move || {
        let backend = opts.backend.clone();
        initialize(opts.shots(shots)).unwrap();
        assert_eq!(QPUManager::instance().get_qpu().unwrap().qpu.name(), backend);
        let q = qalloc(2);
        Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
        q
    })
    .join()
    .unwrap()
}

#[test]
fn qpp_backend_ideal_bell() {
    let q = run_backend(InitOptions::default().threads(1).seed(1), 512);
    assert_eq!(q.total_shots(), 512);
    assert!(q.measurement_counts().keys().all(|k| k == "00" || k == "11"));
}

#[test]
fn density_backend_ideal_bell_matches_qpp() {
    let q = run_backend(InitOptions::default().backend("qpp-density").seed(2), 512);
    assert_eq!(q.total_shots(), 512);
    assert!(q.measurement_counts().keys().all(|k| k == "00" || k == "11"), "{:?}", q.measurement_counts());
    let p00 = q.probability("00");
    assert!((p00 - 0.5).abs() < 0.08, "p00 = {p00}");
}

#[test]
fn noisy_backend_zero_noise_is_ideal() {
    let q = run_backend(
        InitOptions::default()
            .backend("qpp-noisy")
            .seed(3)
            .param("depolarizing", 0.0)
            .param("readout-error", 0.0),
        256,
    );
    assert!(q.measurement_counts().keys().all(|k| k == "00" || k == "11"));
}

#[test]
fn density_and_trajectory_noise_agree() {
    let p = 0.04;
    let exact =
        run_backend(InitOptions::default().backend("qpp-density").seed(4).param("depolarizing", p), 4096);
    let traj = run_backend(
        InitOptions::default()
            .backend("qpp-noisy")
            .seed(5)
            .param("depolarizing", p)
            .param("readout-error", 0.0),
        4096,
    );
    let clean_exact = exact.probability("00") + exact.probability("11");
    let clean_traj = traj.probability("00") + traj.probability("11");
    assert!((clean_exact - clean_traj).abs() < 0.05, "exact {clean_exact} vs trajectory {clean_traj}");
    assert!(clean_exact < 0.999, "noise must be visible");
}

#[test]
fn remote_backend_conserves_shots() {
    let q = run_backend(
        InitOptions::default().backend("remote").threads(1).seed(6).param("latency-ms", 1usize),
        64,
    );
    assert_eq!(q.total_shots(), 64);
}

#[test]
fn all_cloneable_backends_are_listed() {
    let names = qcor_xacc::registry::global().service_names();
    for expected in ["qpp", "qpp-noisy", "qpp-density", "remote", "qpp-legacy-shared"] {
        assert!(names.iter().any(|n| n == expected), "{expected} missing");
    }
    for cloneable in ["qpp", "qpp-noisy", "qpp-density", "remote"] {
        assert_eq!(qcor_xacc::registry::global().is_cloneable(cloneable), Some(true), "{cloneable}");
    }
    assert_eq!(qcor_xacc::registry::global().is_cloneable("qpp-legacy-shared"), Some(false));
}
