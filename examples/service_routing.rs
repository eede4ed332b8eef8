//! The async execution service end to end: a bounded kernel queue that
//! blocks the producer when full, draining onto a fixed thread budget,
//! with the QPUManager routing tasks across all four cloneable backends —
//! one process serving a mixed workload fleet (the ROADMAP's "heavy
//! traffic" shape).
//!
//! ```text
//! cargo run -p qcor --release --example service_routing
//! ```

use qcor::{
    initialize, qalloc, ExecServiceConfig, ExecutionService, InitOptions, Kernel, QPUManager, QcorError,
};

const BELL: &str = "H(q[0]); CX(q[0], q[1]); Measure(q[0]); Measure(q[1]);";

fn main() {
    // A deliberately tiny service: 2 executor threads, queue capacity 4.
    let svc = ExecutionService::new(ExecServiceConfig::default().threads(3).capacity(4));
    println!("service: {} pool threads, capacity {}\n", svc.pool_threads(), svc.capacity());

    // 16 kernels, far beyond capacity: backpressure throttles the
    // producer, and round-robin routing steers every task to the next
    // backend in the rotation.
    let backends = ["qpp", "qpp-noisy", "qpp-density", "remote"];
    let futures: Vec<_> = (0..16u64)
        .map(|i| {
            svc.submit(move || {
                initialize(InitOptions::default().threads(1).shots(256).seed(i).route_round_robin([
                    "qpp",
                    "qpp-noisy",
                    "qpp-density",
                    "remote",
                ]))?;
                let ctx = QPUManager::instance().get_qpu().expect("just initialized");
                let q = qalloc(2);
                Kernel::from_xasm(BELL, 2)?.invoke(&q, &[])?;
                let clean = q.probability("00") + q.probability("11");
                Ok::<_, QcorError>((ctx.qpu.name(), clean))
            })
            .expect("the service is running")
        })
        .collect();

    let mut per_backend = std::collections::BTreeMap::<String, usize>::new();
    for (i, f) in futures.into_iter().enumerate() {
        let (backend, clean) = f.get().expect("kernel runs");
        *per_backend.entry(backend.clone()).or_default() += 1;
        println!("task {i:2} -> {backend:<12} p(00)+p(11) = {clean:.3}");
    }

    println!("\nbackend distribution over the rotation:");
    for name in backends {
        println!("  {name:<12} {} tasks", per_backend.get(name).copied().unwrap_or(0));
    }
    let stats = svc.stats();
    println!(
        "\nqueue stats: {} submitted, {} completed, peak queue {} (capacity {})",
        stats.submitted,
        stats.completed,
        stats.peak_queue_len,
        svc.capacity()
    );
    assert_eq!(stats.completed, 16);
    assert!(stats.peak_queue_len <= svc.capacity());
}
