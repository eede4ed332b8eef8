//! Integration tests for the async execution service (bounded kernel
//! queue + backpressure) and the QPUManager's per-thread backend
//! registrations.

use qcor::{
    initialize, qalloc, set_thread_tenant, ExecServiceConfig, ExecutionService, InitOptions, Kernel,
    QPUManager, QcorError, TaskFuture,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BELL: &str = "H(q[0]); CX(q[0], q[1]); Measure(q[0]); Measure(q[1]);";

fn run_bell(shots: usize, seed: u64) -> usize {
    initialize(InitOptions::default().threads(1).shots(shots).seed(seed)).unwrap();
    let q = qalloc(2);
    Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
    q.total_shots()
}

// ---------------------------------------------------------------------------
// Queue backpressure semantics
// ---------------------------------------------------------------------------

/// The saturation acceptance test: queue capacity K, far more than K
/// in-flight submissions — the queue never exceeds K and
/// the number of distinct executing threads never exceeds the pool size.
#[test]
fn saturation_respects_capacity_and_thread_budget() {
    const K: usize = 4;
    const TASKS: usize = 64;
    let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(3).capacity(K)));
    let executing_threads = Arc::new(Mutex::new(HashSet::new()));
    let peak_concurrent = Arc::new(AtomicUsize::new(0));
    let concurrent = Arc::new(AtomicUsize::new(0));

    // Submit from several producer threads to actually saturate the queue.
    let mut producers = Vec::new();
    for p in 0..4u64 {
        let svc = Arc::clone(&svc);
        let executing_threads = Arc::clone(&executing_threads);
        let peak_concurrent = Arc::clone(&peak_concurrent);
        let concurrent = Arc::clone(&concurrent);
        producers.push(std::thread::spawn(move || {
            let futures: Vec<_> = (0..TASKS / 4)
                .map(|i| {
                    let executing_threads = Arc::clone(&executing_threads);
                    let peak = Arc::clone(&peak_concurrent);
                    let concurrent = Arc::clone(&concurrent);
                    svc.submit(move || {
                        let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        executing_threads.lock().unwrap().insert(std::thread::current().id());
                        let shots = run_bell(32, p * 1000 + i as u64);
                        concurrent.fetch_sub(1, Ordering::SeqCst);
                        shots
                    })
                    .unwrap()
                })
                .collect();
            futures.into_iter().map(|f| f.get()).sum::<usize>()
        }));
    }
    let total: usize = producers.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, TASKS * 32, "every submission must run exactly once");

    let stats = svc.stats();
    assert_eq!(stats.submitted, TASKS);
    assert_eq!(stats.completed, TASKS);
    assert!(stats.peak_queue_len <= K, "queue exceeded its high-water mark: {stats:?}");

    let distinct = executing_threads.lock().unwrap().len();
    assert!(
        distinct <= svc.pool_threads(),
        "{distinct} distinct executor threads for a pool of {}",
        svc.pool_threads()
    );
    assert!(
        peak_concurrent.load(Ordering::SeqCst) <= svc.pool_threads(),
        "more tasks ran concurrently than the thread budget allows"
    );
}

/// Futures resolve with their own task's value regardless of completion
/// order, and a one-executor service preserves FIFO execution order.
#[test]
fn task_future_completion_ordering() {
    let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(32));
    let log = Arc::new(Mutex::new(Vec::new()));
    let futures: Vec<_> = (0..10usize)
        .map(|i| {
            let log = Arc::clone(&log);
            svc.submit(move || {
                // Stagger runtimes so completion wall-times scramble.
                std::thread::sleep(Duration::from_millis(((10 - i) % 3) as u64));
                log.lock().unwrap().push(i);
                i * i
            })
            .unwrap()
        })
        .collect();
    let values: Vec<usize> = futures.into_iter().map(|f| f.get()).collect();
    assert_eq!(values, (0..10).map(|i| i * i).collect::<Vec<_>>());
    // threads(2) = one executor => strict FIFO queue order.
    assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
}

/// Kernel workloads through the queue still get isolated accelerator
/// instances: concurrent Bell tasks from one initialized parent see clean
/// per-task counts.
#[test]
fn queued_kernel_tasks_keep_instance_isolation() {
    std::thread::spawn(|| {
        initialize(InitOptions::default().threads(1).shots(64).seed(7)).unwrap();
        let tasks: Vec<_> = (0..8)
            .map(|_| {
                qcor::spawn(|| {
                    let q = qalloc(2);
                    Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
                    let counts = q.measurement_counts();
                    assert!(counts.keys().all(|k| k == "00" || k == "11"), "{counts:?}");
                    q.total_shots()
                })
            })
            .collect();
        for t in tasks {
            assert_eq!(t.get(), 64);
        }
        QPUManager::instance().clear_current();
    })
    .join()
    .unwrap();
}

// ---------------------------------------------------------------------------
// Work-conserving joins and cancellation
// ---------------------------------------------------------------------------

/// Run `scenario` on a helper thread under a deadlock watchdog: if it has
/// not finished within `limit`, the test fails instead of hanging the
/// whole suite. The regression scenarios below deadlocked forever before
/// the work-conserving join.
fn with_watchdog(limit: Duration, name: &str, scenario: impl FnOnce() + Send + 'static) {
    let done = Arc::new(AtomicBool::new(false));
    let d = Arc::clone(&done);
    let runner = std::thread::spawn(move || {
        scenario();
        d.store(true, Ordering::Release);
    });
    let start = Instant::now();
    while !done.load(Ordering::Acquire) {
        assert!(
            start.elapsed() < limit,
            "{name}: watchdog fired after {limit:?} — the service deadlocked \
             (the pre-work-conserving-join failure mode)"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    runner.join().unwrap();
}

/// The ISSUE's acceptance scenario, shape 1 (deadlocks the pre-fix
/// service): `permit_budget + 2` top-level tasks where task *i* `wait()`s
/// on the future of its **sibling** *i + 1*. Pre-fix, the first
/// `permit_budget` tasks park on futures of tasks stuck in the queue
/// behind them, every permit is held, and nothing ever runs again.
/// Post-fix, each waiter helps drain the queue on its own permit.
fn sibling_chain_scenario(threads: usize) {
    let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(threads).capacity(64)));
    let n = svc.permit_budget() + 2;
    let handoff: Arc<Mutex<HashMap<usize, TaskFuture<usize>>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut head = None;
    for i in 0..n {
        let handoff_in = Arc::clone(&handoff);
        let f = svc
            .submit(move || {
                if i + 1 == n {
                    return 0usize;
                }
                // Spin until the main thread has parked the sibling's
                // future in the handoff map (it is submitted after us).
                let sibling = loop {
                    if let Some(f) = handoff_in.lock().unwrap().remove(&(i + 1)) {
                        break f;
                    }
                    std::thread::yield_now();
                };
                sibling.wait().expect("an uncancelled sibling cannot fail") + 1
            })
            .unwrap();
        if i == 0 {
            head = Some(f);
        } else {
            handoff.lock().unwrap().insert(i, f);
        }
    }
    assert_eq!(head.unwrap().get(), n - 1, "the whole join chain must resolve");
    svc.drain();
    let stats = svc.stats();
    assert_eq!(stats.completed, n);
    assert_eq!(stats.cancelled, 0);
}

/// Shape 2: `permit_budget + 2` driver tasks that each **spawn** siblings
/// on the same service and join them in-task (the fan-out/fan-in shape
/// vqe multistart and parallel Shor now use).
fn spawn_and_join_scenario(threads: usize) {
    let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(threads).capacity(8)));
    let drivers = svc.permit_budget() + 2;
    let futures: Vec<_> = (0..drivers)
        .map(|d| {
            let inner = Arc::clone(&svc);
            svc.submit(move || {
                let children: Vec<_> = (0..3).map(|c| inner.submit(move || d * 10 + c).unwrap()).collect();
                children.into_iter().map(|f| f.wait().unwrap()).sum::<usize>()
            })
            .unwrap()
        })
        .collect();
    let got: Vec<usize> = futures.into_iter().map(|f| f.get()).collect();
    let expect: Vec<usize> = (0..drivers).map(|d| 3 * (d * 10) + 3).collect();
    assert_eq!(got, expect);
}

/// The always-on deadlock regression (both shapes, several team sizes —
/// including a team of one, where the dispatcher itself is the only
/// executor). Each shape submits more joining tasks than there are
/// permits; pre-fix this test hangs, which the watchdog converts into a
/// failure.
#[test]
fn in_task_sibling_joins_cannot_exhaust_permits() {
    for threads in [1usize, 2, 4] {
        with_watchdog(Duration::from_secs(60), "sibling chain", move || sibling_chain_scenario(threads));
        with_watchdog(Duration::from_secs(60), "spawn and join", move || spawn_and_join_scenario(threads));
    }
}

/// In-task joins with real kernel workloads: a driver task fans Bell
/// kernels out over the same service and merges their counts in-task,
/// with fewer permits than siblings.
#[test]
fn in_task_join_runs_kernel_siblings() {
    with_watchdog(Duration::from_secs(120), "kernel fan-in", || {
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(16)));
        let inner = Arc::clone(&svc);
        let total = svc
            .submit(move || {
                let children: Vec<_> =
                    (0..4).map(|i| inner.submit(move || run_bell(32, 40 + i)).unwrap()).collect();
                children.into_iter().map(|f| f.wait().unwrap()).sum::<usize>()
            })
            .unwrap()
            .get();
        assert_eq!(total, 4 * 32);
    });
}

/// Cancel before dispatch: the task never runs, the future resolves as
/// `TaskCancelled`, and the `cancelled` counter ticks. Cancel after
/// dispatch: a no-op (`false`), the task completes normally.
#[test]
fn cancel_before_vs_after_dispatch_is_observable() {
    let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(8));
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let blocker = svc
        .submit(move || {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    while svc.stats().running == 0 {
        std::thread::yield_now();
    }
    // After dispatch: the running blocker is past cancellation.
    assert!(!blocker.cancel(), "a dispatched task must not be cancellable");

    let ran = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&ran);
    let queued = svc.submit(move || r.store(true, Ordering::Release)).unwrap();
    assert!(queued.cancel(), "a queued task must cancel");
    assert!(!queued.cancel(), "double-cancel reports false");
    assert_eq!(queued.wait(), Err(QcorError::TaskCancelled));

    gate.store(true, Ordering::Release);
    blocker.get();
    svc.drain();
    assert!(!ran.load(Ordering::Acquire), "cancelled tasks must never run");
    let stats = svc.stats();
    assert_eq!((stats.cancelled, stats.completed), (1, 1));
    assert_eq!(
        stats.submitted,
        stats.completed + stats.running + stats.queue_len + stats.shed + stats.cancelled + stats.expired
    );
}

// ---------------------------------------------------------------------------
// QPUManager registrations
// ---------------------------------------------------------------------------

/// A child task runs on a fresh instance of its parent's backend: every
/// child of a parent initialized on `qpp-density` runs on `qpp-density`.
#[test]
fn spawned_tasks_inherit_parent_backend() {
    std::thread::spawn(|| {
        initialize(InitOptions::default().threads(1).shots(8).seed(3).backend("qpp-density")).unwrap();
        let child_names: Vec<String> = (0..3)
            .map(|_| qcor::spawn(|| QPUManager::instance().get_qpu().unwrap().qpu.name()).get())
            .collect();
        assert!(
            child_names.iter().all(|n| n == "qpp-density"),
            "children must run on the parent's backend qpp-density, got {child_names:?}"
        );
        QPUManager::instance().clear_current();
    })
    .join()
    .unwrap();
}

/// Inheritance replays the parent's **registry key**, not the
/// instance's self-reported name — a service registered under an alias
/// whose instances report a different `name()` must still be spawnable.
#[test]
fn inheritance_uses_registry_key_not_instance_name() {
    use qcor::Accelerator;
    qcor::registry::global().register_factory("alias-sim", |params| {
        Ok(std::sync::Arc::new(qcor_xacc::backends::QppAccelerator::from_params(params)?)
            as std::sync::Arc<dyn Accelerator>)
    });
    std::thread::spawn(|| {
        initialize(InitOptions::default().threads(1).shots(8).seed(5).backend("alias-sim")).unwrap();
        // The instance reports "qpp" but the registry key is "alias-sim".
        assert_eq!(QPUManager::instance().get_qpu().unwrap().qpu.name(), "qpp");
        let (backend, shots) = qcor::spawn(|| {
            let ctx = QPUManager::instance().get_qpu().unwrap();
            let q = qalloc(2);
            Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
            (ctx.init.backend, q.total_shots())
        })
        .get();
        assert_eq!(backend, "alias-sim");
        assert_eq!(shots, 8);
        QPUManager::instance().clear_current();
    })
    .join()
    .unwrap();
}

/// Entries for exited threads are evicted (the ThreadContext leak fix):
/// a thread that initializes and dies without `clear_current` leaves no
/// registration behind.
#[test]
fn exited_threads_do_not_leak_registrations() {
    let ids: Vec<std::thread::ThreadId> = (0..16)
        .map(|i| {
            std::thread::spawn(move || {
                initialize(InitOptions::default().threads(1).shots(8).seed(i)).unwrap();
                assert!(QPUManager::instance().get_qpu().is_some());
                // Deliberately no clear_current: the eviction guard reaps it.
                std::thread::current().id()
            })
            .join()
            .unwrap()
        })
        .collect();
    for id in ids {
        assert!(
            !QPUManager::instance().thread_is_registered(id),
            "exited thread {id:?} leaked its ThreadContext"
        );
    }
}

// ---------------------------------------------------------------------------
// Multi-tenant round robin, cooperative cancellation
// ---------------------------------------------------------------------------

/// Fair shares under saturation at the service level: with a single
/// permit and both tenants backlogged, round robin serves the late
/// tenant's batch one-for-one with the flooder's backlog, so the batch
/// completes long before that backlog does.
#[test]
fn weighted_tenants_share_the_permit_fairly() {
    // threads(2) = one dispatcher + one executor permit.
    let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(256));
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let blocker = svc
        .submit(move || {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();
    while svc.stats().running == 0 {
        std::thread::yield_now();
    }
    // Both tenants fully backlogged behind the blocker before any pop.
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut futures = Vec::new();
    for (tenant, n) in [("flooder", 48), ("favored", 12)] {
        set_thread_tenant(Some(tenant));
        for i in 0..n {
            let log = Arc::clone(&log);
            futures.push(svc.submit(move || log.lock().unwrap().push((tenant, i))).unwrap());
        }
    }
    set_thread_tenant(None);
    gate.store(true, Ordering::Release);
    blocker.get();
    for f in futures {
        f.get();
    }
    let log = log.lock().unwrap();
    let last_favored = log.iter().rposition(|(t, _)| *t == "favored").unwrap();
    let flooder_before = log[..=last_favored].iter().filter(|(t, _)| *t == "flooder").count();
    // Round robin interleaves one flooder pop per favored pop: 12 flooder
    // tasks before the favored batch ends, where FIFO would run all 48.
    assert!(
        flooder_before <= 12,
        "favored tenant starved: {flooder_before}/48 flooder tasks finished before its batch"
    );
    let snap = svc.introspect();
    let favored = snap.tenants.iter().find(|t| t.tenant == "favored").unwrap();
    assert_eq!((favored.submitted, favored.completed), (12, 12));
}

/// Service-level cooperative cancellation of a chunked shot sweep:
/// `TaskFuture::cancel` on a dispatched task sets the task's thread-local
/// token, the sweep stops at a chunk boundary, and the merged counts of
/// the completed prefix are bit-identical to re-running exactly those
/// chunks on their derived RNG streams.
#[test]
fn cancelling_a_dispatched_sweep_keeps_the_completed_prefix_deterministic() {
    use qcor::sim::derive_stream_seed;
    use qcor::{run_shots, PoolBuilder, RunConfig, ShotPlan};

    const BASE_SEED: u64 = 77;
    const CHUNK: usize = 4;
    const SHOTS: usize = 256;
    let circuit = qcor::library::ghz_kernel(14);

    let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(8));
    let circuit2 = circuit.clone();
    let f = svc
        .submit(move || {
            // A serial inner pool keeps chunk starts in plan order, so the
            // completed set is always a prefix of the plan.
            let pool = Arc::new(PoolBuilder::new().num_threads(1).build());
            let config = RunConfig {
                shots: SHOTS,
                seed: Some(BASE_SEED),
                chunk_shots: Some(CHUNK),
                ..RunConfig::default()
            };
            let plan = ShotPlan::for_circuit(&circuit2, &config);
            let token = qcor::sim::thread_cancel_token().expect("service installs the task token");
            plan.execute(&circuit2, pool, &config, None, Some(&token))
        })
        .unwrap();
    while svc.stats().running == 0 {
        std::thread::yield_now();
    }
    assert!(!f.cancel(), "dispatched: cancel() reports false and requests a cooperative stop");
    let run = f.get();
    assert_eq!(run.total_chunks, SHOTS / CHUNK);
    assert_eq!(run.cancelled, run.completed_chunks < run.total_chunks);

    // Reference: each completed chunk replayed alone on its derived seed.
    let pool = Arc::new(PoolBuilder::new().num_threads(1).build());
    let mut expected: HashMap<String, usize> = HashMap::new();
    for index in 0..run.completed_chunks {
        let config = RunConfig {
            shots: CHUNK,
            seed: Some(derive_stream_seed(BASE_SEED, index)),
            chunk_shots: Some(CHUNK),
            ..RunConfig::default()
        };
        for (bits, n) in run_shots(&circuit, Arc::clone(&pool), &config) {
            *expected.entry(bits).or_insert(0) += n;
        }
    }
    let got: HashMap<String, usize> = run.counts.into_iter().collect();
    assert_eq!(got, expected, "completed prefix must be bit-identical to the uncancelled chunks");
    assert_eq!(expected.values().sum::<usize>(), run.completed_chunks * CHUNK);
}

/// The live introspection snapshot: per-tenant columns sum to the
/// `ServiceStats` totals, the identity holds per tenant, and the debug
/// HTTP listener serves the same JSON the snapshot renders.
#[test]
fn introspection_sums_and_debug_endpoint_agree() {
    let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(3).capacity(64)));
    let mut futures = Vec::new();
    for (tenant, n) in [("t-a", 6usize), ("t-b", 9), ("t-c", 3)] {
        set_thread_tenant(Some(tenant));
        for i in 0..n {
            futures.push(svc.submit(move || i * i).unwrap());
        }
    }
    set_thread_tenant(None);
    for f in futures {
        f.get();
    }
    svc.drain();
    let snap = svc.introspect();
    let s = snap.stats;
    assert_eq!(s.submitted, s.completed + s.running + s.queue_len + s.shed + s.cancelled + s.expired);
    let sum = |f: fn(&qcor::TenantStats) -> usize| snap.tenants.iter().map(f).sum::<usize>();
    assert_eq!(sum(|t| t.submitted), s.submitted);
    assert_eq!(sum(|t| t.completed), s.completed);
    assert_eq!(sum(|t| t.running) + sum(|t| t.cancelled), 0);
    for t in &snap.tenants {
        assert_eq!(
            t.submitted,
            t.completed + t.running + t.queued + t.cancelled,
            "identity broken for tenant {}",
            t.tenant
        );
    }

    // The debug listener serves exactly what introspect() renders.
    let svc2 = Arc::clone(&svc);
    let server = qcor::DebugServer::start("127.0.0.1:0", move || svc2.introspect()).expect("bind loopback");
    let addr = server.local_addr();
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    conn.write_all(b"GET /stats HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200"), "{response}");
    let body = response.split_once("\r\n\r\n").expect("http header/body").1;
    assert_eq!(body, svc.introspect().to_json());
    assert!(body.contains("\"tenant\":\"t-b\""));
}
