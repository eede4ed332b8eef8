//! Integration tests for the async execution service (bounded kernel
//! queue + backpressure) and QPUManager multi-backend routing.
//!
//! The routing tests rotate the QPUManager's process-wide shared cursor;
//! a static lock serializes them within this binary so the exact-balance
//! assertions aren't perturbed by each other.

use qcor::{
    initialize, qalloc, BackendCapability, BackpressurePolicy, ExecServiceConfig, ExecutionService,
    InitOptions, Kernel, QPUManager, QcorError, TaskFuture, TaskPriority,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

fn route_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|poison| poison.into_inner())
}

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

/// The ISSUE's saturation acceptance test: queue capacity K, block policy,
/// far more than K in-flight submissions — the queue never exceeds K and
/// the number of distinct executing threads never exceeds the pool size.
#[test]
fn saturation_respects_capacity_and_thread_budget() {
    const K: usize = 4;
    const TASKS: usize = 64;
    let svc = Arc::new(ExecutionService::new(
        ExecServiceConfig::default().threads(3).capacity(K).policy(BackpressurePolicy::Block),
    ));
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
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.shed, 0);
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

/// Reject policy: a full queue returns `QueueFull` instead of dropping
/// work silently — and everything that *was* admitted still runs.
#[test]
fn reject_policy_errors_instead_of_dropping() {
    let svc = ExecutionService::new(
        ExecServiceConfig::default().threads(2).capacity(2).policy(BackpressurePolicy::Reject),
    );
    let gate = Arc::new(AtomicBool::new(false));
    let g = Arc::clone(&gate);
    let blocker = svc
        .submit(move || {
            while !g.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        })
        .unwrap();

    // Admitted futures must all complete; rejections must be visible.
    let mut admitted = Vec::new();
    let mut rejections = 0usize;
    for i in 0..200usize {
        match svc.submit(move || i) {
            Ok(f) => admitted.push((i, f)),
            Err(QcorError::QueueFull) => rejections += 1,
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert!(rejections > 0, "200 instant submissions against capacity 2 must overflow");
    assert_eq!(svc.stats().rejected, rejections);

    gate.store(true, Ordering::Release);
    blocker.get();
    for (i, f) in admitted {
        assert_eq!(f.get(), i, "admitted work must never be dropped");
    }
}

/// Shed-oldest policy: over-submission resolves the oldest queued future
/// as `TaskShed` (observable, not silent) while the newest work runs.
#[test]
fn shed_oldest_policy_is_observable_and_keeps_newest() {
    let svc = ExecutionService::new(
        ExecServiceConfig::default().threads(2).capacity(1).policy(BackpressurePolicy::ShedOldest),
    );
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

    let first = svc.submit(|| "first").unwrap();
    let second = svc.submit(|| "second").unwrap(); // sheds `first`
    assert_eq!(first.wait(), Err(QcorError::TaskShed));
    gate.store(true, Ordering::Release);
    blocker.get();
    assert_eq!(second.wait(), Ok("second"));
    let stats = svc.stats();
    assert_eq!((stats.shed, stats.rejected), (1, 0));
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
// Work-conserving joins, cancellation, deadlines, priority lanes
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
                sibling.wait().expect("Block-admitted sibling cannot fail") + 1
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
    assert_eq!(stats.shed + stats.cancelled + stats.expired, 0);
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

/// A task whose deadline lapses while queued resolves as shed (the
/// existing shed path), never runs, and ticks the `expired` counter.
#[test]
fn expired_deadline_feeds_the_shed_path() {
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
    let ran = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&ran);
    let doomed =
        svc.submit_with_deadline(Duration::from_millis(1), move || r.store(true, Ordering::Release)).unwrap();
    let kept = svc.submit_with_deadline(Duration::from_secs(600), || 5usize).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    gate.store(true, Ordering::Release);
    blocker.get();
    assert_eq!(doomed.wait(), Err(QcorError::TaskShed), "expired deadlines resolve through the shed path");
    assert_eq!(kept.wait(), Ok(5), "an unexpired deadline runs normally");
    svc.drain();
    assert!(!ran.load(Ordering::Acquire), "expired tasks must never run");
    let stats = svc.stats();
    assert_eq!((stats.expired, stats.completed), (1, 2));
}

/// High-lane tasks dispatch before queued normal-lane tasks (FIFO within
/// each lane), and the lane-depth gauges are observable.
#[test]
fn priority_lane_dispatches_first_and_is_observable() {
    let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(16));
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
    let order = Arc::new(Mutex::new(Vec::new()));
    let mut futures = Vec::new();
    for (priority, name) in [
        (TaskPriority::Normal, "n1"),
        (TaskPriority::Normal, "n2"),
        (TaskPriority::High, "h1"),
        (TaskPriority::High, "h2"),
    ] {
        let order = Arc::clone(&order);
        futures.push(svc.submit_prioritized(priority, move || order.lock().unwrap().push(name)).unwrap());
    }
    let stats = svc.stats();
    assert_eq!((stats.high_queue_len, stats.normal_queue_len, stats.queue_len), (2, 2, 4));
    gate.store(true, Ordering::Release);
    blocker.get();
    for f in futures {
        f.get();
    }
    // One permit (threads=2) ⇒ deterministic dispatch order.
    assert_eq!(*order.lock().unwrap(), vec!["h1", "h2", "n1", "n2"]);
}

/// Shed-oldest victimizes the normal lane before the high lane, even when
/// the high task is older.
#[test]
fn shed_oldest_prefers_normal_lane_victims() {
    let svc = ExecutionService::new(
        ExecServiceConfig::default().threads(2).capacity(2).policy(BackpressurePolicy::ShedOldest),
    );
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
    let high_first = svc.submit_prioritized(TaskPriority::High, || "high").unwrap();
    let normal_victim = svc.submit(|| "normal").unwrap();
    let newcomer = svc.submit(|| "newcomer").unwrap(); // over capacity: sheds the normal task
    assert_eq!(normal_victim.wait(), Err(QcorError::TaskShed));
    gate.store(true, Ordering::Release);
    blocker.get();
    assert_eq!(high_first.wait(), Ok("high"));
    assert_eq!(newcomer.wait(), Ok("newcomer"));
    assert_eq!(svc.stats().shed, 1);
}

// ---------------------------------------------------------------------------
// QPUManager routing
// ---------------------------------------------------------------------------

/// Concurrent initializations under a shared round-robin policy split
/// exactly evenly across the named backends (the shared-cursor contract).
#[test]
fn round_robin_routing_balances_concurrent_registrations() {
    let _guard = route_lock();
    let names: Vec<String> = (0..8)
        .map(|_| {
            std::thread::spawn(|| {
                initialize(
                    InitOptions::default()
                        .threads(1)
                        .shots(8)
                        .seed(1)
                        .route_round_robin(["qpp", "qpp-density"]),
                )
                .unwrap();
                let name = QPUManager::instance().get_qpu().unwrap().qpu.name();
                QPUManager::instance().clear_current();
                name
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();
    let qpp = names.iter().filter(|n| *n == "qpp").count();
    let density = names.iter().filter(|n| *n == "qpp-density").count();
    assert_eq!((qpp, density), (4, 4), "shared cursor must balance exactly: {names:?}");
}

/// Capability routing resolves to the matching backend, and the routed
/// backend actually executes kernels (noisy counts can leak outside the
/// Bell subspace; remote reports its latency class).
#[test]
fn capability_routing_selects_and_executes() {
    let _guard = route_lock();
    std::thread::spawn(|| {
        initialize(
            InitOptions::default().threads(1).shots(128).seed(11).route_capability(BackendCapability::Noisy),
        )
        .unwrap();
        let ctx = QPUManager::instance().get_qpu().unwrap();
        assert_eq!(ctx.qpu.name(), "qpp-noisy");
        assert_eq!(ctx.qpu.capability(), BackendCapability::Noisy);
        let q = qalloc(2);
        Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
        assert_eq!(q.total_shots(), 128);
        QPUManager::instance().clear_current();
    })
    .join()
    .unwrap();
}

/// Params-driven routing (the `routing*` backend params) works through
/// `initialize` without touching the typed builder API.
#[test]
fn params_driven_routing_round_robins() {
    let _guard = route_lock();
    let names: Vec<String> = (0..4)
        .map(|_| {
            std::thread::spawn(|| {
                initialize(
                    InitOptions::default()
                        .threads(1)
                        .shots(8)
                        .seed(2)
                        .param("routing", "round-robin")
                        .param("routing-backends", "qpp,qpp-noisy"),
                )
                .unwrap();
                let name = QPUManager::instance().get_qpu().unwrap().qpu.name();
                QPUManager::instance().clear_current();
                name
            })
            .join()
            .unwrap()
        })
        .collect();
    assert_eq!(names.iter().filter(|n| *n == "qpp").count(), 2, "{names:?}");
    assert_eq!(names.iter().filter(|n| *n == "qpp-noisy").count(), 2, "{names:?}");
}

/// A mixed fleet: tasks spawned through the kernel queue with round-robin
/// routing land on alternating backends — one process serving
/// heterogeneous workloads with a bounded thread budget.
#[test]
fn queued_tasks_route_across_backends() {
    let _guard = route_lock();
    let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(8));
    let futures: Vec<_> = (0..6)
        .map(|i| {
            svc.submit(move || {
                initialize(
                    InitOptions::default()
                        .threads(1)
                        .shots(16)
                        .seed(i)
                        .route_round_robin(["qpp", "qpp-density"]),
                )
                .unwrap();
                let name = QPUManager::instance().get_qpu().unwrap().qpu.name();
                let q = qalloc(2);
                Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
                (name, q.total_shots())
            })
            .unwrap()
        })
        .collect();
    let results: Vec<(String, usize)> = futures.into_iter().map(|f| f.get()).collect();
    assert!(results.iter().all(|(_, shots)| *shots == 16));
    // threads(2) = serial FIFO executor, so the shared cursor alternates
    // deterministically.
    let qpp = results.iter().filter(|(n, _)| n == "qpp").count();
    assert_eq!(qpp, 3, "{results:?}");
}

/// Inheritance pins to the parent's **resolved** backend: a child task of
/// a round-robin-routed parent lands on the same backend class as the
/// parent instead of re-routing (which would advance the rotation and mix
/// backend types within one task family).
#[test]
fn spawned_tasks_inherit_resolved_backend_not_routing() {
    let _guard = route_lock();
    std::thread::spawn(|| {
        initialize(
            InitOptions::default().threads(1).shots(8).seed(3).route_round_robin(["qpp-density", "qpp"]),
        )
        .unwrap();
        let parent = QPUManager::instance().get_qpu().unwrap().qpu.name();
        let child_names: Vec<String> = (0..3)
            .map(|_| qcor::spawn(|| QPUManager::instance().get_qpu().unwrap().qpu.name()).get())
            .collect();
        assert!(
            child_names.iter().all(|n| *n == parent),
            "children must run on the parent's backend {parent}, got {child_names:?}"
        );
        QPUManager::instance().clear_current();
    })
    .join()
    .unwrap();
}

/// Inheritance replays the **registry key** the parent resolved, not the
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
        let (resolved, shots) = qcor::spawn(|| {
            let ctx = QPUManager::instance().get_qpu().unwrap();
            let q = qalloc(2);
            Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
            (ctx.resolved_backend, q.total_shots())
        })
        .get();
        assert_eq!(resolved, "alias-sim");
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
// Multi-tenant fair queuing, eager eviction, cooperative cancellation
// ---------------------------------------------------------------------------

/// Weighted shares under saturation at the service level: with a single
/// permit and both tenants backlogged, a weight-3 tenant drains at ~3× the
/// weight-1 flooder's rate, so its whole batch completes long before the
/// flooder's backlog does.
#[test]
fn weighted_tenants_share_the_permit_fairly() {
    // threads(2) = one dispatcher + one executor permit.
    let svc = ExecutionService::new(
        ExecServiceConfig::default().threads(2).capacity(256).tenant_weight("favored", 3.0),
    );
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
    for i in 0..48 {
        let log = Arc::clone(&log);
        futures.push(
            svc.submit_spec(qcor::TaskSpec::new().tenant("flooder"), move || {
                log.lock().unwrap().push(("flooder", i))
            })
            .unwrap(),
        );
    }
    for i in 0..12 {
        let log = Arc::clone(&log);
        futures.push(
            svc.submit_spec(qcor::TaskSpec::new().tenant("favored"), move || {
                log.lock().unwrap().push(("favored", i))
            })
            .unwrap(),
        );
    }
    gate.store(true, Ordering::Release);
    blocker.get();
    for f in futures {
        f.get();
    }
    let log = log.lock().unwrap();
    let last_favored = log.iter().rposition(|(t, _)| *t == "favored").unwrap();
    let flooder_before = log[..=last_favored].iter().filter(|(t, _)| *t == "flooder").count();
    // Ideal DRR interleave: ⌈12/3⌉ = 4 flooder pops before the favored
    // batch ends; leave slack but rule out anything close to FIFO (48).
    assert!(
        flooder_before <= 12,
        "favored tenant starved: {flooder_before}/48 flooder tasks finished before its batch"
    );
    let snap = svc.introspect();
    let favored = snap.tenants.iter().find(|t| t.tenant == "favored").unwrap();
    assert_eq!((favored.submitted, favored.completed), (12, 12));
    assert!((favored.weight - 3.0).abs() < f64::EPSILON);
}

/// Eager eviction never touches dispatched work: a task dispatched before
/// its deadline and still running when it fires completes normally, while
/// a queued sibling with the same deadline is evicted without a permit
/// ever freeing.
#[test]
fn eager_eviction_spares_dispatched_tasks_and_evicts_queued_ones() {
    // threads(2) = one dispatcher + one executor permit.
    let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(8));
    let release = Arc::new(AtomicBool::new(false));
    let r = Arc::clone(&release);
    // Dispatched immediately (idle permit), outlives its own deadline.
    let dispatched = svc
        .submit_with_deadline(Duration::from_millis(20), move || {
            while !r.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            99usize
        })
        .unwrap();
    while svc.stats().running == 0 {
        std::thread::yield_now();
    }
    // Queued behind the busy permit with the same deadline: evicted.
    let queued = svc.submit_with_deadline(Duration::from_millis(20), || 1usize).unwrap();
    let give_up = Instant::now() + Duration::from_secs(10);
    while svc.stats().expired == 0 {
        assert!(Instant::now() < give_up, "eager eviction never fired: {:?}", svc.stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    let mid = svc.stats();
    assert_eq!((mid.expired, mid.running, mid.queue_len), (1, 1, 0), "{mid:?}");
    assert_eq!(queued.wait(), Err(QcorError::TaskShed));
    release.store(true, Ordering::Release);
    assert_eq!(dispatched.wait(), Ok(99), "a dispatched task is past eviction");
    svc.drain();
    let stats = svc.stats();
    assert_eq!((stats.expired, stats.completed), (1, 1));
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
        for i in 0..n {
            futures.push(svc.submit_spec(qcor::TaskSpec::new().tenant(tenant), move || i * i).unwrap());
        }
    }
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
    assert_eq!(sum(|t| t.running) + sum(|t| t.shed) + sum(|t| t.cancelled) + sum(|t| t.expired), 0);
    for t in &snap.tenants {
        assert_eq!(
            t.submitted,
            t.completed + t.running + t.queued() + t.shed + t.cancelled + t.expired,
            "identity broken for tenant {}",
            t.tenant
        );
    }

    // The debug listener serves exactly what introspect() renders. The
    // backends section samples live global-registry load gauges that other
    // tests in this binary move concurrently, so compare the service-local
    // prefix (service config + stats + tenants) of both renders.
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
    let service_local = |json: &str| json.split("\"backends\"").next().unwrap().to_string();
    assert_eq!(service_local(body), service_local(&svc.introspect().to_json()));
    assert!(body.contains("\"tenant\":\"t-b\""));
}
