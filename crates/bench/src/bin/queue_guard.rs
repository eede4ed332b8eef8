//! Perf-regression guard for the async kernel queue.
//!
//! Three scenarios, each guarded at [`MAX_RATIO`]× its baseline and
//! recorded to `target/bench/BENCH_queue.json` (mirroring
//! `shotsched_guard`); the guard **exits non-zero** on any regression:
//!
//! 1. **Saturation** — many more submissions than queue capacity, so
//!    submitters block: per-task queue overhead. Also sanity-checks the
//!    backpressure contract (peak queue occupancy never exceeds capacity;
//!    every submission runs).
//! 2. **Join-heavy** — driver tasks that spawn sibling tasks on the same
//!    service and `wait()` on them **in-task**: the work-conserving join
//!    path. Before it existed this shape deadlocked outright; the guard
//!    keeps its overhead (helping drain vs. plain inline execution)
//!    within the same budget.
//! 3. **Adversarial tenant** — 1 flooder pre-loads a deep backlog while 4
//!    polite tenants run sequential submit→join loops. Per-tenant round
//!    robin must keep the polite p99 join latency within
//!    [`MAX_RATIO`]× the no-flooder baseline (FIFO would multiply it by
//!    the flooder's whole backlog). The scenario also checks the live
//!    introspection endpoint: per-tenant gauges must sum to the
//!    `ServiceStats` identity, and the debug listener must serve the same
//!    snapshot over HTTP.
//!
//! ```text
//! cargo run -p qcor-bench --release --bin queue_guard
//! ```

use qcor::{DebugServer, ExecServiceConfig, ExecutionService, InitOptions, Kernel};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TASKS: usize = 96;
const SHOTS: usize = 256;
const CAPACITY: usize = 8;
const SERVICE_THREADS: usize = 2;
const MAX_RATIO: f64 = 5.0;

// Join-heavy scenario: DRIVERS outer tasks × SIBLINGS in-task joins each.
// DRIVERS exceeds the service's permit budget (threads − 1), so without
// the work-conserving join the drivers alone would exhaust every executor
// slot and deadlock.
const DRIVERS: usize = 12;
const SIBLINGS: usize = 4;
const JOIN_SHOTS: usize = 64;

// Adversarial-tenant scenario: POLITE_TENANTS polite sessions doing
// POLITE_OPS sequential submit→join cycles each, against one flooder that
// pre-loads FLOOD_TASKS identical tasks. Round robin owes the flooder
// exactly a 1-in-5 share: a polite join waits one round of tenants, never
// the flooder's backlog.
const POLITE_TENANTS: usize = 4;
const POLITE_OPS: usize = 24;
const POLITE_SHOTS: usize = 64;
const FLOOD_TASKS: usize = 200;
const FAIR_CAPACITY: usize = 512;
/// Latency floor for the fairness ratio: sub-500µs baselines are
/// scheduler noise, and dividing by them turns jitter into failures.
const FAIR_FLOOR: Duration = Duration::from_micros(500);

const BELL: &str = "H(q[0]); CX(q[0], q[1]); Measure(q[0]); Measure(q[1]);";

fn bell_task_with(shots: usize, seed: u64) -> usize {
    qcor::initialize(InitOptions::default().threads(1).shots(shots).seed(seed)).unwrap();
    let q = qcor::qalloc(2);
    Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
    let shots = q.total_shots();
    qcor::QPUManager::instance().clear_current();
    shots
}

fn bell_task(seed: u64) -> usize {
    bell_task_with(SHOTS, seed)
}

/// The join-heavy scenario: every driver task submits `SIBLINGS` bell
/// tasks to the same service and joins them from inside its own task
/// body (the work-conserving join path).
fn run_join_scenario(svc: &Arc<ExecutionService>) -> usize {
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let inner = Arc::clone(svc);
            svc.submit(move || {
                let siblings: Vec<_> = (0..SIBLINGS)
                    .map(|s| {
                        inner
                            .submit(move || bell_task_with(JOIN_SHOTS, (d * SIBLINGS + s) as u64))
                            .expect("the service is running")
                    })
                    .collect();
                siblings.into_iter().map(|f| f.get()).sum::<usize>()
            })
            .expect("the service is running")
        })
        .collect();
    drivers.into_iter().map(|f| f.get()).sum()
}

fn fair_service() -> Arc<ExecutionService> {
    Arc::new(ExecutionService::new(
        ExecServiceConfig::default().threads(SERVICE_THREADS).capacity(FAIR_CAPACITY),
    ))
}

/// One polite tenant's session: `POLITE_OPS` sequential submit→join
/// cycles from this thread under its own tenant, returning each cycle's
/// wall latency.
fn polite_session(svc: Arc<ExecutionService>, tenant: usize) -> Vec<Duration> {
    qcor::set_thread_tenant(Some(&format!("polite-{tenant}")));
    (0..POLITE_OPS)
        .map(|op| {
            let seed = (tenant * POLITE_OPS + op) as u64;
            let start = Instant::now();
            let f = svc.submit(move || bell_task_with(POLITE_SHOTS, seed)).expect("the service is running");
            assert_eq!(f.get(), POLITE_SHOTS);
            start.elapsed()
        })
        .collect()
}

/// Run the polite sessions concurrently (optionally against a pre-loaded
/// flooder backlog) and return the per-tenant latency series.
fn run_fairness_phase(svc: &Arc<ExecutionService>, with_flooder: bool) -> Vec<Vec<Duration>> {
    let flood: Vec<_> = if with_flooder {
        qcor::set_thread_tenant(Some("flooder"));
        let flood = (0..FLOOD_TASKS)
            .map(|i| {
                let seed = 50_000 + i as u64;
                svc.submit(move || bell_task_with(POLITE_SHOTS, seed)).expect("the service is running")
            })
            .collect();
        qcor::set_thread_tenant(None);
        flood
    } else {
        Vec::new()
    };
    let sessions: Vec<_> = (0..POLITE_TENANTS)
        .map(|tenant| {
            let svc = Arc::clone(svc);
            std::thread::spawn(move || polite_session(svc, tenant))
        })
        .collect();
    let latencies: Vec<Vec<Duration>> =
        sessions.into_iter().map(|h| h.join().expect("polite session panicked")).collect();
    let flooded: usize = flood.into_iter().map(|f| f.get()).sum();
    if with_flooder {
        assert_eq!(flooded, FLOOD_TASKS * POLITE_SHOTS);
    }
    latencies
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * p).ceil() as usize).saturating_sub(1);
    sorted[rank.min(sorted.len() - 1)]
}

/// Assert the introspection identity: per-tenant gauges sum to the
/// `ServiceStats` totals and every tenant satisfies
/// `submitted == completed + running + queued + cancelled`.
fn assert_introspection_identity(svc: &ExecutionService) {
    let snap = svc.introspect();
    let s = &snap.stats;
    assert_eq!(
        s.submitted,
        s.completed + s.running + s.queue_len + s.cancelled,
        "ServiceStats identity broken: {s:?}"
    );
    let sum = |f: fn(&qcor::TenantStats) -> usize| snap.tenants.iter().map(f).sum::<usize>();
    assert_eq!(sum(|t| t.submitted), s.submitted, "tenant `submitted` gauges do not sum");
    assert_eq!(sum(|t| t.completed), s.completed, "tenant `completed` gauges do not sum");
    assert_eq!(sum(|t| t.cancelled), s.cancelled, "tenant `cancelled` gauges do not sum");
    for t in &snap.tenants {
        assert_eq!(
            t.submitted,
            t.completed + t.running + t.queued + t.cancelled,
            "identity broken for tenant {}",
            t.tenant
        );
    }
}

/// Fetch `/stats` from a throwaway debug listener bound to this service
/// and check it serves the introspection JSON.
fn assert_debug_endpoint_serves(svc: &Arc<ExecutionService>) {
    use std::io::{Read, Write};
    let provider = Arc::clone(svc);
    let server = DebugServer::start("127.0.0.1:0", move || provider.introspect())
        .expect("failed to bind the debug listener on loopback");
    let mut conn =
        std::net::TcpStream::connect(server.local_addr()).expect("failed to connect to the debug listener");
    conn.write_all(b"GET /stats HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200"), "unexpected debug response: {response}");
    let body = response.split_once("\r\n\r\n").expect("missing HTTP body").1;
    for tenant in ["flooder", "polite-0", "polite-3"] {
        assert!(body.contains(&format!("\"tenant\":\"{tenant}\"")), "missing {tenant}: {body}");
    }
}

fn main() {
    // Baseline: the identical workload inline on one thread.
    let inline_start = Instant::now();
    let mut total = 0usize;
    for i in 0..TASKS {
        total += bell_task(i as u64);
    }
    assert_eq!(total, TASKS * SHOTS);
    let inline_time = inline_start.elapsed();

    // Queued: saturate a small bounded queue (capacity far below the task
    // count) so backpressure is actually exercised.
    let svc = ExecutionService::new(ExecServiceConfig::default().threads(SERVICE_THREADS).capacity(CAPACITY));
    let queued_start = Instant::now();
    let mut submit_latencies: Vec<Duration> = Vec::with_capacity(TASKS);
    let futures: Vec<_> = (0..TASKS)
        .map(|i| {
            let t = Instant::now();
            let f = svc.submit(move || bell_task(i as u64)).expect("the service is running");
            submit_latencies.push(t.elapsed());
            f
        })
        .collect();
    let total: usize = futures.into_iter().map(|f| f.get()).sum();
    assert_eq!(total, TASKS * SHOTS);
    let queued_time = queued_start.elapsed();

    let stats = svc.stats();
    assert_eq!(stats.submitted, TASKS);
    assert_eq!(stats.completed, TASKS);
    assert!(
        stats.peak_queue_len <= CAPACITY,
        "backpressure violated: peak queue {} > capacity {CAPACITY}",
        stats.peak_queue_len
    );

    submit_latencies.sort_unstable();
    let p50 = submit_latencies[TASKS / 2];
    let max = *submit_latencies.last().unwrap();
    let throughput = TASKS as f64 / queued_time.as_secs_f64();
    let ratio = queued_time.as_secs_f64() / inline_time.as_secs_f64();

    // Join-heavy scenario: inline baseline first (identical work, no
    // service), then the in-task-join version on a fresh small service.
    let join_inline_start = Instant::now();
    let mut join_total = 0usize;
    for d in 0..DRIVERS {
        for s in 0..SIBLINGS {
            join_total += bell_task_with(JOIN_SHOTS, (d * SIBLINGS + s) as u64);
        }
    }
    assert_eq!(join_total, DRIVERS * SIBLINGS * JOIN_SHOTS);
    let join_inline_time = join_inline_start.elapsed();

    let join_svc = Arc::new(ExecutionService::new(
        ExecServiceConfig::default().threads(SERVICE_THREADS).capacity(CAPACITY),
    ));
    assert!(
        DRIVERS > join_svc.permit_budget(),
        "the join scenario must oversubscribe the permit budget to prove work conservation"
    );
    let join_start = Instant::now();
    let join_total = run_join_scenario(&join_svc);
    assert_eq!(join_total, DRIVERS * SIBLINGS * JOIN_SHOTS);
    let join_time = join_start.elapsed();
    let join_stats = join_svc.stats();
    assert_eq!(join_stats.completed, DRIVERS * (SIBLINGS + 1), "every driver and sibling must run");
    let join_ratio = join_time.as_secs_f64() / join_inline_time.as_secs_f64();

    // Adversarial-tenant scenario: the no-flooder baseline and the flooded
    // run use identically configured fresh services.
    let baseline_svc = fair_service();
    let baseline_latencies = run_fairness_phase(&baseline_svc, false);
    baseline_svc.drain();
    assert_introspection_identity(&baseline_svc);

    let flooded_svc = fair_service();
    let flooded_latencies = run_fairness_phase(&flooded_svc, true);
    flooded_svc.drain();
    assert_introspection_identity(&flooded_svc);
    assert_debug_endpoint_serves(&flooded_svc);
    let fair_stats = flooded_svc.stats();
    assert_eq!(fair_stats.completed, FLOOD_TASKS + POLITE_TENANTS * POLITE_OPS);

    let mut baseline_all: Vec<Duration> = baseline_latencies.iter().flatten().copied().collect();
    let mut flooded_all: Vec<Duration> = flooded_latencies.iter().flatten().copied().collect();
    baseline_all.sort_unstable();
    flooded_all.sort_unstable();
    let baseline_p99 = percentile(&baseline_all, 0.99);
    let flooded_p99 = percentile(&flooded_all, 0.99);
    let fair_ratio = flooded_p99.as_secs_f64() / baseline_p99.max(FAIR_FLOOR).as_secs_f64();

    // Per-tenant latency rows for the JSON artifact.
    let mut tenant_rows = String::new();
    for tenant in 0..POLITE_TENANTS {
        let mut baseline = baseline_latencies[tenant].clone();
        let mut flooded = flooded_latencies[tenant].clone();
        baseline.sort_unstable();
        flooded.sort_unstable();
        tenant_rows.push_str(&format!(
            "    {{ \"tenant\": \"polite-{tenant}\", \"ops\": {POLITE_OPS}, \
             \"baseline_p50_ns\": {:.1}, \"baseline_p99_ns\": {:.1}, \
             \"flooded_p50_ns\": {:.1}, \"flooded_p99_ns\": {:.1} }}{}\n",
            percentile(&baseline, 0.50).as_secs_f64() * 1e9,
            percentile(&baseline, 0.99).as_secs_f64() * 1e9,
            percentile(&flooded, 0.50).as_secs_f64() * 1e9,
            percentile(&flooded, 0.99).as_secs_f64() * 1e9,
            if tenant + 1 == POLITE_TENANTS { "" } else { "," },
        ));
    }

    let json = format!(
        "{{\n  \"meta\": {{\n    \"command\": \"cargo run -p qcor-bench --release --bin queue_guard\",\n    \
         \"logical_cpus\": {},\n    \
         \"workload\": \"{TASKS} bell tasks x {SHOTS} shots, service threads={SERVICE_THREADS}, capacity={CAPACITY}\",\n    \
         \"join_workload\": \"{DRIVERS} driver tasks x {SIBLINGS} in-task sibling joins x {JOIN_SHOTS} shots (work-conserving join; deadlocked pre-fix)\",\n    \
         \"fair_workload\": \"{POLITE_TENANTS} polite tenants x {POLITE_OPS} submit-join ops vs 1 flooder x {FLOOD_TASKS} tasks, all x {POLITE_SHOTS} shots (per-tenant round robin)\",\n    \
         \"guard\": \"fail if queued, join-scenario, or flooded-p99 ratio exceeds {MAX_RATIO} (fairness baseline floored at {} ns)\",\n    \
         \"note\": \"async kernel-queue overhead guard; submit latency includes time blocked by backpressure\"\n  }},\n  \
         \"ratio_queued_over_inline\": {ratio:.3},\n  \
         \"ratio_join_over_inline\": {join_ratio:.3},\n  \
         \"ratio_flooded_p99_over_baseline\": {fair_ratio:.3},\n  \
         \"throughput_tasks_per_sec\": {throughput:.1},\n  \
         \"inline_wall_ns\": {:.1},\n  \
         \"queued_wall_ns\": {:.1},\n  \
         \"join_inline_wall_ns\": {:.1},\n  \
         \"join_queued_wall_ns\": {:.1},\n  \
         \"submit_latency_p50_ns\": {:.1},\n  \
         \"submit_latency_max_ns\": {:.1},\n  \
         \"polite_baseline_p99_ns\": {:.1},\n  \
         \"polite_flooded_p99_ns\": {:.1},\n  \
         \"tenants\": [\n{tenant_rows}  ],\n  \
         \"peak_queue_len\": {},\n  \"capacity\": {CAPACITY}\n}}\n",
        qcor_pool::available_parallelism(),
        FAIR_FLOOR.as_nanos(),
        inline_time.as_secs_f64() * 1e9,
        queued_time.as_secs_f64() * 1e9,
        join_inline_time.as_secs_f64() * 1e9,
        join_time.as_secs_f64() * 1e9,
        p50.as_secs_f64() * 1e9,
        max.as_secs_f64() * 1e9,
        baseline_p99.as_secs_f64() * 1e9,
        flooded_p99.as_secs_f64() * 1e9,
        stats.peak_queue_len,
    );
    let recorded = qcor_bench::write_guard_record("BENCH_queue.json", &json);

    println!("inline  {TASKS} tasks: {:>10.1} us", inline_time.as_secs_f64() * 1e6);
    println!(
        "queued  {TASKS} tasks: {:>10.1} us  ({throughput:.0} tasks/s)",
        queued_time.as_secs_f64() * 1e6
    );
    println!(
        "submit latency p50 {:.1} us, max {:.1} us (includes backpressure blocking)",
        p50.as_secs_f64() * 1e6,
        max.as_secs_f64() * 1e6
    );
    println!("peak queue {} / capacity {CAPACITY}", stats.peak_queue_len);
    println!(
        "join    {DRIVERS}x{SIBLINGS} in-task joins: inline {:>10.1} us, queued {:>10.1} us",
        join_inline_time.as_secs_f64() * 1e6,
        join_time.as_secs_f64() * 1e6
    );
    println!(
        "fair    polite p99: baseline {:>10.1} us, flooded {:>10.1} us  ({FLOOD_TASKS}-task flooder)",
        baseline_p99.as_secs_f64() * 1e6,
        flooded_p99.as_secs_f64() * 1e6
    );
    qcor_bench::enforce_guard_ratio("queued / inline", ratio, MAX_RATIO, &recorded);
    qcor_bench::enforce_guard_ratio("join-scenario / inline", join_ratio, MAX_RATIO, &recorded);
    qcor_bench::enforce_guard_ratio("flooded polite p99 / baseline", fair_ratio, MAX_RATIO, &recorded);
}
