//! Timing guards: each test times one layer against its own baseline on
//! this host and fails when the ratio passes its bound. They measure wall
//! time, so they are ignored by default and meant for release builds, one
//! at a time:
//!
//! ```text
//! cargo test --release -p qcor-tests --test perf_guards -- --ignored --test-threads=1 --nocapture
//! ```
//!
//! CI runs that line under `QCOR_NUM_THREADS=1` and again under `4`. Each
//! guard prints its ratios (visible with `--nocapture`). The deterministic
//! facts the guards rely on (iteration counts, allocation counts, the
//! introspection identity) are ordinary tests next to the code they check.

use qcor::{ExecServiceConfig, ExecutionService, InitOptions, Kernel};
use qcor_circuit::{library, Circuit};
use qcor_pool::ThreadPool;
use qcor_sim::stats::{compile_cache_hits, compile_cache_misses};
use qcor_sim::{
    clear_compile_cache, compile_cached, run_once_interpreted, run_shots, CompiledCircuit, Counts, RunConfig,
    ShotPlan, ShotRecord, StateVector,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Best (minimum) wall time of `reps` runs of `f`.
fn best_of(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("at least one rep")
}

/// Print `ratio` against its bound and fail the test past it.
fn check(what: &str, ratio: f64, bound: f64) {
    println!("{what} = {ratio:.3} (bound {bound})");
    assert!(ratio <= bound, "{what} ratio {ratio:.3} exceeds its bound {bound}");
}

fn ratio(num: Duration, den: Duration) -> f64 {
    num.as_secs_f64() / den.as_secs_f64()
}

/// Merged counts of `shots` shots on one RNG stream seeded with `seed`,
/// each run by `shot` on a `num_qubits` state reset in between. Any two
/// executors that draw from the stream in program order (the compiled
/// replay, the interpreter) merge identical counts here.
fn seeded_counts(
    num_qubits: usize,
    shots: usize,
    seed: u64,
    mut shot: impl FnMut(&mut StateVector, &mut StdRng) -> ShotRecord,
) -> Counts {
    let mut state = StateVector::new(num_qubits);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = Counts::new();
    for i in 0..shots {
        if i > 0 {
            state.reset_to_zero();
        }
        *counts.entry(shot(&mut state, &mut rng).bitstring()).or_insert(0) += 1;
    }
    counts
}

// ---------------------------------------------------------------------------
// shotsched: the batched shot scheduler keeps a 2-thread pool within 5× of
// a 1-thread pool on the 4-amplitude Bell kernel. Before the scheduler the
// 2-thread pool paid a fork/join on every 4-amplitude loop (~100×).

/// Bound on `bell_kernel/shots512/2 ÷ /1`.
const SHOTSCHED_MAX_RATIO: f64 = 5.0;

#[test]
#[ignore = "timing guard: CI runs it in release"]
fn shotsched() {
    const SHOTS: usize = 512;
    const REPS: usize = 11;
    let circuit = library::bell_kernel();
    let config = RunConfig { shots: SHOTS, seed: Some(1), ..RunConfig::default() };
    let time_on = |threads: usize| {
        let pool = Arc::new(ThreadPool::new(threads));
        run_shots(&circuit, Arc::clone(&pool), &config); // warm-up
        best_of(REPS, || {
            let counts = run_shots(&circuit, Arc::clone(&pool), &config);
            assert_eq!(counts.values().sum::<usize>(), SHOTS);
        })
    };
    let (t1, t2) = (time_on(1), time_on(2));
    // The shot-parallel plan must sample every shot on both team sizes.
    for tasks in [1usize, 2] {
        let plan = ShotPlan::for_tasks(&circuit, &config, tasks);
        let counts = plan.execute(&circuit, Arc::new(ThreadPool::new(tasks)), &config, None, None).counts;
        assert_eq!(counts.values().sum::<usize>(), SHOTS);
    }
    println!("bell_kernel/shots512/1 {:.1} us, /2 {:.1} us", t1.as_secs_f64() * 1e6, t2.as_secs_f64() * 1e6);
    check("shots512/2 / shots512/1", ratio(t2, t1), SHOTSCHED_MAX_RATIO);
}

// ---------------------------------------------------------------------------
// queue: the execution service's overhead in three scenarios, each within
// 5× of its baseline.
//
// 1. Saturation: far more submissions than queue capacity, so submitters
//    block; queued ÷ the same work inline.
// 2. In-task join: driver tasks spawn siblings on the same service and
//    join them from inside their own body (the work-conserving join);
//    queued ÷ the same work inline.
// 3. Flooded tenant: one flooder pre-loads 200 tasks while 4 polite
//    tenants run submit→join loops; per-tenant round robin keeps the
//    polite p99 within 5× of the no-flooder run.

/// Bound on each queue scenario's ratio.
const QUEUE_MAX_RATIO: f64 = 5.0;
/// Latency floor for the fairness ratio: sub-500 µs baselines are
/// scheduler noise, and dividing by them turns jitter into failures.
const FAIR_FLOOR: Duration = Duration::from_micros(500);

const QUEUE_SERVICE_THREADS: usize = 2;
const QUEUE_CAPACITY: usize = 8;
const BELL: &str = "H(q[0]); CX(q[0], q[1]); Measure(q[0]); Measure(q[1]);";

fn bell_task(shots: usize, seed: u64) -> usize {
    qcor::initialize(InitOptions::default().threads(1).shots(shots).seed(seed)).unwrap();
    let q = qcor::qalloc(2);
    Kernel::from_xasm(BELL, 2).unwrap().invoke(&q, &[]).unwrap();
    let shots = q.total_shots();
    qcor::QPUManager::instance().clear_current();
    shots
}

fn small_service() -> ExecutionService {
    ExecutionService::new(
        ExecServiceConfig::default().threads(QUEUE_SERVICE_THREADS).capacity(QUEUE_CAPACITY),
    )
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let rank = ((sorted.len() as f64 * p).ceil() as usize).saturating_sub(1);
    sorted[rank.min(sorted.len() - 1)]
}

/// Polite tenants' submit→join latencies, sorted, optionally against a
/// flooder that pre-loads a backlog on the same service.
fn polite_latencies(with_flooder: bool) -> Vec<Duration> {
    const POLITE_TENANTS: usize = 4;
    const POLITE_OPS: usize = 24;
    const POLITE_SHOTS: usize = 64;
    const FLOOD_TASKS: usize = 200;
    let svc = Arc::new(ExecutionService::new(
        ExecServiceConfig::default().threads(QUEUE_SERVICE_THREADS).capacity(512),
    ));
    let flood: Vec<_> = if with_flooder {
        qcor::set_thread_tenant(Some("flooder"));
        let flood = (0..FLOOD_TASKS)
            .map(|i| svc.submit(move || bell_task(POLITE_SHOTS, 50_000 + i as u64)).unwrap())
            .collect();
        qcor::set_thread_tenant(None);
        flood
    } else {
        Vec::new()
    };
    let sessions: Vec<_> = (0..POLITE_TENANTS)
        .map(|tenant| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                qcor::set_thread_tenant(Some(&format!("polite-{tenant}")));
                (0..POLITE_OPS)
                    .map(|op| {
                        let seed = (tenant * POLITE_OPS + op) as u64;
                        let start = Instant::now();
                        assert_eq!(
                            svc.submit(move || bell_task(POLITE_SHOTS, seed)).unwrap().get(),
                            POLITE_SHOTS
                        );
                        start.elapsed()
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut latencies: Vec<Duration> = sessions.into_iter().flat_map(|h| h.join().unwrap()).collect();
    assert_eq!(
        flood.into_iter().map(|f| f.get()).sum::<usize>(),
        FLOOD_TASKS * POLITE_SHOTS * with_flooder as usize
    );
    svc.drain();
    let expected = POLITE_TENANTS * POLITE_OPS + if with_flooder { FLOOD_TASKS } else { 0 };
    assert_eq!(svc.stats().completed, expected);
    latencies.sort_unstable();
    latencies
}

#[test]
#[ignore = "timing guard: CI runs it in release"]
fn queue() {
    const TASKS: usize = 96;
    const SHOTS: usize = 256;
    const DRIVERS: usize = 12;
    const SIBLINGS: usize = 4;
    const JOIN_SHOTS: usize = 64;

    // 1. Saturation.
    let start = Instant::now();
    assert_eq!((0..TASKS).map(|i| bell_task(SHOTS, i as u64)).sum::<usize>(), TASKS * SHOTS);
    let inline = start.elapsed();
    let svc = small_service();
    let start = Instant::now();
    let futures: Vec<_> =
        (0..TASKS).map(|i| svc.submit(move || bell_task(SHOTS, i as u64)).unwrap()).collect();
    assert_eq!(futures.into_iter().map(|f| f.get()).sum::<usize>(), TASKS * SHOTS);
    let queued = start.elapsed();
    let stats = svc.stats();
    assert_eq!((stats.submitted, stats.completed), (TASKS, TASKS));
    assert!(
        stats.peak_queue_len <= QUEUE_CAPACITY,
        "backpressure violated: peak queue {}",
        stats.peak_queue_len
    );

    // 2. In-task join. The drivers alone exceed the permit budget, so
    // without the work-conserving join they would deadlock.
    let start = Instant::now();
    let join_inline_total: usize = (0..DRIVERS * SIBLINGS).map(|i| bell_task(JOIN_SHOTS, i as u64)).sum();
    assert_eq!(join_inline_total, DRIVERS * SIBLINGS * JOIN_SHOTS);
    let join_inline = start.elapsed();
    let join_svc = Arc::new(small_service());
    assert!(DRIVERS > join_svc.permit_budget(), "the join scenario must oversubscribe the permit budget");
    let start = Instant::now();
    let drivers: Vec<_> = (0..DRIVERS)
        .map(|d| {
            let inner = Arc::clone(&join_svc);
            join_svc
                .submit(move || {
                    let siblings: Vec<_> = (0..SIBLINGS)
                        .map(|s| {
                            inner.submit(move || bell_task(JOIN_SHOTS, (d * SIBLINGS + s) as u64)).unwrap()
                        })
                        .collect();
                    siblings.into_iter().map(|f| f.get()).sum::<usize>()
                })
                .unwrap()
        })
        .collect();
    assert_eq!(drivers.into_iter().map(|f| f.get()).sum::<usize>(), DRIVERS * SIBLINGS * JOIN_SHOTS);
    let join_queued = start.elapsed();
    assert_eq!(join_svc.stats().completed, DRIVERS * (SIBLINGS + 1), "every driver and sibling must run");

    // 3. Flooded tenant.
    let baseline_p99 = percentile(&polite_latencies(false), 0.99);
    let flooded_p99 = percentile(&polite_latencies(true), 0.99);

    println!(
        "inline {:.1} ms, queued {:.1} ms; join inline {:.1} ms, queued {:.1} ms; polite p99 {:.1} us -> {:.1} us",
        inline.as_secs_f64() * 1e3,
        queued.as_secs_f64() * 1e3,
        join_inline.as_secs_f64() * 1e3,
        join_queued.as_secs_f64() * 1e3,
        baseline_p99.as_secs_f64() * 1e6,
        flooded_p99.as_secs_f64() * 1e6,
    );
    check("queued / inline", ratio(queued, inline), QUEUE_MAX_RATIO);
    check("in-task join / inline", ratio(join_queued, join_inline), QUEUE_MAX_RATIO);
    check("flooded polite p99 / baseline", ratio(flooded_p99, baseline_p99.max(FAIR_FLOOR)), QUEUE_MAX_RATIO);
}

// ---------------------------------------------------------------------------
// gatefuse: compile-then-execute (gate fusion and control-aware kernels)
// never loses to the interpreter over the same seeded shots, and on a deep
// 20-qubit kernel whose single-qubit runs fuse into `Dense2` blocks it runs
// at ≤ 0.43× the interpreted time.

/// Bound on compiled (compile included) ÷ interpreted, 10-qubit kernel.
const GATEFUSE_MAX_RATIO: f64 = 1.0;
/// Bound on compiled ÷ interpreted replay of the deep 20-qubit kernel.
const GATEFUSE_MAX_DEEP_RATIO: f64 = 0.43;

/// GHZ preparation, then CX-heavy layers interleaved with fusable
/// single-qubit runs and phase sweeps.
fn gatefuse_kernel(qubits: usize) -> Circuit {
    let mut c = Circuit::new(qubits);
    c.h(0);
    for q in 0..qubits - 1 {
        c.cx(q, q + 1);
    }
    for layer in 0..3 {
        for q in 0..qubits {
            c.t(q).h(q).s(q).h(q).tdg(q).rz(q, 0.11 * (layer + 1) as f64);
        }
        for q in 0..qubits - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..qubits - 2 {
            c.cz(q, q + 2);
        }
    }
    c.measure_all();
    c
}

/// 20 qubits (past the cache-blocking threshold): a GHZ skeleton plus
/// layers of 8-gate single-qubit runs that fuse and pair into `Dense2`
/// blocks, between CX chains and CZ layers. No terminal measurement, so
/// the ratio times the replay alone.
fn gatefuse_deep_kernel(qubits: usize) -> Circuit {
    let mut c = Circuit::new(qubits);
    c.h(0);
    for q in 0..qubits - 1 {
        c.cx(q, q + 1);
    }
    for layer in 0..2 {
        let theta = 0.07 * (layer + 1) as f64;
        for q in 0..qubits {
            c.t(q).h(q).s(q).rx(q, theta).h(q).tdg(q).ry(q, 1.3 * theta).rz(q, theta);
        }
        for q in 0..qubits - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..qubits - 2 {
            c.cz(q, q + 2);
        }
    }
    c
}

#[test]
#[ignore = "timing guard: CI runs it in release"]
fn gatefuse() {
    const QUBITS: usize = 10;
    const SHOTS: usize = 96;
    const REPS: usize = 7;
    const DEEP_QUBITS: usize = 20;
    const DEEP_REPS: usize = 3;

    let circuit = gatefuse_kernel(QUBITS);
    let compiled = CompiledCircuit::compile(&circuit);
    assert!(compiled.len() < compiled.source_len(), "fusion must shrink the guard kernel");
    let interpret =
        || seeded_counts(QUBITS, SHOTS, 1, |state, rng| run_once_interpreted(state, &circuit, rng));
    let expected = interpret(); // warm-up and reference counts
    let interpreted = best_of(REPS, || assert_eq!(interpret().values().sum::<usize>(), SHOTS));
    let fused = best_of(REPS, || {
        let compiled = CompiledCircuit::compile(&circuit);
        let counts = seeded_counts(QUBITS, SHOTS, 1, |state, rng| compiled.run_once(state, rng));
        assert_eq!(counts, expected, "the compiled replay changed seeded counts");
    });

    let deep = gatefuse_deep_kernel(DEEP_QUBITS);
    let deep_compiled = CompiledCircuit::compile(&deep);
    assert!(deep_compiled.len() < deep_compiled.source_len(), "fusion must shrink the deep kernel");
    let pool = Arc::new(ThreadPool::new(qcor_pool::num_threads_from_env()));
    let mut state = StateVector::with_pool(DEEP_QUBITS, pool);
    let mut replay = |run: &dyn Fn(&mut StateVector, &mut StdRng)| {
        best_of(DEEP_REPS, || {
            state.reset_to_zero();
            run(&mut state, &mut StdRng::seed_from_u64(3));
        })
    };
    let deep_interpreted = replay(&|s, rng| {
        run_once_interpreted(s, &deep, rng);
    });
    let deep_fused = replay(&|s, rng| {
        deep_compiled.run_once(s, rng);
    });
    assert_eq!(state.scratch_allocations(), 0, "compiled replay must not touch the scratch allocator");

    println!(
        "guard kernel {} -> {} ops: interpreted {:.1} us, compiled {:.1} us; deep kernel {} -> {} ops: \
         interpreted {:.1} ms, compiled {:.1} ms",
        compiled.source_len(),
        compiled.len(),
        interpreted.as_secs_f64() * 1e6,
        fused.as_secs_f64() * 1e6,
        deep_compiled.source_len(),
        deep_compiled.len(),
        deep_interpreted.as_secs_f64() * 1e3,
        deep_fused.as_secs_f64() * 1e3,
    );
    check("compiled / interpreted", ratio(fused, interpreted), GATEFUSE_MAX_RATIO);
    check("deep compiled / interpreted", ratio(deep_fused, deep_interpreted), GATEFUSE_MAX_DEEP_RATIO);
}

// ---------------------------------------------------------------------------
// sweepcache: re-compiling an angle sweep through the structural compile
// cache (template hit + parameter rebind) costs ≤ 0.7× a cold compile,
// and the cached plan replays the cold plan's seeded counts at every step.

/// Bound on cached ÷ cold sweep compile time.
const SWEEPCACHE_MAX_RATIO: f64 = 0.7;

/// A deep parameterized ansatz: Rx/Ry/Rz layers between CX chains and
/// CPhase ladders; every angle derives from `theta`, the structure never
/// changes.
fn sweep_ansatz(qubits: usize, theta: f64) -> Circuit {
    let mut c = Circuit::new(qubits);
    for layer in 0..12 {
        let t = theta + 0.1 * layer as f64;
        for q in 0..qubits {
            c.rx(q, t).ry(q, 0.5 * t).rz(q, -t);
        }
        for q in 0..qubits - 1 {
            c.cx(q, q + 1);
        }
        for q in 0..qubits - 1 {
            c.cphase(q, q + 1, 0.25 * t);
        }
    }
    c.measure_all();
    c
}

#[test]
#[ignore = "timing guard: CI runs it in release"]
fn sweepcache() {
    const QUBITS: usize = 10;
    const SWEEP: usize = 32;
    const SHOTS: usize = 64;
    const REPS: usize = 7;
    let sweep: Vec<Circuit> = (0..SWEEP).map(|i| sweep_ansatz(QUBITS, 0.05 + i as f64 * 0.21)).collect();

    clear_compile_cache();
    let (hits0, misses0) = (compile_cache_hits(), compile_cache_misses());
    for (i, circuit) in sweep.iter().enumerate() {
        let replay =
            |plan: &CompiledCircuit| seeded_counts(QUBITS, SHOTS, 1, |state, rng| plan.run_once(state, rng));
        assert_eq!(
            replay(&compile_cached(circuit)),
            replay(&CompiledCircuit::compile(circuit)),
            "cache changed seeded counts at sweep step {i}"
        );
    }
    let (hits, misses) = (compile_cache_hits() - hits0, compile_cache_misses() - misses0);
    assert!(hits >= (SWEEP - 1) as u64, "sweep must hit the cache after the first compile ({hits} hits)");

    // Cold and cached reps alternate, so a slow stretch of the host hits
    // both sides alike. The plans are consumed via their op counts so
    // neither loop can be optimized away.
    clear_compile_cache();
    compile_cached(&sweep[0]); // warm the template outside the timed region
    let (mut cold, mut cached) = (Duration::MAX, Duration::MAX);
    for _ in 0..REPS {
        cold = cold.min(best_of(1, || {
            assert!(sweep.iter().map(|c| CompiledCircuit::compile(c).len()).sum::<usize>() > 0);
        }));
        cached = cached
            .min(best_of(1, || assert!(sweep.iter().map(|c| compile_cached(c).len()).sum::<usize>() > 0)));
    }
    println!(
        "{SWEEP}-point sweep: {hits} hits / {misses} misses; cold {:.1} us, cached {:.1} us",
        cold.as_secs_f64() * 1e6,
        cached.as_secs_f64() * 1e6
    );
    check("cached / cold sweep compile", ratio(cached, cold), SWEEPCACHE_MAX_RATIO);
}
