//! The repository's benchmark: seven workloads through the `qcor` facade,
//! five end-to-end metrics, and a traced run for per-layer numbers.
//! `README.md` beside `Cargo.toml` has the tables and the commands.

mod harness;
mod json;
mod measure;
mod probes;
mod trace;
mod workloads;

use harness::{run_section, Section, SectionPlan};
use json::{number_at, Json};
use measure::{median, percentile, quartiles, tail_resolved};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::{self_time_shares, OpTrace};
use workloads::{BellPar, CircuitChurn, Deep20, NoisyTraj, ShorPar, ShorSeq, VqeSweep, Workload};

/// Seconds one timed section measures; `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 10.0;
/// A timed section also runs until this many ops have completed.
const MIN_OPS: usize = 8;
/// Fresh child launches whose median is `setup_s`.
const SETUP_LAUNCHES: usize = 11;

const WORKLOADS: [&str; 7] =
    ["bell_par", "shor_par", "shor_seq", "vqe_sweep", "circuit_churn", "noisy_traj", "deep20"];

/// `(name, unit, better, bound)`: the end-to-end metrics of `BENCHMARK.json`.
const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("throughput_ops_s", "ops/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
];

/// `(name, unit, better)`: the per-layer metrics of `BENCHMARK.json`, in
/// the order a traced run prints them. `<span>_share` is the self-time
/// share of the spans of that name.
const PER_LAYER: [(&str, &str, &str); 44] = [
    ("core.queue_wait_share", "share", "lower"),
    ("core.initialize_share", "share", "lower"),
    ("core.qalloc_share", "share", "lower"),
    ("circuit.bind_share", "share", "lower"),
    ("pool.build_share", "share", "lower"),
    ("xacc.execute_share", "share", "higher"),
    ("core.join_share", "share", "lower"),
    ("op_share", "share", "lower"),
    ("core.tasks_per_op", "count", "lower"),
    ("core.tasks_shed", "count", "lower"),
    ("core.peak_queue_len", "count", "lower"),
    ("core.live_buffers", "count", "lower"),
    ("sim.cache_hits_per_op", "count", "higher"),
    ("sim.cache_misses_per_op", "count", "lower"),
    ("sim.shot_plans_per_op", "count", "lower"),
    ("sim.shard_jobs_per_op", "count", "lower"),
    ("sim.shard_exchanges_per_op", "count", "lower"),
    ("pool.batch_steals_per_op", "count", "lower"),
    ("circuit.parse_us", "us", "lower"),
    ("circuit.bind_us", "us", "lower"),
    ("sim.compile_cold_us", "us", "lower"),
    ("sim.compile_cached_us", "us", "lower"),
    ("sim.plan_us", "us", "lower"),
    ("sim.plan_chunks", "count", "higher"),
    ("sim.run_shots_us", "us", "lower"),
    ("sim.replay_us_per_shot", "us", "lower"),
    ("sim.kernel_iters", "count", "lower"),
    ("sim.replay_mib_computed", "MiB", "lower"),
    ("xacc.clone_us", "us", "lower"),
    ("xacc.backend_overhead_us", "us", "lower"),
    ("core.service_roundtrip_us", "us", "lower"),
    ("pool.build_us", "us", "lower"),
    ("pool.batch_roundtrip_us", "us", "lower"),
    ("pool.parallel_for_2048_us", "us", "lower"),
    ("pool.parallel_for_1m_us", "us", "lower"),
    ("pauli.group_us", "us", "lower"),
    ("pauli.groups", "count", "lower"),
    ("pauli.reduce_us", "us", "lower"),
    ("algos.classical_us", "us", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "higher"),
    ("trace.throughput_ops_s", "ops/s", "higher"),
    ("trace.untraced_throughput_ops_s", "ops/s", "higher"),
    ("trace.overhead", "share", "lower"),
];

const USAGE: &str = "usage: qcor-benchmark run|trace|repeat [--seed N] [--seconds S] [--quick]
       qcor-benchmark --workload NAME --seed N --seconds S --trace 0|1";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    setup_only: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        setup_only: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "run" | "trace" | "repeat" if args.command.is_none() => args.command = Some(arg),
            "--workload" => args.workload = Some(value()?),
            "--setup-only" => args.setup_only = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.quick {
        args.seconds = 1.0;
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    // The numbers measure the defaults; any of the QCOR_* knobs can
    // silently change which path runs.
    if let Some((knob, _)) = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("QCOR_")) {
        eprintln!("refusing to run: {} is set; unset every QCOR_* variable", knob.to_string_lossy());
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (&args.command, &args.workload, &args.setup_only) {
        (None, None, Some(name)) | (None, Some(name), None) => with_workload(name, &args),
        (Some(command), None, None) => match command.as_str() {
            "repeat" => repeat(&args),
            _ => run_all(&args, command == "trace").map(|(doc, ok)| {
                println!("{doc}");
                ok
            }),
        },
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn with_workload(name: &str, args: &Args) -> Result<bool, String> {
    fn go<W: Workload>(args: &Args) -> Result<bool, String> {
        match (&args.setup_only, args.traced) {
            (Some(_), _) => setup_only::<W>(args.seed),
            (None, true) => drive_traced::<W>(args),
            (None, false) => drive::<W>(args),
        }
    }
    match name {
        "bell_par" => go::<BellPar>(args),
        "shor_par" => go::<ShorPar>(args),
        "shor_seq" => go::<ShorSeq>(args),
        "vqe_sweep" => go::<VqeSweep>(args),
        "circuit_churn" => go::<CircuitChurn>(args),
        "noisy_traj" => go::<NoisyTraj>(args),
        "deep20" => go::<Deep20>(args),
        other => Err(format!("unknown workload `{other}`; one of {WORKLOADS:?}")),
    }
}

// ------------------------------------------------------ one workload, one process

/// `--setup-only`: a fresh process's first facade call → its first op's
/// verified result, printed in seconds.
fn setup_only<W: Workload>(seed: u64) -> Result<bool, String> {
    let begun = Instant::now();
    let w = W::new(seed);
    let input = w.input(measure::derive_seed(seed, W::SEED_TAG, 0, 0), 0);
    let out = w.run(input, &mut OpTrace::new(false));
    w.verify(&out)?;
    println!("{}", begun.elapsed().as_secs_f64());
    Ok(true)
}

/// Run this executable with `args` and return its standard output; its
/// standard error goes to ours.
fn child_stdout(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot launch child: {e}"))?;
    // A failed verification exits 1 and still prints its result.
    if !matches!(out.status.code(), Some(0 | 1)) {
        return Err(format!("child {args:?} ended with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output is not UTF-8: {e}"))
}

fn measure_setup_s(workload: &str, seed: u64) -> Result<f64, String> {
    let launch = || -> Result<f64, String> {
        let out = child_stdout(&["--setup-only".into(), workload.into(), "--seed".into(), seed.to_string()])?;
        out.trim().parse().map_err(|e| format!("bad --setup-only output `{out}`: {e}"))
    };
    Ok(median(&(0..SETUP_LAUNCHES).map(|_| launch()).collect::<Result<Vec<_>, _>>()?))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 =
        line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).ok_or(format!("unreadable `{line}`"))?;
    Ok(kib / 1024.0)
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(args: &Args) -> Json {
    // Ask git only where the repository is: elsewhere it would search
    // every parent directory.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let git_head = match std::path::Path::new(root).join(".git").exists() {
        true => tool_line("git", &["-C", root, "rev-parse", "HEAD"]),
        false => "unknown".into(),
    };
    Json::obj([
        ("nproc", Json::Int(qcor::available_parallelism() as u64)),
        ("rustc", Json::Str(tool_line("rustc", &["-V"]))),
        ("git_head", Json::Str(git_head)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The two lines a workload process prints: the detail (provenance, op
/// counts, digest, sample counts) and, last, the result.
fn print_result(detail: Vec<(&str, Json)>, sections: &[&Section], metrics: Vec<(String, Json)>) -> bool {
    for e in sections.iter().flat_map(|s| &s.errors) {
        eprintln!("verification failed: {e}");
    }
    let attempted: usize = sections.iter().map(|s| s.attempted).sum();
    let failed: usize = sections.iter().map(|s| s.failed).sum();
    println!("{}", Json::obj(detail));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Int(attempted as u64)),
            ("failed", Json::Int(failed as u64)),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    failed == 0
}

fn section_detail<W: Workload>(args: &Args, section: &Section) -> Vec<(&'static str, Json)> {
    vec![
        ("workload", Json::str(W::NAME)),
        ("provenance", provenance(args)),
        ("clients", Json::Int(section.clients as u64)),
        ("timed_s", Json::Num(section.elapsed.as_secs_f64())),
        ("ops_attempted", Json::Int(section.attempted as u64)),
        ("ops_failed", Json::Int(section.failed as u64)),
        ("latency_samples", Json::Int(section.latencies_ms.len() as u64)),
        ("latency_p95_resolved", Json::Bool(tail_resolved(section.latencies_ms.len(), 95.0))),
        ("counts_digest", Json::Str(format!("{:016x}", section.digest))),
    ]
}

fn timed_plan(args: &Args, seconds: f64, traced: bool) -> SectionPlan {
    SectionPlan {
        run_length: Duration::from_secs_f64(seconds),
        min_ops: if args.quick { 1 } else { MIN_OPS },
        traced,
        first_index: 0,
    }
}

/// `--trace 0`: every end-to-end metric, tracing off.
fn drive<W: Workload>(args: &Args) -> Result<bool, String> {
    // Before this process has started anything of its own.
    let setup_s = measure_setup_s(W::NAME, args.seed)?;
    let w = W::new(args.seed);
    run_section(&w, args.seed, &SectionPlan::warm_up());
    let section = run_section(&w, args.seed, &timed_plan(args, args.seconds, false));
    let values = [
        section.throughput_ops_s(),
        percentile(&section.latencies_ms, 50.0),
        percentile(&section.latencies_ms, 95.0),
        setup_s,
        peak_rss_mb()?,
    ];
    let metrics =
        END_TO_END.iter().zip(values).map(|(&(name, unit, ..), v)| (name.to_string(), metric(v, unit)));
    Ok(print_result(section_detail::<W>(args, &section), &[&section], metrics.collect()))
}

type Counter = fn() -> u64;

/// Process-wide counters read at both edges of the traced section and
/// reported as the difference per op.
const PER_OP_COUNTERS: [(&str, Counter); 7] = [
    ("core.tasks_per_op", || qcor::ExecutionService::global().stats().submitted as u64),
    ("sim.cache_hits_per_op", qcor::sim::stats::compile_cache_hits),
    ("sim.cache_misses_per_op", qcor::sim::stats::compile_cache_misses),
    ("sim.shot_plans_per_op", qcor::sim::stats::shot_plans_issued),
    ("sim.shard_jobs_per_op", qcor::sim::stats::shard_jobs_launched),
    ("sim.shard_exchanges_per_op", qcor::sim::stats::shard_exchange_steps),
    ("pool.batch_steals_per_op", qcor_pool::batch_steal_count),
];

/// `--trace 1`: every per-layer metric. Half the run length untraced,
/// half traced (their throughput difference is the tracing overhead),
/// then the layer probes.
fn drive_traced<W: Workload>(args: &Args) -> Result<bool, String> {
    let w = W::new(args.seed);
    run_section(&w, args.seed, &SectionPlan::warm_up());
    let untraced = run_section(&w, args.seed, &timed_plan(args, args.seconds / 2.0, false));
    let shed = |s: qcor::ServiceStats| s.shed + s.expired;
    let shed_before = shed(qcor::ExecutionService::global().stats());
    let before = PER_OP_COUNTERS.map(|(_, read)| read());
    let section = run_section(&w, args.seed, &timed_plan(args, args.seconds / 2.0, true));
    let after = PER_OP_COUNTERS.map(|(_, read)| read());
    let service = qcor::ExecutionService::global().stats();
    let live_buffers = qcor::allocated_buffer_count();
    let probes = probes::run(&w.probe_sample());

    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!("trace-{}.json", W::NAME));
    section.spans.write(&path).map_err(|e| format!("{}: {e}", path.display()))?;

    let ops = section.attempted as f64;
    let shares = self_time_shares(&section.spans.spans);
    let mut values: Vec<(&str, f64)> = Vec::new();
    let mut put = |name, v| values.push((name, v));
    for (i, (name, _)) in PER_OP_COUNTERS.iter().enumerate() {
        put(name, (after[i] - before[i]) as f64 / ops);
    }
    put("core.tasks_shed", (shed(service) - shed_before) as f64);
    put("core.peak_queue_len", service.peak_queue_len as f64);
    put("core.live_buffers", live_buffers as f64);
    probes.values.iter().for_each(|&(name, v)| put(name, v));
    put("trace.ops", ops);
    put("trace.spans", section.spans.spans.len() as f64);
    put("trace.throughput_ops_s", section.throughput_ops_s());
    put("trace.untraced_throughput_ops_s", untraced.throughput_ops_s());
    put("trace.overhead", 1.0 - section.throughput_ops_s() / untraced.throughput_ops_s());

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = match name.strip_suffix("_share") {
                Some(span) => shares.get(span).copied().unwrap_or(0.0),
                None => {
                    values.iter().find(|(n, _)| *n == name).unwrap_or_else(|| panic!("{name} not measured")).1
                }
            };
            (name.to_string(), metric(value, unit))
        })
        .collect();
    let mut detail = section_detail::<W>(args, &section);
    detail.push(("trace_file", Json::Str(path.display().to_string())));
    detail.push((
        "sim.kernel_iters_by_class",
        Json::obj(probes.kernel_iters_by_class.iter().map(|&(class, n)| (class, Json::Int(n)))),
    ));
    Ok(print_result(detail, &[&untraced, &section], metrics))
}

// ------------------------------------------------------------ every workload

struct WorkloadRun {
    name: &'static str,
    detail: String,
    result: String,
}

fn run_workload(name: &'static str, args: &Args, traced: bool) -> Result<WorkloadRun, String> {
    let mut child = vec![
        "--workload".to_string(),
        name.into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
        "--trace".into(),
        if traced { "1" } else { "0" }.into(),
    ];
    if args.quick {
        child.push("--quick".into());
    }
    let out = child_stdout(&child)?;
    let mut lines = out.lines().rev();
    match (lines.next(), lines.next()) {
        (Some(result), Some(detail)) => {
            Ok(WorkloadRun { name, detail: detail.into(), result: result.into() })
        }
        _ => Err(format!("workload {name} printed no result")),
    }
}

/// One fresh process per workload; the document and whether every op verified.
fn run_all(args: &Args, traced: bool) -> Result<(Json, bool), String> {
    let runs =
        WORKLOADS.iter().map(|name| run_workload(name, args, traced)).collect::<Result<Vec<_>, _>>()?;
    let ok = runs.iter().all(|r| number_at(&r.result, "failed") == Some(0.0));
    let mut doc = vec![
        ("command", Json::str(if traced { "trace" } else { "run" })),
        ("provenance", provenance(args)),
        ("ok", Json::Bool(ok)),
    ];
    if !traced {
        let throughput = |name: &str| {
            runs.iter().find(|r| r.name == name).and_then(|r| number_at(&r.result, "throughput_ops_s"))
        };
        if let (Some(par), Some(seq)) = (throughput("shor_par"), throughput("shor_seq")) {
            // Informational: the paper's fig4 headline, parallel over one-by-one.
            doc.push((
                "fig4_ratio",
                Json::obj([
                    ("value", Json::Num(par / seq)),
                    ("base", Json::str("shor_seq throughput_ops_s")),
                ]),
            ));
        }
    }
    let workloads = runs.iter().map(|r| {
        Json::obj([("detail", Json::Raw(r.detail.clone())), ("result", Json::Raw(r.result.clone()))])
    });
    doc.push(("workloads", Json::Arr(workloads.collect())));
    Ok((Json::obj(doc), ok))
}

/// Two sets of three `run`s of this build, alternating; fails when the
/// sets' medians disagree by more than a metric's bound.
fn repeat(args: &Args) -> Result<bool, String> {
    const RUNS_PER_SET: usize = 3;
    let mut sets: [Vec<Vec<WorkloadRun>>; 2] = [Vec::new(), Vec::new()];
    for round in 0..RUNS_PER_SET {
        for set in &mut sets {
            eprintln!("repeat: round {} of {RUNS_PER_SET}", round + 1);
            set.push(WORKLOADS.iter().map(|name| run_workload(name, args, false)).collect::<Result<_, _>>()?);
        }
    }
    let mut ok = sets.iter().flatten().flatten().all(|r| number_at(&r.result, "failed") == Some(0.0));
    let mut rows = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, unit, _, bound) in END_TO_END {
            let values = |set: &Vec<Vec<WorkloadRun>>| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|run| number_at(&run[w].result, name).ok_or(format!("{workload} printed no {name}")))
                    .collect()
            };
            let summary = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                (
                    median(v),
                    Json::obj([
                        ("median", Json::Num(median(v))),
                        ("q1", Json::Num(q1)),
                        ("q3", Json::Num(q3)),
                    ]),
                )
            };
            let (first, first_doc) = summary(&values(&sets[0])?);
            let (second, second_doc) = summary(&values(&sets[1])?);
            let gap = (second - first).abs() / first;
            let within = gap <= bound;
            ok &= within || args.quick;
            rows.push(Json::obj([
                ("workload", Json::str(*workload)),
                ("metric", Json::str(name)),
                ("unit", Json::str(unit)),
                ("first", first_doc),
                ("second", second_doc),
                ("gap", Json::Num(gap)),
                ("bound", Json::Num(bound)),
                ("within_bound", Json::Bool(within)),
            ]));
        }
    }
    println!(
        "{}",
        Json::obj([
            ("command", Json::str("repeat")),
            ("provenance", provenance(args)),
            ("bounds_checked", Json::Bool(!args.quick)),
            ("ok", Json::Bool(ok)),
            ("pairs", Json::Arr(rows)),
        ])
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; the tables above are what
    /// the program prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: String = std::fs::read_to_string(path).unwrap().split_whitespace().collect();
        assert_eq!(number_at(&doc, "run_seconds"), Some(RUN_SECONDS));
        for name in WORKLOADS {
            assert!(doc.contains(&format!("{{\"name\":\"{name}\",\"why\":")), "workload {name}");
        }
        assert_eq!(doc.matches("\"why\":").count(), WORKLOADS.len());
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":{bound}}}"
            );
            assert!(doc.contains(&entry), "end-to-end metric {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(doc.contains(&entry), "per-layer metric {entry}");
        }
        assert_eq!(doc.matches("\"better\":").count(), END_TO_END.len() + PER_LAYER.len());
    }
}
