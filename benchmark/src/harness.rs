//! The closed loop: each client thread issues its next op only after the
//! previous one's reply, for a fixed run length.

use crate::measure::{derive_seed, keep_issuing, Digest};
use crate::trace::{OpTrace, RawSpan, SpanLog};
use crate::workloads::Workload;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Op indices of the warm-up section, apart from every timed index.
const WARMUP_FIRST_INDEX: u64 = 1 << 40;

pub struct SectionPlan {
    pub run_length: Duration,
    /// Ops to complete whatever the run length, shared evenly among the
    /// clients. The results of exactly these ops feed `counts_digest`, so
    /// the digest covers the same ops however fast the run went.
    pub min_ops: usize,
    pub traced: bool,
    pub first_index: u64,
}

impl SectionPlan {
    /// The discarded section that lets the compile cache, the global
    /// service and the lazy `OnceLock`s fill.
    pub fn warm_up() -> Self {
        SectionPlan {
            run_length: Duration::from_secs(1),
            min_ops: 1,
            traced: false,
            first_index: WARMUP_FIRST_INDEX,
        }
    }
}

/// What one section measured.
pub struct Section {
    /// First issue → last completion.
    pub elapsed: Duration,
    pub clients: usize,
    pub attempted: usize,
    pub failed: usize,
    /// The first few verification failures, for the error message.
    pub errors: Vec<String>,
    /// Submit → `get` returns, per op, ascending.
    pub latencies_ms: Vec<f64>,
    pub digest: u64,
    pub spans: SpanLog,
}

impl Section {
    pub fn throughput_ops_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.elapsed.as_secs_f64()
    }
}

#[derive(Default)]
struct ClientLog {
    latencies_ms: Vec<f64>,
    failed: usize,
    errors: Vec<String>,
    hashes: Vec<u64>,
    first_issue: Option<Instant>,
    last_completion: Option<Instant>,
    ops: Vec<(u64, Instant, Instant, Vec<RawSpan>)>,
}

pub fn run_section<W: Workload>(w: &W, run_seed: u64, plan: &SectionPlan) -> Section {
    // Never more load-generator threads than cores.
    let clients = W::CLIENTS.min(qcor::available_parallelism());
    let min_ops_per_client = plan.min_ops.div_ceil(clients);
    let barrier = Barrier::new(clients);
    let start = Instant::now();

    let client_loop = |client: usize| {
        let mut log = ClientLog::default();
        barrier.wait();
        for index in plan.first_index.. {
            let input = w.input(derive_seed(run_seed, W::SEED_TAG, client, index), client);
            let mut trace = OpTrace::new(plan.traced);
            let issued = Instant::now();
            let out = w.run(input, &mut trace);
            let replied = Instant::now();
            log.first_issue.get_or_insert(issued);
            log.last_completion = Some(replied);
            log.latencies_ms.push((replied - issued).as_secs_f64() * 1e3);
            match w.verify(&out) {
                Ok(hash) if log.hashes.len() < min_ops_per_client => log.hashes.push(hash),
                Ok(_) => {}
                Err(e) => {
                    log.failed += 1;
                    if log.errors.len() < 3 {
                        log.errors.push(format!("client {client} op {index}: {e}"));
                    }
                }
            }
            if plan.traced {
                log.ops.push((index * clients as u64 + client as u64, issued, replied, trace.spans));
            }
            if !keep_issuing(start.elapsed(), log.latencies_ms.len(), plan.run_length, min_ops_per_client) {
                break;
            }
        }
        log
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|c| s.spawn(move || client_loop(c))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    let first_issue = logs.iter().filter_map(|l| l.first_issue).min().expect("every client issues an op");
    let last_completion = logs.iter().filter_map(|l| l.last_completion).max().expect("every op completes");
    let mut digest = Digest::default();
    let mut spans = SpanLog::new(start);
    let mut latencies_ms = Vec::new();
    for log in &logs {
        log.hashes.iter().for_each(|&h| digest.word(h));
        latencies_ms.extend_from_slice(&log.latencies_ms);
        for (op_id, issued, replied, children) in &log.ops {
            spans.push_op(*op_id, *issued, *replied, children);
        }
    }
    latencies_ms.sort_by(f64::total_cmp);
    Section {
        elapsed: last_completion - first_issue,
        clients,
        attempted: latencies_ms.len(),
        failed: logs.iter().map(|l| l.failed).sum(),
        errors: logs.iter().flat_map(|l| l.errors.iter().cloned()).collect(),
        latencies_ms,
        digest: digest.finish(),
        spans,
    }
}
