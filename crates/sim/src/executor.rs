//! Circuit execution: single shots, repeated sampling, and the batched
//! shot scheduler.
//!
//! The per-shot loop mirrors how QCOR's `QppAccelerator` services a kernel
//! invocation with `shots` repetitions; the measurement record format
//! matches the `AcceleratorBuffer` counts of paper Listing 2 (a map from
//! bitstring to occurrence count).
//!
//! # The batched shot scheduler
//!
//! Repeated sampling is scheduled through a [`ShotPlan`]: the `shots`
//! repetitions are partitioned into contiguous **chunks**, and each chunk
//! becomes one work item on the run's shared [`ThreadPool`]
//! (via [`ThreadPool::submit_batch`]). This replaces the original design —
//! per-shot pool dispatch inside every amplitude loop, and one OS thread
//! plus a *private* pool per shot task — whose fork/join overhead dominated
//! small kernels (a Bell kernel at 512 shots ran ~100× slower on a 2-thread
//! pool than on 1 thread).
//!
//! **Chunk sizing** ([`Granularity::Auto`]) is adaptive: the estimated cost
//! of one shot (`instruction count × 2^qubits` amplitude updates) is
//! compared against a fixed per-dispatch cost budget, and shots are grouped
//! until a chunk is expensive enough to amortize its dispatch. Small
//! kernels therefore run in a handful of chunks (or one, inline on the
//! calling thread, paying **zero** dispatch cost); large state vectors fall
//! back to a single work item whose amplitude loops are work-shared over
//! the pool (the paper's inner simulator-level parallelism), because at
//! that size per-gate work-sharing beats shot-level chunking.
//!
//! **RNG stream derivation**: every chunk seeds its own `StdRng` with
//! [`derive_stream_seed`]`(base_seed, chunk_index)`. Chunk 0 reuses the
//! base seed unchanged, so a single-chunk run is byte-identical to the
//! pre-scheduler sequential executor.
//!
//! **Determinism contract**: for a fixed `(seed, tasks, chunk_shots)` the
//! chunk partition and every chunk's RNG stream are fully determined, and
//! counts merge by commutative addition — so on chunked plans the merged
//! [`Counts`] are byte-identical across runs and across pool sizes,
//! regardless of which worker executes which chunk (chunk states simulate
//! on a private sequential pool, so no floating-point reduction order is
//! in play). Changing the partition (different `chunk_shots`, `tasks`, or
//! heuristic inputs) changes which stream each shot draws from, so counts
//! differ in detail while the sampled distribution is identical.
//!
//! The single-work-item *inner-parallel* path (large states, or
//! [`Granularity::Sequential`] with one task) historically fell outside
//! the byte-identical guarantee because its work-shared measurement
//! reductions folded partial probability sums in scheduling order. Since
//! the reductions moved onto the **ordered** reduce
//! ([`qcor_pool::ThreadPool::parallel_reduce_ordered`]) — a fixed chunk
//! partition folded in a fixed order, independent of the pool size — the
//! inner-parallel path's sums are bit-identical on any team, and the
//! byte-identical contract extends to it as well.
//!
//! # Compile-then-execute
//!
//! Each call compiles the circuit **once per plan** into a
//! [`CompiledCircuit`] (gate fusion, precomputed matrices and control
//! masks — see [`crate::compile`]) and replays the fused op list per shot;
//! per-shot instruction dispatch and matrix re-derivation are gone.
//! [`RunConfig::fusion`] / `QCOR_GATE_FUSION` select the legacy
//! interpreted executor for A/B comparison; compiled and interpreted runs
//! consume identical RNG streams (same draw count and order), so seeded
//! counts agree between them.
//!
//! Bitstring convention: the leftmost character is the outcome of the
//! lowest-indexed *measured* qubit.

use crate::cancel::CancelToken;
use crate::compile::CompiledCircuit;
use crate::gates::apply_instruction;
use crate::state::{StateVector, FORK_MIN_BYTES_PER_THREAD, INNER_PAR_MIN_AMPS};
use qcor_circuit::{Circuit, GateKind};
use qcor_pool::ThreadPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// Occurrence counts per measured bitstring, ordered for stable printing.
pub type Counts = BTreeMap<String, usize>;

/// The measurement record of a single shot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShotRecord {
    /// `(qubit, outcome)` in program order. A re-measured qubit appears
    /// multiple times; the last entry wins for the bitstring.
    pub outcomes: Vec<(usize, u8)>,
}

impl ShotRecord {
    /// Final outcome per measured qubit, sorted by qubit index, rendered as
    /// a bitstring (lowest qubit leftmost).
    pub fn bitstring(&self) -> String {
        let mut last: BTreeMap<usize, u8> = BTreeMap::new();
        for &(q, b) in &self.outcomes {
            last.insert(q, b);
        }
        last.values().map(|b| char::from(b'0' + b)).collect()
    }

    /// Interpret the outcomes of the given qubits (little-endian: first
    /// entry of `qubits` is the least significant bit) as an integer,
    /// using each qubit's final outcome. Unmeasured qubits read 0.
    pub fn value_of(&self, qubits: &[usize]) -> u64 {
        let mut last: BTreeMap<usize, u8> = BTreeMap::new();
        for &(q, b) in &self.outcomes {
            last.insert(q, b);
        }
        let mut v = 0u64;
        for (pos, q) in qubits.iter().enumerate() {
            if last.get(q).copied().unwrap_or(0) == 1 {
                v |= 1 << pos;
            }
        }
        v
    }
}

/// Run `circuit` once against `state`, recording measurement outcomes.
///
/// Honors the process-wide fusion default (`QCOR_GATE_FUSION`): by default
/// the circuit is compiled (gate fusion + kernel classification, see
/// [`CompiledCircuit`]) and replayed; with fusion disabled this is
/// [`run_once_interpreted`]. Callers running the same circuit repeatedly
/// should compile once and call [`CompiledCircuit::run_once`] per shot —
/// that is what the shot scheduler does.
pub fn run_once(state: &mut StateVector, circuit: &Circuit, rng: &mut impl Rng) -> ShotRecord {
    if fusion_env_default() {
        compile_with_env_cache(circuit).run_once(state, rng)
    } else {
        run_once_interpreted(state, circuit, rng)
    }
}

/// Compile honoring the process-wide compile-cache default
/// (`QCOR_COMPILE_CACHE`, enabled unless set off) — the path for callers
/// without a [`RunConfig`] such as [`run_once`] and [`exact_distribution`].
/// `run_once` in particular sits in per-shot hot loops (semiclassical QPE
/// re-invokes a freshly built circuit per shot), exactly the sweep shape
/// the structural cache accelerates.
fn compile_with_env_cache(circuit: &Circuit) -> CompiledCircuit {
    if crate::cache::compile_cache_env_default() {
        crate::cache::compile_cached(circuit)
    } else {
        CompiledCircuit::compile(circuit)
    }
}

/// Run `circuit` once by interpreting each instruction in turn — the
/// pre-compilation executor, kept selectable (`QCOR_GATE_FUSION=0`,
/// [`RunConfig::fusion`]) as the A/B baseline the `gatefuse_guard` CI gate
/// and the fused-vs-unfused equivalence tests compare against.
pub fn run_once_interpreted(state: &mut StateVector, circuit: &Circuit, rng: &mut impl Rng) -> ShotRecord {
    assert!(
        circuit.num_qubits() <= state.num_qubits(),
        "circuit needs {} qubits but the state has {}",
        circuit.num_qubits(),
        state.num_qubits()
    );
    let mut record = ShotRecord::default();
    for inst in circuit.instructions() {
        if let Some(bit) = apply_instruction(state, inst, rng) {
            record.outcomes.push((inst.qubits[0], bit));
        }
    }
    record
}

/// Resolve the process-wide gate-fusion default from `QCOR_GATE_FUSION`.
/// Unset means **enabled**; `0`/`false`/`off` disable, `1`/`true`/`on`
/// enable, anything else panics loudly (misconfiguration should never
/// silently change which executor benchmarks measure).
///
/// The variable is read and parsed **once** per process: `run_once` sits
/// in per-shot hot loops (Shor's semiclassical QPE, QAOA sampling), and a
/// mid-process env change flipping the executor would break the
/// documented process-wide-default semantics anyway.
pub fn fusion_env_default() -> bool {
    static DEFAULT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("QCOR_GATE_FUSION") {
        Err(_) => true,
        Ok(v) => parse_fusion_token(&v).unwrap_or_else(|| {
            panic!("invalid QCOR_GATE_FUSION value {v:?}: expected 0/1/true/false/on/off")
        }),
    })
}

/// Parse one gate-fusion token — the single vocabulary shared by the
/// `QCOR_GATE_FUSION` environment variable and the qpp backend's string
/// `fusion` param, so the two can never drift apart. `None` = unrecognized.
pub fn parse_fusion_token(s: &str) -> Option<bool> {
    match s.trim().to_ascii_lowercase().as_str() {
        "" | "1" | "true" | "on" => Some(true),
        "0" | "false" | "off" => Some(false),
        _ => None,
    }
}

/// Chunk-sizing policy of the batched shot scheduler (see the
/// [module docs](self) for the full description).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Granularity {
    /// Adaptive: group shots until one chunk's estimated simulation cost
    /// (`instructions × 2^qubits` amplitude updates per shot) amortizes a
    /// pool dispatch; large states use a single inner-parallel work item.
    #[default]
    Auto,
    /// Opt out of adaptive chunking. In a single-task run all shots run
    /// sequentially on the calling thread and the pool is offered to the
    /// amplitude loops, which use it under the kernels' fork rule — with
    /// [`RunConfig::par_threshold`]` = 1` this is the pre-scheduler
    /// behavior (a fork/join per sweep), kept for A/B benchmarking. When
    /// task-level parallelism is requested explicitly
    /// ([`run_shots_task_parallel`] / [`ShotPlan::for_tasks`] with
    /// `tasks > 1`), the task split still applies: the run becomes exactly
    /// one chunk per task (the legacy task-parallel shape), each with its
    /// own derived RNG stream.
    Sequential,
}

/// Configuration for repeated sampling.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of repetitions.
    pub shots: usize,
    /// RNG seed (`None` = entropy from the OS).
    pub seed: Option<u64>,
    /// Fork floor of the run's states: minimum bytes of a sweep per team
    /// thread before the sweep is work-shared over the pool (default
    /// [`FORK_MIN_BYTES_PER_THREAD`]; `1` = Quantum++'s unconditional
    /// forking — see [`StateVector::set_par_threshold`]). Not part of the
    /// determinism tuple: counts do not depend on it.
    pub par_threshold: usize,
    /// Explicit shots-per-chunk override (`None` = derive the chunk size
    /// from `granularity`). Part of the determinism tuple: fixed
    /// `(seed, tasks, chunk_shots)` reproduces merged counts exactly.
    pub chunk_shots: Option<usize>,
    /// Chunk-sizing policy used when `chunk_shots` is `None`.
    pub granularity: Granularity,
    /// Gate fusion: compile the circuit once per [`ShotPlan`] (fused kernel
    /// ops, precomputed matrices/masks — see [`CompiledCircuit`]) and
    /// replay it per shot, instead of re-interpreting every instruction.
    /// `None` defers to the `QCOR_GATE_FUSION` environment default
    /// (enabled); `Some(false)` forces the interpreted executor for A/B
    /// comparison.
    pub fusion: Option<bool>,
    /// Structural compile cache: look the circuit's structure up in the
    /// process-wide template cache and only re-bind angles on a hit (see
    /// [`crate::cache`]). `None` defers to the `QCOR_COMPILE_CACHE`
    /// environment default (enabled); `Some(false)` forces a cold compile
    /// per plan. Irrelevant when the interpreted executor runs (fusion
    /// off).
    pub compile_cache: Option<bool>,
}

impl RunConfig {
    /// Resolve the effective fusion setting ([`RunConfig::fusion`], falling
    /// back to [`fusion_env_default`]).
    pub fn fusion_enabled(&self) -> bool {
        self.fusion.unwrap_or_else(fusion_env_default)
    }

    /// Resolve the effective compile-cache setting
    /// ([`RunConfig::compile_cache`], falling back to
    /// [`crate::cache::compile_cache_env_default`]).
    pub fn compile_cache_enabled(&self) -> bool {
        self.compile_cache.unwrap_or_else(crate::cache::compile_cache_env_default)
    }

    /// Compile honoring the resolved compile-cache setting.
    fn compile(&self, circuit: &Circuit) -> CompiledCircuit {
        if self.compile_cache_enabled() {
            crate::cache::compile_cached(circuit)
        } else {
            CompiledCircuit::compile(circuit)
        }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            shots: 1024,
            seed: None,
            par_threshold: FORK_MIN_BYTES_PER_THREAD,
            chunk_shots: None,
            granularity: Granularity::Auto,
            fusion: None,
            compile_cache: None,
        }
    }
}

/// Derive the RNG seed of chunk `index` from a run's base seed.
///
/// Chunk 0 reuses the base seed unchanged (a single-chunk run is
/// byte-identical to the pre-scheduler sequential executor); later chunks
/// are offset by multiples of the 64-bit golden ratio so `StdRng`'s
/// SplitMix64 seed expansion decorrelates their streams.
pub fn derive_stream_seed(base: u64, index: usize) -> u64 {
    base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index as u64))
}

/// Estimated cost budget (in amplitude updates) one chunk should reach to
/// amortize the pool message + worker wakeup that dispatching it costs.
/// A dispatch is ~1–10 µs; an amplitude update a few ns, so 2^18 updates
/// keep dispatch overhead well under 1% of chunk runtime.
const TARGET_CHUNK_AMP_OPS: u64 = 1 << 18;

/// Estimated simulation cost of one shot, in amplitude updates.
fn shot_cost(circuit: &Circuit) -> u64 {
    (circuit.len().max(1) as u64).saturating_mul(1u64 << circuit.num_qubits())
}

/// A partition of `shots` repetitions into contiguous chunks, plus the
/// decision whether amplitude loops work-share over the run's pool.
///
/// The plan is a pure function of `(circuit, config, tasks)` — never of the
/// pool size — which is what makes seeded counts invariant under the pool
/// actually used to execute it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotPlan {
    shots: usize,
    chunk_shots: usize,
    inner_parallel: bool,
}

impl ShotPlan {
    /// Plan a single-task run (see [`ShotPlan::for_tasks`]).
    pub fn for_circuit(circuit: &Circuit, config: &RunConfig) -> ShotPlan {
        Self::for_tasks(circuit, config, 1)
    }

    /// Plan a run that should expose at least `tasks`-way shot-level
    /// parallelism: the chunk size is capped at `ceil(shots / tasks)`.
    ///
    /// `tasks` is clamped to `shots` first, so over-subscribed requests
    /// (`tasks > shots`) never produce empty chunks.
    pub fn for_tasks(circuit: &Circuit, config: &RunConfig, tasks: usize) -> ShotPlan {
        let shots = config.shots;
        let tasks = tasks.max(1).min(shots.max(1));
        let per_task = shots.div_ceil(tasks).max(1);
        let amps = 1usize << circuit.num_qubits();
        let requested = match (config.chunk_shots, config.granularity) {
            (Some(k), _) => k.max(1),
            (None, Granularity::Sequential) => shots.max(1),
            (None, Granularity::Auto) => {
                if amps >= INNER_PAR_MIN_AMPS {
                    // One work item per task: from this size a full-width
                    // sweep passes the kernels' fork rule, so amplitude
                    // loops carry the parallelism when the whole run stays
                    // on the caller.
                    shots.max(1)
                } else {
                    (TARGET_CHUNK_AMP_OPS / shot_cost(circuit)).max(1) as usize
                }
            }
        };
        let chunk_shots = requested.min(per_task).max(1);
        // Work-sharing amplitude loops only pays off when the whole run is
        // one work item on the calling thread; chunk jobs executing on pool
        // workers run their loops inline anyway (nested parallelism).
        let inner_parallel = config.chunk_shots.is_none()
            && chunk_shots >= shots.max(1)
            && (config.granularity == Granularity::Sequential || amps >= INNER_PAR_MIN_AMPS);
        ShotPlan { shots, chunk_shots, inner_parallel }
    }

    /// A plan with an explicit chunk size and no inner parallelism —
    /// the partition used by the property tests.
    pub fn with_chunk_shots(shots: usize, chunk_shots: usize) -> ShotPlan {
        ShotPlan { shots, chunk_shots: chunk_shots.max(1), inner_parallel: false }
    }

    /// Total shots covered by the plan.
    pub fn shots(&self) -> usize {
        self.shots
    }

    /// Shots per chunk (the final chunk may be shorter).
    pub fn chunk_shots(&self) -> usize {
        self.chunk_shots
    }

    /// Number of chunks in the partition. Zero shots → zero chunks: an
    /// over-subscribed or empty request never creates empty work items.
    pub fn num_chunks(&self) -> usize {
        self.shots.div_ceil(self.chunk_shots)
    }

    /// Whether the plan runs as one work item with amplitude loops
    /// work-shared over the pool (the paper's inner simulator level).
    pub fn inner_parallel(&self) -> bool {
        self.inner_parallel
    }

    /// The contiguous shot ranges of the partition, in order. Together the
    /// ranges cover `0..shots` exactly once and none is empty.
    pub fn chunks(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let (shots, chunk) = (self.shots, self.chunk_shots);
        (0..shots).step_by(chunk).map(move |lo| lo..(lo + chunk).min(shots))
    }
}

/// The executor a shot plan replays per shot: the circuit compiled once
/// into fused kernel ops, the interpreted per-instruction dispatcher
/// (fusion off), or the noisy trajectory sampler (noise channels lowered
/// once via [`crate::noise::compile_noisy`], Kraus branches drawn per shot;
/// always compiled — the fusion knob does not apply).
enum ShotExec<'c> {
    Compiled(CompiledCircuit),
    Interpreted(&'c Circuit),
    Trajectory { plan: crate::noise::NoisyCompiled, readout: f64 },
}

impl ShotExec<'_> {
    fn for_config<'c>(circuit: &'c Circuit, config: &RunConfig) -> ShotExec<'c> {
        if config.fusion_enabled() {
            ShotExec::Compiled(config.compile(circuit))
        } else {
            ShotExec::Interpreted(circuit)
        }
    }

    fn run_once(&self, state: &mut StateVector, rng: &mut impl Rng) -> ShotRecord {
        match self {
            ShotExec::Compiled(compiled) => compiled.run_once(state, rng),
            ShotExec::Interpreted(circuit) => run_once_interpreted(state, circuit, rng),
            ShotExec::Trajectory { plan, readout } => {
                crate::noise::run_trajectory_once(plan, *readout, state, rng)
            }
        }
    }
}

/// Run `shots` repetitions of `exec` against `state`, drawing from `rng`,
/// accumulating bitstring counts into `counts`.
fn sample_into(
    state: &mut StateVector,
    exec: &ShotExec<'_>,
    rng: &mut StdRng,
    shots: usize,
    counts: &mut Counts,
) {
    for shot in 0..shots {
        if shot > 0 {
            state.reset_to_zero();
        }
        let record = exec.run_once(state, rng);
        *counts.entry(record.bitstring()).or_insert(0) += 1;
    }
}

/// Execute `circuit` for `config.shots` repetitions through the batched
/// shot scheduler (see the [module docs](self)) and accumulate the counts
/// of the measured bitstrings.
///
/// The [`ShotPlan`] partitions the shots into chunks, each chunk runs as
/// one work item on `pool` with its own derived RNG stream and a private
/// sequential state vector, and the per-chunk counts are merged. Plans
/// that resolve to a single chunk (small kernels) run inline on the
/// calling thread with zero dispatch cost; large states run as a single
/// work item whose amplitude loops are work-shared over `pool`.
///
/// Re-running the full circuit per shot (rather than sampling a final
/// distribution) keeps the workload faithful to the paper's evaluation,
/// where per-kernel simulation work × shots is what the simulator threads
/// parallelize, and is required anyway once circuits contain mid-circuit
/// measurement or reset.
pub fn run_shots(circuit: &Circuit, pool: Arc<ThreadPool>, config: &RunConfig) -> Counts {
    let plan = ShotPlan::for_circuit(circuit, config);
    run_shots_planned(circuit, pool, config, &plan)
}

/// Execute an explicit [`ShotPlan`] (the scheduler core behind
/// [`run_shots`] and [`run_shots_task_parallel`]).
///
/// Honors the calling thread's cooperative [`CancelToken`]
/// ([`crate::cancel::thread_cancel_token`], installed by execution layers
/// such as the `qcor-core` execution service around task bodies): chunk
/// jobs check the token at their start, so a cancelled sweep stops at the
/// next chunk boundary and returns only the completed chunks' merged
/// counts. Use [`run_shots_cancellable`] to pass a token explicitly and
/// observe how far the sweep got.
pub fn run_shots_planned(
    circuit: &Circuit,
    pool: Arc<ThreadPool>,
    config: &RunConfig,
    plan: &ShotPlan,
) -> Counts {
    let token = crate::cancel::thread_cancel_token();
    run_shots_core(circuit, pool, config, plan, token.as_ref(), None).counts
}

/// The outcome of a cancellable sweep: the merged counts of every chunk
/// that ran, plus how far the plan got. Chunks sample independent derived
/// RNG streams ([`derive_stream_seed`]), so `counts` is bit-identical to
/// the first `completed_chunks` chunks of an uncancelled run with the same
/// `(seed, tasks, chunk_shots)` — cancellation truncates, never corrupts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotRun {
    /// Merged counts of the completed chunks.
    pub counts: Counts,
    /// How many chunk jobs ran to completion.
    pub completed_chunks: usize,
    /// How many chunk jobs the plan resolved to.
    pub total_chunks: usize,
    /// Whether any chunk job was skipped because the token was cancelled
    /// (`completed_chunks < total_chunks`).
    pub cancelled: bool,
}

/// [`run_shots_planned`] with an explicit [`CancelToken`]: the sweep stops
/// at the first chunk boundary after `token.cancel()` and reports the
/// completed prefix.
pub fn run_shots_cancellable(
    circuit: &Circuit,
    pool: Arc<ThreadPool>,
    config: &RunConfig,
    plan: &ShotPlan,
    token: &CancelToken,
) -> ShotRun {
    run_shots_core(circuit, pool, config, plan, Some(token), None)
}

/// Execute `circuit` under `noise` as trajectory sampling on the batched
/// shot scheduler: channels are lowered once ([`crate::noise::compile_noisy`],
/// through the compile cache when enabled) and every shot replays the
/// compiled plan, drawing its Kraus branches, measurement outcomes, and
/// readout flips (per-bit flip probability `readout`) from its chunk's
/// derived RNG stream. Inherits the scheduler's determinism contract: for
/// a fixed `(seed, tasks, chunk_shots)` the merged counts are
/// byte-identical on any pool size.
pub fn run_noisy_shots(
    circuit: &Circuit,
    noise: &crate::density::NoiseModel,
    readout: f64,
    pool: Arc<ThreadPool>,
    config: &RunConfig,
) -> Counts {
    let plan = ShotPlan::for_circuit(circuit, config);
    run_noisy_shots_planned(circuit, noise, readout, pool, config, &plan)
}

/// [`run_noisy_shots`] with an explicit [`ShotPlan`]. Honors the calling
/// thread's cooperative [`CancelToken`] like [`run_shots_planned`].
pub fn run_noisy_shots_planned(
    circuit: &Circuit,
    noise: &crate::density::NoiseModel,
    readout: f64,
    pool: Arc<ThreadPool>,
    config: &RunConfig,
    plan: &ShotPlan,
) -> Counts {
    let token = crate::cancel::thread_cancel_token();
    run_shots_core(circuit, pool, config, plan, token.as_ref(), Some((noise, readout))).counts
}

fn run_shots_core(
    circuit: &Circuit,
    pool: Arc<ThreadPool>,
    config: &RunConfig,
    plan: &ShotPlan,
    token: Option<&CancelToken>,
    noisy: Option<(&crate::density::NoiseModel, f64)>,
) -> ShotRun {
    let mut merged = Counts::new();
    if plan.shots() == 0 {
        return ShotRun { counts: merged, completed_chunks: 0, total_chunks: 0, cancelled: false };
    }
    crate::stats::record_shot_plan();
    let base_seed = match config.seed {
        Some(s) => s,
        None => StdRng::from_entropy().gen(),
    };
    // Compile once per plan; every chunk replays the same fused op list.
    let exec = match noisy {
        Some((noise, readout)) => ShotExec::Trajectory {
            plan: crate::noise::compile_noisy(circuit, noise, config.compile_cache_enabled()),
            readout,
        },
        None => ShotExec::for_config(circuit, config),
    };
    if plan.inner_parallel() {
        // Single work item: the only checkpoint is before it starts.
        if token.is_some_and(CancelToken::is_cancelled) {
            return ShotRun { counts: merged, completed_chunks: 0, total_chunks: 1, cancelled: true };
        }
        let mut state = StateVector::with_pool(circuit.num_qubits(), pool);
        state.set_par_threshold(config.par_threshold);
        let mut rng = StdRng::seed_from_u64(base_seed);
        sample_into(&mut state, &exec, &mut rng, plan.shots(), &mut merged);
        return ShotRun { counts: merged, completed_chunks: 1, total_chunks: 1, cancelled: false };
    }
    let exec = &exec;
    let jobs: Vec<_> = plan
        .chunks()
        .enumerate()
        .map(|(index, span)| {
            let seed = derive_stream_seed(base_seed, index);
            let token = token.cloned();
            move || {
                // Cooperative cancellation checkpoint: a cancelled sweep
                // skips every chunk that has not started yet.
                if token.is_some_and(|t| t.is_cancelled()) {
                    return None;
                }
                let mut state = StateVector::new(circuit.num_qubits());
                let mut rng = StdRng::seed_from_u64(seed);
                let mut counts = Counts::new();
                sample_into(&mut state, exec, &mut rng, span.len(), &mut counts);
                Some(counts)
            }
        })
        .collect();
    let total_chunks = jobs.len();
    let mut completed_chunks = 0usize;
    for partial in pool.submit_batch(jobs).into_iter().flatten() {
        completed_chunks += 1;
        for (bits, count) in partial {
            *merged.entry(bits).or_insert(0) += count;
        }
    }
    ShotRun { counts: merged, completed_chunks, total_chunks, cancelled: completed_chunks < total_chunks }
}

/// Shot-level parallelism (paper §II): expose at least `tasks`-way
/// parallelism over `config.shots` repetitions on **one shared pool** of
/// `tasks × threads_per_task` threads, and merge the counts.
///
/// Unlike the original design (one OS thread plus a private pool per
/// task), tasks are chunks of a [`ShotPlan`] executed as work items on the
/// shared pool — over-subscribed requests (`tasks > shots`) are clamped so
/// no empty task ever allocates a state vector, and each chunk derives its
/// RNG stream from `config.seed` and its chunk index, so merged counts are
/// byte-identical across runs for a fixed `(seed, tasks, chunk_shots)`.
/// For a fixed seed the merged counts differ from the single-task sequence
/// (shots are partitioned differently), while the underlying distribution
/// is identical.
///
/// `threads_per_task` sizes the shared pool; extra threads let more chunks
/// run concurrently (a chunk's own amplitude loops run inline on its
/// worker).
pub fn run_shots_task_parallel(
    circuit: &Circuit,
    tasks: usize,
    threads_per_task: usize,
    config: &RunConfig,
) -> Counts {
    assert!(tasks >= 1);
    let effective_tasks = tasks.min(config.shots).max(1);
    let team = effective_tasks.saturating_mul(threads_per_task.max(1));
    let pool = Arc::new(ThreadPool::new(team));
    let plan = ShotPlan::for_tasks(circuit, config, tasks);
    run_shots_planned(circuit, pool, config, &plan)
}

/// Exact output distribution of a measurement-free prefix: strips terminal
/// measurements, evolves once (compiled when the process-wide fusion
/// default is on), and returns the probability of each basis state. Errors
/// if a non-terminal measurement or reset is present.
pub fn exact_distribution(circuit: &Circuit, pool: Arc<ThreadPool>) -> Result<Vec<f64>, String> {
    let mut prefix = Circuit::new(circuit.num_qubits());
    let mut seen_measure = false;
    for inst in circuit.instructions() {
        match inst.gate {
            GateKind::Measure => seen_measure = true,
            GateKind::Barrier => {}
            GateKind::Reset => return Err("exact_distribution cannot handle reset".to_string()),
            _ if seen_measure => {
                return Err("exact_distribution requires measurements to be terminal".to_string())
            }
            _ => {
                prefix.push(inst.clone());
            }
        }
    }
    let mut state = StateVector::with_pool(circuit.num_qubits(), pool);
    let mut rng = StdRng::seed_from_u64(0);
    if fusion_env_default() {
        compile_with_env_cache(&prefix).run_once(&mut state, &mut rng);
    } else {
        run_once_interpreted(&mut state, &prefix, &mut rng);
    }
    Ok(state.probabilities())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcor_circuit::library;

    fn seq_pool() -> Arc<ThreadPool> {
        Arc::new(ThreadPool::new(1))
    }

    #[test]
    fn bell_counts_only_00_and_11() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 1024, seed: Some(1), ..Default::default() };
        let counts = run_shots(&circuit, seq_pool(), &config);
        let total: usize = counts.values().sum();
        assert_eq!(total, 1024);
        assert!(counts.keys().all(|k| k == "00" || k == "11"), "{counts:?}");
        // Both outcomes should appear with roughly equal frequency.
        let c00 = counts.get("00").copied().unwrap_or(0) as f64;
        assert!((c00 / 1024.0 - 0.5).abs() < 0.1, "{counts:?}");
    }

    #[test]
    fn ghz_counts_are_all_zero_or_all_one() {
        let circuit = library::ghz_kernel(4);
        let config = RunConfig { shots: 256, seed: Some(2), ..Default::default() };
        let counts = run_shots(&circuit, seq_pool(), &config);
        assert!(counts.keys().all(|k| k == "0000" || k == "1111"), "{counts:?}");
    }

    #[test]
    fn deterministic_with_fixed_seed() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 128, seed: Some(7), ..Default::default() };
        let a = run_shots(&circuit, seq_pool(), &config);
        let b = run_shots(&circuit, seq_pool(), &config);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_pool_preserves_distribution() {
        let circuit = library::bell_kernel();
        let pool = Arc::new(ThreadPool::new(4));
        let config = RunConfig { shots: 512, seed: Some(3), ..Default::default() };
        let counts = run_shots(&circuit, pool, &config);
        assert!(counts.keys().all(|k| k == "00" || k == "11"), "{counts:?}");
        assert_eq!(counts.values().sum::<usize>(), 512);
    }

    #[test]
    fn exact_distribution_of_bell() {
        let circuit = library::bell_kernel();
        let p = exact_distribution(&circuit, seq_pool()).unwrap();
        assert!((p[0b00] - 0.5).abs() < 1e-12);
        assert!((p[0b11] - 0.5).abs() < 1e-12);
        assert!(p[0b01].abs() < 1e-12);
        assert!(p[0b10].abs() < 1e-12);
    }

    #[test]
    fn exact_distribution_rejects_mid_circuit_measurement() {
        let mut c = Circuit::new(1);
        c.measure(0).h(0);
        assert!(exact_distribution(&c, seq_pool()).is_err());
    }

    #[test]
    fn shot_record_value_of_is_little_endian() {
        let rec = ShotRecord { outcomes: vec![(0, 1), (1, 0), (2, 1)] };
        assert_eq!(rec.value_of(&[0, 1, 2]), 0b101);
        assert_eq!(rec.value_of(&[2, 1, 0]), 0b101u64.reverse_bits() >> 61);
        assert_eq!(rec.bitstring(), "101");
    }

    #[test]
    fn remeasured_qubit_uses_last_outcome() {
        // X then measure gives 1; reset-like X·X then measure gives 0 —
        // simulate by measuring twice around an X.
        let mut c = Circuit::new(1);
        c.x(0).measure(0).x(0).measure(0);
        let mut state = StateVector::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        let rec = run_once(&mut state, &c, &mut rng);
        assert_eq!(rec.outcomes, vec![(0, 1), (0, 0)]);
        assert_eq!(rec.bitstring(), "0");
    }

    #[test]
    fn shot_parallel_conserves_total_and_distribution() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 1000, seed: Some(5), ..Default::default() };
        for tasks in [1, 2, 3, 7] {
            let counts = run_shots_task_parallel(&circuit, tasks, 1, &config);
            assert_eq!(counts.values().sum::<usize>(), 1000, "tasks={tasks}");
            assert!(counts.keys().all(|k| k == "00" || k == "11"), "tasks={tasks}: {counts:?}");
            let p00 = counts.get("00").copied().unwrap_or(0) as f64 / 1000.0;
            assert!((p00 - 0.5).abs() < 0.1, "tasks={tasks}: p00={p00}");
        }
    }

    #[test]
    fn shot_parallel_uneven_split() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 10, seed: Some(6), ..Default::default() };
        let counts = run_shots_task_parallel(&circuit, 3, 1, &config);
        assert_eq!(counts.values().sum::<usize>(), 10);
    }

    #[test]
    fn derive_stream_seed_keeps_chunk_zero_identity() {
        assert_eq!(derive_stream_seed(42, 0), 42);
        assert_ne!(derive_stream_seed(42, 1), derive_stream_seed(42, 2));
    }

    #[test]
    fn auto_plan_runs_small_kernel_in_one_inline_chunk() {
        // Bell at 512 shots costs ~16 amplitude updates per shot — far below
        // the dispatch budget, so the plan must collapse to a single chunk
        // with no amplitude-loop work-sharing (the 100×-overhead fix).
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 512, seed: Some(1), ..Default::default() };
        let plan = ShotPlan::for_circuit(&circuit, &config);
        assert_eq!(plan.num_chunks(), 1);
        assert!(!plan.inner_parallel());
    }

    #[test]
    fn auto_plan_uses_inner_parallelism_for_large_states() {
        let mut circuit = Circuit::new(15);
        for q in 0..15 {
            circuit.h(q);
        }
        let config = RunConfig { shots: 16, seed: Some(1), ..Default::default() };
        let plan = ShotPlan::for_circuit(&circuit, &config);
        assert!(plan.inner_parallel());
        assert_eq!(plan.num_chunks(), 1);
        // Asking for task-level parallelism overrides the single work item.
        let plan2 = ShotPlan::for_tasks(&circuit, &config, 4);
        assert!(!plan2.inner_parallel());
        assert_eq!(plan2.num_chunks(), 4);
    }

    #[test]
    fn sequential_granularity_preserves_legacy_path() {
        let circuit = library::bell_kernel();
        let config = RunConfig {
            shots: 64,
            seed: Some(9),
            granularity: Granularity::Sequential,
            ..Default::default()
        };
        let plan = ShotPlan::for_circuit(&circuit, &config);
        assert!(plan.inner_parallel());
        assert_eq!(plan.num_chunks(), 1);
        // Single-chunk runs reuse the base seed, so the scheduler output is
        // byte-identical to the legacy sequential executor.
        let auto =
            run_shots(&circuit, seq_pool(), &RunConfig { granularity: Granularity::Auto, ..config.clone() });
        let seq = run_shots(&circuit, seq_pool(), &config);
        assert_eq!(auto, seq);
    }

    #[test]
    fn explicit_chunk_shots_is_honored() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 100, seed: Some(3), chunk_shots: Some(7), ..Default::default() };
        let plan = ShotPlan::for_circuit(&circuit, &config);
        assert_eq!(plan.chunk_shots(), 7);
        assert_eq!(plan.num_chunks(), 15);
        let spans: Vec<_> = plan.chunks().collect();
        assert_eq!(spans.first().unwrap().clone(), 0..7);
        assert_eq!(spans.last().unwrap().clone(), 98..100);
        assert_eq!(spans.iter().map(|s| s.len()).sum::<usize>(), 100);
    }

    #[test]
    fn oversubscribed_tasks_never_create_empty_work() {
        // The pre-scheduler executor spawned `tasks` OS threads each with a
        // pool and a full state vector even when a task had zero shots.
        // The plan must clamp instead.
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 3, seed: Some(4), ..Default::default() };
        let plan = ShotPlan::for_tasks(&circuit, &config, 64);
        assert!(plan.num_chunks() <= 3, "at most one chunk per shot, got {}", plan.num_chunks());
        assert!(plan.chunks().all(|s| !s.is_empty()));
        let counts = run_shots_task_parallel(&circuit, 64, 1, &config);
        assert_eq!(counts.values().sum::<usize>(), 3);
    }

    #[test]
    fn zero_shots_zero_chunks() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 0, seed: Some(1), ..Default::default() };
        let plan = ShotPlan::for_tasks(&circuit, &config, 8);
        assert_eq!(plan.num_chunks(), 0);
        assert_eq!(plan.chunks().count(), 0);
        assert!(run_shots_task_parallel(&circuit, 8, 1, &config).is_empty());
    }

    #[test]
    fn fixed_schedule_is_reproducible_across_runs_and_pools() {
        let circuit = library::bell_kernel();
        for (shots, tasks, chunk) in [(1000, 3, Some(16)), (10, 3, None), (5, 7, Some(2))] {
            let config = RunConfig { shots, seed: Some(11), chunk_shots: chunk, ..Default::default() };
            let a = run_shots_task_parallel(&circuit, tasks, 1, &config);
            let b = run_shots_task_parallel(&circuit, tasks, 2, &config);
            let c = run_shots_task_parallel(&circuit, tasks, 1, &config);
            assert_eq!(a, b, "thread count must not change the schedule's counts");
            assert_eq!(a, c, "re-running a fixed (seed, tasks, chunk_shots) must be identical");
        }
    }

    #[test]
    fn qft_matches_dft_matrix() {
        // QFT|x⟩ amplitudes must equal e^{2πi x y / M} / √M for each y.
        use crate::complex::Complex64;
        let n = 3;
        let m_size = 1usize << n;
        for x in 0..m_size {
            let mut prep = Circuit::new(n);
            for q in 0..n {
                if x >> q & 1 == 1 {
                    prep.x(q);
                }
            }
            let mut full = prep.clone();
            full.extend(&library::qft(n));
            let mut state = StateVector::new(n);
            let mut rng = StdRng::seed_from_u64(0);
            run_once(&mut state, &full, &mut rng);
            let scale = 1.0 / (m_size as f64).sqrt();
            for y in 0..m_size {
                let angle = std::f64::consts::TAU * (x as f64) * (y as f64) / m_size as f64;
                let expect = Complex64::from_polar(scale, angle);
                assert!(
                    state.amp(y).approx_eq(expect, 1e-10),
                    "x={x} y={y}: got {} expected {}",
                    state.amp(y),
                    expect
                );
            }
        }
    }

    #[test]
    fn precancelled_token_skips_every_chunk() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 64, seed: Some(5), ..Default::default() };
        let plan = ShotPlan::with_chunk_shots(64, 8);
        let token = CancelToken::new();
        token.cancel();
        let run = run_shots_cancellable(&circuit, seq_pool(), &config, &plan, &token);
        assert_eq!((run.completed_chunks, run.total_chunks), (0, 8));
        assert!(run.cancelled);
        assert!(run.counts.is_empty());
    }

    #[test]
    fn mid_run_cancel_keeps_the_completed_prefix_deterministic() {
        // Cancel from another thread while the sweep runs on a 1-thread
        // pool (chunks start strictly in plan order, so the completed set
        // is always a prefix). Whatever prefix completes, its merged
        // counts must be byte-identical to re-running exactly those chunks
        // on their derived RNG streams — cancellation truncates, never
        // corrupts.
        let circuit = library::ghz_kernel(10);
        let base = 11u64;
        let config = RunConfig { shots: 256, seed: Some(base), ..Default::default() };
        let plan = ShotPlan::with_chunk_shots(256, 8);
        let token = CancelToken::new();
        let remote = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            remote.cancel();
        });
        let run = run_shots_cancellable(&circuit, seq_pool(), &config, &plan, &token);
        canceller.join().unwrap();
        assert_eq!(run.total_chunks, 32);
        assert_eq!(run.cancelled, run.completed_chunks < run.total_chunks);
        let mut expected = Counts::new();
        for (index, span) in plan.chunks().enumerate().take(run.completed_chunks) {
            let chunk_cfg = RunConfig {
                shots: span.len(),
                seed: Some(derive_stream_seed(base, index)),
                ..Default::default()
            };
            let chunk_plan = ShotPlan::with_chunk_shots(span.len(), span.len());
            for (bits, n) in run_shots_planned(&circuit, seq_pool(), &chunk_cfg, &chunk_plan) {
                *expected.entry(bits).or_insert(0) += n;
            }
        }
        assert_eq!(run.counts, expected);
        assert_eq!(run.counts.values().sum::<usize>(), run.completed_chunks * 8);
    }

    #[test]
    fn run_shots_planned_honors_the_thread_token() {
        // The implicit path: a token installed on the calling thread (as
        // the execution service does around task bodies) is picked up by
        // `run_shots_planned` without any signature change.
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 64, seed: Some(9), ..Default::default() };
        let plan = ShotPlan::with_chunk_shots(64, 8);
        let token = CancelToken::new();
        token.cancel();
        let previous = crate::cancel::set_thread_cancel_token(Some(token));
        let counts = run_shots_planned(&circuit, seq_pool(), &config, &plan);
        crate::cancel::set_thread_cancel_token(previous);
        assert!(counts.is_empty(), "a cancelled thread token must stop the sweep at chunk 0");
    }
}
