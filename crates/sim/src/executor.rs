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
//! Every repeated-sampling run goes through one core, [`ShotPlan::execute`].
//! A [`ShotPlan`] partitions the `shots` repetitions into contiguous
//! **chunks**: of [`RunConfig::chunk_shots`] shots when that is set, else
//! sized by cost — the estimated cost of one shot (`instruction count ×
//! 2^qubits` amplitude updates) is compared against a fixed per-dispatch
//! budget and shots are grouped until a chunk amortizes its dispatch, while
//! a state large enough for its sweeps to fork stays one chunk.
//! [`ShotPlan::for_tasks`] caps the chunk at `ceil(shots / tasks)`.
//!
//! **Dispatch rule.** A plan of one chunk runs on the caller's thread, on a
//! state that holds the run's pool at [`RunConfig::par_threshold`]: the
//! kernels' fork rule ([`crate::FORK_MIN_BYTES_PER_THREAD`]) decides per
//! sweep whether it is work-shared (the paper's inner simulator level). A
//! plan of more than one chunk becomes one [`ThreadPool::submit_batch`] job
//! per chunk, each on a private sequential state (the shot level).
//!
//! **Determinism contract.** Chunk `i` seeds its own `StdRng` with
//! [`derive_stream_seed`]`(seed, i)` — chunk 0 reuses the seed unchanged —
//! and chunk counts merge by addition. Measurement reductions fold a fixed
//! partition in a fixed order whether or not they fork
//! ([`qcor_pool::ThreadPool::parallel_reduce_ordered`]). So for a fixed
//! `(seed, tasks, chunk_shots)` the merged [`Counts`] are byte-identical
//! across runs, pool sizes and fork floors. Another partition changes which
//! stream each shot draws from: the counts differ in detail, the sampled
//! distribution does not. A cancelled run ([`CancelToken`]) stops at a
//! chunk boundary, and its counts are exactly those of the chunks that
//! completed.
//!
//! The pre-scheduler executor (every shot on the caller, a fork/join per
//! sweep) stays reachable for A/B runs as `chunk_shots = shots` with
//! `par_threshold = 1`.
//!
//! # The per-shot draw protocol
//!
//! Every shot draws from its chunk's stream in this order:
//!
//! 1. **Channel decisions** (noisy plans whose channels are all
//!    state-independent): one draw per depolarizing or dephasing site in op
//!    order, plus a Pauli draw for each depolarizing site that fires — see
//!    [`crate::noise`]. Amplitude damping draws inline during the replay
//!    instead, against the live state.
//! 2. **Replay to the terminal suffix.** A circuit's measurements are
//!    terminal when it holds no reset and no gate follows any `Measure`
//!    ([`crate::compile::terminal_suffix`], decided once at lowering). The
//!    shot replays the ops before the first `Measure`. A noisy shot where
//!    no channel fired skips this step: it reads the plan's clean state,
//!    evolved once per plan before the chunks are dispatched and shared
//!    read-only. A noisy shot where some channel fired starts from a
//!    snapshot of the clean interleaved stream: the plan's last one at or
//!    before its first fired channel, taken once per plan, on its first
//!    fired shot ([`crate::noise`]). The ops it skips are clean ops. They
//!    apply the same bits to every shot and draw nothing, so this step
//!    draws nothing and leaves the same state as a replay from op 0.
//! 3. **One `f64`** `u ∈ [0, 1)`, mapped to a basis index by
//!    [`StateVector::sample_index`]: the first index whose running |amp|²
//!    sum exceeds `u · total`, found by walking the block sums of the
//!    measurement reductions' fixed partition, so the index is the same
//!    on any pool and fork floor. Each terminal `Measure` records that index's bit at its
//!    physical location, in program order. A suffix without a `Measure`
//!    draws nothing.
//! 4. **Readout flips** (noisy plans with a non-zero readout error): one
//!    draw per terminal `Measure`, in program order.
//!
//! A circuit with mid-circuit measurement or reset is not sampled: it
//! replays in full per shot, one draw per `Measure`/`Reset`
//! ([`CompiledCircuit::run_once`], with each noisy `Measure` followed by
//! its readout draw). [`CompiledCircuit::run_once`] keeps that per-qubit
//! protocol for every circuit, as the oracle the sampled path is tested
//! against.
//!
//! # Compile-then-execute
//!
//! Each run compiles the circuit **once per plan** into a
//! [`CompiledCircuit`] (gate fusion, precomputed matrices and control
//! masks — see [`crate::compile`]) through the structural compile cache
//! ([`crate::cache`]) and replays the fused op list per shot; per-shot
//! instruction dispatch and matrix re-derivation are gone. The
//! per-instruction interpreter ([`run_once_interpreted`]) stays as the
//! test oracle: driven through the same protocol (interpret up to the
//! terminal suffix, then one [`StateVector::sample_index`] draw) it
//! consumes the identical RNG stream, so seeded counts agree with the
//! compiled replay.
//!
//! Bitstring convention: the leftmost character is the outcome of the
//! lowest-indexed *measured* qubit.

use crate::cache::compile_cached;
use crate::cancel::CancelToken;
use crate::compile::CompiledCircuit;
use crate::density::NoiseModel;
use crate::gates::apply_instruction;
use crate::noise::{compile_noisy, run_trajectory_once, CleanState, NoisyCompiled};
use crate::state::{StateVector, FORK_MIN_BYTES_PER_THREAD, INNER_PAR_MIN_AMPS};
use qcor_circuit::Circuit;
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
/// The circuit is compiled through the structural compile cache (gate
/// fusion + kernel classification, see [`CompiledCircuit`]) and replayed.
/// `run_once` sits in per-shot hot loops (semiclassical QPE re-invokes a
/// freshly built circuit per shot), exactly the sweep shape the cache
/// accelerates. Callers running the same circuit repeatedly should compile
/// once and call [`CompiledCircuit::run_once`] per shot — that is what the
/// shot scheduler does.
pub fn run_once(state: &mut StateVector, circuit: &Circuit, rng: &mut impl Rng) -> ShotRecord {
    compile_cached(circuit).run_once(state, rng)
}

/// Run `circuit` once by interpreting each instruction in turn — the
/// pre-compilation executor, kept as the oracle the `perf_guards::gatefuse`
/// timing guard and the fused-vs-interpreted equivalence tests compare the
/// compiled replay against.
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

/// Configuration for repeated sampling.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of repetitions.
    pub shots: usize,
    /// RNG seed (`None` = entropy from the OS).
    pub seed: Option<u64>,
    /// Fork floor of a one-chunk run's state: minimum bytes of a sweep per
    /// team thread before the sweep is work-shared over the pool (default
    /// [`FORK_MIN_BYTES_PER_THREAD`]; `1` = Quantum++'s unconditional
    /// forking — see [`StateVector::set_par_threshold`]). Not part of the
    /// determinism tuple: counts do not depend on it.
    pub par_threshold: usize,
    /// Explicit shots-per-chunk override (`None` = size chunks by cost, see
    /// the [module docs](self)). Part of the determinism tuple: fixed
    /// `(seed, tasks, chunk_shots)` reproduces merged counts exactly.
    pub chunk_shots: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig { shots: 1024, seed: None, par_threshold: FORK_MIN_BYTES_PER_THREAD, chunk_shots: None }
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

/// A partition of `shots` repetitions into contiguous chunks.
///
/// The plan is a pure function of `(circuit, config, tasks)` — never of the
/// pool size — which is what makes seeded counts invariant under the pool
/// actually used to execute it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShotPlan {
    shots: usize,
    chunk_shots: usize,
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
        let requested = match config.chunk_shots {
            Some(k) => k.max(1),
            // From this size a full-width sweep passes the kernels' fork
            // rule, so a run left as one chunk on the caller lets the
            // amplitude loops carry the parallelism.
            None if 1usize << circuit.num_qubits() >= INNER_PAR_MIN_AMPS => shots.max(1),
            None => (TARGET_CHUNK_AMP_OPS / shot_cost(circuit)).max(1) as usize,
        };
        ShotPlan { shots, chunk_shots: requested.min(per_task).max(1) }
    }

    /// Number of chunks in the partition. Zero shots → zero chunks: an
    /// over-subscribed or empty request never creates empty work items.
    pub fn num_chunks(&self) -> usize {
        self.shots.div_ceil(self.chunk_shots)
    }

    /// The contiguous shot ranges of the partition, in order. Together the
    /// ranges cover `0..shots` exactly once and none is empty.
    pub fn chunks(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        let (shots, chunk) = (self.shots, self.chunk_shots);
        (0..shots).step_by(chunk).map(move |lo| lo..(lo + chunk).min(shots))
    }

    /// Execute the plan: `config.shots` repetitions of `circuit` on `pool`,
    /// dispatched by the rule in the [module docs](self), with the merged
    /// counts of every chunk that ran.
    ///
    /// `noise` = `Some((model, readout))` samples noisy trajectories
    /// instead: channels are lowered once ([`compile_noisy`]) and every shot
    /// draws its Kraus branches, measurement outcomes and readout flips
    /// (per-bit flip probability `readout`) from its chunk's stream.
    /// `token` is checked before each chunk starts; a cancelled run skips
    /// every chunk that has not started yet.
    ///
    /// Every shot follows the [draw protocol](self#the-per-shot-draw-protocol):
    /// its terminal measurements cost one draw against the evolved state
    /// instead of a probability sweep and a collapse sweep per qubit. A
    /// noisy shot where no channel fires replays nothing, since the plan's
    /// clean state is evolved once, and a shot where one fires replays only
    /// from the last clean-stream snapshot before it. A noiseless shot
    /// still replays its unitary prefix: evolving it once per plan as well
    /// (the rest of "evolve once, sample many") is left for later, and
    /// circuits with mid-circuit measurement or reset replay in full either
    /// way.
    pub fn execute(
        &self,
        circuit: &Circuit,
        pool: Arc<ThreadPool>,
        config: &RunConfig,
        noise: Option<(&NoiseModel, f64)>,
        token: Option<&CancelToken>,
    ) -> ShotRun {
        let total_chunks = self.num_chunks();
        let mut counts = Counts::new();
        if total_chunks == 0 {
            return ShotRun { counts, completed_chunks: 0, total_chunks, cancelled: false };
        }
        crate::stats::record_shot_plan();
        let base_seed = config.seed.unwrap_or_else(|| StdRng::from_entropy().gen());
        // Compile once per plan; every chunk replays the same op list. A
        // noisy plan's clean state is evolved here, once, and shared
        // read-only by the chunks, which take its snapshots on the first
        // fired shot.
        let exec = match noise {
            Some((model, readout)) => {
                let plan = compile_noisy(circuit, model);
                let clean = plan.clean_state(Arc::clone(&pool), config.par_threshold);
                ShotExec::Trajectory { plan, readout, clean }
            }
            None => ShotExec::Compiled(compile_cached(circuit)),
        };
        let run_chunk = |index: usize, shots: usize, mut state: StateVector| {
            if token.is_some_and(CancelToken::is_cancelled) {
                return None;
            }
            let mut rng = StdRng::seed_from_u64(derive_stream_seed(base_seed, index));
            let mut counts = Counts::new();
            for shot in 0..shots {
                if shot > 0 {
                    state.reset_to_zero();
                }
                *counts.entry(exec.run_once(&mut state, &mut rng).bitstring()).or_insert(0) += 1;
            }
            Some(counts)
        };
        let partials = if total_chunks == 1 {
            let mut state = StateVector::with_pool(circuit.num_qubits(), pool);
            state.set_par_threshold(config.par_threshold);
            vec![run_chunk(0, self.shots, state)]
        } else {
            let run_chunk = &run_chunk;
            let jobs: Vec<_> = self
                .chunks()
                .enumerate()
                .map(|(index, span)| {
                    move || run_chunk(index, span.len(), StateVector::new(circuit.num_qubits()))
                })
                .collect();
            pool.submit_batch(jobs)
        };
        let mut completed_chunks = 0;
        for partial in partials.into_iter().flatten() {
            completed_chunks += 1;
            for (bits, count) in partial {
                *counts.entry(bits).or_insert(0) += count;
            }
        }
        ShotRun { counts, completed_chunks, total_chunks, cancelled: completed_chunks < total_chunks }
    }
}

/// The executor a shot plan runs per shot: the circuit compiled once into
/// fused kernel ops, or the noisy trajectory sampler with the plan's
/// shared clean state and its snapshots, taken on the first fired shot
/// (see [`NoisyCompiled::shares_clean_state`]).
enum ShotExec {
    Compiled(CompiledCircuit),
    Trajectory { plan: NoisyCompiled, readout: f64, clean: Option<CleanState> },
}

impl ShotExec {
    fn run_once(&self, state: &mut StateVector, rng: &mut impl Rng) -> ShotRecord {
        match self {
            ShotExec::Compiled(compiled) => compiled.sample_once(state, rng),
            ShotExec::Trajectory { plan, readout, clean } => {
                run_trajectory_once(plan, *readout, state, rng, clean.as_ref())
            }
        }
    }
}

/// Read a terminal measurement suffix from `state` with one draw: a
/// `u ∈ [0, 1)` mapped to a basis index by [`StateVector::sample_index`],
/// then one outcome per `(qubit, loc)` of `measures` (program order): the
/// index's bit at physical `loc`, recorded for logical `qubit`. A suffix
/// without a measurement draws nothing.
pub(crate) fn sample_outcomes(
    state: &StateVector,
    measures: impl Iterator<Item = (usize, usize)>,
    rng: &mut impl Rng,
) -> ShotRecord {
    let mut measures = measures.peekable();
    if measures.peek().is_none() {
        return ShotRecord::default();
    }
    let index = state.sample_index(rng.gen());
    ShotRecord { outcomes: measures.map(|(qubit, loc)| (qubit, (index >> loc & 1) as u8)).collect() }
}

/// The outcome of a [`ShotPlan::execute`]: the merged counts of every chunk
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

/// Sample `circuit` for `config.shots` repetitions on `pool` and return the
/// counts of the measured bitstrings: [`ShotPlan::for_circuit`]'s plan,
/// [`ShotPlan::execute`]d under the calling thread's cooperative
/// [`CancelToken`] ([`crate::cancel::thread_cancel_token`], installed by
/// execution layers such as the `qcor-core` execution service around task
/// bodies).
pub fn run_shots(circuit: &Circuit, pool: Arc<ThreadPool>, config: &RunConfig) -> Counts {
    let token = crate::cancel::thread_cancel_token();
    ShotPlan::for_circuit(circuit, config).execute(circuit, pool, config, None, token.as_ref()).counts
}

/// [`run_shots`] under `noise`, with per-bit readout flip probability
/// `readout`: trajectory sampling on the same scheduler, under the same
/// determinism contract.
pub fn run_noisy_shots(
    circuit: &Circuit,
    noise: &NoiseModel,
    readout: f64,
    pool: Arc<ThreadPool>,
    config: &RunConfig,
) -> Counts {
    let token = crate::cancel::thread_cancel_token();
    let plan = ShotPlan::for_circuit(circuit, config);
    plan.execute(circuit, pool, config, Some((noise, readout)), token.as_ref()).counts
}

/// Exact output distribution of a circuit whose measurements are terminal
/// ([`crate::compile::terminal_suffix`]): evolves the compiled unitary
/// prefix once and returns the probability of each basis state. Errors on
/// a reset or a non-terminal measurement.
pub fn exact_distribution(circuit: &Circuit, pool: Arc<ThreadPool>) -> Result<Vec<f64>, String> {
    let compiled = compile_cached(circuit);
    let mut state = StateVector::with_pool(circuit.num_qubits(), pool);
    if !compiled.evolve_prefix(&mut state) {
        return Err("exact_distribution requires terminal measurements and no reset".to_string());
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

    /// `tasks`-way shot-level parallelism on a pool of `threads`.
    fn task_parallel(circuit: &Circuit, tasks: usize, threads: usize, config: &RunConfig) -> Counts {
        let pool = Arc::new(ThreadPool::new(threads));
        ShotPlan::for_tasks(circuit, config, tasks).execute(circuit, pool, config, None, None).counts
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
            let counts = task_parallel(&circuit, tasks, tasks, &config);
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
        let counts = task_parallel(&circuit, 3, 3, &config);
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
        // on the caller (the 100×-overhead fix).
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 512, seed: Some(1), ..Default::default() };
        let plan = ShotPlan::for_circuit(&circuit, &config);
        assert_eq!(plan.num_chunks(), 1);
    }

    #[test]
    fn auto_plan_keeps_large_states_in_one_chunk() {
        let mut circuit = Circuit::new(15);
        for q in 0..15 {
            circuit.h(q);
        }
        let config = RunConfig { shots: 16, seed: Some(1), ..Default::default() };
        assert_eq!(ShotPlan::for_circuit(&circuit, &config).num_chunks(), 1);
        // Asking for task-level parallelism splits the single chunk.
        assert_eq!(ShotPlan::for_tasks(&circuit, &config, 4).num_chunks(), 4);
    }

    #[test]
    fn explicit_chunk_shots_is_honored() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 100, seed: Some(3), chunk_shots: Some(7), ..Default::default() };
        let plan = ShotPlan::for_circuit(&circuit, &config);
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
        let counts = task_parallel(&circuit, 64, 2, &config);
        assert_eq!(counts.values().sum::<usize>(), 3);
    }

    #[test]
    fn zero_shots_zero_chunks() {
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 0, seed: Some(1), ..Default::default() };
        let plan = ShotPlan::for_tasks(&circuit, &config, 8);
        assert_eq!(plan.num_chunks(), 0);
        assert_eq!(plan.chunks().count(), 0);
        assert!(task_parallel(&circuit, 8, 2, &config).is_empty());
    }

    #[test]
    fn fixed_schedule_is_reproducible_across_runs_and_pools() {
        let circuit = library::bell_kernel();
        for (shots, tasks, chunk) in [(1000, 3, Some(16)), (10, 3, None), (5, 7, Some(2))] {
            let config = RunConfig { shots, seed: Some(11), chunk_shots: chunk, ..Default::default() };
            let a = task_parallel(&circuit, tasks, 1, &config);
            let b = task_parallel(&circuit, tasks, 2, &config);
            let c = task_parallel(&circuit, tasks, 1, &config);
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
        let config = RunConfig { shots: 64, seed: Some(5), chunk_shots: Some(8), ..Default::default() };
        let token = CancelToken::new();
        token.cancel();
        let run = ShotPlan::for_circuit(&circuit, &config).execute(
            &circuit,
            seq_pool(),
            &config,
            None,
            Some(&token),
        );
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
        let config = RunConfig { shots: 256, seed: Some(base), chunk_shots: Some(8), ..Default::default() };
        let plan = ShotPlan::for_circuit(&circuit, &config);
        let token = CancelToken::new();
        let remote = token.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            remote.cancel();
        });
        let run = plan.execute(&circuit, seq_pool(), &config, None, Some(&token));
        canceller.join().unwrap();
        assert_eq!(run.total_chunks, 32);
        assert_eq!(run.cancelled, run.completed_chunks < run.total_chunks);
        let mut expected = Counts::new();
        for (index, span) in plan.chunks().enumerate().take(run.completed_chunks) {
            let chunk_cfg = RunConfig {
                shots: span.len(),
                seed: Some(derive_stream_seed(base, index)),
                chunk_shots: Some(span.len()),
                ..Default::default()
            };
            for (bits, n) in run_shots(&circuit, seq_pool(), &chunk_cfg) {
                *expected.entry(bits).or_insert(0) += n;
            }
        }
        assert_eq!(run.counts, expected);
        assert_eq!(run.counts.values().sum::<usize>(), run.completed_chunks * 8);
    }

    #[test]
    fn run_shots_honors_the_thread_token() {
        // The implicit path: a token installed on the calling thread (as
        // the execution service does around task bodies) is picked up by
        // `run_shots` without any signature change.
        let circuit = library::bell_kernel();
        let config = RunConfig { shots: 64, seed: Some(9), chunk_shots: Some(8), ..Default::default() };
        let token = CancelToken::new();
        token.cancel();
        let previous = crate::cancel::set_thread_cancel_token(Some(token));
        let counts = run_shots(&circuit, seq_pool(), &config);
        crate::cancel::set_thread_cancel_token(previous);
        assert!(counts.is_empty(), "a cancelled thread token must stop the sweep at chunk 0");
    }
}
