//! Noise-channel lowering: compile a circuit **plus** a [`NoiseModel`]
//! into one replayable op stream shared by the density (exact) and
//! trajectory (sampled) executors.
//!
//! [`compile_noisy`] lowers unitary instruction runs through the regular
//! compiler ([`crate::CompiledCircuit`] — fused matrices, kernel
//! classification, structural compile cache) and interleaves
//! [`NoisyOp`] channel ops at the points where the model inserts noise:
//! after every unitary gate, one channel op per touched qubit, in the
//! fixed order depolarizing → dephasing → amplitude-damping (channels
//! with zero strength are omitted). Because a channel sits after every
//! gate, cross-gate fusion is only possible for a noiseless model — the
//! compiled win on noisy circuits comes from precomputing each gate's
//! matrix and kernel class once per plan instead of once per shot.
//!
//! The same op stream has two consumers:
//!
//! * **Density replay** ([`crate::DensityMatrix::run_noisy_circuit`]):
//!   channel ops become exact Kraus sums, measurements project.
//! * **Trajectory replay** (`run_trajectory_once`, driven per shot by
//!   [`crate::ShotPlan::execute`]): channel ops draw their Kraus
//!   branch from the chunk's RNG stream. The per-op draws are fixed —
//!   depolarizing: one `f64` draw, plus one `gen_range(0..3)` draw iff it
//!   fires; dephasing: one draw; amplitude damping: one draw (the jump
//!   probability `γ·P(1)` comes from the ordered reducer, so it is
//!   pool-size-invariant); mid-circuit measure: one draw, plus one
//!   readout-flip draw iff the readout error is non-zero; reset: one draw.
//!   Terminal measurements are one draw for the whole suffix plus one
//!   readout draw per `Measure`. The executor's module docs
//!   ([`crate::executor`]) write the whole per-shot order down once.
//!   Seeded trajectory counts are byte-identical on any pool size, exactly
//!   like the ideal scheduler's contract.
//!
//! When every channel in the model is **state-independent** (no amplitude
//! damping), the trajectory sampler draws all channel decisions up front
//! (same draws, same op order) before touching the state. A shot where no
//! channel fires — the common case at realistic error rates — is then an
//! ideal shot. When the measurements are also terminal, every such shot
//! reads the one clean state the plan evolved through the **fully fused**
//! noiseless plan ([`NoisyCompiled::shares_clean_state`]); otherwise it
//! replays that fused plan.
//!
//! A shot where some channel fired replays the unfused, interleaved
//! stream, but when the plan shares its clean state it does not start at
//! op 0. Every op before its first fired channel is a clean op, the same
//! for every shot. So the plan's first fired shot evolves the interleaved
//! stream once with no channel applied, and keeps the state just before
//! up to `MAX_SNAPSHOTS` (4) evenly spaced channel ops. The snapshots of
//! one plan hold at most `SNAPSHOT_BUDGET_BYTES` (64 KiB): a 10-qubit plan
//! keeps 4, a 12-qubit plan 1, a plan of 13 qubits or more none. Each
//! fired shot copies the last snapshot at or before its first fired
//! decision and replays from that snapshot's op and decision.
//!
//! Its record is byte-identical to a replay from op 0
//! (`run_trajectory_once` without a shared state, the oracle):
//!
//! * the channel decisions were drawn before the replay;
//! * a channel whose decision is 0 applies nothing;
//! * forked and inline kernels compute the same bits;
//! * the snapshot positions are a pure function of the plan.
//!
//! So each shot applies the same ops to the same amplitudes and makes the
//! same draws.

use crate::cache::compile_cached;
use crate::compile::{terminal_suffix, CompiledCircuit, CompiledTemplate, KernelOp};
use crate::complex::Complex64;
use crate::density::NoiseModel;
use crate::executor::{sample_outcomes, ShotRecord};
use crate::state::StateVector;
use qcor_circuit::{Circuit, GateKind};
use qcor_pool::ThreadPool;
use rand::Rng;
use std::sync::{Arc, OnceLock};

/// One op of a lowered noisy circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum NoisyOp {
    /// A fused unitary kernel op (see [`KernelOp`]; never `Measure`/`Reset`
    /// — those lower to the dedicated variants below).
    Unitary(KernelOp),
    /// Depolarizing channel of strength `p` on `qubit`.
    Depolarize { qubit: usize, p: f64 },
    /// Dephasing (phase-flip) channel of strength `p` on `qubit`.
    Dephase { qubit: usize, p: f64 },
    /// Amplitude damping of rate `gamma` on `qubit`.
    AmplitudeDamp { qubit: usize, gamma: f64 },
    /// Computational-basis measurement of `qubit`.
    Measure { qubit: usize },
    /// Reset `qubit` to |0⟩.
    Reset { qubit: usize },
}

/// A circuit lowered together with its noise model: compiled unitary runs
/// interleaved with channel ops, replayable exactly (density) or sampled
/// (trajectory).
#[derive(Debug, Clone)]
pub struct NoisyCompiled {
    num_qubits: usize,
    ops: Vec<NoisyOp>,
    source_len: usize,
    /// The fully fused noiseless compile of the source circuit, present
    /// when every channel decision is state-independent (no amplitude
    /// damping): shots where no channel fires replay this instead of the
    /// per-gate interleaved stream.
    fused: Option<CompiledCircuit>,
    /// Where the terminal measurement suffix starts in `ops`, when the
    /// source's measurements are terminal ([`terminal_suffix`]).
    terminal: Option<usize>,
}

impl NoisyCompiled {
    /// Qubit count of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The lowered op stream, in execution order.
    pub fn ops(&self) -> &[NoisyOp] {
        &self.ops
    }

    /// Number of lowered ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the source circuit lowered to nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of instructions in the source circuit.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// True when trajectory shots where no channel fires can replay the
    /// fully fused noiseless plan (all channels state-independent).
    pub fn has_clean_fast_path(&self) -> bool {
        self.fused.is_some()
    }

    /// True when the clean fast path's shots share one clean state: the
    /// fused plan's only non-unitary ops are its terminal measurements, so
    /// every shot where no channel fires samples the same evolved state.
    pub fn shares_clean_state(&self) -> bool {
        self.fused.as_ref().is_some_and(|fused| fused.terminal_start().is_some())
    }

    /// The clean state every channel-free shot samples, evolved once on
    /// `pool` at fork floor `par_threshold`, when the plan
    /// [shares one](NoisyCompiled::shares_clean_state); its snapshots of
    /// the interleaved stream are taken on the first fired shot.
    pub(crate) fn clean_state(&self, pool: Arc<ThreadPool>, par_threshold: usize) -> Option<CleanState> {
        if !self.shares_clean_state() {
            return None;
        }
        let mut state = StateVector::with_pool(self.num_qubits, pool);
        state.set_par_threshold(par_threshold);
        self.fused.as_ref()?.evolve_prefix(&mut state);
        Some(CleanState { state, snapshots: OnceLock::new() })
    }
}

/// Most snapshots of the interleaved clean stream one plan keeps.
const MAX_SNAPSHOTS: usize = 4;

/// Most bytes the snapshots of one plan hold: a 10-qubit plan keeps
/// [`MAX_SNAPSHOTS`], a 12-qubit plan one, a plan of 13 qubits or more none.
/// Every running plan holds its own: a 256 KiB budget (16 snapshots at 10
/// qubits) raised `noisy_traj`'s peak RSS by 17 % on a 2-CPU host, for a
/// further 13 % off the plan's time.
const SNAPSHOT_BUDGET_BYTES: usize = 64 << 10;

/// What every shot of a plan that
/// [shares its clean state](NoisyCompiled::shares_clean_state) reads: the
/// fused clean state channel-free shots sample, and the snapshots fired
/// shots resume from, taken on the first fired shot.
pub(crate) struct CleanState {
    state: StateVector,
    snapshots: OnceLock<Snapshots>,
}

impl CleanState {
    /// The plan's snapshots, taken on first use.
    fn snapshots(&self, plan: &NoisyCompiled) -> &Snapshots {
        self.snapshots.get_or_init(|| Snapshots::take(plan))
    }

    /// Load into `state` the last snapshot taken at or before the first
    /// fired decision of `fired`, and return the `(op, decision)` the
    /// replay resumes from — `(0, 0)`, leaving `state` alone, when there is
    /// none.
    fn resume(&self, plan: &NoisyCompiled, fired: &[u8], state: &mut StateVector) -> (usize, usize) {
        let first = fired.iter().position(|&pauli| pauli != 0).unwrap_or(fired.len());
        let snapshots = self.snapshots(plan);
        let taken = snapshots.marks.partition_point(|&(_, decision)| decision <= first);
        if taken == 0 {
            return (0, 0);
        }
        let len = state.len();
        state.copy_amplitudes_from(&snapshots.amps[(taken - 1) * len..taken * len]);
        snapshots.marks[taken - 1]
    }
}

/// States of the interleaved clean stream (every unitary op, no channel
/// applied), each taken just before one channel op.
struct Snapshots {
    /// `(op index, decision index)` of each snapshot's channel op, ascending.
    marks: Vec<(usize, usize)>,
    /// The snapshot states back to back, `2^n` amplitudes each.
    amps: Vec<Complex64>,
}

impl Snapshots {
    /// Evolve `plan`'s interleaved stream once on a sequential state and
    /// keep it before `K = min(MAX_SNAPSHOTS, channels, budget ÷ state
    /// bytes)` channel ops, spaced evenly over the decisions: the `i`-th
    /// (from 1) before decision `⌊i · channels / (K + 1)⌋`.
    fn take(plan: &NoisyCompiled) -> Snapshots {
        let channels: Vec<usize> = plan
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, NoisyOp::Depolarize { .. } | NoisyOp::Dephase { .. }))
            .map(|(index, _)| index)
            .collect();
        let state_bytes = std::mem::size_of::<Complex64>() << plan.num_qubits;
        let count = MAX_SNAPSHOTS.min(channels.len()).min(SNAPSHOT_BUDGET_BYTES / state_bytes);
        let marks: Vec<(usize, usize)> = (1..=count)
            .map(|i| i * channels.len() / (count + 1))
            .map(|decision| (channels[decision], decision))
            .collect();
        let mut amps = Vec::with_capacity(count << plan.num_qubits);
        if let Some(&(last, _)) = marks.last() {
            use crate::apply::ApplyState;
            let mut state = StateVector::new(plan.num_qubits);
            let mut next = marks.iter().map(|&(op, _)| op).peekable();
            for (index, op) in plan.ops[..=last].iter().enumerate() {
                if next.next_if_eq(&index).is_some() {
                    amps.extend_from_slice(state.amplitudes());
                }
                if let NoisyOp::Unitary(kernel) = op {
                    state.apply_kernel_op(kernel);
                }
            }
        }
        Snapshots { marks, amps }
    }
}

/// Lower `circuit` + `noise` into a [`NoisyCompiled`] op stream.
///
/// A noiseless model fuses across the whole unitary prefix and compiles
/// it through the structural compile cache
/// ([`crate::cache::compile_cached`]), so an angle sweep re-binds
/// templates instead of re-lowering. An active model flushes after every
/// gate (its channels are fusion barriers by construction) and lowers each
/// one-gate segment directly, by the cache's own miss path: a circuit has
/// more distinct one-gate structures than the cache holds, so looking them
/// up would only evict them in turn. The whole circuit's fused plan still
/// goes through the cache.
pub fn compile_noisy(circuit: &Circuit, noise: &NoiseModel) -> NoisyCompiled {
    let n = circuit.num_qubits();
    let active = !noise.is_noiseless();
    let mut ops: Vec<NoisyOp> = Vec::new();
    let mut pending = Circuit::new(n);
    let flush = |pending: &mut Circuit, ops: &mut Vec<NoisyOp>| {
        if pending.is_empty() {
            return;
        }
        let lowered = if active {
            CompiledTemplate::compile(pending).rebind(&pending.flat_params())
        } else {
            compile_cached(pending)
        };
        ops.extend(lowered.ops().iter().cloned().map(NoisyOp::Unitary));
        *pending = Circuit::new(n);
    };
    for inst in circuit.instructions() {
        match inst.gate {
            GateKind::Measure => {
                flush(&mut pending, &mut ops);
                ops.push(NoisyOp::Measure { qubit: inst.qubits[0] });
            }
            GateKind::Reset => {
                flush(&mut pending, &mut ops);
                ops.push(NoisyOp::Reset { qubit: inst.qubits[0] });
            }
            // Barriers stay inside the unitary run as fusion barriers and
            // never attract noise (they are not gates).
            GateKind::Barrier => {
                pending.push(inst.clone());
            }
            _ => {
                pending.push(inst.clone());
                if active {
                    flush(&mut pending, &mut ops);
                    for &q in &inst.qubits {
                        if noise.depolarizing > 0.0 {
                            ops.push(NoisyOp::Depolarize { qubit: q, p: noise.depolarizing });
                        }
                        if noise.dephasing > 0.0 {
                            ops.push(NoisyOp::Dephase { qubit: q, p: noise.dephasing });
                        }
                        if noise.amplitude_damping > 0.0 {
                            ops.push(NoisyOp::AmplitudeDamp { qubit: q, gamma: noise.amplitude_damping });
                        }
                    }
                }
            }
        }
    }
    flush(&mut pending, &mut ops);
    // State-independent channel decisions (depolarize/dephase draw against
    // a fixed probability; damping's jump probability reads the live
    // state) can all be drawn before the replay starts, so clean shots can
    // use a fully fused plan of the whole circuit.
    let pre_drawable = active
        && ops.iter().any(|op| matches!(op, NoisyOp::Depolarize { .. } | NoisyOp::Dephase { .. }))
        && !ops.iter().any(|op| matches!(op, NoisyOp::AmplitudeDamp { .. }));
    let fused = pre_drawable.then(|| compile_cached(circuit));
    let terminal = terminal_suffix(circuit)
        .map(|_| ops.iter().position(|op| matches!(op, NoisyOp::Measure { .. })).unwrap_or(ops.len()));
    NoisyCompiled { num_qubits: n, ops, source_len: circuit.len(), fused, terminal }
}

/// Replay one stochastic trajectory of `plan` against `state`, drawing
/// every Kraus branch, measurement and readout flip from `rng` in the
/// fixed protocol documented in the [module docs](self). `shared` is the
/// plan's shared clean state ([`NoisyCompiled::clean_state`]), if the
/// caller evolved it: channel-free shots sample it and fired shots resume
/// from its snapshots; `None` samples the fused plan and replays fired shots
/// from op 0, with the same record. Returns the shot's measurement record
/// (readout flips already applied).
pub(crate) fn run_trajectory_once(
    plan: &NoisyCompiled,
    readout: f64,
    state: &mut StateVector,
    rng: &mut impl Rng,
    shared: Option<&CleanState>,
) -> ShotRecord {
    assert!(
        plan.num_qubits <= StateVector::num_qubits(state),
        "noisy plan needs {} qubits but the state has {}",
        plan.num_qubits,
        StateVector::num_qubits(state)
    );
    let Some(fused) = &plan.fused else {
        return replay_interleaved(plan, readout, state, rng, None, (0, 0));
    };
    // All channel decisions are state-independent: draw them up front (one
    // entry per channel op, in op order, exactly the draws the interleaved
    // replay would make).
    let mut fired = Vec::new();
    let mut clean = true;
    for op in &plan.ops {
        match op {
            NoisyOp::Depolarize { p, .. } => {
                let pauli = if rng.gen::<f64>() < *p { 1 + rng.gen_range(0..3) as u8 } else { 0 };
                clean &= pauli == 0;
                fired.push(pauli);
            }
            NoisyOp::Dephase { p, .. } => {
                let pauli = if rng.gen::<f64>() < *p { 3 } else { 0 };
                clean &= pauli == 0;
                fired.push(pauli);
            }
            _ => {}
        }
    }
    if clean {
        // Nothing fired: this shot is an ideal shot — sample the shared
        // clean state (or the fused plan) and flip the recorded bits.
        let mut record = match shared {
            Some(shared) => fused.read_terminal(&shared.state, rng),
            None => fused.sample_once(state, rng),
        };
        flip_readout(&mut record, readout, rng);
        return record;
    }
    // Something fired: replay from the last snapshot at or before the first
    // fired decision, else from op 0.
    let start = shared.map_or((0, 0), |shared| shared.resume(plan, &fired, state));
    replay_interleaved(plan, readout, state, rng, Some(&fired), start)
}

/// One readout-flip draw per recorded outcome, in record order.
fn flip_readout(record: &mut ShotRecord, readout: f64, rng: &mut impl Rng) {
    if readout > 0.0 {
        for (_, bit) in &mut record.outcomes {
            if rng.gen::<f64>() < readout {
                *bit ^= 1;
            }
        }
    }
}

/// Apply the Pauli a channel drew: 0 = none, 1 = X, 2 = Y, 3 = Z.
fn apply_drawn_pauli(state: &mut StateVector, qubit: usize, which: u8) {
    match which {
        0 => {}
        1 => state.apply_antidiag(qubit, Complex64::ONE, Complex64::ONE, 0),
        2 => state.apply_antidiag(qubit, Complex64::new(0.0, -1.0), Complex64::new(0.0, 1.0), 0),
        _ => state.apply_diag(qubit, Complex64::ONE, Complex64::from_real(-1.0), 0),
    }
}

/// The interleaved trajectory replay of `plan.ops[start_op..]`, with
/// `state` as it stands before op `start_op` and `start_decision` channel
/// decisions already spent. `predrawn` carries the channel decisions when
/// they were drawn up front (state-independent models); `None` draws each
/// channel inline at its op, which is required for amplitude damping (its
/// jump probability reads the live state). A terminal measurement suffix
/// is read with one draw, then one readout draw per `Measure`.
fn replay_interleaved(
    plan: &NoisyCompiled,
    readout: f64,
    state: &mut StateVector,
    rng: &mut impl Rng,
    predrawn: Option<&[u8]>,
    (start_op, start_decision): (usize, usize),
) -> ShotRecord {
    use crate::apply::ApplyState;
    let mut record = ShotRecord::default();
    let mut next_decision = start_decision;
    let end = plan.terminal.unwrap_or(plan.ops.len());
    for op in &plan.ops[start_op..end] {
        match op {
            NoisyOp::Unitary(kernel) => state.apply_kernel_op(kernel),
            NoisyOp::Depolarize { qubit, p } => {
                let pauli = match predrawn {
                    Some(decisions) => {
                        next_decision += 1;
                        decisions[next_decision - 1]
                    }
                    None => {
                        if rng.gen::<f64>() < *p {
                            1 + rng.gen_range(0..3) as u8
                        } else {
                            0
                        }
                    }
                };
                apply_drawn_pauli(state, *qubit, pauli);
            }
            NoisyOp::Dephase { qubit, p } => {
                let pauli = match predrawn {
                    Some(decisions) => {
                        next_decision += 1;
                        decisions[next_decision - 1]
                    }
                    None => {
                        if rng.gen::<f64>() < *p {
                            3
                        } else {
                            0
                        }
                    }
                };
                apply_drawn_pauli(state, *qubit, pauli);
            }
            NoisyOp::AmplitudeDamp { qubit, gamma } => {
                // Jump/no-jump unraveling: K1 = √γ·|0⟩⟨1| fires with
                // probability γ·P(1); otherwise K0 = diag(1, √(1−γ))
                // applies, renormalized.
                let p1 = state.prob_one(*qubit);
                let p_jump = gamma * p1;
                if rng.gen::<f64>() < p_jump {
                    state.collapse(*qubit, 1, p1);
                    state.apply_antidiag(*qubit, Complex64::ONE, Complex64::ONE, 0);
                } else {
                    let norm = (1.0 - p_jump).sqrt();
                    state.apply_diag(
                        *qubit,
                        Complex64::from_real(1.0 / norm),
                        Complex64::from_real((1.0 - gamma).sqrt() / norm),
                        0,
                    );
                }
            }
            NoisyOp::Measure { qubit } => {
                let mut bit = state.measure(*qubit, rng);
                if readout > 0.0 && rng.gen::<f64>() < readout {
                    bit ^= 1;
                }
                record.outcomes.push((*qubit, bit));
            }
            NoisyOp::Reset { qubit } => state.reset(*qubit, rng),
        }
    }
    if plan.terminal.is_some() {
        let measures = plan.ops[end..].iter().filter_map(|op| match *op {
            NoisyOp::Measure { qubit } => Some((qubit, qubit)),
            _ => None,
        });
        record = sample_outcomes(state, measures, rng);
        flip_readout(&mut record, readout, rng);
    }
    record
}

/// Convolve an exact outcome distribution with an independent per-bit
/// readout (bit-flip) error of probability `p` — the classical
/// post-processing equivalent of flipping each recorded bit with
/// probability `p`, used by the `qpp-density` backend.
pub fn apply_readout_error(
    dist: &std::collections::BTreeMap<String, f64>,
    p: f64,
) -> std::collections::BTreeMap<String, f64> {
    if p <= 0.0 {
        return dist.clone();
    }
    let mut out: std::collections::BTreeMap<String, f64> = Default::default();
    for (bits, &prob) in dist {
        let k = bits.len();
        // Enumerate every flip pattern; distributions here are over a
        // handful of measured qubits (k ≤ 12 by the density size cap).
        for pattern in 0..(1usize << k) {
            let flips = pattern.count_ones() as i32;
            let weight = p.powi(flips) * (1.0 - p).powi(k as i32 - flips);
            if weight <= 0.0 {
                continue;
            }
            let flipped: String = bits
                .bytes()
                .enumerate()
                .map(|(i, b)| if pattern >> i & 1 == 1 { (b ^ 1) as char } else { b as char })
                .collect();
            *out.entry(flipped).or_insert(0.0) += prob * weight;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcor_circuit::library;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_lowering_fuses_across_gates() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).s(0).cx(0, 1).measure_all();
        let plan = compile_noisy(&c, &NoiseModel::default());
        // The single-qubit run fuses: fewer unitary ops than gates.
        let unitaries = plan.ops().iter().filter(|op| matches!(op, NoisyOp::Unitary(_))).count();
        assert!(unitaries < 4, "noiseless lowering must fuse the unitary prefix, got {unitaries}");
        let measures = plan.ops().iter().filter(|op| matches!(op, NoisyOp::Measure { .. })).count();
        assert_eq!(measures, 2);
    }

    #[test]
    fn active_noise_interleaves_channel_ops_in_canonical_order() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1);
        let noise = NoiseModel { depolarizing: 0.1, dephasing: 0.2, amplitude_damping: 0.3 };
        let plan = compile_noisy(&c, &noise);
        // h(0): 1 qubit → depol, dephase, damp; cx(0,1): 2 qubits → 6 ops.
        let channels: Vec<&NoisyOp> =
            plan.ops().iter().filter(|op| !matches!(op, NoisyOp::Unitary(_))).collect();
        assert_eq!(channels.len(), 9, "{channels:?}");
        assert!(matches!(channels[0], NoisyOp::Depolarize { qubit: 0, .. }));
        assert!(matches!(channels[1], NoisyOp::Dephase { qubit: 0, .. }));
        assert!(matches!(channels[2], NoisyOp::AmplitudeDamp { qubit: 0, .. }));
    }

    #[test]
    fn zero_strength_channels_are_omitted() {
        let mut c = Circuit::new(1);
        c.h(0);
        let noise = NoiseModel { depolarizing: 0.05, ..Default::default() };
        let plan = compile_noisy(&c, &noise);
        assert!(plan.ops().iter().all(|op| !matches!(op, NoisyOp::Dephase { .. })));
        assert!(plan.ops().iter().all(|op| !matches!(op, NoisyOp::AmplitudeDamp { .. })));
        assert_eq!(plan.ops().iter().filter(|op| matches!(op, NoisyOp::Depolarize { .. })).count(), 1);
    }

    #[test]
    fn noiseless_trajectory_matches_ideal_replay() {
        let circuit = library::bell_kernel();
        let plan = compile_noisy(&circuit, &NoiseModel::default());
        for seed in 0..8 {
            let mut state = StateVector::new(2);
            let mut rng = StdRng::seed_from_u64(seed);
            let record = run_trajectory_once(&plan, 0.0, &mut state, &mut rng, None);
            let bits = record.bitstring();
            assert!(bits == "00" || bits == "11", "Bell shot must be correlated, got {bits}");
        }
    }

    #[test]
    fn readout_convolution_preserves_total_mass() {
        let mut dist: std::collections::BTreeMap<String, f64> = Default::default();
        dist.insert("00".into(), 0.5);
        dist.insert("11".into(), 0.5);
        let noisy = apply_readout_error(&dist, 0.25);
        let total: f64 = noisy.values().sum();
        assert!((total - 1.0).abs() < 1e-12);
        // P(01) = 0.5·(0.75·0.25) + 0.5·(0.25·0.75) = 0.1875
        assert!((noisy["01"] - 0.1875).abs() < 1e-12, "{noisy:?}");
        assert!((apply_readout_error(&dist, 0.0)["00"] - 0.5).abs() < 1e-15);
    }

    /// A seeded random circuit over h/rx/ry/rz/t/cx/cz, measured on every
    /// qubit, so its noisy plans share their clean state.
    fn random_measured(n: usize, gates: usize, seed: u64) -> Circuit {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            let q = rng.gen_range(0..n);
            let other = (q + rng.gen_range(1..n)) % n;
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            match rng.gen_range(0..7) {
                0 => c.h(q),
                1 => c.rx(q, theta),
                2 => c.ry(q, theta),
                3 => c.rz(q, theta),
                4 => c.t(q),
                5 => c.cx(q, other),
                _ => c.cz(q, other),
            };
        }
        c.measure_all();
        c
    }

    /// A plan that shares its clean state, and that state, on the
    /// sequential pool.
    fn shared_plan(n: usize, gates: usize, p: f64) -> (NoisyCompiled, CleanState) {
        let plan = compile_noisy(
            &random_measured(n, gates, 3),
            &NoiseModel { depolarizing: p, ..Default::default() },
        );
        let clean =
            plan.clean_state(ThreadPool::sequential(), 1).expect("terminal measurements share a clean state");
        (plan, clean)
    }

    fn channel_count(plan: &NoisyCompiled) -> usize {
        plan.ops()
            .iter()
            .filter(|op| matches!(op, NoisyOp::Depolarize { .. } | NoisyOp::Dephase { .. }))
            .count()
    }

    /// One fired shot with the decisions `fired`, resumed from `shared` or
    /// replayed from op 0: its record and the state it sampled.
    fn fired_shot(
        plan: &NoisyCompiled,
        fired: &[u8],
        shared: Option<&CleanState>,
    ) -> (ShotRecord, Vec<Complex64>) {
        let mut state = StateVector::new(plan.num_qubits());
        let start = shared.map_or((0, 0), |shared| shared.resume(plan, fired, &mut state));
        let record =
            replay_interleaved(plan, 0.05, &mut state, &mut StdRng::seed_from_u64(9), Some(fired), start);
        (record, state.amplitudes().to_vec())
    }

    #[test]
    fn snapshot_resume_matches_replay_from_op_zero_shot_by_shot() {
        for p in [0.002, 0.02] {
            let (plan, clean) = shared_plan(8, 60, p);
            let mut state = StateVector::new(plan.num_qubits());
            let mut oracle = StateVector::new(plan.num_qubits());
            for seed in 0..1200 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                state.reset_to_zero();
                oracle.reset_to_zero();
                let record = run_trajectory_once(&plan, 0.01, &mut state, &mut rng, Some(&clean));
                let expected = run_trajectory_once(&plan, 0.01, &mut oracle, &mut oracle_rng, None);
                assert_eq!(record, expected, "p = {p}, shot seed {seed}");
                assert_eq!(
                    rng.gen::<u64>(),
                    oracle_rng.gen::<u64>(),
                    "p = {p}, shot seed {seed}: same draws"
                );
            }
            assert!(clean.snapshots.get().is_some(), "p = {p}: some shot must fire and take the snapshots");
        }
    }

    #[test]
    fn fired_shots_resume_bit_identically_at_every_boundary() {
        let (plan, clean) = shared_plan(8, 60, 0.01);
        let channels = channel_count(&plan);
        let marks = clean.snapshots(&plan).marks.clone();
        assert_eq!(marks.len(), MAX_SNAPSHOTS);
        let at = marks[1].1;
        let cases: [(&str, Vec<usize>); 7] = [
            ("first decision", vec![0]),
            ("one before a snapshot", vec![at - 1]),
            ("exactly at a snapshot", vec![at]),
            ("one past a snapshot", vec![at + 1]),
            ("at the last snapshot", vec![marks[MAX_SNAPSHOTS - 1].1]),
            ("at the last channel", vec![channels - 1]),
            ("several fired channels", vec![marks[0].1 + 1, at, channels - 1]),
        ];
        for (case, positions) in cases {
            let mut fired = vec![0u8; channels];
            for (i, &d) in positions.iter().enumerate() {
                fired[d] = 1 + (i % 3) as u8;
            }
            let mut state = StateVector::new(plan.num_qubits());
            let (op, decision) = clean.resume(&plan, &fired, &mut state);
            let expected = marks.iter().rev().find(|&&(_, d)| d <= positions[0]).copied().unwrap_or((0, 0));
            assert_eq!((op, decision), expected, "{case}: resume point");
            let resumed = fired_shot(&plan, &fired, Some(&clean));
            let replayed = fired_shot(&plan, &fired, None);
            assert_eq!(resumed.0, replayed.0, "{case}: record");
            assert!(
                resumed
                    .1
                    .iter()
                    .zip(&replayed.1)
                    .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()),
                "{case}: the sampled state must be bit-identical"
            );
        }
    }

    #[test]
    fn a_late_fired_shot_iterates_less_than_a_replay_from_op_zero() {
        use crate::stats::{kernel_iteration_breakdown, reset_kernel_iterations};
        let (plan, clean) = shared_plan(8, 60, 0.01);
        let channels = channel_count(&plan);
        let mut fired = vec![0u8; channels];
        fired[channels - 1] = 3;
        clean.snapshots(&plan);
        let iterations = |shared: Option<&CleanState>| {
            reset_kernel_iterations();
            fired_shot(&plan, &fired, shared);
            kernel_iteration_breakdown().iter().map(|&(_, n)| n).sum::<u64>()
        };
        let resumed = iterations(Some(&clean));
        let replayed = iterations(None);
        assert!(resumed < replayed, "resumed {resumed} iterations, replayed {replayed}");
    }

    #[test]
    fn snapshots_fit_their_count_and_byte_caps() {
        for (n, expected) in [(10, 4), (11, 2), (12, 1), (13, 0), (14, 0)] {
            let plan = compile_noisy(
                &random_measured(n, 24, 5),
                &NoiseModel { depolarizing: 0.01, ..Default::default() },
            );
            assert!(channel_count(&plan) > MAX_SNAPSHOTS);
            let snapshots = Snapshots::take(&plan);
            assert_eq!(snapshots.marks.len(), expected, "{n} qubits");
            assert_eq!(snapshots.amps.len(), expected << n, "{n} qubits");
            assert!(snapshots.amps.len() * std::mem::size_of::<Complex64>() <= SNAPSHOT_BUDGET_BYTES);
        }
        // Never more snapshots than channels.
        let mut c = Circuit::new(2);
        c.h(0).measure_all();
        let one_channel = compile_noisy(&c, &NoiseModel { depolarizing: 0.01, ..Default::default() });
        assert_eq!(Snapshots::take(&one_channel).marks, vec![(1, 0)]);
    }

    #[test]
    fn clean_fast_path_gates_on_state_independence() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let dephase = NoiseModel { dephasing: 0.01, ..Default::default() };
        assert!(compile_noisy(&c, &dephase).has_clean_fast_path());
        let depol = NoiseModel { depolarizing: 0.01, ..Default::default() };
        assert!(compile_noisy(&c, &depol).has_clean_fast_path());
        // Damping draws against the live state — decisions cannot move
        // ahead of the replay, so every shot takes the interleaved path.
        let damp = NoiseModel { amplitude_damping: 0.01, ..Default::default() };
        assert!(!compile_noisy(&c, &damp).has_clean_fast_path());
        // A noiseless plan is already fully fused; no separate fast path.
        assert!(!compile_noisy(&c, &NoiseModel::default()).has_clean_fast_path());
    }
}
