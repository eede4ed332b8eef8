//! Compile-then-execute: lower a [`Circuit`] once into a flat list of
//! fused kernel ops, then replay that list per shot.
//!
//! The interpreted executor ([`crate::run_once_interpreted`]) re-dispatches
//! every [`Instruction`] and re-derives every gate matrix on every shot.
//! [`CompiledCircuit::compile`] pays those costs **once**:
//!
//! * every gate matrix, control mask and phase factor is precomputed into a
//!   [`KernelOp`] — replay touches no trig, no `match inst.gate`, and no
//!   allocation;
//! * **single-qubit fusion** — adjacent single-qubit unitaries on the same
//!   target with the same control mask collapse via 2×2 matrix products, and
//!   uncontrolled/same-controlled diagonal gates fold into neighbouring
//!   dense matrices;
//! * **phase-sweep fusion** — diagonal gates (Z/S/T/Rz/CZ/CPhase/CCPhase…)
//!   all commute, so runs of them are reordered freely: same-mask phases
//!   merge by angle addition and the `Rz` global phases accumulate into a
//!   single [`KernelOp::Scale`];
//! * **two-qubit block fusion** — a second pass collapses adjacent gate
//!   runs sharing a qubit pair (with equal *outer* control masks) into one
//!   [`KernelOp::Dense2`] 4×4 block, and keeps absorbing single-qubit
//!   matrices, in-pair controlled gates, in-pair diagonals and in-pair
//!   swaps into that block. One `Dense2` sweep visits `2^(n-2-c)` quads —
//!   one pass over the state for the whole fused run instead of one pass
//!   per gate. Runs where *every* matrix is cheap (exactly diagonal or
//!   anti-diagonal — X/CX ladders) are deliberately **not** paired: the
//!   flip/phase kernels already beat a 4×4 mat-vec for those;
//! * **swap relabeling** — an uncontrolled `Swap` never executes during the
//!   circuit body. The compiler tracks a logical→physical qubit map
//!   instead, relabels every later operand through it, and flushes the
//!   residual permutation as at most `n-1` swap ops at the end of the
//!   circuit, or just before a terminal measurement suffix (where
//!   trailing `Dense2` blocks can still absorb them, and where the sampled
//!   read of [`CompiledCircuit::sample_once`] then sees the basis order
//!   of the interpreter). Mid-circuit `Measure`/`Reset` carry both the
//!   *logical* qubit (for the shot record) and the current *physical*
//!   location (for the state update), so relabeling is exact bookkeeping,
//!   not a reorder;
//! * fused matrices are **classified** into the cheapest kernel the state
//!   vector offers: anti-diagonal results run the branch-free flip kernel
//!   ([`StateVector::apply_antidiag`]), diagonal results run the phase /
//!   diagonal kernels, a `Dense2` that collapses to the swap permutation
//!   runs the swap kernel, exact identities are dropped entirely.
//!
//! Fusion never crosses a `Measure`, `Reset` or `Barrier`: those are hard
//! scheduling points, so a compiled replay performs its RNG draws in
//! exactly the same order as the interpreted executor.
//!
//! # Cache-blocked replay
//!
//! Compilation also plans **cache blocking**: consecutive runs of ops whose
//! whole support (targets, controls, phase masks) lies below
//! `CACHE_BLOCK_QUBITS` are grouped into a blockable segment. On states
//! of at least `2^CACHE_BLOCK_MIN_QUBITS` amplitudes, replay walks such a
//! segment block-by-block: each `2^15`-amplitude block (512 KiB — sized to
//! sit in a per-core L2 while leaving room for the read+write streams)
//! streams through the cache **once for the whole run of fused ops**
//! instead of once per op. Block-local ops cannot reach across a block
//! boundary, and each op runs the same sweep function as its full-state
//! kernel, so blocked replay is bit-identical to unblocked replay — only
//! the traversal order changes. Segments containing a `Measure`/`Reset` or
//! any op touching a qubit ≥ 15 replay through the ordinary full-state
//! kernels.
//!
//! # Determinism contract
//!
//! [`CompiledCircuit::run_once`] draws from the RNG exactly once per
//! `Measure`/`Reset`, in program order — identical to the interpreted path;
//! [`CompiledCircuit::sample_once`] draws once per shot for a terminal
//! suffix, as the interpreter does under the same protocol (see
//! [`crate::executor`]). So a compiled replay and the interpreter consume
//! identical RNG streams over the same [`crate::ShotPlan`] chunks, and
//! their merged [`crate::Counts`] stay inside the `(seed, tasks,
//! chunk_shots)` byte-identical contract. Fused arithmetic
//! rounds differently at the last ulp (a 2×2 product is not two sequential
//! applies, and a relabeled measurement sums the same probabilities in a
//! different order), so *amplitudes* agree to ~1e-12 rather than
//! bit-for-bit; an outcome would only flip if a measurement probability and
//! an RNG draw coincided to ~1e-12, which the equivalence property tests
//! (`cross_crate_props`) assert never happens for seeded runs, with the
//! interpreter ([`crate::run_once_interpreted`]) as their oracle.

use crate::apply::ApplyState;
use crate::complex::Complex64;
use crate::executor::ShotRecord;
use crate::gates::{
    embed_pair_single, identity4, mat2_mul, mat4_mul, pair_phase_matrix, single_qubit_matrix, swap4,
};
use crate::state::{sweep, AmpsPtr, BitInserts, StateVector};
use crate::stats::{record_iterations, KernelClass};
use qcor_circuit::{Circuit, GateKind, Instruction};
use rand::Rng;
use std::ops::Range;

/// One precomputed state-vector update of a compiled circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOp {
    /// Dense 2×2 unitary on `target`, restricted to `ctrl_mask`.
    Dense { target: usize, ctrl_mask: usize, m: [[Complex64; 2]; 2] },
    /// Fused dense 4×4 unitary on the qubit pair `(t0, t1)` with `t0 < t1`
    /// (pair-basis index `s = bit(t1) << 1 | bit(t0)`), restricted to
    /// `ctrl_mask` (which excludes both pair bits). Boxed: the 256-byte
    /// matrix would otherwise dominate the enum size.
    Dense2 { t0: usize, t1: usize, ctrl_mask: usize, m: Box<[[Complex64; 4]; 4]> },
    /// Anti-diagonal [[0, m01], [m10, 0]] — the X-like flip kernel.
    Flip { target: usize, ctrl_mask: usize, m01: Complex64, m10: Complex64 },
    /// diag(d0, d1) on `target` under `ctrl_mask`, both entries non-trivial.
    Diag { target: usize, ctrl_mask: usize, d0: Complex64, d1: Complex64 },
    /// Multiply amplitudes with `set_mask` bits set and `clear_mask` bits
    /// clear by a precomputed unit phase.
    Phase { set_mask: usize, clear_mask: usize, phase: Complex64 },
    /// Multiply every amplitude by `factor` (merged global phases).
    Scale { factor: Complex64 },
    /// (Controlled) swap of qubits `a` and `b`.
    Swap { a: usize, b: usize, ctrl_mask: usize },
    /// Computational-basis measurement of logical `qubit`, currently living
    /// at physical bit `loc` (they differ when swap relabeling is active).
    Measure { qubit: usize, loc: usize },
    /// Reset logical `qubit` (at physical bit `loc`) to |0⟩.
    Reset { qubit: usize, loc: usize },
}

/// Intermediate form during fusion: dense matrices and *angle*-valued
/// phases (angles merge exactly by addition; the unit complex factor is
/// derived once at finalization). Each unitary op carries its provenance
/// (`src`): the [`Atom`] ids, in temporal order, whose ordered product the
/// op's value is. Cold compilation leaves the lists empty (zero cost — an
/// empty `Vec` never allocates); the template compiler uses them to
/// re-derive parameter-dependent groups at [`CompiledTemplate::rebind`].
#[derive(Debug, Clone)]
enum LowOp {
    Dense {
        target: usize,
        ctrl_mask: usize,
        m: [[Complex64; 2]; 2],
        src: Srcs,
    },
    Dense2 {
        t0: usize,
        t1: usize,
        ctrl_mask: usize,
        m: Box<[[Complex64; 4]; 4]>,
        src: Srcs,
    },
    Phase {
        set_mask: usize,
        clear_mask: usize,
        theta: f64,
        src: Srcs,
    },
    Swap {
        a: usize,
        b: usize,
        ctrl_mask: usize,
        src: Srcs,
    },
    Measure {
        qubit: usize,
        loc: usize,
    },
    Reset {
        qubit: usize,
        loc: usize,
    },
    /// Hard fusion barrier (from `GateKind::Barrier`); dropped at
    /// finalization.
    Barrier,
}

/// Provenance of a fused group: atom ids in temporal (program) order.
/// Merging with an *earlier* op prepends its list; folding a *later* op
/// into an existing one appends — so the ordered product over the list
/// always reconstructs the group's operator.
type Srcs = Vec<u32>;

/// High bit of an atom id, set when the atom's value depends on a
/// parameter slot. Lets `has_param` run without touching the atom table.
const PARAM_ATOM: u32 = 1 << 31;

/// True when any atom in the group is parameter-dependent. Groups with a
/// parameter are never dropped at template-build time (a binding-specific
/// identity must not be baked into the reusable plan) and are re-derived
/// on every rebind.
fn has_param(src: &[u32]) -> bool {
    src.iter().any(|&id| id & PARAM_ATOM != 0)
}

/// Take the provenance out of a removed op (non-unitary ops have none).
fn take_src(op: LowOp) -> Srcs {
    match op {
        LowOp::Dense { src, .. }
        | LowOp::Dense2 { src, .. }
        | LowOp::Phase { src, .. }
        | LowOp::Swap { src, .. } => src,
        _ => Srcs::new(),
    }
}

/// Prepend the provenance of an earlier op: `dst = earlier ++ dst`.
fn prepend_src(dst: &mut Srcs, mut earlier: Srcs) {
    if !earlier.is_empty() {
        earlier.extend(dst.iter().copied());
        *dst = earlier;
    }
}

/// Angle sentinel the template compiler feeds into parameterized gates.
/// Sentinels only steer the *value-dependent heuristics* of fusion (the
/// `is_cheap` pairing test): they are generic, slot-distinct angles, so no
/// sentinel matrix ever looks diagonal/anti-diagonal/identity and the
/// template's decisions hold for every future binding. Correctness never
/// rests on them — parameter-dependent groups are re-derived per binding.
fn sentinel_value(slot: usize) -> f64 {
    0.618_033_988_749_894_9 + 0.05 * ((slot & 63) as f64)
}

/// The value of one phase angle in a template: a constant, or `scale ×
/// values[slot]` for a parameterized gate (e.g. the `-θ/2` global half of
/// an `Rz` is `Slot { slot, scale: -0.5 }`).
#[derive(Debug, Clone, Copy)]
enum ThetaSpec {
    Const(f64),
    Slot { slot: u32, scale: f64 },
}

impl ThetaSpec {
    fn eval(self, values: &[f64]) -> f64 {
        match self {
            ThetaSpec::Const(c) => c,
            ThetaSpec::Slot { slot, scale } => scale * values[slot as usize],
        }
    }
}

/// Build the angle spec for a gate's `k = 0` parameter: a slot reference in
/// template mode, the bound constant in cold mode.
fn theta_spec(slot0: Option<u32>, scale: f64, value: f64) -> ThetaSpec {
    match slot0 {
        Some(slot) => ThetaSpec::Slot { slot, scale },
        None => ThetaSpec::Const(value),
    }
}

/// One lowered unit of the source circuit as registered by the template
/// compiler. A fused group's operator is the ordered product of its atoms'
/// matrices, so [`CompiledTemplate::rebind`] can re-derive exactly the
/// parameter-dependent groups for any binding.
#[derive(Debug, Clone)]
enum Atom {
    /// Diagonal phase on `set_mask`-set / `clear_mask`-clear amplitudes
    /// (`set_mask == usize::MAX` is the global-phase sentinel).
    Phase { set_mask: usize, clear_mask: usize, theta: ThetaSpec },
    /// (Controlled) single-qubit unitary at physical `target`; `ctrl_mask`
    /// is the full physical control mask at lowering time and `pslot` the
    /// gate's first parameter slot when parameterized.
    Single { gate: GateKind, target: usize, ctrl_mask: usize, pslot: Option<u32> },
    /// A swap folded into a pair block (always constant).
    Swap,
}

impl Atom {
    fn single_matrix(gate: GateKind, pslot: Option<u32>, values: &[f64]) -> [[Complex64; 2]; 2] {
        let n = gate.num_params();
        let mut pv = [0.0f64; 3];
        if let Some(p0) = pslot {
            pv[..n].copy_from_slice(&values[p0 as usize..p0 as usize + n]);
        }
        single_qubit_matrix(gate, &pv[..n]).expect("single-qubit atom")
    }

    /// The atom's 2×2 matrix inside a single-qubit group on `bit = 1 <<
    /// target` (the fold conditions guarantee a phase atom here is either
    /// the target-set or the target-clear diagonal of the group).
    fn mat2(&self, bit: usize, values: &[f64]) -> [[Complex64; 2]; 2] {
        match self {
            Atom::Single { gate, pslot, .. } => Self::single_matrix(*gate, *pslot, values),
            Atom::Phase { clear_mask, theta, .. } => {
                let p = Complex64::from_polar_unit(theta.eval(values));
                if clear_mask & bit != 0 {
                    [[p, Complex64::ZERO], [Complex64::ZERO, Complex64::ONE]]
                } else {
                    [[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, p]]
                }
            }
            Atom::Swap => unreachable!("swap atoms only occur in pair groups"),
        }
    }

    /// The atom's 4×4 matrix inside a pair group on `(t0, t1)` (the fold
    /// conditions guarantee the atom's outer masks match the group's, so
    /// only the in-pair bits matter here).
    fn mat4(&self, t0: usize, t1: usize, values: &[f64]) -> [[Complex64; 4]; 4] {
        let pb = (1usize << t0) | (1usize << t1);
        match self {
            Atom::Single { gate, target, ctrl_mask, pslot } => embed_pair_single(
                usize::from(*target == t1),
                pair_s_mask(ctrl_mask & pb, t0, t1),
                Self::single_matrix(*gate, *pslot, values),
            ),
            Atom::Phase { set_mask, clear_mask, theta } => pair_phase_matrix(
                pair_s_mask(set_mask & pb, t0, t1),
                pair_s_mask(clear_mask & pb, t0, t1),
                theta.eval(values),
            ),
            Atom::Swap => swap4(),
        }
    }
}

/// Left-multiply `acc` in place by the embedded (controlled) single `m`
/// acting on pair bit `pos`, conditioned on in-pair controls `ctrl_s` —
/// the specialized form of `mat4_mul(&embed_pair_single(pos, ctrl_s, m),
/// &acc)` (rows with unsatisfied controls are identity rows, so only the
/// satisfying row pair mixes).
fn mul4_single_left(acc: &mut [[Complex64; 4]; 4], pos: usize, ctrl_s: usize, m: [[Complex64; 2]; 2]) {
    let bit = 1usize << pos;
    for s0 in 0..4usize {
        if s0 & bit != 0 || s0 & ctrl_s != ctrl_s {
            continue;
        }
        let (lo, hi) = acc.split_at_mut(s0 | bit);
        for (x0, x1) in lo[s0].iter_mut().zip(hi[0].iter_mut()) {
            let (a0, a1) = (*x0, *x1);
            *x0 = m[0][0] * a0 + m[0][1] * a1;
            *x1 = m[1][0] * a0 + m[1][1] * a1;
        }
    }
}

/// Left-multiply `acc` in place by the pair-diagonal phase block — the
/// specialized form of `mat4_mul(&pair_phase_matrix(set_s, clear_s,
/// theta), &acc)` (scales the selected rows, leaves the rest untouched).
fn mul4_phase_left(acc: &mut [[Complex64; 4]; 4], set_s: usize, clear_s: usize, theta: f64) {
    let p = Complex64::from_polar_unit(theta);
    for (s, row) in acc.iter_mut().enumerate() {
        if s & set_s == set_s && s & clear_s == 0 {
            for cell in row {
                *cell *= p;
            }
        }
    }
}

/// How far backward the fusion passes search for a merge partner while
/// hopping over commuting ops. Bounds each pass at O(len × window).
const FUSION_WINDOW: usize = 32;

/// Block size (in qubits) for cache-blocked replay: `2^15` amplitudes =
/// 512 KiB of `Complex64`, sized to stay resident in a per-core L2 (typical
/// 1–2 MiB) with headroom for the streamed read+write halves of a sweep.
pub(crate) const CACHE_BLOCK_QUBITS: usize = 15;

/// Minimum state size (in qubits) before blocking pays: below `2^18`
/// amplitudes (4 MiB) the whole state fits in L2/L3 anyway and the extra
/// dispatch would only cost.
pub(crate) const CACHE_BLOCK_MIN_QUBITS: usize = 18;

/// True when a diagonal op with the given masks is independent of `bit`:
/// its phase factor is then identical on both halves of any amplitude pair
/// over that bit, so it commutes with any (controlled) single-qubit op
/// targeting the bit. (`set_mask == usize::MAX` is the global-scale
/// sentinel, handled separately where a hop over it is safe.)
fn phase_independent_of(set_mask: usize, clear_mask: usize, bit: usize) -> bool {
    set_mask != usize::MAX && (set_mask | clear_mask) & bit == 0
}

/// Map a physical-bit mask contained in the pair `{t0, t1}` to the 2-bit
/// pair-basis mask (bit `t0` → 1, bit `t1` → 2).
fn pair_s_mask(mask: usize, t0: usize, t1: usize) -> usize {
    ((mask >> t0) & 1) | (((mask >> t1) & 1) << 1)
}

/// A matrix the cheap kernels (flip / diag / phase) already handle in a
/// single multiply or swap per pair — exactly diagonal or exactly
/// anti-diagonal. Runs made solely of these are not worth a 4×4 block.
fn is_cheap(m: &[[Complex64; 2]; 2]) -> bool {
    let diagonal = m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO;
    let anti_diagonal = m[0][0] == Complex64::ZERO && m[1][1] == Complex64::ZERO;
    diagonal || anti_diagonal
}

fn is_identity2(m: &[[Complex64; 2]; 2]) -> bool {
    m[0][0] == Complex64::ONE
        && m[1][1] == Complex64::ONE
        && m[0][1] == Complex64::ZERO
        && m[1][0] == Complex64::ZERO
}

/// A circuit lowered to a flat, fused list of precomputed kernel ops.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    num_qubits: usize,
    ops: Vec<KernelOp>,
    /// Consecutive op ranges with a `blockable` flag: a blockable segment
    /// is a run of ≥ 2 ops whose whole support sits below
    /// [`CACHE_BLOCK_QUBITS`], replayed block-by-block on large states.
    segments: Vec<(Range<usize>, bool)>,
    source_len: usize,
    /// Where the terminal measurement suffix starts in `ops` (the first
    /// `Measure`, or `ops.len()` for a measurement-free circuit), when the
    /// source's measurements are terminal (see [`terminal_suffix`]).
    terminal: Option<usize>,
}

/// The index of the first `Measure` of `circuit` when its measurements
/// are **terminal**: the circuit holds no reset, and no gate follows any
/// `Measure` (barriers may). Everything before that index is then
/// unitary, and every outcome can be read from one sample of the state
/// there. A measurement-free, reset-free circuit's suffix is empty
/// (`Some(circuit.len())`); any other circuit yields `None`.
pub fn terminal_suffix(circuit: &Circuit) -> Option<usize> {
    let insts = circuit.instructions();
    let start = insts.iter().position(|inst| inst.gate == GateKind::Measure).unwrap_or(insts.len());
    let unitary_prefix = insts[..start].iter().all(|inst| inst.gate != GateKind::Reset);
    let measures_only =
        insts[start..].iter().all(|inst| matches!(inst.gate, GateKind::Measure | GateKind::Barrier));
    (unitary_prefix && measures_only).then_some(start)
}

impl CompiledCircuit {
    /// Lower and fuse `circuit`. The result replays with
    /// [`CompiledCircuit::run_once`].
    pub fn compile(circuit: &Circuit) -> CompiledCircuit {
        let mut fuser = Fuser::new(circuit.num_qubits(), circuit.len(), false);
        let terminal = terminal_suffix(circuit);
        for (i, inst) in circuit.instructions().iter().enumerate() {
            if terminal == Some(i) {
                fuser.flush_permutation();
            }
            fuser.push_instruction(inst, None);
        }
        let ops = fuser.finalize();
        Self::from_ops(circuit.num_qubits(), ops, circuit.len(), terminal.is_some())
    }

    /// Assemble a compiled circuit from an already-final op list, replanning
    /// the cache-blocking segments (they are a pure function of the ops).
    /// `terminal` says whether the source's measurements are terminal; the
    /// suffix then starts at the first `Measure` op.
    pub(crate) fn from_ops(
        num_qubits: usize,
        ops: Vec<KernelOp>,
        source_len: usize,
        terminal: bool,
    ) -> CompiledCircuit {
        let segments = plan_segments(&ops);
        let terminal = terminal
            .then(|| ops.iter().position(|op| matches!(op, KernelOp::Measure { .. })).unwrap_or(ops.len()));
        CompiledCircuit { num_qubits, ops, segments, source_len, terminal }
    }

    /// Qubit count of the source circuit.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The fused op list, in execution order.
    pub fn ops(&self) -> &[KernelOp] {
        &self.ops
    }

    /// Number of fused kernel ops (≤ the source instruction count for any
    /// circuit without `Barrier`s, and strictly less whenever fusion fired).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when every source instruction fused away (or the source was
    /// empty).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of instructions in the source circuit.
    pub fn source_len(&self) -> usize {
        self.source_len
    }

    /// Where the terminal measurement suffix starts in [`Self::ops`], when
    /// the source's measurements are terminal ([`terminal_suffix`]).
    pub fn terminal_start(&self) -> Option<usize> {
        self.terminal
    }

    /// Replay the compiled ops against `state` once, recording measurement
    /// outcomes — the compiled counterpart of
    /// [`crate::run_once_interpreted`].
    pub fn run_once(&self, state: &mut StateVector, rng: &mut impl Rng) -> ShotRecord {
        let mut record = ShotRecord::default();
        self.replay(state, self.ops.len(), |state, op| match *op {
            KernelOp::Measure { qubit, loc } => record.outcomes.push((qubit, state.measure(loc, rng))),
            KernelOp::Reset { qubit: _, loc } => state.reset(loc, rng),
            _ => unreachable!("unitary ops replay through the kernels"),
        });
        record
    }

    /// One shot under the sampled protocol (see [`crate::executor`]): a
    /// circuit whose measurements are terminal replays up to its terminal
    /// suffix and reads every outcome from one
    /// [`StateVector::sample_index`] draw; any other circuit is
    /// [`CompiledCircuit::run_once`].
    pub fn sample_once(&self, state: &mut StateVector, rng: &mut impl Rng) -> ShotRecord {
        if !self.evolve_prefix(state) {
            return self.run_once(state, rng);
        }
        self.read_terminal(state, rng)
    }

    /// Replay the unitary prefix before the terminal suffix onto `state`
    /// and return true, or leave `state` untouched and return false when
    /// the source's measurements are not terminal.
    pub(crate) fn evolve_prefix(&self, state: &mut StateVector) -> bool {
        let Some(start) = self.terminal else { return false };
        self.replay(state, start, |_, op| unreachable!("a terminal prefix holds no {op:?}"));
        true
    }

    /// Read the terminal suffix's outcomes from `state` (already evolved
    /// through the prefix): one draw picks a basis index, and each
    /// terminal `Measure` records that index's bit at its physical `loc`,
    /// in program order. A suffix without a `Measure` draws nothing.
    pub(crate) fn read_terminal(&self, state: &StateVector, rng: &mut impl Rng) -> ShotRecord {
        let start = self.terminal.expect("read_terminal needs terminal measurements");
        let measures = self.ops[start..].iter().filter_map(|op| match *op {
            KernelOp::Measure { qubit, loc } => Some((qubit, loc)),
            _ => None,
        });
        crate::executor::sample_outcomes(state, measures, rng)
    }

    /// Replay `ops[..end]` against `state`, cache-blocked where planned,
    /// handing each `Measure`/`Reset` to `non_unitary`.
    fn replay(
        &self,
        state: &mut StateVector,
        end: usize,
        mut non_unitary: impl FnMut(&mut StateVector, &KernelOp),
    ) {
        assert!(
            self.num_qubits <= state.num_qubits(),
            "compiled circuit needs {} qubits but the state has {}",
            self.num_qubits,
            state.num_qubits()
        );
        let total = state.amplitudes().len();
        let use_blocks = total >= (1usize << CACHE_BLOCK_MIN_QUBITS);
        for (range, blockable) in &self.segments {
            // A terminal suffix starts at a `Measure`, which no blockable
            // segment holds, so clipping never splits a blocked run.
            let ops = &self.ops[range.start..range.end.min(end)];
            if ops.is_empty() {
                break;
            }
            if *blockable && use_blocks {
                for (class, ins) in ops.iter().map(op_inserts) {
                    record_iterations(class, ins.all(total).len());
                }
                state.for_each_block(CACHE_BLOCK_QUBITS, |block| {
                    for op in ops {
                        apply_op_to_slice(block, op);
                    }
                });
            } else {
                for op in ops {
                    match op {
                        KernelOp::Measure { .. } | KernelOp::Reset { .. } => non_unitary(state, op),
                        unitary => state.apply_kernel_op(unitary),
                    }
                }
            }
        }
    }
}

/// Whole-support footprint check: can this op run inside a
/// `2^CACHE_BLOCK_QUBITS`-amplitude block without reaching across it?
fn is_block_local(op: &KernelOp) -> bool {
    let footprint = match op {
        KernelOp::Dense { target, ctrl_mask, .. }
        | KernelOp::Flip { target, ctrl_mask, .. }
        | KernelOp::Diag { target, ctrl_mask, .. } => (1usize << target) | ctrl_mask,
        KernelOp::Dense2 { t0, t1, ctrl_mask, .. } => (1usize << t0) | (1usize << t1) | ctrl_mask,
        KernelOp::Phase { set_mask, clear_mask, .. } => set_mask | clear_mask,
        KernelOp::Scale { .. } => 0,
        KernelOp::Swap { a, b, ctrl_mask } => (1usize << a) | (1usize << b) | ctrl_mask,
        KernelOp::Measure { .. } | KernelOp::Reset { .. } => return false,
    };
    footprint < (1usize << CACHE_BLOCK_QUBITS)
}

/// Group the op list into maximal runs of block-local / non-local ops. A
/// run is marked blockable only when it is block-local and has ≥ 2 ops —
/// a single op already streams the state exactly once either way.
fn plan_segments(ops: &[KernelOp]) -> Vec<(Range<usize>, bool)> {
    let mut segments = Vec::new();
    let mut i = 0;
    while i < ops.len() {
        let local = is_block_local(&ops[i]);
        let mut j = i + 1;
        while j < ops.len() && is_block_local(&ops[j]) == local {
            j += 1;
        }
        segments.push((i..j, local && j - i >= 2));
        i = j;
    }
    segments
}

/// The kernel class and the fixed bits of a unitary op's full-state
/// kernel sweep. Blocked replay records the counts from it on the issuing thread
/// (blocks run on the pool), so the counters — and the guard's exact
/// `2^(n-2-c)` Dense2 assert — are identical between both replay shapes.
fn op_inserts(op: &KernelOp) -> (KernelClass, BitInserts) {
    match op {
        KernelOp::Dense { target, ctrl_mask, .. } => {
            (KernelClass::Dense, BitInserts::new(*ctrl_mask, 1 << target))
        }
        KernelOp::Dense2 { t0, t1, ctrl_mask, .. } => {
            (KernelClass::Dense2, BitInserts::new(*ctrl_mask, (1 << t0) | (1 << t1)))
        }
        KernelOp::Flip { target, ctrl_mask, .. } => {
            (KernelClass::Flip, BitInserts::new(*ctrl_mask, 1 << target))
        }
        KernelOp::Diag { target, ctrl_mask, .. } => {
            (KernelClass::Diag, BitInserts::new(*ctrl_mask, 1 << target))
        }
        KernelOp::Phase { set_mask, clear_mask, .. } => {
            (KernelClass::Phase, BitInserts::new(*set_mask, *clear_mask))
        }
        KernelOp::Scale { .. } => (KernelClass::Scale, BitInserts::new(0, 0)),
        KernelOp::Swap { a, b, ctrl_mask } => {
            (KernelClass::Swap, BitInserts::new(ctrl_mask | (1 << a), 1 << b))
        }
        KernelOp::Measure { .. } | KernelOp::Reset { .. } => {
            unreachable!("non-unitary ops are never in a blockable segment")
        }
    }
}

/// Apply one unitary kernel op to a contiguous amplitude block. Every
/// support bit of `op` must lie below `log2(amps.len())` (guaranteed by
/// [`plan_segments`]), so the op cannot reach outside the slice. It runs
/// the same [`sweep`] function as the corresponding [`StateVector`]
/// kernel, over all the block's counters, making blocked replay
/// bit-identical.
fn apply_op_to_slice(amps: &mut [Complex64], op: &KernelOp) {
    let ins = op_inserts(op).1;
    let runs = ins.runs(ins.all(amps.len()));
    let p = AmpsPtr::new(amps);
    // SAFETY: `p` owns the whole block, and every op's support lies inside it.
    unsafe {
        match op {
            KernelOp::Dense { target, m, .. } => sweep::dense(p, runs, 1 << target, m),
            KernelOp::Dense2 { t0, t1, m, .. } => sweep::quad(p, runs, 1 << t0, 1 << t1, m),
            KernelOp::Flip { target, m01, m10, .. } => sweep::antidiag(p, runs, 1 << target, *m01, *m10),
            KernelOp::Diag { target, d0, d1, .. } => sweep::diag(p, runs, 1 << target, *d0, *d1),
            KernelOp::Phase { phase: z, .. } | KernelOp::Scale { factor: z } => sweep::mul(p, runs, *z),
            KernelOp::Swap { a, b, .. } => sweep::swap(p, runs, (1 << a) | (1 << b)),
            KernelOp::Measure { .. } | KernelOp::Reset { .. } => unreachable!(),
        }
    }
}

/// Stage A of compilation: per-instruction lowering with single-qubit and
/// phase-sweep fusion, plus the swap-relabeling map.
struct Fuser {
    out: Vec<LowOp>,
    /// Accumulated global phase (from Rz lowering); global phases commute
    /// with every unitary, so they are hoisted and flushed as one
    /// [`KernelOp::Scale`] at measure/reset/barrier boundaries.
    pending_global: f64,
    /// Provenance of `pending_global` (template mode only).
    pending_global_src: Srcs,
    /// Logical→physical qubit map. An uncontrolled `Swap` updates this map
    /// instead of emitting a kernel; every later operand is relabeled
    /// through it and the residual permutation is flushed as swaps at the
    /// end of the circuit.
    loc: Vec<usize>,
    /// `Some` in template mode: every lowered unit registers an [`Atom`]
    /// and tags the ops it contributes to with the atom's id.
    atoms: Option<Vec<Atom>>,
}

impl Fuser {
    fn new(num_qubits: usize, capacity: usize, track_atoms: bool) -> Fuser {
        Fuser {
            out: Vec::with_capacity(capacity),
            pending_global: 0.0,
            pending_global_src: Srcs::new(),
            loc: (0..num_qubits).collect(),
            atoms: if track_atoms { Some(Vec::new()) } else { None },
        }
    }

    /// Register an atom (template mode) and return the one-element
    /// provenance list for the op it lowers to. Cold mode returns an empty
    /// list and drops the atom — `has_param` then stays false everywhere
    /// and fusion behaves exactly as before provenance tracking existed.
    fn add_atom(&mut self, atom: Atom, param: bool) -> Srcs {
        match &mut self.atoms {
            Some(atoms) => {
                let id = atoms.len() as u32 | if param { PARAM_ATOM } else { 0 };
                atoms.push(atom);
                vec![id]
            }
            None => Srcs::new(),
        }
    }

    fn map_mask(&self, mask: usize) -> usize {
        let mut out = 0usize;
        let mut m = mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            out |= 1 << self.loc[q];
            m &= m - 1;
        }
        out
    }

    /// Register a phase atom and push the angle-valued phase op carrying
    /// its provenance.
    fn lower_phase(&mut self, set_mask: usize, clear_mask: usize, theta: f64, spec: ThetaSpec) {
        let src = self.add_atom(
            Atom::Phase { set_mask, clear_mask, theta: spec },
            matches!(spec, ThetaSpec::Slot { .. }),
        );
        self.push_phase(set_mask, clear_mask, theta, src);
    }

    /// Sugar for the fixed-angle diagonal gates (Z/S/T/CZ/…).
    fn lower_const_phase(&mut self, set_mask: usize, theta: f64) {
        self.lower_phase(set_mask, 0, theta, ThetaSpec::Const(theta));
    }

    /// Lower one instruction. `slot0` is `None` for cold compilation (angles
    /// come from the instruction) and `Some(first parameter slot)` for
    /// template compilation (angles come from per-slot sentinels and every
    /// lowered unit registers an [`Atom`]).
    fn push_instruction(&mut self, inst: &Instruction, slot0: Option<u32>) {
        use GateKind::*;
        let q = &inst.qubits;
        // Parameter values driving matrix/angle computation this pass.
        let mut pv = [0.0f64; 3];
        for (k, v) in pv.iter_mut().enumerate().take(inst.params.len()) {
            *v = match slot0 {
                Some(s0) => sentinel_value(s0 as usize + k),
                None => inst.params[k],
            };
        }
        match inst.gate {
            // Diagonal gates lower to angle-valued phase ops, exactly
            // mirroring the interpreted fast path in `apply_instruction`.
            Z => self.lower_const_phase(1 << self.loc[q[0]], std::f64::consts::PI),
            S => self.lower_const_phase(1 << self.loc[q[0]], std::f64::consts::FRAC_PI_2),
            Sdg => self.lower_const_phase(1 << self.loc[q[0]], -std::f64::consts::FRAC_PI_2),
            T => self.lower_const_phase(1 << self.loc[q[0]], std::f64::consts::FRAC_PI_4),
            Tdg => self.lower_const_phase(1 << self.loc[q[0]], -std::f64::consts::FRAC_PI_4),
            Phase => {
                let set = 1 << self.loc[q[0]];
                self.lower_phase(set, 0, pv[0], theta_spec(slot0, 1.0, pv[0]));
            }
            Rz => {
                let gsrc = self.add_atom(
                    Atom::Phase {
                        set_mask: usize::MAX,
                        clear_mask: 0,
                        theta: theta_spec(slot0, -0.5, -pv[0] / 2.0),
                    },
                    slot0.is_some(),
                );
                self.pending_global += -pv[0] / 2.0;
                self.pending_global_src.extend(gsrc);
                let set = 1 << self.loc[q[0]];
                self.lower_phase(set, 0, pv[0], theta_spec(slot0, 1.0, pv[0]));
            }
            CZ => self.lower_const_phase((1 << self.loc[q[0]]) | (1 << self.loc[q[1]]), std::f64::consts::PI),
            CPhase => {
                let set = (1 << self.loc[q[0]]) | (1 << self.loc[q[1]]);
                self.lower_phase(set, 0, pv[0], theta_spec(slot0, 1.0, pv[0]));
            }
            CCPhase => {
                let set = (1 << self.loc[q[0]]) | (1 << self.loc[q[1]]) | (1 << self.loc[q[2]]);
                self.lower_phase(set, 0, pv[0], theta_spec(slot0, 1.0, pv[0]));
            }
            CRz => {
                let half = pv[0] / 2.0;
                let (cbit, tbit) = (1 << self.loc[q[0]], 1 << self.loc[q[1]]);
                self.lower_phase(cbit | tbit, 0, half, theta_spec(slot0, 0.5, half));
                self.lower_phase(cbit, tbit, -half, theta_spec(slot0, -0.5, -half));
            }
            H | X | Y | Rx | Ry | U3 => {
                let m = single_qubit_matrix(inst.gate, &pv[..inst.params.len()]).expect("single-qubit gate");
                let pslot = if inst.params.is_empty() { None } else { slot0 };
                let target = self.loc[q[0]];
                let src = self
                    .add_atom(Atom::Single { gate: inst.gate, target, ctrl_mask: 0, pslot }, pslot.is_some());
                self.push_dense(target, 0, m, src);
            }
            // Controlled single-qubit gates: the operand split (controls
            // first) comes from the instruction's own introspection.
            CX | CY | CCX => {
                let base = if inst.gate == CY { Y } else { X };
                let m = single_qubit_matrix(base, &[]).expect("single-qubit gate");
                let target = self.loc[inst.target_qubits()[0]];
                let ctrl_mask = self.map_mask(inst.control_mask());
                let src = self.add_atom(Atom::Single { gate: base, target, ctrl_mask, pslot: None }, false);
                self.push_dense(target, ctrl_mask, m, src);
            }
            Swap => {
                // Relabel instead of executing: zero kernel ops now, at
                // most one flushed swap at the end of the circuit.
                let t = inst.target_qubits();
                self.loc.swap(t[0], t[1]);
            }
            CSwap => {
                let t = inst.target_qubits();
                let (pa, pb) = (self.loc[t[0]], self.loc[t[1]]);
                let ctrl_mask = self.map_mask(inst.control_mask());
                let src = self.add_atom(Atom::Swap, false);
                self.push_boundary(LowOp::Swap { a: pa.min(pb), b: pa.max(pb), ctrl_mask, src });
            }
            Measure => self.push_hard_boundary(LowOp::Measure { qubit: q[0], loc: self.loc[q[0]] }),
            Reset => self.push_hard_boundary(LowOp::Reset { qubit: q[0], loc: self.loc[q[0]] }),
            Barrier => self.push_hard_boundary(LowOp::Barrier),
        }
    }

    /// Push an op that fusion never merges into but that unitary ops may
    /// still commute past in later scans (currently: swaps stop stage-A
    /// scans, so this is a plain push).
    fn push_boundary(&mut self, op: LowOp) {
        self.out.push(op);
    }

    /// Push a non-unitary op (or barrier): flush the accumulated global
    /// phase first so replay applies it before any RNG draw.
    fn push_hard_boundary(&mut self, op: LowOp) {
        self.flush_global();
        self.out.push(op);
    }

    fn flush_global(&mut self) {
        if self.pending_global != 0.0 || !self.pending_global_src.is_empty() {
            // Represent as an unconditional phase over zero fixed bits —
            // finalization emits it as a `Scale`.
            let theta = std::mem::take(&mut self.pending_global);
            let src = std::mem::take(&mut self.pending_global_src);
            self.out.push(LowOp::Phase { set_mask: usize::MAX, clear_mask: 0, theta, src });
        }
    }

    /// Emit the residual relabeling permutation as at most `n-1`
    /// uncontrolled swaps at the end of the op list (or of the unitary
    /// prefix before a terminal measurement suffix), restoring every
    /// logical qubit to its home bit so the state matches the interpreted
    /// executor's exactly.
    fn flush_permutation(&mut self) {
        let n = self.loc.len();
        let mut loc = self.loc.clone();
        // Physical→logical inverse of `loc`.
        let mut at = vec![0usize; n];
        for (q, &p) in loc.iter().enumerate() {
            at[p] = q;
        }
        for q in 0..n {
            let p = loc[q];
            if p != q {
                let r = at[q];
                let src = self.add_atom(Atom::Swap, false);
                self.out.push(LowOp::Swap { a: q.min(p), b: q.max(p), ctrl_mask: 0, src });
                loc[q] = q;
                at[q] = q;
                loc[r] = p;
                at[p] = r;
            }
        }
        self.loc = loc;
    }

    /// Append a dense single-qubit op, merging backward where valid.
    fn push_dense(&mut self, target: usize, ctrl_mask: usize, mut m: [[Complex64; 2]; 2], mut src: Srcs) {
        let bit = 1usize << target;
        let mut idx = self.out.len();
        let mut scanned = 0;
        while idx > 0 && scanned < FUSION_WINDOW {
            scanned += 1;
            match self.out[idx - 1] {
                LowOp::Dense { target: t2, ctrl_mask: c2, m: m2, .. } if t2 == target && c2 == ctrl_mask => {
                    // Same target, same controls: collapse to one matrix
                    // (this op applied after the existing one), then keep
                    // scanning with the merged matrix.
                    m = mat2_mul(m, m2);
                    prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                    idx -= 1;
                    continue;
                }
                LowOp::Dense { target: t2, ctrl_mask: c2, .. }
                    if t2 != target && c2 & bit == 0 && ctrl_mask & (1 << t2) == 0 =>
                {
                    // Controlled single-qubit ops commute when neither
                    // target appears in the other op's support (shared
                    // control bits are diagonal for both and don't matter).
                    idx -= 1;
                    continue;
                }
                LowOp::Phase { set_mask, clear_mask, theta, .. } => {
                    // A diagonal on exactly this target under the same
                    // controls folds into the matrix as diag(·) applied
                    // first (right multiplication).
                    if set_mask == (ctrl_mask | bit) && clear_mask == 0 {
                        let p = Complex64::from_polar_unit(theta);
                        m = mat2_mul(m, [[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, p]]);
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    if set_mask == ctrl_mask && clear_mask == bit {
                        let p = Complex64::from_polar_unit(theta);
                        m = mat2_mul(m, [[p, Complex64::ZERO], [Complex64::ZERO, Complex64::ONE]]);
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    // Otherwise hop over it only if it cannot see the
                    // target bit.
                    if phase_independent_of(set_mask, clear_mask, bit) {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        if has_param(&src) || !is_identity2(&m) {
            self.out.insert(idx, LowOp::Dense { target, ctrl_mask, m, src });
        }
    }

    /// Append a diagonal phase op, merging backward where valid. Diagonal
    /// ops all commute, so the scan may hop over any of them.
    fn push_phase(&mut self, set_mask: usize, clear_mask: usize, theta: f64, src: Srcs) {
        let mut idx = self.out.len();
        let mut scanned = 0;
        while idx > 0 && scanned < FUSION_WINDOW {
            scanned += 1;
            match &mut self.out[idx - 1] {
                LowOp::Phase { set_mask: s2, clear_mask: c2, theta: t2, src: s2src } => {
                    if *s2 == set_mask && *c2 == clear_mask {
                        *t2 += theta;
                        s2src.extend(src);
                        return;
                    }
                    // Distinct diagonal ops commute.
                    idx -= 1;
                }
                LowOp::Dense { target, ctrl_mask, m, src: dsrc } => {
                    let bit = 1usize << *target;
                    // Fold onto the dense op as diag applied *after* it
                    // (left multiplication).
                    if set_mask == (*ctrl_mask | bit) && clear_mask == 0 {
                        let p = Complex64::from_polar_unit(theta);
                        *m = mat2_mul([[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, p]], *m);
                        dsrc.extend(src);
                        return;
                    }
                    if set_mask == *ctrl_mask && clear_mask == bit {
                        let p = Complex64::from_polar_unit(theta);
                        *m = mat2_mul([[p, Complex64::ZERO], [Complex64::ZERO, Complex64::ONE]], *m);
                        dsrc.extend(src);
                        return;
                    }
                    if phase_independent_of(set_mask, clear_mask, bit) {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        self.out.insert(idx, LowOp::Phase { set_mask, clear_mask, theta, src });
    }

    /// Flush pending state and run the pair-fusion pass, yielding the final
    /// low-op list plus the atom table — the lowering shared by cold
    /// compilation and template building.
    fn lower(mut self) -> (Vec<LowOp>, Vec<Atom>) {
        self.flush_global();
        self.flush_permutation();
        let atoms = self.atoms.take().unwrap_or_default();
        let lowered = pair_fuse(std::mem::take(&mut self.out));
        (lowered, atoms)
    }

    /// Lower, then classify the result into the cheapest kernels, dropping
    /// identities.
    fn finalize(self) -> Vec<KernelOp> {
        let (fused, _) = self.lower();
        let mut ops = Vec::with_capacity(fused.len());
        for low in fused {
            match low {
                LowOp::Dense { target, ctrl_mask, m, .. } => {
                    if let Some(op) = classify_dense(target, ctrl_mask, m) {
                        ops.push(op);
                    }
                }
                LowOp::Dense2 { t0, t1, ctrl_mask, m, .. } => {
                    if let Some(op) = classify_dense2(t0, t1, ctrl_mask, m) {
                        ops.push(op);
                    }
                }
                LowOp::Phase { set_mask, clear_mask, theta, .. } => {
                    if theta != 0.0 {
                        let phase = Complex64::from_polar_unit(theta);
                        if set_mask == usize::MAX {
                            ops.push(KernelOp::Scale { factor: phase });
                        } else {
                            ops.push(KernelOp::Phase { set_mask, clear_mask, phase });
                        }
                    }
                }
                LowOp::Swap { a, b, ctrl_mask, .. } => ops.push(KernelOp::Swap { a, b, ctrl_mask }),
                LowOp::Measure { qubit, loc } => ops.push(KernelOp::Measure { qubit, loc }),
                LowOp::Reset { qubit, loc } => ops.push(KernelOp::Reset { qubit, loc }),
                LowOp::Barrier => {}
            }
        }
        ops
    }
}

/// Stage B of compilation: re-push the stage-A output through the
/// pair-fusion rules, collapsing runs sharing a qubit pair into `Dense2`
/// blocks and absorbing in-pair gates, diagonals and swaps into them.
struct PairFuser {
    out: Vec<LowOp>,
}

fn pair_fuse(ops: Vec<LowOp>) -> Vec<LowOp> {
    let mut fuser = PairFuser { out: Vec::with_capacity(ops.len()) };
    for op in ops {
        match op {
            LowOp::Dense { target, ctrl_mask, m, src } => fuser.push_dense(target, ctrl_mask, m, src),
            LowOp::Phase { set_mask, clear_mask, theta, src } => {
                fuser.push_phase(set_mask, clear_mask, theta, src)
            }
            LowOp::Swap { a, b, ctrl_mask, src } => fuser.push_swap(a, b, ctrl_mask, src),
            // Measure / Reset / Barrier (stage A emits no Dense2) pass
            // through; the scans above never hop them.
            other => fuser.out.push(other),
        }
    }
    fuser.out
}

impl PairFuser {
    fn push_dense(&mut self, target: usize, ctrl_mask: usize, mut m: [[Complex64; 2]; 2], mut src: Srcs) {
        let bit = 1usize << target;
        let mut idx = self.out.len();
        let mut scanned = 0;
        while idx > 0 && scanned < FUSION_WINDOW {
            scanned += 1;
            match &self.out[idx - 1] {
                LowOp::Dense2 { t0, t1, ctrl_mask: c2, .. } => {
                    let (t0, t1, c2) = (*t0, *t1, *c2);
                    let pb = (1usize << t0) | (1usize << t1);
                    if bit & pb != 0 && ctrl_mask & !pb == c2 {
                        // In-pair single (possibly controlled on the other
                        // pair qubit) with matching outer controls: absorb
                        // as applied-after (left multiplication).
                        let e = embed_pair_single(
                            usize::from(target == t1),
                            pair_s_mask(ctrl_mask & pb, t0, t1),
                            m,
                        );
                        if let LowOp::Dense2 { m: m4, src: s4, .. } = &mut self.out[idx - 1] {
                            **m4 = mat4_mul(&e, m4);
                            s4.extend(src);
                        }
                        return;
                    }
                    if bit & (pb | c2) == 0 && ctrl_mask & pb == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Dense { target: t2, ctrl_mask: c2, m: m2, .. } => {
                    let (t2, c2, m2) = (*t2, *c2, *m2);
                    if t2 == target && c2 == ctrl_mask {
                        m = mat2_mul(m, m2);
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    let bit2 = 1usize << t2;
                    let pb = bit | bit2;
                    if t2 != target && c2 & !pb == ctrl_mask & !pb && !(is_cheap(&m) && is_cheap(&m2)) {
                        // Pair up: equal outer controls, and at least one
                        // matrix the cheap kernels can't already beat.
                        let (t0, t1) = (target.min(t2), target.max(t2));
                        let e_new = embed_pair_single(
                            usize::from(target == t1),
                            pair_s_mask(ctrl_mask & pb, t0, t1),
                            m,
                        );
                        let e_old =
                            embed_pair_single(usize::from(t2 == t1), pair_s_mask(c2 & pb, t0, t1), m2);
                        let m4 = mat4_mul(&e_new, &e_old);
                        let mut psrc = take_src(self.out.remove(idx - 1));
                        psrc.extend(src);
                        self.insert_dense2(idx - 1, t0, t1, ctrl_mask & !pb, m4, psrc);
                        return;
                    }
                    if t2 != target && c2 & bit == 0 && ctrl_mask & bit2 == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Phase { set_mask, clear_mask, theta, .. } => {
                    let (s, c, th) = (*set_mask, *clear_mask, *theta);
                    if s == (ctrl_mask | bit) && c == 0 {
                        let p = Complex64::from_polar_unit(th);
                        m = mat2_mul(m, [[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, p]]);
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    if s == ctrl_mask && c == bit {
                        let p = Complex64::from_polar_unit(th);
                        m = mat2_mul(m, [[p, Complex64::ZERO], [Complex64::ZERO, Complex64::ONE]]);
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    if phase_independent_of(s, c, bit) {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        if has_param(&src) || !is_identity2(&m) {
            self.out.insert(idx, LowOp::Dense { target, ctrl_mask, m, src });
        }
    }

    /// Insert a freshly formed pair block at `idx`, continuing the backward
    /// scan so the block keeps absorbing earlier in-pair ops.
    fn insert_dense2(
        &mut self,
        mut idx: usize,
        t0: usize,
        t1: usize,
        ctrl_mask: usize,
        mut m4: [[Complex64; 4]; 4],
        mut src: Srcs,
    ) {
        let pb = (1usize << t0) | (1usize << t1);
        let mut scanned = 0;
        while idx > 0 && scanned < FUSION_WINDOW {
            scanned += 1;
            match &self.out[idx - 1] {
                LowOp::Dense2 { t0: u0, t1: u1, ctrl_mask: c2, m: m2, .. } => {
                    if *u0 == t0 && *u1 == t1 && *c2 == ctrl_mask {
                        m4 = mat4_mul(&m4, m2);
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    let pb2 = (1usize << *u0) | (1usize << *u1);
                    if pb & (pb2 | *c2) == 0 && pb2 & ctrl_mask == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Dense { target, ctrl_mask: c2, m: m2, .. } => {
                    let (t2, c2, m2) = (*target, *c2, *m2);
                    let bit2 = 1usize << t2;
                    if bit2 & pb != 0 && c2 & !pb == ctrl_mask {
                        // Earlier in-pair single: absorb as applied-before
                        // (right multiplication).
                        let e = embed_pair_single(usize::from(t2 == t1), pair_s_mask(c2 & pb, t0, t1), m2);
                        m4 = mat4_mul(&m4, &e);
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    if bit2 & (pb | ctrl_mask) == 0 && c2 & pb == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Phase { set_mask, clear_mask, theta, .. } => {
                    let (s, c, th) = (*set_mask, *clear_mask, *theta);
                    if s != usize::MAX && s & !pb == ctrl_mask && c & !pb == 0 {
                        // Diagonal whose outer condition is exactly the
                        // block's controls: acts only inside the block's
                        // controlled subspace, so it folds in.
                        let d =
                            pair_phase_matrix(pair_s_mask(s & pb, t0, t1), pair_s_mask(c & pb, t0, t1), th);
                        m4 = mat4_mul(&m4, &d);
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    if s == usize::MAX || (s | c) & pb == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Swap { a, b, ctrl_mask: sc, .. } => {
                    if *a == t0 && *b == t1 && *sc == ctrl_mask {
                        m4 = mat4_mul(&m4, &swap4());
                        prepend_src(&mut src, take_src(self.out.remove(idx - 1)));
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        if has_param(&src) || m4 != identity4() {
            self.out.insert(idx, LowOp::Dense2 { t0, t1, ctrl_mask, m: Box::new(m4), src });
        }
    }

    fn push_phase(&mut self, set_mask: usize, clear_mask: usize, theta: f64, src: Srcs) {
        let mut idx = self.out.len();
        let mut scanned = 0;
        while idx > 0 && scanned < FUSION_WINDOW {
            scanned += 1;
            match &mut self.out[idx - 1] {
                LowOp::Phase { set_mask: s2, clear_mask: c2, theta: t2, src: s2src } => {
                    if *s2 == set_mask && *c2 == clear_mask {
                        *t2 += theta;
                        s2src.extend(src);
                        return;
                    }
                    idx -= 1;
                }
                LowOp::Dense { target, ctrl_mask, m, src: dsrc } => {
                    let bit = 1usize << *target;
                    if set_mask == (*ctrl_mask | bit) && clear_mask == 0 {
                        let p = Complex64::from_polar_unit(theta);
                        *m = mat2_mul([[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, p]], *m);
                        dsrc.extend(src);
                        return;
                    }
                    if set_mask == *ctrl_mask && clear_mask == bit {
                        let p = Complex64::from_polar_unit(theta);
                        *m = mat2_mul([[p, Complex64::ZERO], [Complex64::ZERO, Complex64::ONE]], *m);
                        dsrc.extend(src);
                        return;
                    }
                    if phase_independent_of(set_mask, clear_mask, bit) {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Dense2 { t0, t1, ctrl_mask, m, src: dsrc } => {
                    let (t0, t1, c2) = (*t0, *t1, *ctrl_mask);
                    let pb = (1usize << t0) | (1usize << t1);
                    if set_mask != usize::MAX && set_mask & !pb == c2 && clear_mask & !pb == 0 {
                        let d = pair_phase_matrix(
                            pair_s_mask(set_mask & pb, t0, t1),
                            pair_s_mask(clear_mask & pb, t0, t1),
                            theta,
                        );
                        **m = mat4_mul(&d, m);
                        dsrc.extend(src);
                        return;
                    }
                    if set_mask == usize::MAX || (set_mask | clear_mask) & pb == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Swap { a, b, .. } => {
                    // A phase not touching the swapped bits is invariant
                    // under the (controlled) permutation.
                    let sb = (1usize << *a) | (1usize << *b);
                    if set_mask == usize::MAX || (set_mask | clear_mask) & sb == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        self.out.insert(idx, LowOp::Phase { set_mask, clear_mask, theta, src });
    }

    fn push_swap(&mut self, a: usize, b: usize, ctrl_mask: usize, src: Srcs) {
        let sb = (1usize << a) | (1usize << b);
        let mut idx = self.out.len();
        let mut scanned = 0;
        while idx > 0 && scanned < FUSION_WINDOW {
            scanned += 1;
            match &mut self.out[idx - 1] {
                LowOp::Dense2 { t0, t1, ctrl_mask: c2, m, src: dsrc }
                    if *t0 == a && *t1 == b && *c2 == ctrl_mask =>
                {
                    **m = mat4_mul(&swap4(), m);
                    dsrc.extend(src);
                    return;
                }
                LowOp::Swap { a: a2, b: b2, ctrl_mask: c2, .. }
                    if *a2 == a && *b2 == b && *c2 == ctrl_mask =>
                {
                    // Swap · Swap = identity (both sides are constant swap
                    // atoms, so dropping their provenance is always sound).
                    self.out.remove(idx - 1);
                    return;
                }
                LowOp::Swap { a: a2, b: b2, ctrl_mask: c2, .. } => {
                    let sup2 = (1usize << *a2) | (1usize << *b2) | *c2;
                    if (sb | ctrl_mask) & sup2 == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Dense { target, ctrl_mask: c2, .. } => {
                    if (1usize << *target) & (sb | ctrl_mask) == 0 && *c2 & sb == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Dense2 { t0, t1, ctrl_mask: c2, .. } => {
                    let pb2 = (1usize << *t0) | (1usize << *t1);
                    if pb2 & (sb | ctrl_mask) == 0 && *c2 & sb == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                LowOp::Phase { set_mask, clear_mask, .. } => {
                    if *set_mask == usize::MAX || (*set_mask | *clear_mask) & sb == 0 {
                        idx -= 1;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        self.out.insert(idx, LowOp::Swap { a, b, ctrl_mask, src });
    }
}

/// Pick the cheapest kernel for a fused 2×2 matrix; `None` for an exact
/// identity (which only arises from symbolic cancellations like X·X — the
/// float products of e.g. H·H are *near*-identity and stay dense).
fn classify_dense(target: usize, ctrl_mask: usize, m: [[Complex64; 2]; 2]) -> Option<KernelOp> {
    let bit = 1usize << target;
    let diagonal = m[0][1] == Complex64::ZERO && m[1][0] == Complex64::ZERO;
    let anti_diagonal = m[0][0] == Complex64::ZERO && m[1][1] == Complex64::ZERO;
    if diagonal {
        if m[0][0] == Complex64::ONE && m[1][1] == Complex64::ONE {
            return None;
        }
        if m[0][0] == Complex64::ONE {
            return Some(KernelOp::Phase { set_mask: ctrl_mask | bit, clear_mask: 0, phase: m[1][1] });
        }
        if m[1][1] == Complex64::ONE {
            return Some(KernelOp::Phase { set_mask: ctrl_mask, clear_mask: bit, phase: m[0][0] });
        }
        return Some(KernelOp::Diag { target, ctrl_mask, d0: m[0][0], d1: m[1][1] });
    }
    if anti_diagonal {
        return Some(KernelOp::Flip { target, ctrl_mask, m01: m[0][1], m10: m[1][0] });
    }
    Some(KernelOp::Dense { target, ctrl_mask, m })
}

/// Pick the cheapest kernel for a fused 4×4 pair block: exact identities
/// drop, an exact swap permutation runs the dedicated swap kernel,
/// everything else replays through [`StateVector::apply_pair`].
fn classify_dense2(t0: usize, t1: usize, ctrl_mask: usize, m: Box<[[Complex64; 4]; 4]>) -> Option<KernelOp> {
    if *m == identity4() {
        return None;
    }
    if *m == swap4() {
        return Some(KernelOp::Swap { a: t0, b: t1, ctrl_mask });
    }
    Some(KernelOp::Dense2 { t0, t1, ctrl_mask, m })
}

/// One factor of a parameterized single-qubit group's matrix product:
/// maximal runs of constant atoms are pre-multiplied once at template
/// build, so a rebind only re-derives the parameter-dependent atoms.
#[derive(Debug, Clone)]
enum Fac2 {
    Const([[Complex64; 2]; 2]),
    Atom(u32),
}

/// One factor of a parameterized pair group's matrix product (constant
/// runs pre-multiplied into 4×4 blocks at template build).
#[derive(Debug, Clone)]
enum Fac4 {
    Const(Box<[[Complex64; 4]; 4]>),
    Atom(u32),
}

/// One op of a [`CompiledTemplate`]: constant groups are classified once
/// at template build, parameter-dependent groups stay symbolic.
#[derive(Debug, Clone)]
enum TOp {
    /// A fully-constant group — reused verbatim by every rebind.
    Fixed(KernelOp),
    /// Parameter-dependent single-qubit group: ordered factor product,
    /// classified per binding.
    Dense { target: usize, ctrl_mask: usize, factors: Vec<Fac2> },
    /// Parameter-dependent pair group.
    Dense2 { t0: usize, t1: usize, ctrl_mask: usize, factors: Vec<Fac4> },
    /// Parameter-dependent phase group: the constant part of the angle sum
    /// is folded at build, slot contributions are summed per binding —
    /// exactly as the fuser's angle-addition merges would for the bound
    /// circuit.
    Phase { set_mask: usize, clear_mask: usize, const_theta: f64, slots: Vec<(u32, f64)> },
}

/// A structure-only compilation: every fusion decision (grouping, op
/// order, classification of constant groups) made once, with
/// parameter-dependent groups kept symbolic. [`CompiledTemplate::rebind`]
/// turns it into a [`CompiledCircuit`] for a concrete angle vector without
/// re-running lowering — the basis of the structural compile cache.
///
/// Rebound plans match a cold [`CompiledCircuit::compile`] of the bound
/// circuit up to float association order (a group product is accumulated
/// in one order here and incrementally there), which stays within the
/// crate's ~1e-12 fused-vs-interpreted amplitude contract.
#[derive(Debug, Clone)]
pub struct CompiledTemplate {
    num_qubits: usize,
    source_len: usize,
    num_slots: usize,
    atoms: Vec<Atom>,
    tops: Vec<TOp>,
    /// Whether the source's measurements are terminal ([`terminal_suffix`]).
    terminal: bool,
}

impl CompiledTemplate {
    /// Lower and fuse the *structure* of `circuit`, ignoring its bound
    /// angles. Two circuits that agree structurally (same gates, operands
    /// and parameter arity — see [`Circuit::structurally_equal`])
    /// produce interchangeable templates.
    pub fn compile(circuit: &Circuit) -> CompiledTemplate {
        let mut fuser = Fuser::new(circuit.num_qubits(), circuit.len(), true);
        let terminal = terminal_suffix(circuit);
        let mut slot0 = 0u32;
        for (i, inst) in circuit.instructions().iter().enumerate() {
            if terminal == Some(i) {
                fuser.flush_permutation();
            }
            fuser.push_instruction(inst, Some(slot0));
            slot0 += inst.params.len() as u32;
        }
        let num_slots = slot0 as usize;
        let (lowered, atoms) = fuser.lower();

        // Collapse maximal runs of constant atoms into precomputed
        // matrices, so a rebind multiplies one matrix per constant run
        // instead of one per constant atom (constant atoms never read the
        // binding — their matrices are fixed at build).
        let fac2 = |src: &Srcs, bit: usize| -> Vec<Fac2> {
            let mut out = Vec::new();
            let mut acc: Option<[[Complex64; 2]; 2]> = None;
            for &id in src {
                if id & PARAM_ATOM != 0 {
                    if let Some(m) = acc.take() {
                        out.push(Fac2::Const(m));
                    }
                    out.push(Fac2::Atom(id));
                } else {
                    let m = atoms[id as usize].mat2(bit, &[]);
                    acc = Some(match acc {
                        Some(prev) => mat2_mul(m, prev),
                        None => m,
                    });
                }
            }
            if let Some(m) = acc {
                out.push(Fac2::Const(m));
            }
            out
        };
        let fac4 = |src: &Srcs, t0: usize, t1: usize| -> Vec<Fac4> {
            let mut out = Vec::new();
            let mut acc: Option<Box<[[Complex64; 4]; 4]>> = None;
            for &id in src {
                if id & PARAM_ATOM != 0 {
                    if let Some(m) = acc.take() {
                        out.push(Fac4::Const(m));
                    }
                    out.push(Fac4::Atom(id));
                } else {
                    let m = atoms[id as usize].mat4(t0, t1, &[]);
                    acc = Some(match acc {
                        Some(prev) => Box::new(mat4_mul(&m, &prev)),
                        None => Box::new(m),
                    });
                }
            }
            if let Some(m) = acc {
                out.push(Fac4::Const(m));
            }
            out
        };

        let mut tops = Vec::with_capacity(lowered.len());
        for low in lowered {
            match low {
                LowOp::Dense { target, ctrl_mask, m, src } => {
                    if has_param(&src) {
                        let factors = fac2(&src, 1usize << target);
                        tops.push(TOp::Dense { target, ctrl_mask, factors });
                    } else if let Some(op) = classify_dense(target, ctrl_mask, m) {
                        tops.push(TOp::Fixed(op));
                    }
                }
                LowOp::Dense2 { t0, t1, ctrl_mask, m, src } => {
                    if has_param(&src) {
                        let factors = fac4(&src, t0, t1);
                        tops.push(TOp::Dense2 { t0, t1, ctrl_mask, factors });
                    } else if let Some(op) = classify_dense2(t0, t1, ctrl_mask, m) {
                        tops.push(TOp::Fixed(op));
                    }
                }
                LowOp::Phase { set_mask, clear_mask, theta, src } => {
                    if has_param(&src) {
                        let mut const_theta = 0.0;
                        let mut slots = Vec::new();
                        for &id in &src {
                            match &atoms[(id & !PARAM_ATOM) as usize] {
                                Atom::Phase { theta: ThetaSpec::Const(c), .. } => const_theta += c,
                                Atom::Phase { theta: ThetaSpec::Slot { slot, scale }, .. } => {
                                    slots.push((*slot, *scale))
                                }
                                other => unreachable!("non-phase atom {other:?} in a phase group"),
                            }
                        }
                        tops.push(TOp::Phase { set_mask, clear_mask, const_theta, slots });
                    } else if theta != 0.0 {
                        let phase = Complex64::from_polar_unit(theta);
                        tops.push(TOp::Fixed(if set_mask == usize::MAX {
                            KernelOp::Scale { factor: phase }
                        } else {
                            KernelOp::Phase { set_mask, clear_mask, phase }
                        }));
                    }
                }
                LowOp::Swap { a, b, ctrl_mask, .. } => {
                    tops.push(TOp::Fixed(KernelOp::Swap { a, b, ctrl_mask }))
                }
                LowOp::Measure { qubit, loc } => tops.push(TOp::Fixed(KernelOp::Measure { qubit, loc })),
                LowOp::Reset { qubit, loc } => tops.push(TOp::Fixed(KernelOp::Reset { qubit, loc })),
                LowOp::Barrier => {}
            }
        }
        CompiledTemplate {
            num_qubits: circuit.num_qubits(),
            source_len: circuit.len(),
            num_slots,
            atoms,
            tops,
            terminal: terminal.is_some(),
        }
    }

    /// Qubit count of the source structure.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of flattened parameter slots the structure expects
    /// (`Circuit::flat_params().len()` of any structurally-equal circuit).
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Bind a concrete angle vector (program-order flattened parameters,
    /// see `Circuit::flat_params`) into an executable plan. Constant
    /// groups and all fusion decisions are reused; only parameter-dependent
    /// groups are re-derived and re-classified, so binding-specific
    /// identities (a swept angle hitting 0) still drop per binding.
    pub fn rebind(&self, values: &[f64]) -> CompiledCircuit {
        assert_eq!(
            values.len(),
            self.num_slots,
            "template expects {} parameter values, got {}",
            self.num_slots,
            values.len()
        );
        let mut ops = Vec::with_capacity(self.tops.len());
        for top in &self.tops {
            match top {
                TOp::Fixed(op) => ops.push(op.clone()),
                TOp::Dense { target, ctrl_mask, factors } => {
                    let bit = 1usize << target;
                    let mut m = [[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, Complex64::ONE]];
                    for f in factors {
                        let a = match f {
                            Fac2::Const(c) => *c,
                            Fac2::Atom(id) => self.atoms[(id & !PARAM_ATOM) as usize].mat2(bit, values),
                        };
                        m = mat2_mul(a, m);
                    }
                    if let Some(op) = classify_dense(*target, *ctrl_mask, m) {
                        ops.push(op);
                    }
                }
                TOp::Dense2 { t0, t1, ctrl_mask, factors } => {
                    let pb = (1usize << t0) | (1usize << t1);
                    let mut m4 = identity4();
                    for f in factors {
                        match f {
                            Fac4::Const(c) => m4 = mat4_mul(c, &m4),
                            // Parameterized pair atoms multiply through the
                            // structure-aware kernels (an embedded single
                            // mixes one row pair, a phase scales rows)
                            // instead of a general 4×4 product.
                            Fac4::Atom(id) => match &self.atoms[(id & !PARAM_ATOM) as usize] {
                                Atom::Single { gate, target, ctrl_mask, pslot } => mul4_single_left(
                                    &mut m4,
                                    usize::from(*target == *t1),
                                    pair_s_mask(ctrl_mask & pb, *t0, *t1),
                                    Atom::single_matrix(*gate, *pslot, values),
                                ),
                                Atom::Phase { set_mask, clear_mask, theta } => mul4_phase_left(
                                    &mut m4,
                                    pair_s_mask(set_mask & pb, *t0, *t1),
                                    pair_s_mask(clear_mask & pb, *t0, *t1),
                                    theta.eval(values),
                                ),
                                Atom::Swap => unreachable!("swap atoms are constant factors"),
                            },
                        }
                    }
                    if let Some(op) = classify_dense2(*t0, *t1, *ctrl_mask, Box::new(m4)) {
                        ops.push(op);
                    }
                }
                TOp::Phase { set_mask, clear_mask, const_theta, slots } => {
                    let mut theta = *const_theta;
                    for &(slot, scale) in slots {
                        theta += scale * values[slot as usize];
                    }
                    if theta != 0.0 {
                        let phase = Complex64::from_polar_unit(theta);
                        ops.push(if *set_mask == usize::MAX {
                            KernelOp::Scale { factor: phase }
                        } else {
                            KernelOp::Phase { set_mask: *set_mask, clear_mask: *clear_mask, phase }
                        });
                    }
                }
            }
        }
        CompiledCircuit::from_ops(self.num_qubits, ops, self.source_len, self.terminal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_once_interpreted;
    use qcor_circuit::library;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_states_agree(circuit: &Circuit, eps: f64) {
        let mut interp = StateVector::new(circuit.num_qubits());
        let mut fused = StateVector::new(circuit.num_qubits());
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let rec1 = run_once_interpreted(&mut interp, circuit, &mut rng1);
        let compiled = CompiledCircuit::compile(circuit);
        let rec2 = compiled.run_once(&mut fused, &mut rng2);
        assert_eq!(rec1, rec2, "measurement records must match");
        for (a, b) in interp.amplitudes().iter().zip(fused.amplitudes()) {
            assert!(a.approx_eq(*b, eps), "{a} vs {b}");
        }
    }

    #[test]
    fn adjacent_singles_on_same_target_fuse() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).h(0).x(1);
        let compiled = CompiledCircuit::compile(&c);
        // H·T·H collapses to one dense op, and the pair pass then absorbs
        // the X(1) flip into a single two-qubit block.
        assert_eq!(compiled.len(), 1, "{:?}", compiled.ops());
        assert!(matches!(compiled.ops(), [KernelOp::Dense2 { t0: 0, t1: 1, ctrl_mask: 0, .. }]));
        assert_states_agree(&c, 1e-12);
    }

    #[test]
    fn x_x_cancels_to_identity() {
        let mut c = Circuit::new(1);
        c.x(0).x(0);
        let compiled = CompiledCircuit::compile(&c);
        assert!(compiled.is_empty(), "{:?}", compiled.ops());
    }

    #[test]
    fn phase_runs_merge_by_mask() {
        let mut c = Circuit::new(3);
        // T(0); CZ(1,2); T(0); S(0) — the qubit-0 phases merge across the
        // commuting CZ into one phase op.
        c.t(0).cz(1, 2).t(0).s(0);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(compiled.len(), 2, "{:?}", compiled.ops());
        assert_states_agree(&c, 1e-12);
    }

    #[test]
    fn t_tdg_cancel_exactly() {
        let mut c = Circuit::new(1);
        c.t(0).tdg(0);
        let compiled = CompiledCircuit::compile(&c);
        assert!(compiled.is_empty(), "{:?}", compiled.ops());
    }

    #[test]
    fn barrier_blocks_fusion() {
        let mut c = Circuit::new(1);
        c.t(0);
        c.push(Instruction::new(GateKind::Barrier, vec![0], vec![]));
        c.t(0);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(compiled.len(), 2, "{:?}", compiled.ops());
    }

    #[test]
    fn measure_blocks_fusion_and_replays_identically() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0).h(0).measure(0);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(compiled.len(), 4);
        for seed in 0..20 {
            let mut a = StateVector::new(1);
            let mut b = StateVector::new(1);
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let rec_a = run_once_interpreted(&mut a, &c, &mut r1);
            let rec_b = compiled.run_once(&mut b, &mut r2);
            assert_eq!(rec_a, rec_b, "seed {seed}");
        }
    }

    #[test]
    fn controlled_gates_keep_control_masks() {
        // Pure X/CX ladders are cheap for the flip kernel, so the pair pass
        // deliberately leaves them unpaired.
        let mut c = Circuit::new(3);
        c.cx(0, 1).ccx(0, 1, 2);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(
            compiled.ops(),
            &[
                KernelOp::Flip { target: 1, ctrl_mask: 1, m01: Complex64::ONE, m10: Complex64::ONE },
                KernelOp::Flip { target: 2, ctrl_mask: 0b11, m01: Complex64::ONE, m10: Complex64::ONE },
            ]
        );
    }

    #[test]
    fn rz_global_phase_is_preserved() {
        let mut c = Circuit::new(2);
        c.h(0).rz(0, 0.83).rz(1, -0.21);
        assert_states_agree(&c, 1e-12);
        let compiled = CompiledCircuit::compile(&c);
        assert!(compiled.ops().iter().any(|op| matches!(op, KernelOp::Scale { .. })), "{:?}", compiled.ops());
    }

    #[test]
    fn library_kernels_replay_equivalently() {
        assert_states_agree(&library::bell_kernel(), 1e-12);
        assert_states_agree(&library::ghz_kernel(5), 1e-12);
        assert_states_agree(&library::qft(4), 1e-12);
    }

    #[test]
    fn fused_qft_is_shorter_than_source() {
        let qft = library::qft(5);
        let compiled = CompiledCircuit::compile(&qft);
        assert!(compiled.len() <= compiled.source_len());
    }

    #[test]
    fn compiled_replay_iterates_less_than_interpreted_and_never_allocates_scratch() {
        use crate::stats::{kernel_iterations, reset_kernel_iterations};
        // A GHZ skeleton, then fusable single-qubit runs between CX and CZ
        // layers: fusion must remove whole sweeps, not just instructions.
        let n = 10;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        for layer in 0..3 {
            for q in 0..n {
                c.t(q).h(q).s(q).h(q).tdg(q).rz(q, 0.11 * (layer + 1) as f64);
            }
            for q in 0..n - 2 {
                c.cx(q, q + 1).cz(q, q + 2);
            }
        }
        c.measure_all();
        let iterations = |run: &dyn Fn(&mut StateVector, &mut StdRng)| {
            let mut state = StateVector::new(n);
            reset_kernel_iterations();
            run(&mut state, &mut StdRng::seed_from_u64(5));
            assert_eq!(state.scratch_allocations(), 0, "replay must not touch the scratch allocator");
            kernel_iterations()
        };
        let interpreted = iterations(&|s, rng| {
            run_once_interpreted(s, &c, rng);
        });
        let compiled = CompiledCircuit::compile(&c);
        let fused = iterations(&|s, rng| {
            compiled.run_once(s, rng);
        });
        assert!(
            fused < interpreted,
            "compiled replay must issue fewer kernel iterations ({fused} vs {interpreted})"
        );
    }

    #[test]
    fn diag_classification_uses_phase_kernel_for_s_under_control() {
        // CX-sandwiched diagonal: S(1) compiles to a Phase kernel op, not a
        // dense matrix.
        let mut c = Circuit::new(2);
        c.s(1);
        let compiled = CompiledCircuit::compile(&c);
        assert!(
            matches!(compiled.ops(), [KernelOp::Phase { set_mask: 0b10, clear_mask: 0, .. }]),
            "{:?}",
            compiled.ops()
        );
    }

    #[test]
    fn dense_commutes_over_disjoint_dense_to_fuse() {
        // H(0); H(1); H(0) — the two H(0)s fuse across the commuting H(1),
        // and the pair pass then merges the lot into one two-qubit block.
        let mut c = Circuit::new(2);
        c.h(0).h(1).h(0);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(compiled.len(), 1, "{:?}", compiled.ops());
        assert!(matches!(compiled.ops(), [KernelOp::Dense2 { .. }]));
        assert_states_agree(&c, 1e-12);
    }

    #[test]
    fn pair_runs_fuse_into_one_dense2_block() {
        // Single-qubit runs on both qubits of a pair plus the entangling CX
        // collapse into a single 4×4 block: one sweep for five gates.
        let mut c = Circuit::new(2);
        c.h(0).t(0).h(1).s(1).cx(0, 1);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(compiled.len(), 1, "{:?}", compiled.ops());
        assert!(matches!(compiled.ops(), [KernelOp::Dense2 { t0: 0, t1: 1, ctrl_mask: 0, .. }]));
        assert_states_agree(&c, 1e-12);
    }

    #[test]
    fn fusion_crosses_swap_by_relabeling() {
        // H(0); Swap(0,1); H(0): the swap becomes a relabeling, the second
        // H lands on physical qubit 1, both pair up, and the flushed
        // end-of-circuit swap is absorbed into the block. One op total.
        let mut c = Circuit::new(2);
        c.h(0).swap(0, 1).h(0);
        let compiled = CompiledCircuit::compile(&c);
        assert_eq!(compiled.len(), 1, "{:?}", compiled.ops());
        assert!(matches!(compiled.ops(), [KernelOp::Dense2 { t0: 0, t1: 1, ctrl_mask: 0, .. }]));
        assert_states_agree(&c, 1e-12);
    }

    #[test]
    fn swap_swap_cancels_through_relabeling() {
        let mut c = Circuit::new(2);
        c.swap(0, 1).swap(0, 1);
        let compiled = CompiledCircuit::compile(&c);
        assert!(compiled.is_empty(), "{:?}", compiled.ops());
    }

    #[test]
    fn measure_after_swap_reports_logical_qubit() {
        // X(0); Swap(0,1); Measure(0); Measure(1) — the swap is relabeled
        // away, so the measures read physical bits 1 and 0, but the shot
        // record must still report logical qubits 0 and 1.
        let mut c = Circuit::new(2);
        c.x(0).swap(0, 1).measure(0).measure(1);
        let compiled = CompiledCircuit::compile(&c);
        let mut state = StateVector::new(2);
        let mut rng = StdRng::seed_from_u64(3);
        let record = compiled.run_once(&mut state, &mut rng);
        assert_eq!(record.outcomes, vec![(0, 0), (1, 1)]);
        assert_states_agree(&c, 1e-12);
    }

    /// One sample instruction per unitary gate kind, on 3 qubits.
    fn sample_unitaries() -> Vec<Instruction> {
        use GateKind::*;
        [
            (H, vec![0], vec![]),
            (X, vec![1], vec![]),
            (Y, vec![2], vec![]),
            (Z, vec![0], vec![]),
            (S, vec![1], vec![]),
            (Sdg, vec![2], vec![]),
            (T, vec![0], vec![]),
            (Tdg, vec![1], vec![]),
            (Rx, vec![2], vec![0.3]),
            (Ry, vec![0], vec![-0.4]),
            (Rz, vec![1], vec![0.5]),
            (Phase, vec![2], vec![0.6]),
            (U3, vec![0], vec![0.1, 0.2, 0.3]),
            (CX, vec![0, 1], vec![]),
            (CY, vec![1, 2], vec![]),
            (CZ, vec![0, 2], vec![]),
            (CPhase, vec![1, 0], vec![0.7]),
            (CRz, vec![2, 1], vec![-0.8]),
            (Swap, vec![0, 2], vec![]),
            (CCX, vec![0, 1, 2], vec![]),
            (CSwap, vec![2, 0, 1], vec![]),
            (CCPhase, vec![0, 1, 2], vec![0.9]),
        ]
        .into_iter()
        .map(|(g, qs, ps)| Instruction::new(g, qs, ps))
        .collect()
    }

    #[test]
    fn is_diagonal_is_the_spec_for_phase_sweep_lowering() {
        // `GateKind::is_diagonal` and the compiler's lowering must agree:
        // exactly the diagonal gates compile to pure Phase/Scale ops (the
        // property that lets runs of them merge into phase sweeps). If a
        // new gate kind diverges between the two encodings, this fails.
        for inst in sample_unitaries() {
            let mut c = Circuit::new(3);
            c.push(inst.clone());
            let compiled = CompiledCircuit::compile(&c);
            let pure_phase =
                compiled.ops().iter().all(|op| matches!(op, KernelOp::Phase { .. } | KernelOp::Scale { .. }));
            assert_eq!(
                pure_phase,
                inst.gate.is_diagonal(),
                "{}: lowering and is_diagonal() disagree ({:?})",
                inst.gate,
                compiled.ops()
            );
        }
    }

    #[test]
    fn kernel_masks_stay_within_instruction_support() {
        // Every compiled op's qubit footprint must be contained in the
        // source instruction's `support_mask` (Scale excepted: the global
        // phase has no qubit footprint).
        for inst in sample_unitaries() {
            let support = inst.support_mask();
            let mut c = Circuit::new(3);
            c.push(inst.clone());
            for op in CompiledCircuit::compile(&c).ops() {
                let footprint = match op {
                    KernelOp::Dense { target, ctrl_mask, .. }
                    | KernelOp::Flip { target, ctrl_mask, .. }
                    | KernelOp::Diag { target, ctrl_mask, .. } => (1 << target) | ctrl_mask,
                    KernelOp::Dense2 { t0, t1, ctrl_mask, .. } => (1 << t0) | (1 << t1) | ctrl_mask,
                    KernelOp::Phase { set_mask, clear_mask, .. } => set_mask | clear_mask,
                    KernelOp::Swap { a, b, ctrl_mask } => (1 << a) | (1 << b) | ctrl_mask,
                    KernelOp::Scale { .. } => 0,
                    KernelOp::Measure { qubit, loc } | KernelOp::Reset { qubit, loc } => {
                        (1 << qubit) | (1 << loc)
                    }
                };
                assert_eq!(
                    footprint & !support,
                    0,
                    "{}: op {op:?} escapes the instruction support {support:#b}",
                    inst.gate
                );
            }
        }
    }

    #[test]
    fn swap_gates_compile_to_swap_ops() {
        let mut c = Circuit::new(3);
        c.swap(0, 1);
        c.push(Instruction::new(GateKind::CSwap, vec![2, 0, 1], vec![]));
        let compiled = CompiledCircuit::compile(&c);
        // The uncontrolled swap relabels: the CSwap's operands map through
        // it (to the same pair {0,1}), and the relabeling flushes as an
        // uncontrolled swap at the end.
        assert_eq!(
            compiled.ops(),
            &[KernelOp::Swap { a: 0, b: 1, ctrl_mask: 1 << 2 }, KernelOp::Swap { a: 0, b: 1, ctrl_mask: 0 }]
        );
        assert_states_agree(&c, 1e-12);
    }

    #[test]
    fn blocked_replay_is_bit_identical_to_unblocked() {
        // 18 qubits = the blocking threshold. Mix block-local ops (every
        // class, qubits < 15) with a high-qubit op that forces a non-local
        // segment in the middle.
        let n = CACHE_BLOCK_MIN_QUBITS;
        let mut c = Circuit::new(n);
        c.h(0).t(0).h(1).s(1).cx(0, 1); // → Dense2
        c.ry(2, 0.37); // → Dense
        c.x(3).cx(3, 4); // → Flips
        c.rz(5, 0.21).cz(5, 6); // → Phase + Scale
        c.ccphase(9, 11, 13, 0.61).ccx(12, 14, 10); // → controlled Phase + Flip
        c.h(17).cx(17, 2); // high-qubit: non-blockable segment
        c.swap(7, 8); // relabel + flushed swap
        c.h(7);
        // The gate set fuses no controlled pair block, so add one with
        // controls below, between and above its pair, and a Phase with
        // both set and clear bits, inside the first blockable segment.
        let mut ops = CompiledCircuit::compile(&c).ops().to_vec();
        let m = Box::new(std::array::from_fn(|r| {
            std::array::from_fn(|col| {
                Complex64::new(0.1 * (r + 1) as f64 - 0.2 * col as f64, 0.05 * (r * col) as f64)
            })
        }));
        ops.insert(1, KernelOp::Dense2 { t0: 3, t1: 9, ctrl_mask: (1 << 1) | (1 << 5) | (1 << 12), m });
        let phase = Complex64::from_polar_unit(-0.83);
        ops.insert(
            2,
            KernelOp::Phase { set_mask: (1 << 0) | (1 << 8), clear_mask: (1 << 4) | (1 << 11), phase },
        );
        let compiled = CompiledCircuit::from_ops(n, ops, c.len(), false);
        assert!(
            compiled.ops().iter().any(|op| !is_block_local(op)),
            "test must exercise a non-blockable segment: {:?}",
            compiled.ops()
        );
        assert!(compiled.segments[0].1 && compiled.segments[0].0.contains(&2), "{:?}", compiled.segments);

        // Blocked replay (run_once engages blocking at 2^18 amplitudes).
        let mut blocked = StateVector::new(n);
        let mut rng = StdRng::seed_from_u64(11);
        compiled.run_once(&mut blocked, &mut rng);

        // Unblocked replay: the same ops through the full-state kernels.
        let mut plain = StateVector::new(n);
        let mut rng2 = StdRng::seed_from_u64(11);
        for op in compiled.ops() {
            match op {
                KernelOp::Dense { target, ctrl_mask, m } => plain.apply_single(*target, *m, *ctrl_mask),
                KernelOp::Dense2 { t0, t1, ctrl_mask, m } => plain.apply_pair(*t0, *t1, m, *ctrl_mask),
                KernelOp::Flip { target, ctrl_mask, m01, m10 } => {
                    plain.apply_antidiag(*target, *m01, *m10, *ctrl_mask)
                }
                KernelOp::Diag { target, ctrl_mask, d0, d1 } => {
                    plain.apply_diag(*target, *d0, *d1, *ctrl_mask)
                }
                KernelOp::Phase { set_mask, clear_mask, phase } => {
                    plain.mul_where(*set_mask, *clear_mask, *phase)
                }
                KernelOp::Scale { factor } => plain.scale_all(*factor),
                KernelOp::Swap { a, b, ctrl_mask } => plain.apply_swap(*a, *b, *ctrl_mask),
                KernelOp::Measure { loc, .. } => {
                    plain.measure(*loc, &mut rng2);
                }
                KernelOp::Reset { loc, .. } => plain.reset(*loc, &mut rng2),
            }
        }
        assert_eq!(blocked.amplitudes(), plain.amplitudes(), "blocked replay must be bit-identical");
    }

    /// Rebinding a template must agree with a cold compile of the bound
    /// circuit: same measurement records, amplitudes to ~1e-12 (float
    /// association in a fused group differs, exact values don't).
    fn assert_rebind_matches_cold(structure: &Circuit, bound: &Circuit) {
        let template = CompiledTemplate::compile(structure);
        let rebound = template.rebind(&bound.flat_params());
        let cold = CompiledCircuit::compile(bound);
        let mut s1 = StateVector::new(bound.num_qubits());
        let mut s2 = StateVector::new(bound.num_qubits());
        let mut r1 = StdRng::seed_from_u64(17);
        let mut r2 = StdRng::seed_from_u64(17);
        let rec1 = rebound.run_once(&mut s1, &mut r1);
        let rec2 = cold.run_once(&mut s2, &mut r2);
        assert_eq!(rec1, rec2, "rebound and cold replays must record identically");
        for (a, b) in s1.amplitudes().iter().zip(s2.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a} vs {b}");
        }
    }

    /// A parameterized structure exercising every rebind group shape:
    /// dense singles, a pair block swallowing rotations, phase sweeps, the
    /// Rz global phase, CRz's two-phase split, and a mid-circuit measure.
    fn sweep_structure(angles: &[f64; 5]) -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).rx(0, angles[0]).rz(1, angles[1]).cx(0, 1).ry(1, angles[2]);
        c.crz(2, 0, angles[3]).t(2).cphase(1, 2, angles[4]);
        c.measure(0).h(2).measure(2);
        c
    }

    #[test]
    fn template_rebind_matches_cold_compile_across_a_sweep() {
        let structure = sweep_structure(&[0.0; 5]);
        for i in 0..8 {
            let t = i as f64 * 0.37 - 1.1;
            let bound = sweep_structure(&[t, -t, 0.5 * t, t + 0.2, t * t]);
            assert_rebind_matches_cold(&structure, &bound);
        }
    }

    #[test]
    fn template_rebind_handles_binding_specific_identities() {
        // Angles that make individual gates (or whole groups) collapse to
        // identity must drop at rebind time, not poison the template.
        let structure = sweep_structure(&[0.0; 5]);
        assert_rebind_matches_cold(&structure, &sweep_structure(&[0.0; 5]));
        assert_rebind_matches_cold(&structure, &sweep_structure(&[0.0, 1.3, 0.0, 0.0, -0.4]));
        // Opposite Rz angles on the same qubit cancel the phase group.
        let mut canceling = Circuit::new(3);
        canceling.rz(0, 0.9).rz(0, -0.9).h(1);
        let mut structure2 = Circuit::new(3);
        structure2.rz(0, 0.0).rz(0, 0.0).h(1);
        assert_rebind_matches_cold(&structure2, &canceling);
    }

    #[test]
    fn template_reuse_across_structurally_equal_circuits() {
        // One template, many bindings — the cache's core access pattern.
        let structure = sweep_structure(&[9.9, -3.0, 0.1, 2.2, 7.7]);
        let template = CompiledTemplate::compile(&structure);
        assert_eq!(template.num_slots(), 5);
        for i in 0..4 {
            let t = 0.25 + i as f64;
            let bound = sweep_structure(&[t, t, t, t, t]);
            let rebound = template.rebind(&bound.flat_params());
            let cold = CompiledCircuit::compile(&bound);
            let mut s1 = StateVector::new(3);
            let mut s2 = StateVector::new(3);
            let mut r1 = StdRng::seed_from_u64(5);
            let mut r2 = StdRng::seed_from_u64(5);
            assert_eq!(rebound.run_once(&mut s1, &mut r1), cold.run_once(&mut s2, &mut r2));
        }
    }

    #[test]
    fn template_of_constant_circuit_reuses_classified_ops() {
        // A circuit without parameters rebinds to exactly the cold plan.
        let mut c = Circuit::new(3);
        c.h(0).t(0).h(0).cx(0, 1).swap(1, 2).s(2).measure(0).measure(1).measure(2);
        let template = CompiledTemplate::compile(&c);
        assert_eq!(template.num_slots(), 0);
        let rebound = template.rebind(&[]);
        let cold = CompiledCircuit::compile(&c);
        assert_eq!(rebound.ops(), cold.ops(), "constant plans must be identical");
    }

    #[test]
    fn template_rebind_library_qft() {
        // QFT is the heaviest fusion user in the library (controlled-phase
        // ladders + swaps): rebind it at a different "angle set" by
        // checking structure-vs-itself.
        let qft = library::qft(4);
        assert_rebind_matches_cold(&qft, &qft);
    }

    #[test]
    #[should_panic(expected = "parameter values")]
    fn template_rebind_rejects_wrong_arity() {
        let structure = sweep_structure(&[0.0; 5]);
        CompiledTemplate::compile(&structure).rebind(&[1.0, 2.0]);
    }

    #[test]
    fn segments_group_block_local_runs() {
        let mut c = Circuit::new(CACHE_BLOCK_MIN_QUBITS);
        c.t(0).cz(1, 2); // two block-local phase ops (distinct masks)
        c.measure(1); // never blockable
        c.h(17); // non-local (can't hop back across the measure)
        c.measure(0);
        let compiled = CompiledCircuit::compile(&c);
        let segments = plan_segments(compiled.ops());
        assert_eq!(segments.len(), 2, "{segments:?} over {:?}", compiled.ops());
        assert_eq!(segments[0], (0..2, true), "leading phase run must be blockable: {segments:?}");
        assert!(!segments[1].1, "{segments:?}");
    }
}
