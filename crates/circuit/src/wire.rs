//! Versioned binary wire format for circuits, plus the structural hash
//! that keys the simulator's compile cache.
//!
//! The `vendor/serde` stub's derives expand to nothing (see
//! `vendor/README.md`), so nothing in this workspace can rely on
//! `#[derive(Serialize)]` producing working code. Instead of growing the
//! stub into a real derive, circuits get a small hand-rolled codec with an
//! explicit layout:
//!
//! ```text
//! bytes 0..4   magic  b"QCWF"
//! byte  4      kind   (0x01 = Circuit)
//! byte  5      format version (currently 1)
//! bytes 6..    little-endian payload, layout owned by (kind, version)
//! ```
//!
//! Version policy: the version byte is bumped whenever the payload layout
//! of a kind changes; decoders reject unknown versions with
//! [`WireError::UnknownVersion`] rather than guessing. Gate codes are a
//! frozen table ([`gate_code`]) — new gates append new codes, existing
//! codes are never renumbered.
//!
//! The **structural hash** ([`structural_hash`]) digests everything about a
//! circuit *except* bound angle values: qubit count, instruction stream,
//! gate kinds, operands, classical bits, and each gate's parameter *count*
//! (which fixes the parameter slot numbering). Two circuits that differ
//! only in their angles — a parameter sweep — therefore hash identically,
//! which is what lets the compile cache re-bind angles into a cached plan
//! instead of re-lowering.

use crate::circuit::Circuit;
use crate::gate::{GateKind, Instruction};
use crate::CircuitError;

/// Current wire-format version for the `Circuit` payload.
pub const CIRCUIT_WIRE_VERSION: u8 = 1;
/// Magic prefix of every wire buffer.
pub const WIRE_MAGIC: [u8; 4] = *b"QCWF";
/// Kind byte for a [`Circuit`] payload. Kind `0x02` (a retired
/// compiled-plan payload) must not be reused.
pub const KIND_CIRCUIT: u8 = 0x01;

/// Typed decode/encode failure. Malformed input never panics.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Buffer does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// Kind byte does not match the expected payload kind.
    WrongKind { expected: u8, found: u8 },
    /// Version byte names a layout this decoder does not know.
    UnknownVersion(u8),
    /// Gate code outside the frozen gate table.
    UnknownGate(u8),
    /// Buffer ended before the payload did.
    Truncated { needed: usize, available: usize },
    /// Payload decoded but bytes remain.
    TrailingBytes(usize),
    /// Payload decoded to an invalid circuit (bad qubit index, oversized
    /// register, ...).
    Invalid(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "wire buffer does not start with the QCWF magic"),
            WireError::WrongKind { expected, found } => {
                write!(f, "wire kind byte {found:#04x} where {expected:#04x} was expected")
            }
            WireError::UnknownVersion(v) => write!(f, "unknown wire format version {v}"),
            WireError::UnknownGate(c) => write!(f, "unknown gate code {c:#04x}"),
            WireError::Truncated { needed, available } => {
                write!(f, "wire buffer truncated: needed {needed} more byte(s), {available} available")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after wire payload"),
            WireError::Invalid(msg) => write!(f, "invalid wire payload: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CircuitError> for WireError {
    fn from(e: CircuitError) -> Self {
        WireError::Invalid(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Frozen gate-code table.
// ---------------------------------------------------------------------------

/// Stable wire code of a gate kind. Codes are append-only: renumbering an
/// existing code is a format break and requires a version bump.
pub fn gate_code(gate: GateKind) -> u8 {
    match gate {
        GateKind::H => 0,
        GateKind::X => 1,
        GateKind::Y => 2,
        GateKind::Z => 3,
        GateKind::S => 4,
        GateKind::Sdg => 5,
        GateKind::T => 6,
        GateKind::Tdg => 7,
        GateKind::Rx => 8,
        GateKind::Ry => 9,
        GateKind::Rz => 10,
        GateKind::Phase => 11,
        GateKind::U3 => 12,
        GateKind::CX => 13,
        GateKind::CY => 14,
        GateKind::CZ => 15,
        GateKind::CPhase => 16,
        GateKind::CRz => 17,
        GateKind::Swap => 18,
        GateKind::CCX => 19,
        GateKind::CSwap => 20,
        GateKind::CCPhase => 21,
        GateKind::Measure => 22,
        GateKind::Reset => 23,
        GateKind::Barrier => 24,
    }
}

/// Inverse of [`gate_code`].
pub fn gate_from_code(code: u8) -> Option<GateKind> {
    Some(match code {
        0 => GateKind::H,
        1 => GateKind::X,
        2 => GateKind::Y,
        3 => GateKind::Z,
        4 => GateKind::S,
        5 => GateKind::Sdg,
        6 => GateKind::T,
        7 => GateKind::Tdg,
        8 => GateKind::Rx,
        9 => GateKind::Ry,
        10 => GateKind::Rz,
        11 => GateKind::Phase,
        12 => GateKind::U3,
        13 => GateKind::CX,
        14 => GateKind::CY,
        15 => GateKind::CZ,
        16 => GateKind::CPhase,
        17 => GateKind::CRz,
        18 => GateKind::Swap,
        19 => GateKind::CCX,
        20 => GateKind::CSwap,
        21 => GateKind::CCPhase,
        22 => GateKind::Measure,
        23 => GateKind::Reset,
        24 => GateKind::Barrier,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Little-endian writer/reader primitives.
// ---------------------------------------------------------------------------

/// Appends little-endian primitives after the magic/kind/version header.
struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Start a buffer with the `QCWF` magic, kind and version bytes.
    fn new(kind: u8, version: u8) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&WIRE_MAGIC);
        buf.push(kind);
        buf.push(version);
        WireWriter { buf }
    }

    /// Append one byte.
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern, little-endian.
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Finish and take the buffer.
    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor over a wire buffer; every read is bounds-checked.
struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wrap a buffer; call [`WireReader::header`] before payload reads.
    fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Validate magic and kind, returning the version byte. The caller
    /// decides which versions it can decode.
    fn header(&mut self, expected_kind: u8) -> Result<u8, WireError> {
        if self.buf.len() < 6 {
            return Err(WireError::Truncated { needed: 6 - self.buf.len(), available: 0 });
        }
        if self.buf[..4] != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        let kind = self.buf[4];
        if kind != expected_kind {
            return Err(WireError::WrongKind { expected: expected_kind, found: kind });
        }
        self.pos = 6;
        Ok(self.buf[5])
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(WireError::Truncated { needed: n - available, available });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian IEEE-754 `f64`.
    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Error unless the payload consumed the whole buffer.
    fn finish(&self) -> Result<(), WireError> {
        let rest = self.buf.len() - self.pos;
        if rest != 0 {
            return Err(WireError::TrailingBytes(rest));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Circuit payload v1.
// ---------------------------------------------------------------------------

/// Encode a circuit into the v1 wire layout.
///
/// Payload: `u32 num_qubits`, `u32 count`, then per instruction a gate code
/// byte, `arity()` qubit `u32`s, `num_params()` `f64`s, and a classical-bit
/// presence byte followed by a `u32` when present.
pub fn encode(circuit: &Circuit) -> Vec<u8> {
    let mut w = WireWriter::new(KIND_CIRCUIT, CIRCUIT_WIRE_VERSION);
    w.u32(circuit.num_qubits() as u32);
    w.u32(circuit.len() as u32);
    for inst in circuit.instructions() {
        w.u8(gate_code(inst.gate));
        for &q in &inst.qubits {
            w.u32(q as u32);
        }
        for &p in &inst.params {
            w.f64(p);
        }
        match inst.cbit {
            Some(c) => {
                w.u8(1);
                w.u32(c as u32);
            }
            None => w.u8(0),
        }
    }
    w.finish()
}

/// Decode a v1 wire buffer back into a [`Circuit`]. All validation of the
/// ingest boundary happens here: magic/kind/version, the frozen gate table,
/// qubit bounds (via [`Circuit::try_push`]) and the [`crate::MAX_QUBITS`]
/// register cap (via [`Circuit::try_new`]).
pub fn decode(bytes: &[u8]) -> Result<Circuit, WireError> {
    let mut r = WireReader::new(bytes);
    let version = r.header(KIND_CIRCUIT)?;
    if version != CIRCUIT_WIRE_VERSION {
        return Err(WireError::UnknownVersion(version));
    }
    let num_qubits = r.u32()? as usize;
    let count = r.u32()? as usize;
    let mut circuit = Circuit::try_new(num_qubits)?;
    for _ in 0..count {
        let code = r.u8()?;
        let gate = gate_from_code(code).ok_or(WireError::UnknownGate(code))?;
        let mut qubits = Vec::with_capacity(gate.arity());
        for _ in 0..gate.arity() {
            qubits.push(r.u32()? as usize);
        }
        let mut params = Vec::with_capacity(gate.num_params());
        for _ in 0..gate.num_params() {
            params.push(r.f64()?);
        }
        let cbit = match r.u8()? {
            0 => None,
            1 => Some(r.u32()? as usize),
            flag => return Err(WireError::Invalid(format!("bad cbit flag {flag}"))),
        };
        let mut inst = Instruction::new(gate, qubits, params);
        inst.cbit = cbit;
        circuit.try_push(inst)?;
    }
    r.finish()?;
    Ok(circuit)
}

// ---------------------------------------------------------------------------
// Structural hash (word-at-a-time multiply-rotate mix) and structural
// equality.
// ---------------------------------------------------------------------------

const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const HASH_MULT: u64 = 0x2545_f491_4f6c_dd1d;

// One whole word per round (not a byte at a time — the hash sits on the
// compile-cache lookup path, where a deep circuit is several hundred
// words). The hash is in-process only, never serialized, so the mixing
// function can change without a wire-format version bump.
fn mix_u64(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(HASH_MULT).rotate_left(23)
}

/// Hash of a circuit's *structure*: qubit count, gate kinds, operands,
/// classical bits, and parameter counts — but not parameter values.
/// Parameterized gates are identified by their parameter slot (their
/// position in [`Circuit::flat_params`]), which is fully determined by the
/// structure, so a sweep over angles on one structure is a single hash.
pub fn structural_hash(circuit: &Circuit) -> u64 {
    let mut h = HASH_SEED;
    h = mix_u64(h, circuit.num_qubits() as u64);
    h = mix_u64(h, circuit.len() as u64);
    for inst in circuit.instructions() {
        h = mix_u64(h, gate_code(inst.gate) as u64);
        for &q in &inst.qubits {
            h = mix_u64(h, q as u64);
        }
        h = mix_u64(h, inst.params.len() as u64);
        match inst.cbit {
            Some(c) => {
                h = mix_u64(h, 1);
                h = mix_u64(h, c as u64);
            }
            None => h = mix_u64(h, 0),
        }
    }
    h
}

/// True when two circuits share a structure (equal up to parameter
/// values). The compile cache verifies this on every hit so a hash
/// collision can never substitute one circuit's plan for another's.
pub fn structurally_equal(a: &Circuit, b: &Circuit) -> bool {
    a.num_qubits() == b.num_qubits()
        && a.len() == b.len()
        && a.instructions().iter().zip(b.instructions()).all(|(x, y)| {
            x.gate == y.gate && x.qubits == y.qubits && x.cbit == y.cbit && x.params.len() == y.params.len()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0)
            .cx(0, 1)
            .rz(2, 0.1234)
            .u3(3, 0.1, -0.2, 0.3)
            .ccphase(0, 1, 2, -1.5)
            .measure_to(1, 3)
            .measure(0)
            .barrier(2)
            .reset(3);
        c
    }

    #[test]
    fn gate_codes_round_trip() {
        for code in 0u8..=24 {
            let gate = gate_from_code(code).unwrap();
            assert_eq!(gate_code(gate), code);
        }
        assert_eq!(gate_from_code(25), None);
        assert_eq!(gate_from_code(255), None);
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = sample();
        let bytes = encode(&c);
        assert_eq!(&bytes[..4], b"QCWF");
        assert_eq!(bytes[4], KIND_CIRCUIT);
        assert_eq!(bytes[5], CIRCUIT_WIRE_VERSION);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn empty_circuit_round_trips() {
        let c = Circuit::new(1);
        assert_eq!(decode(&encode(&c)).unwrap(), c);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(WireError::BadMagic));
    }

    #[test]
    fn decode_rejects_unknown_version() {
        let mut bytes = encode(&sample());
        bytes[5] = 99;
        assert_eq!(decode(&bytes), Err(WireError::UnknownVersion(99)));
    }

    #[test]
    fn decode_rejects_wrong_kind() {
        let mut bytes = encode(&sample());
        bytes[4] = 0x02;
        assert_eq!(decode(&bytes), Err(WireError::WrongKind { expected: KIND_CIRCUIT, found: 0x02 }));
    }

    #[test]
    fn decode_rejects_every_truncation() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Truncated { .. }), "cut at {cut} gave {err:?}");
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn decode_rejects_unknown_gate_code() {
        let mut w = WireWriter::new(KIND_CIRCUIT, CIRCUIT_WIRE_VERSION);
        w.u32(1);
        w.u32(1);
        w.u8(200); // not in the gate table
        assert_eq!(decode(&w.finish()), Err(WireError::UnknownGate(200)));
    }

    #[test]
    fn decode_rejects_out_of_range_qubit() {
        let mut w = WireWriter::new(KIND_CIRCUIT, CIRCUIT_WIRE_VERSION);
        w.u32(2);
        w.u32(1);
        w.u8(gate_code(GateKind::H));
        w.u32(7); // register has 2 qubits
        w.u8(0);
        assert!(matches!(decode(&w.finish()), Err(WireError::Invalid(_))));
    }

    #[test]
    fn decode_rejects_oversized_register() {
        let mut w = WireWriter::new(KIND_CIRCUIT, CIRCUIT_WIRE_VERSION);
        w.u32(1000); // wider than MAX_QUBITS
        w.u32(0);
        assert!(matches!(decode(&w.finish()), Err(WireError::Invalid(_))));
    }

    #[test]
    fn structural_hash_ignores_angles_only() {
        let mut a = Circuit::new(3);
        a.ry(0, 0.1).cphase(0, 1, 0.2).measure(2);
        let mut b = Circuit::new(3);
        b.ry(0, 2.9).cphase(0, 1, -1.4).measure(2);
        assert_eq!(structural_hash(&a), structural_hash(&b));
        assert!(structurally_equal(&a, &b));

        // A different operand, gate kind, cbit or length must change it.
        let mut c = Circuit::new(3);
        c.ry(1, 0.1).cphase(0, 1, 0.2).measure(2);
        assert_ne!(structural_hash(&a), structural_hash(&c));
        assert!(!structurally_equal(&a, &c));
        let mut d = Circuit::new(3);
        d.rx(0, 0.1).cphase(0, 1, 0.2).measure(2);
        assert_ne!(structural_hash(&a), structural_hash(&d));
        let mut e = Circuit::new(3);
        e.ry(0, 0.1).cphase(0, 1, 0.2).measure_to(2, 1);
        assert_ne!(structural_hash(&a), structural_hash(&e));
    }

    #[test]
    fn flat_params_orders_slots_by_program_order() {
        let mut c = Circuit::new(2);
        c.h(0).ry(0, 0.5).u3(1, 1.0, 2.0, 3.0).cphase(0, 1, -0.25);
        assert_eq!(c.flat_params(), vec![0.5, 1.0, 2.0, 3.0, -0.25]);
    }
}
