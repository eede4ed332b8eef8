//! `qalloc` and the global buffer table (paper Listing 6).
//!
//! The original implementation kept a global
//! `map<string, shared_ptr<AcceleratorBuffer>> allocated_buffers` and
//! inserted into it from `qalloc()` without synchronization; the paper's
//! fix wraps the insertion in a `std::lock_guard`. Here the same table is a
//! `Mutex<HashMap<...>>` — the lock is the point, not an accident of Rust's
//! safety rules.
//!
//! One departure from the original: the table holds **weak** references. A
//! buffer lives as long as some [`QReg`] handle to it does and its entry
//! leaves the table when the last handle drops, so a process that `qalloc`s
//! per kernel invocation keeps as many buffers as it has invocations in
//! flight, not as many as it has ever made. Lookup by name
//! ([`find_buffer`]) is unchanged for every buffer still in use.

use crate::QcorError;
use parking_lot::Mutex;
use qcor_xacc::AcceleratorBuffer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// The global allocated-buffers table of Listing 6.
static ALLOCATED_BUFFERS: Mutex<Option<HashMap<String, Weak<Registered>>>> = Mutex::new(None);

/// Monotonic suffix making generated buffer names unique even across
/// concurrent allocations.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A registered buffer: unregisters itself when its last handle drops.
struct Registered(Mutex<AcceleratorBuffer>);

impl std::ops::Deref for Registered {
    type Target = Mutex<AcceleratorBuffer>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Drop for Registered {
    fn drop(&mut self) {
        let mut table = ALLOCATED_BUFFERS.lock();
        let Some(table) = table.as_mut() else { return };
        let name = self.0.get_mut().name();
        // A later `qalloc_named` may have re-registered the name; only a
        // dead entry (this buffer's own) is removed.
        if table.get(name).is_some_and(|entry| entry.strong_count() == 0) {
            table.remove(name);
        }
    }
}

/// A handle to an allocated qubit register — the `qreg` of QCOR programs.
///
/// Cloning a `QReg` aliases the same underlying buffer (like the
/// `shared_ptr<AcceleratorBuffer>` it reproduces); all access is
/// mutex-guarded and therefore safe from any thread.
#[derive(Clone)]
pub struct QReg {
    buffer: Arc<Registered>,
    size: usize,
}

impl std::fmt::Debug for QReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let buf = self.buffer.lock();
        f.debug_struct("QReg").field("name", &buf.name()).field("size", &self.size).finish()
    }
}

impl QReg {
    /// Register size in qubits (`q.size()` in XASM).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Buffer name.
    pub fn name(&self) -> String {
        self.buffer.lock().name().to_string()
    }

    /// Run `f` with exclusive access to the underlying buffer.
    pub fn with_buffer<R>(&self, f: impl FnOnce(&mut AcceleratorBuffer) -> R) -> R {
        f(&mut self.buffer.lock())
    }

    /// Snapshot of the measurement counts.
    pub fn measurement_counts(&self) -> std::collections::BTreeMap<String, usize> {
        self.buffer.lock().measurements().clone()
    }

    /// Total recorded shots.
    pub fn total_shots(&self) -> usize {
        self.buffer.lock().total_shots()
    }

    /// Observed probability of a bitstring.
    pub fn probability(&self, bits: &str) -> f64 {
        self.buffer.lock().probability(bits)
    }

    /// ⟨Z...Z⟩ over the measured bits.
    pub fn exp_val_z(&self) -> f64 {
        self.buffer.lock().exp_val_z()
    }

    /// Print the buffer (the `q.print()` of Listing 1).
    pub fn print(&self) {
        self.buffer.lock().print();
    }

    /// Render the Listing-2 JSON document.
    pub fn to_json(&self) -> String {
        self.buffer.lock().to_json()
    }

    /// Discard recorded measurements (e.g. between objective evaluations).
    pub fn clear_measurements(&self) {
        self.buffer.lock().clear_measurements();
    }
}

/// Allocate an `n`-qubit register and register it in the global buffer
/// table — thread-safe, per paper Listing 6.
pub fn qalloc(n: usize) -> QReg {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    // Random XACC-style prefix plus a unique counter.
    let base = AcceleratorBuffer::new(n);
    let name = format!("{}_{id}", base.name());
    qalloc_named(name, n)
}

/// Allocate with an explicit buffer name (useful in tests).
pub fn qalloc_named(name: impl Into<String>, n: usize) -> QReg {
    let name = name.into();
    let buffer = Arc::new(Registered(Mutex::new(AcceleratorBuffer::with_name(name.clone(), n))));
    // The Listing-6 critical section.
    let mut table = ALLOCATED_BUFFERS.lock();
    table.get_or_insert_with(HashMap::new).insert(name, Arc::downgrade(&buffer));
    QReg { buffer, size: n }
}

/// Number of buffers currently registered in the global table — those
/// some [`QReg`] handle still refers to.
pub fn allocated_buffer_count() -> usize {
    ALLOCATED_BUFFERS.lock().as_ref().map(HashMap::len).unwrap_or(0)
}

/// Empty the global table (live buffers stay usable through their
/// handles; they are just no longer found by name).
pub fn clear_allocated_buffers() {
    if let Some(table) = ALLOCATED_BUFFERS.lock().as_mut() {
        table.clear();
    }
}

/// Look up a registered buffer by name.
pub fn find_buffer(name: &str) -> Result<QReg, QcorError> {
    let found = ALLOCATED_BUFFERS.lock().as_ref().and_then(|t| t.get(name)).and_then(Weak::upgrade);
    // `found` is dropped (if at all) after the table lock is released: a
    // last handle dropping takes that lock to unregister itself.
    found
        .map(|buffer| {
            let size = buffer.lock().size();
            QReg { buffer, size }
        })
        .ok_or_else(|| QcorError::Kernel(format!("no allocated buffer named `{name}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qalloc_registers_buffers() {
        // Only this test's own handle: sibling tests allocate into the
        // same process-global table concurrently (exact table sizes are
        // asserted in `tests/qalloc_concurrent.rs`, a binary of its own).
        let q = qalloc(2);
        assert_eq!(q.size(), 2);
        assert!(allocated_buffer_count() >= 1);
        assert!(find_buffer(&q.name()).is_ok());
    }

    #[test]
    fn clones_alias_the_same_buffer() {
        let q = qalloc_named("alias_test", 2);
        let q2 = q.clone();
        q.with_buffer(|b| b.add_count("00", 3));
        assert_eq!(q2.total_shots(), 3);
    }

    #[test]
    fn unknown_buffer_lookup_fails() {
        assert!(find_buffer("no_such_buffer").is_err());
    }
}
