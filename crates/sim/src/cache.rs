//! Process-wide compile cache keyed by structural circuit hash.
//!
//! An angle sweep re-invokes the same circuit *structure* with different
//! bound parameters. Cold compilation re-runs the whole fusion pipeline
//! per invocation even though every fusion decision is angle-independent
//! (parameterized gates hash and compare by parameter *slot*, not bound
//! value). This cache stores one [`CompiledTemplate`] per structure —
//! keyed by [`Circuit::structural_hash`], verified against the stored
//! skeleton with [`Circuit::structurally_equal`] so a hash collision can
//! never replay the wrong plan — and every lookup (hit *or* miss) finishes
//! with [`CompiledTemplate::rebind`], so results never depend on cache
//! state.
//!
//! Every executor in the crate compiles through [`compile_cached`], except
//! the one-gate segments of an active noise model (see
//! [`crate::noise::compile_noisy`]).
//! `QCOR_COMPILE_CACHE_CAPACITY` sets the maximum number of cached
//! templates (default 64; zero or garbage panics); least-recently-used
//! entries evict beyond it.
//!
//! Hit/miss counters live in [`crate::stats`] as process-global atomics so
//! compiles issued from pool worker threads stay observable.

use crate::compile::{CompiledCircuit, CompiledTemplate};
use crate::stats::{record_cache_hit, record_cache_miss};
use qcor_circuit::Circuit;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Default number of cached templates when `QCOR_COMPILE_CACHE_CAPACITY`
/// is unset: generous for sweep workloads (one structure each) while
/// bounding memory for adversarial many-structure callers.
const DEFAULT_CAPACITY: usize = 64;

struct Entry {
    /// The circuit whose structure this template was built from; hits must
    /// verify structural equality against it (hash alone is not identity).
    skeleton: Circuit,
    template: Arc<CompiledTemplate>,
    last_used: u64,
}

struct CacheInner {
    map: HashMap<u64, Entry>,
    capacity: usize,
    /// Monotonic lookup counter backing LRU eviction.
    tick: u64,
}

static CACHE: OnceLock<Mutex<CacheInner>> = OnceLock::new();

fn cache() -> &'static Mutex<CacheInner> {
    CACHE.get_or_init(|| Mutex::new(CacheInner { map: HashMap::new(), capacity: capacity_env(), tick: 0 }))
}

fn capacity_env() -> usize {
    const KEY: &str = "QCOR_COMPILE_CACHE_CAPACITY";
    std::env::var(KEY).map_or(DEFAULT_CAPACITY, |v| qcor_pool::parse_positive(KEY, &v))
}

/// Fetch (or build) the template for `circuit`'s structure. The returned
/// template is shared: concurrent callers on the same structure clone one
/// `Arc`. Template construction runs outside the cache lock, so a slow
/// compile never blocks unrelated lookups; two racing first-compiles of
/// the same structure both succeed and the later insert wins.
fn cached_template(circuit: &Circuit) -> Arc<CompiledTemplate> {
    let hash = circuit.structural_hash();
    {
        let mut inner = cache().lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&hash) {
            if entry.skeleton.structurally_equal(circuit) {
                entry.last_used = tick;
                let template = entry.template.clone();
                drop(inner);
                record_cache_hit();
                return template;
            }
            // Hash collision with a different structure: fall through and
            // let the rebuild below replace the entry (correct either way —
            // the equality check above is what guards reuse).
        }
    }
    record_cache_miss();
    let template = Arc::new(CompiledTemplate::compile(circuit));
    let mut inner = cache().lock().unwrap();
    inner.tick += 1;
    let tick = inner.tick;
    if inner.map.len() >= inner.capacity && !inner.map.contains_key(&hash) {
        if let Some((&lru, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) {
            inner.map.remove(&lru);
        }
    }
    inner.map.insert(hash, Entry { skeleton: circuit.clone(), template: template.clone(), last_used: tick });
    template
}

/// Compile through the cache: reuse (or build) the structural template,
/// then bind `circuit`'s angles into an executable plan. Equivalent to
/// [`CompiledCircuit::compile`] up to float association order (within the
/// crate's ~1e-12 fused-vs-interpreted contract); measurement records and
/// seeded counts are unaffected.
pub fn compile_cached(circuit: &Circuit) -> CompiledCircuit {
    cached_template(circuit).rebind(&circuit.flat_params())
}

/// Number of templates currently cached (for tests and diagnostics).
pub fn compile_cache_len() -> usize {
    cache().lock().unwrap().map.len()
}

/// Drop every cached template (the hit/miss counters are separate — see
/// [`crate::stats::reset_compile_cache_stats`]).
pub fn clear_compile_cache() {
    cache().lock().unwrap().map.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateVector;
    use crate::stats::{compile_cache_hits, compile_cache_misses};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sweep_circuit(theta: f64) -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0).rx(1, theta).cx(0, 1).rz(2, -theta).cphase(1, 2, 0.5 * theta);
        c.measure(0).measure(1).measure(2);
        c
    }

    #[test]
    fn sweep_hits_after_first_compile_and_matches_cold() {
        clear_compile_cache();
        let hits0 = compile_cache_hits();
        let misses0 = compile_cache_misses();
        for i in 0..6 {
            let c = sweep_circuit(0.1 + i as f64 * 0.7);
            let cached = compile_cached(&c);
            let cold = CompiledCircuit::compile(&c);
            let mut s1 = StateVector::new(3);
            let mut s2 = StateVector::new(3);
            let mut r1 = StdRng::seed_from_u64(23);
            let mut r2 = StdRng::seed_from_u64(23);
            assert_eq!(
                cached.run_once(&mut s1, &mut r1),
                cold.run_once(&mut s2, &mut r2),
                "cached and cold replays must record identically (i = {i})"
            );
        }
        // Other tests share the process-global counters, so assert on
        // deltas: ≥ 5 hits (sweeps 2..6) and ≥ 1 miss (sweep 1) happened.
        assert!(compile_cache_hits() - hits0 >= 5, "sweep re-invocations must hit");
        assert!(compile_cache_misses() - misses0 >= 1, "first compile must miss");
    }

    #[test]
    fn structural_change_misses() {
        clear_compile_cache();
        let misses0 = compile_cache_misses();
        let mut a = Circuit::new(2);
        a.h(0).rx(1, 0.4);
        let mut b = Circuit::new(2);
        b.h(0).ry(1, 0.4); // different gate kind → different structure
        compile_cached(&a);
        compile_cached(&b);
        assert!(compile_cache_misses() - misses0 >= 2, "distinct structures must both miss");
        assert!(compile_cache_len() >= 2);
    }

    #[test]
    fn eviction_respects_capacity_bound() {
        clear_compile_cache();
        // The configured capacity is process-wide; whatever it is, inserting
        // `capacity + 8` distinct structures must not exceed it.
        let capacity = cache().lock().unwrap().capacity;
        for n in 0..capacity + 8 {
            let mut c = Circuit::new(4);
            for _ in 0..n + 1 {
                c.h(0);
            }
            compile_cached(&c);
        }
        assert!(compile_cache_len() <= capacity, "cache must not exceed its capacity");
    }
}
