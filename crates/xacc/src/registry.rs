//! The service registry: `xacc::getAccelerator` and friends.
//!
//! Two registration modes reproduce the two behaviours the paper contrasts
//! in §V:
//!
//! * **Factory (cloneable)** — [`get_accelerator`] invokes the factory and
//!   returns a *fresh instance per call*. This is the paper's fix: making
//!   `Accelerator` derive `xacc::Cloneable` so concurrent threads never
//!   share backend state.
//! * **Singleton** — [`get_accelerator`] returns the *same shared instance*
//!   from every call, which is how the original
//!   `xacc::getService<Accelerator>()` behaved for non-Cloneable services.
//!   Two threads driving it concurrently interleave their gate streams —
//!   the data race of §V-A.2 (see the `qpp-legacy-shared` backend).

use crate::accelerator::{Accelerator, BackendCapability};
use crate::backends;
use crate::hetmap::HetMap;
use crate::XaccError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Factories are **fallible**: bad construction parameters surface as an
/// `Err` through [`get_accelerator`] (and therefore through
/// `quantum::initialize`) instead of panicking inside the factory — the
/// same contract the routing parameters follow.
type Factory = Box<dyn Fn(&HetMap) -> Result<Arc<dyn Accelerator>, XaccError> + Send + Sync>;

enum EntryKind {
    Factory(Factory),
    Singleton(Arc<dyn Accelerator>),
}

struct Entry {
    kind: EntryKind,
    capability: BackendCapability,
}

/// A named collection of accelerator services.
#[derive(Default)]
pub struct ServiceRegistry {
    entries: RwLock<HashMap<String, Entry>>,
    /// Live in-flight execution gauges per service name, maintained by
    /// [`ServiceRegistry::track_load`] guards. Kept separate from `entries`
    /// so gauges survive re-registration and lookups never block on the
    /// entry lock.
    loads: RwLock<HashMap<String, Arc<AtomicUsize>>>,
}

/// RAII handle for one in-flight execution against a backend: created by
/// [`ServiceRegistry::track_load`], it increments the backend's live queue
/// depth and decrements it again on drop (including on panic), so the
/// gauge can never leak an execution.
#[must_use = "dropping the guard immediately ends the tracked execution"]
pub struct LoadGuard(Arc<AtomicUsize>);

impl Drop for LoadGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl std::fmt::Debug for LoadGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LoadGuard").field(&self.0.load(Ordering::Acquire)).finish()
    }
}

impl ServiceRegistry {
    /// An empty registry (the global one comes pre-populated; see
    /// [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a cloneable service: every lookup constructs a fresh
    /// instance through `factory`, which may reject bad parameters with an
    /// `Err` (surfaced through [`get_accelerator`]). The service is
    /// advertised as [`BackendCapability::Ideal`]; use
    /// [`ServiceRegistry::register_factory_with_capability`] to annotate a
    /// different routing class.
    pub fn register_factory(
        &self,
        name: impl Into<String>,
        factory: impl Fn(&HetMap) -> Result<Arc<dyn Accelerator>, XaccError> + Send + Sync + 'static,
    ) {
        self.register_factory_with_capability(name, BackendCapability::Ideal, factory);
    }

    /// Register a cloneable service advertised under an explicit routing
    /// capability (what a capability-based `RoutingPolicy` matches on).
    pub fn register_factory_with_capability(
        &self,
        name: impl Into<String>,
        capability: BackendCapability,
        factory: impl Fn(&HetMap) -> Result<Arc<dyn Accelerator>, XaccError> + Send + Sync + 'static,
    ) {
        self.entries
            .write()
            .insert(name.into(), Entry { kind: EntryKind::Factory(Box::new(factory)), capability });
    }

    /// Register a singleton service: every lookup returns this same
    /// instance. Its capability is read off the instance.
    pub fn register_singleton(&self, name: impl Into<String>, instance: Arc<dyn Accelerator>) {
        let capability = instance.capability();
        self.entries.write().insert(name.into(), Entry { kind: EntryKind::Singleton(instance), capability });
    }

    /// Look up an accelerator. Factory services receive `params` and may
    /// reject them with an `Err`; singleton services ignore them (they
    /// were configured at registration — another aspect of why shared
    /// services compose badly with threads).
    pub fn get_accelerator(&self, name: &str, params: &HetMap) -> Result<Arc<dyn Accelerator>, XaccError> {
        let entries = self.entries.read();
        match entries.get(name).map(|e| &e.kind) {
            Some(EntryKind::Factory(factory)) => factory(params),
            Some(EntryKind::Singleton(instance)) => Ok(Arc::clone(instance)),
            None => Err(XaccError::UnknownService(name.to_string())),
        }
    }

    /// Names of all registered services, sorted.
    pub fn service_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// True when `name` resolves to a cloneable (factory) service.
    pub fn is_cloneable(&self, name: &str) -> Option<bool> {
        match &self.entries.read().get(name)?.kind {
            EntryKind::Factory(_) => Some(true),
            EntryKind::Singleton(_) => Some(false),
        }
    }

    /// The capability `name` was registered under.
    pub fn capability_of(&self, name: &str) -> Option<BackendCapability> {
        self.entries.read().get(name).map(|e| e.capability)
    }

    /// Sorted names of the **cloneable** services advertising `capability`.
    /// Singletons are excluded on purpose: a router handing the same shared
    /// instance to many threads would reintroduce the §V-A.2 race.
    pub fn cloneable_services_with_capability(&self, capability: BackendCapability) -> Vec<String> {
        let entries = self.entries.read();
        let mut names: Vec<String> = entries
            .iter()
            .filter(|(_, e)| e.capability == capability && matches!(e.kind, EntryKind::Factory(_)))
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// Begin one tracked execution against `name`: the backend's live
    /// queue-depth gauge is incremented until the returned guard drops.
    /// The name does not need to be registered — custom execution layers
    /// may track logical backends of their own.
    pub fn track_load(&self, name: &str) -> LoadGuard {
        let gauge = {
            let loads = self.loads.read();
            loads.get(name).cloned()
        };
        let gauge = match gauge {
            Some(gauge) => gauge,
            None => {
                let mut loads = self.loads.write();
                Arc::clone(loads.entry(name.to_string()).or_default())
            }
        };
        gauge.fetch_add(1, Ordering::AcqRel);
        LoadGuard(gauge)
    }

    /// The live queue depth of `name`: how many tracked executions are in
    /// flight right now. Zero for names never tracked.
    pub fn load_of(&self, name: &str) -> usize {
        self.loads.read().get(name).map_or(0, |g| g.load(Ordering::Acquire))
    }

    /// Snapshot of every tracked backend's live queue depth, sorted by
    /// name (the introspection endpoint's `backends` section).
    pub fn backend_loads(&self) -> Vec<(String, usize)> {
        let loads = self.loads.read();
        let mut out: Vec<(String, usize)> =
            loads.iter().map(|(name, g)| (name.clone(), g.load(Ordering::Acquire))).collect();
        drop(loads);
        out.sort();
        out
    }
}

static GLOBAL: OnceLock<ServiceRegistry> = OnceLock::new();

/// The process-wide registry, pre-populated with the built-in backends:
///
/// | name                | mode      | backend |
/// |---------------------|-----------|---------|
/// | `qpp`               | cloneable | state-vector simulator |
/// | `qpp-noisy`         | cloneable | per-shot depolarizing + readout error |
/// | `qpp-density`       | cloneable | exact density-matrix simulation with a noise model |
/// | `remote`            | cloneable | latency-simulating wrapper |
/// | `qpp-legacy-shared` | singleton | shared-gate-queue race reproduction |
pub fn global() -> &'static ServiceRegistry {
    GLOBAL.get_or_init(|| {
        let reg = ServiceRegistry::new();
        reg.register_factory_with_capability("qpp", BackendCapability::Ideal, |params| {
            Ok(Arc::new(backends::QppAccelerator::from_params(params)?) as Arc<dyn Accelerator>)
        });
        reg.register_factory_with_capability("qpp-noisy", BackendCapability::Noisy, |params| {
            Ok(Arc::new(backends::NoisyQppAccelerator::from_params(params)?) as Arc<dyn Accelerator>)
        });
        reg.register_factory_with_capability("remote", BackendCapability::Remote, |params| {
            Ok(Arc::new(backends::RemoteAccelerator::from_params(params)?) as Arc<dyn Accelerator>)
        });
        reg.register_factory_with_capability("qpp-density", BackendCapability::Density, |params| {
            Ok(Arc::new(backends::DensityAccelerator::from_params(params)?) as Arc<dyn Accelerator>)
        });
        reg.register_singleton(
            "qpp-legacy-shared",
            Arc::new(backends::SharedQueueAccelerator::new(1)) as Arc<dyn Accelerator>,
        );
        reg
    })
}

/// `xacc::getAccelerator(name)` with options — resolves against the global
/// registry.
pub fn get_accelerator(name: &str, params: &HetMap) -> Result<Arc<dyn Accelerator>, XaccError> {
    global().get_accelerator(name, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_has_builtin_services() {
        let names = global().service_names();
        for expected in ["qpp", "qpp-noisy", "qpp-density", "remote", "qpp-legacy-shared"] {
            assert!(names.iter().any(|n| n == expected), "{expected} missing from {names:?}");
        }
    }

    #[test]
    fn factory_services_return_fresh_instances() {
        let params = HetMap::new().with("threads", 1usize);
        let a = get_accelerator("qpp", &params).unwrap();
        let b = get_accelerator("qpp", &params).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "cloneable service must construct per call");
        assert_eq!(global().is_cloneable("qpp"), Some(true));
    }

    #[test]
    fn singleton_services_return_the_same_instance() {
        let params = HetMap::new();
        let a = get_accelerator("qpp-legacy-shared", &params).unwrap();
        let b = get_accelerator("qpp-legacy-shared", &params).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "singleton service must be shared");
        assert_eq!(global().is_cloneable("qpp-legacy-shared"), Some(false));
    }

    #[test]
    fn unknown_service_errors() {
        match get_accelerator("nonexistent", &HetMap::new()) {
            Err(err) => assert_eq!(err, XaccError::UnknownService("nonexistent".to_string())),
            Ok(_) => panic!("lookup of an unknown service must fail"),
        }
    }

    #[test]
    fn custom_registration_works() {
        let reg = ServiceRegistry::new();
        reg.register_factory("custom", |_params| {
            Ok(Arc::new(backends::QppAccelerator::new(1)) as Arc<dyn Accelerator>)
        });
        assert!(reg.get_accelerator("custom", &HetMap::new()).is_ok());
        assert_eq!(reg.service_names(), vec!["custom".to_string()]);
    }

    #[test]
    fn simulator_backends_reject_mistyped_params() {
        // A value of the wrong type or sign must be an Err naming the key,
        // never a silent fall-back to the default.
        let cases: [(&str, &str, crate::HetValue); 9] = [
            ("qpp", "threads", "3".into()),
            ("qpp", "threads", (-2i64).into()),
            ("qpp", "par-threshold", true.into()),
            ("qpp", "chunk-shots", 2.5.into()),
            ("qpp-noisy", "depolarizing", "0.2".into()),
            ("qpp-noisy", "chunk-shots", (-1i64).into()),
            ("qpp-density", "readout-error", "0.3".into()),
            ("remote", "latency-ms", "fast".into()),
            ("remote", "threads", "3".into()),
        ];
        for (backend, key, value) in cases {
            let params = HetMap::new().with("threads", 1usize).with(key, value.clone());
            match get_accelerator(backend, &params) {
                Err(XaccError::InvalidParam(msg)) => assert!(msg.contains(key), "{backend} {key}: {msg}"),
                Err(other) => panic!("{backend} {key}={value:?}: expected InvalidParam, got {other:?}"),
                Ok(_) => panic!("{backend} {key}={value:?}: expected InvalidParam, got an instance"),
            }
        }
    }

    #[test]
    fn factory_receives_params() {
        let params = HetMap::new().with("threads", 3usize);
        let acc = get_accelerator("qpp", &params).unwrap();
        assert_eq!(acc.num_threads(), 3);
    }

    #[test]
    fn builtin_capability_metadata_matches_instances() {
        // The registry's advertised capability must agree with what a
        // constructed instance reports, or capability routing would lie.
        let params = HetMap::new().with("threads", 1usize);
        for name in global().service_names() {
            let advertised = global().capability_of(&name).unwrap();
            let instance = get_accelerator(&name, &params).unwrap();
            assert_eq!(advertised, instance.capability(), "capability mismatch for `{name}`");
        }
    }

    #[test]
    fn capability_lookup_excludes_singletons() {
        // `qpp-legacy-shared` is Ideal but a singleton: routing over Ideal
        // must never hand out the shared race-prone instance.
        let ideal = global().cloneable_services_with_capability(BackendCapability::Ideal);
        assert!(ideal.iter().any(|n| n == "qpp"), "{ideal:?}");
        assert!(!ideal.iter().any(|n| n == "qpp-legacy-shared"), "{ideal:?}");
        assert_eq!(
            global().cloneable_services_with_capability(BackendCapability::Noisy),
            vec!["qpp-noisy".to_string()]
        );
        assert_eq!(
            global().cloneable_services_with_capability(BackendCapability::Density),
            vec!["qpp-density".to_string()]
        );
        assert_eq!(
            global().cloneable_services_with_capability(BackendCapability::Remote),
            vec!["remote".to_string()]
        );
    }

    #[test]
    fn load_guards_track_inflight_depth() {
        let reg = ServiceRegistry::new();
        assert_eq!(reg.load_of("qpp"), 0);
        let a = reg.track_load("qpp");
        let b = reg.track_load("qpp");
        let other = reg.track_load("remote");
        assert_eq!(reg.load_of("qpp"), 2);
        assert_eq!(reg.load_of("remote"), 1);
        assert_eq!(
            reg.backend_loads(),
            vec![("qpp".to_string(), 2), ("remote".to_string(), 1)],
            "snapshot must be sorted by name"
        );
        drop(a);
        assert_eq!(reg.load_of("qpp"), 1);
        drop(b);
        drop(other);
        assert_eq!(reg.load_of("qpp"), 0);
        assert_eq!(reg.load_of("remote"), 0);
        assert_eq!(reg.load_of("never-tracked"), 0);
    }

    #[test]
    fn capability_parse_roundtrips() {
        for cap in [
            BackendCapability::Ideal,
            BackendCapability::Noisy,
            BackendCapability::Density,
            BackendCapability::Remote,
        ] {
            assert_eq!(BackendCapability::parse(&cap.to_string()), Some(cap));
        }
        assert_eq!(BackendCapability::parse("annealer"), None);
    }
}
