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

use crate::accelerator::Accelerator;
use crate::backends;
use crate::hetmap::HetMap;
use crate::XaccError;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Factories are **fallible**: bad construction parameters surface as an
/// `Err` through [`get_accelerator`] (and therefore through
/// `quantum::initialize`) instead of panicking inside the factory.
type Factory = Box<dyn Fn(&HetMap) -> Result<Arc<dyn Accelerator>, XaccError> + Send + Sync>;

enum Entry {
    Factory(Factory),
    Singleton(Arc<dyn Accelerator>),
}

/// A named collection of accelerator services.
#[derive(Default)]
pub struct ServiceRegistry {
    entries: RwLock<HashMap<String, Entry>>,
}

impl ServiceRegistry {
    /// An empty registry (the global one comes pre-populated; see
    /// [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a cloneable service: every lookup constructs a fresh
    /// instance through `factory`, which may reject bad parameters with an
    /// `Err` (surfaced through [`get_accelerator`]).
    pub fn register_factory(
        &self,
        name: impl Into<String>,
        factory: impl Fn(&HetMap) -> Result<Arc<dyn Accelerator>, XaccError> + Send + Sync + 'static,
    ) {
        self.entries.write().insert(name.into(), Entry::Factory(Box::new(factory)));
    }

    /// Register a singleton service: every lookup returns this same
    /// instance.
    pub fn register_singleton(&self, name: impl Into<String>, instance: Arc<dyn Accelerator>) {
        self.entries.write().insert(name.into(), Entry::Singleton(instance));
    }

    /// Look up an accelerator. Factory services receive `params` and may
    /// reject them with an `Err`; singleton services ignore them (they
    /// were configured at registration — another aspect of why shared
    /// services compose badly with threads).
    pub fn get_accelerator(&self, name: &str, params: &HetMap) -> Result<Arc<dyn Accelerator>, XaccError> {
        let entries = self.entries.read();
        match entries.get(name) {
            Some(Entry::Factory(factory)) => factory(params),
            Some(Entry::Singleton(instance)) => Ok(Arc::clone(instance)),
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
        match self.entries.read().get(name)? {
            Entry::Factory(_) => Some(true),
            Entry::Singleton(_) => Some(false),
        }
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
        reg.register_factory("qpp", |params| {
            Ok(Arc::new(backends::QppAccelerator::from_params(params)?) as Arc<dyn Accelerator>)
        });
        reg.register_factory("qpp-noisy", |params| {
            Ok(Arc::new(backends::NoisyQppAccelerator::from_params(params)?) as Arc<dyn Accelerator>)
        });
        reg.register_factory("remote", |params| {
            Ok(Arc::new(backends::RemoteAccelerator::from_params(params)?) as Arc<dyn Accelerator>)
        });
        reg.register_factory("qpp-density", |params| {
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
}
