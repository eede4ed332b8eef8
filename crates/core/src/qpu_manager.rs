//! The `QPUManager` singleton (paper Listing 8), grown into a router: a
//! map from thread id to that thread's accelerator instance plus a
//! process-wide [`RoutingPolicy`] that decides **which backend** each
//! `initialize` call is steered to.
//!
//! Routing answers the multi-backend half of the scaling story: one
//! process can serve mixed workloads across the `qpp` / `qpp-noisy` /
//! `qpp-density` / `remote` services, either pinned (the paper's original
//! behaviour), rotated round-robin over a named list, or matched by
//! [`BackendCapability`]. Each distinct candidate list gets one shared
//! process-wide rotation cursor, so concurrent initializations under the
//! same list spread exactly evenly over its candidates, while different
//! lists rotate independently. Capability routing is additionally
//! **load-weighted**: candidates are filtered to the minimum live queue
//! depth (the registry's per-backend in-flight gauge, incremented for the
//! duration of each `execute`) before the cursor rotates among them, so a
//! backend stuck under long executions stops receiving new placements
//! until it drains.

use crate::runtime::InitOptions;
use crate::QcorError;
use parking_lot::Mutex;
use qcor_xacc::{registry, Accelerator, BackendCapability, ExecOptions};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::thread::ThreadId;

/// Everything the runtime needs to service kernel invocations from one
/// thread: its accelerator instance, its execution options, and the
/// initialize-time options (so [`crate::spawn`] can replay them on child
/// threads).
#[derive(Clone)]
pub struct ThreadContext {
    /// This thread's accelerator instance.
    pub qpu: Arc<dyn Accelerator>,
    /// The **registry key** routing resolved for this context (not
    /// necessarily `qpu.name()` — custom services may register under any
    /// key). Child tasks re-initialize pinned to this key.
    pub resolved_backend: String,
    /// Shots/seed used by `execute`.
    pub exec: ExecOptions,
    /// The options this context was initialized from.
    pub init: InitOptions,
}

/// How [`crate::initialize`] picks the backend service a thread is handed.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum RoutingPolicy {
    /// Use the backend named in `InitOptions::backend` verbatim (the
    /// paper's behaviour; the default).
    #[default]
    Pinned,
    /// Rotate over the named backends with a process-wide shared cursor:
    /// successive initializations (from any thread) take successive
    /// entries, so mixed workloads spread evenly.
    RoundRobin(Vec<String>),
    /// Rotate over every **cloneable** registered service advertising the
    /// given capability (singletons are excluded — sharing one instance
    /// across threads is the §V-A.2 race).
    Capability(BackendCapability),
}

thread_local! {
    /// Installed on first registration; its destructor evicts the calling
    /// thread's map entry when the OS thread exits, so short-lived threads
    /// that never called `clear_current` don't leak `ThreadContext`s in a
    /// long-running service.
    static EVICTION_GUARD: RefCell<Option<EvictionGuard>> = const { RefCell::new(None) };
}

struct EvictionGuard {
    /// Captured at installation: `std::thread::current()` is not reliable
    /// inside TLS destructors, so the id is stored, not re-derived.
    id: ThreadId,
}

impl Drop for EvictionGuard {
    fn drop(&mut self) {
        if let Some(mgr) = INSTANCE.get() {
            mgr.evict_thread(self.id);
        }
    }
}

/// Singleton mapping `thread::id -> Accelerator` (paper Listing 8) and
/// routing `initialize` calls across backends.
pub struct QPUManager {
    qpu_map: Mutex<HashMap<ThreadId, ThreadContext>>,
    policy: Mutex<RoutingPolicy>,
    /// One shared rotation cursor **per candidate list**: distinct
    /// round-robin lists (or capability matches) rotate independently, so
    /// two subsystems with different lists don't phase-lock each other
    /// onto fixed entries.
    cursors: Mutex<HashMap<String, usize>>,
}

static INSTANCE: OnceLock<QPUManager> = OnceLock::new();

impl QPUManager {
    /// `QPUManager::getInstance()` — the singleton accessor.
    pub fn instance() -> &'static QPUManager {
        INSTANCE.get_or_init(|| QPUManager {
            qpu_map: Mutex::new(HashMap::new()),
            policy: Mutex::new(RoutingPolicy::Pinned),
            cursors: Mutex::new(HashMap::new()),
        })
    }

    /// Register the calling thread's accelerator (the setter of
    /// Listing 8, called by `quantum::initialize()`).
    pub fn set_qpu(&self, ctx: ThreadContext) {
        let id = std::thread::current().id();
        self.qpu_map.lock().insert(id, ctx);
        // Arm the eviction guard so the entry cannot outlive the thread.
        EVICTION_GUARD.with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.is_none() {
                *slot = Some(EvictionGuard { id });
            }
        });
    }

    /// The calling thread's context, if it has initialized.
    pub fn get_qpu(&self) -> Option<ThreadContext> {
        self.qpu_map.lock().get(&std::thread::current().id()).cloned()
    }

    /// Update only the execution options of the calling thread.
    pub fn update_exec(&self, exec: ExecOptions) -> bool {
        let mut map = self.qpu_map.lock();
        match map.get_mut(&std::thread::current().id()) {
            Some(ctx) => {
                ctx.exec = exec;
                true
            }
            None => false,
        }
    }

    /// Remove the calling thread's registration.
    pub fn clear_current(&self) {
        self.qpu_map.lock().remove(&std::thread::current().id());
    }

    /// Remove a specific thread's registration (the eviction/drop path for
    /// exited threads; also usable by supervisors that track thread ids).
    pub fn evict_thread(&self, id: ThreadId) -> bool {
        self.qpu_map.lock().remove(&id).is_some()
    }

    /// Whether `id` currently has a registered context.
    pub fn thread_is_registered(&self, id: ThreadId) -> bool {
        self.qpu_map.lock().contains_key(&id)
    }

    /// Number of threads currently registered.
    pub fn registered_threads(&self) -> usize {
        self.qpu_map.lock().len()
    }

    /// Set the process-wide routing policy applied to `initialize` calls
    /// that don't carry their own (see `InitOptions::routing`).
    pub fn set_routing_policy(&self, policy: RoutingPolicy) {
        *self.policy.lock() = policy;
    }

    /// The process-wide routing policy.
    pub fn routing_policy(&self) -> RoutingPolicy {
        self.policy.lock().clone()
    }

    /// Resolve the backend service name an initialization should use.
    ///
    /// `policy = None` means "inherit the manager's process-wide policy";
    /// `requested` is the `InitOptions::backend` name, honored verbatim
    /// under [`RoutingPolicy::Pinned`].
    pub fn route(&self, policy: Option<&RoutingPolicy>, requested: &str) -> Result<String, QcorError> {
        let inherited;
        let policy = match policy {
            Some(p) => p,
            None => {
                inherited = self.routing_policy();
                &inherited
            }
        };
        match policy {
            RoutingPolicy::Pinned => Ok(requested.to_string()),
            RoutingPolicy::RoundRobin(backends) => {
                if backends.is_empty() {
                    return Err(QcorError::Routing("round-robin routing over an empty backend list".into()));
                }
                Ok(backends[self.next_slot(backends) % backends.len()].clone())
            }
            RoutingPolicy::Capability(cap) => {
                let candidates = registry::global().cloneable_services_with_capability(*cap);
                if candidates.is_empty() {
                    return Err(QcorError::Routing(format!(
                        "no cloneable backend advertises capability `{cap}`"
                    )));
                }
                // Weight by live queue depth: keep only the candidates at
                // the minimum in-flight load and rotate among those. With
                // all loads equal (the common idle case) this degenerates
                // to the plain rotation, cursor and all.
                let reg = registry::global();
                // One load sample per candidate: sampling twice could race
                // a concurrent execution and leave the filter empty.
                let loads: Vec<usize> = candidates.iter().map(|name| reg.load_of(name)).collect();
                let min_load = *loads.iter().min().expect("non-empty");
                let light: Vec<String> = candidates
                    .into_iter()
                    .zip(loads)
                    .filter(|(_, load)| *load == min_load)
                    .map(|(name, _)| name)
                    .collect();
                Ok(light[self.next_slot(&light) % light.len()].clone())
            }
        }
    }

    /// Atomically advance the rotation cursor for this candidate list.
    fn next_slot(&self, candidates: &[String]) -> usize {
        let key = candidates.join(",");
        let mut cursors = self.cursors.lock();
        let slot = cursors.entry(key).or_insert(0);
        let current = *slot;
        *slot = slot.wrapping_add(1);
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcor_xacc::backends::QppAccelerator;

    fn ctx() -> ThreadContext {
        ThreadContext {
            qpu: Arc::new(QppAccelerator::new(1)),
            resolved_backend: "qpp".to_string(),
            exec: ExecOptions::default(),
            init: InitOptions::default(),
        }
    }

    #[test]
    fn per_thread_registration_is_isolated() {
        let mgr = QPUManager::instance();
        mgr.set_qpu(ctx());
        assert!(mgr.get_qpu().is_some());

        // A different thread sees no registration until it sets one.
        let handle = std::thread::spawn(|| QPUManager::instance().get_qpu().is_some());
        assert!(!handle.join().unwrap());
        mgr.clear_current();
    }

    #[test]
    fn threads_get_their_own_instances() {
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(|| {
                let mgr = QPUManager::instance();
                mgr.set_qpu(ctx());
                let mine = mgr.get_qpu().unwrap();
                mgr.clear_current();
                // Return the live Arc: address comparison is only meaningful
                // while every instance is still allocated (a freed address
                // can be reused by a later thread's allocation).
                mine.qpu
            }));
        }
        let instances: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut unique: Vec<usize> =
            instances.iter().map(|qpu| Arc::as_ptr(qpu) as *const () as usize).collect();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), instances.len(), "each thread must own a distinct accelerator");
    }

    #[test]
    fn update_exec_requires_registration() {
        let mgr = QPUManager::instance();
        mgr.clear_current();
        assert!(!mgr.update_exec(ExecOptions::with_shots(1)));
        mgr.set_qpu(ctx());
        assert!(mgr.update_exec(ExecOptions::with_shots(5)));
        assert_eq!(mgr.get_qpu().unwrap().exec.shots, 5);
        mgr.clear_current();
    }

    #[test]
    fn exited_thread_registration_is_evicted() {
        let mgr = QPUManager::instance();
        // The thread registers but never calls clear_current — the TLS
        // eviction guard must reap the entry at thread exit.
        let id = std::thread::spawn(|| {
            QPUManager::instance().set_qpu(ctx());
            assert!(QPUManager::instance().get_qpu().is_some());
            std::thread::current().id()
        })
        .join()
        .unwrap();
        assert!(!mgr.thread_is_registered(id), "exited thread must not leak a ThreadContext");
    }

    #[test]
    fn clear_then_exit_does_not_double_remove() {
        // clear_current followed by thread exit: the guard's drop is a
        // harmless no-op, and a later thread re-registering is unaffected.
        std::thread::spawn(|| {
            let mgr = QPUManager::instance();
            mgr.set_qpu(ctx());
            mgr.clear_current();
            assert!(mgr.get_qpu().is_none());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn pinned_routing_honors_requested_name() {
        let mgr = QPUManager::instance();
        assert_eq!(mgr.route(Some(&RoutingPolicy::Pinned), "qpp-noisy").unwrap(), "qpp-noisy");
    }

    #[test]
    fn round_robin_rotates_over_backends() {
        let mgr = QPUManager::instance();
        let policy = RoutingPolicy::RoundRobin(vec!["a".into(), "b".into()]);
        let mut seen = std::collections::HashMap::new();
        for _ in 0..10 {
            *seen.entry(mgr.route(Some(&policy), "qpp").unwrap()).or_insert(0usize) += 1;
        }
        // The cursor is per candidate list and this list is unique to this
        // test, so the 10 draws are contiguous: exact 5/5 balance.
        assert_eq!(seen.get("a").copied().unwrap_or(0), 5, "{seen:?}");
        assert_eq!(seen.get("b").copied().unwrap_or(0), 5, "{seen:?}");
    }

    #[test]
    fn distinct_round_robin_lists_rotate_independently() {
        // Interleaved draws from two different lists must each alternate
        // over their own entries (no cross-list phase locking).
        let mgr = QPUManager::instance();
        let pa = RoutingPolicy::RoundRobin(vec!["a1".into(), "a2".into()]);
        let pb = RoutingPolicy::RoundRobin(vec!["b1".into(), "b2".into()]);
        let mut a_names = Vec::new();
        let mut b_names = Vec::new();
        for _ in 0..2 {
            a_names.push(mgr.route(Some(&pa), "qpp").unwrap());
            b_names.push(mgr.route(Some(&pb), "qpp").unwrap());
        }
        assert_eq!(a_names, vec!["a1".to_string(), "a2".to_string()]);
        assert_eq!(b_names, vec!["b1".to_string(), "b2".to_string()]);
    }

    #[test]
    fn round_robin_empty_list_errors() {
        let mgr = QPUManager::instance();
        assert!(matches!(
            mgr.route(Some(&RoutingPolicy::RoundRobin(Vec::new())), "qpp"),
            Err(QcorError::Routing(_))
        ));
    }

    #[test]
    fn capability_routing_resolves_registered_backend() {
        let mgr = QPUManager::instance();
        assert_eq!(
            mgr.route(Some(&RoutingPolicy::Capability(BackendCapability::Noisy)), "qpp").unwrap(),
            "qpp-noisy"
        );
        assert_eq!(
            mgr.route(Some(&RoutingPolicy::Capability(BackendCapability::Density)), "qpp").unwrap(),
            "qpp-density"
        );
    }

    #[test]
    fn capability_routing_avoids_loaded_backends() {
        // Two cloneable Remote-capability services; pinning live load on
        // one must steer every placement to the other until the load
        // drains. (Uses the Remote class so the Noisy/Density exact-match
        // assertions elsewhere in this process stay undisturbed.)
        let reg = registry::global();
        reg.register_factory_with_capability("remote-b", BackendCapability::Remote, |params| {
            Ok(Arc::new(qcor_xacc::backends::RemoteAccelerator::from_params(params)?) as Arc<dyn Accelerator>)
        });
        let mgr = QPUManager::instance();
        let policy = RoutingPolicy::Capability(BackendCapability::Remote);
        let busy = reg.track_load("remote");
        for _ in 0..6 {
            assert_eq!(mgr.route(Some(&policy), "qpp").unwrap(), "remote-b");
        }
        drop(busy);
        // Loads equal again: the rotation reaches both candidates.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            seen.insert(mgr.route(Some(&policy), "qpp").unwrap());
        }
        assert!(seen.contains("remote") && seen.contains("remote-b"), "{seen:?}");
    }

    #[test]
    fn global_policy_roundtrips_and_defaults_to_pinned() {
        let mgr = QPUManager::instance();
        assert_eq!(mgr.route(None, "qpp").unwrap(), "qpp");
        // Use a single-entry rotation that resolves to the default backend
        // anyway, so a concurrently-running test that initializes during
        // this window is routed identically to Pinned.
        mgr.set_routing_policy(RoutingPolicy::RoundRobin(vec!["qpp".into()]));
        assert_eq!(mgr.routing_policy(), RoutingPolicy::RoundRobin(vec!["qpp".into()]));
        assert_eq!(mgr.route(None, "ignored-under-round-robin").unwrap(), "qpp");
        mgr.set_routing_policy(RoutingPolicy::Pinned);
    }
}
