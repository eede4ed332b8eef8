//! The `QPUManager` singleton (paper Listing 8): a map from thread id to
//! that thread's accelerator instance.
//!
//! [`crate::initialize`] looks up `InitOptions::backend` in the service
//! registry by name and registers the fresh instance it gets back under
//! the calling thread's id; [`crate::execute`] reads it back from there.
//! No two threads share an entry, so concurrent kernels never share
//! simulator state (the §V-A.2 fix).

use crate::runtime::InitOptions;
use parking_lot::Mutex;
use qcor_xacc::{Accelerator, ExecOptions};
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
    /// Shots/seed used by `execute`.
    pub exec: ExecOptions,
    /// The options this context was initialized from.
    pub init: InitOptions,
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

/// Singleton mapping `thread::id -> Accelerator` (paper Listing 8).
pub struct QPUManager {
    qpu_map: Mutex<HashMap<ThreadId, ThreadContext>>,
}

static INSTANCE: OnceLock<QPUManager> = OnceLock::new();

impl QPUManager {
    /// `QPUManager::getInstance()` — the singleton accessor.
    pub fn instance() -> &'static QPUManager {
        INSTANCE.get_or_init(|| QPUManager { qpu_map: Mutex::new(HashMap::new()) })
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcor_xacc::backends::QppAccelerator;

    fn ctx() -> ThreadContext {
        ThreadContext {
            qpu: Arc::new(QppAccelerator::new(1)),
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
}
