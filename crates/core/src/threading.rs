//! User-level threading: `qcor::spawn` and `qcor::async_task`.
//!
//! Paper Listings 4 and 5 launch kernels with raw `std::thread` /
//! `std::async` and require the user to call `quantum::initialize()`
//! manually at the top of each thread (a limitation the paper notes in
//! §V-C, proposing `qcor::thread` / `qcor::async` wrappers as the fix).
//! These are those wrappers. Since the async-queue rework they no longer
//! spawn one OS thread per task: every task is enqueued on the global
//! [`ExecutionService`](crate::ExecutionService) — a bounded kernel queue
//! drained by a fixed-size shared pool — and still gets a *fresh*
//! accelerator instance by replaying the parent thread's initialize
//! options on its executor.
//!
//! [`TaskFuture`] plays the role of `std::future`: `get()` blocks for and
//! returns the task's value; `is_ready()` polls without blocking;
//! `wait()` is the error-aware join that surfaces a queue-level outcome
//! (a task cancelled while queued) instead of panicking.

use crate::exec_service::{ExecutionService, TaskServiceCtx};
use crate::QcorError;
use crossbeam::channel::Receiver;

/// How a queued task ended: ran to completion (value or panic payload),
/// or was explicitly cancelled while queued.
pub(crate) enum TaskOutcome<T> {
    Completed(std::thread::Result<T>),
    Cancelled,
}

/// A handle to an asynchronously running task (the `std::future` analogue
/// of paper Listing 5), resolved by the execution service when the task
/// leaves the kernel queue.
///
/// Dropping the future detaches the task (fire-and-forget: it still
/// runs); use [`TaskFuture::cancel`] to abort it while it is queued.
pub struct TaskFuture<T> {
    rx: Receiver<TaskOutcome<T>>,
    /// Backlink to the owning service: cancellation while queued, and the
    /// work-conserving join when waited from inside a task of the same
    /// service.
    ctx: TaskServiceCtx,
}

impl<T> std::fmt::Debug for TaskFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskFuture").field("ready", &self.is_ready()).finish()
    }
}

impl<T> TaskFuture<T> {
    pub(crate) fn with_ctx(rx: Receiver<TaskOutcome<T>>, ctx: TaskServiceCtx) -> Self {
        TaskFuture { rx, ctx }
    }

    /// True when the task has finished and `get` will not block.
    pub fn is_ready(&self) -> bool {
        !self.rx.is_empty()
    }

    /// Abort the task if it is **still queued**: the task never runs and
    /// [`TaskFuture::wait`] resolves as [`QcorError::TaskCancelled`].
    /// Returns `true` exactly when this call removed the task from the
    /// queue. Once the task has been dispatched (or already finished, or
    /// was cancelled before), `cancel` returns `false` and
    /// instead **requests a cooperative stop**: the task's
    /// `qcor_sim::CancelToken` is set, so checkpointed code — a chunked
    /// shot sweep, or anything polling `qcor_sim::cancel_requested()` —
    /// stops at its next safe point. The future still resolves with
    /// whatever the (possibly truncated) task returns; there is no
    /// preemptive mid-execution abort.
    pub fn cancel(&self) -> bool {
        self.ctx.cancel()
    }

    /// Block until the task completes and return its outcome: `Ok(value)`,
    /// or [`QcorError::TaskCancelled`] after a successful
    /// [`TaskFuture::cancel`]. Re-raises the task's panic, if any.
    ///
    /// Called from inside an executing task of the same service, `wait`
    /// is **work-conserving**: instead of parking while holding an
    /// executor permit, it pops and runs queued tasks of the service until
    /// this future resolves (see the `ExecutionService` module docs) — so
    /// sibling-future joins inside tasks can never exhaust the permit
    /// budget.
    pub fn wait(self) -> Result<T, QcorError> {
        self.ctx.help_drain_while(|| self.rx.is_empty());
        match self.rx.recv().expect("task dropped its result channel without resolving") {
            TaskOutcome::Completed(Ok(value)) => Ok(value),
            TaskOutcome::Completed(Err(payload)) => std::panic::resume_unwind(payload),
            TaskOutcome::Cancelled => Err(QcorError::TaskCancelled),
        }
    }

    /// Block until the task completes and return its value
    /// (`future.get()`). Re-raises the task's panic; panics if the task
    /// was cancelled (use [`TaskFuture::wait`] to observe that as an
    /// error).
    pub fn get(self) -> T {
        match self.wait() {
            Ok(value) => value,
            Err(err) => panic!("task did not complete: {err}"),
        }
    }

    /// Alias for [`TaskFuture::get`], matching `std::thread::join` naming.
    pub fn join(self) -> T {
        self.get()
    }
}

/// Launch `f` as a task on the global execution service with automatic
/// per-task quantum initialization (the proposed `qcor::thread` wrapper).
///
/// If the parent thread has initialized, the task re-initializes with the
/// same options on its executor — and therefore gets its **own
/// accelerator instance**; if not, the task starts uninitialized and `f`
/// may call [`initialize`](crate::initialize) itself.
///
/// Submission blocks while the kernel queue is at its high-water mark
/// (backpressure); use [`ExecutionService::submit`] on a configured
/// service for a different capacity or thread budget.
///
/// Tasks run on a **fixed-size** executor pool, and joins are
/// **work-conserving**: a task that `wait`s on the future of another task
/// of the same service helps drain the kernel queue on its own executor
/// instead of parking, so in-task sibling joins can never exhaust the
/// executor slots (see the `ExecutionService` module docs).
pub fn spawn<F, T>(f: F) -> TaskFuture<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    ExecutionService::global().submit(f).expect("submission to the global execution service cannot fail")
}

/// Asynchronously launch `f` (the `qcor::async` analogue of Listing 5).
/// Identical to [`spawn`]; provided under the paper's name for
/// readability at call sites that overlap other work.
pub fn async_task<F, T>(f: F) -> TaskFuture<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::qalloc;
    use crate::qpu_manager::QPUManager;
    use crate::runtime::{execute, InitOptions};
    use qcor_circuit::library;

    #[test]
    fn spawned_task_returns_value() {
        let f = spawn(|| 6 * 7);
        assert_eq!(f.get(), 42);
    }

    #[test]
    fn child_inherits_initialization() {
        std::thread::spawn(|| {
            crate::initialize(InitOptions::default().threads(1).shots(64).seed(1)).unwrap();
            let task = spawn(|| {
                // No manual initialize here: the wrapper did it.
                let q = qalloc(2);
                execute(&q, &library::bell_kernel()).unwrap();
                q.total_shots()
            });
            assert_eq!(task.get(), 64);
            QPUManager::instance().clear_current();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn uninitialized_parent_spawns_uninitialized_child() {
        std::thread::spawn(|| {
            let task = spawn(|| {
                let q = qalloc(2);
                execute(&q, &library::bell_kernel())
            });
            assert_eq!(task.get(), Err(crate::QcorError::NotInitialized));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn two_parallel_bell_tasks_get_distinct_instances() {
        std::thread::spawn(|| {
            crate::initialize(InitOptions::default().threads(1).shots(32).seed(3)).unwrap();
            let make = || {
                spawn(|| {
                    let ctx = QPUManager::instance().get_qpu().unwrap();
                    let q = qalloc(2);
                    execute(&q, &library::bell_kernel()).unwrap();
                    // Hand the live Arc back so the instances can be compared
                    // while both are still allocated (freed addresses may be
                    // reused between non-overlapping tasks).
                    (ctx.qpu, q.total_shots())
                })
            };
            let (t0, t1) = (make(), make());
            let (q0, s0) = t0.get();
            let (q1, s1) = t1.get();
            let p0 = std::sync::Arc::as_ptr(&q0) as *const () as usize;
            let p1 = std::sync::Arc::as_ptr(&q1) as *const () as usize;
            assert_ne!(p0, p1, "parallel tasks must not share an accelerator");
            assert_eq!((s0, s1), (32, 32));
            QPUManager::instance().clear_current();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn is_ready_becomes_true() {
        let task = spawn(|| 1);
        // Wait for the value to land, then poll.
        let v = {
            while !task.is_ready() {
                std::thread::yield_now();
            }
            task.get()
        };
        assert_eq!(v, 1);
    }

    #[test]
    fn task_panic_propagates_on_get() {
        let task = spawn(|| panic!("deliberate"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || task.get()));
        assert!(result.is_err());
    }

    #[test]
    fn wait_returns_ok_for_completed_task() {
        assert_eq!(spawn(|| 7).wait(), Ok(7));
    }
}
