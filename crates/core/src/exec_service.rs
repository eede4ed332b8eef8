//! The asynchronous kernel-execution service: a bounded task queue,
//! one FIFO per tenant visited in round robin, drained onto a shared
//! [`ThreadPool`].
//!
//! [`crate::async_task`] (paper Listing 5) originally spawned one OS
//! thread per task — unbounded under submission pressure. The service
//! keeps the paper's task contract (submit, a `get` that rethrows, a
//! fresh accelerator instance per task) and bounds it:
//!
//! * **Bounded queue** — submissions land in a queue with a high-water
//!   mark (`capacity`). Once it is full, [`ExecutionService::submit`]
//!   blocks the submitter until a slot frees, so submission pressure
//!   propagates to the producers and admitted work is never dropped.
//! * **Fixed thread budget** — a dispatcher thread ships queued tasks to
//!   the workers of one shared [`ThreadPool`]
//!   ([`ThreadPool::spawn_detached`]), one permit per worker, so no matter
//!   how many submissions are in flight, at most *pool-size* threads ever
//!   execute tasks. A team of one degenerates to the dispatcher draining
//!   the queue serially. The permit budget is computed **once**
//!   ([`Inner::max_permits`]) — construction, `drain` and the dispatcher
//!   all read the same field, so the invariant cannot drift.
//! * **Work-conserving join** — [`crate::TaskFuture::wait`] called from
//!   inside an executing task of the *same* service does not park while
//!   holding its permit: it **helps drain the queue**, popping and running
//!   queued tasks under its own permit and re-checking its future between
//!   tasks. It parks only once the queue is empty — at which point the
//!   awaited task is provably running on another permit (or already
//!   resolved), so the park always terminates. Sibling joins inside tasks
//!   therefore can never exhaust the permit budget, no matter how deep
//!   the chains pile up (the regression test submits `permits + 2` tasks
//!   that each join the next one's future). Cross-*service* joins still
//!   park normally under the other service's queue and stats. The one
//!   remaining way to stall is a genuine join **cycle** (task A waiting
//!   on B's future while B waits on A's, futures exchanged through shared
//!   state) — undefined for any join primitive, exactly like two OS
//!   threads `join`ing each other.
//! * **Per-tenant round robin** — queued tasks are keyed by **tenant**
//!   (the submitting thread's session tenant, set by [`set_thread_tenant`]
//!   or [`InitOptions::tenant`], else [`DEFAULT_TENANT`]). Each tenant
//!   has its own FIFO, and the dispatcher visits the tenants with queued
//!   work in plain round robin, one task per visit, so a flooding tenant
//!   cannot starve polite ones. A single tenant degenerates to plain
//!   FIFO. Tasks submitted from inside a task inherit its tenant.
//! * **Cancellation** — [`crate::TaskFuture::cancel`] aborts a
//!   still-queued task (its future resolves as
//!   [`QcorError::TaskCancelled`]); once dispatched, `cancel` reports
//!   `false` but **requests a cooperative stop**: the task's
//!   [`CancelToken`] is set, and checkpointed code (e.g. a chunked
//!   `qcor_sim` shot sweep, which checks between chunk jobs) stops at its
//!   next checkpoint and returns the completed prefix. Dropping a future
//!   stays detached (fire-and-forget).
//! * **Live introspection** — [`ExecutionService::introspect`] snapshots
//!   the stats and per-tenant gauges into a
//!   [`ServiceIntrospection`] (text or JSON via
//!   [`ServiceIntrospection::to_text`] / [`to_json`](ServiceIntrospection::to_json));
//!   setting `QCOR_DEBUG_ENDPOINT=<addr>` serves the global service's
//!   snapshot from a tiny HTTP listener ([`DebugServer`], off by default).
//! * **Per-task quantum context** — each task replays the submitting
//!   thread's `InitOptions` on its worker (fresh accelerator instance via
//!   the cloneable registry, exactly like the old per-thread wrapper) and
//!   clears the `QPUManager` registration afterwards, so worker reuse
//!   never leaks state between tasks.
//!
//! Nested submissions to the **same service** from inside a running task
//! enqueue normally (counted and queued like any other submission) — the
//! work-conserving join is what makes that safe. The one exception keeps
//! a permit holder from blocking: a nested submission against a full
//! queue runs **inline** on the parent's permit instead of parking in
//! `space_ready` (a submitter that holds a permit must never wait for
//! queue space that only permit holders can free). Submissions to a
//! *different* service enqueue, and if need be block, under that
//! service's own queue and stats.
//!
//! All [`ServiceStats`] counters live under the queue lock and are
//! snapshotted with a single acquisition, so a snapshot is always
//! internally consistent: `submitted == completed + running + queue_len +
//! cancelled` holds for **every** snapshot. Per-tenant counters live
//! under the same lock: the identity also holds per tenant, and every
//! per-tenant counter column sums to its `ServiceStats` total.

use crate::introspect::{DebugServer, ServiceIntrospection, TenantStats};
use crate::qpu_manager::QPUManager;
use crate::runtime::{current_options, initialize, InitOptions};
use crate::threading::{TaskFuture, TaskOutcome};
use crate::QcorError;
use crossbeam::channel::bounded;
use parking_lot::{Condvar, Mutex};
use qcor_pool::{num_threads_from_env, parse_positive, PoolBuilder, ThreadPool};
use qcor_sim::cancel::{self, CancelToken};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;

/// Configuration for an [`ExecutionService`].
#[derive(Debug, Clone)]
pub struct ExecServiceConfig {
    /// Queue high-water mark (≥ 1); a submission against a full queue
    /// blocks until a slot frees.
    pub capacity: usize,
    /// Total pool team size, including the dispatcher (≥ 1): at most
    /// `threads` OS threads ever execute tasks.
    pub threads: usize,
}

impl Default for ExecServiceConfig {
    fn default() -> Self {
        ExecServiceConfig { capacity: 256, threads: num_threads_from_env().max(4) }
    }
}

impl ExecServiceConfig {
    /// Builder-style capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Builder-style team size.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The global service's configuration: `QCOR_QUEUE_CAPACITY` and
    /// `QCOR_SERVICE_THREADS` (default: `QCOR_NUM_THREADS` with a floor
    /// of 4, so task-level latency overlap survives 1-CPU hosts — the
    /// §IV-A cloud scenario needs ≥ 2 concurrent tasks even without
    /// cores).
    ///
    /// Both knobs are parsed **loudly**: a value that is set but not valid
    /// (zero, garbage) panics instead of being silently clamped — running
    /// under a configuration the operator didn't ask for is worse than
    /// failing fast.
    pub fn from_env() -> Self {
        Self::from_env_reader(|key| std::env::var(key).ok())
    }

    /// The testable core of [`ExecServiceConfig::from_env`]: every knob is
    /// read through `get`, so tests can inject values (and assert the loud
    /// rejections) without racing other tests on the process environment.
    pub fn from_env_reader(get: impl Fn(&str) -> Option<String>) -> Self {
        let mut cfg = ExecServiceConfig::default();
        if let Some(cap) = get("QCOR_QUEUE_CAPACITY") {
            cfg.capacity = parse_positive("QCOR_QUEUE_CAPACITY", &cap);
        }
        if let Some(threads) = get("QCOR_SERVICE_THREADS") {
            cfg.threads = parse_positive("QCOR_SERVICE_THREADS", &threads);
        }
        cfg
    }
}

/// Snapshot of a service's counters, taken under a single lock
/// acquisition so the monotone counters and the gauges (`running`,
/// `queue_len`) are mutually consistent: `submitted == completed +
/// running + queue_len + cancelled` holds for every snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Tasks admitted to the queue.
    pub submitted: usize,
    /// Tasks that ran to completion (including panicked tasks).
    pub completed: usize,
    /// Always 0: the service never drops admitted work. Retained only
    /// because the benchmark runner's `core.tasks_shed` metric reads it.
    pub shed: usize,
    /// Queued tasks aborted by [`crate::TaskFuture::cancel`].
    pub cancelled: usize,
    /// Always 0: tasks carry no deadline. Retained only because the
    /// benchmark runner's `core.tasks_shed` metric reads it.
    pub expired: usize,
    /// Highest queue occupancy observed.
    pub peak_queue_len: usize,
    /// Tasks currently executing on the pool.
    pub running: usize,
    /// Tasks currently queued.
    pub queue_len: usize,
}

/// The tenant a submission is accounted to when the submitting thread
/// names none.
pub const DEFAULT_TENANT: &str = "default";

struct QueuedTask {
    /// Unique per-service ticket, the handle [`crate::TaskFuture::cancel`]
    /// uses to find (and remove) this task while it is still queued.
    ticket: u64,
    /// The tenant this task is queued under and accounted to.
    tenant: Arc<str>,
    run: Box<dyn FnOnce() + Send>,
    /// Resolves the task's future as [`TaskOutcome::Cancelled`].
    cancel: Box<dyn FnOnce() + Send>,
}

/// One tenant's queue and counters. Never removed once created (the
/// counters are monotone); tenant cardinality is assumed bounded (session
/// keys, not per-request ids).
#[derive(Default)]
struct TenantState {
    /// Whether this tenant currently sits in the rotation (guards against
    /// double entries, which would double its share).
    in_rotation: bool,
    /// Queued tasks, FIFO within the tenant.
    queue: VecDeque<QueuedTask>,
    // --- per-tenant counters (same identity as ServiceStats) ------------
    submitted: usize,
    completed: usize,
    cancelled: usize,
    running: usize,
}

struct QueueState {
    /// Per-tenant queues and counters, keyed by tenant name.
    tenants: HashMap<Arc<str>, TenantState>,
    /// Round-robin rotation: the tenants with queued tasks, in visit
    /// order.
    rotation: VecDeque<Arc<str>>,
    /// Cached total occupancy (sum over tenants).
    queued: usize,
    /// Free executor slots (pool workers; 1 for a team-of-one service).
    permits: usize,
    shutdown: bool,
    // --- counters (see ServiceStats) -----------------------------------
    submitted: usize,
    completed: usize,
    cancelled: usize,
    peak_queue: usize,
    running: usize,
}

impl QueueState {
    fn new(max_permits: usize) -> Self {
        QueueState {
            tenants: HashMap::new(),
            rotation: VecDeque::new(),
            queued: 0,
            permits: max_permits,
            shutdown: false,
            submitted: 0,
            completed: 0,
            cancelled: 0,
            peak_queue: 0,
            running: 0,
        }
    }

    /// The tenant's state, created on first use.
    fn tenant_mut(&mut self, key: &Arc<str>) -> &mut TenantState {
        self.tenants.entry(Arc::clone(key)).or_default()
    }

    /// Admit `task`: per-tenant queue push, rotation membership, the
    /// occupancy total and both `submitted` counters.
    fn enqueue(&mut self, task: QueuedTask) {
        let key = Arc::clone(&task.tenant);
        let tenant = self.tenant_mut(&key);
        tenant.queue.push_back(task);
        tenant.submitted += 1;
        if !std::mem::replace(&mut tenant.in_rotation, true) {
            self.rotation.push_back(key);
        }
        self.queued += 1;
        self.submitted += 1;
        self.peak_queue = self.peak_queue.max(self.queued);
    }

    /// Pop the next task by round robin over the tenants: the front
    /// tenant serves one task, then goes to the back of the rotation (or
    /// leaves it, once its queue is empty). FIFO within a tenant; one
    /// tenant degenerates to plain FIFO.
    fn pop(&mut self) -> Option<QueuedTask> {
        loop {
            let key = self.rotation.pop_front()?;
            let tenant = self.tenants.get_mut(&key).expect("rotation references live tenants");
            // An entry whose queue was emptied by cancel is dropped here.
            let Some(task) = tenant.queue.pop_front() else {
                tenant.in_rotation = false;
                continue;
            };
            if tenant.queue.is_empty() {
                tenant.in_rotation = false;
            } else {
                self.rotation.push_back(key);
            }
            self.queued -= 1;
            return Some(task);
        }
    }

    /// Move a just-popped task into the `running` gauges (global and
    /// per-tenant) in the same critical section as the pop, so no snapshot
    /// sees it in neither.
    fn mark_running(&mut self, task: &QueuedTask) {
        self.running += 1;
        self.tenant_mut(&task.tenant).running += 1;
    }

    /// Remove the queued task with `ticket`, if it is still queued.
    fn remove_ticket(&mut self, ticket: u64) -> Option<QueuedTask> {
        for tenant in self.tenants.values_mut() {
            if let Some(index) = tenant.queue.iter().position(|t| t.ticket == ticket) {
                self.queued -= 1;
                return tenant.queue.remove(index);
            }
        }
        None
    }

    /// The `ServiceStats` snapshot of this state (callers hold the lock).
    fn stats_snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted,
            completed: self.completed,
            shed: 0,
            cancelled: self.cancelled,
            expired: 0,
            peak_queue_len: self.peak_queue,
            running: self.running,
            queue_len: self.queued,
        }
    }
}

pub(crate) struct Inner {
    /// Unique service id for same-service nested-submission detection.
    id: usize,
    state: Mutex<QueueState>,
    /// Signals the dispatcher: task arrived / permit freed / shutdown.
    task_ready: Condvar,
    /// Signals blocked submitters: queue space freed / shutdown.
    space_ready: Condvar,
    capacity: usize,
    /// The permit budget (`pool threads − dispatcher`, floor 1), computed
    /// once at construction. `drain`, the dispatcher shutdown wait and
    /// the tests all read this single source of truth — independently
    /// recomputing it in several places is how a drift deadlocks `drain`.
    max_permits: usize,
    /// Ticket source for [`QueuedTask::ticket`].
    next_ticket: AtomicUsize,
    /// [`ThreadPool::id`] of the backing pool — the work-conserving join
    /// asserts that helping only ever happens on threads that hold one of
    /// this service's executor slots (a pool worker, or the dispatcher /
    /// an inline frame, which report worker-pool id 0).
    pool_id: usize,
}

thread_local! {
    /// Id of the service whose task the current thread is executing
    /// (0 = none). `TaskFuture::wait` uses it to decide whether it holds
    /// one of the service's permits and must help drain the queue instead
    /// of parking.
    static IN_SERVICE_TASK: Cell<usize> = const { Cell::new(0) };

    /// The tenant submissions from this thread are accounted to. Inside a
    /// service task, this is the task's own tenant, so nested submissions
    /// inherit it.
    static CURRENT_TENANT: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Set (or clear) the calling thread's session tenant. Subsequent
/// submissions from this thread are queued and accounted under it; `None`
/// falls back to [`DEFAULT_TENANT`]. Usually set once per session thread
/// (or via [`InitOptions::tenant`]).
///
/// ```
/// use qcor_core::{set_thread_tenant, ExecServiceConfig, ExecutionService};
///
/// let svc = ExecutionService::new(ExecServiceConfig::default());
/// set_thread_tenant(Some("session-42"));
/// let answer = svc.submit(|| 6 * 7).unwrap();
/// assert_eq!(answer.get(), 42);
/// set_thread_tenant(None);
/// assert_eq!(svc.introspect().tenants[0].tenant, "session-42");
/// ```
pub fn set_thread_tenant(tenant: Option<&str>) {
    CURRENT_TENANT.with(|current| {
        *current.borrow_mut() = tenant.map(Arc::from);
    });
}

/// The calling thread's session tenant, if one is set.
pub fn thread_tenant() -> Option<String> {
    CURRENT_TENANT.with(|current| current.borrow().as_ref().map(|t| t.to_string()))
}

fn current_tenant_key() -> Option<Arc<str>> {
    CURRENT_TENANT.with(|current| current.borrow().clone())
}

static NEXT_SERVICE_ID: AtomicUsize = AtomicUsize::new(1);

/// The context a [`TaskFuture`] keeps about the service that owns its
/// task: enough to cancel the task while queued and to help drain the
/// queue when joined from inside a task of the same service. Weak so a
/// forgotten future never keeps a dropped service's queue alive.
pub(crate) struct TaskServiceCtx {
    service: Weak<Inner>,
    service_id: usize,
    ticket: u64,
    /// The task's cooperative-cancellation token (installed around the
    /// task body); set when `cancel` arrives after dispatch.
    token: CancelToken,
}

impl TaskServiceCtx {
    /// Cancel the task if it is still queued. See [`TaskFuture::cancel`].
    pub(crate) fn cancel(&self) -> bool {
        let Some(inner) = self.service.upgrade() else { return false };
        let removed = {
            let mut st = inner.state.lock();
            let removed = st.remove_ticket(self.ticket);
            if let Some(task) = &removed {
                st.cancelled += 1;
                st.tenant_mut(&task.tenant).cancelled += 1;
            }
            removed
        };
        match removed {
            Some(task) => {
                (task.cancel)();
                inner.space_ready.notify_all();
                // `drain` watches queue length through `task_ready`.
                inner.task_ready.notify_all();
                true
            }
            None => {
                // Past dispatch (or already resolved): request a
                // cooperative stop. Checkpointed task code observes the
                // token and truncates at its next safe point; the future
                // still resolves with whatever the task returns.
                self.token.cancel();
                false
            }
        }
    }

    /// The work-conserving join: while `not_ready` holds and the calling
    /// thread is executing a task of this same service, pop queued tasks
    /// and run them under the caller's permit. Returns once the future is
    /// ready or the queue is empty — in the latter case the awaited task
    /// is not queued (it is running on another permit or already
    /// resolved), so parking afterwards always terminates.
    pub(crate) fn help_drain_while(&self, not_ready: impl Fn() -> bool) {
        if IN_SERVICE_TASK.with(|owner| owner.get()) != self.service_id {
            return;
        }
        let Some(inner) = self.service.upgrade() else { return };
        // The current-worker check: a thread executing one of this
        // service's tasks is either a worker of the service's own pool or
        // the dispatcher / an inline frame (worker-pool id 0). Helping
        // from anywhere else would run tasks outside the permit budget.
        let worker_of = qcor_pool::current_worker_pool_id();
        debug_assert!(
            worker_of == 0 || worker_of == inner.pool_id,
            "work-conserving join helping from a foreign pool worker"
        );
        let _ = worker_of;
        while not_ready() {
            let task = {
                let mut st = inner.state.lock();
                let task = st.pop();
                if let Some(task) = &task {
                    // Queue→running transition inside the pop critical
                    // section, so no snapshot sees the task in neither
                    // gauge. The task's closure retires the pair before
                    // resolving its future.
                    st.mark_running(task);
                }
                task
            };
            let Some(task) = task else { return };
            inner.space_ready.notify_all();
            (task.run)();
            // `drain` and the dispatcher re-check queue state on this
            // signal; the helper freed queue space without moving permits.
            inner.task_ready.notify_all();
        }
    }
}

/// The async kernel-execution service. See the module docs above.
pub struct ExecutionService {
    inner: Arc<Inner>,
    pool: Arc<ThreadPool>,
    dispatcher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ExecutionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionService")
            .field("capacity", &self.inner.capacity)
            .field("threads", &self.pool.num_threads())
            .finish()
    }
}

impl ExecutionService {
    /// Build a service with its own pool and dispatcher.
    pub fn new(config: ExecServiceConfig) -> Self {
        let pool = Arc::new(PoolBuilder::new().num_threads(config.threads.max(1)).name("qcor-svc").build());
        // The one place the permit budget is computed: every worker of the
        // pool is an executor slot; a team of one leaves the dispatcher
        // itself as the single (inline) executor.
        let max_permits = pool.num_threads().saturating_sub(1).max(1);
        let inner = Arc::new(Inner {
            id: NEXT_SERVICE_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(QueueState::new(max_permits)),
            task_ready: Condvar::new(),
            space_ready: Condvar::new(),
            capacity: config.capacity.max(1),
            max_permits,
            next_ticket: AtomicUsize::new(1),
            pool_id: pool.id(),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("qcor-svc-dispatch".to_string())
                .spawn(move || dispatcher_loop(inner, pool))
                .expect("failed to spawn the execution-service dispatcher")
        };
        ExecutionService { inner, pool, dispatcher: Some(dispatcher) }
    }

    /// The process-wide service backing [`crate::spawn`] /
    /// [`crate::async_task`], configured from the environment
    /// (see [`ExecServiceConfig::from_env`]).
    pub fn global() -> &'static ExecutionService {
        static GLOBAL: OnceLock<ExecutionService> = OnceLock::new();
        let service = GLOBAL.get_or_init(|| ExecutionService::new(ExecServiceConfig::from_env()));
        // The debug endpoint (`QCOR_DEBUG_ENDPOINT=<addr>`, e.g.
        // `127.0.0.1:7979`) is bound at most once, on first `global()` use.
        // The listener lives for the process (the global service is never
        // dropped either), so the server handle is deliberately leaked.
        static DEBUG: OnceLock<()> = OnceLock::new();
        DEBUG.get_or_init(|| {
            if let Some(addr) = std::env::var("QCOR_DEBUG_ENDPOINT").ok().filter(|a| !a.trim().is_empty()) {
                let addr = addr.trim().to_string();
                let server = DebugServer::start(&addr, || ExecutionService::global().introspect())
                    .unwrap_or_else(|e| {
                        panic!("QCOR_DEBUG_ENDPOINT=`{addr}`: failed to bind debug listener: {e}")
                    });
                eprintln!("qcor: debug introspection endpoint listening on {}", server.local_addr());
                std::mem::forget(server);
            }
        });
        service
    }

    /// Submit `f`, queued under the calling thread's tenant.
    ///
    /// The task inherits the calling thread's `InitOptions` (replayed on
    /// its executor for a fresh accelerator instance). Against a full
    /// queue the call blocks until a slot frees — or, from inside a task
    /// of this service, runs `f` inline (see the module docs). Fails only
    /// once the service is shutting down.
    pub fn submit<F, T>(&self, f: F) -> Result<TaskFuture<T>, QcorError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let inherited = current_options();
        let in_own_task = IN_SERVICE_TASK.with(|owner| owner.get()) == self.inner.id;
        let tenant: Arc<str> = current_tenant_key().unwrap_or_else(|| Arc::from(DEFAULT_TENANT));

        let ticket = self.inner.next_ticket.fetch_add(1, Ordering::Relaxed) as u64;
        let token = CancelToken::new();
        let (tx, rx) = bounded::<TaskOutcome<T>>(1);
        let cancel_tx = tx.clone();
        let service_id = self.inner.id;
        let inner_for_run = Arc::downgrade(&self.inner);
        let run_tenant = Arc::clone(&tenant);
        let run_token = token.clone();
        let run = Box::new(move || {
            let outcome = run_task_body(service_id, inherited, Arc::clone(&run_tenant), run_token, f);
            // Move the task from `running` to `completed` in one lock
            // acquisition BEFORE publishing the result: once a future
            // resolves, every stats snapshot must already count the task
            // as completed. (Weak: the service outlives all running tasks
            // — Drop joins the dispatcher — so this only fails if the
            // process is tearing the service down anyway.)
            if let Some(inner) = inner_for_run.upgrade() {
                let mut st = inner.state.lock();
                st.running -= 1;
                st.completed += 1;
                let t = st.tenant_mut(&run_tenant);
                t.running -= 1;
                t.completed += 1;
            }
            // The receiver may already be dropped (fire-and-forget).
            let _ = tx.send(outcome);
        });
        let cancel = Box::new(move || {
            let _ = cancel_tx.send(TaskOutcome::Cancelled);
        });
        let task = QueuedTask { ticket, tenant: Arc::clone(&tenant), run, cancel };
        let ctx = TaskServiceCtx { service: Arc::downgrade(&self.inner), service_id, ticket, token };

        {
            let mut st = self.inner.state.lock();
            if st.queued >= self.inner.capacity && in_own_task && !st.shutdown {
                // A permit holder must never park in `space_ready`: queue
                // space is freed by dispatch, which needs permits. Run the
                // task inline on our own permit — the work-conserving
                // overflow path (equivalent to enqueueing it and
                // immediately helping it drain).
                st.submitted += 1;
                st.running += 1;
                let t = st.tenant_mut(&tenant);
                t.submitted += 1;
                t.running += 1;
                drop(st);
                (task.run)();
                self.inner.task_ready.notify_all();
                return Ok(TaskFuture::with_ctx(rx, ctx));
            }
            while st.queued >= self.inner.capacity && !st.shutdown {
                self.inner.space_ready.wait(&mut st);
            }
            if st.shutdown {
                return Err(QcorError::Execution("execution service is shut down".into()));
            }
            st.enqueue(task);
        }
        self.inner.task_ready.notify_all();
        Ok(TaskFuture::with_ctx(rx, ctx))
    }

    /// Alias for [`ExecutionService::submit`], kept for existing callers.
    pub fn submit_blocking<F, T>(&self, f: F) -> Result<TaskFuture<T>, QcorError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.submit(f)
    }

    /// Queue high-water mark.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Total team size of the backing pool (the service's thread budget).
    pub fn pool_threads(&self) -> usize {
        self.pool.num_threads()
    }

    /// The executor-permit budget: how many tasks can run concurrently.
    /// Computed once at construction (`Inner::max_permits`); everything
    /// that needs the invariant reads this field.
    pub fn permit_budget(&self) -> usize {
        self.inner.max_permits
    }

    /// Consistent counter snapshot (single lock acquisition; see
    /// [`ServiceStats`] for the invariant).
    pub fn stats(&self) -> ServiceStats {
        self.inner.state.lock().stats_snapshot()
    }

    /// A full live snapshot: [`ServiceStats`], the service's configuration
    /// surface and per-tenant gauges (one [`TenantStats`] per tenant ever
    /// seen, sorted by name). The stats and tenant rows come from **one**
    /// lock acquisition, so the per-tenant columns sum exactly to the
    /// `ServiceStats` totals and the accounting identity holds per row.
    pub fn introspect(&self) -> ServiceIntrospection {
        let (stats, mut tenants) = {
            let st = self.inner.state.lock();
            let tenants: Vec<TenantStats> = st
                .tenants
                .iter()
                .map(|(key, t)| TenantStats {
                    tenant: key.to_string(),
                    submitted: t.submitted,
                    completed: t.completed,
                    running: t.running,
                    cancelled: t.cancelled,
                    queued: t.queue.len(),
                })
                .collect();
            (st.stats_snapshot(), tenants)
        };
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        ServiceIntrospection {
            stats,
            capacity: self.inner.capacity,
            permit_budget: self.inner.max_permits,
            pool_threads: self.pool.num_threads(),
            tenants,
        }
    }

    /// Block until every queued and running task has finished (queue empty
    /// and all permits free). Mainly for tests and orderly shutdowns.
    ///
    /// Must not be called from inside one of this service's own tasks —
    /// the caller would wait for its own permit to free. That misuse is
    /// detected and panics instead of deadlocking.
    pub fn drain(&self) {
        assert!(
            IN_SERVICE_TASK.with(|owner| owner.get()) != self.inner.id,
            "ExecutionService::drain called from inside one of the service's own tasks \
             (it would wait for its own permit and deadlock)"
        );
        let mut st = self.inner.state.lock();
        while st.queued != 0 || st.permits < self.inner.max_permits || st.running != 0 {
            self.inner.task_ready.wait(&mut st);
        }
    }
}

impl Drop for ExecutionService {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        // Wake the dispatcher (to drain and exit) and any blocked
        // submitters (to fail fast).
        self.inner.task_ready.notify_all();
        self.inner.space_ready.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        // The pool's own Drop joins the workers afterwards.
    }
}

/// Execute one task body with the per-task quantum context protocol:
/// replay the inherited `InitOptions` (fresh accelerator instance),
/// install the task's tenant and cancellation token on the executor
/// thread, run, and always restore/clear everything so worker reuse never
/// leaks state into the next task.
fn run_task_body<F, T>(
    service_id: usize,
    inherited: Option<InitOptions>,
    tenant: Arc<str>,
    token: CancelToken,
    f: F,
) -> TaskOutcome<T>
where
    F: FnOnce() -> T,
{
    let previous_owner = IN_SERVICE_TASK.with(|owner| owner.replace(service_id));
    // The task's tenant becomes the thread tenant for the task's duration,
    // so nested submissions are accounted to the same tenant; the token
    // travels the same way so checkpointed code (chunked shot sweeps,
    // `cancel_requested`) observes cooperative cancellation.
    let previous_tenant = CURRENT_TENANT.with(|current| current.replace(Some(tenant)));
    let previous_token = cancel::set_thread_cancel_token(Some(token));
    // A task run inline under another task's permit (work-conserving join
    // or inline overflow) shares its parent's OS thread: remember the
    // parent's registration so this task's `initialize` doesn't clobber it.
    let saved = if previous_owner != 0 { QPUManager::instance().get_qpu() } else { None };
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(opts) = inherited {
            initialize(opts).expect("re-initializing inherited backend cannot fail");
        }
        f()
    }));
    IN_SERVICE_TASK.with(|owner| owner.set(previous_owner));
    CURRENT_TENANT.with(|current| *current.borrow_mut() = previous_tenant);
    cancel::set_thread_cancel_token(previous_token);
    match saved {
        Some(parent_ctx) => QPUManager::instance().set_qpu(parent_ctx),
        None => QPUManager::instance().clear_current(),
    }
    TaskOutcome::Completed(result)
}

/// The dispatcher: waits for (queued task ∧ free permit), ships the task
/// to a pool worker, and lets the worker hand its permit back on
/// completion. Admission control therefore travels all the way down: the
/// pool's internal channel never holds more tasks than there are permits.
fn dispatcher_loop(inner: Arc<Inner>, pool: Arc<ThreadPool>) {
    loop {
        let task = {
            let mut st = inner.state.lock();
            loop {
                if st.permits > 0 {
                    if let Some(task) = st.pop() {
                        st.mark_running(&task);
                        st.permits -= 1;
                        break Some(task);
                    }
                }
                if st.shutdown && st.queued == 0 {
                    break None;
                }
                inner.task_ready.wait(&mut st);
            }
        };
        let Some(task) = task else { break };
        inner.space_ready.notify_all();
        let inner_done = Arc::clone(&inner);
        // Team of one: spawn_detached runs inline on this thread, so the
        // dispatcher itself is the (serial) executor.
        pool.spawn_detached(move || {
            // The task closure retires `running`/`completed` itself before
            // resolving its future; only the permit return lives here.
            (task.run)();
            let mut st = inner_done.state.lock();
            st.permits += 1;
            drop(st);
            inner_done.task_ready.notify_all();
        });
    }
    // Graceful shutdown: wait for in-flight tasks before the service drops
    // the pool.
    let mut st = inner.state.lock();
    while st.permits < inner.max_permits {
        inner.task_ready.wait(&mut st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn submit_returns_value() {
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(4));
        let f = svc.submit(|| 6 * 7).unwrap();
        assert_eq!(f.get(), 42);
        assert_eq!(svc.stats().completed, 1);
    }

    #[test]
    fn fifo_order_on_a_serial_service() {
        // One permit ⇒ strict FIFO execution in submission order.
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(16));
        let order = Arc::new(Mutex::new(Vec::new()));
        let futures: Vec<_> = (0..8)
            .map(|i| {
                let order = Arc::clone(&order);
                svc.submit(move || {
                    order.lock().push(i);
                    i
                })
                .unwrap()
            })
            .collect();
        let values: Vec<usize> = futures.into_iter().map(|f| f.get()).collect();
        assert_eq!(values, (0..8).collect::<Vec<_>>());
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn nested_submission_joins_without_deadlock() {
        // Team of 2 ⇒ one executor. The outer task consumes it, then
        // submits and joins a child — the child enqueues and the join
        // helps drain it onto the outer task's own permit.
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(4)));
        let svc2 = Arc::clone(&svc);
        let outer = svc.submit(move || svc2.submit(|| 21).unwrap().get() * 2).unwrap();
        assert_eq!(outer.get(), 42);
        // The nested submission is a real, counted queue citizen now.
        assert_eq!(svc.stats().submitted, 2);
        assert_eq!(svc.stats().completed, 2);
    }

    #[test]
    fn nested_block_submission_on_full_queue_runs_inline() {
        // Capacity 1, one executor. The outer task fills the queue with a
        // sibling it never joins, then over-submits under Block: instead
        // of parking in space_ready with the only permit held (deadlock),
        // the overflow submission runs inline on the outer task's permit.
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(1)));
        let svc2 = Arc::clone(&svc);
        let outer = svc
            .submit(move || {
                let filler = svc2.submit(|| 1).unwrap();
                let inline = svc2.submit(|| 2).unwrap(); // queue full ⇒ inline
                assert!(inline.is_ready(), "overflow submission must have run inline");
                inline.get() + filler.get()
            })
            .unwrap();
        assert_eq!(outer.get(), 3);
        svc.drain();
        let stats = svc.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn cross_service_submission_enqueues_normally() {
        // A task of service A submitting to service B must go through B's
        // queue (policy + stats), not run inline on A's worker.
        let a = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(4));
        let b = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(4)));
        let b2 = Arc::clone(&b);
        let out = a.submit(move || b2.submit(|| 11).unwrap().get()).unwrap().get();
        assert_eq!(out, 11);
        assert_eq!(a.stats().submitted, 1);
        assert_eq!(b.stats().submitted, 1, "cross-service submission must hit B's queue");
        assert_eq!(b.stats().completed, 1);
    }

    #[test]
    fn cross_service_submission_honors_target_policy() {
        // B's queue is saturated: a task of A that over-submits to B must
        // block under B's backpressure until B frees a slot — the inline
        // overflow is for permit holders of B only — and the task then
        // runs on B's worker, not on A's.
        let a = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(4));
        let b = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(1)));
        let gate = Arc::new(AtomicBool::new(false));
        let (g, b2) = (Arc::clone(&gate), Arc::clone(&b));
        let blocker = b
            .submit(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        while b.stats().running == 0 {
            std::thread::yield_now();
        }
        let filler = b.submit(|| ()).unwrap(); // occupies the queue slot
        let submitted = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&submitted);
        let from_a = a
            .submit(move || {
                let a_thread = std::thread::current().id();
                let f = b2.submit(move || std::thread::current().id() != a_thread).unwrap();
                s.store(true, Ordering::Release);
                f.get()
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(!submitted.load(Ordering::Acquire), "a full target queue must block a foreign submitter");
        assert_eq!(b.stats().submitted, 2);
        gate.store(true, Ordering::Release);
        blocker.get();
        filler.get();
        assert!(from_a.get(), "the task must run on B's worker, not inline on A's");
        assert_eq!(b.stats().completed, 3);
    }

    #[test]
    fn drop_drains_queued_tasks() {
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(64));
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let counter = Arc::clone(&counter);
            // Fire and forget: futures dropped immediately.
            let _ = svc.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(svc);
        assert_eq!(counter.load(Ordering::Relaxed), 16, "drop must drain, not discard, queued work");
    }

    #[test]
    fn panicking_task_does_not_poison_the_service() {
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(4));
        let bad = svc.submit(|| panic!("deliberate")).unwrap();
        let result = catch_unwind(AssertUnwindSafe(move || bad.get()));
        assert!(result.is_err());
        assert_eq!(svc.submit(|| 5).unwrap().get(), 5);
    }

    #[test]
    fn team_of_one_service_still_completes() {
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(1).capacity(4));
        let futures: Vec<_> = (0..6).map(|i| svc.submit(move || i * i).unwrap()).collect();
        let got: Vec<usize> = futures.into_iter().map(|f| f.get()).collect();
        assert_eq!(got, vec![0, 1, 4, 9, 16, 25]);
    }

    #[test]
    fn team_of_one_in_task_join_drains_inline() {
        // The dispatcher itself is the executor; an in-task sibling join
        // must still make progress through the drain loop.
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(1).capacity(8)));
        let svc2 = Arc::clone(&svc);
        let outer = svc
            .submit(move || {
                let a = svc2.submit(|| 3).unwrap();
                let b = svc2.submit(|| 4).unwrap();
                a.get() * b.get()
            })
            .unwrap();
        assert_eq!(outer.get(), 12);
    }

    #[test]
    fn permit_budget_is_single_sourced() {
        // The invariant the satellite pins: the stored budget equals the
        // (single) formula, `drain` restores it, and it is what the
        // public accessor reports.
        for threads in [1usize, 2, 3, 4, 8] {
            let svc = ExecutionService::new(ExecServiceConfig::default().threads(threads).capacity(16));
            assert_eq!(svc.permit_budget(), threads.saturating_sub(1).max(1), "threads={threads}");
            assert_eq!(svc.inner.max_permits, svc.permit_budget());
            let futures: Vec<_> = (0..8).map(|i| svc.submit(move || i).unwrap()).collect();
            for f in futures {
                f.get();
            }
            svc.drain();
            let st = svc.inner.state.lock();
            assert_eq!(st.permits, svc.inner.max_permits, "drain must restore the full budget");
        }
    }

    #[test]
    #[should_panic(expected = "drain called from inside")]
    fn drain_from_inside_a_task_panics() {
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(4)));
        let svc2 = Arc::clone(&svc);
        svc.submit(move || svc2.drain()).unwrap().get();
    }

    #[test]
    fn stats_snapshot_is_internally_consistent() {
        // Hammer the service from several submitters while polling stats:
        // every snapshot must satisfy the accounting identity exactly.
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(3).capacity(8)));
        let stop = Arc::new(AtomicBool::new(false));
        let poller = {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut snapshots = 0usize;
                while !stop.load(Ordering::Acquire) {
                    let s = svc.stats();
                    assert_eq!(
                        s.submitted,
                        s.completed + s.running + s.queue_len + s.shed + s.cancelled + s.expired,
                        "inconsistent snapshot: {s:?}"
                    );
                    snapshots += 1;
                }
                snapshots
            })
        };
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let svc = Arc::clone(&svc);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        svc.submit(move || i).unwrap().get();
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        assert!(poller.join().unwrap() > 0);
        svc.drain();
        let s = svc.stats();
        assert_eq!((s.submitted, s.completed), (600, 600));
    }

    // ---- per-tenant round robin ----------------------------------------

    fn noop_task(ticket: u64, tenant: &str) -> QueuedTask {
        QueuedTask { ticket, tenant: Arc::from(tenant), run: Box::new(|| {}), cancel: Box::new(|| {}) }
    }

    #[test]
    fn round_robin_pops_alternate_tenants() {
        // Two backlogged tenants, A's batch enqueued first: the pops
        // alternate one task per visit — the order two equal tenants
        // (the vqe_sweep benchmark's) see.
        let mut st = QueueState::new(1);
        for ticket in 1..=6 {
            st.enqueue(noop_task(ticket, if ticket <= 3 { "A" } else { "B" }));
        }
        let order: Vec<(String, u64)> =
            std::iter::from_fn(|| st.pop()).map(|t| (t.tenant.to_string(), t.ticket)).collect();
        let expected = [("A", 1), ("B", 4), ("A", 2), ("B", 5), ("A", 3), ("B", 6)];
        assert_eq!(order, expected.map(|(t, n)| (t.to_string(), n)));
        assert_eq!(st.queued, 0);
    }

    #[test]
    fn single_tenant_drr_degenerates_to_fifo() {
        let mut st = QueueState::new(1);
        for ticket in 1..=6 {
            st.enqueue(noop_task(ticket, "solo"));
        }
        let order: Vec<u64> = std::iter::from_fn(|| st.pop()).map(|t| t.ticket).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn removing_a_tenants_last_task_keeps_rotation_clean() {
        // Cancel empties tenant `b`'s queue while its rotation entry is
        // still queued; a later re-enqueue must not give `b` two rotation
        // slots (double share). Exercised via pop order: a and b keep
        // alternating.
        let mut st = QueueState::new(1);
        st.enqueue(noop_task(1, "a"));
        st.enqueue(noop_task(2, "b"));
        assert!(st.remove_ticket(2).is_some());
        st.enqueue(noop_task(3, "b"));
        st.enqueue(noop_task(4, "a"));
        st.enqueue(noop_task(5, "b"));
        let order: Vec<(String, u64)> =
            std::iter::from_fn(|| st.pop()).map(|t| (t.tenant.to_string(), t.ticket)).collect();
        // Strict alternation while both have backlog.
        assert_eq!(
            order,
            vec![("a".to_string(), 1), ("b".to_string(), 3), ("a".to_string(), 4), ("b".to_string(), 5)]
        );
    }

    #[test]
    fn tenant_resolution_thread_then_default() {
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(16));
        svc.submit(|| ()).unwrap().get(); // default tenant
        set_thread_tenant(Some("session-7"));
        svc.submit(|| ()).unwrap().get(); // thread tenant
        set_thread_tenant(None);
        svc.submit(|| ()).unwrap().get(); // cleared: default again
        svc.drain();
        let snap = svc.introspect();
        let rows: Vec<(&str, usize)> =
            snap.tenants.iter().map(|t| (t.tenant.as_str(), t.submitted)).collect();
        assert_eq!(rows, vec![(DEFAULT_TENANT, 2), ("session-7", 1)]);
        assert!(snap.tenants.iter().all(|t| t.submitted == t.completed));
    }

    #[test]
    fn nested_submissions_inherit_the_parent_tenant() {
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(16)));
        let svc2 = Arc::clone(&svc);
        set_thread_tenant(Some("parent"));
        let outer = svc.submit(move || {
            assert_eq!(thread_tenant().as_deref(), Some("parent"));
            svc2.submit(|| ()).unwrap().get()
        });
        set_thread_tenant(None);
        outer.unwrap().get();
        svc.drain();
        let snap = svc.introspect();
        let parent = snap.tenants.iter().find(|t| t.tenant == "parent").unwrap();
        assert_eq!((parent.submitted, parent.completed), (2, 2), "child must inherit `parent`");
    }

    #[test]
    fn per_tenant_gauges_sum_to_totals() {
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(3).capacity(64));
        let mut futures = Vec::new();
        for (tenant, n) in [("a", 5), ("b", 3), ("c", 7)] {
            set_thread_tenant(Some(tenant));
            for i in 0..n {
                futures.push(svc.submit(move || i).unwrap());
            }
        }
        set_thread_tenant(None);
        for f in futures {
            f.get();
        }
        svc.drain();
        let snap = svc.introspect();
        let s = snap.stats;
        assert_eq!(s.submitted, s.completed + s.running + s.queue_len + s.shed + s.cancelled + s.expired);
        let sum = |f: fn(&TenantStats) -> usize| snap.tenants.iter().map(f).sum::<usize>();
        assert_eq!(sum(|t| t.submitted), s.submitted);
        assert_eq!(sum(|t| t.completed), s.completed);
        assert_eq!(sum(|t| t.running), s.running);
        assert_eq!(sum(|t| t.cancelled), s.cancelled);
        assert_eq!(sum(|t| t.queued), s.queue_len);
        for t in &snap.tenants {
            assert_eq!(
                t.submitted,
                t.completed + t.running + t.queued + t.cancelled,
                "identity violated for {t:?}"
            );
        }
    }

    // ---- cooperative cancellation --------------------------------------

    #[test]
    fn cancel_after_dispatch_requests_cooperative_stop() {
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(8));
        let f = svc
            .submit(|| {
                while !qcor_sim::cancel_requested() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                7
            })
            .unwrap();
        while svc.stats().running == 0 {
            std::thread::yield_now();
        }
        assert!(!f.cancel(), "a dispatched task reports false from cancel()");
        assert_eq!(f.get(), 7, "the cooperative stop lets the task finish with its partial result");
        assert_eq!(svc.stats().cancelled, 0, "cooperative stop is not a queue-cancel");
    }

    // ---- loud env parsing (satellite: no silent clamps) ----------------

    fn env<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |key| pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string())
    }

    #[test]
    fn from_env_reader_parses_every_knob() {
        let cfg = ExecServiceConfig::from_env_reader(env(&[
            ("QCOR_QUEUE_CAPACITY", "17"),
            ("QCOR_SERVICE_THREADS", "3"),
        ]));
        assert_eq!(cfg.capacity, 17);
        assert_eq!(cfg.threads, 3);
    }

    #[test]
    #[should_panic(expected = "QCOR_QUEUE_CAPACITY=`0` is not a positive integer")]
    fn from_env_reader_rejects_zero_capacity() {
        // The satellite fix: zero used to be silently clamped to 1.
        let _ = ExecServiceConfig::from_env_reader(env(&[("QCOR_QUEUE_CAPACITY", "0")]));
    }

    #[test]
    #[should_panic(expected = "QCOR_SERVICE_THREADS=`many` is not a positive integer")]
    fn from_env_reader_rejects_garbage_threads() {
        let _ = ExecServiceConfig::from_env_reader(env(&[("QCOR_SERVICE_THREADS", "many")]));
    }
}
