//! The asynchronous kernel-execution service: a bounded two-lane task
//! queue with configurable backpressure, drained onto a shared
//! [`ThreadPool`].
//!
//! [`crate::async_task`] (paper Listing 5) originally spawned one OS
//! thread per task — unbounded under submission pressure. The service
//! replaces that with the shape the ROADMAP's north star asks for:
//!
//! * **Bounded queue** — submissions land in a FIFO queue with a
//!   high-water mark (`capacity`). Once full, the configured
//!   [`BackpressurePolicy`] decides: `Block` the submitter, `Reject` the
//!   submission with [`QcorError::QueueFull`], or `ShedOldest` — admit the
//!   new task and resolve the oldest **shed-admitted** queued task's
//!   future as shed ([`QcorError::TaskShed`]), never dropping work
//!   silently. Block-admitted tasks (`spawn`/`async_task`) are never
//!   shed — their futures stay infallible; if only such tasks are queued,
//!   the incoming shed-policy submission is itself shed instead.
//! * **Priority lanes** — the queue has a `High` and a `Normal` lane
//!   ([`TaskPriority`]). The dispatcher drains `High` first, FIFO within
//!   each lane; shed-oldest victimizes the `Normal` lane first. The high
//!   lane has its own high-water mark (`priority_capacity`,
//!   `QCOR_QUEUE_PRIORITY_CAPACITY`) so latency-sensitive work cannot
//!   monopolize the whole queue budget.
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
//!   park normally under the other service's policy and stats. The one
//!   remaining way to stall is a genuine join **cycle** (task A waiting
//!   on B's future while B waits on A's, futures exchanged through shared
//!   state) — undefined for any join primitive, exactly like two OS
//!   threads `join`ing each other.
//! * **Per-tenant fair queuing** — inside each lane, queued tasks are
//!   keyed by **tenant** (an explicit [`TaskSpec::tenant`], else the
//!   submitting thread's session tenant ([`set_thread_tenant`] /
//!   [`InitOptions::tenant`]), else [`DEFAULT_TENANT`]) and dispatched by
//!   deficit-weighted round robin: each visit banks the tenant's weight
//!   (`QCOR_TENANT_WEIGHTS` / [`ExecServiceConfig::tenant_weight`],
//!   default 1.0) and serves one task per unit of banked deficit, so a
//!   tenant with weight 3 gets ~3× the dispatch share of a weight-1 tenant
//!   and a flooding tenant can no longer starve polite ones. A single
//!   tenant degenerates to plain FIFO. Tasks of a task inherit its tenant.
//! * **Cancellation and deadlines** — [`crate::TaskFuture::cancel`]
//!   aborts a still-queued task (its future resolves as
//!   [`QcorError::TaskCancelled`]); once dispatched, `cancel` reports
//!   `false` but **requests a cooperative stop**: the task's
//!   [`CancelToken`] is set, and checkpointed code (e.g. a chunked
//!   `qcor_sim` shot sweep, which checks between chunk jobs) stops at its
//!   next checkpoint and returns the completed prefix. Dropping a future
//!   stays detached (fire-and-forget).
//!   [`ExecutionService::submit_with_deadline`] attaches a deadline that
//!   is enforced **eagerly**: deadlines sit in a min-heap, the dispatcher
//!   sleeps no longer than the nearest one, and an expired task leaves its
//!   queue slot immediately — even when no permit is free — resolving
//!   through the shed path ([`QcorError::TaskShed`]) as the `expired`
//!   counter ticks. A task already dispatched is past eviction and always
//!   runs to completion. (Dispatch-time and helper-side lazy checks remain
//!   as backstops.)
//! * **Live introspection** — [`ExecutionService::introspect`] snapshots
//!   the stats, lane occupancy, per-tenant gauges and live backend loads
//!   into a [`ServiceIntrospection`] (text or JSON via
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
//! enqueue normally (counted, prioritized and sheddable like any other
//! submission) — the work-conserving join is what makes that safe. The
//! one exception keeps `Block` non-blocking for permit holders: a nested
//! `Block` submission against a full queue runs **inline** on the parent's
//! permit instead of parking in `space_ready` (a submitter that holds a
//! permit must never wait for queue space that only permit holders can
//! free). Submissions to a *different* service enqueue under that
//! service's own policy and stats.
//!
//! All [`ServiceStats`] counters live under the queue lock and are
//! snapshotted with a single acquisition, so a snapshot is always
//! internally consistent:
//! `submitted == completed + running + queue_len + shed + cancelled + expired`
//! holds for **every** snapshot (`rejected` counts submissions that were
//! never admitted and sits outside the identity). Per-tenant counters live
//! under the same lock: the identity also holds per tenant, and every
//! per-tenant counter column sums to its `ServiceStats` total.

use crate::introspect::{DebugServer, ServiceIntrospection, TenantStats};
use crate::qpu_manager::QPUManager;
use crate::runtime::{initialize, InitOptions};
use crate::threading::{TaskFuture, TaskOutcome};
use crate::QcorError;
use crossbeam::channel::bounded;
use parking_lot::{Condvar, Mutex};
use qcor_pool::{num_threads_from_env, PoolBuilder, ThreadPool};
use qcor_sim::cancel::{self, CancelToken};
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What happens to a submission once the queue is at its high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Block the submitting thread until the queue has room (the default —
    /// submission pressure propagates to the producers). Inside a task of
    /// the same service the submission runs inline instead of blocking
    /// (see the module docs).
    Block,
    /// Fail the submission with [`QcorError::QueueFull`].
    Reject,
    /// Admit the new task and shed the oldest **shed-admitted** queued
    /// task: its future resolves to [`QcorError::TaskShed`] instead of a
    /// value. Block-admitted tasks (`spawn`) are never shed; if none of
    /// the queued tasks is sheddable, the incoming submission itself is
    /// shed. The `Normal` lane is victimized before the `High` lane.
    ShedOldest,
}

/// Which lane of the kernel queue a submission joins. The dispatcher
/// drains `High` completely before touching `Normal`; order within a lane
/// is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskPriority {
    /// The default lane.
    #[default]
    Normal,
    /// Dispatched before all `Normal` tasks; bounded separately by
    /// `priority_capacity` and shed only when no `Normal` victim exists.
    High,
}

/// Configuration for an [`ExecutionService`].
#[derive(Debug, Clone)]
pub struct ExecServiceConfig {
    /// Queue high-water mark across both lanes (≥ 1).
    pub capacity: usize,
    /// High-lane high-water mark. `None` (the default) means the high
    /// lane is bounded only by the total `capacity`; an explicit value is
    /// clamped to `capacity` at construction. A high submission is over
    /// capacity when either its lane or the total is full.
    pub priority_capacity: Option<usize>,
    /// Total pool team size, including the dispatcher (≥ 1): at most
    /// `threads` OS threads ever execute tasks.
    pub threads: usize,
    /// Policy applied by [`ExecutionService::submit`] when the queue is
    /// full.
    pub policy: BackpressurePolicy,
    /// Per-tenant fair-queuing weights (`(tenant, weight)`; weight > 0).
    /// Tenants not listed here weigh 1.0. Later entries override earlier
    /// ones for the same tenant.
    pub tenant_weights: Vec<(String, f64)>,
}

impl Default for ExecServiceConfig {
    fn default() -> Self {
        ExecServiceConfig {
            capacity: 256,
            priority_capacity: None,
            threads: num_threads_from_env().max(4),
            policy: BackpressurePolicy::Block,
            tenant_weights: Vec::new(),
        }
    }
}

impl ExecServiceConfig {
    /// Builder-style capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Builder-style high-lane capacity (clamped to the total capacity at
    /// construction; unset = bounded by the total capacity alone).
    pub fn priority_capacity(mut self, capacity: usize) -> Self {
        self.priority_capacity = Some(capacity.max(1));
        self
    }

    /// The high-lane high-water mark this configuration resolves to: the
    /// explicit `priority_capacity` clamped to `capacity`, or `capacity`
    /// itself when unset. This is the value the service enforces and
    /// reports.
    pub fn effective_priority_capacity(&self) -> usize {
        self.priority_capacity.unwrap_or(self.capacity).clamp(1, self.capacity.max(1))
    }

    /// Builder-style team size.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style backpressure policy.
    pub fn policy(mut self, policy: BackpressurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style tenant weight (must be positive and finite). Tenants
    /// never configured weigh 1.0.
    pub fn tenant_weight(mut self, tenant: impl Into<String>, weight: f64) -> Self {
        assert!(
            weight.is_finite() && weight > 0.0,
            "tenant weight must be a positive finite number, got {weight}"
        );
        self.tenant_weights.push((tenant.into(), weight));
        self
    }

    /// The global service's configuration: `QCOR_QUEUE_CAPACITY`,
    /// `QCOR_QUEUE_PRIORITY_CAPACITY` (high-lane high-water mark, default:
    /// the total capacity), `QCOR_SERVICE_THREADS` (default:
    /// `QCOR_NUM_THREADS` with a floor of 4, so task-level latency overlap
    /// survives 1-CPU hosts — the §IV-A cloud scenario needs ≥ 2
    /// concurrent tasks even without cores), `QCOR_QUEUE_POLICY`
    /// (`block` | `reject` | `shed-oldest`) and `QCOR_TENANT_WEIGHTS`
    /// (`tenant=weight,...`).
    ///
    /// Every knob is parsed **loudly**: a value that is set but not valid
    /// (zero, garbage, an unknown token) panics instead of being silently
    /// clamped or ignored — running under a configuration the operator
    /// didn't ask for is worse than failing fast.
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
        if let Some(cap) = get("QCOR_QUEUE_PRIORITY_CAPACITY") {
            cfg.priority_capacity = Some(parse_positive("QCOR_QUEUE_PRIORITY_CAPACITY", &cap));
        }
        if let Some(threads) = get("QCOR_SERVICE_THREADS") {
            cfg.threads = parse_positive("QCOR_SERVICE_THREADS", &threads);
        }
        if let Some(policy) = get("QCOR_QUEUE_POLICY") {
            cfg.policy = match policy.as_str() {
                "block" => BackpressurePolicy::Block,
                "reject" => BackpressurePolicy::Reject,
                "shed-oldest" => BackpressurePolicy::ShedOldest,
                // Loud failure beats silently blocking under a policy the
                // operator didn't ask for (same stance as the backends'
                // mistyped params).
                other => panic!(
                    "QCOR_QUEUE_POLICY=`{other}` is not a backpressure policy \
                     (expected block | reject | shed-oldest)"
                ),
            };
        }
        if let Some(spec) = get("QCOR_TENANT_WEIGHTS") {
            cfg.tenant_weights = parse_tenant_weights(&spec);
        }
        cfg
    }
}

/// Parse an env knob that must be a positive integer; zero and garbage are
/// rejected loudly (the satellite fix for the old silent `max(1)` clamp).
fn parse_positive(key: &str, value: &str) -> usize {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => panic!("{key}=`{value}` is not a positive integer (expected >= 1)"),
    }
}

/// Parse a `tenant=weight,tenant=weight` spec (`QCOR_TENANT_WEIGHTS`).
/// Empty names, unparsable or non-positive weights, and a wholly empty
/// spec all panic.
fn parse_tenant_weights(spec: &str) -> Vec<(String, f64)> {
    let mut weights = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        let Some((name, weight)) = entry.split_once('=') else {
            panic!("QCOR_TENANT_WEIGHTS entry `{entry}` is not `tenant=weight`");
        };
        let (name, weight_str) = (name.trim(), weight.trim());
        let weight: f64 = weight_str.parse().unwrap_or_else(|_| {
            panic!("QCOR_TENANT_WEIGHTS weight `{weight_str}` for `{name}` is not a number")
        });
        if name.is_empty() || !weight.is_finite() || weight <= 0.0 {
            panic!(
                "QCOR_TENANT_WEIGHTS entry `{entry}` is invalid \
                 (tenant must be non-empty, weight positive and finite)"
            );
        }
        weights.push((name.to_string(), weight));
    }
    if weights.is_empty() {
        panic!("QCOR_TENANT_WEIGHTS is set but empty (expected `tenant=weight,...`)");
    }
    weights
}

/// Snapshot of a service's counters, taken under a single lock
/// acquisition so the monotone counters and the gauges (`running`,
/// `queue_len`, `high_queue_len`, `normal_queue_len`) are mutually
/// consistent: `submitted == completed + running + queue_len + shed +
/// cancelled + expired` holds for every snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Tasks admitted to the queue.
    pub submitted: usize,
    /// Tasks that ran to completion (including panicked tasks).
    pub completed: usize,
    /// Submissions refused under [`BackpressurePolicy::Reject`] (never
    /// admitted; outside the accounting identity).
    pub rejected: usize,
    /// Queued tasks dropped under [`BackpressurePolicy::ShedOldest`].
    pub shed: usize,
    /// Queued tasks aborted by [`crate::TaskFuture::cancel`].
    pub cancelled: usize,
    /// Queued tasks whose deadline passed before dispatch (resolved as
    /// shed, never run).
    pub expired: usize,
    /// Highest total queue occupancy observed.
    pub peak_queue_len: usize,
    /// Tasks currently executing on the pool.
    pub running: usize,
    /// Tasks currently queued (both lanes).
    pub queue_len: usize,
    /// Tasks currently queued in the high-priority lane.
    pub high_queue_len: usize,
    /// Tasks currently queued in the normal lane.
    pub normal_queue_len: usize,
}

/// The tenant a submission is accounted to when neither the [`TaskSpec`]
/// nor the submitting thread names one.
pub const DEFAULT_TENANT: &str = "default";

/// Lane indices into the per-tenant queue pairs.
const LANE_HIGH: usize = 0;
const LANE_NORMAL: usize = 1;
const LANES: usize = 2;

fn lane_index(priority: TaskPriority) -> usize {
    match priority {
        TaskPriority::High => LANE_HIGH,
        TaskPriority::Normal => LANE_NORMAL,
    }
}

struct QueuedTask {
    /// Unique per-service ticket, the handle [`crate::TaskFuture::cancel`]
    /// uses to find (and remove) this task while it is still queued.
    ticket: u64,
    /// The tenant this task is queued under and accounted to.
    tenant: Arc<str>,
    run: Box<dyn FnOnce() + Send>,
    /// Resolves the task's future as [`TaskOutcome::Shed`].
    shed: Box<dyn FnOnce() + Send>,
    /// Resolves the task's future as [`TaskOutcome::Cancelled`].
    cancel: Box<dyn FnOnce() + Send>,
    /// Only submissions admitted under [`BackpressurePolicy::ShedOldest`]
    /// opt into being shed; Block-admitted tasks (`spawn`/`async_task`)
    /// keep their infallible-future contract (cancel and deadlines are
    /// explicit caller choices and exempt from that contract).
    sheddable: bool,
    /// Enforced eagerly through the deadline heap, with a lazy dispatch
    /// check as backstop: an expired task never runs and resolves through
    /// the shed path.
    deadline: Option<Instant>,
}

/// One tenant's queues, fair-queuing state and counters. Never removed
/// once created (the counters are monotone); tenant cardinality is assumed
/// bounded (session keys, not per-request ids).
struct TenantState {
    /// Fair-queuing weight (> 0); the tenant's relative dispatch share.
    weight: f64,
    /// Deficit-round-robin credit per lane: each rotation visit banks
    /// `weight`, each dispatched task spends 1.0.
    deficit: [f64; LANES],
    /// Whether this tenant currently sits in the lane's rotation list
    /// (guards against double entries, which would double its share).
    in_rotation: [bool; LANES],
    /// Queued tasks per lane, FIFO within the tenant.
    lanes: [VecDeque<QueuedTask>; LANES],
    // --- per-tenant counters (same identity as ServiceStats) ------------
    submitted: usize,
    completed: usize,
    shed: usize,
    cancelled: usize,
    expired: usize,
    running: usize,
}

impl TenantState {
    fn new(weight: f64) -> Self {
        TenantState {
            weight,
            deficit: [0.0; LANES],
            in_rotation: [false; LANES],
            lanes: [VecDeque::new(), VecDeque::new()],
            submitted: 0,
            completed: 0,
            shed: 0,
            cancelled: 0,
            expired: 0,
            running: 0,
        }
    }
}

struct QueueState {
    /// Per-tenant queues and counters, keyed by tenant name.
    tenants: HashMap<Arc<str>, TenantState>,
    /// Deficit-round-robin rotation per lane: the tenants with queued
    /// tasks in that lane, in visit order.
    rotation: [VecDeque<Arc<str>>; LANES],
    /// Cached total occupancy per lane (sum over tenants).
    lane_lens: [usize; LANES],
    /// Min-heap of `(deadline, ticket)` for eager eviction. Entries are
    /// never removed early; stale tickets (dispatched/cancelled tasks) are
    /// skipped when they surface.
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
    /// Configured fair-queuing weights; tenants absent here weigh 1.0.
    weights: HashMap<String, f64>,
    /// Free executor slots (pool workers; 1 for a team-of-one service).
    permits: usize,
    shutdown: bool,
    // --- counters (see ServiceStats) -----------------------------------
    submitted: usize,
    completed: usize,
    rejected: usize,
    shed: usize,
    cancelled: usize,
    expired: usize,
    peak_queue: usize,
    running: usize,
}

impl QueueState {
    fn new(max_permits: usize, weights: HashMap<String, f64>) -> Self {
        QueueState {
            tenants: HashMap::new(),
            rotation: [VecDeque::new(), VecDeque::new()],
            lane_lens: [0; LANES],
            deadlines: BinaryHeap::new(),
            weights,
            permits: max_permits,
            shutdown: false,
            submitted: 0,
            completed: 0,
            rejected: 0,
            shed: 0,
            cancelled: 0,
            expired: 0,
            peak_queue: 0,
            running: 0,
        }
    }

    fn queued(&self) -> usize {
        self.lane_lens[LANE_HIGH] + self.lane_lens[LANE_NORMAL]
    }

    /// The tenant's state, created on first use with its configured
    /// weight.
    fn ensure_tenant(&mut self, key: &Arc<str>) -> &mut TenantState {
        if !self.tenants.contains_key(key) {
            let weight = self.weights.get(key.as_ref()).copied().unwrap_or(1.0);
            self.tenants.insert(Arc::clone(key), TenantState::new(weight));
        }
        self.tenants.get_mut(key).expect("just ensured")
    }

    /// The tenant's state, which must already exist (every admitted task
    /// creates its tenant).
    fn tenant_mut(&mut self, key: &Arc<str>) -> &mut TenantState {
        self.tenants.get_mut(key).expect("tenant state exists for every admitted task")
    }

    /// Admit `task` into `lane`: per-tenant queue push, rotation
    /// membership, lane totals, deadline-heap entry and both `submitted`
    /// counters.
    fn enqueue(&mut self, lane: usize, task: QueuedTask) {
        if let Some(deadline) = task.deadline {
            self.deadlines.push(Reverse((deadline, task.ticket)));
        }
        let key = Arc::clone(&task.tenant);
        let needs_rotation = {
            let tenant = self.ensure_tenant(&key);
            tenant.lanes[lane].push_back(task);
            tenant.submitted += 1;
            !std::mem::replace(&mut tenant.in_rotation[lane], true)
        };
        if needs_rotation {
            self.rotation[lane].push_back(key);
        }
        self.lane_lens[lane] += 1;
        self.submitted += 1;
        self.peak_queue = self.peak_queue.max(self.queued());
    }

    /// Pop the next task of `lane` by deficit-weighted round robin over
    /// the lane's tenants. FIFO within a tenant; a lane with one tenant
    /// degenerates to plain FIFO.
    fn pop_lane(&mut self, lane: usize) -> Option<QueuedTask> {
        loop {
            let key = self.rotation[lane].front()?.clone();
            let tenant = self.tenants.get_mut(&key).expect("rotation references live tenants");
            if tenant.lanes[lane].is_empty() {
                // Stale entry: the tenant's queue emptied through
                // cancel/evict/shed. Banked deficit is forfeited so an
                // idle tenant cannot burst later.
                tenant.in_rotation[lane] = false;
                tenant.deficit[lane] = 0.0;
                self.rotation[lane].pop_front();
                continue;
            }
            if tenant.deficit[lane] < 1.0 {
                tenant.deficit[lane] += tenant.weight;
                if tenant.deficit[lane] < 1.0 {
                    // Fractional weight: bank the quantum, visit the next
                    // tenant. Weights are > 0, so every tenant eventually
                    // accumulates a full unit — no starvation.
                    let entry = self.rotation[lane].pop_front().expect("front exists");
                    self.rotation[lane].push_back(entry);
                    continue;
                }
            }
            tenant.deficit[lane] -= 1.0;
            let task = tenant.lanes[lane].pop_front().expect("checked non-empty");
            self.lane_lens[lane] -= 1;
            if tenant.lanes[lane].is_empty() {
                tenant.in_rotation[lane] = false;
                tenant.deficit[lane] = 0.0;
                self.rotation[lane].pop_front();
            } else if tenant.deficit[lane] < 1.0 {
                // Quantum spent: rotate to the back for the next round.
                let entry = self.rotation[lane].pop_front().expect("front exists");
                self.rotation[lane].push_back(entry);
            }
            return Some(task);
        }
    }

    /// Pop the next task in dispatch order (high lane first, fair-queued
    /// within a lane), skimming off tasks whose deadline has already
    /// passed — the lazy backstop behind the eager heap. Expired tasks are
    /// returned separately so the caller can resolve their futures outside
    /// the lock; their counters are updated here.
    fn pop_ready(&mut self) -> (Vec<QueuedTask>, Option<QueuedTask>) {
        let mut expired = Vec::new();
        let now = Instant::now();
        loop {
            let task = match self.pop_lane(LANE_HIGH) {
                Some(task) => Some(task),
                None => self.pop_lane(LANE_NORMAL),
            };
            match task {
                Some(task) if task.deadline.is_some_and(|d| d <= now) => {
                    self.note_expired(&task);
                    expired.push(task);
                }
                other => return (expired, other),
            }
        }
    }

    /// Move a just-popped task into the `running` gauges (global and
    /// per-tenant) in the same critical section as the pop, so no snapshot
    /// sees it in neither.
    fn mark_running(&mut self, task: &QueuedTask) {
        self.running += 1;
        let key = Arc::clone(&task.tenant);
        self.tenant_mut(&key).running += 1;
    }

    fn note_expired(&mut self, task: &QueuedTask) {
        self.expired += 1;
        let key = Arc::clone(&task.tenant);
        self.tenant_mut(&key).expired += 1;
    }

    /// Remove the queued task with `ticket`, if it is still queued.
    fn remove_ticket(&mut self, ticket: u64) -> Option<QueuedTask> {
        for tenant in self.tenants.values_mut() {
            for lane in [LANE_HIGH, LANE_NORMAL] {
                if let Some(index) = tenant.lanes[lane].iter().position(|t| t.ticket == ticket) {
                    let task = tenant.lanes[lane].remove(index);
                    if task.is_some() {
                        self.lane_lens[lane] -= 1;
                    }
                    return task;
                }
            }
        }
        None
    }

    /// Eager deadline eviction: pop every heap entry at or past `now`,
    /// remove the tasks that are still queued (stale tickets — already
    /// dispatched, cancelled or lazily expired — are skipped) and tick the
    /// `expired` counters. A dispatched task is unreachable here by
    /// construction: eviction can only ever remove queued work.
    fn evict_expired(&mut self, now: Instant) -> Vec<QueuedTask> {
        let mut evicted = Vec::new();
        while let Some(Reverse((deadline, ticket))) = self.deadlines.peek().copied() {
            if deadline > now {
                break;
            }
            self.deadlines.pop();
            if let Some(task) = self.remove_ticket(ticket) {
                self.note_expired(&task);
                evicted.push(task);
            }
        }
        evicted
    }

    /// The nearest pending deadline (possibly of a stale ticket — waking
    /// for one merely pops it from the heap).
    fn next_deadline(&self) -> Option<Instant> {
        self.deadlines.peek().map(|Reverse((when, _))| *when)
    }

    /// Pick a shed victim from `lane`: the tenant with the largest backlog
    /// in that lane that has a sheddable task (the flooder pays first),
    /// oldest sheddable task within it. Ties break on the lexicographically
    /// smaller tenant name, so the choice is deterministic.
    fn shed_victim(&mut self, lane: usize) -> Option<QueuedTask> {
        let mut best: Option<(usize, &Arc<str>)> = None;
        for (key, tenant) in self.tenants.iter() {
            if !tenant.lanes[lane].iter().any(|t| t.sheddable) {
                continue;
            }
            let backlog = tenant.lanes[lane].len();
            let better = match &best {
                None => true,
                Some((len, name)) => backlog > *len || (backlog == *len && key.as_ref() < name.as_ref()),
            };
            if better {
                best = Some((backlog, key));
            }
        }
        let key = Arc::clone(best?.1);
        let tenant = self.tenants.get_mut(&key).expect("chosen victim tenant exists");
        let index = tenant.lanes[lane].iter().position(|t| t.sheddable).expect("victim is sheddable");
        let task = tenant.lanes[lane].remove(index).expect("victim index is valid");
        self.lane_lens[lane] -= 1;
        Some(task)
    }

    /// The `ServiceStats` snapshot of this state (callers hold the lock).
    fn stats_snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted,
            completed: self.completed,
            rejected: self.rejected,
            shed: self.shed,
            cancelled: self.cancelled,
            expired: self.expired,
            peak_queue_len: self.peak_queue,
            running: self.running,
            queue_len: self.queued(),
            high_queue_len: self.lane_lens[LANE_HIGH],
            normal_queue_len: self.lane_lens[LANE_NORMAL],
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
    priority_capacity: usize,
    policy: BackpressurePolicy,
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

    /// The tenant submissions from this thread are accounted to when the
    /// [`TaskSpec`] names none. Inside a service task, this is the task's
    /// own tenant, so nested submissions inherit it.
    static CURRENT_TENANT: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Set (or clear) the calling thread's session tenant. Subsequent
/// submissions from this thread without an explicit [`TaskSpec::tenant`]
/// are queued and accounted under it; `None` falls back to
/// [`DEFAULT_TENANT`]. Usually set once per session thread (or via
/// [`InitOptions::tenant`]).
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
                let key = Arc::clone(&task.tenant);
                st.tenant_mut(&key).cancelled += 1;
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
            let (expired, task) = {
                let mut st = inner.state.lock();
                let (expired, task) = st.pop_ready();
                if let Some(task) = &task {
                    // Queue→running transition inside the pop critical
                    // section, so no snapshot sees the task in neither
                    // gauge. The task's closure retires the pair before
                    // resolving its future.
                    st.mark_running(task);
                }
                (expired, task)
            };
            let popped_any = !expired.is_empty() || task.is_some();
            resolve_expired(expired);
            let Some(task) = task else {
                if popped_any {
                    inner.space_ready.notify_all();
                    inner.task_ready.notify_all();
                }
                return;
            };
            inner.space_ready.notify_all();
            (task.run)();
            // `drain` and the dispatcher re-check queue state on this
            // signal; the helper freed queue space without moving permits.
            inner.task_ready.notify_all();
        }
    }
}

/// Resolve the futures of deadline-expired tasks (outside the queue lock —
/// the resolution sends on the result channels).
fn resolve_expired(expired: Vec<QueuedTask>) {
    for task in expired {
        (task.shed)();
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
            .field("priority_capacity", &self.inner.priority_capacity)
            .field("policy", &self.inner.policy)
            .field("threads", &self.pool.num_threads())
            .finish()
    }
}

/// Options attached to one submission.
struct SubmitOptions {
    policy: BackpressurePolicy,
    priority: TaskPriority,
    deadline: Option<Instant>,
    tenant: Option<String>,
}

/// A submission descriptor for [`ExecutionService::submit_spec`]: tenant,
/// priority and deadline in one builder, for callers that need more than
/// the single-knob `submit_*` helpers.
///
/// ```
/// use qcor_core::{ExecServiceConfig, ExecutionService, TaskPriority, TaskSpec};
/// use std::time::Duration;
///
/// let svc = ExecutionService::new(ExecServiceConfig::default());
/// let spec = TaskSpec::new()
///     .tenant("session-42")
///     .priority(TaskPriority::High)
///     .deadline(Duration::from_secs(30));
/// let answer = svc.submit_spec(spec, || 6 * 7).unwrap();
/// assert_eq!(answer.get(), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaskSpec {
    tenant: Option<String>,
    priority: TaskPriority,
    deadline: Option<Duration>,
}

impl TaskSpec {
    /// An empty spec: thread/session tenant, `Normal` priority, no
    /// deadline.
    pub fn new() -> Self {
        TaskSpec::default()
    }

    /// Queue and account the task under `tenant` (overrides the submitting
    /// thread's session tenant).
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The lane the task joins.
    pub fn priority(mut self, priority: TaskPriority) -> Self {
        self.priority = priority;
        self
    }

    /// Evict the task (future resolves [`QcorError::TaskShed`]) if it is
    /// still queued when `timeout` has elapsed.
    pub fn deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
        self
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
        // Later entries override earlier ones for the same tenant.
        let weights: HashMap<String, f64> = config.tenant_weights.iter().cloned().collect();
        let inner = Arc::new(Inner {
            id: NEXT_SERVICE_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(QueueState::new(max_permits, weights)),
            task_ready: Condvar::new(),
            space_ready: Condvar::new(),
            capacity: config.capacity.max(1),
            priority_capacity: config.effective_priority_capacity(),
            policy: config.policy,
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

    /// Submit `f` under the service's configured backpressure policy.
    ///
    /// The task inherits the calling thread's `InitOptions` (replayed on
    /// its executor for a fresh accelerator instance). Fails with
    /// [`QcorError::QueueFull`] under [`BackpressurePolicy::Reject`] when
    /// the queue is at capacity.
    pub fn submit<F, T>(&self, f: F) -> Result<TaskFuture<T>, QcorError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.submit_with(
            SubmitOptions {
                policy: self.inner.policy,
                priority: TaskPriority::Normal,
                deadline: None,
                tenant: None,
            },
            f,
        )
    }

    /// Submit with [`BackpressurePolicy::Block`] regardless of the
    /// configured policy — the infallible path used by [`crate::spawn`].
    pub fn submit_blocking<F, T>(&self, f: F) -> Result<TaskFuture<T>, QcorError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.submit_with(
            SubmitOptions {
                policy: BackpressurePolicy::Block,
                priority: TaskPriority::Normal,
                deadline: None,
                tenant: None,
            },
            f,
        )
    }

    /// Submit under a full [`TaskSpec`] (tenant + priority + deadline),
    /// under the service's configured backpressure policy.
    pub fn submit_spec<F, T>(&self, spec: TaskSpec, f: F) -> Result<TaskFuture<T>, QcorError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.submit_with(
            SubmitOptions {
                policy: self.inner.policy,
                priority: spec.priority,
                deadline: spec.deadline.map(|timeout| Instant::now() + timeout),
                tenant: spec.tenant,
            },
            f,
        )
    }

    /// Submit into the given priority lane under the configured policy.
    /// `High` tasks are dispatched before all `Normal` tasks (FIFO within
    /// a lane) and are bounded by `priority_capacity`.
    pub fn submit_prioritized<F, T>(&self, priority: TaskPriority, f: F) -> Result<TaskFuture<T>, QcorError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.submit_with(
            SubmitOptions { policy: self.inner.policy, priority, deadline: None, tenant: None },
            f,
        )
    }

    /// Submit with a deadline: if the task is still queued when `timeout`
    /// has elapsed, it never runs — at dispatch time it is lazily expired,
    /// its future resolves as [`QcorError::TaskShed`] and the `expired`
    /// counter ticks. A task dispatched before the deadline runs to
    /// completion regardless of how long it takes.
    pub fn submit_with_deadline<F, T>(&self, timeout: Duration, f: F) -> Result<TaskFuture<T>, QcorError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.submit_with(
            SubmitOptions {
                policy: self.inner.policy,
                priority: TaskPriority::Normal,
                deadline: Some(Instant::now() + timeout),
                tenant: None,
            },
            f,
        )
    }

    fn submit_with<F, T>(&self, opts: SubmitOptions, f: F) -> Result<TaskFuture<T>, QcorError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let inherited = inherited_task_options();
        let in_own_task = IN_SERVICE_TASK.with(|owner| owner.get()) == self.inner.id;
        let tenant: Arc<str> = match opts.tenant {
            Some(tenant) => Arc::from(tenant.as_str()),
            None => current_tenant_key().unwrap_or_else(|| Arc::from(DEFAULT_TENANT)),
        };

        let ticket = self.inner.next_ticket.fetch_add(1, Ordering::Relaxed) as u64;
        let token = CancelToken::new();
        let (tx, rx) = bounded::<TaskOutcome<T>>(1);
        let shed_tx = tx.clone();
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
        let shed = Box::new(move || {
            let _ = shed_tx.send(TaskOutcome::Shed);
        });
        let cancel = Box::new(move || {
            let _ = cancel_tx.send(TaskOutcome::Cancelled);
        });
        let task = QueuedTask {
            ticket,
            tenant: Arc::clone(&tenant),
            run,
            shed,
            cancel,
            sheddable: opts.policy == BackpressurePolicy::ShedOldest,
            deadline: opts.deadline,
        };
        let ctx = TaskServiceCtx { service: Arc::downgrade(&self.inner), service_id, ticket, token };

        let lane = lane_index(opts.priority);
        let lane_cap = match opts.priority {
            TaskPriority::High => self.inner.priority_capacity,
            TaskPriority::Normal => self.inner.capacity,
        };
        let over_capacity = |st: &QueueState| {
            st.queued() >= self.inner.capacity
                || match opts.priority {
                    TaskPriority::High => st.lane_lens[LANE_HIGH] >= lane_cap,
                    TaskPriority::Normal => false,
                }
        };

        let victim = {
            let mut st = self.inner.state.lock();
            if st.shutdown {
                return Err(QcorError::Execution("execution service is shut down".into()));
            }
            let mut victim = None;
            if over_capacity(&st) {
                match opts.policy {
                    BackpressurePolicy::Block if in_own_task => {
                        // A permit holder must never park in `space_ready`:
                        // queue space is freed by dispatch, which needs
                        // permits. Run the task inline on our own permit —
                        // the work-conserving overflow path (equivalent to
                        // enqueueing it and immediately helping it drain).
                        st.submitted += 1;
                        st.running += 1;
                        {
                            let t = st.ensure_tenant(&tenant);
                            t.submitted += 1;
                            t.running += 1;
                        }
                        drop(st);
                        run_queued_task_prelocked(&self.inner, task);
                        return Ok(TaskFuture::with_ctx(rx, ctx));
                    }
                    BackpressurePolicy::Block => {
                        while over_capacity(&st) && !st.shutdown {
                            self.inner.space_ready.wait(&mut st);
                        }
                        if st.shutdown {
                            return Err(QcorError::Execution("execution service is shut down".into()));
                        }
                    }
                    BackpressurePolicy::Reject => {
                        st.rejected += 1;
                        return Err(QcorError::QueueFull);
                    }
                    BackpressurePolicy::ShedOldest => {
                        // Shed a queued task that opted into shedding,
                        // victimizing the lane whose limit binds: a full
                        // high lane can only be relieved by a high victim;
                        // otherwise normal-lane victims go first. Within a
                        // lane, the victim comes from the tenant with the
                        // largest backlog (the flooder pays first), oldest
                        // sheddable task of that tenant. Block-admitted
                        // tasks are untouchable; if nothing sheddable is
                        // queued, the incoming submission is the only
                        // sheddable work item — it is shed itself
                        // (observable via its future), never enqueued.
                        let high_full =
                            opts.priority == TaskPriority::High && st.lane_lens[LANE_HIGH] >= lane_cap;
                        victim = if high_full {
                            st.shed_victim(LANE_HIGH)
                        } else {
                            st.shed_victim(LANE_NORMAL).or_else(|| st.shed_victim(LANE_HIGH))
                        };
                        match &victim {
                            Some(v) => {
                                st.shed += 1;
                                let key = Arc::clone(&v.tenant);
                                st.tenant_mut(&key).shed += 1;
                            }
                            None => {
                                // Admitted, then instantly shed: both
                                // counters tick so the accounting identity
                                // holds.
                                st.submitted += 1;
                                st.shed += 1;
                                {
                                    let t = st.ensure_tenant(&tenant);
                                    t.submitted += 1;
                                    t.shed += 1;
                                }
                                drop(st);
                                (task.shed)();
                                return Ok(TaskFuture::with_ctx(rx, ctx));
                            }
                        }
                    }
                }
            }
            st.enqueue(lane, task);
            victim
        };
        if let Some(victim) = victim {
            (victim.shed)();
        }
        self.inner.task_ready.notify_all();
        Ok(TaskFuture::with_ctx(rx, ctx))
    }

    /// Current total queue occupancy (both lanes).
    pub fn queue_len(&self) -> usize {
        self.inner.state.lock().queued()
    }

    /// Queue high-water mark.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// High-lane high-water mark.
    pub fn priority_capacity(&self) -> usize {
        self.inner.priority_capacity
    }

    /// The configured backpressure policy.
    pub fn policy(&self) -> BackpressurePolicy {
        self.inner.policy
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
    /// surface, per-tenant gauges (one [`TenantStats`] per tenant ever
    /// seen, sorted by name) and the registry's per-backend in-flight
    /// loads. The stats and tenant rows come from **one** lock
    /// acquisition, so the per-tenant columns sum exactly to the
    /// `ServiceStats` totals and the accounting identity holds per row.
    pub fn introspect(&self) -> ServiceIntrospection {
        let (stats, mut tenants) = {
            let st = self.inner.state.lock();
            let tenants: Vec<TenantStats> = st
                .tenants
                .iter()
                .map(|(key, t)| TenantStats {
                    tenant: key.to_string(),
                    weight: t.weight,
                    submitted: t.submitted,
                    completed: t.completed,
                    running: t.running,
                    shed: t.shed,
                    cancelled: t.cancelled,
                    expired: t.expired,
                    high_queued: t.lanes[LANE_HIGH].len(),
                    normal_queued: t.lanes[LANE_NORMAL].len(),
                })
                .collect();
            (st.stats_snapshot(), tenants)
        };
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        ServiceIntrospection {
            stats,
            capacity: self.inner.capacity,
            priority_capacity: self.inner.priority_capacity,
            policy: self.inner.policy,
            permit_budget: self.inner.max_permits,
            pool_threads: self.pool.num_threads(),
            tenants,
            backends: qcor_xacc::registry::global().backend_loads(),
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
        while st.queued() != 0 || st.permits < self.inner.max_permits || st.running != 0 {
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

/// [`run_queued_task`] for the inline-overflow path, where the caller has
/// already incremented `running` under the submission lock (so the
/// admission and the gauge move atomically). The task closure itself
/// retires the `running`/`completed` pair.
fn run_queued_task_prelocked(inner: &Inner, task: QueuedTask) {
    (task.run)();
    inner.task_ready.notify_all();
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

/// The `InitOptions` a child task inherits: the parent's options pinned
/// to the backend the parent's own initialization **resolved to**. A
/// child must get a fresh instance of the *same* backend as its parent —
/// replaying a non-pinned routing policy would re-route (advancing
/// rotation cursors) and could silently hand the child a different
/// backend class. Tasks that want routed placement call `initialize`
/// with a routing policy themselves.
fn inherited_task_options() -> Option<InitOptions> {
    QPUManager::instance().get_qpu().map(|ctx| {
        let mut opts = ctx.init;
        // The registry key routing resolved for the parent — NOT
        // `qpu.name()`, which custom services may register differently.
        opts.backend = ctx.resolved_backend;
        opts.routing = Some(crate::RoutingPolicy::Pinned);
        for key in ["routing", "routing-backends", "routing-capability"] {
            opts.params.remove(key);
        }
        opts
    })
}

/// One round of the dispatcher loop, decided under the queue lock.
enum Round {
    /// Ship the task to a pool worker under a permit.
    Dispatch(QueuedTask),
    /// Only evictions/expirations happened this round.
    Housekeeping,
    Exit,
}

/// The dispatcher: waits for (queued task ∧ free permit), ships the task
/// to a pool worker, and lets the worker hand its permit back on
/// completion. Admission control therefore travels all the way down: the
/// pool's internal channel never holds more tasks than there are permits.
/// Deadlines are enforced eagerly: the dispatcher never sleeps past the
/// nearest pending deadline and evicts expired tasks from their queue
/// slots as soon as it fires, permit or no permit (dispatch-time skimming
/// stays as a backstop).
fn dispatcher_loop(inner: Arc<Inner>, pool: Arc<ThreadPool>) {
    loop {
        let (expired, round) = {
            let mut st = inner.state.lock();
            loop {
                let evicted = st.evict_expired(Instant::now());
                if !evicted.is_empty() {
                    break (evicted, Round::Housekeeping);
                }
                if st.queued() != 0 && st.permits > 0 {
                    let (expired, task) = st.pop_ready();
                    if let Some(task) = task {
                        st.mark_running(&task);
                        st.permits -= 1;
                        break (expired, Round::Dispatch(task));
                    }
                    if !expired.is_empty() {
                        break (expired, Round::Housekeeping);
                    }
                    // Everything queued had expired; loop to re-evaluate.
                    continue;
                }
                if st.shutdown && st.queued() == 0 {
                    break (Vec::new(), Round::Exit);
                }
                match st.next_deadline() {
                    Some(deadline) => {
                        let timeout = deadline.saturating_duration_since(Instant::now());
                        if timeout.is_zero() {
                            // Already due: evict on the next iteration
                            // (the heap entry is consumed there, so this
                            // cannot spin).
                            continue;
                        }
                        let _ = inner.task_ready.wait_for(&mut st, timeout);
                    }
                    None => inner.task_ready.wait(&mut st),
                }
            }
        };
        let had_expired = !expired.is_empty();
        resolve_expired(expired);
        if had_expired {
            inner.space_ready.notify_all();
            inner.task_ready.notify_all();
        }
        let task = match round {
            Round::Dispatch(task) => task,
            Round::Housekeeping => continue,
            Round::Exit => break,
        };
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
    fn reject_policy_returns_queue_full() {
        let svc = ExecutionService::new(
            ExecServiceConfig::default().threads(2).capacity(1).policy(BackpressurePolicy::Reject),
        );
        let gate = Arc::new(AtomicBool::new(false));
        // Occupy the single worker…
        let g = Arc::clone(&gate);
        let running = svc
            .submit(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        // …fill the queue…
        while svc.queue_len() < 1 {
            match svc.submit(|| ()) {
                Ok(_) => std::thread::yield_now(),
                Err(_) => break,
            }
        }
        // …and watch an over-submission bounce instead of silently vanishing.
        let mut rejected = false;
        for _ in 0..100 {
            match svc.submit(|| ()) {
                Err(QcorError::QueueFull) => {
                    rejected = true;
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(1)),
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        gate.store(true, Ordering::Release);
        running.get();
        assert!(rejected, "a full queue must reject under the Reject policy");
        assert!(svc.stats().rejected >= 1);
    }

    #[test]
    fn shed_oldest_resolves_victim_future_as_shed() {
        let svc = ExecutionService::new(
            ExecServiceConfig::default().threads(2).capacity(1).policy(BackpressurePolicy::ShedOldest),
        );
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let blocker = svc
            .submit(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        // Wait until the blocker is actually running (queue empty again).
        while svc.stats().running == 0 {
            std::thread::yield_now();
        }
        let oldest = svc.submit(|| 1).unwrap(); // queued
        let newest = svc.submit(|| 2).unwrap(); // sheds `oldest`
        assert_eq!(oldest.wait(), Err(QcorError::TaskShed));
        gate.store(true, Ordering::Release);
        blocker.get();
        assert_eq!(newest.get(), 2);
        assert_eq!(svc.stats().shed, 1);
    }

    #[test]
    fn shed_oldest_never_sheds_block_admitted_tasks() {
        // A spawn-style (Block) task sits at the queue front; shed-policy
        // over-submissions must not touch it — the incoming submission is
        // shed instead, and the Block task's future stays infallible.
        let svc = ExecutionService::new(
            ExecServiceConfig::default().threads(2).capacity(1).policy(BackpressurePolicy::ShedOldest),
        );
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let blocker = svc
            .submit(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        while svc.stats().running == 0 {
            std::thread::yield_now();
        }
        let protected = svc.submit_blocking(|| "protected").unwrap(); // Block-admitted, fills the queue
        let incoming = svc.submit(|| "incoming").unwrap(); // shed policy, no sheddable victim
        assert_eq!(incoming.wait(), Err(QcorError::TaskShed), "incoming submission must shed itself");
        gate.store(true, Ordering::Release);
        blocker.get();
        assert_eq!(protected.wait(), Ok("protected"), "Block-admitted futures are infallible");
        assert_eq!(svc.stats().shed, 1);
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
        // B has a Reject policy and a saturated queue: a task of A that
        // over-submits to B must observe QueueFull, not a silent inline run.
        let a = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(4));
        let b = Arc::new(ExecutionService::new(
            ExecServiceConfig::default().threads(2).capacity(1).policy(BackpressurePolicy::Reject),
        ));
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
        let from_a = a.submit(move || b2.submit(|| 1).map(|f| f.get())).unwrap().get();
        assert_eq!(from_a, Err(QcorError::QueueFull));
        gate.store(true, Ordering::Release);
        blocker.get();
        filler.get();
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
                    assert_eq!(s.queue_len, s.high_queue_len + s.normal_queue_len);
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

    // ---- per-tenant fair queuing ---------------------------------------

    fn noop_task(ticket: u64, tenant: &str) -> QueuedTask {
        QueuedTask {
            ticket,
            tenant: Arc::from(tenant),
            run: Box::new(|| {}),
            shed: Box::new(|| {}),
            cancel: Box::new(|| {}),
            sheddable: false,
            deadline: None,
        }
    }

    #[test]
    fn drr_pops_follow_tenant_weights() {
        // Weight 3 vs weight 1, 8 tasks each, heavy enqueued first. The
        // deficit round robin must serve ~3 heavy per light while both
        // have backlog, then drain the leftover light tasks.
        let weights: HashMap<String, f64> = [("heavy".to_string(), 3.0)].into_iter().collect();
        let mut st = QueueState::new(1, weights);
        let mut ticket = 0u64;
        for tenant in ["heavy", "light"] {
            for _ in 0..8 {
                ticket += 1;
                st.enqueue(LANE_NORMAL, noop_task(ticket, tenant));
            }
        }
        let mut order = Vec::new();
        while let Some(task) = st.pop_lane(LANE_NORMAL) {
            order.push(task.tenant.to_string());
        }
        let expected: Vec<String> =
            ["h", "h", "h", "l", "h", "h", "h", "l", "h", "h", "l", "l", "l", "l", "l", "l"]
                .iter()
                .map(|t| if *t == "h" { "heavy".to_string() } else { "light".to_string() })
                .collect();
        assert_eq!(order, expected);
        assert_eq!(st.queued(), 0);
    }

    #[test]
    fn single_tenant_drr_degenerates_to_fifo() {
        let mut st = QueueState::new(1, HashMap::new());
        for ticket in 1..=6 {
            st.enqueue(LANE_NORMAL, noop_task(ticket, "solo"));
        }
        let order: Vec<u64> = std::iter::from_fn(|| st.pop_lane(LANE_NORMAL)).map(|t| t.ticket).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn removing_a_tenants_last_task_keeps_rotation_clean() {
        // Cancel empties tenant `b`'s lane while its rotation entry is
        // still queued; a later re-enqueue must not give `b` two rotation
        // slots (double share). Exercised via pop order: a and b keep
        // alternating at equal weight.
        let mut st = QueueState::new(1, HashMap::new());
        st.enqueue(LANE_NORMAL, noop_task(1, "a"));
        st.enqueue(LANE_NORMAL, noop_task(2, "b"));
        assert!(st.remove_ticket(2).is_some());
        st.enqueue(LANE_NORMAL, noop_task(3, "b"));
        st.enqueue(LANE_NORMAL, noop_task(4, "a"));
        st.enqueue(LANE_NORMAL, noop_task(5, "b"));
        let order: Vec<(String, u64)> = std::iter::from_fn(|| st.pop_lane(LANE_NORMAL))
            .map(|t| (t.tenant.to_string(), t.ticket))
            .collect();
        // Equal weights ⇒ strict alternation while both have backlog.
        assert_eq!(
            order,
            vec![("a".to_string(), 1), ("b".to_string(), 3), ("a".to_string(), 4), ("b".to_string(), 5)]
        );
    }

    #[test]
    fn weighted_shares_converge_under_saturation() {
        // A flooder (weight 1) pre-loads a deep backlog; a favored tenant
        // (weight 3) then lands its batch. While both queues are
        // non-empty the favored tenant must finish well before the
        // flooder's backlog clears — its tasks are interleaved at 3×.
        let svc = ExecutionService::new(
            ExecServiceConfig::default().threads(2).capacity(256).tenant_weight("favored", 3.0),
        );
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let blocker = svc
            .submit(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            })
            .unwrap();
        while svc.stats().running == 0 {
            std::thread::yield_now();
        }
        let completion_log = Arc::new(Mutex::new(Vec::new()));
        let mut futures = Vec::new();
        for i in 0..60 {
            let log = Arc::clone(&completion_log);
            futures.push(
                svc.submit_spec(TaskSpec::new().tenant("flooder"), move || log.lock().push(("f", i)))
                    .unwrap(),
            );
        }
        for i in 0..20 {
            let log = Arc::clone(&completion_log);
            futures.push(
                svc.submit_spec(TaskSpec::new().tenant("favored"), move || log.lock().push(("v", i)))
                    .unwrap(),
            );
        }
        gate.store(true, Ordering::Release);
        blocker.get();
        for f in futures {
            f.get();
        }
        let log = completion_log.lock();
        let last_favored = log.iter().rposition(|(t, _)| *t == "v").unwrap();
        let favored_before: usize = log[..=last_favored].iter().filter(|(t, _)| *t == "v").count();
        let flooder_before: usize = log[..=last_favored].iter().filter(|(t, _)| *t == "f").count();
        assert_eq!(favored_before, 20);
        // At weight 3 vs 1 the favored batch of 20 completes alongside
        // ~⌈20/3⌉·1 ≈ 7 flooder tasks; allow generous slack but require
        // it to clear long before the 60-deep flooder backlog does.
        assert!(
            flooder_before <= 20,
            "favored tenant starved: {flooder_before} flooder tasks finished before its batch"
        );
        let stats = svc.stats();
        assert_eq!(stats.completed, 81);
    }

    #[test]
    fn tenant_resolution_spec_thread_default() {
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(16));
        svc.submit(|| ()).unwrap().get(); // default tenant
        set_thread_tenant(Some("session-7"));
        svc.submit(|| ()).unwrap().get(); // thread tenant
        let explicit = TaskSpec::new().tenant("explicit");
        svc.submit_spec(explicit, || ()).unwrap().get(); // spec wins
        set_thread_tenant(None);
        svc.drain();
        let snap = svc.introspect();
        let names: Vec<&str> = snap.tenants.iter().map(|t| t.tenant.as_str()).collect();
        assert_eq!(names, vec![DEFAULT_TENANT, "explicit", "session-7"]);
        assert!(snap.tenants.iter().all(|t| t.submitted == 1 && t.completed == 1));
    }

    #[test]
    fn nested_submissions_inherit_the_parent_tenant() {
        let svc = Arc::new(ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(16)));
        let svc2 = Arc::clone(&svc);
        svc.submit_spec(TaskSpec::new().tenant("parent"), move || {
            assert_eq!(thread_tenant().as_deref(), Some("parent"));
            svc2.submit(|| ()).unwrap().get()
        })
        .unwrap()
        .get();
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
            for i in 0..n {
                futures.push(svc.submit_spec(TaskSpec::new().tenant(tenant), move || i).unwrap());
            }
        }
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
        assert_eq!(sum(|t| t.shed), s.shed);
        assert_eq!(sum(|t| t.cancelled), s.cancelled);
        assert_eq!(sum(|t| t.expired), s.expired);
        assert_eq!(sum(|t| t.queued()), s.queue_len);
        for t in &snap.tenants {
            assert_eq!(
                t.submitted,
                t.completed + t.running + t.queued() + t.shed + t.cancelled + t.expired,
                "identity violated for {t:?}"
            );
        }
    }

    // ---- eager deadline eviction ---------------------------------------

    #[test]
    fn eager_eviction_removes_expired_tasks_without_a_free_permit() {
        // One permit, held by a blocker for the whole test. The doomed
        // task's 5ms deadline must tick `expired` while the permit is
        // still busy — that is the eager heap at work; lazy dispatch-time
        // expiry could never fire here.
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(8));
        let gate = Arc::new(AtomicBool::new(false));
        let g = Arc::clone(&gate);
        let blocker = svc
            .submit(move || {
                while !g.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
            .unwrap();
        while svc.stats().running == 0 {
            std::thread::yield_now();
        }
        let doomed = svc.submit_with_deadline(Duration::from_millis(5), || 1).unwrap();
        let deadline_observed = Instant::now() + Duration::from_secs(10);
        while svc.stats().expired == 0 {
            assert!(
                Instant::now() < deadline_observed,
                "eager eviction did not fire while the permit was busy: {:?}",
                svc.stats()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // Evicted while the blocker still runs: queue slot freed eagerly.
        let s = svc.stats();
        assert_eq!((s.expired, s.queue_len, s.running), (1, 0, 1), "{s:?}");
        assert_eq!(doomed.wait(), Err(QcorError::TaskShed));
        gate.store(true, Ordering::Release);
        blocker.get();
    }

    #[test]
    fn eager_eviction_never_drops_a_dispatched_task() {
        // The deadline fires mid-execution: the heap entry surfaces, finds
        // the ticket no longer queued, and must leave the running task
        // alone — it completes normally and `expired` stays 0.
        let svc = ExecutionService::new(ExecServiceConfig::default().threads(2).capacity(8));
        let slow = svc
            .submit_with_deadline(Duration::from_millis(20), || {
                std::thread::sleep(Duration::from_millis(80));
                17
            })
            .unwrap();
        // Dispatched immediately (idle permit), runs past its deadline.
        assert_eq!(slow.wait(), Ok(17));
        std::thread::sleep(Duration::from_millis(30)); // let the heap entry surface
        let s = svc.stats();
        assert_eq!((s.expired, s.completed), (0, 1), "{s:?}");
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
            ("QCOR_QUEUE_PRIORITY_CAPACITY", "5"),
            ("QCOR_SERVICE_THREADS", "3"),
            ("QCOR_QUEUE_POLICY", "shed-oldest"),
            ("QCOR_TENANT_WEIGHTS", "alice=2.5, bob=1"),
        ]));
        assert_eq!(cfg.capacity, 17);
        assert_eq!(cfg.priority_capacity, Some(5));
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.policy, BackpressurePolicy::ShedOldest);
        assert_eq!(cfg.tenant_weights, vec![("alice".to_string(), 2.5), ("bob".to_string(), 1.0)]);
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

    #[test]
    #[should_panic(expected = "QCOR_TENANT_WEIGHTS weight `fast` for `alice` is not a number")]
    fn from_env_reader_rejects_bad_tenant_weight() {
        let _ = ExecServiceConfig::from_env_reader(env(&[("QCOR_TENANT_WEIGHTS", "alice=fast")]));
    }

    #[test]
    #[should_panic(expected = "is invalid")]
    fn from_env_reader_rejects_nonpositive_tenant_weight() {
        let _ = ExecServiceConfig::from_env_reader(env(&[("QCOR_TENANT_WEIGHTS", "alice=0")]));
    }
}
