//! The work-sharing thread pool.
//!
//! A [`ThreadPool`] owns `num_threads - 1` persistent background workers;
//! the thread that issues a parallel construct acts as the remaining team
//! member, exactly like the master thread of an OpenMP parallel region.
//! Loop iterations are distributed dynamically: members repeatedly claim
//! `grain`-sized chunks from an atomic counter (OpenMP's
//! `schedule(dynamic, grain)`).

use crate::latch::CountLatch;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Number of `submit_batch` jobs run by work-stealing. The pool does not
/// steal: the submitter and its dispatched participants claim batch jobs
/// from the front, so this is always `0`. Kept for stats readers that
/// still report the counter.
pub fn batch_steal_count() -> u64 {
    0
}

thread_local! {
    /// Pool id of the pool this thread works for (0 = not a pool worker).
    static WORKER_OF: Cell<usize> = const { Cell::new(0) };
}

static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

/// Id of the pool the current thread is a background worker of, or 0 when
/// the thread is not a pool worker (callers' threads, dispatcher threads
/// and team-of-one inline execution all report 0).
///
/// This is the current-worker check external executors build on: the
/// runtime's execution service uses it (together with [`ThreadPool::id`])
/// to assert that its work-conserving join only ever runs queued tasks on
/// threads that already hold one of the service's executor slots.
pub fn current_worker_pool_id() -> usize {
    WORKER_OF.with(|w| w.get())
}

/// Type-erased reference to an in-flight parallel construct.
///
/// The pointee is a stack-allocated job descriptor in the frame of the
/// thread that issued the construct; that thread blocks on the job's latch
/// before its frame unwinds, so the pointer is valid for as long as any
/// worker can observe it.
struct JobRef {
    ptr: *const (),
    run: unsafe fn(*const ()),
}

// SAFETY: the pointee is Sync (shared job state made of atomics, a latch and
// a `Fn + Sync` closure) and outlives every access — see `JobRef` docs.
unsafe impl Send for JobRef {}

enum Message {
    Job(JobRef),
    Task(Box<dyn FnOnce() + Send>),
    Shutdown,
}

/// Shared state of one `parallel_for` invocation.
struct ForJob<'f> {
    func: &'f (dyn Fn(Range<usize>) + Sync),
    end: usize,
    grain: usize,
    /// Next unclaimed iteration index.
    cursor: AtomicUsize,
    latch: CountLatch,
    panicked: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<'f> ForJob<'f> {
    /// Claim and run chunks until the range is exhausted.
    fn work(&self) {
        loop {
            let lo = self.cursor.fetch_add(self.grain, Ordering::Relaxed);
            if lo >= self.end {
                break;
            }
            let chunk = lo..(lo + self.grain).min(self.end);
            let result = catch_unwind(AssertUnwindSafe(|| (self.func)(chunk)));
            if let Err(payload) = result {
                self.panicked.store(true, Ordering::Release);
                let mut slot = self.panic_payload.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
                break;
            }
            if self.panicked.load(Ordering::Acquire) {
                break;
            }
        }
    }

    unsafe fn run_erased(ptr: *const ()) {
        // SAFETY: `ptr` was produced from a `&ForJob` that is kept alive by
        // the issuing thread until the latch opens (see `JobRef`); the
        // count-down is this worker's last touch, and the latch is safe to
        // free once its wait returns.
        let job = unsafe { &*(ptr as *const ForJob<'static>) };
        job.work();
        job.latch.count_down();
    }
}

/// Shared state of one `submit_batch` invocation.
///
/// Lives on the submitting thread's stack. Two kinds of thread touch it:
/// the submitter (front claims + final waits) and participant workers that
/// received a dispatch message (front claims). Each slot's
/// `Mutex<Option<F>>` is the single source of truth for job ownership:
/// whoever `take()`s the closure runs it.
struct BatchShared<T, F> {
    jobs: Vec<Mutex<Option<F>>>,
    results: Mutex<Vec<(usize, T)>>,
    /// Next index for front claimers (submitter + participants).
    front: AtomicUsize,
    /// Opens once every job has been executed by someone.
    jobs_left: CountLatch,
    /// Opens once every dispatched participant message has returned.
    participants: CountLatch,
    panicked: AtomicBool,
    panic_payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, F: FnOnce() -> T> BatchShared<T, F> {
    fn run_job(&self, index: usize, job: F) {
        match catch_unwind(AssertUnwindSafe(job)) {
            Ok(output) => self.results.lock().push((index, output)),
            Err(payload) => {
                self.panicked.store(true, Ordering::Release);
                let mut slot = self.panic_payload.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
        self.jobs_left.count_down();
    }

    /// Claim and run jobs from the front cursor until the batch is drained.
    fn claim_from_front(&self) {
        loop {
            let index = self.front.fetch_add(1, Ordering::Relaxed);
            if index >= self.jobs.len() {
                break;
            }
            // Bind before the `if let` so the slot guard drops before the
            // job runs.
            let job = self.jobs[index].lock().take();
            if let Some(job) = job {
                self.run_job(index, job);
            }
        }
    }

    unsafe fn run_erased(ptr: *const ()) {
        // SAFETY: the submitter keeps the descriptor alive until the
        // participants latch opens (see `JobRef`); the count-down is this
        // participant's last touch, and the latch is safe to free once its
        // wait returns.
        let batch = unsafe { &*(ptr as *const BatchShared<T, F>) };
        batch.claim_from_front();
        batch.participants.count_down();
    }
}

struct PoolInner {
    id: usize,
    name: String,
    /// Total team size, including the thread issuing parallel constructs.
    num_threads: usize,
    sender: Sender<Message>,
    /// Kept for nested batch joins: a worker blocked in `submit_batch`
    /// drains this receiver instead of idling its team slot.
    receiver: Receiver<Message>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Builder for [`ThreadPool`] with optional name and thread count.
#[derive(Debug, Default, Clone)]
pub struct PoolBuilder {
    num_threads: Option<usize>,
    name: Option<String>,
}

impl PoolBuilder {
    /// Start building a pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total team size including the calling thread. `1` means all parallel
    /// constructs run inline sequentially. Defaults to
    /// [`crate::num_threads_from_env`].
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n.max(1));
        self
    }

    /// Base name for the worker threads (visible in debuggers/profilers).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Spawn the workers and return the pool.
    pub fn build(self) -> ThreadPool {
        let num_threads = self.num_threads.unwrap_or_else(crate::num_threads_from_env).max(1);
        let name = self.name.unwrap_or_else(|| "qcor-pool".to_string());
        ThreadPool::with_config(num_threads, name)
    }
}

/// A fixed-size team of threads executing work-shared loops and batches
/// of jobs. See the [crate docs](crate) for the OpenMP analogy.
pub struct ThreadPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("name", &self.inner.name)
            .field("num_threads", &self.inner.num_threads)
            .finish()
    }
}

impl ThreadPool {
    /// Create a pool with a total team size of `num_threads` (including the
    /// calling thread; `num_threads - 1` background workers are spawned).
    pub fn new(num_threads: usize) -> Self {
        Self::with_config(num_threads, "qcor-pool".to_string())
    }

    fn with_config(num_threads: usize, name: String) -> Self {
        let num_threads = num_threads.max(1);
        let (sender, receiver) = unbounded::<Message>();
        let id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let inner = Arc::new(PoolInner {
            id,
            name: name.clone(),
            num_threads,
            sender,
            receiver: receiver.clone(),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = Vec::with_capacity(num_threads.saturating_sub(1));
        for w in 0..num_threads.saturating_sub(1) {
            let rx: Receiver<Message> = receiver.clone();
            let pool_id = id;
            let handle = std::thread::Builder::new()
                .name(format!("{name}-{w}"))
                .spawn(move || worker_loop(pool_id, rx))
                .expect("failed to spawn pool worker");
            workers.push(handle);
        }
        *inner.workers.lock() = workers;
        ThreadPool { inner }
    }

    /// The process-wide shared team-of-one pool: every parallel construct
    /// runs inline on the calling thread. Use this instead of
    /// `Arc::new(ThreadPool::new(1))` on hot paths — a team of one owns no
    /// workers and no mutable state, so one cached instance serves every
    /// caller without the per-construction channel/Arc allocations.
    pub fn sequential() -> Arc<ThreadPool> {
        static SEQUENTIAL: std::sync::OnceLock<Arc<ThreadPool>> = std::sync::OnceLock::new();
        Arc::clone(SEQUENTIAL.get_or_init(|| Arc::new(ThreadPool::with_config(1, "qcor-seq".to_string()))))
    }

    /// Total team size, including the calling thread.
    pub fn num_threads(&self) -> usize {
        self.inner.num_threads
    }

    /// This pool's process-unique id (nonzero); compare against
    /// [`current_worker_pool_id`] to check whether an arbitrary thread is
    /// one of this pool's background workers.
    pub fn id(&self) -> usize {
        self.inner.id
    }

    /// Name given to the worker threads.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// True when invoked from one of this pool's background workers.
    pub fn on_worker(&self) -> bool {
        WORKER_OF.with(|w| w.get()) == self.inner.id
    }

    /// Execute `f` over disjoint sub-ranges of `range`, work-shared across
    /// the team: members claim chunks of `len / (4 * team)` iterations (at
    /// least 1) until the range is exhausted. Blocks until every iteration
    /// has run (the implicit barrier at the end of an OpenMP parallel-for).
    ///
    /// If the team size is 1, the range is empty, or the caller is already a
    /// worker of this pool (nested parallelism), `f(range)` runs inline on
    /// the calling thread.
    ///
    /// Panics in `f` are captured and re-raised on the calling thread after
    /// the construct completes.
    pub fn parallel_for<F>(&self, range: Range<usize>, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        let team = self.inner.num_threads.min(range.len()).max(1);
        self.parallel_for_grain(range.clone(), (range.len() / (4 * team)).max(1), f)
    }

    /// [`ThreadPool::parallel_for`] with an explicit chunk size.
    fn parallel_for_grain<F>(&self, range: Range<usize>, grain: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        if range.is_empty() {
            return;
        }
        // Never field more team members than iterations.
        let team = self.inner.num_threads.min(range.len());
        if team <= 1 || self.on_worker() {
            f(range);
            return;
        }
        let job = ForJob {
            func: &f,
            end: range.end,
            grain,
            cursor: AtomicUsize::new(range.start),
            latch: CountLatch::new(team - 1),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        };
        // SAFETY (lifetime erasure): `job` lives on this frame and we block
        // on `job.latch` below before returning, so every worker that
        // receives this JobRef finishes touching `job` first.
        let ptr = &job as *const ForJob<'_> as *const ();
        for _ in 0..team - 1 {
            self.inner
                .sender
                .send(Message::Job(JobRef { ptr, run: ForJob::run_erased }))
                .expect("pool workers disconnected");
        }
        // The calling thread is a full team member.
        job.work();
        job.latch.wait();
        if job.panicked.load(Ordering::Acquire) {
            let payload =
                job.panic_payload.lock().take().unwrap_or_else(|| Box::new("parallel_for worker panicked"));
            resume_unwind(payload);
        }
    }

    /// Deterministic work-shared map/reduce: `range` is partitioned into
    /// fixed chunks of `grain` iterations (the final chunk may be shorter)
    /// and the partial results are folded **in chunk order**, regardless of
    /// which team member computed which chunk or in what order chunks
    /// completed.
    ///
    /// Because the partition is a pure function of `(range, grain)` — never
    /// of the team size — and the fold order is fixed, a non-associative
    /// `reduce` (floating-point addition being the motivating case) returns
    /// **bit-identical results on any pool size, including a team of one**.
    /// This is what lets the simulator's inner-parallel measurement sums
    /// participate in the byte-identical determinism contract.
    pub fn parallel_reduce_ordered<T, M, R>(
        &self,
        range: Range<usize>,
        grain: usize,
        identity: T,
        map: M,
        reduce: R,
    ) -> T
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        R: Fn(T, T) -> T,
    {
        if range.is_empty() {
            return identity;
        }
        let grain = grain.max(1);
        let len = range.end - range.start;
        let num_chunks = len.div_ceil(grain);
        let chunk_range = |c: usize| {
            let lo = range.start + c * grain;
            lo..(lo + grain).min(range.end)
        };
        if num_chunks == 1 || self.inner.num_threads <= 1 || self.on_worker() {
            // Inline path: evaluate the *same* partition chunk by chunk so
            // a team of one folds in exactly the same order as a team of N.
            return (0..num_chunks).map(chunk_range).map(&map).fold(identity, reduce);
        }
        let partials: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(num_chunks));
        self.parallel_for_grain(0..num_chunks, 1, |chunks| {
            for c in chunks {
                let part = map(chunk_range(c));
                partials.lock().push((c, part));
            }
        });
        let mut partials = partials.into_inner();
        partials.sort_unstable_by_key(|&(c, _)| c);
        partials.into_iter().map(|(_, part)| part).fold(identity, reduce)
    }

    /// Run a batch of independent jobs to completion and return their
    /// results in submission order.
    ///
    /// This is the coarse-grained companion to [`ThreadPool::parallel_for`]:
    /// each job is one pre-chunked work item (e.g. a block of simulator
    /// shots). Jobs are claimed from a shared cursor by
    /// `min(team, jobs)` participants — the calling thread is a full team
    /// member and keeps claiming jobs alongside the background workers
    /// until the batch is drained, so only `min(team, jobs) - 1` dispatch
    /// messages are paid regardless of the batch length.
    ///
    /// Inline small-team path: a batch of one job or a team of one runs
    /// every job directly on the calling thread, paying zero dispatch cost.
    ///
    /// Calls from inside one of this pool's own workers (nested batching)
    /// fan out like top-level calls and use whatever team capacity is left;
    /// while waiting, the nested caller keeps the pool work-conserving by
    /// draining and executing queued messages instead of idling its slot,
    /// which is what makes nested fan-out deadlock-free.
    ///
    /// Panics in a job propagate to the caller after the whole batch has
    /// drained.
    pub fn submit_batch<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        if jobs.is_empty() {
            return Vec::new();
        }
        if jobs.len() == 1 || !self.has_workers() {
            // Run every job even after one panics, as the dispatched path
            // does, then re-raise the first payload.
            let mut results = Vec::with_capacity(jobs.len());
            let mut first_panic = None;
            for job in jobs {
                match catch_unwind(AssertUnwindSafe(job)) {
                    Ok(output) => results.push(output),
                    Err(payload) => {
                        first_panic.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = first_panic {
                resume_unwind(payload);
            }
            return results;
        }
        let n = jobs.len();
        let nested = self.on_worker();
        let messages = (self.inner.num_threads - 1).min(n - 1);
        let batch = BatchShared {
            jobs: jobs.into_iter().map(|job| Mutex::new(Some(job))).collect::<Vec<_>>(),
            results: Mutex::new(Vec::with_capacity(n)),
            front: AtomicUsize::new(0),
            jobs_left: CountLatch::new(n),
            participants: CountLatch::new(messages),
            panicked: AtomicBool::new(false),
            panic_payload: Mutex::new(None),
        };
        // SAFETY (lifetime erasure): `batch` lives on this frame; before
        // returning we wait for the jobs latch and the participants latch,
        // so no other thread outlives its access.
        let ptr = &batch as *const BatchShared<T, F> as *const ();
        for _ in 0..messages {
            self.inner
                .sender
                .send(Message::Job(JobRef { ptr, run: BatchShared::<T, F>::run_erased }))
                .expect("pool workers disconnected");
        }
        // The calling thread is a full team member.
        batch.claim_from_front();
        if nested {
            self.drain_while_waiting(&batch.jobs_left, &batch.participants);
        } else {
            batch.jobs_left.wait();
            batch.participants.wait();
        }
        if batch.panicked.load(Ordering::Acquire) {
            let payload = batch.panic_payload.lock().take().unwrap_or_else(|| Box::new("batch job panicked"));
            resume_unwind(payload);
        }
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for (index, output) in batch.results.into_inner() {
            slots[index] = Some(output);
        }
        slots.into_iter().map(|slot| slot.expect("batch job did not run")).collect()
    }

    /// Work-conserving join for nested batches: the caller is one of this
    /// pool's own workers, so instead of blocking (which would idle a team
    /// slot and can deadlock once every worker nests) it keeps executing
    /// queued pool messages until both latches read zero, then waits on
    /// both — the wait, not the lock-free read, is what orders the return
    /// after each latch's final decrementer has let go of it.
    fn drain_while_waiting(&self, jobs_left: &CountLatch, participants: &CountLatch) {
        let mut idle_spins = 0u32;
        while jobs_left.remaining() > 0 || participants.remaining() > 0 {
            match self.inner.receiver.try_recv() {
                Ok(Message::Job(job)) => {
                    idle_spins = 0;
                    // SAFETY: see `JobRef` — descriptors outlive their
                    // messages. The catch keeps a defect in a foreign job
                    // from unwinding through this frame while workers still
                    // reference our own batch descriptor.
                    let _ = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.ptr) }));
                }
                Ok(Message::Task(task)) => {
                    idle_spins = 0;
                    let _ = catch_unwind(AssertUnwindSafe(task));
                }
                Ok(Message::Shutdown) => {
                    // Not ours to consume: hand it back for a real worker.
                    let _ = self.inner.sender.send(Message::Shutdown);
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
                Err(_) => {
                    idle_spins += 1;
                    if idle_spins > 64 {
                        std::thread::sleep(std::time::Duration::from_micros(50));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        jobs_left.wait();
        participants.wait();
    }

    /// Run `f` on one of the pool's background workers as a detached
    /// fire-and-forget task: the call returns immediately and nothing is
    /// joined. This is the building block for external work queues (the
    /// runtime's async execution service) that track completion themselves.
    ///
    /// If the pool has no workers (team of one) or the caller is already a
    /// worker of this pool, `f` runs inline on the calling thread to
    /// guarantee forward progress.
    pub fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        if !self.has_workers() || self.on_worker() {
            f();
            return;
        }
        self.inner.sender.send(Message::Task(Box::new(f))).expect("pool workers disconnected");
    }

    fn has_workers(&self) -> bool {
        self.inner.num_threads > 1
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let workers = std::mem::take(&mut *self.inner.workers.lock());
        for _ in &workers {
            // Wake each worker with a shutdown message. Send can only fail
            // if every receiver is gone, in which case joining is enough.
            let _ = self.inner.sender.send(Message::Shutdown);
        }
        for handle in workers {
            let _ = handle.join();
        }
    }
}

fn worker_loop(pool_id: usize, rx: Receiver<Message>) {
    WORKER_OF.with(|w| w.set(pool_id));
    while let Ok(msg) = rx.recv() {
        match msg {
            Message::Job(job) => {
                // SAFETY: see `JobRef` — the job descriptor outlives this call.
                unsafe { (job.run)(job.ptr) };
            }
            Message::Task(task) => task(),
            Message::Shutdown => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..n, |chunk| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    /// Sum values engineered so that fold order changes the f64 result:
    /// alternating huge and tiny magnitudes lose different low bits
    /// depending on association.
    fn order_sensitive_value(i: usize) -> f64 {
        if i.is_multiple_of(2) {
            1e16 + i as f64
        } else {
            1.0 / (i as f64)
        }
    }

    #[test]
    fn ordered_reduce_is_bit_identical_across_pool_sizes() {
        let n = 50_000;
        let grain = 1024;
        let sum_on = |threads: usize| {
            let pool = ThreadPool::new(threads);
            pool.parallel_reduce_ordered(
                0..n,
                grain,
                0.0f64,
                |chunk| chunk.map(order_sensitive_value).sum::<f64>(),
                |a, b| a + b,
            )
        };
        let baseline = sum_on(1);
        for threads in [2, 3, 4, 8] {
            let sum = sum_on(threads);
            assert_eq!(baseline.to_bits(), sum.to_bits(), "threads={threads}");
        }
        // And re-running on the same pool size is identical too.
        assert_eq!(sum_on(4).to_bits(), sum_on(4).to_bits());
    }

    #[test]
    fn ordered_reduce_matches_manual_chunked_fold() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let grain = 333;
        let expect = (0..n)
            .step_by(grain)
            .map(|lo| (lo..(lo + grain).min(n)).map(order_sensitive_value).sum::<f64>())
            .fold(0.0f64, |a, b| a + b);
        let got = pool.parallel_reduce_ordered(
            0..n,
            grain,
            0.0f64,
            |chunk| chunk.map(order_sensitive_value).sum::<f64>(),
            |a, b| a + b,
        );
        assert_eq!(expect.to_bits(), got.to_bits());
    }

    #[test]
    fn ordered_reduce_empty_range_returns_identity() {
        let pool = ThreadPool::new(4);
        let got = pool.parallel_reduce_ordered(7..7, 16, -1.0f64, |_| panic!("no chunks"), |a, b| a + b);
        assert_eq!(got, -1.0);
    }

    #[test]
    fn ordered_reduce_nested_on_worker_runs_inline() {
        let pool = std::sync::Arc::new(ThreadPool::new(3));
        let inner = std::sync::Arc::clone(&pool);
        let outer = pool.parallel_reduce_ordered(
            0..4,
            1,
            0u64,
            |chunk| {
                chunk
                    .map(|_| {
                        inner.parallel_reduce_ordered(
                            0..100,
                            7,
                            0u64,
                            |c| c.map(|i| i as u64).sum::<u64>(),
                            |a, b| a + b,
                        )
                    })
                    .sum::<u64>()
            },
            |a, b| a + b,
        );
        assert_eq!(outer, 4 * (0..100u64).sum::<u64>());
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let tid = std::thread::current().id();
        pool.parallel_for(0..1, |_| {
            assert_eq!(std::thread::current().id(), tid);
        });
    }

    #[test]
    fn empty_range_is_noop() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.parallel_for(5..5, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn team_capped_by_range_length() {
        let pool = ThreadPool::new(16);
        // A 2-iteration loop must still cover both indices exactly once.
        let hits: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for(0..2, |chunk| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        let pool = Arc::new(ThreadPool::new(4));
        let p2 = Arc::clone(&pool);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn_detached(move || {
            // Inside a worker of the same pool: must not deadlock, and the
            // whole range runs on this worker.
            let worker = std::thread::current().id();
            let total = AtomicU64::new(0);
            p2.parallel_for(0..100, |chunk| {
                assert_eq!(std::thread::current().id(), worker, "nested loop left the worker");
                for i in chunk {
                    total.fetch_add(i as u64, Ordering::Relaxed);
                }
            });
            tx.send(total.load(Ordering::Relaxed)).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), (0..100u64).sum());
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_for(0..1000, |chunk| {
                if chunk.contains(&500) {
                    panic!("boom at 500");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must remain usable after a panic.
        let counter = AtomicUsize::new(0);
        pool.parallel_for(0..100, |chunk| {
            counter.fetch_add(chunk.len(), Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn concurrent_parallel_fors_from_many_threads() {
        let pool = std::sync::Arc::new(ThreadPool::new(4));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let p = std::sync::Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                let acc = AtomicU64::new(0);
                p.parallel_for(0..5_000, |chunk| {
                    for i in chunk {
                        acc.fetch_add(i as u64 + t, Ordering::Relaxed);
                    }
                });
                acc.load(Ordering::Relaxed)
            }));
        }
        for (t, h) in handles.into_iter().enumerate() {
            let expect: u64 = (0..5_000u64).map(|i| i + t as u64).sum();
            assert_eq!(h.join().unwrap(), expect);
        }
    }

    #[test]
    fn dynamic_grain_one_works() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.parallel_for_grain(0..257, 1, |chunk| {
            for i in chunk {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sequential_pool_is_shared_and_inline() {
        let a = ThreadPool::sequential();
        let b = ThreadPool::sequential();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(a.num_threads(), 1);
        let tid = std::thread::current().id();
        a.parallel_for(0..4, |_| assert_eq!(std::thread::current().id(), tid));
    }

    #[test]
    fn worker_pool_id_identifies_workers() {
        let pool = ThreadPool::new(3);
        assert!(pool.id() != 0);
        // The calling thread is the master, not a background worker.
        assert_eq!(crate::current_worker_pool_id(), 0);
        let (ids, expected) = (Arc::new(Mutex::new(Vec::new())), pool.id());
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let (ids, done) = (Arc::clone(&ids), Arc::clone(&done));
            pool.spawn_detached(move || {
                ids.lock().push(crate::current_worker_pool_id());
                done.fetch_add(1, Ordering::Release);
            });
        }
        while done.load(Ordering::Acquire) < 4 {
            std::thread::yield_now();
        }
        assert!(ids.lock().iter().all(|&id| id == expected), "workers must report their pool's id");
        // A different pool's workers report a different id.
        let other = ThreadPool::new(2);
        assert_ne!(other.id(), expected);
    }

    #[test]
    fn builder_configures_pool() {
        let pool = PoolBuilder::new().num_threads(3).name("bench").build();
        assert_eq!(pool.num_threads(), 3);
        assert_eq!(pool.name(), "bench");
    }

    #[test]
    fn drop_joins_workers() {
        for _ in 0..16 {
            let pool = ThreadPool::new(4);
            pool.parallel_for(0..64, |_| {});
            drop(pool);
        }
    }

    #[test]
    fn spawn_detached_runs_on_worker_and_completes() {
        let pool = ThreadPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        let caller = std::thread::current().id();
        let off_caller = Arc::new(AtomicUsize::new(0));
        for _ in 0..16 {
            let done = Arc::clone(&done);
            let off_caller = Arc::clone(&off_caller);
            pool.spawn_detached(move || {
                if std::thread::current().id() != caller {
                    off_caller.fetch_add(1, Ordering::Relaxed);
                }
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        while done.load(Ordering::Relaxed) < 16 {
            std::thread::yield_now();
        }
        // With workers available, detached tasks never run on the caller.
        assert_eq!(off_caller.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn spawn_detached_team_of_one_runs_inline() {
        let pool = ThreadPool::new(1);
        let tid = std::thread::current().id();
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        pool.spawn_detached(move || {
            assert_eq!(std::thread::current().id(), tid);
            ran2.store(true, Ordering::Release);
        });
        assert!(ran.load(Ordering::Acquire), "inline path must run before returning");
    }

    #[test]
    fn submit_batch_returns_results_in_submission_order() {
        let pool = ThreadPool::new(4);
        let jobs: Vec<_> = (0..37).map(|i| move || i * i).collect();
        assert_eq!(pool.submit_batch(jobs), (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn submit_batch_empty_and_single_job() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.submit_batch(Vec::<fn() -> i32>::new()), Vec::<i32>::new());
        let tid = std::thread::current().id();
        // A single job must run inline on the caller, paying no dispatch.
        let out = pool.submit_batch(vec![move || std::thread::current().id() == tid]);
        assert_eq!(out, vec![true]);
    }

    #[test]
    fn submit_batch_single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let tid = std::thread::current().id();
        let jobs: Vec<_> = (0..8).map(|_| move || std::thread::current().id() == tid).collect();
        assert!(pool.submit_batch(jobs).into_iter().all(|inline| inline));
    }

    #[test]
    fn submit_batch_jobs_may_borrow_stack_data() {
        let pool = ThreadPool::new(4);
        let data = [10u64, 20, 30, 40, 50];
        let jobs: Vec<_> = data.chunks(2).map(|chunk| move || chunk.iter().sum::<u64>()).collect();
        assert_eq!(pool.submit_batch(jobs).into_iter().sum::<u64>(), 150);
    }

    #[test]
    fn nested_submit_batch_completes_without_deadlock() {
        let pool = std::sync::Arc::new(ThreadPool::new(3));
        let inner = std::sync::Arc::clone(&pool);
        let jobs: Vec<_> = (0..4)
            .map(|i| {
                let inner = std::sync::Arc::clone(&inner);
                move || inner.submit_batch((0..4).map(|j| move || i * 10 + j).collect()).len()
            })
            .collect();
        assert_eq!(pool.submit_batch(jobs), vec![4, 4, 4, 4]);
    }

    #[test]
    fn nested_submit_batch_uses_leftover_capacity() {
        // A worker-issued batch must be able to hand jobs to *other* idle
        // workers. Job 0 spins until job 1 runs; with the old
        // inline-nested behavior the spinning worker would run both jobs
        // sequentially and never terminate.
        let pool = std::sync::Arc::new(ThreadPool::new(3));
        let inner = std::sync::Arc::clone(&pool);
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let observed = Arc::clone(&ran_on);
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        pool.spawn_detached(move || {
            let flag = Arc::new(AtomicBool::new(false));
            let (f0, f1) = (Arc::clone(&flag), Arc::clone(&flag));
            let recorder = Arc::clone(&observed);
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
                Box::new(move || {
                    while !f0.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    0
                }),
                Box::new(move || {
                    recorder.lock().push(std::thread::current().id());
                    f1.store(true, Ordering::Release);
                    1
                }),
            ];
            let my_id = std::thread::current().id();
            let out = inner.submit_batch(jobs.into_iter().map(|job| move || job()).collect::<Vec<_>>());
            assert_eq!(out, vec![0, 1]);
            // Job 1 must have run on a different worker than the nester.
            assert!(observed.lock().iter().all(|&id| id != my_id));
            done2.store(true, Ordering::Release);
        });
        while !done.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        assert_eq!(ran_on.lock().len(), 1);
    }

    #[test]
    fn busy_worker_joins_batch_after_its_task() {
        // The lone worker is pinned inside a detached task while the main
        // thread submits a batch and blocks inside job 0, which releases
        // the task; the freed worker must then pick up the queued dispatch
        // message and run job 1.
        let pool = ThreadPool::new(2);
        let busy = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let (busy2, release2) = (Arc::clone(&busy), Arc::clone(&release));
        pool.spawn_detached(move || {
            busy2.store(true, Ordering::Release);
            while !release2.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        while !busy.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let unblock = Arc::new(AtomicBool::new(false));
        let (u0, u1) = (Arc::clone(&unblock), Arc::clone(&unblock));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(move || {
                release.store(true, Ordering::Release);
                while !u0.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                0
            }),
            Box::new(move || {
                u1.store(true, Ordering::Release);
                1
            }),
        ];
        let out = pool.submit_batch(jobs.into_iter().map(|job| move || job()).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn submit_batch_caller_keeps_claiming_jobs() {
        // Team of 2 (one background worker). Job 1 blocks until job 2 has
        // run; if the caller only ever executed the first job, the lone
        // worker would run job 1 and job 2 in order and deadlock. The
        // caller claiming jobs beyond its first is what makes this finish.
        let pool = ThreadPool::new(2);
        let flag = AtomicBool::new(false);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| 0),
            Box::new(|| {
                while !flag.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                1
            }),
            Box::new(|| {
                flag.store(true, Ordering::Release);
                2
            }),
        ];
        let out = pool.submit_batch(jobs.into_iter().map(|job| move || job()).collect::<Vec<_>>());
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn submit_batch_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
                .map(|i| {
                    Box::new(move || if i == 5 { panic!("job 5 failed") } else { i })
                        as Box<dyn FnOnce() -> usize + Send>
                })
                .collect();
            pool.submit_batch(jobs.into_iter().map(|job| move || job()).collect::<Vec<_>>());
        }));
        assert!(result.is_err());
        assert_eq!(pool.submit_batch(vec![|| 1, || 2]), vec![1, 2]);
    }

    #[test]
    fn submit_batch_panic_drains_whole_batch_on_every_team_size() {
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let ran = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                let jobs: Vec<_> = (0..8usize)
                    .map(|i| {
                        let ran = &ran;
                        move || {
                            if i == 2 {
                                panic!("job 2 failed");
                            }
                            ran.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .collect();
                pool.submit_batch(jobs);
            }));
            let payload = result.expect_err("the job's panic must reach the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 2 failed"), "threads={threads}");
            assert_eq!(ran.load(Ordering::Relaxed), 7, "threads={threads}: every other job must still run");
        }
    }
}
