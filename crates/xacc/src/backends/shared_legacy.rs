//! Reproduction of the pre-fix shared-accelerator data race (§V-A.2).
//!
//! In the original QCOR/XACC implementation the `qpu` pointer is a global
//! and `getService<Accelerator>("qpp")` always returns the *same* instance;
//! kernels "register their gates to the same accelerator and can thus end
//! up simulating an erroneous circuit" when several threads run at once.
//!
//! [`SharedQueueAccelerator`] models that architecture faithfully at the
//! semantic level while remaining memory-safe Rust: every `execute` call
//! appends its kernel's instructions one by one to a single shared gate
//! queue (yielding between appends, as a real runtime would interleave),
//! then drains *whatever the queue holds* and simulates it. Run from one
//! thread it behaves perfectly; run from two threads the drained
//! instruction stream is an interleaving of both kernels and the results
//! are garbage. The integration test `race_reproduction.rs` demonstrates
//! both halves, and the `QPUManager` in the core crate is the fix.

use crate::accelerator::{Accelerator, ExecOptions};
use crate::buffer::AcceleratorBuffer;
use crate::XaccError;
use parking_lot::Mutex;
use qcor_circuit::{Circuit, Instruction};
use qcor_pool::ThreadPool;
use qcor_sim::{run_shots, RunConfig};
use std::sync::Arc;

/// Singleton backend with a shared gate queue (the paper's pre-fix
/// behaviour). Registered as `qpp-legacy-shared`.
pub struct SharedQueueAccelerator {
    pool: Arc<ThreadPool>,
    /// The shared gate-registration queue all callers append into.
    queue: Mutex<Vec<Instruction>>,
}

impl SharedQueueAccelerator {
    /// A shared-queue backend simulating with `threads` threads.
    pub fn new(threads: usize) -> Self {
        SharedQueueAccelerator {
            pool: Arc::new(qcor_pool::PoolBuilder::new().num_threads(threads).name("qpp-legacy").build()),
            queue: Mutex::new(Vec::new()),
        }
    }
}

impl Accelerator for SharedQueueAccelerator {
    fn name(&self) -> String {
        "qpp-legacy-shared".to_string()
    }

    fn execute(
        &self,
        buffer: &mut AcceleratorBuffer,
        circuit: &Circuit,
        opts: &ExecOptions,
    ) -> Result<(), XaccError> {
        // Phase 1: register this kernel's gates into the shared instance,
        // one instruction at a time. Each lock release is a window in which
        // a concurrent caller's gates interleave with ours — the data race
        // scenario of §V-A.2.
        for inst in circuit.instructions() {
            self.queue.lock().push(inst.clone());
            std::thread::yield_now();
        }
        // Phase 2: drain whatever the shared queue now holds and simulate
        // it as "the" circuit. Under concurrency this is an interleaving of
        // several kernels (or empty, if another thread drained first).
        let drained: Vec<Instruction> = std::mem::take(&mut *self.queue.lock());
        let width =
            drained.iter().filter_map(|i| i.max_qubit()).max().map(|m| m + 1).unwrap_or(0).max(buffer.size());
        let mut assembled = Circuit::new(width);
        for inst in drained {
            assembled.try_push(inst).map_err(|e| XaccError::Execution(e.to_string()))?;
        }
        let config = RunConfig { shots: opts.shots, seed: opts.seed, ..RunConfig::default() };
        let counts = run_shots(&assembled, Arc::clone(&self.pool), &config);
        buffer.merge_counts(&counts);
        Ok(())
    }

    fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }

    fn is_cloneable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcor_circuit::library;

    #[test]
    fn single_threaded_use_is_correct() {
        // The legacy backend is not wrong per se — only unsafe to share.
        let acc = SharedQueueAccelerator::new(1);
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::with_shots(256).seeded(1)).unwrap();
        assert_eq!(buf.total_shots(), 256);
        assert!(buf.measurements().keys().all(|k| k == "00" || k == "11"), "{:?}", buf.measurements());
    }

    #[test]
    fn concurrent_use_corrupts_results() {
        // Two threads, each executing a Bell kernel against the SAME
        // instance. Both are released from a barrier, so their gate
        // registrations overlap even when the harness has every core busy
        // (a spawned thread used to finish before its sibling started);
        // attempts repeat until one run deviates from the clean {00, 11}
        // distribution, demonstrating the race, or the time bound expires.
        let acc = SharedQueueAccelerator::new(1);
        let start = std::sync::Barrier::new(2);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let mut attempts = 0u64;
        let corrupted = loop {
            let run = |t: u64| {
                let mut buf = AcceleratorBuffer::with_name(format!("b{t}"), 2);
                start.wait();
                acc.execute(
                    &mut buf,
                    &library::bell_kernel(),
                    &ExecOptions::with_shots(64).seeded(attempts * 2 + t),
                )
                .unwrap();
                buf.total_shots() == 64 && buf.measurements().keys().all(|k| k == "00" || k == "11")
            };
            let (clean0, clean1) = std::thread::scope(|s| {
                let other = s.spawn(|| run(1));
                (run(0), other.join().unwrap())
            });
            attempts += 1;
            if !(clean0 && clean1) {
                break true;
            }
            if std::time::Instant::now() >= deadline {
                break false;
            }
        };
        assert!(
            corrupted,
            "{attempts} concurrent shared-queue executions never corrupted — the race reproduction is broken"
        );
    }

    #[test]
    fn reports_not_cloneable() {
        assert!(!SharedQueueAccelerator::new(1).is_cloneable());
    }
}
