//! A latency-simulating accelerator, standing in for a cloud-hosted QPU or
//! simulator service.
//!
//! The paper notes the "QPU part" may be "a quantum circuit simulation on
//! either a local machine or a cloud service" (§IV-A); queueing and network
//! latency are exactly why `std::async`-style execution (paper Listing 5)
//! pays off. This backend delegates to the local `qpp` simulator after a
//! configurable artificial delay.

use crate::accelerator::{Accelerator, ExecOptions};
use crate::backends::QppAccelerator;
use crate::buffer::AcceleratorBuffer;
use crate::hetmap::HetMap;
use crate::XaccError;
use qcor_circuit::Circuit;
use std::time::Duration;

/// Simulated remote accelerator: fixed round-trip latency + local execution.
pub struct RemoteAccelerator {
    inner: QppAccelerator,
    latency: Duration,
}

impl RemoteAccelerator {
    /// A remote backend with the given round-trip latency.
    pub fn new(threads: usize, latency: Duration) -> Self {
        RemoteAccelerator { inner: QppAccelerator::new(threads), latency }
    }

    /// Construct from registry params: `threads` (default 1) and
    /// `latency-ms` (default 50).
    ///
    /// Bad parameter values (zero `threads` included; a zero `latency-ms`
    /// is valid) are rejected with [`XaccError::InvalidParam`], like the
    /// simulator backends' params.
    pub fn from_params(params: &HetMap) -> Result<Self, XaccError> {
        Ok(Self::new(
            params.try_positive("threads")?.unwrap_or(1),
            Duration::from_millis(params.try_usize("latency-ms")?.unwrap_or(50) as u64),
        ))
    }

    /// The configured latency.
    pub fn latency(&self) -> Duration {
        self.latency
    }
}

impl Accelerator for RemoteAccelerator {
    fn name(&self) -> String {
        "remote".to_string()
    }

    fn execute(
        &self,
        buffer: &mut AcceleratorBuffer,
        circuit: &Circuit,
        opts: &ExecOptions,
    ) -> Result<(), XaccError> {
        std::thread::sleep(self.latency);
        self.inner.execute(buffer, circuit, opts)
    }

    fn num_threads(&self) -> usize {
        self.inner.num_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcor_circuit::library;
    use std::time::Instant;

    #[test]
    fn adds_latency_and_still_computes() {
        let acc = RemoteAccelerator::new(1, Duration::from_millis(30));
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        let start = Instant::now();
        acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::with_shots(16).seeded(1)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert_eq!(buf.total_shots(), 16);
    }

    #[test]
    fn params_configure_latency() {
        let acc = RemoteAccelerator::from_params(&HetMap::new().with("latency-ms", 5usize)).unwrap();
        assert_eq!(acc.latency(), Duration::from_millis(5));
    }

    #[test]
    fn from_params_rejects_zero_threads() {
        let err = RemoteAccelerator::from_params(&HetMap::new().with("threads", 0usize)).err().unwrap();
        assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains("threads")), "{err}");
        let instant = RemoteAccelerator::from_params(&HetMap::new().with("latency-ms", 0usize)).unwrap();
        assert_eq!(instant.latency(), Duration::ZERO);
    }
}
