//! The `qpp-density` backend: exact mixed-state simulation with a
//! configurable per-gate noise model, sampling shot counts from the exact
//! outcome distribution.

use crate::accelerator::{Accelerator, BackendCapability, ExecOptions};
use crate::buffer::AcceleratorBuffer;
use crate::hetmap::HetMap;
use crate::XaccError;
use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use qcor_sim::{DensityMatrix, NoiseModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Exact density-matrix simulator backend.
pub struct DensityAccelerator {
    pool: Arc<ThreadPool>,
    noise: NoiseModel,
    /// Probability a measured bit is reported flipped, convolved exactly
    /// onto the outcome distribution before sampling.
    p_readout: f64,
}

impl DensityAccelerator {
    /// A density backend with the given noise model.
    pub fn new(threads: usize, noise: NoiseModel) -> Self {
        noise.validate().expect("invalid noise model");
        DensityAccelerator {
            pool: Arc::new(qcor_pool::PoolBuilder::new().num_threads(threads).name("qpp-density").build()),
            noise,
            p_readout: 0.0,
        }
    }

    /// Construct from registry params: `threads`, `depolarizing`,
    /// `dephasing`, `amplitude-damping` (all default 0) and
    /// `readout-error` (default 0). Bad values are rejected with
    /// [`XaccError::InvalidParam`].
    pub fn from_params(params: &HetMap) -> Result<Self, XaccError> {
        let noise = NoiseModel {
            depolarizing: params.try_float("depolarizing")?.unwrap_or(0.0),
            dephasing: params.try_float("dephasing")?.unwrap_or(0.0),
            amplitude_damping: params.try_float("amplitude-damping")?.unwrap_or(0.0),
        };
        noise.validate().map_err(XaccError::InvalidParam)?;
        let p_readout = params.try_float("readout-error")?.unwrap_or(0.0);
        if !(0.0..=1.0).contains(&p_readout) {
            return Err(XaccError::InvalidParam(format!(
                "readout-error probability {p_readout} outside [0, 1]"
            )));
        }
        let mut acc = Self::new(params.try_usize("threads")?.unwrap_or(1).max(1), noise);
        acc.p_readout = p_readout;
        Ok(acc)
    }

    /// The configured noise model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }
}

impl Accelerator for DensityAccelerator {
    fn name(&self) -> String {
        "qpp-density".to_string()
    }

    fn capability(&self) -> BackendCapability {
        BackendCapability::Density
    }

    fn execute(
        &self,
        buffer: &mut AcceleratorBuffer,
        circuit: &Circuit,
        opts: &ExecOptions,
    ) -> Result<(), XaccError> {
        if circuit.num_qubits() > buffer.size() {
            return Err(XaccError::Execution(format!(
                "kernel uses {} qubits but the buffer has {}",
                circuit.num_qubits(),
                buffer.size()
            )));
        }
        let dist = DensityMatrix::run_noisy_circuit(circuit, Arc::clone(&self.pool), &self.noise)
            .map_err(XaccError::Execution)?;
        let dist = qcor_sim::apply_readout_error(&dist, self.p_readout);
        // Sample `shots` outcomes from the exact distribution.
        let outcomes: Vec<(&String, f64)> = dist.iter().map(|(k, &p)| (k, p)).collect();
        let mut rng = match opts.seed {
            Some(s) => StdRng::seed_from_u64(s),
            None => StdRng::from_entropy(),
        };
        for _ in 0..opts.shots {
            let mut r: f64 = rng.gen();
            let mut chosen = outcomes.last().map(|(k, _)| (*k).clone()).unwrap_or_default();
            for (key, p) in &outcomes {
                if r < *p {
                    chosen = (*key).clone();
                    break;
                }
                r -= *p;
            }
            buffer.add_count(chosen, 1);
        }
        Ok(())
    }

    fn num_threads(&self) -> usize {
        self.pool.num_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcor_circuit::library;

    #[test]
    fn noiseless_bell_counts_are_clean() {
        let acc = DensityAccelerator::new(1, NoiseModel::default());
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::with_shots(512).seeded(1)).unwrap();
        assert_eq!(buf.total_shots(), 512);
        assert!(buf.measurements().keys().all(|k| k == "00" || k == "11"));
    }

    #[test]
    fn depolarizing_noise_leaks_counts() {
        let noise = NoiseModel { depolarizing: 0.05, ..Default::default() };
        let acc = DensityAccelerator::new(1, noise);
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::with_shots(4096).seeded(2)).unwrap();
        let clean = buf.probability("00") + buf.probability("11");
        assert!(clean < 0.999 && clean > 0.8, "clean mass {clean}");
    }

    #[test]
    fn agreement_with_per_shot_noisy_backend() {
        // The exact-density and trajectory (per-shot) noisy backends must
        // agree statistically on the same noise strength.
        let p = 0.03;
        let circuit = library::ghz_kernel(3);
        let density = DensityAccelerator::new(1, NoiseModel { depolarizing: p, ..Default::default() });
        let trajectory = crate::backends::NoisyQppAccelerator::new(1, p, 0.0);
        let mut a = AcceleratorBuffer::with_name("a", 3);
        let mut b = AcceleratorBuffer::with_name("b", 3);
        density.execute(&mut a, &circuit, &ExecOptions::with_shots(8192).seeded(3)).unwrap();
        trajectory.execute(&mut b, &circuit, &ExecOptions::with_shots(8192).seeded(4)).unwrap();
        let clean_a = a.probability("000") + a.probability("111");
        let clean_b = b.probability("000") + b.probability("111");
        assert!((clean_a - clean_b).abs() < 0.05, "exact {clean_a} vs trajectory {clean_b}");
    }

    #[test]
    fn seeded_counts_are_deterministic() {
        let acc = DensityAccelerator::new(1, NoiseModel { dephasing: 0.1, ..Default::default() });
        let opts = ExecOptions::with_shots(128).seeded(9);
        let mut a = AcceleratorBuffer::with_name("a", 2);
        let mut b = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut a, &library::bell_kernel(), &opts).unwrap();
        acc.execute(&mut b, &library::bell_kernel(), &opts).unwrap();
        assert_eq!(a.measurements(), b.measurements());
    }
}
