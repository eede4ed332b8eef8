//! The `qpp-noisy` backend: noise-model execution on the batched shot
//! scheduler.
//!
//! The paper's future work calls for "additional quantum simulation and
//! physical back ends"; this backend stands in for a physical device whose
//! results are noisy. It runs per-shot stochastic Kraus-branch sampling
//! (trajectories) on [`qcor_sim::run_noisy_shots`]: channels are lowered
//! once next to the compiled kernels and every shot replays the plan on a
//! chunk of the [`qcor_sim::ShotPlan`], drawing branches from the chunk's
//! derived RNG stream — seeded counts are byte-identical on any pool size.
//!
//! Exact mixed-state evolution of the same noise model is the
//! [`qpp-density`](crate::backends::DensityAccelerator) backend, which
//! takes the same `depolarizing`/`dephasing`/`amplitude-damping`/
//! `readout-error` params and is the oracle trajectories are tested
//! against.

use crate::accelerator::{Accelerator, ExecOptions};
use crate::buffer::AcceleratorBuffer;
use crate::hetmap::HetMap;
use crate::XaccError;
use qcor_circuit::Circuit;
use qcor_pool::ThreadPool;
use qcor_sim::{NoiseModel, RunConfig};
use std::sync::Arc;

/// Noise-model simulator backend (trajectory sampling).
#[derive(Debug)]
pub struct NoisyQppAccelerator {
    pool: Arc<ThreadPool>,
    noise: NoiseModel,
    /// Probability a measured bit is reported flipped.
    p_readout: f64,
    /// Explicit shots-per-chunk for the batched shot scheduler
    /// (`None` = chunks sized by cost).
    chunk_shots: Option<usize>,
}

impl NoisyQppAccelerator {
    /// A noisy backend with depolarizing probability `p_depol` and readout
    /// flip probability `p_readout` (the historical constructor; use
    /// [`NoisyQppAccelerator::with_noise`] for the full channel set).
    pub fn new(threads: usize, p_depol: f64, p_readout: f64) -> Self {
        Self::with_noise(threads, NoiseModel { depolarizing: p_depol, ..Default::default() }, p_readout)
    }

    /// A noisy backend with an explicit [`NoiseModel`] and readout flip
    /// probability.
    pub fn with_noise(threads: usize, noise: NoiseModel, p_readout: f64) -> Self {
        noise.validate().expect("invalid noise model");
        assert!((0.0..=1.0).contains(&p_readout));
        NoisyQppAccelerator {
            pool: Arc::new(qcor_pool::PoolBuilder::new().num_threads(threads).name("qpp-noisy").build()),
            noise,
            p_readout,
            chunk_shots: None,
        }
    }

    /// Construct from registry params: `threads`, `depolarizing`
    /// (default 0.001), `dephasing` (default 0), `amplitude-damping`
    /// (default 0), `readout-error` (default 0.01) and `chunk-shots`
    /// (explicit scheduler chunk size).
    ///
    /// Bad parameter values (zero `threads` or `chunk-shots` included) are
    /// rejected with [`XaccError::InvalidParam`], like the `qpp` backend's
    /// scheduler knobs.
    pub fn from_params(params: &HetMap) -> Result<Self, XaccError> {
        let noise = NoiseModel {
            depolarizing: params.try_float("depolarizing")?.unwrap_or(0.001),
            dephasing: params.try_float("dephasing")?.unwrap_or(0.0),
            amplitude_damping: params.try_float("amplitude-damping")?.unwrap_or(0.0),
        };
        noise.validate().map_err(XaccError::InvalidParam)?;
        let p_readout = params.try_float("readout-error")?.unwrap_or(0.01);
        if !(0.0..=1.0).contains(&p_readout) {
            return Err(XaccError::InvalidParam(format!(
                "readout-error probability {p_readout} outside [0, 1]"
            )));
        }
        let mut acc = Self::with_noise(params.try_positive("threads")?.unwrap_or(1), noise, p_readout);
        acc.chunk_shots = params.try_positive("chunk-shots")?;
        Ok(acc)
    }

    /// The configured noise model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }
}

impl Accelerator for NoisyQppAccelerator {
    fn name(&self) -> String {
        "qpp-noisy".to_string()
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
        let config = RunConfig {
            shots: opts.shots,
            seed: opts.seed,
            chunk_shots: self.chunk_shots,
            ..Default::default()
        };
        let counts =
            qcor_sim::run_noisy_shots(circuit, &self.noise, self.p_readout, Arc::clone(&self.pool), &config);
        buffer.merge_counts(&counts);
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
    fn noiseless_configuration_matches_ideal_bell() {
        let acc = NoisyQppAccelerator::new(1, 0.0, 0.0);
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::with_shots(256).seeded(5)).unwrap();
        assert!(buf.measurements().keys().all(|k| k == "00" || k == "11"), "{:?}", buf.measurements());
    }

    #[test]
    fn readout_error_produces_odd_parity_outcomes() {
        let acc = NoisyQppAccelerator::new(1, 0.0, 0.25);
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut buf, &library::bell_kernel(), &ExecOptions::with_shots(2048).seeded(6)).unwrap();
        let odd: usize = buf
            .measurements()
            .iter()
            .filter(|(k, _)| k.bytes().filter(|&b| b == b'1').count() % 2 == 1)
            .map(|(_, v)| *v)
            .sum();
        assert!(odd > 0, "25% readout error must corrupt some Bell shots");
    }

    #[test]
    fn depolarizing_noise_reduces_ghz_purity() {
        let acc = NoisyQppAccelerator::new(1, 0.05, 0.0);
        let mut buf = AcceleratorBuffer::with_name("b", 4);
        acc.execute(&mut buf, &library::ghz_kernel(4), &ExecOptions::with_shots(1024).seeded(7)).unwrap();
        let clean = buf.probability("0000") + buf.probability("1111");
        assert!(clean < 0.999, "5% depolarizing noise must leak probability, got {clean}");
        assert!(clean > 0.5, "but the signal should survive, got {clean}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let acc = NoisyQppAccelerator::new(1, 0.02, 0.02);
        let opts = ExecOptions::with_shots(128).seeded(8);
        let mut a = AcceleratorBuffer::with_name("a", 2);
        let mut b = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut a, &library::bell_kernel(), &opts).unwrap();
        acc.execute(&mut b, &library::bell_kernel(), &opts).unwrap();
        assert_eq!(a.measurements(), b.measurements());
    }

    #[test]
    fn trajectory_counts_are_pool_size_invariant() {
        // The trajectory path inherits the batched scheduler's determinism
        // contract: same (seed, chunk config) ⇒ byte-identical counts no
        // matter how many pool threads execute the chunks.
        let noise = NoiseModel { depolarizing: 0.02, dephasing: 0.01, amplitude_damping: 0.015 };
        let solo = NoisyQppAccelerator::with_noise(1, noise, 0.01);
        let team = NoisyQppAccelerator::with_noise(4, noise, 0.01);
        let opts = ExecOptions::with_shots(512).seeded(11);
        let mut a = AcceleratorBuffer::with_name("a", 3);
        let mut b = AcceleratorBuffer::with_name("b", 3);
        solo.execute(&mut a, &library::ghz_kernel(3), &opts).unwrap();
        team.execute(&mut b, &library::ghz_kernel(3), &opts).unwrap();
        assert_eq!(a.measurements(), b.measurements());
    }

    #[test]
    fn trajectories_agree_with_the_density_backend_statistically() {
        // The same params mean the same noise on both backends: qpp-noisy's
        // sampled trajectories against qpp-density's exact evolution.
        let params = HetMap::new()
            .with("threads", 1usize)
            .with("depolarizing", 0.03f64)
            .with("dephasing", 0.02f64)
            .with("amplitude-damping", 0.02f64)
            .with("readout-error", 0.01f64);
        let circuit = library::ghz_kernel(3);
        let shots = 8192;
        let trajectory = NoisyQppAccelerator::from_params(&params).unwrap();
        let density = crate::backends::DensityAccelerator::from_params(&params).unwrap();
        let mut clean = Vec::new();
        for acc in [&trajectory as &dyn Accelerator, &density] {
            let mut buf = AcceleratorBuffer::with_name("b", 3);
            acc.execute(&mut buf, &circuit, &ExecOptions::with_shots(shots).seeded(13)).unwrap();
            assert_eq!(buf.total_shots(), shots);
            clean.push(buf.probability("000") + buf.probability("111"));
        }
        assert!((clean[0] - clean[1]).abs() < 0.05, "trajectory vs density clean mass: {clean:?}");
    }

    #[test]
    fn mid_circuit_measure_and_reset_execute_in_trajectory_mode() {
        let mut c = Circuit::new(2);
        c.h(0).measure(0).x(1).reset(1).cx(0, 1).measure(0).measure(1);
        let acc = NoisyQppAccelerator::new(1, 0.0, 0.0);
        let mut buf = AcceleratorBuffer::with_name("b", 2);
        acc.execute(&mut buf, &c, &ExecOptions::with_shots(512).seeded(17)).unwrap();
        // Reset wipes the X on qubit 1, so the CX re-correlates perfectly.
        assert!(buf.measurements().keys().all(|k| k == "00" || k == "11"), "{:?}", buf.measurements());
    }

    #[test]
    fn from_params_parses_noise_model() {
        let acc = NoisyQppAccelerator::from_params(
            &HetMap::new()
                .with("threads", 1usize)
                .with("depolarizing", 0.01f64)
                .with("dephasing", 0.02f64)
                .with("amplitude-damping", 0.03f64)
                .with("readout-error", 0.04f64)
                .with("chunk-shots", 16usize),
        )
        .unwrap();
        assert_eq!(acc.noise(), NoiseModel { depolarizing: 0.01, dephasing: 0.02, amplitude_damping: 0.03 });
        assert_eq!(acc.chunk_shots, Some(16));
    }

    #[test]
    fn from_params_rejects_bad_values_as_err() {
        let err = NoisyQppAccelerator::from_params(
            &HetMap::new().with("threads", 1usize).with("depolarizing", 1.5f64),
        )
        .unwrap_err();
        assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains("depolarizing")), "{err}");
        let err = NoisyQppAccelerator::from_params(
            &HetMap::new().with("threads", 1usize).with("readout-error", -0.1f64),
        )
        .unwrap_err();
        assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains("readout-error")), "{err}");
    }

    #[test]
    fn from_params_rejects_zero_counts() {
        for key in ["threads", "chunk-shots"] {
            let err = NoisyQppAccelerator::from_params(&HetMap::new().with(key, 0usize)).unwrap_err();
            assert!(matches!(err, XaccError::InvalidParam(ref msg) if msg.contains(key)), "{key}: {err}");
        }
    }
}
