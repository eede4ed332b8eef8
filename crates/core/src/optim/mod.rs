//! Classical optimizers for variational workloads (the `createOptimizer`
//! of paper Listing 3).
//!
//! The paper's VQE example uses nlopt's L-BFGS; here the optimizers are
//! implemented from scratch: [`GradientDescent`], [`Adam`], [`LBfgs`]
//! (two-loop recursion with Armijo backtracking) and [`NelderMead`]
//! (derivative-free simplex). [`create_optimizer`] resolves them by name;
//! `"nlopt"` is accepted as an alias for L-BFGS to keep Listing 3 code
//! working verbatim.

mod gd;
mod lbfgs;
mod nelder_mead;
mod spsa;

pub use gd::{Adam, GradientDescent};
pub use lbfgs::LBfgs;
pub use nelder_mead::NelderMead;
pub use spsa::Spsa;

use crate::{HetMap, QcorError};

/// A real-valued objective over R^n.
///
/// The default gradient is a central finite difference; analytic objectives
/// can override it.
pub trait ObjectiveFn: Sync {
    /// Evaluate the objective.
    fn eval(&self, x: &[f64]) -> f64;

    /// Gradient at `x`. Default: central differences with step 1e-5.
    fn grad(&self, x: &[f64]) -> Vec<f64> {
        central_difference(&|y| self.eval(y), x, 1e-5)
    }
}

impl<F: Fn(&[f64]) -> f64 + Sync> ObjectiveFn for F {
    fn eval(&self, x: &[f64]) -> f64 {
        self(x)
    }
}

/// Central-difference gradient with the given step.
pub fn central_difference(f: &dyn Fn(&[f64]) -> f64, x: &[f64], step: f64) -> Vec<f64> {
    let mut grad = Vec::with_capacity(x.len());
    let mut probe = x.to_vec();
    for i in 0..x.len() {
        probe[i] = x[i] + step;
        let plus = f(&probe);
        probe[i] = x[i] - step;
        let minus = f(&probe);
        probe[i] = x[i];
        grad.push((plus - minus) / (2.0 * step));
    }
    grad
}

/// Result of an optimization run: `(opt_val, opt_params)` plus counters.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerResult {
    /// Best objective value found.
    pub opt_val: f64,
    /// Arguments achieving it.
    pub opt_params: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Objective evaluations consumed (including gradient probes when the
    /// objective uses finite differences internally).
    pub evaluations: usize,
}

/// A minimizer.
pub trait Optimizer: Send + Sync {
    /// Optimizer name.
    fn name(&self) -> &'static str;
    /// Minimize `f` starting from `x0`.
    fn optimize(&self, f: &dyn ObjectiveFn, x0: &[f64]) -> OptimizerResult;
}

/// `createOptimizer(name, options)`. Recognized names: `"gradient-descent"`,
/// `"adam"`, `"l-bfgs"`, `"nelder-mead"`, `"spsa"`, and the alias `"nlopt"`
/// (→ L-BFGS, matching the paper's `{"nlopt-optimizer", "l-bfgs"}`).
///
/// Common options: `max-iters` (int), `tol` (float), `step`/`lr` (float);
/// SPSA also reads `seed` (int). An unknown name, or an option of the wrong
/// type or sign (e.g. `max-iters = "200"`), is a
/// [`QcorError::InvalidParam`], never a silent fall-back to the default.
pub fn create_optimizer(name: &str, options: &HetMap) -> Result<Box<dyn Optimizer>, QcorError> {
    let max_iters = options.try_usize("max-iters")?;
    let tol = options.try_float("tol")?;
    let lr = options.try_float("lr")?.or(options.try_float("step")?);
    Ok(match name.to_ascii_lowercase().as_str() {
        "gradient-descent" | "gd" => {
            let mut opt = GradientDescent::default();
            set(&mut opt.learning_rate, lr);
            set(&mut opt.max_iters, max_iters);
            set(&mut opt.tol, tol);
            Box::new(opt)
        }
        "adam" => {
            let mut opt = Adam::default();
            set(&mut opt.learning_rate, lr);
            set(&mut opt.max_iters, max_iters);
            set(&mut opt.tol, tol);
            Box::new(opt)
        }
        "l-bfgs" | "lbfgs" | "nlopt" => {
            let mut opt = LBfgs::default();
            set(&mut opt.max_iters, max_iters);
            set(&mut opt.tol, tol);
            Box::new(opt)
        }
        "nelder-mead" | "neldermead" => {
            let mut opt = NelderMead::default();
            set(&mut opt.max_iters, max_iters);
            set(&mut opt.tol, tol);
            Box::new(opt)
        }
        "spsa" => {
            let mut opt = Spsa::default();
            set(&mut opt.max_iters, max_iters);
            set(&mut opt.a, lr);
            set(&mut opt.seed, options.try_usize("seed")?.map(|s| s as u64));
            Box::new(opt)
        }
        _ => return Err(QcorError::InvalidParam(format!("unknown optimizer `{name}`"))),
    })
}

/// Overwrite `field` with an option's value when the option is set.
fn set<T>(field: &mut T, option: Option<T>) {
    if let Some(value) = option {
        *field = value;
    }
}

#[cfg(test)]
pub(crate) mod test_functions {
    /// Convex quadratic with minimum at (1, -2), value 3.
    pub fn quadratic(x: &[f64]) -> f64 {
        (x[0] - 1.0).powi(2) + 2.0 * (x[1] + 2.0).powi(2) + 3.0
    }

    /// The Rosenbrock banana (minimum 0 at (1,1)).
    pub fn rosenbrock(x: &[f64]) -> f64 {
        (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
    }

    /// 1-D sinusoid used for the VQE-like landscape (min at θ ≈ -π/2 + ...).
    pub fn cosine_well(x: &[f64]) -> f64 {
        2.0 - (x[0] - 0.5).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HetValue;

    #[test]
    fn factory_resolves_all_names() {
        let opts = HetMap::new();
        for name in ["gradient-descent", "adam", "l-bfgs", "nlopt", "nelder-mead", "spsa"] {
            assert!(create_optimizer(name, &opts).is_ok(), "{name}");
        }
        assert!(matches!(
            create_optimizer("simulated-annealing", &opts),
            Err(QcorError::InvalidParam(ref msg)) if msg.contains("simulated-annealing")
        ));
    }

    #[test]
    fn factory_rejects_mistyped_options() {
        // One case per key, each on an optimizer that reads it: a value of
        // the wrong type or sign must be an Err naming the key, never the
        // optimizer's default.
        let cases: [(&str, &str, HetValue); 6] = [
            ("nelder-mead", "max-iters", "200".into()),
            ("spsa", "seed", (-3i64).into()),
            ("l-bfgs", "tol", "1e-6".into()),
            ("adam", "lr", "0.1".into()),
            ("gradient-descent", "step", true.into()),
            ("spsa", "max-iters", 2.5.into()),
        ];
        for (name, key, value) in cases {
            match create_optimizer(name, &HetMap::new().with(key, value.clone())) {
                Err(QcorError::InvalidParam(msg)) => assert!(msg.contains(key), "{name} {key}: {msg}"),
                Err(other) => panic!("{name} {key}={value:?}: expected InvalidParam, got {other:?}"),
                Ok(_) => panic!("{name} {key}={value:?}: expected InvalidParam, got an optimizer"),
            }
        }
    }

    #[test]
    fn factory_applies_options() {
        let opts = HetMap::new().with("max-iters", 7usize).with("tol", 0.5);
        let opt = create_optimizer("nelder-mead", &opts).unwrap();
        assert_eq!(opt.name(), "nelder-mead");
    }

    #[test]
    fn central_difference_matches_analytic() {
        let f = |x: &[f64]| x[0] * x[0] + 3.0 * x[1];
        let g = central_difference(&f, &[2.0, 5.0], 1e-6);
        assert!((g[0] - 4.0).abs() < 1e-6);
        assert!((g[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn every_optimizer_solves_the_quadratic() {
        let opts = HetMap::new().with("max-iters", 2000usize);
        for name in ["gradient-descent", "adam", "l-bfgs", "nelder-mead"] {
            let opt = create_optimizer(name, &opts).unwrap();
            let result = opt.optimize(&test_functions::quadratic, &[0.0, 0.0]);
            assert!(
                (result.opt_val - 3.0).abs() < 1e-3,
                "{name}: reached {} at {:?}",
                result.opt_val,
                result.opt_params
            );
            assert!((result.opt_params[0] - 1.0).abs() < 0.05, "{name}");
            assert!((result.opt_params[1] + 2.0).abs() < 0.05, "{name}");
        }
    }
}
