//! Grouped Pauli estimation issues exactly one shot plan per commuting
//! group.
//!
//! `stats::shot_plans_issued` is process-global, so this assertion lives in
//! a test binary of its own: keep it the only test in this file, so that no
//! sibling test can issue a plan while it reads the counter.

use qcor_algos::vqe::sampled_energy;
use qcor_circuit::Circuit;
use qcor_pauli::deuteron_hamiltonian;
use qcor_pool::ThreadPool;
use std::sync::Arc;

#[test]
fn sampled_energy_issues_exactly_one_plan_per_commuting_group() {
    let h = deuteron_hamiltonian();
    let groups = qcor_pauli::grouping::group_qubit_wise(&h).groups.len();
    let mut prep = Circuit::new(2);
    prep.x(0).ry(1, 0.594).cx(1, 0);
    let pool = Arc::new(ThreadPool::new(1));
    let before = qcor_sim::stats::shot_plans_issued();
    let e = sampled_energy(&prep, &h, 8192, 100, &pool);
    let plans = qcor_sim::stats::shot_plans_issued() - before;
    assert!((e - (-1.7487)).abs() < 0.2, "E = {e}");
    assert_eq!(plans, groups as u64, "{plans} plans for {groups} groups");
}
