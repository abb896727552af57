//! Allocation budget of the warm FCFS bounds pass.
//!
//! Run with `cargo test -p rta-bench --features alloc_stats --release
//! --test alloc_budget_fcfs`. The single test below is alone in its binary
//! on purpose: the counter is process-global, so no other test may
//! allocate concurrently while the budget window is open.

#![cfg(feature = "alloc_stats")]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_bench::alloc_stats::alloc_count;
use rta_bench::figures;
use rta_core::bounds::bounds_schedulable;
use rta_core::AnalysisConfig;
use rta_model::jobshop::{generate, ShopConfig};
use rta_model::SchedulerKind;

/// After warm-up, the verdict-only bounds pass on one 4-stage Fig. 3 FCFS
/// set (the `analysis/bounds_fcfs_fig3_4stage` system) allocates at most
/// 49 times per call, the count measured when the processor contexts
/// moved into the driver's workspace (500 before, when each pass built
/// them afresh). What remains is the pass's subjob index and evaluation
/// order and each context's peer lists.
#[test]
fn warm_fcfs_bounds_pass_stays_within_allocation_budget() {
    let base = figures::fig3_panels()
        .into_iter()
        .find(|p| p.base.stages == 4)
        .expect("Fig. 3 has a 4-stage panel")
        .base;
    let cfg = ShopConfig {
        scheduler: SchedulerKind::Fcfs,
        utilization: 0.6,
        ..base
    };
    let sys = generate(&cfg, &mut StdRng::seed_from_u64(42)).unwrap();
    let acfg = AnalysisConfig::default();
    let verdict = bounds_schedulable(&sys, &acfg).unwrap();
    for _ in 0..3 {
        assert_eq!(bounds_schedulable(&sys, &acfg).unwrap(), verdict);
    }

    const RUNS: u64 = 64;
    let before = alloc_count();
    for _ in 0..RUNS {
        bounds_schedulable(&sys, &acfg).unwrap();
    }
    let per_call = (alloc_count() - before) as f64 / RUNS as f64;
    assert!(
        per_call <= 49.0,
        "warm FCFS bounds pass allocates {per_call} times per call (budget 49)"
    );
}
