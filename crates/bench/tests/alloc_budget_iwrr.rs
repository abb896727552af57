//! Allocation budgets of IWRR in the event engine and the bounds pass.
//!
//! Run with `cargo test -p rta-bench --features alloc_stats --release
//! --test alloc_budget_iwrr`. The single test below is alone in its binary
//! on purpose: the counter is process-global, so no other test may
//! allocate concurrently while a budget window is open.

#![cfg(feature = "alloc_stats")]

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_bench::alloc_stats::alloc_count;
use rta_bench::figures;
use rta_core::bounds::bounds_schedulable;
use rta_core::AnalysisConfig;
use rta_curves::Time;
use rta_model::jobshop::{generate, ShopConfig};
use rta_model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder, TaskSystem};
use rta_sim::{SimConfig, SimEngine, SimResult};

/// Two jobs crossing two processors of `kind` in opposite order, with
/// round-robin weights 2 and 1 (which only IWRR reads).
fn crossing(kind: SchedulerKind) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", kind);
    let p2 = b.add_processor("P2", kind);
    let a = b.add_job(
        "a",
        Time(60),
        ArrivalPattern::Periodic {
            period: Time(20),
            offset: Time::ZERO,
        },
        vec![(p1, Time(4)), (p2, Time(3))],
    );
    let c = b.add_job(
        "c",
        Time(80),
        ArrivalPattern::Periodic {
            period: Time(25),
            offset: Time(2),
        },
        vec![(p2, Time(5)), (p1, Time(2))],
    );
    for (job, w) in [(a, 2), (c, 1)] {
        for index in 0..2 {
            b.set_weight(SubjobRef { job, index }, w);
        }
    }
    b.build().unwrap()
}

/// Heap allocations of one warm rerun of `sys` in a reused engine.
fn warm_rerun_allocations(sys: &TaskSystem) -> u64 {
    let cfg = SimConfig::defaults_for(sys);
    let mut engine = SimEngine::new();
    let mut out = SimResult::default();
    for _ in 0..3 {
        engine.simulate_into(sys, &cfg, &mut out);
    }
    let before = alloc_count();
    engine.simulate_into(sys, &cfg, &mut out);
    alloc_count() - before
}

/// * A warm engine rerun allocates as often under IWRR as the same system
///   does under FCFS, whose dispatch holds no state: the round-robin slot
///   sequences live in buffers the engine recycles (20 allocations
///   against FCFS's 14 when each run built a boxed scheduler per IWRR
///   processor).
/// * After warm-up, the verdict-only bounds pass on one 4-stage Fig. 3
///   IWRR set at utilization 0.3 (the `iwrr/bounds_fig3_4stage` system)
///   allocates at most 49 times per call, the count measured when IWRR's
///   bounds became one kernel call and its processor contexts were rebuilt
///   in place (175 before, through the general convolution and a fresh
///   context per pass), as many as the FCFS pass.
#[test]
fn iwrr_engine_rerun_and_bounds_pass_stay_within_allocation_budgets() {
    let iwrr = warm_rerun_allocations(&crossing(SchedulerKind::Iwrr));
    let fcfs = warm_rerun_allocations(&crossing(SchedulerKind::Fcfs));
    assert_eq!(
        iwrr, fcfs,
        "a warm IWRR engine rerun allocates {iwrr} times, FCFS {fcfs}"
    );

    let base = figures::fig3_panels()
        .into_iter()
        .find(|p| p.base.stages == 4)
        .expect("Fig. 3 has a 4-stage panel")
        .base;
    let cfg = ShopConfig {
        scheduler: SchedulerKind::Iwrr,
        utilization: 0.3,
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
        "warm IWRR bounds pass allocates {per_call} times per call (budget 49)"
    );
}
