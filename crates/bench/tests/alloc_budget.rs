//! Allocation budget of the warm analysis path.
//!
//! Run with `cargo test -p rta-bench --features alloc_stats --release
//! --test alloc_budget`. The single test below is alone in its binary on
//! purpose: the counter is process-global, so no other test may allocate
//! concurrently while the budget window is open.

#![cfg(feature = "alloc_stats")]

use rta_bench::alloc_stats::alloc_count;
use rta_core::sensitivity::Oracle;
use rta_core::{AnalysisConfig, AnalysisSession};
use rta_curves::Time;
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder, TaskSystem};

fn pipeline() -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    let p2 = b.add_processor("P2", SchedulerKind::Spp);
    b.add_job(
        "T1",
        Time(80),
        ArrivalPattern::Periodic {
            period: Time(40),
            offset: Time::ZERO,
        },
        vec![(p1, Time(4)), (p2, Time(6))],
    );
    b.add_job(
        "T2",
        Time(90),
        ArrivalPattern::Periodic {
            period: Time(45),
            offset: Time::ZERO,
        },
        vec![(p1, Time(5))],
    );
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

/// After warm-up, a memoized loop analysis must do O(1) heap allocations —
/// the arena/workspace discipline of the fixpoint driver. The budget of 8
/// covers the report assembly (one jobs `Vec`, one hop-delay `Vec` per
/// job); everything else comes from the thread-local workspace and the
/// session's per-processor memo, copied into place.
#[test]
fn warm_memoized_analysis_stays_within_allocation_budget() {
    let sys = pipeline();
    let base = AnalysisConfig::default();
    let (window, horizon) = base.resolve(&sys);
    // Pin the frame so the memo stays valid run over run.
    let cfg = AnalysisConfig {
        arrival_window: Some(window),
        horizon: Some(horizon),
        ..base
    };
    let mut session = AnalysisSession::pinned(sys, cfg);

    // Warm-up: builds the thread-local workspace and fills the memo.
    for _ in 0..3 {
        assert!(session.analyze_with_loops(16).unwrap().all_schedulable());
    }

    const RUNS: u64 = 64;
    let before = alloc_count();
    for _ in 0..RUNS {
        session.analyze_with_loops(16).unwrap();
    }
    let per_call = (alloc_count() - before) as f64 / RUNS as f64;
    assert!(
        per_call <= 8.0,
        "warm memoized analyze allocates {per_call} times per call (budget 8)"
    );

    // Memoized verdicts are cheaper still: answered from the verdict table
    // without running the driver at all.
    session
        .schedulable(Oracle::Loops { max_rounds: 16 })
        .unwrap();
    let before = alloc_count();
    for _ in 0..RUNS {
        session
            .schedulable(Oracle::Loops { max_rounds: 16 })
            .unwrap();
    }
    let per_probe = (alloc_count() - before) as f64 / RUNS as f64;
    assert!(
        per_probe <= 4.0,
        "memoized verdict allocates {per_probe} times per probe"
    );
}
