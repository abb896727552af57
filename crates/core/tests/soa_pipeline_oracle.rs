//! Driver-level oracle for the SoA analysis pipeline: for every scheduling
//! policy and both workload shapes from the paper's evaluation (periodic
//! job-shop, Eq. 25; bursty, Eq. 27), the default entry point — which runs
//! entirely on structure-of-arrays curve buffers — must produce a report
//! **bit-identical** to `analyze_with_loops_aos_reference`, the Jacobi
//! rounds on the array-of-structs kernels in `support`.
//!
//! `tests/soa_kernels.rs` (rta-curves) pins each SoA kernel to its AoS
//! oracle; this test pins the composition end to end, through ingest, the
//! fixed point, and report assembly.

mod support;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_core::fixpoint::analyze_with_loops;
use rta_core::{AnalysisConfig, AnalysisSession};
use rta_model::distributions::Dist;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{SchedulerKind, TaskSystem};
use support::analyze_with_loops_aos_reference;

const POLICIES: [SchedulerKind; 4] = [
    SchedulerKind::Spp,
    SchedulerKind::Spnp,
    SchedulerKind::Fcfs,
    SchedulerKind::Iwrr,
];

fn shop(scheduler: SchedulerKind, arrivals: ShopArrivals, seed: u64) -> TaskSystem {
    let cfg = ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 6,
        scheduler,
        utilization: 0.6,
        arrivals,
        x_min: 0.2,
        ticks_per_unit: 8,
    };
    let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

fn periodic() -> ShopArrivals {
    ShopArrivals::Periodic {
        deadline_factor: 4.0,
    }
}

fn bursty() -> ShopArrivals {
    ShopArrivals::Bursty {
        deadline: Dist::Exponential { mean: 6.0 },
    }
}

/// The two paths must agree on the whole report: window, horizon, every
/// hop delay, every end-to-end bound. `BoundsReport` has no `Eq` impl, so
/// the comparison goes through `Debug`, which prints every field.
fn assert_reports_identical(sys: &TaskSystem, label: &str) {
    let cfg = AnalysisConfig::default();
    let soa = analyze_with_loops(sys, &cfg, 8).unwrap();
    let aos = analyze_with_loops_aos_reference(sys, &cfg, 8).unwrap();
    assert_eq!(format!("{soa:?}"), format!("{aos:?}"), "{label}");
}

#[test]
fn soa_pipeline_matches_aos_reference_on_periodic_shops() {
    for (i, kind) in POLICIES.into_iter().enumerate() {
        let sys = shop(kind, periodic(), 42 + i as u64);
        assert_reports_identical(&sys, &format!("{kind:?} periodic"));
    }
}

#[test]
fn soa_pipeline_matches_aos_reference_on_bursty_shops() {
    for (i, kind) in POLICIES.into_iter().enumerate() {
        let sys = shop(kind, bursty(), 1042 + i as u64);
        assert_reports_identical(&sys, &format!("{kind:?} bursty"));
    }
}

/// Warm sessions reuse SoA bound buffers and the per-processor memo across
/// calls; every warm report must still match the AoS reference bit for bit.
#[test]
fn warm_session_matches_aos_reference() {
    for kind in POLICIES {
        let sys = shop(kind, periodic(), 7);
        let cfg = AnalysisConfig::default();
        let aos = analyze_with_loops_aos_reference(&sys, &cfg, 8).unwrap();
        let (w, h) = cfg.resolve(&sys);
        let pinned = AnalysisConfig {
            arrival_window: Some(w),
            horizon: Some(h),
            ..AnalysisConfig::default()
        };
        let mut session = AnalysisSession::pinned(sys, pinned);
        for pass in 0..3 {
            let warm = session.analyze_with_loops(8).unwrap();
            assert_eq!(
                format!("{warm:?}"),
                format!("{aos:?}"),
                "{kind:?} warm pass {pass}"
            );
        }
    }
}
