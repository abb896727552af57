//! Tight warm-fixpoint loop for sampling profilers.
//!
//! `cargo run -p rta-bench --release --bin profile_fixpoint -- [iters]`
//! replays the `fixpoint_loops/alloc_free` scenario (the warm, memoized
//! fixpoint on the 2-stage 6-job SPNP shop) `iters` times so a profiler
//! like `gprofng collect app` has a single hot region to sample.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_core::{AnalysisConfig, AnalysisSession};
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::SchedulerKind;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    // COLD=1 replays `analysis/fixpoint_loops_2stage_6job` (fresh analysis
    // at ticks 500) instead of the warm memoized session.
    let cold = std::env::var("COLD").is_ok();
    let cfg = ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 6,
        scheduler: SchedulerKind::Spnp,
        utilization: 0.6,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 4.0,
        },
        x_min: 0.2,
        ticks_per_unit: if cold { 500 } else { 8 },
    };
    let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(42)).unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    let (w, h) = AnalysisConfig::default().resolve(&sys);
    let pinned = AnalysisConfig {
        arrival_window: Some(w),
        horizon: Some(h),
        ..AnalysisConfig::default()
    };
    if std::env::var("PRINT_LENS").is_ok() {
        eprintln!("window {w:?} horizon {h:?}");
        for (k, job) in sys.jobs().iter().enumerate() {
            let times = job.arrival.release_times(w);
            eprintln!(
                "job {k}: {} releases, {} subjobs",
                times.len(),
                job.subjobs.len()
            );
        }
    }
    let mut acc = 0usize;
    if cold {
        for _ in 0..iters {
            let report =
                rta_core::fixpoint::analyze_with_loops(&sys, &AnalysisConfig::default(), 4)
                    .unwrap();
            acc = acc.wrapping_add(report.jobs.len());
        }
    } else {
        let mut warm = AnalysisSession::pinned(sys, pinned);
        warm.analyze_with_loops(24).unwrap();
        for _ in 0..iters {
            let report = warm.analyze_with_loops(24).unwrap();
            acc = acc.wrapping_add(report.jobs.len());
        }
    }
    println!("done: {iters} iters (sink {acc})");
}
