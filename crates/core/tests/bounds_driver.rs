//! Driver oracle for the one-pass Theorem-4 bounds analysis on the
//! workspace pipeline.
//!
//! On random job shops under every registered policy and on random
//! mixed-scheduler systems, periodic and bursty, this suite pins:
//!
//! * (a) `analyze_bounds` equal, hop delay for hop delay, to the legacy
//!   node pass in `support` (also the oracle of `policy_golden.rs`);
//! * (b) the verdict-only `bounds_schedulable` equal to
//!   `analyze_bounds(..).all_schedulable()` whenever the latter is `Ok`;
//! * (c) identical reports when the per-thread workspace is reused dirty —
//!   a big system, then a small one (and a fixpoint run, which shares the
//!   workspace), then the big one again;
//! * (d) the per-subjob lower service curves (`lower_service_curves`,
//!   which the simulated service-curve check in `rta-sim`'s
//!   `agreement.rs` reads) equal to the legacy pass's.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_core::bounds::{bounds_schedulable, lower_service_curves};
use rta_core::fixpoint::analyze_with_loops;
use rta_core::{analyze_bounds, AnalysisConfig};
use rta_curves::Time;
use rta_model::distributions::Dist;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder, TaskSystem};
use support::{legacy_bounds, legacy_compute_nodes, summary};

const POLICIES: [SchedulerKind; 4] = [
    SchedulerKind::Spp,
    SchedulerKind::Spnp,
    SchedulerKind::Fcfs,
    SchedulerKind::Iwrr,
];

/// A job shop of the paper's evaluation: `stages` stages of two
/// processors under `kind`, periodic (Eq. 25) or bursty (Eq. 27).
fn shop(kind: SchedulerKind, stages: usize, util: f64, bursty: bool, seed: u64) -> TaskSystem {
    let cfg = ShopConfig {
        stages,
        procs_per_stage: 2,
        n_jobs: 5,
        scheduler: kind,
        utilization: util,
        arrivals: if bursty {
            ShopArrivals::Bursty {
                deadline: Dist::Exponential { mean: 6.0 },
            }
        } else {
            ShopArrivals::Periodic {
                deadline_factor: 2.0 * stages as f64,
            }
        },
        x_min: 0.25,
        ticks_per_unit: 50,
    };
    let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(seed)).expect("valid shop");
    if kind.uses_priorities() {
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    }
    sys
}

#[derive(Debug, Clone)]
struct MixedJob {
    /// `None` → periodic at `period`; `Some(ts)` → trace burst.
    burst: Option<Vec<i64>>,
    period: i64,
    /// (processor index, exec, weight) — processor indices strictly
    /// increase along the chain, which keeps the system acyclic.
    hops: Vec<(usize, i64, u64)>,
}

fn arb_mixed_jobs() -> impl Strategy<Value = Vec<MixedJob>> {
    let hop = (0usize..POLICIES.len(), 1i64..7, 1u64..4);
    let job = (
        any::<bool>(),
        prop::collection::vec(0i64..50, 1..5),
        20i64..81,
        prop::collection::vec(hop, 1..4),
    )
        .prop_map(|(is_burst, mut burst_ts, period, mut hops)| {
            hops.sort_by_key(|&(p, _, _)| p);
            hops.dedup_by_key(|&mut (p, _, _)| p);
            burst_ts.sort_unstable();
            MixedJob {
                burst: is_burst.then_some(burst_ts),
                period,
                hops,
            }
        });
    prop::collection::vec(job, 2..6)
}

/// One processor per policy; every job routes through a subset of them.
fn mixed_sys(jobs: &[MixedJob]) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let procs: Vec<_> = POLICIES
        .iter()
        .enumerate()
        .map(|(i, &kind)| b.add_processor(format!("P{i}"), kind))
        .collect();
    let mut weights = Vec::new();
    for (k, j) in jobs.iter().enumerate() {
        let pattern = match &j.burst {
            Some(ts) => ArrivalPattern::Trace(ts.iter().map(|&t| Time(t)).collect()),
            None => ArrivalPattern::Periodic {
                period: Time(j.period),
                offset: Time::ZERO,
            },
        };
        let hops = j
            .hops
            .iter()
            .map(|&(p, c, _)| (procs[p], Time(c)))
            .collect();
        // Distinct deadlines keep the deadline-monotonic assignment unique.
        let id = b.add_job(format!("T{k}"), Time(300 + 10 * k as i64), pattern, hops);
        for (index, &(_, _, w)) in j.hops.iter().enumerate() {
            weights.push((SubjobRef { job: id, index }, w as u32));
        }
    }
    for (r, w) in weights {
        b.set_weight(r, w);
    }
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

fn window_cfg() -> AnalysisConfig {
    AnalysisConfig {
        arrival_window: Some(Time(160)),
        ..AnalysisConfig::default()
    }
}

/// (a), (b) and (d) on one system.
fn check_against_legacy(sys: &TaskSystem, cfg: &AnalysisConfig) -> Result<(), TestCaseError> {
    let report = analyze_bounds(sys, cfg).expect("acyclic system");
    prop_assert_eq!(summary(&report), legacy_bounds(sys, cfg));
    prop_assert_eq!(
        bounds_schedulable(sys, cfg).expect("same pass"),
        report.all_schedulable()
    );
    let lower = lower_service_curves(sys, cfg).expect("acyclic system");
    let legacy = legacy_compute_nodes(sys, cfg);
    prop_assert_eq!(lower.len(), legacy.len());
    for (i, (curve, node)) in lower.iter().zip(&legacy).enumerate() {
        prop_assert!(
            curve == &node.bounds.lower.to_curve(),
            "subjob {i}: lower bound"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Job shops under every policy, one to three stages, periodic and
    /// bursty, at light and heavy load.
    #[test]
    fn shops_match_the_legacy_pass(
        seed in 0u64..10_000,
        stages in 1usize..4,
        heavy in any::<bool>(),
        bursty in any::<bool>(),
    ) {
        let util = if heavy { 0.85 } else { 0.5 };
        for kind in POLICIES {
            let sys = shop(kind, stages, util, bursty, seed);
            check_against_legacy(&sys, &AnalysisConfig::default())?;
        }
    }

    /// Systems mixing all four disciplines, with trace bursts, weights and
    /// cross-routed chains.
    #[test]
    fn mixed_systems_match_the_legacy_pass(jobs in arb_mixed_jobs()) {
        check_against_legacy(&mixed_sys(&jobs), &window_cfg())?;
    }

    /// (c): a dirty workspace changes nothing — big, small (plus a
    /// fixpoint run through the shared workspace), then big again.
    #[test]
    fn reused_workspace_reproduces_reports(
        seed in 0u64..10_000,
        small in arb_mixed_jobs(),
    ) {
        let cfg = AnalysisConfig::default();
        let big = shop(SchedulerKind::Spnp, 3, 0.7, seed % 2 == 0, seed);
        let small = mixed_sys(&small);
        let first = analyze_bounds(&big, &cfg).unwrap();
        let small_report = analyze_bounds(&small, &window_cfg()).unwrap();
        analyze_with_loops(&big, &cfg, 4).unwrap();
        let again_small = analyze_bounds(&small, &window_cfg()).unwrap();
        let again = analyze_bounds(&big, &cfg).unwrap();
        prop_assert_eq!(format!("{first:?}"), format!("{again:?}"));
        prop_assert_eq!(format!("{small_report:?}"), format!("{again_small:?}"));
        prop_assert_eq!(summary(&first), legacy_bounds(&big, &cfg));
        prop_assert_eq!(summary(&small_report), legacy_bounds(&small, &window_cfg()));
    }
}

#[test]
fn verdict_only_pass_rejects_a_hopeless_job() {
    // Job 0's first hop alone overruns its deadline, so the verdict-only
    // pass stops there; job 1 is fine. Both entry points say no.
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spnp);
    let p2 = b.add_processor("P2", SchedulerKind::Fcfs);
    b.add_job(
        "tight",
        Time(5),
        ArrivalPattern::Periodic {
            period: Time(40),
            offset: Time::ZERO,
        },
        vec![(p1, Time(6)), (p2, Time(3))],
    );
    b.add_job(
        "loose",
        Time(200),
        ArrivalPattern::Periodic {
            period: Time(50),
            offset: Time::ZERO,
        },
        vec![(p2, Time(4))],
    );
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    let cfg = AnalysisConfig::default();
    let report = analyze_bounds(&sys, &cfg).unwrap();
    assert!(!report.jobs[0].schedulable());
    assert!(report.jobs[1].schedulable());
    assert!(!bounds_schedulable(&sys, &cfg).unwrap());
}

#[test]
fn a_bound_exactly_at_the_deadline_admits() {
    // Explicit priorities keep the bounds independent of the deadlines, so
    // the deadline can be set to the bound itself: at equality the job
    // meets it, one tick below it misses — in both entry points.
    let build = |deadline: Time| {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spnp);
        let p2 = b.add_processor("P2", SchedulerKind::Fcfs);
        let flow = b.add_job(
            "flow",
            deadline,
            ArrivalPattern::Trace(vec![Time(0), Time(2), Time(30)]),
            vec![(p1, Time(4)), (p2, Time(3))],
        );
        let local = b.add_job(
            "local",
            Time(500),
            ArrivalPattern::Periodic {
                period: Time(25),
                offset: Time::ZERO,
            },
            vec![(p1, Time(6)), (p2, Time(2))],
        );
        b.set_priority(
            SubjobRef {
                job: local,
                index: 0,
            },
            1,
        );
        b.set_priority(
            SubjobRef {
                job: flow,
                index: 0,
            },
            2,
        );
        b.build().unwrap()
    };
    let cfg = AnalysisConfig {
        arrival_window: Some(Time(100)),
        horizon: Some(Time(400)),
        ..AnalysisConfig::default()
    };
    let bound = analyze_bounds(&build(Time(500)), &cfg).unwrap().jobs[0]
        .e2e_bound
        .expect("bounded");
    let at = build(bound);
    assert!(analyze_bounds(&at, &cfg).unwrap().all_schedulable());
    assert!(bounds_schedulable(&at, &cfg).unwrap());
    let below = build(bound - Time(1));
    assert!(!analyze_bounds(&below, &cfg).unwrap().all_schedulable());
    assert!(!bounds_schedulable(&below, &cfg).unwrap());
}
