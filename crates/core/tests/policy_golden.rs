//! Golden equivalence: the policy-trait drivers must be *bit-identical* to
//! the pre-refactor enum-dispatch paths.
//!
//! Before the [`rta_core::policy`] layer existed, `analyze_bounds` matched
//! on [`SchedulerKind`] directly — SPP/SPNP through `spnp_bounds`, FCFS
//! through a per-processor `FcfsProcessor` slot map — and
//! `analyze_exact_spp` called `spp::exact_service` inline. Those kernels
//! are still public, so this suite *reimplements the old dispatch verbatim*
//! on top of them (the bounds pass lives in `support/`, shared with
//! `bounds_driver.rs`) and checks that the trait drivers produce the same
//! reports curve-for-curve and tick-for-tick, on deterministic job-shop /
//! bursty fixtures and on randomized systems. Any divergence means the
//! refactor changed analysis results, not just code shape.

mod support;

use proptest::prelude::*;
use rta_core::depgraph::{evaluation_order, SubjobIndex};
use rta_core::spp::exact_service;
use rta_core::{analyze_bounds, analyze_exact_spp, AnalysisConfig};
use rta_curves::{Curve, CurveCursor, Time};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{ArrivalPattern, JobId, SchedulerKind, SubjobRef, SystemBuilder, TaskSystem};
use support::legacy_bounds;

/// Legacy `analyze_exact_spp`: Theorem 3 service functions called inline,
/// Theorem 1 responses read off the chain ends. Returns per-subjob
/// (arrival, service, departure) curves plus per-job responses.
#[allow(clippy::type_complexity)]
fn legacy_exact(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
) -> (
    Vec<(Curve, Curve, Curve)>,
    Vec<(Vec<Option<Time>>, Option<Time>)>,
) {
    let (window, horizon) = cfg.resolve(sys);
    let idx = SubjobIndex::new(sys);
    let order = evaluation_order(sys, &idx).expect("acyclic fixture");

    let mut curves: Vec<Option<(Curve, Curve, Curve)>> = vec![None; idx.len()];
    for i in order {
        let r = idx.subjob(i);
        let subjob = sys.subjob(r);
        assert_eq!(
            sys.processor(subjob.processor).scheduler,
            SchedulerKind::Spp,
            "legacy exact path is SPP-only"
        );
        let arrival = if r.index == 0 {
            sys.job(r.job).arrival.arrival_curve(window)
        } else {
            let pred = SubjobRef {
                job: r.job,
                index: r.index - 1,
            };
            curves[idx.index(pred)].as_ref().expect("order").2.clone()
        };
        let workload = arrival.scale(subjob.exec.ticks());
        let hp = sys.higher_priority_peers(r);
        let hp_services: Vec<&Curve> = hp
            .iter()
            .map(|h| &curves[idx.index(*h)].as_ref().expect("order").1)
            .collect();
        let service = exact_service(&workload, &hp_services);
        let departure = service.floor_div(subjob.exec.ticks(), horizon).unwrap();
        curves[i] = Some((arrival, service, departure));
    }
    let curves: Vec<(Curve, Curve, Curve)> = curves
        .into_iter()
        .map(|c| c.expect("all computed"))
        .collect();

    let mut jobs = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let first = &curves[idx.index(SubjobRef {
            job: JobId(k),
            index: 0,
        })]
        .0;
        let last = &curves[idx.index(SubjobRef {
            job: JobId(k),
            index: job.subjobs.len() - 1,
        })]
        .2;
        let n = first.total_events();
        let mut arr_cur = CurveCursor::new(first);
        let mut dep_cur = CurveCursor::new(last);
        let mut responses = Vec::new();
        let mut wcrt = Some(Time::ZERO);
        for m in 1..=n {
            let release = arr_cur.inverse_at(m).expect("within window");
            let resp = dep_cur.inverse_at(m).map(|c| c - release);
            wcrt = match (wcrt, resp) {
                (Some(w), Some(r)) => Some(w.max(r)),
                _ => None,
            };
            responses.push(resp);
        }
        if n == 0 {
            wcrt = Some(Time::ZERO);
        }
        jobs.push((responses, wcrt));
    }
    (curves, jobs)
}

// ---------------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------------

fn assert_bounds_golden(sys: &TaskSystem, cfg: &AnalysisConfig) {
    let report = analyze_bounds(sys, cfg).expect("trait driver");
    let golden = legacy_bounds(sys, cfg);
    assert_eq!(report.jobs.len(), golden.len());
    for (k, (hop_delays, e2e)) in golden.iter().enumerate() {
        assert_eq!(
            &report.jobs[k].hop_delays, hop_delays,
            "job {k}: hop delays diverge from the pre-refactor path"
        );
        assert_eq!(
            report.jobs[k].e2e_bound, *e2e,
            "job {k}: e2e bound diverges from the pre-refactor path"
        );
    }
}

fn assert_exact_golden(sys: &TaskSystem, cfg: &AnalysisConfig) {
    let report = analyze_exact_spp(sys, cfg).expect("trait driver");
    let (curves, jobs) = legacy_exact(sys, cfg);
    assert_eq!(report.curves.len(), curves.len());
    for (i, (arrival, service, departure)) in curves.iter().enumerate() {
        assert_eq!(&report.curves[i].arrival, arrival, "node {i}: arrival");
        assert_eq!(&report.curves[i].service, service, "node {i}: service");
        assert_eq!(
            &report.curves[i].departure, departure,
            "node {i}: departure"
        );
    }
    for (k, (responses, wcrt)) in jobs.iter().enumerate() {
        assert_eq!(&report.jobs[k].responses, responses, "job {k}: responses");
        assert_eq!(report.jobs[k].wcrt, *wcrt, "job {k}: wcrt");
    }
}

// ---------------------------------------------------------------------------
// Deterministic fixtures: a heterogeneous job shop and a bursty system.
// ---------------------------------------------------------------------------

fn periodic(p: i64) -> ArrivalPattern {
    ArrivalPattern::Periodic {
        period: Time(p),
        offset: Time::ZERO,
    }
}

/// Three processors (SPP, SPNP, FCFS), four jobs, cross-routed chains —
/// every legacy dispatch arm exercised in one system.
fn jobshop() -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    let p2 = b.add_processor("P2", SchedulerKind::Spnp);
    let p3 = b.add_processor("P3", SchedulerKind::Fcfs);
    b.add_job(
        "T1",
        Time(200),
        periodic(40),
        vec![(p1, Time(4)), (p2, Time(5)), (p3, Time(6))],
    );
    b.add_job(
        "T2",
        Time(180),
        ArrivalPattern::PeriodicJitter {
            period: Time(50),
            jitter: Time(7),
            offset: Time(3),
        },
        vec![(p1, Time(3)), (p3, Time(4))],
    );
    b.add_job("T3", Time(150), periodic(60), vec![(p2, Time(7))]);
    b.add_job("T4", Time(220), periodic(70), vec![(p3, Time(8))]);
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

/// Bursty workloads: a trace burst sharing an SPNP hop with a periodic
/// job, then fanning into an FCFS stage.
fn bursty_shop() -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spnp);
    let p2 = b.add_processor("P2", SchedulerKind::Fcfs);
    b.add_job(
        "burst",
        Time(120),
        ArrivalPattern::Trace(vec![Time(0), Time(1), Time(2), Time(3), Time(55), Time(90)]),
        vec![(p1, Time(4)), (p2, Time(3))],
    );
    b.add_job("steady", Time(100), periodic(25), vec![(p1, Time(6))]);
    b.add_job("tail", Time(100), periodic(30), vec![(p2, Time(5))]);
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

#[test]
fn jobshop_bounds_are_bit_identical_to_legacy_dispatch() {
    let sys = jobshop();
    assert_bounds_golden(&sys, &AnalysisConfig::default());
    // Both SPNP availability variants dispatch identically.
    assert_bounds_golden(
        &sys,
        &AnalysisConfig {
            spnp_availability: rta_core::SpnpAvailability::AsPrinted,
            ..Default::default()
        },
    );
}

#[test]
fn bursty_bounds_are_bit_identical_to_legacy_dispatch() {
    let sys = bursty_shop();
    assert_bounds_golden(
        &sys,
        &AnalysisConfig {
            arrival_window: Some(Time(150)),
            ..Default::default()
        },
    );
}

#[test]
fn exact_curves_are_bit_identical_to_legacy_dispatch() {
    // All-SPP two-stage shop with a bursty cross-flow: the exact driver
    // now reaches Theorem 3 through `ServicePolicy::exact_service`.
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    let p2 = b.add_processor("P2", SchedulerKind::Spp);
    b.add_job(
        "T1",
        Time(90),
        periodic(20),
        vec![(p1, Time(2)), (p2, Time(4))],
    );
    b.add_job(
        "T2",
        Time(110),
        ArrivalPattern::Trace(vec![Time(0), Time(0), Time(2), Time(40)]),
        vec![(p2, Time(3)), (p1, Time(5))],
    );
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    let cfg = AnalysisConfig {
        arrival_window: Some(Time(80)),
        ..Default::default()
    };
    assert_exact_golden(&sys, &cfg);
}

// ---------------------------------------------------------------------------
// Randomized equivalence.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct GoldJob {
    /// `None` → periodic at `period`; `Some(ts)` → trace burst.
    burst: Option<Vec<i64>>,
    period: i64,
    /// (processor index, exec) — processor indices strictly increase along
    /// the chain, which keeps the dependency DAG acyclic by construction.
    hops: Vec<(usize, i64)>,
}

const GOLD_PROCS: [SchedulerKind; 3] =
    [SchedulerKind::Spp, SchedulerKind::Spnp, SchedulerKind::Fcfs];

fn arb_gold_jobs() -> impl Strategy<Value = Vec<GoldJob>> {
    let hop = (0usize..GOLD_PROCS.len(), 1i64..7);
    let job = (
        any::<bool>(),
        prop::collection::vec(0i64..50, 1..5),
        20i64..81,
        prop::collection::vec(hop, 1..4),
    )
        .prop_map(|(is_burst, mut burst_ts, period, mut hops)| {
            hops.sort_by_key(|&(p, _)| p);
            hops.dedup_by_key(|&mut (p, _)| p);
            burst_ts.sort_unstable();
            GoldJob {
                burst: is_burst.then_some(burst_ts),
                period,
                hops,
            }
        });
    prop::collection::vec(job, 2..5)
}

fn build_gold_sys(jobs: &[GoldJob]) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let procs: Vec<_> = GOLD_PROCS
        .iter()
        .enumerate()
        .map(|(i, &kind)| b.add_processor(format!("P{i}"), kind))
        .collect();
    for (k, j) in jobs.iter().enumerate() {
        let pattern = match &j.burst {
            Some(ts) => ArrivalPattern::Trace(ts.iter().map(|&t| Time(t)).collect()),
            None => periodic(j.period),
        };
        let hops = j
            .hops
            .iter()
            .map(|&(p, c)| (procs[p], Time(c)))
            .collect::<Vec<_>>();
        // Distinct deadlines make the deadline-monotonic assignment (and
        // hence both dispatch paths) fully deterministic.
        b.add_job(format!("T{k}"), Time(300 + 10 * k as i64), pattern, hops);
    }
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized job shops with bursty and periodic flows across all
    /// three legacy disciplines: trait dispatch never changes a single
    /// hop delay.
    #[test]
    fn random_shop_bounds_match_legacy(jobs in arb_gold_jobs()) {
        let sys = build_gold_sys(&jobs);
        let cfg = AnalysisConfig {
            arrival_window: Some(Time(160)),
            ..Default::default()
        };
        assert_bounds_golden(&sys, &cfg);
    }

    /// All-SPP random shops: the exact pass stays curve-identical.
    #[test]
    fn random_spp_exact_matches_legacy(jobs in arb_gold_jobs()) {
        let mut b = SystemBuilder::new();
        let procs: Vec<_> = (0..GOLD_PROCS.len())
            .map(|i| b.add_processor(format!("P{i}"), SchedulerKind::Spp))
            .collect();
        for (k, j) in jobs.iter().enumerate() {
            let pattern = match &j.burst {
                Some(ts) => ArrivalPattern::Trace(ts.iter().map(|&t| Time(t)).collect()),
                None => periodic(j.period),
            };
            let hops = j
                .hops
                .iter()
                .map(|&(p, c)| (procs[p], Time(c)))
                .collect::<Vec<_>>();
            b.add_job(format!("T{k}"), Time(300 + 10 * k as i64), pattern, hops);
        }
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let cfg = AnalysisConfig {
            arrival_window: Some(Time(160)),
            ..Default::default()
        };
        assert_exact_golden(&sys, &cfg);
    }
}
