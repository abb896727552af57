//! Oracle tests for the incremental re-analysis engine: every reuse
//! mechanism (dirty-cone curve caching, the memoized loops fixpoint,
//! verdict memoization) must be
//! **bit-identical** to a cold start under the same configuration, for
//! random systems and random deltas.

use proptest::prelude::*;
use rta_core::fixpoint::analyze_with_loops;
use rta_core::sensitivity::Oracle;
use rta_core::{analyze_exact_spp, AnalysisConfig, AnalysisSession, ExactReport};
use rta_curves::Time;
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{
    ArrivalPattern, Job, JobId, ProcessorId, SchedulerKind, Subjob, SystemBuilder, TaskSystem,
};

/// One random job: period, hop executions, and a processor choice.
/// Two-hop jobs always route P0→P1 so the interference graph stays acyclic
/// (exact analysis rejects cycles by design; the fixpoint tests cover
/// them); `forward` picks the processor of single-hop jobs.
#[derive(Clone, Debug)]
struct JobSpec {
    period: i64,
    execs: Vec<i64>,
    forward: bool,
}

fn arb_jobs() -> impl Strategy<Value = Vec<JobSpec>> {
    prop::collection::vec(
        (
            20i64..81,
            prop::collection::vec(1i64..9, 1..3),
            any::<bool>(),
        )
            .prop_map(|(period, execs, forward)| JobSpec {
                period,
                execs,
                forward,
            }),
        2..5,
    )
}

fn arb_bursty_jobs() -> impl Strategy<Value = Vec<(JobSpec, Vec<i64>)>> {
    prop::collection::vec(
        (
            (
                20i64..81,
                prop::collection::vec(1i64..9, 1..3),
                any::<bool>(),
            )
                .prop_map(|(period, execs, forward)| JobSpec {
                    period,
                    execs,
                    forward,
                }),
            // Burst release times; empty → the job stays periodic.
            prop::collection::vec(0i64..120, 0..6),
        ),
        2..5,
    )
}

/// Like [`build_sys`], but jobs with a non-empty burst list release along
/// an `ArrivalPattern::Trace` instead of periodically.
fn build_bursty_sys(specs: &[(JobSpec, Vec<i64>)]) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p0 = b.add_processor("P0", SchedulerKind::Spp);
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    for (k, (s, burst)) in specs.iter().enumerate() {
        let route: Vec<_> = s
            .execs
            .iter()
            .enumerate()
            .map(|(h, &c)| {
                let p = if s.execs.len() > 1 {
                    if h == 0 {
                        p0
                    } else {
                        p1
                    }
                } else if s.forward {
                    p0
                } else {
                    p1
                };
                (p, Time(c))
            })
            .collect();
        let pattern = if burst.is_empty() {
            ArrivalPattern::Periodic {
                period: Time(s.period),
                offset: Time::ZERO,
            }
        } else {
            let mut ts: Vec<Time> = burst.iter().map(|&t| Time(t)).collect();
            ts.sort_unstable();
            ArrivalPattern::Trace(ts)
        };
        b.add_job(format!("T{k}"), Time(2 * s.period), pattern, route);
    }
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

fn build_sys(specs: &[JobSpec]) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p0 = b.add_processor("P0", SchedulerKind::Spp);
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    for (k, s) in specs.iter().enumerate() {
        let route: Vec<_> = s
            .execs
            .iter()
            .enumerate()
            .map(|(h, &c)| {
                let p = if s.execs.len() > 1 {
                    if h == 0 {
                        p0
                    } else {
                        p1
                    }
                } else if s.forward {
                    p0
                } else {
                    p1
                };
                (p, Time(c))
            })
            .collect();
        b.add_job(
            format!("T{k}"),
            Time(2 * s.period),
            ArrivalPattern::Periodic {
                period: Time(s.period),
                offset: Time::ZERO,
            },
            route,
        );
    }
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

/// Full structural equality of exact reports: rendered summary plus every
/// arrival/service/departure curve.
fn assert_reports_identical(cold: &ExactReport, warm: &ExactReport) {
    assert_eq!(format!("{cold}"), format!("{warm}"));
    assert_eq!(cold.curves.len(), warm.curves.len());
    for (a, b) in cold.curves.iter().zip(warm.curves.iter()) {
        assert_eq!(a.arrival, b.arrival);
        assert_eq!(a.service, b.service);
        assert_eq!(a.departure, b.departure);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scale sweeps through one session match per-step cold analyses.
    #[test]
    fn scale_sweep_matches_cold(
        specs in arb_jobs(),
        factors in prop::collection::vec(0.4f64..2.5, 1..5),
    ) {
        let sys = build_sys(&specs);
        let cfg = AnalysisConfig::default();
        let mut session = AnalysisSession::new(sys.clone(), cfg.clone());
        for &f in &factors {
            session.scale_exec(f);
            let warm = session.analyze_exact().unwrap();
            let cold = analyze_exact_spp(&sys.with_scaled_exec(f), &cfg).unwrap();
            assert_reports_identical(&cold, &warm);
        }
    }

    /// Swapping two priorities on one processor re-analyzes (through the
    /// dirty cone) to exactly the cold result.
    #[test]
    fn priority_swap_matches_cold(specs in arb_jobs(), pick in 0usize..64) {
        let sys = build_sys(&specs);
        let cfg = AnalysisConfig::default();
        let on_p0 = sys.subjobs_on(ProcessorId(0));
        if on_p0.len() < 2 {
            return Ok(());
        }
        let a = on_p0[pick % on_p0.len()];
        let b = on_p0[(pick + 1) % on_p0.len()];
        let (pa, pb) = (sys.subjob(a).priority, sys.subjob(b).priority);

        let mut session = AnalysisSession::new(sys.clone(), cfg.clone());
        session.analyze_exact().unwrap();
        session.set_priority(a, pb);
        session.set_priority(b, pa);
        let warm = session.analyze_exact().unwrap();

        let mut cold_sys = sys.clone();
        cold_sys.set_priority(a, pb);
        cold_sys.set_priority(b, pa);
        let cold = analyze_exact_spp(&cold_sys, &cfg).unwrap();
        assert_reports_identical(&cold, &warm);
    }

    /// Adding then removing a job round-trips bit-for-bit through the
    /// session's row-based curve cache.
    #[test]
    fn add_remove_job_matches_cold(specs in arb_jobs(), exec in 1i64..9, period in 30i64..91) {
        let sys = build_sys(&specs);
        let cfg = AnalysisConfig::default();
        let new_job = Job {
            name: "TX".into(),
            deadline: Time(2 * period),
            arrival: ArrivalPattern::Periodic { period: Time(period), offset: Time::ZERO },
            subjobs: vec![Subjob {
                processor: ProcessorId(0),
                exec: Time(exec),
                priority: Some(1000), // below every generated priority
                weight: None,
            }],
        };

        let mut session = AnalysisSession::new(sys.clone(), cfg.clone());
        session.analyze_exact().unwrap();
        let id = session.add_job(new_job.clone());
        prop_assert_eq!(id, JobId(specs.len()));
        let warm = session.analyze_exact().unwrap();
        let mut cold_sys = sys.clone();
        cold_sys.push_job(new_job);
        assert_reports_identical(&analyze_exact_spp(&cold_sys, &cfg).unwrap(), &warm);

        session.remove_job(id);
        let warm = session.analyze_exact().unwrap();
        assert_reports_identical(&analyze_exact_spp(&sys, &cfg).unwrap(), &warm);
    }

    /// A memoized fixpoint re-run — of the unchanged system, which copies
    /// every subjob's bounds, and of a *different* scale under a pinned
    /// frame, which drops the memo — reproduces the cold bounds exactly.
    #[test]
    fn warm_fixpoint_matches_cold(specs in arb_jobs(), factor in 0.5f64..2.0) {
        let sys = build_sys(&specs);
        let cfg = AnalysisConfig {
            arrival_window: Some(Time(400)),
            horizon: Some(Time(1600)),
            ..AnalysisConfig::default()
        };
        let rounds = 24;
        let n = sys.all_subjobs().count() as u64;
        let cold = analyze_with_loops(&sys, &cfg, rounds).unwrap();
        let mut session = AnalysisSession::pinned(sys.clone(), cfg.clone());
        let first = session.analyze_with_loops(rounds).unwrap();
        prop_assert_eq!(format!("{cold}"), format!("{first}"));
        let before = session.stats();
        let warm = session.analyze_with_loops(rounds).unwrap();
        prop_assert_eq!(format!("{cold}"), format!("{warm}"));
        prop_assert_eq!(session.stats().subjobs_reused - before.subjobs_reused, n);

        // Cross-scale: the memo of the base system, the scaled system
        // analyzed.
        session.scale_exec(factor);
        let cold2 = analyze_with_loops(&sys.with_scaled_exec(factor), &cfg, rounds).unwrap();
        let warm2 = session.analyze_with_loops(rounds).unwrap();
        prop_assert_eq!(format!("{cold2}"), format!("{warm2}"));
    }

    /// Bursty (trace-release) workloads through a warm session: scale
    /// sweeps and a priority swap stay bit-identical to cold analyses.
    /// Bursts stress the dirty cone differently from periodic releases —
    /// arrival curves are irregular steps, so any stale cached curve shows
    /// up immediately as a divergent service or departure function.
    #[test]
    fn bursty_session_matches_cold(
        specs in arb_bursty_jobs(),
        factors in prop::collection::vec(0.4f64..2.5, 1..4),
        pick in 0usize..64,
    ) {
        let sys = build_bursty_sys(&specs);
        let cfg = AnalysisConfig {
            arrival_window: Some(Time(240)),
            ..AnalysisConfig::default()
        };
        let mut session = AnalysisSession::new(sys.clone(), cfg.clone());
        for &f in &factors {
            session.scale_exec(f);
            let warm = session.analyze_exact().unwrap();
            let cold = analyze_exact_spp(&sys.with_scaled_exec(f), &cfg).unwrap();
            assert_reports_identical(&cold, &warm);
        }

        // Follow the sweep with a priority swap on P0 (if it hosts ≥ 2
        // subjobs) so the cone re-analysis also runs on bursty curves.
        let on_p0 = sys.subjobs_on(ProcessorId(0));
        if on_p0.len() >= 2 {
            let last = *factors.last().unwrap();
            let a = on_p0[pick % on_p0.len()];
            let b = on_p0[(pick + 1) % on_p0.len()];
            let (pa, pb) = (sys.subjob(a).priority, sys.subjob(b).priority);
            session.set_priority(a, pb);
            session.set_priority(b, pa);
            let warm = session.analyze_exact().unwrap();

            let mut cold_sys = sys.with_scaled_exec(last);
            cold_sys.set_priority(a, pb);
            cold_sys.set_priority(b, pa);
            let cold = analyze_exact_spp(&cold_sys, &cfg).unwrap();
            assert_reports_identical(&cold, &warm);
        }
    }

    /// The session bisection (verdict memo + in-place scaling) lands on the
    /// same critical scale as a hand-rolled cold bisection.
    #[test]
    fn session_bisection_matches_cold_bisection(specs in arb_jobs()) {
        let sys = build_sys(&specs);
        let cfg = AnalysisConfig::default();
        let iters = 10;

        // Cold reference: clone + full analysis per probe.
        let probe = |f: f64| -> bool {
            analyze_exact_spp(&sys.with_scaled_exec(f), &cfg)
                .map(|r| r.all_schedulable())
                .unwrap_or(false)
        };
        let cold = {
            let (mut lo, mut hi) = (1.0 / 64.0, 64.0);
            if !probe(lo) {
                None
            } else if probe(hi) {
                Some(hi)
            } else {
                for _ in 0..iters {
                    let mid = 0.5 * (lo + hi);
                    if probe(mid) { lo = mid } else { hi = mid }
                }
                Some(lo)
            }
        };

        let mut session = AnalysisSession::new(sys.clone(), cfg.clone());
        let warm = session.critical_scaling(Oracle::Exact, iters).unwrap();
        prop_assert_eq!(cold, warm);
    }
}
