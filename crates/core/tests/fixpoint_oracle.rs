//! Oracle suite for the loops fixpoint's evaluation order and for the
//! warm session's reuse, on the proptest shim:
//!
//! * (a) production `analyze_with_loops`, which evaluates each subjob once
//!   in priority order, equals the Jacobi rounds of
//!   `support::analyze_with_loops_aos_reference` — whole report, `Ok` or
//!   `Err` — at every budget from 1 to 8, on job shops under all four
//!   policies, mixed-scheduler systems with physical and logical loops,
//!   and figure-eights, periodic and bursty. A coverage floor pins that
//!   enough cases have a priority chain at least as deep as the budget,
//!   where the driver reads earlier-round iterates;
//! * (b) after every delta of a random sequence (add, remove, scale,
//!   priority move, arrival change), with candidates placed above, between
//!   and below the residents, a warm session's report and verdict equal a
//!   cold analysis of the same system under both oracles;
//! * (c) on an SPP session, a lowest-priority one-hop candidate recomputes
//!   exactly one subjob, and removing it recomputes none.

mod support;

use proptest::test_runner::{ProptestConfig, TestRng, TestRunner};
use proptest::{prop_assert, prop_assert_eq};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rta_core::fixpoint::analyze_with_loops;
use rta_core::sensitivity::Oracle;
use rta_core::{analyze_exact_spp, AnalysisConfig, AnalysisSession};
use rta_curves::Time;
use rta_model::distributions::Dist;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{
    ArrivalPattern, Job, JobId, ProcessorId, SchedulerKind, Subjob, SubjobRef, SystemBuilder,
    TaskSystem,
};
use support::analyze_with_loops_aos_reference;

const POLICIES: [SchedulerKind; 4] = [
    SchedulerKind::Spp,
    SchedulerKind::Spnp,
    SchedulerKind::Fcfs,
    SchedulerKind::Iwrr,
];

/// A job shop of the paper's evaluation: 1–3 stages of 1–2 processors, 2–12
/// jobs, one policy throughout, periodic (Eq. 25) or bursty (Eq. 27).
fn random_shop(rng: &mut TestRng) -> TaskSystem {
    let kind = POLICIES[rng.gen_range(0..POLICIES.len())];
    let stages = rng.gen_range(1..4usize);
    let cfg = ShopConfig {
        stages,
        procs_per_stage: rng.gen_range(1..3usize),
        n_jobs: rng.gen_range(2..13usize),
        scheduler: kind,
        utilization: [0.3, 0.6, 0.85][rng.gen_range(0..3usize)],
        arrivals: if rng.gen_bool(0.5) {
            ShopArrivals::Bursty {
                deadline: Dist::Exponential { mean: 6.0 },
            }
        } else {
            ShopArrivals::Periodic {
                deadline_factor: 2.0 * stages as f64,
            }
        },
        x_min: 0.25,
        ticks_per_unit: 20,
    };
    let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(rng.gen())).expect("valid shop");
    if kind.uses_priorities() {
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    }
    sys
}

/// A periodic or trace-burst arrival pattern.
fn random_arrival(rng: &mut TestRng) -> ArrivalPattern {
    if rng.gen_bool(0.5) {
        let mut ts: Vec<Time> = (0..rng.gen_range(1..5usize))
            .map(|_| Time(rng.gen_range(0..50i64)))
            .collect();
        ts.sort_unstable();
        ArrivalPattern::Trace(ts)
    } else {
        ArrivalPattern::Periodic {
            period: Time(rng.gen_range(20..81i64)),
            offset: Time::ZERO,
        }
    }
}

/// Processors of every policy (a second SPNP one too) and 2–6 jobs routed
/// through any of them, revisits and crossings included — so physical and
/// logical loops occur — with weights on every hop.
fn random_mixed(rng: &mut TestRng) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let kinds = [
        SchedulerKind::Spp,
        SchedulerKind::Spnp,
        SchedulerKind::Fcfs,
        SchedulerKind::Iwrr,
        SchedulerKind::Spnp,
    ];
    let procs: Vec<_> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| b.add_processor(format!("P{i}"), kind))
        .collect();
    let mut weights = Vec::new();
    for k in 0..rng.gen_range(2..7usize) {
        let hops: Vec<_> = (0..rng.gen_range(1..5usize))
            .map(|_| {
                (
                    procs[rng.gen_range(0..procs.len())],
                    Time(rng.gen_range(1..7i64)),
                )
            })
            .collect();
        let n_hops = hops.len();
        // Distinct deadlines keep the deadline-monotonic assignment unique.
        let arrival = random_arrival(rng);
        let id = b.add_job(format!("T{k}"), Time(300 + 10 * k as i64), arrival, hops);
        for index in 0..n_hops {
            weights.push((SubjobRef { job: id, index }, rng.gen_range(1..4u32)));
        }
    }
    for (r, w) in weights {
        b.set_weight(r, w);
    }
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

/// The crossed-priority figure-eight: 2–5 two-hop jobs between two
/// static-priority processors, alternating direction, every second hop
/// above every first hop on its processor — a logical loop.
fn random_figure_eight(rng: &mut TestRng) -> TaskSystem {
    let kind = [SchedulerKind::Spp, SchedulerKind::Spnp][rng.gen_range(0..2usize)];
    let mut b = SystemBuilder::new();
    let p = [b.add_processor("P1", kind), b.add_processor("P2", kind)];
    let mut prios = Vec::new();
    for k in 0..rng.gen_range(2..6usize) {
        let (a, c) = (p[k % 2], p[(k + 1) % 2]);
        let id = b.add_job(
            format!("T{k}"),
            Time(400),
            random_arrival(rng),
            vec![
                (a, Time(rng.gen_range(1..6i64))),
                (c, Time(rng.gen_range(1..6i64))),
            ],
        );
        prios.push((SubjobRef { job: id, index: 0 }, 100 + k as u32));
        prios.push((SubjobRef { job: id, index: 1 }, 1 + k as u32));
    }
    for (r, prio) in prios {
        b.set_priority(r, prio);
    }
    b.build().unwrap()
}

/// The longest higher-priority chain of any subjob: its number of
/// higher-priority peers, priorities being strict per processor.
fn max_depth(sys: &TaskSystem) -> usize {
    sys.all_subjobs()
        .filter(|&r| {
            let p = sys.subjob(r).processor;
            sys.processor(p).scheduler.uses_priorities()
        })
        .map(|r| sys.higher_priority_peers(r).len())
        .max()
        .unwrap_or(0)
}

fn window_cfg() -> AnalysisConfig {
    AnalysisConfig {
        arrival_window: Some(Time(160)),
        ..AnalysisConfig::default()
    }
}

#[test]
fn production_equals_the_jacobi_reference_at_every_budget() {
    let mut pairs = 0usize;
    let mut truncated = 0usize;
    let mut runner = TestRunner::new(ProptestConfig::with_cases(160));
    runner.run_cases("production_equals_the_jacobi_reference", |rng| {
        let (sys, cfg) = match rng.gen_range(0..3usize) {
            0 => (random_shop(rng), AnalysisConfig::default()),
            1 => (random_mixed(rng), window_cfg()),
            _ => (random_figure_eight(rng), window_cfg()),
        };
        let depth = max_depth(&sys);
        for rounds in 1..=8 {
            let production = analyze_with_loops(&sys, &cfg, rounds);
            let reference = analyze_with_loops_aos_reference(&sys, &cfg, rounds);
            prop_assert_eq!(
                format!("{production:?}"),
                format!("{reference:?}"),
                "rounds {}",
                rounds
            );
            pairs += 1;
            truncated += usize::from(depth >= rounds);
        }
        Ok(())
    });
    // At least a sixth of the (system, budget) pairs must exercise the
    // earlier-round iterates of chains the budget truncates.
    assert!(
        truncated * 6 >= pairs,
        "only {truncated} of {pairs} pairs have a chain reaching the budget"
    );
}

/// Errors are part of the report: a static-priority subjob without a
/// priority fails validation identically in both drivers, at every budget.
#[test]
fn errors_match_the_reference() {
    let mut b = SystemBuilder::new();
    let p = b.add_processor("P1", SchedulerKind::Spnp);
    b.add_job(
        "T1",
        Time(100),
        ArrivalPattern::Periodic {
            period: Time(50),
            offset: Time::ZERO,
        },
        vec![(p, Time(5))],
    );
    let sys = b.build().unwrap();
    for rounds in 1..=8 {
        let production = analyze_with_loops(&sys, &AnalysisConfig::default(), rounds);
        assert!(production.is_err());
        let reference = analyze_with_loops_aos_reference(&sys, &AnalysisConfig::default(), rounds);
        assert_eq!(format!("{production:?}"), format!("{reference:?}"));
    }
}

/// A warm session under one oracle, with the bookkeeping the random deltas
/// need.
struct Walk {
    session: AnalysisSession,
    oracle: Oracle,
    /// Whether routes must stay acyclic (the exact oracle refuses cycles).
    acyclic: bool,
    next_name: usize,
}

impl Walk {
    fn sys(&self) -> &TaskSystem {
        self.session.system()
    }

    /// A fresh priority on `p` in a random gap of the priorities already
    /// there (`taken` adds ones not yet in the system): above, between or
    /// below the residents.
    fn free_priority(&self, rng: &mut TestRng, p: ProcessorId, taken: &[u32]) -> Option<u32> {
        if !self.sys().processor(p).scheduler.uses_priorities() {
            return None;
        }
        let mut used: Vec<u32> = self
            .sys()
            .subjobs_on(p)
            .iter()
            .filter_map(|&r| self.sys().subjob(r).priority)
            .chain(taken.iter().copied())
            .collect();
        used.sort_unstable();
        let gap = rng.gen_range(0..used.len() + 1);
        let lo = if gap == 0 { 0 } else { used[gap - 1] };
        let hi = used.get(gap).copied().unwrap_or(lo + 2_000);
        Some(if hi - lo >= 2 {
            lo + (hi - lo) / 2
        } else {
            used.last().copied().unwrap_or(0) + 1_000
        })
    }

    fn random_job(&mut self, rng: &mut TestRng) -> Job {
        let n_procs = self.sys().processors().len();
        let mut procs: Vec<usize> = (0..rng.gen_range(1..4usize))
            .map(|_| rng.gen_range(0..n_procs))
            .collect();
        if self.acyclic {
            procs.sort_unstable();
            procs.dedup();
        }
        let mut subjobs: Vec<Subjob> = Vec::new();
        for &p in &procs {
            let p = ProcessorId(p);
            let taken: Vec<u32> = subjobs
                .iter()
                .filter(|s| s.processor == p)
                .filter_map(|s| s.priority)
                .collect();
            let priority = self.free_priority(rng, p, &taken);
            subjobs.push(Subjob {
                processor: p,
                exec: Time(rng.gen_range(1..8i64)),
                priority,
                weight: None,
            });
        }
        self.next_name += 1;
        Job {
            name: format!("C{}", self.next_name),
            deadline: Time(rng.gen_range(60..400i64)),
            arrival: random_arrival(rng),
            subjobs,
        }
    }

    /// Apply one random delta.
    fn step(&mut self, rng: &mut TestRng) {
        let jobs = self.sys().jobs().len();
        match rng.gen_range(0..6usize) {
            0 | 1 => {
                let job = self.random_job(rng);
                self.session.add_job(job);
            }
            2 if jobs > 1 => {
                self.session.remove_job(JobId(rng.gen_range(0..jobs)));
            }
            3 => self.session.scale_exec(rng.gen_range(0.5..2.0)),
            4 => {
                let refs: Vec<SubjobRef> = self
                    .sys()
                    .all_subjobs()
                    .filter(|&r| self.sys().subjob(r).priority.is_some())
                    .collect();
                if !refs.is_empty() {
                    let r = refs[rng.gen_range(0..refs.len())];
                    let p = self.sys().subjob(r).processor;
                    let prio = self.free_priority(rng, p, &[]);
                    self.session.set_priority(r, prio);
                }
            }
            _ => {
                let id = JobId(rng.gen_range(0..jobs));
                self.session.set_arrival(id, random_arrival(rng));
            }
        }
    }
}

/// Resident priorities spread ×1000 so candidates fit between them.
fn spread_priorities(sys: &mut TaskSystem) {
    let refs: Vec<SubjobRef> = sys.all_subjobs().collect();
    for r in refs {
        if let Some(p) = sys.subjob(r).priority {
            sys.set_priority(r, Some(p * 1_000));
        }
    }
}

/// Two or three SPP processors, 2–5 jobs on increasing processor routes.
fn random_spp_system(rng: &mut TestRng) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let procs: Vec<_> = (0..rng.gen_range(2..4usize))
        .map(|i| b.add_processor(format!("P{i}"), SchedulerKind::Spp))
        .collect();
    for k in 0..rng.gen_range(2..6usize) {
        let mut hops: Vec<usize> = (0..rng.gen_range(1..4usize))
            .map(|_| rng.gen_range(0..procs.len()))
            .collect();
        hops.sort_unstable();
        hops.dedup();
        let route = hops
            .iter()
            .map(|&p| (procs[p], Time(rng.gen_range(1..6i64))))
            .collect();
        b.add_job(
            format!("T{k}"),
            Time(200 + 10 * k as i64),
            random_arrival(rng),
            route,
        );
    }
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

#[test]
fn warm_sessions_equal_cold_after_every_delta() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(48));
    runner.run_cases("warm_sessions_equal_cold_after_every_delta", |rng| {
        let exact = rng.gen_bool(0.5);
        let mut sys = if exact {
            random_spp_system(rng)
        } else if rng.gen_bool(0.5) {
            random_mixed(rng)
        } else {
            random_figure_eight(rng)
        };
        spread_priorities(&mut sys);
        let cfg = window_cfg();
        let session = if rng.gen_bool(0.7) {
            AnalysisSession::pinned(sys, cfg)
        } else {
            AnalysisSession::new(sys, cfg)
        };
        let mut rounds = rng.gen_range(1..9usize);
        let mut walk = Walk {
            session,
            oracle: if exact {
                Oracle::Exact
            } else {
                Oracle::Loops { max_rounds: rounds }
            },
            acyclic: exact,
            next_name: 0,
        };
        for step in 0..10 {
            if step > 0 {
                walk.step(rng);
            }
            if !exact && rng.gen_bool(0.1) {
                rounds = rng.gen_range(1..9usize);
                walk.oracle = Oracle::Loops { max_rounds: rounds };
            }
            let cfg = walk.session.config();
            let cold = match walk.oracle {
                Oracle::Exact => analyze_exact_spp(walk.sys(), &cfg)
                    .map(|r| (format!("{r:?}"), r.all_schedulable())),
                _ => analyze_with_loops(walk.sys(), &cfg, rounds)
                    .map(|r| (format!("{r:?}"), r.all_schedulable())),
            };
            if rng.gen_bool(0.5) {
                let warm = walk.session.schedulable(walk.oracle);
                prop_assert_eq!(
                    format!("{:?}", warm),
                    format!("{:?}", cold.map(|(_, v)| v)),
                    "verdict after step {}",
                    step
                );
            } else {
                let warm = match walk.oracle {
                    Oracle::Exact => walk.session.analyze_exact().map(|r| format!("{r:?}")),
                    _ => walk
                        .session
                        .analyze_with_loops(rounds)
                        .map(|r| format!("{r:?}")),
                };
                prop_assert_eq!(
                    format!("{:?}", warm),
                    format!("{:?}", cold.map(|(r, _)| r)),
                    "report after step {}",
                    step
                );
            }
        }
        Ok(())
    });
}

#[test]
fn lowest_priority_one_hop_candidate_recomputes_one_subjob() {
    let mut runner = TestRunner::new(ProptestConfig::with_cases(24));
    runner.run_cases("lowest_priority_one_hop_candidate", |rng| {
        let sys = random_spp_system(rng);
        let n = sys.all_subjobs().count() as u64;
        let p = ProcessorId(rng.gen_range(0..sys.processors().len()));
        let lowest = sys
            .subjobs_on(p)
            .iter()
            .filter_map(|&r| sys.subjob(r).priority)
            .max()
            .unwrap_or(0);
        let mut session = AnalysisSession::pinned(sys, window_cfg());
        session.analyze_exact().unwrap();

        let before = session.stats();
        let id = session.add_job(Job {
            name: "probe".into(),
            deadline: Time(500),
            arrival: random_arrival(rng),
            subjobs: vec![Subjob {
                processor: p,
                exec: Time(rng.gen_range(1..6i64)),
                priority: Some(lowest + 1),
                weight: None,
            }],
        });
        let warm = session.schedulable(Oracle::Exact).unwrap();
        let after = session.stats();
        prop_assert_eq!(after.subjobs_recomputed - before.subjobs_recomputed, 1);
        prop_assert_eq!(after.subjobs_reused - before.subjobs_reused, n);
        let cold = analyze_exact_spp(session.system(), &session.config()).unwrap();
        prop_assert!(warm == cold.all_schedulable());

        // Removing it again leaves no subjob below it: nothing recomputes.
        session.remove_job(id);
        session.analyze_exact().unwrap();
        let last = session.stats();
        prop_assert_eq!(last.subjobs_recomputed, after.subjobs_recomputed);
        prop_assert_eq!(last.subjobs_reused - after.subjobs_reused, n);
        Ok(())
    });
}
