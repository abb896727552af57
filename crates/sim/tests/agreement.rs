//! Simulator ↔ analysis agreement.
//!
//! These tests are the workspace's ground-truth check of the ICPP'98
//! theorems as implemented:
//!
//! * Theorem 1/2/3 (exact SPP): simulated per-instance end-to-end response
//!   times must **equal** the analysis on the same trace, and the observed
//!   service functions must equal the analytic Theorem 3 curves tick by
//!   tick.
//! * Theorem 4/5/6 (SPNP) and 7/8/9 (FCFS): simulated responses must never
//!   exceed the end-to-end bounds where those are sound (conservative SPNP
//!   variant; FCFS at the first hop), and the approximation quality of the
//!   remaining paths (paper-verbatim SPNP, multi-hop FCFS) is measured and
//!   pinned — see DESIGN.md §5.
//! * Section 6 fixed point ([`analyze_with_loops`], the daemon's verdict
//!   oracle for every tenant that is not all-SPP): the same dominance
//!   where it holds, and its one documented exception pinned.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_core::fixpoint::analyze_with_loops;
use rta_core::service::DEFAULT_MAX_ROUNDS;
use rta_core::{analyze_bounds, analyze_exact_spp, AnalysisConfig, BoundsReport, SpnpAvailability};
#[cfg(feature = "trace")]
use rta_curves::Time;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{distributions::Dist, JobId, SchedulerKind, TaskSystem};
#[cfg(feature = "trace")]
use rta_model::{ArrivalPattern, SubjobRef, SystemBuilder};
use rta_sim::{simulate, SimConfig};

fn shop(scheduler: SchedulerKind, stages: usize, utilization: f64, bursty: bool) -> ShopConfig {
    ShopConfig {
        stages,
        procs_per_stage: 2,
        n_jobs: 5,
        scheduler,
        utilization,
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
        ticks_per_unit: 100,
    }
}

fn prepared(cfg: &ShopConfig, seed: u64) -> TaskSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = generate(cfg, &mut rng).expect("valid shop");
    if cfg.scheduler.uses_priorities() {
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    }
    sys
}

fn resolved(sys: &TaskSystem) -> (AnalysisConfig, SimConfig) {
    let acfg = AnalysisConfig::default();
    let (window, horizon) = acfg.resolve(sys);
    (acfg, SimConfig { window, horizon })
}

#[test]
fn exact_spp_equals_simulation_periodic() {
    for seed in 0..60 {
        for (stages, util) in [(1, 0.4), (1, 0.8), (2, 0.5), (3, 0.6), (2, 0.9)] {
            let sys = prepared(&shop(SchedulerKind::Spp, stages, util, false), seed);
            let (acfg, scfg) = resolved(&sys);
            let report = analyze_exact_spp(&sys, &acfg).unwrap();
            let sim = simulate(&sys, &scfg);
            for (k, jr) in report.jobs.iter().enumerate() {
                let job = JobId(k);
                assert_eq!(jr.responses.len(), sim.instances(job), "seed {seed}");
                for m in 1..=sim.instances(job) {
                    assert_eq!(
                        jr.responses[m - 1],
                        sim.response(job, m),
                        "seed {seed} stages {stages} util {util} job {k} instance {m}"
                    );
                }
            }
        }
    }
}

#[test]
fn exact_spp_equals_simulation_bursty() {
    for seed in 100..140 {
        for (stages, util) in [(1, 0.6), (2, 0.5), (3, 0.7)] {
            let sys = prepared(&shop(SchedulerKind::Spp, stages, util, true), seed);
            let (acfg, scfg) = resolved(&sys);
            let report = analyze_exact_spp(&sys, &acfg).unwrap();
            let sim = simulate(&sys, &scfg);
            for (k, jr) in report.jobs.iter().enumerate() {
                let job = JobId(k);
                for m in 1..=sim.instances(job) {
                    assert_eq!(
                        jr.responses[m - 1],
                        sim.response(job, m),
                        "seed {seed} stages {stages} job {k} instance {m}"
                    );
                }
            }
        }
    }
}

#[cfg(feature = "trace")]
#[test]
fn exact_spp_service_curves_match_observed() {
    for seed in 0..20 {
        let sys = prepared(&shop(SchedulerKind::Spp, 2, 0.7, false), seed);
        let (acfg, scfg) = resolved(&sys);
        let report = analyze_exact_spp(&sys, &acfg).unwrap();
        let sim = simulate(&sys, &scfg);
        for (i, r) in sys.all_subjobs().enumerate() {
            let analytic = &report.curves[i].service;
            let observed = sim.observed_service(r);
            // Compare on a coarse grid plus all analytic breakpoints.
            let mut points: Vec<Time> = analytic
                .view()
                .starts()
                .iter()
                .map(|&t| Time(t))
                .filter(|t| *t <= scfg.horizon)
                .collect();
            points.extend((0..=20).map(|i| scfg.horizon * i / 20));
            for t in points {
                assert_eq!(
                    analytic.eval(t),
                    observed.eval(t),
                    "seed {seed} subjob {r} at t={t}"
                );
            }
        }
    }
}

/// Every subjob's simulated cumulative service is at or above its
/// analytic lower bound `S̲` (`lower_service_curves`) at every tick of
/// `[0, horizon]`.
#[cfg(feature = "trace")]
fn assert_lower_service_dominated(sys: &TaskSystem, what: &str) {
    let (acfg, scfg) = resolved(sys);
    let lower = rta_core::bounds::lower_service_curves(sys, &acfg).unwrap();
    let sim = simulate(sys, &scfg);
    for (i, r) in sys.all_subjobs().enumerate() {
        let observed = sim.observed_service(r);
        for t in (0..=scfg.horizon.ticks()).map(Time) {
            assert!(
                observed.eval(t) >= lower[i].eval(t),
                "{what}: subjob {r} at t={t}: served {} < S̲ {}",
                observed.eval(t),
                lower[i].eval(t)
            );
        }
    }
}

/// A periodic IWRR flow: `(exec, period, offset, weight)`.
#[cfg(feature = "trace")]
type Flow = (i64, i64, i64, u32);

/// One IWRR processor with the given flows, in round order.
#[cfg(feature = "trace")]
fn iwrr_processor(flows: &[Flow]) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p = b.add_processor("P", SchedulerKind::Iwrr);
    for (k, &(exec, period, offset, weight)) in flows.iter().enumerate() {
        let job = b.add_job(
            format!("F{k}"),
            Time(4 * period),
            ArrivalPattern::Periodic {
                period: Time(period),
                offset: Time(offset),
            },
            vec![(p, Time(exec))],
        );
        b.set_weight(SubjobRef { job, index: 0 }, weight);
    }
    b.build().unwrap()
}

#[cfg(feature = "trace")]
#[test]
fn iwrr_service_curves_dominate_lower_bounds() {
    // The IWRR guarantee checked where it is stated, on service curves
    // rather than end-to-end responses: equal and unequal weights,
    // synchronous and staggered releases.
    let cases: [(&str, &[Flow]); 4] = [
        (
            "equal, synchronous",
            &[(3, 20, 0, 1), (2, 20, 0, 1), (4, 30, 0, 1)],
        ),
        (
            "unequal, synchronous",
            &[(2, 24, 0, 1), (3, 24, 0, 2), (1, 16, 0, 3)],
        ),
        (
            "equal, staggered",
            &[(3, 20, 0, 1), (2, 20, 5, 1), (4, 30, 11, 1)],
        ),
        (
            "unequal, staggered",
            &[(2, 24, 3, 2), (3, 36, 0, 1), (1, 12, 7, 3)],
        ),
    ];
    for (what, flows) in cases {
        assert_lower_service_dominated(&iwrr_processor(flows), what);
    }
    // A tagged flow released at every offset across two rounds of its
    // backlogged peers, so some release lands just after the round has
    // passed its turn and waits for every other quantum.
    let round: i64 = 2 + 2 * 3 + 4;
    for offset in 0..2 * round {
        let flows = [
            (2, 40, 0, 1),
            (2, 40, offset, 1),
            (3, 40, 0, 2),
            (4, 40, 0, 1),
        ];
        assert_lower_service_dominated(&iwrr_processor(&flows), &format!("tagged +{offset}"));
    }
    // Generated single-stage shops with weights 1–3.
    for seed in 0..10u64 {
        let mut sys = prepared(&shop(SchedulerKind::Iwrr, 1, 0.7, seed % 2 == 1), seed);
        let subjobs: Vec<_> = sys.all_subjobs().collect();
        for r in subjobs {
            sys.set_weight(r, Some((r.job.0 as u32 + seed as u32) % 3 + 1));
        }
        assert_lower_service_dominated(&sys, &format!("shop seed {seed}"));
    }
}

/// Count (violations, instances, worst excess ratio) of simulated responses
/// above the Theorem 4 bound.
fn violation_stats(
    scheduler: SchedulerKind,
    variant: SpnpAvailability,
    seeds: std::ops::Range<u64>,
    cases: &[(usize, f64)],
    bursty: bool,
) -> (usize, usize, f64) {
    violation_stats_of(
        |sys, acfg| analyze_bounds(sys, acfg).unwrap(),
        scheduler,
        variant,
        seeds,
        cases,
        bursty,
    )
}

/// [`violation_stats`] against the bounds of any analysis.
fn violation_stats_of(
    analyze: impl Fn(&TaskSystem, &AnalysisConfig) -> BoundsReport,
    scheduler: SchedulerKind,
    variant: SpnpAvailability,
    seeds: std::ops::Range<u64>,
    cases: &[(usize, f64)],
    bursty: bool,
) -> (usize, usize, f64) {
    let (mut bad, mut total) = (0usize, 0usize);
    let mut worst_ratio = 0f64;
    for seed in seeds {
        for &(stages, util) in cases {
            let sys = prepared(&shop(scheduler, stages, util, bursty), seed);
            let acfg = AnalysisConfig {
                spnp_availability: variant,
                ..Default::default()
            };
            let (window, horizon) = acfg.resolve(&sys);
            let report = analyze(&sys, &acfg);
            let sim = simulate(&sys, &SimConfig { window, horizon });
            for (k, jb) in report.jobs.iter().enumerate() {
                let Some(bound) = jb.e2e_bound else { continue };
                let job = JobId(k);
                for m in 1..=sim.instances(job) {
                    if let Some(resp) = sim.response(job, m) {
                        total += 1;
                        if resp > bound {
                            bad += 1;
                            worst_ratio =
                                worst_ratio.max(resp.ticks() as f64 / bound.ticks().max(1) as f64);
                        }
                    }
                }
            }
        }
    }
    (bad, total, worst_ratio)
}

#[test]
fn all_policies_bounds_dominate_bursty_single_stage() {
    // Registry-driven: every policy the kernel layer registers must produce
    // end-to-end bounds that dominate simulation on a bursty single-stage
    // shop. Single-stage because that is where every discipline's bound is
    // sound — multi-hop FCFS/IWRR chains are documented approximations
    // (measured by the *_is_a_good_approximation tests below).
    for policy in rta_core::policy::all_policies() {
        let kind = policy.kind();
        let (bad, total, worst) = violation_stats(
            kind,
            SpnpAvailability::Conservative,
            0..10,
            &[(1, 0.6)],
            true,
        );
        assert!(total > 0, "{kind:?}: no bounded instances simulated");
        assert_eq!(
            bad, 0,
            "{kind:?}: {bad}/{total} bursty instances exceeded the bound (worst {worst:.3}×)"
        );
    }
}

#[test]
fn spnp_conservative_bounds_dominate_simulation() {
    // With the conservative availability increments the SPNP bounds are
    // sound at every stage count we exercise.
    let (bad, total, _) = violation_stats(
        SchedulerKind::Spnp,
        SpnpAvailability::Conservative,
        0..40,
        &[(1, 0.5), (2, 0.6), (3, 0.4)],
        false,
    );
    assert!(total > 3_000, "coverage: {total}");
    assert_eq!(bad, 0, "{bad}/{total} violations");
}

#[test]
fn spp_bounds_dominate_simulation() {
    // The bounds path treats SPP as SPNP with zero blocking; its Theorem 4
    // sums must still dominate the true (simulated = exact) responses.
    let (bad, total, _) = violation_stats(
        SchedulerKind::Spp,
        SpnpAvailability::Conservative,
        0..40,
        &[(1, 0.5), (2, 0.6), (3, 0.4)],
        false,
    );
    assert!(total > 3_000, "coverage: {total}");
    assert_eq!(bad, 0, "{bad}/{total} violations");
}

#[test]
fn fcfs_bounds_dominate_simulation_single_stage() {
    // At the first hop arrivals are exact, so the Theorem 8 frontier
    // argument is a true pointwise bound.
    let (bad, total, _) = violation_stats(
        SchedulerKind::Fcfs,
        SpnpAvailability::Conservative,
        0..60,
        &[(1, 0.4), (1, 0.7), (1, 0.9)],
        false,
    );
    assert!(total > 3_000, "coverage: {total}");
    assert_eq!(bad, 0, "{bad}/{total} violations");
}

#[test]
fn as_printed_spnp_variant_can_underestimate() {
    // Regression-documented finding: Equations 16–19 taken verbatim (one
    // availability curve at both ends of the busy-period candidate) are not
    // a sound lower service bound — interference increments are
    // under-counted. This is why `SpnpAvailability::Conservative` is the
    // default. The paper frames SPNP/App as an approximation (Abstract:
    // "gives a good approximation"); we quantify it.
    let (bad, total, ratio) = violation_stats(
        SchedulerKind::Spnp,
        SpnpAvailability::AsPrinted,
        0..25,
        &[(1, 0.5), (2, 0.6)],
        false,
    );
    assert!(
        bad > 0,
        "expected the verbatim variant to underestimate somewhere"
    );
    // …but it remains a statistically *good* approximation: violations are
    // rare. (Their magnitude is unbounded in adversarial corners — another
    // reason the conservative variant is the default.)
    assert!((bad as f64) < 0.25 * total as f64, "{bad}/{total}");
    assert!(ratio >= 1.0);
}

#[test]
fn fcfs_multi_stage_is_a_good_approximation() {
    // Downstream of hop 1 the FCFS analysis is envelope-relative (the
    // paper's framing); timing anomalies can push a few instances past the
    // bound. Quantify and pin the approximation quality.
    let (bad, total, ratio) = violation_stats(
        SchedulerKind::Fcfs,
        SpnpAvailability::Conservative,
        0..40,
        &[(2, 0.6), (3, 0.4)],
        false,
    );
    assert!(total > 2_000, "coverage: {total}");
    assert!(
        (bad as f64) < 0.05 * total as f64,
        "violation rate too high: {bad}/{total}"
    );
    assert!(ratio < 1.8, "worst excess ratio {ratio}");
}

#[test]
fn iwrr_bounds_dominate_simulation_single_stage() {
    // The policy-seam proof: IWRR reaches the analysis and the simulator
    // purely through `rta_core::policy` — neither driver names it. At the
    // first hop arrivals are exact, so the strict-service-curve bound
    // (quantum per complete round, convolved over the busy period) must
    // dominate every simulated response.
    let (bad, total, _) = violation_stats(
        SchedulerKind::Iwrr,
        SpnpAvailability::Conservative,
        0..40,
        &[(1, 0.4), (1, 0.6), (1, 0.8)],
        false,
    );
    assert!(total > 3_000, "coverage: {total}");
    assert_eq!(bad, 0, "{bad}/{total} violations");
}

#[test]
fn iwrr_bounds_dominate_simulation_bursty_single_stage() {
    let (bad, total, _) = violation_stats(
        SchedulerKind::Iwrr,
        SpnpAvailability::Conservative,
        300..330,
        &[(1, 0.5)],
        true,
    );
    assert!(total > 500, "coverage: {total}");
    assert_eq!(bad, 0, "{bad}/{total} violations");
}

#[test]
fn iwrr_weighted_bounds_dominate_simulation() {
    // Non-unit weights stretch the round and quantum differently per flow;
    // the analytic guarantee must still dominate observed responses.
    for seed in 0..25u64 {
        let mut sys = prepared(&shop(SchedulerKind::Iwrr, 1, 0.6, false), seed);
        let subjobs: Vec<_> = sys.all_subjobs().collect();
        for r in subjobs {
            sys.set_weight(r, Some(r.job.0 as u32 % 3 + 1));
        }
        let (acfg, scfg) = resolved(&sys);
        let report = analyze_bounds(&sys, &acfg).unwrap();
        let sim = simulate(&sys, &scfg);
        for (k, jb) in report.jobs.iter().enumerate() {
            let Some(bound) = jb.e2e_bound else { continue };
            let job = JobId(k);
            for m in 1..=sim.instances(job) {
                if let Some(resp) = sim.response(job, m) {
                    assert!(
                        resp <= bound,
                        "seed {seed} job {k} instance {m}: simulated {resp} > bound {bound}"
                    );
                }
            }
        }
    }
}

#[test]
fn iwrr_multi_stage_is_a_good_approximation() {
    // Downstream hops are envelope-relative, as for FCFS; quantify and pin
    // the approximation quality of the round-robin pipeline.
    let (bad, total, ratio) = violation_stats(
        SchedulerKind::Iwrr,
        SpnpAvailability::Conservative,
        0..25,
        &[(2, 0.5)],
        false,
    );
    assert!(total > 500, "coverage: {total}");
    assert!(
        (bad as f64) <= 0.05 * total as f64,
        "violation rate too high: {bad}/{total}"
    );
    assert!(ratio < 1.8, "worst excess ratio {ratio}");
}

#[test]
fn bursty_bounds_quality() {
    for scheduler in [SchedulerKind::Spnp, SchedulerKind::Fcfs] {
        let (bad, total, ratio) = violation_stats(
            scheduler,
            SpnpAvailability::Conservative,
            300..330,
            &[(2, 0.5)],
            true,
        );
        assert!(total > 1_000, "coverage: {total}");
        assert!(
            (bad as f64) <= 0.05 * total as f64,
            "{scheduler}: violation rate {bad}/{total}"
        );
        assert!(ratio < 1.6, "{scheduler}: worst excess ratio {ratio}");
    }
}

/// The daemon's fixed-point oracle, at the service's round budget.
fn fixpoint(sys: &TaskSystem, acfg: &AnalysisConfig) -> BoundsReport {
    analyze_with_loops(sys, acfg, DEFAULT_MAX_ROUNDS).unwrap()
}

#[test]
fn fixpoint_bounds_dominate_simulation() {
    // Where the one-pass bounds are sound, the Section 6 fixed point must
    // be too: conservative SPNP at one to three stages, and FCFS and IWRR
    // at a single stage (exact first-hop arrivals), periodic and bursty.
    let cases: [(SchedulerKind, &[(usize, f64)]); 3] = [
        (SchedulerKind::Spnp, &[(1, 0.5), (2, 0.6), (3, 0.4)]),
        (SchedulerKind::Fcfs, &[(1, 0.4), (1, 0.7), (1, 0.9)]),
        (SchedulerKind::Iwrr, &[(1, 0.4), (1, 0.6), (1, 0.8)]),
    ];
    for (kind, stages) in cases {
        for (bursty, seeds) in [(false, 0..30), (true, 300..330)] {
            let (bad, total, worst) = violation_stats_of(
                fixpoint,
                kind,
                SpnpAvailability::Conservative,
                seeds,
                stages,
                bursty,
            );
            assert!(total > 1_000, "{kind:?} bursty={bursty}: coverage {total}");
            assert_eq!(
                bad, 0,
                "{kind:?} bursty={bursty}: {bad}/{total} instances exceeded the \
                 fixed-point bound (worst {worst:.3}×)"
            );
        }
    }
}

#[test]
fn fixpoint_can_underestimate_multi_stage_spp() {
    // Regression-documented finding (DESIGN.md §5, finding 4): on
    // multi-stage all-SPP shops the fixed point's cycle-free envelopes —
    // the primary arrivals shifted by the upstream minimum processing —
    // can bound a job below its exact (= simulated) worst-case response
    // time, e.g. 57 against an exact 60 for job 3 of seed 5 at two stages.
    // The daemon uses this oracle for all-SPP tenants only when their
    // topology is cyclic. The shift vanishes at a single stage, so only two
    // and three stages are counted here.
    for stages in [2usize, 3] {
        let (bad, total, worst) = violation_stats_of(
            fixpoint,
            SchedulerKind::Spp,
            SpnpAvailability::Conservative,
            0..40,
            &[(stages, 0.6)],
            false,
        );
        assert!(total > 1_000, "{stages} stages: coverage {total}");
        assert!(
            bad > 0,
            "{stages} stages: expected the fixed point to underestimate somewhere"
        );
        // Rare and modest where it happens.
        assert!((bad as f64) < 0.05 * total as f64, "{bad}/{total}");
        assert!(worst < 2.0, "worst excess ratio {worst}");
    }
}
