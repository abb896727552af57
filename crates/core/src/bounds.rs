//! Approximate end-to-end analysis for heterogeneous systems
//! (Section 4.2: Theorem 4, Lemmas 1 and 2).
//!
//! For schedulers whose exact service functions are out of reach (SPNP,
//! FCFS — and SPP hops inside such systems), the analysis propagates
//! *bounds*: an upper-bounded arrival function into each hop, a service
//! bound pair at the hop, a lower-bounded departure function out of it
//! (Lemma 1), and the next hop's upper-bounded arrival function (Lemma 2).
//! The per-hop worst-case delay is the horizontal deviation of Equation 12,
//!
//! ```text
//! d_{k,j} = max_m ( f̲⁻¹_{k,j,dep}(m) − f̄⁻¹_{k,j,arr}(m) )
//! ```
//!
//! and the end-to-end bound is their sum (Equation 11). The bound is
//! *envelope-relative*: each hop is charged as if its arrivals were the
//! earliest the envelope admits, which dominates every conforming trace —
//! the classical network-calculus delay argument (Cruz).
//!
//! ## Pipeline
//!
//! One topological pass over the subjob dependency DAG runs on the
//! structure-of-arrays workspace the fixpoint driver uses (DESIGN.md §4g),
//! shared through [`crate::fixpoint`]'s per-thread `LoopWorkspace`: dense
//! per-subjob tables, the first-hop envelopes built once from the release
//! times, each later hop's envelope taken by SoA `floor_div` of its
//! upstream upper bound (Lemma 2) as soon as that bound exists, the policy
//! kernel's one bounds method
//! ([`crate::policy::ServicePolicy::service_bounds`]) per node with its
//! higher-priority inputs read straight out of the retained SoA slots, and
//! the Eq. 12 sweep right after each node. [`bounds_schedulable`] runs the
//! same pass and stops at the first job whose partial Eq. 11 sum is
//! unbounded or past its deadline.

use crate::config::AnalysisConfig;
use crate::depgraph::{evaluation_order, SubjobIndex};
use crate::error::AnalysisError;
use crate::fixpoint::{ensure_bounds, ensure_soa_curves, with_workspace, LoopWorkspace};
use crate::policy::{BoundsInputs, PeerInputs};
use crate::report::{BoundsReport, JobBound};
use rta_curves::{SoaCursor, SoaCurve, Time};
use rta_model::{JobId, ProcessorId, TaskSystem};

/// The per-hop worst-case delay of Equation 12: the maximal horizontal
/// deviation `max_m ( f̲⁻¹_dep(m) − f̄⁻¹_arr(m) )` over the first
/// `n_instances` instances, or `None` if any instance is unresolved within
/// the horizon. The sweep is cursor-based: amortized O(1) per instance.
pub(crate) fn hop_delay_soa(
    arr_env: &SoaCurve,
    dep_lower: &SoaCurve,
    n_instances: i64,
) -> Option<Time> {
    let mut arr_cur = SoaCursor::new(arr_env);
    let mut dep_cur = SoaCursor::new(dep_lower);
    let mut d = Time::ZERO;
    for m in 1..=n_instances {
        let early = arr_cur.inverse_at(m)?;
        let late = dep_cur.inverse_at(m)?;
        d = d.max(late - early);
    }
    Some(d)
}

/// The one-pass node sweep on frame `(window, horizon)`: per subjob in
/// dependency order, its service bounds into `ws.cur`, its Eq. 12 delay
/// into `ws.hop`, its successor's Lemma-2 envelope into `ws.arr_env`, and
/// its job's partial Eq. 11 sum into `ws.e2e`.
///
/// With `stop_at_miss` the pass returns `Ok(false)` as soon as some job's
/// partial sum is unbounded or past its deadline — hop delays are
/// nonnegative, so that job can no longer meet it. Otherwise it returns
/// `Ok(true)` once every subjob is done; under `stop_at_miss` that means
/// every job's full sum was checked against its deadline.
fn node_pass(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    window: Time,
    horizon: Time,
    ws: &mut LoopWorkspace,
    stop_at_miss: bool,
) -> Result<bool, AnalysisError> {
    let idx = SubjobIndex::new(sys);
    let order = evaluation_order(sys, &idx)?;
    let n = ws.index_system(sys, &idx);
    ensure_bounds(&mut ws.cur, n);
    ensure_soa_curves(&mut ws.arr_env, n);
    ensure_soa_curves(&mut ws.workload, n);
    ws.hop.clear();
    ws.hop.resize(n, None);
    ws.e2e.clear();
    ws.e2e.resize(sys.jobs().len(), Some(Time::ZERO));

    // First-hop envelopes: the jobs' own arrival patterns. Built up front
    // because shared-workload contexts read peers' envelopes before those
    // peers are evaluated.
    ws.instances.clear();
    for (k, job) in sys.jobs().iter().enumerate() {
        job.arrival.release_times_into(window, &mut ws.times);
        ws.instances.push(ws.times.len() as i64);
        SoaCurve::from_event_times_into(&ws.times, &mut ws.arr_env[ws.job_start[k]]);
    }

    ws.ctxs.clear();
    let LoopWorkspace {
        scratch,
        refs,
        job_start,
        dep_soa,
        arr_env,
        workload,
        policy,
        tau,
        weight,
        blocking,
        processor,
        hp_flat,
        hp_start,
        cur,
        hop,
        instances,
        e2e,
        node,
        ctxs,
        ..
    } = ws;
    for i in order {
        let k = refs[i].job.0;
        let p = ProcessorId(processor[i]);
        // The workload `c̄ = f̄_arr · τ`. On a shared-workload processor the
        // context reads every peer's, so the first node there scales them
        // all: their envelopes are in place, since the peers' predecessors
        // precede this node.
        if policy[i].peer_inputs() == PeerInputs::HigherPriorityServices {
            arr_env[i].scale_into(tau[i].ticks(), &mut workload[i]);
        } else if !ctxs.contains(p) {
            for &j in idx.on(p) {
                arr_env[j].scale_into(tau[j].ticks(), &mut workload[j]);
            }
            let (workload, job_start) = (&*workload, &*job_start);
            ctxs.ensure(sys, p, horizon, &|o| {
                &workload[job_start[o.job.0] + o.index]
            })?;
        }
        let hp = &hp_flat[hp_start[i]..hp_start[i + 1]];
        let hp_lower: Vec<&SoaCurve> = hp.iter().map(|&h| &cur[h].lower).collect();
        let hp_upper: Vec<&SoaCurve> = hp.iter().map(|&h| &cur[h].upper).collect();
        policy[i].service_bounds(
            &BoundsInputs {
                workload: &workload[i],
                tau: tau[i],
                weight: weight[i],
                blocking: blocking[i],
                hp_lower: &hp_lower,
                hp_upper: &hp_upper,
                variant: cfg.spnp_availability,
                ctx: ctxs.get(p),
                horizon,
                processor: p,
            },
            scratch,
            node,
        )?;
        // Retained slots are filled by copy: the kernel's writer sizes its
        // output for the worst case, and that capacity stays in `node`.
        cur[i].lower.copy_from(&node.lower);
        cur[i].upper.copy_from(&node.upper);

        // Lemma 1 departure lower bound, then Lemma 2's envelope for the
        // next hop of the same job.
        node.lower
            .floor_div_into(tau[i].ticks(), horizon, dep_soa)?;
        if i + 1 < n && refs[i + 1].job.0 == k {
            node.upper
                .floor_div_into(tau[i].ticks(), horizon, &mut arr_env[i + 1])?;
        }
        let d = hop_delay_soa(&arr_env[i], dep_soa, instances[k]);
        hop[i] = d;
        e2e[k] = e2e[k].zip(d).map(|(sum, d)| sum + d);
        if stop_at_miss && !matches!(e2e[k], Some(sum) if sum <= sys.job(JobId(k)).deadline) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Per-subjob lower service bounds `S̲` of the one-pass analysis, in
/// [`crate::depgraph::SubjobIndex`] order — the per-hop guarantees that
/// `rta-sim`'s agreement suite checks simulated service against.
pub fn lower_service_curves(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
) -> Result<Vec<SoaCurve>, AnalysisError> {
    sys.validate(true)?;
    let (window, horizon) = cfg.try_resolve(sys)?;
    with_workspace(|ws| {
        node_pass(sys, cfg, window, horizon, ws, false)?;
        Ok(ws.cur[..ws.refs.len()]
            .iter()
            .map(|b| b.lower.clone())
            .collect())
    })
}

/// Run the approximate (bounds) analysis on a system whose processors may
/// mix SPP, SPNP and FCFS scheduling.
pub fn analyze_bounds(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
) -> Result<BoundsReport, AnalysisError> {
    sys.validate(true)?;
    let (window, horizon) = cfg.try_resolve(sys)?;
    with_workspace(|ws| {
        node_pass(sys, cfg, window, horizon, ws, false)?;
        // Equations 11 and 12 per job.
        let jobs = sys
            .jobs()
            .iter()
            .enumerate()
            .map(|(k, job)| {
                let start = ws.job_start[k];
                JobBound {
                    job: JobId(k),
                    hop_delays: ws.hop[start..start + job.subjobs.len()].to_vec(),
                    e2e_bound: ws.e2e[k],
                    deadline: job.deadline,
                }
            })
            .collect();
        Ok(BoundsReport {
            window,
            horizon,
            jobs,
        })
    })
}

/// Verdict-only bounds analysis: `true` iff every job's end-to-end bound
/// is finite and within its deadline. The verdict equals
/// `analyze_bounds(..)?.all_schedulable()` whenever that returns `Ok`, but
/// the pass stops at the first job whose partial hop-delay sum is
/// unbounded or past its deadline and assembles no report — the form the
/// admission sweeps want, where only the verdict survives the set.
pub fn bounds_schedulable(sys: &TaskSystem, cfg: &AnalysisConfig) -> Result<bool, AnalysisError> {
    sys.validate(true)?;
    let (window, horizon) = cfg.try_resolve(sys)?;
    with_workspace(|ws| node_pass(sys, cfg, window, horizon, ws, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::analyze_exact_spp;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    #[test]
    fn consecutive_fcfs_hops_are_refused_as_a_cycle() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job(
            "T1",
            Time(60),
            periodic(30),
            vec![(p, Time(3)), (p, Time(4))],
        );
        b.add_job("T2", Time(60), periodic(20), vec![(p, Time(2))]);
        let sys = b.build().unwrap();
        let cfg = AnalysisConfig::default();
        assert!(matches!(
            analyze_bounds(&sys, &cfg),
            Err(AnalysisError::CyclicDependency { .. })
        ));
        assert!(matches!(
            bounds_schedulable(&sys, &cfg),
            Err(AnalysisError::CyclicDependency { .. })
        ));
    }

    #[test]
    fn single_hop_spp_bound_matches_exact() {
        // On one processor with exact (first-hop) arrivals the bounds method
        // degenerates to the exact service functions.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(5), periodic(5), vec![(p, Time(2))]);
        b.add_job("T2", Time(10), periodic(10), vec![(p, Time(3))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let exact = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            assert!(bound.jobs[k].e2e_bound.unwrap() >= exact.jobs[k].wcrt.unwrap());
        }
        assert_eq!(bound.jobs[0].e2e_bound, Some(Time(2)));
        assert_eq!(bound.jobs[1].e2e_bound, Some(Time(5)));
    }

    #[test]
    fn multi_hop_bound_dominates_exact() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(100),
            periodic(20),
            vec![(p1, Time(2)), (p2, Time(4))],
        );
        b.add_job(
            "T2",
            Time(100),
            periodic(25),
            vec![(p2, Time(3)), (p1, Time(5))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let exact = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            let e = exact.jobs[k].wcrt.unwrap();
            let ub = bound.jobs[k].e2e_bound.unwrap();
            assert!(ub >= e, "job {k}: bound {ub:?} < exact {e:?}");
        }
    }

    #[test]
    fn spnp_blocking_inflates_bound() {
        // T1 (high prio, τ=2) can be blocked by T2 (τ=9) under SPNP.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spnp);
        b.add_job("T1", Time(20), periodic(20), vec![(p, Time(2))]);
        b.add_job("T2", Time(40), periodic(40), vec![(p, Time(9))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        // T1's hop delay includes the 9-tick blocking: ≥ 11.
        assert!(bound.jobs[0].e2e_bound.unwrap() >= Time(11));
    }

    #[test]
    fn fcfs_two_flows() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job("T1", Time(30), periodic(20), vec![(p, Time(4))]);
        b.add_job("T2", Time(30), periodic(20), vec![(p, Time(5))]);
        let sys = b.build().unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        // Simultaneous release: either can wait for the other ⇒ both hop
        // delays ≥ 9 (= 4 + 5), and both bounded within 30.
        for k in 0..2 {
            let d = bound.jobs[k].e2e_bound.unwrap();
            assert!(d >= Time(9), "job {k}: {d:?}");
            assert!(bound.jobs[k].schedulable());
        }
    }

    #[test]
    fn iwrr_two_flows_bounded_without_driver_edits() {
        // IWRR reaches the bounds driver purely through the policy seam:
        // no scheduler-specific code exists in this module.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Iwrr);
        let t1 = b.add_job("T1", Time(60), periodic(20), vec![(p, Time(4))]);
        b.add_job("T2", Time(60), periodic(20), vec![(p, Time(5))]);
        b.set_weight(rta_model::SubjobRef { job: t1, index: 0 }, 2);
        let sys = b.build().unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            let d = bound.jobs[k].e2e_bound.unwrap();
            // A round is L = 2·4 + 1·5 = 13 ticks; service certainly
            // arrives within two rounds plus the instance itself.
            assert!(
                d >= sys
                    .subjob(SubjobRef {
                        job: JobId(k),
                        index: 0
                    })
                    .exec
            );
            assert!(bound.jobs[k].schedulable(), "job {k}: {d:?}");
        }
    }

    #[test]
    fn heterogeneous_pipeline() {
        // SPP → SPNP → FCFS chain plus a competing local job on each hop.
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
        b.add_job("T2", Time(200), periodic(50), vec![(p1, Time(3))]);
        b.add_job("T3", Time(200), periodic(60), vec![(p2, Time(7))]);
        b.add_job("T4", Time(200), periodic(70), vec![(p3, Time(8))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        let j = &bound.jobs[0];
        assert_eq!(j.hop_delays.len(), 3);
        assert!(j.hop_delays.iter().all(Option::is_some));
        // Each hop costs at least its own execution time.
        assert!(j.hop_delays[0].unwrap() >= Time(4));
        assert!(j.hop_delays[1].unwrap() >= Time(5));
        assert!(j.hop_delays[2].unwrap() >= Time(6));
        assert!(j.e2e_bound.unwrap() >= Time(15));
    }

    #[test]
    fn overload_yields_unbounded_hop() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(10), periodic(10), vec![(p, Time(7))]);
        b.add_job("T2", Time(10), periodic(10), vec![(p, Time(7))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        assert!(!bound.all_schedulable());
    }

    #[test]
    fn variant_choice_is_respected() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spnp);
        b.add_job("T1", Time(60), periodic(15), vec![(p, Time(3))]);
        b.add_job("T2", Time(60), periodic(20), vec![(p, Time(4))]);
        b.add_job("T3", Time(60), periodic(30), vec![(p, Time(5))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let printed = analyze_bounds(
            &sys,
            &AnalysisConfig {
                spnp_availability: crate::SpnpAvailability::AsPrinted,
                ..Default::default()
            },
        )
        .unwrap();
        let conserv = analyze_bounds(
            &sys,
            &AnalysisConfig {
                spnp_availability: crate::SpnpAvailability::Conservative,
                ..Default::default()
            },
        )
        .unwrap();
        // The printed variant assumes less interference ⇒ bounds no larger.
        for k in 0..3 {
            let (a, b) = (
                printed.jobs[k].e2e_bound.unwrap(),
                conserv.jobs[k].e2e_bound.unwrap(),
            );
            assert!(a <= b, "job {k}: printed {a:?} > conservative {b:?}");
        }
    }
}
