//! Exact end-to-end analysis for all-SPP systems (Section 4.1).
//!
//! One topological pass over the subjob dependency DAG computes, per
//! subjob, the exact arrival function (first hop: the job's pattern; later
//! hops: the predecessor's departure function, per the direct
//! synchronization protocol `f_{k,j,dep} = f_{k,j+1,arr}`), the exact SPP
//! service function (Theorem 3), and the departure function (Theorem 2).
//! Theorem 1 then reads off the exact worst-case end-to-end response time:
//!
//! ```text
//! d_k = max_m ( f⁻¹_{k,n_k,dep}(m) − f⁻¹_{k,1,arr}(m) )
//! ```

use crate::config::AnalysisConfig;
use crate::depgraph::{evaluation_order, SubjobIndex};
use crate::error::AnalysisError;
use crate::policy::policy_for;
use crate::report::{ExactReport, JobReport, SubjobCurves};
use crate::spp::exact_service_into;
use rta_curves::{Scratch, SoaCursor, SoaCurve, Time};
use rta_model::{JobId, TaskSystem};

/// Check that every processor's policy has an exact theory (today: SPP
/// only, per Theorem 3) — the precondition shared by the exact analysis
/// and [`crate::AnalysisSession`].
pub(crate) fn require_exact_capable(sys: &TaskSystem) -> Result<(), AnalysisError> {
    for (p, proc) in sys.processors().iter().enumerate() {
        if !policy_for(proc.scheduler).supports_exact() {
            return Err(AnalysisError::NotAllSpp {
                processor: rta_model::ProcessorId(p),
            });
        }
    }
    Ok(())
}

/// The arrival, service and departure curves of one subjob on the analysis
/// layout — what the exact path computes and the session caches. Reports
/// convert them once, to [`SubjobCurves`].
#[derive(Clone, Debug)]
pub(crate) struct NodeCurves {
    pub(crate) arrival: SoaCurve,
    pub(crate) service: SoaCurve,
    pub(crate) departure: SoaCurve,
}

/// Compute the arrival/service/departure curves of one subjob from the
/// curves of its dependencies (predecessor hop and higher-priority peers),
/// which must already be present in `curves`. `hop0_arrival` optionally
/// supplies a precomputed pattern curve for first hops (the session's
/// interned pattern cache); it must equal what
/// `arrival.arrival_curve(window)` would build. The caller has checked
/// [`require_exact_capable`].
pub(crate) fn subjob_node_curves(
    sys: &TaskSystem,
    idx: &SubjobIndex,
    i: usize,
    (window, horizon): (Time, Time),
    curves: &[Option<NodeCurves>],
    hop0_arrival: Option<SoaCurve>,
    scratch: &mut Scratch,
) -> Result<NodeCurves, AnalysisError> {
    let r = idx.subjob(i);
    let subjob = sys.subjob(r);
    let arrival = if r.index == 0 {
        hop0_arrival.unwrap_or_else(|| {
            let mut c = SoaCurve::zero();
            SoaCurve::from_event_times_into(&sys.job(r.job).arrival.release_times(window), &mut c);
            c
        })
    } else {
        let pred = rta_model::SubjobRef {
            job: r.job,
            index: r.index - 1,
        };
        curves[idx.index(pred)]
            .as_ref()
            .expect("dependency order")
            .departure
            .clone()
    };
    let mut workload = scratch.take_soa();
    arrival.scale_into(subjob.exec.ticks(), &mut workload);
    let hp_services: Vec<&SoaCurve> = idx
        .higher_priority_peers(sys, i)
        .map(|h| &curves[h].as_ref().expect("dependency order").service)
        .collect();
    let mut service = SoaCurve::zero();
    exact_service_into(&workload, &hp_services, scratch, &mut service);
    scratch.put_soa(workload);
    let mut departure = SoaCurve::zero();
    service.floor_div_into(subjob.exec.ticks(), horizon, &mut departure)?;
    Ok(NodeCurves {
        arrival,
        service,
        departure,
    })
}

/// Theorem-1 report for one job, read off the first hop's arrival and the
/// last hop's departure curves.
pub(crate) fn job_report(
    job_id: JobId,
    deadline: Time,
    first_arrival: &SoaCurve,
    last_departure: &SoaCurve,
) -> JobReport {
    // The arrival curve of a finite window is a bounded step function:
    // its final value counts the instances.
    let n_instances = *first_arrival.view().values().last().expect("non-empty");
    let mut responses = Vec::with_capacity(n_instances as usize);
    let mut wcrt = Some(Time::ZERO);
    // Resumable cursors make the instance sweep amortized O(1) per m.
    let mut arr_cur = SoaCursor::new(first_arrival);
    let mut dep_cur = SoaCursor::new(last_departure);
    for m in 1..=n_instances {
        let release = arr_cur.inverse_at(m).expect("instance within window");
        let resp = dep_cur.inverse_at(m).map(|c| c - release);
        wcrt = match (wcrt, resp) {
            (Some(w), Some(r)) => Some(w.max(r)),
            _ => None,
        };
        responses.push(resp);
    }
    JobReport {
        job: job_id,
        responses,
        wcrt,
        deadline,
    }
}

/// Assemble the per-job Theorem-1 reports from a complete dense curve set,
/// converting the curves to the report layout.
pub(crate) fn assemble_exact_report(
    sys: &TaskSystem,
    idx: &SubjobIndex,
    nodes: &[&NodeCurves],
    window: Time,
    horizon: Time,
) -> ExactReport {
    let mut jobs = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let job_id = JobId(k);
        let first = idx.index(rta_model::SubjobRef {
            job: job_id,
            index: 0,
        });
        let last = idx.index(rta_model::SubjobRef {
            job: job_id,
            index: job.subjobs.len() - 1,
        });
        jobs.push(job_report(
            job_id,
            job.deadline,
            &nodes[first].arrival,
            &nodes[last].departure,
        ));
    }
    ExactReport {
        window,
        horizon,
        jobs,
        curves: nodes
            .iter()
            .map(|n| SubjobCurves {
                arrival: n.arrival.to_curve(),
                service: n.service.to_curve(),
                departure: n.departure.to_curve(),
            })
            .collect(),
    }
}

/// Run the exact SPP analysis.
///
/// Requires every processor to use [`rta_model::SchedulerKind::Spp`] (the
/// only policy with [`crate::policy::ServicePolicy::supports_exact`]) and the subjob
/// dependency relation to be acyclic (no Section 6 loops — see
/// [`crate::fixpoint`] for those).
pub fn analyze_exact_spp(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
) -> Result<ExactReport, AnalysisError> {
    sys.validate(true)?;
    require_exact_capable(sys)?;
    let (window, horizon) = cfg.try_resolve(sys)?;
    let idx = SubjobIndex::new(sys);
    let order = evaluation_order(sys, &idx)?;

    let mut scratch = Scratch::new();
    let mut curves: Vec<Option<NodeCurves>> = vec![None; idx.len()];
    for i in order {
        curves[i] = Some(subjob_node_curves(
            sys,
            &idx,
            i,
            (window, horizon),
            &curves,
            None,
            &mut scratch,
        )?);
    }
    let nodes: Vec<&NodeCurves> = curves
        .iter()
        .map(|c| c.as_ref().expect("all computed"))
        .collect();
    Ok(assemble_exact_report(sys, &idx, &nodes, window, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_curves::Time;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    #[test]
    fn single_job_single_hop() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(10), periodic(20), vec![(p, Time(4))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let r = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        assert_eq!(r.jobs[0].wcrt, Some(Time(4)));
        assert!(r.all_schedulable());
        // Every analyzed instance responds in exactly τ.
        assert!(r.jobs[0].responses.iter().all(|x| *x == Some(Time(4))));
    }

    #[test]
    fn two_jobs_one_processor_classic_interference() {
        // Classic example: T1 (C=2, T=5), T2 (C=3, T=10), synchronous.
        // R1 = 2; R2 = 5 (T2 runs in [2,5), completing as T1 re-arrives).
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job("T1", Time(5), periodic(5), vec![(p, Time(2))]);
        let t2 = b.add_job("T2", Time(10), periodic(10), vec![(p, Time(3))]);
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        assert_eq!(r.jobs[0].wcrt, Some(Time(2)));
        assert_eq!(r.jobs[1].wcrt, Some(Time(5)));
        assert!(r.all_schedulable());
    }

    #[test]
    fn pipeline_adds_hop_latencies_when_uncontended() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let p3 = b.add_processor("P3", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(100),
            periodic(50),
            vec![(p1, Time(4)), (p2, Time(6)), (p3, Time(2))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let r = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        assert_eq!(r.jobs[0].wcrt, Some(Time(12)));
    }

    #[test]
    fn unschedulable_when_wcrt_exceeds_deadline() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job("T1", Time(5), periodic(5), vec![(p, Time(2))]);
        let t2 = b.add_job("T2", Time(4), periodic(10), vec![(p, Time(3))]);
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        assert!(r.jobs[0].schedulable());
        assert!(!r.jobs[1].schedulable()); // WCRT 5 > 4
        assert!(!r.all_schedulable());
    }

    #[test]
    fn overload_reports_unresolved_instances() {
        // Utilization 1.2 on one processor: the backlog grows without
        // bound, so late instances cannot complete within the horizon.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job("T1", Time(10), periodic(10), vec![(p, Time(6))]);
        let t2 = b.add_job("T2", Time(10), periodic(10), vec![(p, Time(6))]);
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        // T2 falls further and further behind while the overload lasts.
        assert!(!r.jobs[1].schedulable());
        let resp = &r.jobs[1].responses;
        // The backlog compounds across the first instances (arrivals keep
        // coming every period while only 4 of every 10 ticks are left over).
        assert!(resp[1] > resp[0], "backlog must compound: {resp:?}");
        assert!(resp.iter().flatten().any(|r| *r > Time(10)));
    }

    #[test]
    fn rejects_non_spp_processors() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job("T1", Time(10), periodic(10), vec![(p, Time(2))]);
        let sys = b.build().unwrap();
        assert!(matches!(
            analyze_exact_spp(&sys, &AnalysisConfig::default()),
            Err(AnalysisError::NotAllSpp { .. })
        ));
    }

    #[test]
    fn bursty_arrivals_are_analyzed_directly() {
        // The headline capability: no periodicity assumption anywhere.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(30),
            ArrivalPattern::Trace(vec![Time(0), Time(1), Time(2), Time(50)]),
            vec![(p, Time(5))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        let sys = b.build().unwrap();
        let cfg = AnalysisConfig {
            arrival_window: Some(Time(60)),
            ..Default::default()
        };
        let r = analyze_exact_spp(&sys, &cfg).unwrap();
        // Burst of 3 at t=0,1,2 with τ=5: completions at 5, 10, 15 ⇒
        // responses 5, 9, 13. The isolated instance at 50 responds in 5.
        assert_eq!(
            r.jobs[0].responses,
            vec![Some(Time(5)), Some(Time(9)), Some(Time(13)), Some(Time(5))]
        );
        assert_eq!(r.jobs[0].wcrt, Some(Time(13)));
        let _ = t1;
    }

    #[test]
    fn hop_level_accessors_decompose_the_chain() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(100),
            periodic(50),
            vec![(p1, Time(4)), (p2, Time(6))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let r = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        // Instance 1: hop 1 completes at 4, hop 2 at 10.
        assert_eq!(r.hop_completion(0, 1), Some(Time(4)));
        assert_eq!(r.hop_completion(1, 1), Some(Time(10)));
        // Sojourns 4 and 6 sum to the end-to-end response.
        let sojourns = r.hop_sojourns(0, 2, 1);
        assert_eq!(sojourns, vec![Some(Time(4)), Some(Time(6))]);
        assert_eq!(r.jobs[0].responses[0], Some(Time(10)));
    }

    #[test]
    fn chained_job_contends_downstream() {
        // T1: P1→P2. T2 single hop on P2 with higher priority there.
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(50),
            periodic(20),
            vec![(p1, Time(2)), (p2, Time(4))],
        );
        let t2 = b.add_job("T2", Time(20), periodic(20), vec![(p2, Time(3))]);
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t1, index: 1 }, 2);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 1);
        let sys = b.build().unwrap();
        let r = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        // T1 instance: hop 1 done at 2. On P2, T2 (released at 0, τ=3) has
        // already run [0,3); T1's hop 2 runs [3,7) ⇒ e2e response 7.
        assert_eq!(r.jobs[0].wcrt, Some(Time(7)));
        assert_eq!(r.jobs[1].wcrt, Some(Time(3)));
    }
}
