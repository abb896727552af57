//! The "SPP/S&L" baseline: holistic analysis with jitter propagation for
//! periodic jobs under direct synchronization.
//!
//! Section 5 of the paper compares its exact method against "the method
//! proposed in [1, 2]" (Sun & Liu), which bounds end-to-end response times
//! of *periodic* jobs in distributed systems with the Direct Synchronization
//! protocol. The implementable core of that family is the holistic analysis
//! of Tindell & Clark with release jitter (the paper's reference \[6\], whose
//! weakness Sun & Liu corrected): each subjob is modeled as a periodic task
//! whose release jitter is the worst-case completion time of its
//! predecessor hop, and per-processor busy-window analysis with jitter is
//! iterated to a global fixed point.
//!
//! ```text
//! w_q  =  (q+1)·C_{k,j} + Σ_{hp (l,i)} ⌈(w_q + J_{l,i}) / ρ_l⌉ · C_{l,i}
//! R_{k,j}  =  max_q ( J_{k,j} + w_q − q·ρ_k ),    J_{k,j+1} = R_{k,j}
//! ```
//!
//! The iteration is monotone in the jitters, so it either converges or
//! provably diverges past the cap (job unschedulable at any bound). As the
//! paper's Figure 3 shows — and the benches reproduce — this baseline
//! matches the exact analysis on single-stage systems and is strictly
//! pessimistic on multi-stage ones, because jitter-based interference
//! accounting implicitly over-estimates downstream arrivals.

use std::cell::RefCell;

use crate::config::AnalysisConfig;
use crate::error::AnalysisError;
use crate::report::{BoundsReport, JobBound};
use rta_curves::Time;
use rta_model::{ArrivalPattern, JobId, SubjobRef, TaskSystem};

/// Per-thread state of the holistic iteration, reused across calls. The
/// busy-window scans are scalar arithmetic — microseconds per round — so
/// the rounds run sequentially in the caller's thread: dispatching them
/// over the worker pool costs more than the scans themselves, and doing so
/// from inside a Monte-Carlo sweep (which already parallelizes over
/// scenarios) serialized the sweep on the pool's queue.
#[derive(Default)]
struct HolisticWorkspace {
    refs: Vec<SubjobRef>,
    /// `job_start[k] + j` is the dense index of subjob `j` of job `k`.
    job_start: Vec<usize>,
    periods: Vec<Time>,
    exec: Vec<Time>,
    period: Vec<Time>,
    preds: Vec<Option<usize>>,
    /// Flattened hp interference inputs `(exec, period, jitter slot)`;
    /// node `i`'s inputs are `hp_flat[hp_start[i]..hp_start[i + 1]]`.
    hp_flat: Vec<(Time, Time, usize)>,
    hp_start: Vec<usize>,
    // Double-buffered Jacobi iterates.
    jitter: Vec<Time>,
    response: Vec<Time>,
    diverged: Vec<bool>,
    jitter_next: Vec<Time>,
    response_next: Vec<Time>,
    diverged_next: Vec<bool>,
}

thread_local! {
    static HOL_WS: RefCell<HolisticWorkspace> = RefCell::new(HolisticWorkspace::default());
}

/// Run the holistic (SPP/S&L-style) analysis. Requires SPP scheduling on
/// every processor and periodic arrival patterns on every job.
pub fn analyze_holistic(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
) -> Result<BoundsReport, AnalysisError> {
    HOL_WS.with(|ws| {
        let mut ws = ws.borrow_mut();
        analyze_holistic_in(sys, cfg, &mut ws)
    })
}

/// Verdict-only holistic analysis: `true` iff every job's end-to-end bound
/// is finite and within its deadline. Same fixed point as
/// [`analyze_holistic`] (the verdict agrees with
/// `analyze_holistic(..)?.all_schedulable()` bit for bit) but skips the
/// report assembly, so a warm call allocates nothing — the form
/// the Monte-Carlo admission sweeps want, where only the verdict survives
/// the scenario.
pub fn holistic_schedulable(sys: &TaskSystem, cfg: &AnalysisConfig) -> Result<bool, AnalysisError> {
    HOL_WS.with(|ws| {
        let mut ws = ws.borrow_mut();
        run_fixpoint(sys, cfg, &mut ws)?;
        let ws = &*ws;
        for (k, job) in sys.jobs().iter().enumerate() {
            let start = ws.job_start[k];
            let nj = job.subjobs.len();
            if ws.diverged[start..start + nj].iter().any(|&d| d) {
                return Ok(false);
            }
            if ws.response[start + nj - 1] > job.deadline {
                return Ok(false);
            }
        }
        Ok(true)
    })
}

fn analyze_holistic_in(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    ws: &mut HolisticWorkspace,
) -> Result<BoundsReport, AnalysisError> {
    let (window, horizon) = run_fixpoint(sys, cfg, ws)?;
    let mut jobs = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let job_id = JobId(k);
        let nj = job.subjobs.len();
        let mut hop_delays = Vec::with_capacity(nj);
        let mut prev = Time::ZERO;
        let mut unbounded = false;
        for j in 0..nj {
            let i = ws.job_start[k] + j;
            if ws.diverged[i] {
                unbounded = true;
                hop_delays.push(None);
            } else {
                hop_delays.push(Some(ws.response[i] - prev));
                prev = ws.response[i];
            }
        }
        let last = ws.job_start[k] + nj - 1;
        let e2e_bound = if unbounded {
            None
        } else {
            Some(ws.response[last])
        };
        jobs.push(JobBound {
            job: job_id,
            hop_delays,
            e2e_bound,
            deadline: job.deadline,
        });
    }
    Ok(BoundsReport {
        window,
        horizon,
        jobs,
    })
}

/// Converge the jitter iteration, leaving the fixed point in `ws`
/// (`job_start`, `response`, `diverged`). Returns the resolved frame.
fn run_fixpoint(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    ws: &mut HolisticWorkspace,
) -> Result<(Time, Time), AnalysisError> {
    sys.validate(true)?;
    crate::exact::require_exact_capable(sys)?;
    ws.periods.clear();
    for (k, job) in sys.jobs().iter().enumerate() {
        match job.arrival {
            ArrivalPattern::Periodic { period, .. } => ws.periods.push(period),
            _ => return Err(AnalysisError::NotPeriodic { job: JobId(k) }),
        }
    }

    let (window, horizon) = cfg.try_resolve(sys)?;
    let cap = horizon.max(Time(1)) * 4;
    ws.refs.clear();
    ws.job_start.clear();
    for (k, job) in sys.jobs().iter().enumerate() {
        ws.job_start.push(ws.refs.len());
        for j in 0..job.subjobs.len() {
            ws.refs.push(SubjobRef {
                job: JobId(k),
                index: j,
            });
        }
    }
    let n = ws.refs.len();

    // Jitter per subjob (measured from the job's nominal release).
    // `diverged` marks subjobs past the cap: their interference is capped.
    ws.jitter.clear();
    ws.jitter.resize(n, Time::ZERO);
    ws.diverged.clear();
    ws.diverged.resize(n, false);
    ws.response.clear();
    ws.response.resize(n, Time::ZERO);
    ws.jitter_next.clear();
    ws.jitter_next.resize(n, Time::ZERO);
    ws.diverged_next.clear();
    ws.diverged_next.resize(n, false);
    ws.response_next.clear();
    ws.response_next.resize(n, Time::ZERO);

    // Resolve each subjob's interference inputs once: its predecessor slot
    // and, per higher-priority peer, (execution, period, jitter slot). The
    // subjobs of one job are contiguous in `refs`, so the predecessor of a
    // non-first hop is the previous dense slot.
    ws.exec.clear();
    ws.period.clear();
    ws.preds.clear();
    ws.hp_flat.clear();
    ws.hp_start.clear();
    for i in 0..n {
        let r = ws.refs[i];
        let s = sys.subjob(r);
        ws.exec.push(s.exec);
        ws.period.push(ws.periods[r.job.0]);
        ws.preds.push((r.index > 0).then(|| i - 1));
        ws.hp_start.push(ws.hp_flat.len());
        let phi = s.priority.expect("validated: priorities assigned");
        for (h, &o) in ws.refs.iter().enumerate() {
            if o == r {
                continue;
            }
            let os = sys.subjob(o);
            if os.processor == s.processor && os.priority.expect("assigned") < phi {
                ws.hp_flat.push((os.exec, ws.periods[o.job.0], h));
            }
        }
    }
    ws.hp_start.push(ws.hp_flat.len());

    const MAX_ROUNDS: usize = 4096;
    let mut rounds = 0;
    loop {
        rounds += 1;
        if rounds > MAX_ROUNDS {
            return Err(AnalysisError::FixpointDiverged { iterations: rounds });
        }
        // Jacobi round: every subjob's busy-window scan reads only the
        // previous round's responses and jitters (the `cur` buffers),
        // writing the `next` buffers. The iteration is monotone from below,
        // so Jacobi and Gauss-Seidel sweeps converge to the same least
        // fixed point.
        let mut changed = false;
        for i in 0..n {
            let c = ws.exec[i];
            let rho = ws.period[i];
            let j_in = ws.preds[i].map_or(Time::ZERO, |p| ws.response[p]);

            // Jitter-aware busy-window scan.
            let mut worst = Time::ZERO;
            let mut q: i64 = 0;
            let mut ok = true;
            loop {
                let mut w = c * (q + 1);
                loop {
                    let mut next = c * (q + 1);
                    for &(ce, pe, je) in &ws.hp_flat[ws.hp_start[i]..ws.hp_start[i + 1]] {
                        let je = ws.jitter[je];
                        let ceil = (w.ticks() + je.ticks() + pe.ticks() - 1).div_euclid(pe.ticks());
                        next += ce * ceil.max(0);
                    }
                    if next == w {
                        break;
                    }
                    w = next;
                    if w > cap {
                        ok = false;
                        break;
                    }
                }
                if !ok {
                    break;
                }
                worst = worst.max(j_in + w - rho * q);
                if w + j_in <= rho * (q + 1) {
                    break;
                }
                q += 1;
                if rho * q > cap {
                    ok = false;
                    break;
                }
            }

            let (new_resp, new_div) = if ok { (worst, false) } else { (cap, true) };
            // A subjob's *release* jitter is what interferes with peers:
            // the response bound of its predecessor hop (zero at the
            // first hop).
            let new_jit = j_in.min(cap);
            changed |=
                new_resp != ws.response[i] || new_div != ws.diverged[i] || new_jit != ws.jitter[i];
            ws.response_next[i] = new_resp;
            ws.diverged_next[i] = new_div;
            ws.jitter_next[i] = new_jit;
        }
        std::mem::swap(&mut ws.response, &mut ws.response_next);
        std::mem::swap(&mut ws.diverged, &mut ws.diverged_next);
        std::mem::swap(&mut ws.jitter, &mut ws.jitter_next);
        if !changed {
            break;
        }
    }
    Ok((window, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classic::{rta_uniprocessor, PeriodicTask};
    use crate::exact::analyze_exact_spp;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{SchedulerKind, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    #[test]
    fn single_processor_matches_classic_rta() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job("T1", Time(100), periodic(4), vec![(p, Time(1))]);
        let t2 = b.add_job("T2", Time(100), periodic(6), vec![(p, Time(2))]);
        let t3 = b.add_job("T3", Time(100), periodic(13), vec![(p, Time(3))]);
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        b.set_priority(SubjobRef { job: t3, index: 0 }, 3);
        let sys = b.build().unwrap();
        let h = analyze_holistic(&sys, &AnalysisConfig::default()).unwrap();
        let ts = [
            PeriodicTask {
                exec: Time(1),
                period: Time(4),
            },
            PeriodicTask {
                exec: Time(2),
                period: Time(6),
            },
            PeriodicTask {
                exec: Time(3),
                period: Time(13),
            },
        ];
        for k in 0..3 {
            assert_eq!(
                h.jobs[k].e2e_bound,
                rta_uniprocessor(&ts, k, Time(100_000)),
                "job {k}"
            );
        }
    }

    #[test]
    fn single_stage_holistic_equals_exact() {
        // The paper's Figure 3 (a)/(d) claim: on one stage both analyses
        // predict the same response times.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(30), periodic(10), vec![(p, Time(2))]);
        b.add_job("T2", Time(30), periodic(15), vec![(p, Time(4))]);
        b.add_job("T3", Time(30), periodic(30), vec![(p, Time(6))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let h = analyze_holistic(&sys, &AnalysisConfig::default()).unwrap();
        let e = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..3 {
            assert_eq!(
                h.jobs[k].e2e_bound.unwrap(),
                e.jobs[k].wcrt.unwrap(),
                "job {k}"
            );
        }
    }

    #[test]
    fn multi_stage_holistic_dominates_exact() {
        // The Figure 3 (c)/(f) claim: with more stages the holistic bound is
        // no tighter than (and typically looser than) the exact analysis.
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(200),
            periodic(20),
            vec![(p1, Time(3)), (p2, Time(4))],
        );
        b.add_job(
            "T2",
            Time(200),
            periodic(30),
            vec![(p1, Time(5)), (p2, Time(6))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let h = analyze_holistic(&sys, &AnalysisConfig::default()).unwrap();
        let e = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            let hb = h.jobs[k].e2e_bound.unwrap();
            let eb = e.jobs[k].wcrt.unwrap();
            assert!(hb >= eb, "job {k}: holistic {hb:?} < exact {eb:?}");
        }
    }

    #[test]
    fn jitter_propagates_downstream_by_hand() {
        // T1: P1 → P2, alone except for a hp job on P2 that T1's jitter
        // must be charged against. Hand computation:
        //   hop 1 (P1, alone): R₁ = 4.
        //   hop 2 (P2): release jitter J = 4, execution 5, hp task (2, 10)
        //   on P2 with jitter 0: w = 5 + ⌈w/10⌉·2 → w = 7;
        //   R₂ = J + w = 11 = end-to-end bound.
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(50),
            periodic(20),
            vec![(p1, Time(4)), (p2, Time(5))],
        );
        let t2 = b.add_job("T2", Time(10), periodic(10), vec![(p2, Time(2))]);
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t1, index: 1 }, 2);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 1);
        let sys = b.build().unwrap();
        let h = analyze_holistic(&sys, &AnalysisConfig::default()).unwrap();
        assert_eq!(h.jobs[0].e2e_bound, Some(Time(11)));
        assert_eq!(h.jobs[0].hop_delays, vec![Some(Time(4)), Some(Time(7))]);
        assert_eq!(h.jobs[1].e2e_bound, Some(Time(2)));
    }

    #[test]
    fn overload_diverges_to_unschedulable() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(10), periodic(10), vec![(p, Time(6))]);
        b.add_job("T2", Time(10), periodic(10), vec![(p, Time(6))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let h = analyze_holistic(&sys, &AnalysisConfig::default()).unwrap();
        assert!(!h.all_schedulable());
        assert!(h.jobs[1].e2e_bound.is_none());
    }

    #[test]
    fn verdict_only_path_matches_full_report() {
        // Schedulable multi-stage system, unschedulable overload, and a
        // tight single-stage case: the allocation-free verdict must agree
        // with `analyze_holistic(..).all_schedulable()` on each.
        let mk = |execs: &[i64]| {
            let mut b = SystemBuilder::new();
            let p1 = b.add_processor("P1", SchedulerKind::Spp);
            let p2 = b.add_processor("P2", SchedulerKind::Spp);
            for (k, &c) in execs.iter().enumerate() {
                b.add_job(
                    format!("T{k}"),
                    Time(40),
                    periodic(20),
                    vec![(p1, Time(c)), (p2, Time(c))],
                );
            }
            let mut sys = b.build().unwrap();
            assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
            sys
        };
        let cfg = AnalysisConfig::default();
        for execs in [&[2, 3][..], &[9, 9][..], &[6, 7][..]] {
            let sys = mk(execs);
            let full = analyze_holistic(&sys, &cfg).unwrap().all_schedulable();
            let fast = holistic_schedulable(&sys, &cfg).unwrap();
            assert_eq!(full, fast, "execs {execs:?}");
        }
    }

    #[test]
    fn rejects_aperiodic_jobs() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(10),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(2))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        assert!(matches!(
            analyze_holistic(&sys, &AnalysisConfig::default()),
            Err(AnalysisError::NotPeriodic { .. })
        ));
    }
}
