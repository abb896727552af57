//! Network-calculus end-to-end composition — the "pay bursts only once"
//! alternative to Theorem 4.
//!
//! Theorem 4 sums per-hop worst-case delays; network calculus (the paper's
//! refs \[20, 21\], Cruz) instead **convolves** per-hop service guarantees
//! into one end-to-end service curve and takes a single horizontal
//! deviation against the job's arrival envelope. When a job's burst is
//! large relative to its sustained rate, the convolved bound charges the
//! burst once instead of at every hop and can beat the additive bound;
//! with per-hop envelope re-shaping (which Lemma 2 performs) the additive
//! bound can win instead — the `e2e_composition` test and the ablation
//! bench quantify both regimes.
//!
//! Pipeline:
//! 1. run the usual bounds analysis to obtain each hop's guaranteed
//!    service `S̲` for the job of interest;
//! 2. fit the tightest [`RateLatency`] curve under each `S̲` restricted to
//!    the analysis horizon ([`fit_rate_latency`]);
//! 3. convolve the fits along the chain (latencies add, rates min — the
//!    closed form of `RateLatency::then`);
//! 4. bound the end-to-end delay by the horizontal deviation between the
//!    job's first-hop arrival workload and the composed curve.

use crate::config::AnalysisConfig;
use crate::depgraph::SubjobIndex;
use crate::error::AnalysisError;
use rta_curves::bounds::RateLatency;
use rta_curves::{Curve, Time};
use rta_model::{JobId, SubjobRef, TaskSystem};

/// Fit the tightest rate-latency curve lying at or below `service` on
/// `[0, horizon]`, given a target sustained `rate ≥ 1`.
///
/// The latency is the smallest `T` with `R·(t − T) ≤ S̲(t)` for every
/// lattice `t ≤ horizon`, i.e. `T = max_t ( t − S̲(t)/R )` (rounded up).
pub fn fit_rate_latency(service: &Curve, rate: i64, horizon: Time) -> RateLatency {
    assert!(rate >= 1);
    let mut latency = Time::ZERO;
    // Candidates: breakpoints and the horizon (the expression t − S/R is
    // piecewise linear in t, so its max sits on a piece boundary).
    let mut candidates: Vec<Time> = service.breakpoints().filter(|t| *t <= horizon).collect();
    candidates.push(horizon);
    // Piece-end candidates too: maxima of t − S(t)/R occur where S is flat.
    let ends: Vec<Time> = service
        .breakpoints()
        .filter(|t| *t > Time::ZERO && *t <= horizon)
        .map(|t| t - Time::ONE)
        .collect();
    candidates.extend(ends);
    for t in candidates {
        if t < Time::ZERO {
            continue;
        }
        // smallest T with R(t − T) ≤ S(t):  T ≥ t − S(t)/R  (exact ceil).
        let s = service.eval(t).max(0);
        let need = t.ticks() - s.div_euclid(rate);
        latency = latency.max(Time(need.max(0)));
    }
    RateLatency { latency, rate }
}

/// End-to-end delay bound for `job` via rate-latency composition.
///
/// Restricted to chains whose hops share one execution time `τ` (instance
/// and work semantics then coincide, so the composed work-unit curve
/// transfers to instances exactly); returns
/// [`AnalysisError::NotAllSpp`]-style errors never — unsupported shapes
/// yield `Ok(None)`:
///
/// * non-uniform `τ` along the chain,
/// * a hop whose guaranteed service never carries the demand.
///
/// The classical FIFO output/delay argument: with per-hop service curves
/// `β_j` the chain guarantees `β = β_1 ⊗ … ⊗ β_n`, and the `m`-th
/// instance, arriving at `a_m`, completes end-to-end by
///
/// ```text
/// min_{1 ≤ i ≤ m} ( a_i + β⁻¹( (m − i + 1)·τ ) )
/// ```
///
/// (pick the busy-start candidate `i`: everything before instance `i` was
/// clear, then `m − i + 1` instances of work flow through `β`). For
/// rate-latency `β`, `β⁻¹(x) = T + ⌈x/R⌉` — the burst pays the latency
/// **once**, not per hop as in Theorem 4's sum.
pub fn e2e_composition_bound(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    job: JobId,
) -> Result<Option<Time>, AnalysisError> {
    let (window, horizon) = cfg.resolve(sys);
    // The one-pass sweep orders the subjobs and refuses a cyclic system.
    let lower = crate::bounds::lower_service_curves(sys, cfg)?;
    let idx = SubjobIndex::new(sys);

    let jb = &sys.jobs()[job.0];
    let tau = jb.subjobs[0].exec;
    if jb.subjobs.iter().any(|s| s.exec != tau) {
        return Ok(None);
    }

    // Fit each hop and convolve (latencies add, rates min). The fit domain
    // ends where the hop has provably served its entire horizon demand:
    // beyond that, the flatness of S̲ reflects demand exhaustion, not
    // missing service capability, and the delay computation below only
    // queries β at work values within the served total.
    let mut composed: Option<RateLatency> = None;
    for j in 0..jb.subjobs.len() {
        let s_lower = &lower[idx.index(SubjobRef { job, index: j })];
        let total = s_lower.eval(horizon).max(0);
        if total == 0 {
            return Ok(None);
        }
        let t_fit = s_lower.inverse_at(total).unwrap_or(horizon).min(horizon);
        let rate = (total / t_fit.ticks().max(1)).max(1);
        let fit = fit_rate_latency(s_lower, rate, t_fit);
        composed = Some(match composed {
            None => fit,
            Some(prev) => prev.then(&fit),
        });
    }
    let Some(beta) = composed else {
        return Ok(None);
    };
    let beta_inv =
        |work: i64| -> Time { beta.latency + Time((work + beta.rate - 1).div_euclid(beta.rate)) };

    // Departures obey D ≥ A ⊗ β; the m-th instance has left once the
    // convolution clears m·τ, i.e. once *every* candidate
    // A(a_i⁻) + β(t − a_i) = (i−1)τ + β(t − a_i) clears it — the inverse of
    // a min is the max of the candidate inverses.
    let arr = jb.arrival.arrival_curve(window);
    let n_instances = arr.total_events();
    let mut worst = Time::ZERO;
    for m in 1..=n_instances {
        let a_m = arr.event_time(m).expect("within window");
        let mut completion = Time::ZERO;
        for i in 1..=m {
            let a_i = arr.event_time(i).expect("i ≤ m");
            let through = beta_inv((m - i + 1) * tau.ticks());
            completion = completion.max(a_i + through);
        }
        worst = worst.max(completion - a_m);
    }
    Ok(Some(worst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_curves::Segment;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder};

    fn pipeline(hops: usize, tau: i64, burst: usize) -> TaskSystem {
        let mut b = SystemBuilder::new();
        let procs: Vec<_> = (0..hops)
            .map(|i| b.add_processor(format!("P{}", i + 1), SchedulerKind::Spp))
            .collect();
        let times: Vec<Time> = (0..burst).map(|i| Time(i as i64)).collect();
        b.add_job(
            "flow",
            Time(10_000),
            ArrivalPattern::Trace(times),
            procs.iter().map(|p| (*p, Time(tau))).collect(),
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        sys
    }

    #[test]
    fn composition_bound_is_valid_and_pays_bursts_once() {
        // A 4-instance burst through 3 idle hops of τ = 10. True worst
        // response (simulated/exact): pipeline fills, last instance sees
        // 3·10 pipeline latency + 3·10 queueing = 60-ish.
        let sys = pipeline(3, 10, 4);
        let cfg = AnalysisConfig {
            arrival_window: Some(Time(100)),
            ..Default::default()
        };
        let exact = crate::exact::analyze_exact_spp(&sys, &cfg).unwrap();
        let truth = exact.jobs[0].wcrt.unwrap();
        let nc = e2e_composition_bound(&sys, &cfg, JobId(0))
            .unwrap()
            .unwrap();
        assert!(nc >= truth, "nc bound {nc} < truth {truth}");
        // The additive Theorem 4 bound pays the burst at every hop; the
        // composed bound pays it once and must not be *much* worse.
        let additive = crate::bounds::analyze_bounds(&sys, &cfg).unwrap().jobs[0]
            .e2e_bound
            .unwrap();
        assert!(
            nc <= additive * 2,
            "composed {nc} unreasonably above additive {additive}"
        );
    }

    #[test]
    fn composition_requires_uniform_tau() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Periodic {
                period: Time(50),
                offset: Time::ZERO,
            },
            vec![(p1, Time(5)), (p2, Time(7))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let cfg = AnalysisConfig::default();
        assert_eq!(e2e_composition_bound(&sys, &cfg, JobId(0)).unwrap(), None);
    }

    #[test]
    fn single_hop_composition_close_to_hop_bound() {
        let sys = pipeline(1, 8, 3);
        let cfg = AnalysisConfig {
            arrival_window: Some(Time(100)),
            ..Default::default()
        };
        let exact = crate::exact::analyze_exact_spp(&sys, &cfg).unwrap();
        let truth = exact.jobs[0].wcrt.unwrap(); // 3 instances back to back: 24 − 2
        let nc = e2e_composition_bound(&sys, &cfg, JobId(0))
            .unwrap()
            .unwrap();
        assert!(nc >= truth);
        assert!(nc <= truth + Time(10), "slack too large: {nc} vs {truth}");
    }

    #[test]
    fn fit_is_tight_and_below() {
        // Gated service: nothing for 5, then rate 1.
        let s = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(5), 0, 1),
        ]);
        let fit = fit_rate_latency(&s, 1, Time(50));
        assert_eq!(
            fit,
            RateLatency {
                latency: Time(5),
                rate: 1
            }
        );
        let f = fit.curve();
        for t in 0..=50 {
            assert!(f.eval(Time(t)) <= s.eval(Time(t)), "t={t}");
        }
    }

    #[test]
    fn fit_handles_plateaus() {
        // Serve 4, pause 6, serve on: latency must absorb the pause.
        let s = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 1),
            Segment::new(Time(4), 4, 0),
            Segment::new(Time(10), 4, 1),
        ]);
        let fit = fit_rate_latency(&s, 1, Time(40));
        let f = fit.curve();
        for t in 0..=40 {
            assert!(f.eval(Time(t)) <= s.eval(Time(t)), "t={t}");
        }
        // The pause forces T ≥ 6.
        assert!(fit.latency >= Time(6));
    }

    #[test]
    fn fit_with_rate_two() {
        let s = Curve::affine(0, 2);
        let fit = fit_rate_latency(&s, 2, Time(30));
        assert_eq!(
            fit,
            RateLatency {
                latency: Time::ZERO,
                rate: 2
            }
        );
    }
}
