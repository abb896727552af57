//! Service-function bounds for first-come-first-served scheduling
//! (Definition 7, Theorems 7, 8 and 9).
//!
//! FCFS serves aggregate work in arrival order, so per-subjob service is
//! bounded through the processor's **utilization function**
//!
//! ```text
//! U(t) = min( t,  min_{0 ≤ s ≤ t} ( t − s + G(s⁻) ) )        (Theorem 7)
//! ```
//!
//! where `G = Σ c` is the total workload of the processor (Eq. 21) — the
//! left-limit/idle-cap reading mirrors Theorem 3 (see [`crate::spp`]).
//! `U(t)` is how much aggregate work has provably been served by `t`; FCFS
//! then maps the served amount back to a *serving frontier* in time:
//!
//! * **Lower bound** (Theorem 8): our work is only guaranteed served once
//!   the aggregate served amount covers *everything that arrived up to and
//!   including* our arrival instant (simultaneous arrivals are broken
//!   arbitrarily — the paper highlights exactly this ambiguity), so
//!   `S̲(t) = c(v⁻)` with `v = min{ s : G(s) ≥ U(t) + 1 }`.
//! * **Upper bound** (Theorem 9): the `U(t)` oldest units all arrived by
//!   `s* = G⁻¹(U(t))`, so our served work is at most `c(s*) + τ` (the `+τ`
//!   absorbs the partially-served boundary instance), capped by `t`.

use rta_curves::compose::compose;
use rta_curves::{Curve, CurveError, Time};

/// Per-processor FCFS context: the total workload `G`, the utilization
/// `U`, and the two serving frontiers of Theorems 8/9, which depend only
/// on the processor and so are shared by every subjob's bounds.
#[derive(Clone, Debug)]
pub struct FcfsProcessor {
    /// Total (upper-bounded) workload `G = Σ c̄` (Eq. 21).
    pub total_workload: Curve,
    /// Utilization function `U` (Theorem 7, left-limit reading).
    pub utilization: Curve,
    /// Theorem 8 frontier `v(t) = G⁻¹(U(t) + 1)`.
    lower_frontier: Curve,
    /// Theorem 9 frontier `s*(t) = G⁻¹(U(t))`.
    upper_frontier: Curve,
}

impl FcfsProcessor {
    /// Build the processor context from the workload curves of all subjobs
    /// sharing the processor.
    pub fn new(workloads: &[&Curve], horizon: Time) -> Result<FcfsProcessor, CurveError> {
        let mut g = Curve::zero();
        for c in workloads {
            g = g.add(c);
        }
        // U(t) = min(t, t + min_s (G(s⁻) − s)).
        let g_prev = g.shift_right(Time::ONE, 0);
        let run = g_prev.sub(&Curve::identity()).running_min();
        let u = Curve::identity()
            .add(&run)
            .min_with(&Curve::identity())
            .clamp_min(0);
        debug_assert!(u.is_nondecreasing(), "utilization must be nondecreasing");

        // The frontiers invert `G` extended with a sentinel: pretend an
        // enormous batch arrives just past the horizon, so G⁻¹(y) for y
        // beyond the real total resolves to horizon + 1 and the workload
        // compositions in `service_bounds` yield "all of c" there.
        let total = g.sup_on(horizon);
        let sentinel = total + horizon.ticks() + 2;
        let g_ext = g.truncate_after(horizon).add(&Curve::step_from_points(
            0,
            &[(horizon + Time::ONE, sentinel)],
        ));
        let g_ext_inv = g_ext.inverse_curve()?;
        let lower_frontier = compose(&g_ext_inv, &u.add_const(1))?;
        let upper_frontier = compose(&g_ext_inv, &u)?;
        Ok(FcfsProcessor {
            total_workload: g,
            utilization: u,
            lower_frontier,
            upper_frontier,
        })
    }

    /// Theorem 8 / Theorem 9 service bounds for one subjob of this
    /// processor, given its (upper-bounded) workload `c̄` and execution time
    /// `τ`.
    pub fn service_bounds(
        &self,
        workload: &Curve,
        tau: Time,
    ) -> Result<crate::spnp::ServiceBounds, CurveError> {
        // Lower: served ≥ c(v⁻) = c_prev(v) at the frontier v.
        let c_prev = workload.shift_right(Time::ONE, 0);
        let lower_raw = compose(&c_prev, &self.lower_frontier)?;
        let lower = lower_raw
            .min_with(workload)
            .min_with(&Curve::identity())
            .clamp_min(0)
            .running_max();

        // Upper: served ≤ c(s*) + τ at the frontier s*, and ≤ t.
        let upper_raw = compose(workload, &self.upper_frontier)?.add_const(tau.ticks());
        let upper = upper_raw
            .min_with(&Curve::identity())
            .min_with(workload)
            .clamp_min(0)
            .running_max();

        // The clipped upper bound can only sit above the clipped lower bound.
        let upper = upper.max_with(&lower);
        Ok(crate::spnp::ServiceBounds { lower, upper })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_subjob_utilization_tracks_backlog() {
        // One 5-tick instance at t = 0: busy [0,5), idle after.
        let c = Curve::from_event_times(&[Time(0)]).scale(5);
        let f = FcfsProcessor::new(&[&c], Time(50)).unwrap();
        for t in 0..=10 {
            assert_eq!(f.utilization.eval(Time(t)), t.min(5), "t={t}");
        }
    }

    #[test]
    fn utilization_with_gaps() {
        // 3 ticks at t=0, 3 more at t=10: two busy intervals.
        let c = Curve::from_event_times(&[Time(0), Time(10)]).scale(3);
        let f = FcfsProcessor::new(&[&c], Time(50)).unwrap();
        let expect = |t: i64| -> i64 {
            if t <= 3 {
                t
            } else if t <= 10 {
                3
            } else if t <= 13 {
                3 + (t - 10)
            } else {
                6
            }
        };
        for t in 0..=20 {
            assert_eq!(f.utilization.eval(Time(t)), expect(t), "t={t}");
        }
    }

    #[test]
    fn single_subjob_bounds_bracket_truth() {
        // Alone on the processor, FCFS = run-to-completion: true service is
        // min(t, 5). The lower bound may defer full credit until completion,
        // the upper may advance it by τ — both must bracket the truth.
        let c = Curve::from_event_times(&[Time(0)]).scale(5);
        let f = FcfsProcessor::new(&[&c], Time(50)).unwrap();
        let b = f.service_bounds(&c, Time(5)).unwrap();
        for t in 0..=20 {
            let truth = t.min(5);
            assert!(b.lower.eval(Time(t)) <= truth, "lower at t={t}");
            assert!(b.upper.eval(Time(t)) >= truth, "upper at t={t}");
        }
        // The instance is provably fully served by its completion time 5.
        assert_eq!(b.lower.eval(Time(5)), 5);
        // Departure bounds: completes somewhere in [0, 5].
        let dep_lo = b.lower.floor_div(5, Time(50)).unwrap();
        assert_eq!(dep_lo.event_time(1), Some(Time(5)));
    }

    #[test]
    fn two_flows_share_in_arrival_order() {
        // Flow A: 4 ticks at t=0. Flow B: 4 ticks at t=2. FCFS serves A
        // first, B during [4, 8).
        let ca = Curve::from_event_times(&[Time(0)]).scale(4);
        let cb = Curve::from_event_times(&[Time(2)]).scale(4);
        let f = FcfsProcessor::new(&[&ca, &cb], Time(50)).unwrap();
        let ba = f.service_bounds(&ca, Time(4)).unwrap();
        let bb = f.service_bounds(&cb, Time(4)).unwrap();
        // A is provably done by 4; B by 8.
        assert_eq!(ba.lower.eval(Time(4)), 4);
        assert_eq!(bb.lower.eval(Time(4)), 0);
        assert_eq!(bb.lower.eval(Time(8)), 4);
        // B cannot be done before A's work is out of the way: even the upper
        // bound gives B at most τ credit before t = 4.
        assert!(bb.upper.eval(Time(3)) <= 4);
        // Bounds bracket the true FCFS schedule (A: [0,4), B: [4,8)).
        for t in 0..=20 {
            let truth_a = t.min(4);
            let truth_b = (t - 4).clamp(0, 4);
            assert!(ba.lower.eval(Time(t)) <= truth_a, "A lower t={t}");
            assert!(ba.upper.eval(Time(t)) >= truth_a, "A upper t={t}");
            assert!(bb.lower.eval(Time(t)) <= truth_b, "B lower t={t}");
            assert!(bb.upper.eval(Time(t)) >= truth_b, "B upper t={t}");
        }
    }

    #[test]
    fn simultaneous_arrivals_lower_bound_waits_for_both() {
        // Two flows arriving together: the tie is broken arbitrarily, so
        // neither is guaranteed anything until both could have been served.
        let ca = Curve::from_event_times(&[Time(0)]).scale(3);
        let cb = Curve::from_event_times(&[Time(0)]).scale(4);
        let f = FcfsProcessor::new(&[&ca, &cb], Time(50)).unwrap();
        let ba = f.service_bounds(&ca, Time(3)).unwrap();
        // A's 3 units are only guaranteed once all 7 units are served.
        assert_eq!(ba.lower.eval(Time(6)), 0);
        assert_eq!(ba.lower.eval(Time(7)), 3);
        // But A may also have gone first.
        assert!(ba.upper.eval(Time(3)) >= 3);
    }

    #[test]
    fn idle_processor_has_identity_bounds_at_zero() {
        let c = Curve::zero();
        let f = FcfsProcessor::new(&[&c], Time(10)).unwrap();
        let b = f.service_bounds(&c, Time(1)).unwrap();
        for t in 0..=10 {
            assert_eq!(b.lower.eval(Time(t)), 0);
        }
    }
}
