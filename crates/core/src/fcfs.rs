//! Service-function bounds for first-come-first-served scheduling
//! (Definition 7, Theorems 7, 8 and 9).
//!
//! FCFS serves aggregate work in arrival order, so per-subjob service is
//! bounded through the processor's **utilization function** (Theorem 7)
//! of the total workload `G = Σ c̄` (Eq. 21). Under the left-limit/idle-cap
//! reading that mirrors Theorem 3 (see [`crate::spp`] and DESIGN §5),
//! `U(t) = min(t, min_{0 ≤ s ≤ t} (t − s + G(s⁻)))`, which on the tick
//! lattice is the recursion
//!
//! ```text
//! U(0) = 0,   U(t + 1) = min(U(t) + 1, G(t))
//! ```
//!
//! `U(t)` is how much aggregate work has provably been served by `t`; FCFS
//! then maps the served amount back to a *serving frontier* in time,
//! `v_k(t) = min { s ≤ H : G(s) ≥ U(t) + k }`, or `H + 1` when no instant
//! up to the horizon `H` has that much work:
//!
//! * **Lower bound** (Theorem 8): our work is only guaranteed served once
//!   the aggregate served amount covers *everything that arrived up to and
//!   including* our arrival instant (simultaneous arrivals are broken
//!   arbitrarily — the paper highlights exactly this ambiguity), so
//!   `S̲(t) = c(v₁(t)⁻)`, capped by `c(t)` and `t` and made nondecreasing.
//! * **Upper bound** (Theorem 9): the `U(t)` oldest units all arrived by
//!   `v₀(t)`, so our served work is at most `c(v₀(t)) + τ` (the `+τ`
//!   absorbs the partially-served boundary instance), capped by `c(t)` and
//!   `t`, made nondecreasing and raised to the lower bound.
//!
//! Every workload is a staircase, so `U` and both frontiers come from one
//! pass over `G` and each bound from one pass over its frontier
//! ([`rta_curves::fcfs`]): a context takes two passes (the sum and the
//! fused pass), a subjob three (one per bound and the final maximum).

use crate::spnp::SoaServiceBounds;
use rta_curves::{
    fcfs_context_into, frontier_bound_into, sum_many_into, CurveError, Scratch, SoaCurve, Time,
};

/// Per-processor FCFS context: the total workload `G = Σ c̄` (Eq. 21), its
/// utilization `U` and the two serving frontiers of Theorems 8/9, which
/// depend only on the processor and so are shared by every subjob's
/// bounds.
#[derive(Clone, Debug, Default)]
pub struct FcfsProcessor {
    /// Total workload `G`.
    total: SoaCurve,
    /// Utilization function `U` (Theorem 7, left-limit reading).
    pub utilization: SoaCurve,
    /// Theorem 8 frontier `v₁`.
    lower_frontier: SoaCurve,
    /// Theorem 9 frontier `v₀`.
    upper_frontier: SoaCurve,
}

impl FcfsProcessor {
    /// Build the processor context from the workload curves of all subjobs
    /// sharing the processor.
    pub fn new(workloads: &[&SoaCurve], horizon: Time) -> Result<FcfsProcessor, CurveError> {
        let mut ctx = FcfsProcessor::default();
        ctx.rebuild(workloads, horizon)?;
        Ok(ctx)
    }

    /// Rebuild the context in place from new peer workloads, reusing this
    /// context's storage.
    pub(crate) fn rebuild(
        &mut self,
        workloads: &[&SoaCurve],
        horizon: Time,
    ) -> Result<(), CurveError> {
        sum_many_into(workloads, &mut self.total);
        fcfs_context_into(
            &self.total,
            horizon,
            &mut self.utilization,
            &mut self.lower_frontier,
            &mut self.upper_frontier,
        )
    }

    /// Theorem 8 / Theorem 9 service bounds for one subjob of this
    /// processor, given its (upper-bounded) workload `c̄` and execution time
    /// `τ`, written into `out` with one temporary from `scratch`.
    pub fn service_bounds(
        &self,
        workload: &SoaCurve,
        tau: Time,
        scratch: &mut Scratch,
        out: &mut SoaServiceBounds,
    ) -> Result<(), CurveError> {
        frontier_bound_into(workload, &self.lower_frontier, 1, 0, &mut out.lower)?;
        let mut upper = scratch.take_soa();
        let result =
            frontier_bound_into(workload, &self.upper_frontier, 0, tau.ticks(), &mut upper);
        if result.is_ok() {
            // The clipped upper bound can only sit above the clipped lower
            // bound.
            upper.max_with_into(&out.lower, &mut out.upper);
        }
        scratch.put_soa(upper);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{departure_time, workload};

    fn bounds(f: &FcfsProcessor, c: &SoaCurve, tau: i64) -> SoaServiceBounds {
        let mut out = SoaServiceBounds::zeroed();
        f.service_bounds(c, Time(tau), &mut Scratch::new(), &mut out)
            .unwrap();
        out
    }

    #[test]
    fn single_subjob_utilization_tracks_backlog() {
        // One 5-tick instance at t = 0: busy [0,5), idle after.
        let c = workload(&[0], 5);
        let f = FcfsProcessor::new(&[&c], Time(50)).unwrap();
        for t in 0..=10 {
            assert_eq!(f.utilization.eval(Time(t)), t.min(5), "t={t}");
        }
    }

    #[test]
    fn utilization_with_gaps() {
        // 3 ticks at t=0, 3 more at t=10: two busy intervals.
        let c = workload(&[0, 10], 3);
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
        let c = workload(&[0], 5);
        let f = FcfsProcessor::new(&[&c], Time(50)).unwrap();
        let b = bounds(&f, &c, 5);
        for t in 0..=20 {
            let truth = t.min(5);
            assert!(b.lower.eval(Time(t)) <= truth, "lower at t={t}");
            assert!(b.upper.eval(Time(t)) >= truth, "upper at t={t}");
        }
        // The instance is provably fully served by its completion time 5.
        assert_eq!(b.lower.eval(Time(5)), 5);
        // Departure bounds: completes somewhere in [0, 5].
        assert_eq!(departure_time(&b.lower, 5, 50, 1), Some(Time(5)));
    }

    #[test]
    fn two_flows_share_in_arrival_order() {
        // Flow A: 4 ticks at t=0. Flow B: 4 ticks at t=2. FCFS serves A
        // first, B during [4, 8).
        let ca = workload(&[0], 4);
        let cb = workload(&[2], 4);
        let f = FcfsProcessor::new(&[&ca, &cb], Time(50)).unwrap();
        let ba = bounds(&f, &ca, 4);
        let bb = bounds(&f, &cb, 4);
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
        let ca = workload(&[0], 3);
        let cb = workload(&[0], 4);
        let f = FcfsProcessor::new(&[&ca, &cb], Time(50)).unwrap();
        let ba = bounds(&f, &ca, 3);
        // A's 3 units are only guaranteed once all 7 units are served.
        assert_eq!(ba.lower.eval(Time(6)), 0);
        assert_eq!(ba.lower.eval(Time(7)), 3);
        // But A may also have gone first.
        assert!(ba.upper.eval(Time(3)) >= 3);
    }

    #[test]
    fn idle_processor_has_identity_bounds_at_zero() {
        let c = SoaCurve::zero();
        let f = FcfsProcessor::new(&[&c], Time(10)).unwrap();
        let b = bounds(&f, &c, 1);
        for t in 0..=10 {
            assert_eq!(b.lower.eval(Time(t)), 0);
        }
    }
}
