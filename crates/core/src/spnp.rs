//! Service-function bounds for non-preemptive static-priority scheduling
//! (Equation 15, Theorems 5 and 6).
//!
//! Under SPNP a subjob can be *blocked* once per busy interval by an
//! already-running lower-priority subjob; the worst case is the largest
//! lower-priority execution time on the processor, `b_{k,j}` (Eq. 15).
//!
//! * **Lower bound** (Theorem 5): availability is zero for `t ≤ b`, then
//!   `B̲(t) = t − b − Σ_hp S_h(t)`, and
//!   `S̲(t) = min_{0 ≤ s ≤ t−b} ( B̲(t) − B̲(s) + c(s) )` for `t > b`.
//! * **Upper bound** (Theorem 6): `B̄(t) = t − Σ_hp S̲_h(t)` (blocking can
//!   only *delay* service, so it does not appear in the upper bound), and
//!   `S̄(t) = min_{0 ≤ s ≤ t} ( B̄(t) − B̄(s) + c̄(s) )`.
//!
//! Equation 17 as printed subtracts the higher-priority subjobs' *lower*
//! service bounds inside `B̲`; the conservative reading subtracts their
//! *upper* bounds (more interference → less availability). Both variants
//! are implemented ([`crate::SpnpAvailability`]); the default is the
//! conservative one, and the simulator-backed tests in this workspace
//! exercise both (see DESIGN.md §5).
//!
//! The same machinery yields sound bounds for SPP processors inside a
//! heterogeneous bounds analysis by setting `b = 0` (preemption removes
//! blocking; Theorems 5/6 then mirror Theorem 3 with bounded inputs).
//!
//! Both theorems are the busy-window bound Theorem 3 also is
//! ([`rta_curves::busy`]); they differ only in which peer sums are charged
//! at the window's start and end, in the blocking term, and in the
//! availability at the window start (the variant table in that module).
//! There is one chain, [`spnp_bounds`]: the peers' lower (and, for the
//! conservative variant, upper) bounds summed in one k-way merge each, one
//! two-pass kernel call per bound, and a final pointwise maximum — at most
//! seven passes, every intermediate drawn from a [`Scratch`]. Both drivers
//! reach it through [`crate::policy::ServicePolicy::service_bounds`]. Its
//! independent check is a per-tick evaluator of the same formulas in
//! `crates/core/tests/proptests.rs`.

use crate::config::SpnpAvailability;
use crate::spp::peer_sum;
use rta_curves::{busy_window_into, CurveError, Scratch, SoaCurve, Time, WindowStart};

/// Lower/upper service-function bounds of one subjob — what
/// [`crate::policy::ServicePolicy::service_bounds`] writes and the drivers
/// keep per subjob (DESIGN.md §4g).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SoaServiceBounds {
    /// Guaranteed (lower-bounded) service `S̲`.
    pub lower: SoaCurve,
    /// Potential (upper-bounded) service `S̄`.
    pub upper: SoaCurve,
}

impl SoaServiceBounds {
    /// The information-free bracket `[0, 0]` — a placeholder whose buffers
    /// the bounds kernels overwrite.
    pub fn zeroed() -> SoaServiceBounds {
        SoaServiceBounds {
            lower: SoaCurve::zero(),
            upper: SoaCurve::zero(),
        }
    }
}

/// Theorem 5/6 bounds for one subjob, written into `out`.
///
/// * `workload_upper` — the upper-bounded workload `c̄ = f̄_arr · τ`;
/// * `hp_lower`/`hp_upper` — service bounds of strictly-higher-priority
///   subjobs on the same processor, in any order;
/// * `blocking` — `b_{k,j}` of Eq. 15 (zero for SPP processors);
/// * `variant` — which availability recursion Theorem 5 uses.
///
/// Every intermediate curve is drawn from `scratch`'s pool, so a warm call
/// allocates nothing. With one peer its bounds are read in place, unsummed.
/// Both bounds are nondecreasing and nonnegative: the
/// raw formulas can lose monotonicity when peer bounds overlap, and are
/// re-monotonized soundly (`running_max` of a lower bound is still a lower
/// bound of a nondecreasing function; likewise the upper bound can only be
/// loosened).
///
/// Errors with [`CurveError::MismatchedLengths`] when the peer bound
/// slices cannot be paired — a caller bug that would otherwise silently
/// drop interference. On error `out` is left unchanged.
pub fn spnp_bounds(
    workload_upper: &SoaCurve,
    hp_lower: &[&SoaCurve],
    hp_upper: &[&SoaCurve],
    blocking: Time,
    variant: SpnpAvailability,
    scratch: &mut Scratch,
    out: &mut SoaServiceBounds,
) -> Result<(), CurveError> {
    if hp_lower.len() != hp_upper.len() {
        return Err(CurveError::MismatchedLengths {
            left: hp_lower.len(),
            right: hp_upper.len(),
        });
    }
    let mut lo_buf = scratch.take_soa();
    let mut up_buf = scratch.take_soa();
    let mut up = scratch.take_soa();
    let lo_sum = peer_sum(hp_lower, &mut lo_buf);
    // `AsPrinted` charges `ΣS̲_h` at every position, so it never reads the
    // upper sum.
    let up_sum = match variant {
        SpnpAvailability::AsPrinted => lo_sum,
        SpnpAvailability::Conservative => peer_sum(hp_upper, &mut up_buf),
    };
    // The busy-period candidate is `avail(s, t] + c̄(s⁻)`, with
    // `avail(s, t]` bracketed through the hp service bounds. A single
    // availability curve `B(t) − B(s)` (the paper's Eqs. 17/19) cannot
    // bracket the *increment* of hp interference — the `t` and `s`
    // positions need opposite hp bounds:
    //     lower: (t−s) − b − [ΣS̄_h(t) − ΣS̲_h(s)]
    //     upper: (t−s)     − [ΣS̲_h(t) − ΣS̄_h(s)]
    // The `Conservative` variant implements exactly that; `AsPrinted` keeps
    // the paper's single-curve form with `ΣS̲_h` at both positions, and
    // Eq. 17's blocked availability `B̲` at the window start.
    //
    // Theorem 6: the upper bound, with no blocking (blocking can only
    // delay service).
    busy_window_into(
        workload_upper,
        up_sum,
        lo_sum,
        Time::ZERO,
        WindowStart::Open,
        scratch,
        &mut up,
    );
    // Theorem 5: the lower bound. For `Conservative` the blocking term
    // lives only in the window end (a one-shot delay, not an increment at
    // both ends).
    let start = match variant {
        SpnpAvailability::AsPrinted => WindowStart::Blocked,
        SpnpAvailability::Conservative => WindowStart::Open,
    };
    busy_window_into(
        workload_upper,
        lo_sum,
        up_sum,
        blocking,
        start,
        scratch,
        &mut out.lower,
    );
    // Clipping can reorder the raw curves in degenerate spots.
    up.max_with_into(&out.lower, &mut out.upper);
    for c in [lo_buf, up_buf, up] {
        scratch.put_soa(c);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spp::exact_service_into;
    use rta_curves::Curve;

    /// The chain on an ingest workload with the given peers' bounds.
    fn chain(
        c: &Curve,
        hp: &[&SoaServiceBounds],
        b: Time,
        variant: SpnpAvailability,
    ) -> SoaServiceBounds {
        let lower: Vec<&SoaCurve> = hp.iter().map(|h| &h.lower).collect();
        let upper: Vec<&SoaCurve> = hp.iter().map(|h| &h.upper).collect();
        let mut out = SoaServiceBounds::zeroed();
        spnp_bounds(
            &SoaCurve::from_curve(c),
            &lower,
            &upper,
            b,
            variant,
            &mut Scratch::new(),
            &mut out,
        )
        .unwrap();
        out
    }

    fn check_sane(b: &SoaServiceBounds, horizon: i64) {
        for t in 0..=horizon {
            let t = Time(t);
            assert!(b.lower.eval(t) <= b.upper.eval(t), "lower ≤ upper at {t}");
            assert!(b.lower.eval(t) >= 0);
            assert!(b.upper.eval(t) <= t.ticks().max(0) + 1_000_000_000);
        }
        assert!(b.lower.is_nondecreasing());
        assert!(b.upper.is_nondecreasing());
    }

    #[test]
    fn mismatched_peer_slices_are_rejected() {
        let c = Curve::from_event_times(&[Time(0)]).scale(2);
        let hp = chain(&c, &[], Time::ZERO, SpnpAvailability::Conservative);
        let mut out = SoaServiceBounds::zeroed();
        let err = spnp_bounds(
            &SoaCurve::from_curve(&c),
            &[&hp.lower],
            &[],
            Time::ZERO,
            SpnpAvailability::Conservative,
            &mut Scratch::new(),
            &mut out,
        )
        .unwrap_err();
        assert_eq!(err, CurveError::MismatchedLengths { left: 1, right: 0 });
        assert_eq!(out, SoaServiceBounds::zeroed(), "out left unchanged");
    }

    #[test]
    fn no_blocking_no_interference_brackets_exact() {
        let c = Curve::from_event_times(&[Time(0), Time(10)]).scale(4);
        let mut exact = SoaCurve::zero();
        exact_service_into(
            &SoaCurve::from_curve(&c),
            &[],
            &mut Scratch::new(),
            &mut exact,
        );
        for variant in [SpnpAvailability::AsPrinted, SpnpAvailability::Conservative] {
            let b = chain(&c, &[], Time::ZERO, variant);
            check_sane(&b, 25);
            for t in 0..=25 {
                let t = Time(t);
                assert!(b.lower.eval(t) <= exact.eval(t), "t={t}");
                assert!(b.upper.eval(t) >= exact.eval(t), "t={t}");
            }
        }
    }

    #[test]
    fn blocking_delays_the_lower_bound() {
        let c = Curve::from_event_times(&[Time(0)]).scale(5);
        let b = chain(&c, &[], Time(3), SpnpAvailability::Conservative);
        check_sane(&b, 20);
        // Nothing guaranteed during the blocking interval.
        assert_eq!(b.lower.eval(Time(3)), 0);
        // All 5 units guaranteed by t = 3 + 5.
        assert_eq!(b.lower.eval(Time(8)), 5);
        // The upper bound ignores blocking entirely.
        assert_eq!(b.upper.eval(Time(5)), 5);
    }

    #[test]
    fn interference_shrinks_bounds() {
        // hp takes [0,4) guaranteed.
        let hp_c = Curve::from_event_times(&[Time(0)]).scale(4);
        let hp = chain(&hp_c, &[], Time::ZERO, SpnpAvailability::Conservative);
        let c = Curve::from_event_times(&[Time(0)]).scale(5);
        let lo = chain(&c, &[&hp], Time::ZERO, SpnpAvailability::Conservative);
        check_sane(&lo, 20);
        // Lower bound: hp may consume the first 4 ticks ⇒ our 5 units are
        // only guaranteed complete by t = 9.
        assert_eq!(lo.lower.eval(Time(4)), 0);
        assert_eq!(lo.lower.eval(Time(9)), 5);
        // Upper bound: hp is guaranteed the first 4 ticks (its own lower
        // bound), so we cannot have finished before t = 9 either.
        assert_eq!(lo.upper.eval(Time(9)), 5);
    }

    #[test]
    fn variants_are_both_sane() {
        let hp_c = Curve::from_event_times(&[Time(0), Time(6)]).scale(3);
        let hp = chain(&hp_c, &[], Time(2), SpnpAvailability::Conservative);
        let c = Curve::from_event_times(&[Time(0), Time(8)]).scale(4);
        let printed = chain(&c, &[&hp], Time(2), SpnpAvailability::AsPrinted);
        let conserv = chain(&c, &[&hp], Time(2), SpnpAvailability::Conservative);
        check_sane(&printed, 30);
        check_sane(&conserv, 30);
        // The conservative variant brackets at least as widely as the
        // paper-verbatim one: its lower bound assumes more interference and
        // its upper bound assumes less.
        for t in 0..=30 {
            let t = Time(t);
            assert!(
                conserv.upper.eval(t) >= printed.upper.eval(t),
                "upper at {t}"
            );
            assert!(
                conserv.lower.eval(t) <= printed.lower.eval(t),
                "lower at {t}"
            );
        }
    }

    #[test]
    fn warm_scratch_and_dirty_output_do_not_leak() {
        // Repeated calls on one scratch, into one reused output, equal
        // fresh calls — across variants and blocking values.
        let hp_c = Curve::from_event_times(&[Time(0), Time(6), Time(11)]).scale(3);
        let hp = chain(&hp_c, &[], Time(2), SpnpAvailability::Conservative);
        let c = SoaCurve::from_curve(&Curve::from_event_times(&[Time(0), Time(8)]).scale(4));
        let mut scratch = Scratch::new();
        let mut out = SoaServiceBounds::zeroed();
        for variant in [SpnpAvailability::AsPrinted, SpnpAvailability::Conservative] {
            for b in [Time::ZERO, Time(2), Time(7)] {
                spnp_bounds(
                    &c,
                    &[&hp.lower],
                    &[&hp.upper],
                    b,
                    variant,
                    &mut scratch,
                    &mut out,
                )
                .unwrap();
                assert_eq!(
                    out,
                    chain(&c.to_curve(), &[&hp], b, variant),
                    "{variant:?} b={b}"
                );
            }
        }
    }

    #[test]
    fn lower_bound_capped_by_workload() {
        let c = Curve::from_event_times(&[Time(0)]).scale(2);
        let b = chain(&c, &[], Time::ZERO, SpnpAvailability::Conservative);
        for t in 0..=15 {
            assert!(b.lower.eval(Time(t)) <= c.eval(Time(t)));
        }
    }
}
