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
//! There is one chain, [`spnp_bounds`]: structure-of-arrays operands in,
//! [`SoaServiceBounds`] out, every intermediate drawn from a [`Scratch`].
//! Both drivers reach it through
//! [`crate::policy::ServicePolicy::service_bounds`]. Its independent check
//! is a per-tick evaluator of the same formulas in
//! `crates/core/tests/proptests.rs`.

use crate::config::SpnpAvailability;
use rta_curves::{linear_combine_line_into, sum_many_into, CurveError, Scratch, SoaCurve, Time};

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
/// allocates nothing. Both bounds are nondecreasing and nonnegative: the
/// raw formulas can lose monotonicity when peer bounds overlap, and are
/// re-monotonized soundly (`running_max` of a lower bound is still a lower
/// bound of a nondecreasing function; likewise the upper bound can only be
/// loosened).
///
/// Errors with [`CurveError::MismatchedLengths`] when the peer bound
/// slices cannot be paired — a caller bug that would otherwise silently
/// drop interference. On error `out` is left unchanged.
#[allow(clippy::many_single_char_names)]
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
    let b = blocking;
    let w = workload_upper;
    let mut id = scratch.take_soa();
    let mut c_prev = scratch.take_soa();
    let mut hp_lo_sum = scratch.take_soa();
    let mut hp_up_sum = scratch.take_soa();
    let mut up = scratch.take_soa();
    let mut s_avail = scratch.take_soa();
    let mut t1 = scratch.take_soa();
    let mut t2 = scratch.take_soa();
    let mut t3 = scratch.take_soa();

    id.set_affine(0, 1);
    w.shift_right_into(Time::ONE, 0, &mut c_prev);
    // Σ hp bounds in one k-way merge (pointwise add is exact and canonical
    // on the segment representation, so the peer order does not matter).
    sum_many_into(hp_lower, &mut hp_lo_sum);
    sum_many_into(hp_upper, &mut hp_up_sum);

    // The busy-period candidate is
    //     avail(s, t] + c̄(s⁻)
    // with avail(s, t] bracketed through the hp service bounds. A single
    // availability curve `B(t) − B(s)` (the paper's Eqs. 17/19) cannot
    // bracket the *increment* of hp interference — the `t` and `s`
    // positions need opposite hp bounds:
    //     lower: (t−s) − b − [ΣS̄_h(t) − ΣS̲_h(s)]
    //     upper: (t−s)     − [ΣS̲_h(t) − ΣS̄_h(s)]
    // The `Conservative` variant implements exactly that; `AsPrinted` keeps
    // the paper's single-curve form with `ΣS̲_h` at both positions.

    // ---- Theorem 6: upper bound (no blocking in an upper bound). ----
    // The `− s` / `+ t` identity-line terms ride along inside the merges
    // (`linear_combine_line_into` fuses the affine term), so neither
    // `t_part_up` nor `s_part_up` costs a separate pass over the hp sums.
    match variant {
        SpnpAvailability::AsPrinted => {
            linear_combine_line_into(&c_prev, 1, &hp_lo_sum, 1, 0, -1, &mut t3)
        }
        SpnpAvailability::Conservative => {
            linear_combine_line_into(&c_prev, 1, &hp_up_sum, 1, 0, -1, &mut t3)
        }
    } // t3 = s_part_up = c̄(s⁻) + Σ − s
    t3.running_min_into(&mut t2);
    linear_combine_line_into(&t2, 1, &hp_lo_sum, -1, 0, 1, &mut t3); // + t_part_up
    t3.min_with_into(w, &mut t1); // t1 = upper_raw
    t1.min_with_into(&id, &mut t2);
    t2.clamp_min_into(0, &mut t3);
    t3.running_max_into(&mut up); // up = upper, pre-reorder fix

    // ---- Theorem 5: lower bound. ----
    id.add_const_into(-b.ticks(), &mut t1);
    match variant {
        SpnpAvailability::AsPrinted => t1.sub_into(&hp_lo_sum, &mut t2),
        SpnpAvailability::Conservative => t1.sub_into(&hp_up_sum, &mut t2),
    } // t2 = t_part_lo, unmasked
      // s-part availability: the paper's B̲ (masked to 0 on [0, b]) for
      // AsPrinted; for Conservative the blocking term lives only in the
      // t-part (it is a one-shot delay, not an increment at both ends), so
      // the s-part is the unmasked `s − ΣS̲_h(s)` — folded straight into
      // `c̄(s⁻) − avail_s(s)` below as `c̄(s⁻) + ΣS̲_h(s) − s`.
    if variant == SpnpAvailability::AsPrinted {
        t2.mask_before_into(b + Time::ONE, 0, &mut s_avail);
    }
    t2.mask_before_into(b + Time::ONE, 0, &mut t1); // t1 = masked t_part_lo
                                                    // S̲(t) = T(t) + min_{0 ≤ s ≤ t−b} ( c̄(s⁻) − avail_s(s) ), the running
                                                    // minimum delayed by the blocking interval (Theorem 5's min range).
    match variant {
        SpnpAvailability::AsPrinted => c_prev.sub_into(&s_avail, &mut t2),
        SpnpAvailability::Conservative => {
            linear_combine_line_into(&c_prev, 1, &hp_lo_sum, 1, 0, -1, &mut t2)
        }
    }
    t2.running_min_into(&mut t3); // t3 = run
    t3.shift_right_into(b, t3.eval(Time::ZERO), &mut t2); // t2 = delayed_run
    t1.add_into(&t2, &mut t3);
    t3.min_with_into(w, &mut t2);
    t2.mask_before_into(b + Time::ONE, 0, &mut t1); // t1 = lower_raw
    t1.clamp_min_into(0, &mut t2);
    t2.min_with_into(&id, &mut t3);
    t3.running_max_into(&mut out.lower);

    // Clipping can reorder the raw curves in degenerate spots.
    up.max_with_into(&out.lower, &mut out.upper);

    for c in [id, c_prev, hp_lo_sum, hp_up_sum, up, s_avail, t1, t2, t3] {
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
