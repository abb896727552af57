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

use crate::config::SpnpAvailability;
use rta_curves::{
    linear_combine_line_into, sum_many_into, Curve, CurveError, Scratch, SoaCurve, Time,
};

/// Lower/upper service-function bounds of one subjob.
#[derive(Clone, Debug)]
pub struct ServiceBounds {
    /// Guaranteed (lower-bounded) service `S̲`.
    pub lower: Curve,
    /// Potential (upper-bounded) service `S̄`.
    pub upper: Curve,
}

impl ServiceBounds {
    /// The information-free bracket `[0, 0]` — a placeholder whose buffers
    /// the `_into` drivers overwrite.
    pub fn zeroed() -> ServiceBounds {
        ServiceBounds {
            lower: Curve::zero(),
            upper: Curve::zero(),
        }
    }
}

impl PartialEq for ServiceBounds {
    fn eq(&self, other: &ServiceBounds) -> bool {
        self.lower == other.lower && self.upper == other.upper
    }
}
impl Eq for ServiceBounds {}

/// [`ServiceBounds`] in structure-of-arrays layout — the working
/// representation of the fixpoint drivers' warm path (DESIGN.md §4g). The
/// SoA kernels are segment-identical to their AoS oracles, so a
/// `SoaServiceBounds` and the `ServiceBounds` it converts to/from always
/// describe the same pair of curves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SoaServiceBounds {
    /// Guaranteed (lower-bounded) service `S̲`.
    pub lower: SoaCurve,
    /// Potential (upper-bounded) service `S̄`.
    pub upper: SoaCurve,
}

impl SoaServiceBounds {
    /// The information-free bracket `[0, 0]` — a placeholder whose buffers
    /// the `_into` drivers overwrite.
    pub fn zeroed() -> SoaServiceBounds {
        SoaServiceBounds {
            lower: SoaCurve::zero(),
            upper: SoaCurve::zero(),
        }
    }

    /// Overwrite from an AoS bounds pair, reusing the arrays.
    pub fn copy_from_bounds(&mut self, src: &ServiceBounds) {
        self.lower.copy_from_curve(&src.lower);
        self.upper.copy_from_curve(&src.upper);
    }

    /// Convert back to AoS, reusing `out`'s segment buffers.
    pub fn write_to_bounds(&self, out: &mut ServiceBounds) {
        self.lower.write_to_curve(&mut out.lower);
        self.upper.write_to_curve(&mut out.upper);
    }
}

/// Compute Theorem 5/6 bounds for one subjob.
///
/// * `workload_upper` — the upper-bounded workload `c̄ = f̄_arr · τ`;
/// * `hp_lower`/`hp_upper` — service bounds of strictly-higher-priority
///   subjobs on the same processor, in any order;
/// * `blocking` — `b_{k,j}` of Eq. 15 (zero for SPP processors);
/// * `variant` — which availability recursion Theorem 5 uses.
///
/// Both returned curves are nondecreasing and nonnegative: the raw
/// formulas can lose monotonicity when peer bounds overlap, and are
/// re-monotonized soundly (`running_max` of a lower bound is still a lower
/// bound of a nondecreasing function; likewise the upper bound can only be
/// loosened).
///
/// Errors with [`CurveError::MismatchedLengths`] when the peer bound
/// slices cannot be paired — a caller bug that would otherwise silently
/// drop interference.
pub fn spnp_bounds(
    workload_upper: &Curve,
    hp_lower: &[&Curve],
    hp_upper: &[&Curve],
    blocking: Time,
    variant: SpnpAvailability,
) -> Result<ServiceBounds, CurveError> {
    let mut scratch = Scratch::new();
    let mut out = ServiceBounds::zeroed();
    spnp_bounds_into(
        workload_upper,
        hp_lower,
        hp_upper,
        blocking,
        variant,
        &mut scratch,
        &mut out,
    )?;
    Ok(out)
}

/// The full Theorem 5/6 chain on the structure-of-arrays kernels with AoS
/// operands and results — a conversion wrapper around
/// [`spnp_bounds_soa_into`], pinned segment-identical to the production
/// AoS chain by the `soa_chain_matches_aos_oracle` test. The warm fixpoint
/// path calls the native-SoA kernel directly and never pays this
/// boundary; the wrapper is kept so the AoS↔SoA conversion overhead stays
/// measurable (the bench suite's `aos/*` vs `soa/*` rows) and correct.
pub fn spnp_bounds_into_soa(
    workload_upper: &Curve,
    hp_lower: &[&Curve],
    hp_upper: &[&Curve],
    blocking: Time,
    variant: SpnpAvailability,
    scratch: &mut Scratch,
    out: &mut ServiceBounds,
) -> Result<(), CurveError> {
    let mut w = scratch.take_soa();
    w.copy_from_curve(workload_upper);
    let hp_lo: Vec<SoaCurve> = hp_lower.iter().map(|c| SoaCurve::from_curve(c)).collect();
    let hp_up: Vec<SoaCurve> = hp_upper.iter().map(|c| SoaCurve::from_curve(c)).collect();
    let hp_lo_refs: Vec<&SoaCurve> = hp_lo.iter().collect();
    let hp_up_refs: Vec<&SoaCurve> = hp_up.iter().collect();
    let mut soa_out = SoaServiceBounds::zeroed();
    let r = spnp_bounds_soa_into(
        &w,
        &hp_lo_refs,
        &hp_up_refs,
        blocking,
        variant,
        scratch,
        &mut soa_out,
    );
    scratch.put_soa(w);
    r?;
    soa_out.write_to_bounds(out);
    Ok(())
}

/// The native structure-of-arrays Theorem 5/6 chain: SoA operands in, SoA
/// bounds out, every intermediate drawn from `scratch` — the kernel behind
/// [`crate::policy::ServicePolicy::service_bounds_soa_into`] for SPP/SPNP
/// and the one the warm fixpoint rounds run on (DESIGN.md §4g). The
/// operation sequence is step-for-step the one documented in
/// [`spnp_bounds_into`]; with segment-identical kernels on both sides the
/// results are bit-identical after conversion.
#[allow(clippy::many_single_char_names)]
pub fn spnp_bounds_soa_into(
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
    // on the segment representation, so this matches the AoS chain's
    // ping-ponged fold segment for segment).
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
    // (`linear_combine_line_into` is pinned segment-identical to the
    // staged pipeline), so neither `t_part_up` nor `s_part_up` costs a
    // separate pass over the hp sums.
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

/// [`spnp_bounds`] writing into a caller-provided [`ServiceBounds`], with
/// every intermediate curve drawn from `scratch`'s pool — the
/// zero-allocation kernel behind the fixpoint driver's warm path. The
/// SoA port of this chain ([`spnp_bounds_into_soa`]) is pinned
/// segment-identical by unit tests. On error `out` is left in an
/// unspecified (but valid) state.
#[allow(clippy::many_single_char_names)]
pub fn spnp_bounds_into(
    workload_upper: &Curve,
    hp_lower: &[&Curve],
    hp_upper: &[&Curve],
    blocking: Time,
    variant: SpnpAvailability,
    scratch: &mut Scratch,
    out: &mut ServiceBounds,
) -> Result<(), CurveError> {
    if hp_lower.len() != hp_upper.len() {
        return Err(CurveError::MismatchedLengths {
            left: hp_lower.len(),
            right: hp_upper.len(),
        });
    }
    let b = blocking;
    let mut id = scratch.take_curve();
    let mut c_prev = scratch.take_curve();
    let mut hp_lo_sum = scratch.take_curve();
    let mut hp_up_sum = scratch.take_curve();
    let mut up = scratch.take_curve();
    let mut s_avail = scratch.take_curve();
    let mut t1 = scratch.take_curve();
    let mut t2 = scratch.take_curve();
    let mut t3 = scratch.take_curve();

    id.set_affine(0, 1);
    workload_upper.shift_right_into(Time::ONE, 0, &mut c_prev);
    for (sum, curves) in [(&mut hp_lo_sum, hp_lower), (&mut hp_up_sum, hp_upper)] {
        sum.set_affine(0, 0);
        for c in curves {
            sum.add_into(c, &mut t1);
            std::mem::swap(sum, &mut t1);
        }
    }

    // Theorem 6 upper bound, then Theorem 5 lower bound — the operation
    // sequence is documented step by step in the SoA port above.
    id.sub_into(&hp_lo_sum, &mut t1);
    match variant {
        SpnpAvailability::AsPrinted => c_prev.add_into(&hp_lo_sum, &mut t2),
        SpnpAvailability::Conservative => c_prev.add_into(&hp_up_sum, &mut t2),
    }
    t2.sub_into(&id, &mut t3);
    t3.running_min_into(&mut t2);
    t1.add_into(&t2, &mut t3);
    t3.min_with_into(workload_upper, &mut t1);
    t1.min_with_into(&id, &mut t2);
    t2.clamp_min_into(0, &mut t3);
    t3.running_max_into(&mut up);

    id.add_const_into(-b.ticks(), &mut t1);
    match variant {
        SpnpAvailability::AsPrinted => t1.sub_into(&hp_lo_sum, &mut t2),
        SpnpAvailability::Conservative => t1.sub_into(&hp_up_sum, &mut t2),
    }
    match variant {
        SpnpAvailability::AsPrinted => t2.mask_before_into(b + Time::ONE, 0, &mut s_avail),
        SpnpAvailability::Conservative => id.sub_into(&hp_lo_sum, &mut s_avail),
    }
    t2.mask_before_into(b + Time::ONE, 0, &mut t1);
    c_prev.sub_into(&s_avail, &mut t2);
    t2.running_min_into(&mut t3);
    t3.shift_right_into(b, t3.eval(Time::ZERO), &mut t2);
    t1.add_into(&t2, &mut t3);
    t3.min_with_into(workload_upper, &mut t2);
    t2.mask_before_into(b + Time::ONE, 0, &mut t1);
    t1.clamp_min_into(0, &mut t2);
    t2.min_with_into(&id, &mut t3);
    t3.running_max_into(&mut out.lower);

    up.max_with_into(&out.lower, &mut out.upper);

    for c in [id, c_prev, hp_lo_sum, hp_up_sum, up, s_avail, t1, t2, t3] {
        scratch.put_curve(c);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spp::exact_service;

    fn check_sane(b: &ServiceBounds, horizon: i64) {
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
        let hp = spnp_bounds(&c, &[], &[], Time::ZERO, SpnpAvailability::Conservative).unwrap();
        let err = spnp_bounds(
            &c,
            &[&hp.lower],
            &[],
            Time::ZERO,
            SpnpAvailability::Conservative,
        )
        .unwrap_err();
        assert_eq!(err, CurveError::MismatchedLengths { left: 1, right: 0 });
    }

    #[test]
    fn no_blocking_no_interference_brackets_exact() {
        let c = Curve::from_event_times(&[Time(0), Time(10)]).scale(4);
        let exact = exact_service(&c, &[]);
        for variant in [SpnpAvailability::AsPrinted, SpnpAvailability::Conservative] {
            let b = spnp_bounds(&c, &[], &[], Time::ZERO, variant).unwrap();
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
        let b = spnp_bounds(&c, &[], &[], Time(3), SpnpAvailability::Conservative).unwrap();
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
        let hp = spnp_bounds(&hp_c, &[], &[], Time::ZERO, SpnpAvailability::Conservative).unwrap();
        let c = Curve::from_event_times(&[Time(0)]).scale(5);
        let lo = spnp_bounds(
            &c,
            &[&hp.lower],
            &[&hp.upper],
            Time::ZERO,
            SpnpAvailability::Conservative,
        )
        .unwrap();
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
        let hp = spnp_bounds(&hp_c, &[], &[], Time(2), SpnpAvailability::Conservative).unwrap();
        let c = Curve::from_event_times(&[Time(0), Time(8)]).scale(4);
        let printed = spnp_bounds(
            &c,
            &[&hp.lower],
            &[&hp.upper],
            Time(2),
            SpnpAvailability::AsPrinted,
        )
        .unwrap();
        let conserv = spnp_bounds(
            &c,
            &[&hp.lower],
            &[&hp.upper],
            Time(2),
            SpnpAvailability::Conservative,
        )
        .unwrap();
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
    fn soa_chain_matches_aos_oracle() {
        // The retained SoA chain must stay segment-identical to the
        // production AoS chain — same ops, ported kernels — across
        // variants, blocking values, and repeated calls on one warm
        // scratch.
        let hp_c = Curve::from_event_times(&[Time(0), Time(6), Time(11)]).scale(3);
        let c = Curve::from_event_times(&[Time(0), Time(8)]).scale(4);
        let mut scratch = Scratch::new();
        let mut hp = ServiceBounds::zeroed();
        spnp_bounds_into(
            &hp_c,
            &[],
            &[],
            Time(2),
            SpnpAvailability::Conservative,
            &mut scratch,
            &mut hp,
        )
        .unwrap();
        let mut soa = ServiceBounds::zeroed();
        let mut aos = ServiceBounds::zeroed();
        for variant in [SpnpAvailability::AsPrinted, SpnpAvailability::Conservative] {
            for b in [Time::ZERO, Time(2), Time(7)] {
                let hp_lo: &[&Curve] = &[&hp.lower];
                let hp_up: &[&Curve] = &[&hp.upper];
                spnp_bounds_into_soa(&c, hp_lo, hp_up, b, variant, &mut scratch, &mut soa).unwrap();
                spnp_bounds_into(&c, hp_lo, hp_up, b, variant, &mut scratch, &mut aos).unwrap();
                assert_eq!(soa, aos, "variant={variant:?} b={b}");
            }
        }
    }

    #[test]
    fn lower_bound_capped_by_workload() {
        let c = Curve::from_event_times(&[Time(0)]).scale(2);
        let b = spnp_bounds(&c, &[], &[], Time::ZERO, SpnpAvailability::Conservative).unwrap();
        for t in 0..=15 {
            assert!(b.lower.eval(Time(t)) <= c.eval(Time(t)));
        }
    }
}
