//! Monotone curve composition `h(t) = f(g(t))`.
//!
//! Needed by the FCFS analysis (Theorems 8/9): the service bound is the
//! three-way composition `c ∘ G⁻¹ ∘ U` of the subjob's workload function,
//! the inverse of the processor's total workload, and the processor's
//! utilization function. Composition is exact at every integer tick: within
//! any stretch where the inner curve's values stay inside one linear piece of
//! the outer curve, linear∘linear is linear (slope product), and piece
//! boundaries are located with exact integer ceiling division.

use crate::util::div_ceil;
use crate::{CurveError, SoaCurve};

/// Compose `f ∘ g`: the curve `t ↦ f(g(t))`, written into `out`.
///
/// Requirements: `g` nondecreasing with `g(0) ≥ 0` (its values index into
/// `f`'s domain). `f` may be arbitrary. On error `out` is left untouched.
pub fn compose_into(f: &SoaCurve, g: &SoaCurve, out: &mut SoaCurve) -> Result<(), CurveError> {
    g.require_nondecreasing()?;
    if g.values[0] < 0 {
        return Err(CurveError::NegativeAtZero { value: g.values[0] });
    }

    let (fs, fv, fm) = (&f.starts, &f.values, &f.slopes);
    out.begin(g.len() + f.len());
    let mut fi = 0usize; // advances monotonically since g is nondecreasing
    for gi in 0..g.len() {
        let (g0, gv, gm) = (g.starts[gi], g.values[gi], g.slopes[gi]);
        let t1 = g.starts.get(gi + 1).copied();
        if gm == 0 {
            while fi + 1 < fs.len() && fs[fi + 1] <= gv {
                fi += 1;
            }
            out.push(g0, fv[fi] + fm[fi] * (gv - fs[fi]), 0);
            continue;
        }
        // Rising piece: walk the f pieces the swept value range touches.
        let mut cur_t = g0;
        loop {
            let cur_v = gv + gm * (cur_t - g0);
            while fi + 1 < fs.len() && fs[fi + 1] <= cur_v {
                fi += 1;
            }
            out.push(cur_t, fv[fi] + fm[fi] * (cur_v - fs[fi]), fm[fi] * gm);
            // Where does g first reach the next f breakpoint?
            match fs.get(fi + 1).map(|&nf| g0 + div_ceil(nf - gv, gm)) {
                Some(tc) if t1.is_none_or(|t1| tc < t1) => {
                    debug_assert!(tc > cur_t);
                    cur_t = tc;
                }
                _ => break,
            }
        }
    }
    out.finish();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Curve, Segment, Time};

    /// Brute-force reference: evaluate f(g(t)) at each lattice point.
    fn check(f: &Curve, g: &Curve, horizon: i64) {
        let mut h = SoaCurve::zero();
        compose_into(&SoaCurve::from_curve(f), &SoaCurve::from_curve(g), &mut h)
            .expect("composable");
        for t in 0..=horizon {
            let expect = f.eval(Time(g.eval(Time(t))));
            assert_eq!(h.eval(Time(t)), expect, "t={t} f={f} g={g}");
        }
    }

    fn compose_err(f: &Curve, g: &Curve) -> CurveError {
        compose_into(
            &SoaCurve::from_curve(f),
            &SoaCurve::from_curve(g),
            &mut SoaCurve::zero(),
        )
        .unwrap_err()
    }

    #[test]
    fn identity_laws() {
        let f = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(3), 5, 1),
            Segment::new(Time(8), 20, 0),
        ]);
        let id = Curve::identity();
        let mut h = SoaCurve::zero();
        compose_into(
            &SoaCurve::from_curve(&f),
            &SoaCurve::from_curve(&id),
            &mut h,
        )
        .unwrap();
        assert_eq!(h.to_curve(), f);
        check(&id, &f, 15);
    }
    #[test]
    fn step_outer_with_sloped_inner() {
        // Outer: workload step; inner: slope-0/1 utilization-like curve.
        let f = Curve::from_event_times(&[Time(2), Time(5), Time(9)]).scale(4);
        let g = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 1),
            Segment::new(Time(4), 4, 0),
            Segment::new(Time(7), 4, 1),
        ]);
        check(&f, &g, 20);
    }

    #[test]
    fn inner_with_jumps_skips_outer_breakpoints() {
        let f = Curve::from_event_times(&[Time(1), Time(2), Time(3), Time(4)]);
        let g = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(5), 10, 0), // jump over all of f's breakpoints
        ]);
        check(&f, &g, 10);
    }

    #[test]
    fn steep_inner_slope() {
        let f = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 1),
            Segment::new(Time(6), 6, 0),
        ]);
        let g = Curve::affine(0, 3); // g(t) = 3t skips f values
        check(&f, &g, 10);
    }

    #[test]
    fn outer_with_negative_slopes_is_fine() {
        let f = Curve::from_segments(vec![
            Segment::new(Time(0), 10, -1),
            Segment::new(Time(5), 0, 2),
        ]);
        let g = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 1),
            Segment::new(Time(8), 8, 0),
        ]);
        check(&f, &g, 12);
    }

    #[test]
    fn decreasing_inner_rejected() {
        let f = Curve::identity();
        let g = Curve::affine(5, -1);
        assert!(matches!(
            compose_err(&f, &g),
            CurveError::NotMonotone { .. }
        ));
    }

    #[test]
    fn negative_inner_start_rejected() {
        let f = Curve::identity();
        let g = Curve::affine(-3, 1);
        assert!(matches!(
            compose_err(&f, &g),
            CurveError::NegativeAtZero { value: -3 }
        ));
    }
}
