//! Pseudo-inverse of nondecreasing curves (Definition 5 of the paper):
//! `g⁻¹(y) = min { s : g(s) ≥ y }`.
//!
//! For an arrival function, `f_arr⁻¹(m)` is the release time of the `m`-th
//! instance (Equation 3). Inverses are taken over the integer lattice; for
//! the step and slope-`1` curves that dominate the analysis the lattice
//! answer coincides with the continuous one.

use crate::util::div_ceil;
use crate::{Curve, CurveError, SoaCurve, Time};

impl Curve {
    /// Smallest integer `t ≥ 0` with `f(t) ≥ y`, or `None` if the curve never
    /// reaches `y`.
    ///
    /// Works for arbitrary (not necessarily monotone) curves: the first
    /// reaching time is found by scanning pieces in order.
    pub fn inverse_at(&self, y: i64) -> Option<Time> {
        let segs = self.segments();
        for (i, s) in segs.iter().enumerate() {
            if s.value >= y {
                return Some(s.start);
            }
            if s.slope > 0 {
                let off = div_ceil(y - s.value, s.slope);
                debug_assert!(off >= 1);
                let t = s.start + Time(off);
                match segs.get(i + 1) {
                    Some(next) if t >= next.start => {} // reached after piece ends
                    _ => return Some(t),
                }
            }
        }
        None
    }
}

impl SoaCurve {
    /// Largest value the curve attains on `[0, horizon]` (lattice points).
    pub fn sup_on(&self, horizon: Time) -> i64 {
        let h = horizon.ticks();
        let mut best = i64::MIN;
        for i in 0..self.len() {
            if self.starts[i] > h {
                break;
            }
            let end = self.starts.get(i + 1).map_or(h, |&n| (n - 1).min(h));
            best = best
                .max(self.values[i])
                .max(self.values[i] + self.slopes[i] * (end - self.starts[i]));
        }
        best
    }

    /// The pseudo-inverse as a curve over the **value** axis,
    /// `g⁻¹(y) = min { s : g(s) ≥ y }` for nondecreasing `g`, written into
    /// `out`.
    ///
    /// The result maps integer values `y` to times (as `i64` ticks). It is
    /// well-defined only for `y ≤ sup g`; beyond the supremum of a curve
    /// whose final slope is zero there is no finite inverse, so the result
    /// is **valid on `[0, g.sup_on(·)]` only** (its final plateau is
    /// extended, which callers must not query). Curves with final slope ≥ 1
    /// have a total inverse.
    ///
    /// Supported slopes: `0` and `1` are exact and compact; slopes ≥ 2 are
    /// expanded into an exact staircase (one step per time tick of the
    /// piece). Negative slopes are rejected. On error `out` is left
    /// untouched (all validation runs before the sweep starts writing).
    pub fn inverse_curve_into(&self, out: &mut SoaCurve) -> Result<(), CurveError> {
        self.require_nondecreasing()?;
        if self.values[0] < 0 {
            return Err(CurveError::NegativeAtZero {
                value: self.values[0],
            });
        }
        // Validate slopes upfront, in sweep order, so the sweep itself is
        // infallible: negative slopes are unsupported anywhere, and slopes
        // ≥ 2 only on bounded pieces (the staircase expansion is finite).
        for (i, &slope) in self.slopes.iter().enumerate() {
            let unbounded = i + 1 == self.len();
            if slope < 0 || (slope >= 2 && unbounded) {
                return Err(CurveError::UnsupportedSlope { slope });
            }
        }

        out.begin(self.len() + 2);
        // `covered` = the largest y for which the inverse has been emitted;
        // the inverse for y ≤ g(0) is 0.
        out.push(0, 0, 0);
        let mut covered = self.values[0];
        for i in 0..self.len() {
            let (start, value, slope) = (self.starts[i], self.values[i], self.slopes[i]);
            let seg_end = self.starts.get(i + 1).copied();
            // A jump at `start`: every y in (covered, value] is first reached
            // there. (A plateau contributes nothing new; an upward jump INTO
            // the next piece is handled when that piece starts.)
            if value > covered {
                out.push(covered + 1, start, 0);
                covered = value;
            }
            match slope {
                0 => {}
                1 => {
                    // On the rising piece the inverse is the mirrored line:
                    // y = value + (t − start) ⇒ t = start + (y − value).
                    let top = match seg_end {
                        Some(t1) => value + (t1 - 1 - start),
                        None => {
                            // Unbounded rising tail: inverse continues forever.
                            if covered < i64::MAX {
                                out.push(covered + 1, start + (covered + 1 - value), 1);
                            }
                            break;
                        }
                    };
                    if top > covered {
                        out.push(covered + 1, start + (covered + 1 - value), 1);
                        covered = top;
                    }
                }
                k => {
                    // Exact staircase: tick Δ of the piece first reaches
                    // values (value + k(Δ−1), value + kΔ].
                    let end_tick = seg_end.expect("validated bounded") - start;
                    for d in 1..=end_tick - 1 {
                        let top = value + k * d;
                        if top > covered {
                            out.push(covered + 1, start + d, 0);
                            covered = top;
                        }
                    }
                }
            }
        }
        out.finish();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Segment;

    #[test]
    fn inverse_at_step_function() {
        // Arrivals at 0, 10, 10, 25.
        let c = Curve::from_event_times(&[Time(0), Time(10), Time(10), Time(25)]);
        assert_eq!(c.inverse_at(0), Some(Time(0)));
        assert_eq!(c.inverse_at(1), Some(Time(0)));
        assert_eq!(c.inverse_at(2), Some(Time(10)));
        assert_eq!(c.inverse_at(3), Some(Time(10)));
        assert_eq!(c.inverse_at(4), Some(Time(25)));
        assert_eq!(c.inverse_at(5), None);
    }

    #[test]
    fn inverse_at_sloped_curve() {
        // f(t) = 0 on [0,5), then slope 2.
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(5), 0, 2),
        ]);
        assert_eq!(c.inverse_at(1), Some(Time(6))); // f(6)=2 ≥ 1, f(5)=0
        assert_eq!(c.inverse_at(2), Some(Time(6)));
        assert_eq!(c.inverse_at(3), Some(Time(7)));
    }

    #[test]
    fn inverse_at_skips_plateaus() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 1),
            Segment::new(Time(3), 3, 0),
            Segment::new(Time(8), 3, 1),
        ]);
        assert_eq!(c.inverse_at(3), Some(Time(3)));
        assert_eq!(c.inverse_at(4), Some(Time(9)));
    }

    #[test]
    fn sup_on_finds_piece_maxima() {
        let c = SoaCurve::from_curve(&Curve::from_segments(vec![
            Segment::new(Time(0), 0, 1),
            Segment::new(Time(5), 0, 0),
        ]));
        assert_eq!(c.sup_on(Time(10)), 4); // max of rising piece at t=4
        assert_eq!(c.sup_on(Time(3)), 3);
    }

    /// Galois connection: g(t) ≥ y ⇔ g⁻¹(y) ≤ t, checked pointwise.
    fn check_galois(c: &Curve, horizon: i64, ymax: i64) {
        for y in 0..=ymax {
            let inv = c.inverse_at(y);
            for t in 0..=horizon {
                let reached = c.eval(Time(t)) >= y;
                let inv_le = inv.is_some_and(|it| it <= Time(t));
                assert_eq!(reached, inv_le, "y={y} t={t} inv={inv:?} for {c}");
            }
        }
    }

    #[test]
    fn galois_connection_examples() {
        check_galois(&Curve::identity(), 12, 12);
        check_galois(
            &Curve::from_event_times(&[Time(1), Time(4), Time(4), Time(9)]),
            12,
            6,
        );
        check_galois(
            &Curve::from_segments(vec![
                Segment::new(Time(0), 0, 0),
                Segment::new(Time(2), 3, 1),
                Segment::new(Time(6), 7, 0),
            ]),
            12,
            10,
        );
    }

    /// inverse_curve_into agrees with inverse_at for every y in range.
    fn check_inverse_curve(c: &Curve, ymax: i64) {
        let mut inv = SoaCurve::zero();
        SoaCurve::from_curve(c)
            .inverse_curve_into(&mut inv)
            .expect("invertible");
        for y in 0..=ymax {
            let expect = c.inverse_at(y).expect("y within range").ticks();
            assert_eq!(inv.eval(Time(y)), expect, "y={y} for {c}");
        }
    }

    #[test]
    fn inverse_curve_of_staircase() {
        let c = Curve::from_event_times(&[Time(0), Time(3), Time(3), Time(7)]);
        check_inverse_curve(&c, 4);
    }

    #[test]
    fn inverse_curve_of_slope_one() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(4), 0, 1),
        ]);
        check_inverse_curve(&c, 20);
    }

    #[test]
    fn inverse_curve_of_mixed_plateau_and_jump() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 2, 0),
            Segment::new(Time(5), 6, 1),
            Segment::new(Time(9), 15, 0),
        ]);
        check_inverse_curve(&c, 15);
        assert!(c.is_nondecreasing());
    }

    #[test]
    fn inverse_curve_with_steep_slope_staircase() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 3),
            Segment::new(Time(4), 12, 0),
        ]);
        check_inverse_curve(&c, 12);
    }

    #[test]
    fn inverse_curve_rejects_decreasing() {
        let c = SoaCurve::from_curve(&Curve::affine(5, -1));
        assert!(matches!(
            c.inverse_curve_into(&mut SoaCurve::zero()),
            Err(CurveError::NotMonotone { .. })
        ));
    }
}
