//! Pseudo-inverse of nondecreasing curves (Definition 5 of the paper):
//! `g⁻¹(y) = min { s : g(s) ≥ y }`.
//!
//! For an arrival function, `f_arr⁻¹(m)` is the release time of the `m`-th
//! instance (Equation 3). Inverses are taken over the integer lattice; for
//! the step and slope-`1` curves that dominate the analysis the lattice
//! answer coincides with the continuous one.

use crate::util::div_ceil;
use crate::{Curve, Time};

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
}
