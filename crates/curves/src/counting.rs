//! Event-counting curves: arrival and departure functions.
//!
//! An *arrival function* `f_arr(t)` (Definition 1) counts the instances of a
//! subjob released during `[0, t]`; a *departure function* `f_dep(t)`
//! (Definition 2) counts completions. Both are nondecreasing step curves
//! with unit (or multi-unit, for simultaneous events) upward jumps, and are
//! represented as plain [`Curve`]s whose values are counts.

use crate::{Curve, SoaCurve, Time};

impl Curve {
    /// Build the counting curve of a sorted sequence of event times:
    /// `f(t) = #{ i : times[i] ≤ t }`.
    ///
    /// Multiple equal times produce a single multi-unit jump. Panics if the
    /// sequence is unsorted or contains a negative time.
    pub fn from_event_times(times: &[Time]) -> Curve {
        let mut c = SoaCurve::zero();
        SoaCurve::from_event_times_into(times, &mut c);
        c.to_curve()
    }

    /// Release/completion time of the `m`-th event (`m ≥ 1`): the
    /// pseudo-inverse `f⁻¹(m)` of Equation 3. `None` if fewer than `m`
    /// events ever occur (within the curve's represented extent).
    pub fn event_time(&self, m: i64) -> Option<Time> {
        debug_assert!(m >= 1);
        self.inverse_at(m)
    }

    /// Number of events up to and including `t` — an alias of
    /// [`Curve::eval`] that documents counting intent.
    #[inline]
    pub fn count_at(&self, t: Time) -> i64 {
        self.eval(t)
    }

    /// Total number of events represented (the final value), provided the
    /// curve is a bounded step function (final slope 0).
    pub fn total_events(&self) -> i64 {
        let last = self.segments().last().expect("non-empty");
        debug_assert_eq!(last.slope, 0, "unbounded counting curve");
        last.value
    }

    /// Iterator over `(time, delta)` jump pairs of a step curve.
    pub fn jumps(&self) -> impl Iterator<Item = (Time, i64)> + '_ {
        let segs = self.segments();
        let first = if segs[0].value != 0 {
            Some((Time::ZERO, segs[0].value))
        } else {
            None
        };
        first.into_iter().chain(segs.windows(2).filter_map(|w| {
            let d = w[1].value - w[0].eval(w[1].start);
            (d != 0).then_some((w[1].start, d))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_roundtrip() {
        let times = vec![Time(0), Time(0), Time(5), Time(9), Time(9), Time(9)];
        let c = Curve::from_event_times(&times);
        let js: Vec<_> = c.jumps().collect();
        assert_eq!(js, vec![(Time(0), 2), (Time(5), 1), (Time(9), 3)]);
        assert_eq!(c.total_events(), 6);
        assert_eq!(c.count_at(Time(0)), 2);
        assert_eq!(c.count_at(Time(4)), 2);
        assert_eq!(c.count_at(Time(5)), 3);
        assert_eq!(c.count_at(Time(100)), 6);
    }

    #[test]
    fn event_times_are_pseudo_inverse() {
        let c = Curve::from_event_times(&[Time(2), Time(7), Time(7)]);
        assert_eq!(c.event_time(1), Some(Time(2)));
        assert_eq!(c.event_time(2), Some(Time(7)));
        assert_eq!(c.event_time(3), Some(Time(7)));
        assert_eq!(c.event_time(4), None);
    }

    #[test]
    fn empty_event_list() {
        let c = Curve::from_event_times(&[]);
        assert_eq!(c, Curve::zero());
        assert_eq!(c.total_events(), 0);
        assert_eq!(c.event_time(1), None);
        assert_eq!(c.jumps().count(), 0);
    }

    #[test]
    fn jumps_report_multiplicity() {
        let c = Curve::from_event_times(&[Time(0), Time(3), Time(3)]);
        let js: Vec<_> = c.jumps().collect();
        assert_eq!(js, vec![(Time(0), 1), (Time(3), 2)]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_events_panic() {
        let _ = Curve::from_event_times(&[Time(5), Time(2)]);
    }
}
