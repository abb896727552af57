//! The piecewise-linear curve type.

use crate::{CurveError, Segment, SoaCurve, Time};

/// A right-continuous piecewise-linear function `f : [0, ∞) → ℤ` with integer
/// breakpoints, values and slopes.
///
/// `Curve` is the common representation for every cumulative function of the
/// ICPP'98 analysis: arrival functions (`f_arr`), departure functions
/// (`f_dep`), workload functions (`c`), service functions (`S`), availability
/// functions (`A`, `B`) and utilization functions (`U`). Values are plain
/// `i64`; their meaning (instance counts, ticks of work, ticks of time) is
/// established by the caller.
///
/// Invariants (enforced by all constructors):
/// * at least one segment,
/// * the first segment starts at [`Time::ZERO`],
/// * segment start times are strictly increasing,
/// * the representation is *normalized*: no segment is a straight-line
///   continuation of its predecessor.
///
/// Jump discontinuities are encoded implicitly: a jump exists at a breakpoint
/// whenever the previous piece's line, extended to the breakpoint, differs
/// from the new segment's `value` (curves are right-continuous, so the new
/// `value` is the value *at* the breakpoint).
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Curve {
    segs: Vec<Segment>,
}

impl Curve {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Build a curve from raw segments, validating and normalizing.
    pub fn try_from_segments(segs: Vec<Segment>) -> Result<Curve, CurveError> {
        if segs.is_empty() {
            return Err(CurveError::Empty);
        }
        if segs[0].start != Time::ZERO {
            return Err(CurveError::FirstSegmentNotAtZero);
        }
        for i in 1..segs.len() {
            if segs[i].start <= segs[i - 1].start {
                return Err(CurveError::UnsortedSegments { index: i });
            }
        }
        let mut c = Curve { segs };
        c.normalize();
        Ok(c)
    }

    /// Build a curve from raw segments; panics on invalid input.
    ///
    /// Prefer [`Curve::try_from_segments`] when the input is not statically
    /// known to be well-formed.
    pub fn from_segments(segs: Vec<Segment>) -> Curve {
        Curve::try_from_segments(segs).expect("invalid segment list")
    }

    /// The constant curve `f(t) = v`.
    pub fn constant(v: i64) -> Curve {
        Curve {
            segs: vec![Segment::new(Time::ZERO, v, 0)],
        }
    }

    /// The zero curve — e.g. the trivial lower bound on any service function
    /// (Definition 6 of the paper).
    pub fn zero() -> Curve {
        Curve::constant(0)
    }
}

/// The zero curve (there is no "empty" curve — every curve has at least
/// one segment).
impl Default for Curve {
    fn default() -> Curve {
        Curve::zero()
    }
}

impl Curve {
    /// The affine curve `f(t) = v0 + slope · t`.
    pub fn affine(v0: i64, slope: i64) -> Curve {
        Curve {
            segs: vec![Segment::new(Time::ZERO, v0, slope)],
        }
    }

    /// The identity curve `f(t) = t` — the trivial upper bound on any service
    /// function (Definition 6: a processor can offer at most `t` time by `t`).
    pub fn identity() -> Curve {
        Curve::affine(0, 1)
    }

    /// Pointwise scaling `k·self` — e.g. the workload function
    /// `c(t) = f_arr(t) · τ` of Definition 3.
    #[must_use]
    pub fn scale(&self, k: i64) -> Curve {
        let mut out = SoaCurve::zero();
        SoaCurve::from_curve(self).scale_into(k, &mut out);
        out.to_curve()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The segments of the curve (normalized, sorted).
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segs
    }

    /// Index of the segment whose piece contains `t` (`t ≥ 0`).
    fn seg_index(&self, t: Time) -> usize {
        debug_assert!(t >= Time::ZERO, "curves are defined on [0, ∞)");
        // partition_point: first segment with start > t, minus one.
        self.segs.partition_point(|s| s.start <= t) - 1
    }

    /// Evaluate the curve at `t ≥ 0` (right-continuous value).
    #[inline]
    pub fn eval(&self, t: Time) -> i64 {
        self.segs[self.seg_index(t)].eval(t)
    }

    /// Left limit `f(t⁻)` for `t > 0`: the value of the piece active just
    /// before `t`, extended to `t`. Differs from [`Curve::eval`] exactly at
    /// jump discontinuities.
    pub fn eval_left(&self, t: Time) -> i64 {
        debug_assert!(t > Time::ZERO, "left limit needs t > 0");
        let i = self.seg_index(t);
        if self.segs[i].start == t && i > 0 {
            self.segs[i - 1].eval(t)
        } else {
            self.segs[i].eval(t)
        }
    }

    /// Iterator over breakpoint times (segment starts, including `0`).
    pub fn breakpoints(&self) -> impl Iterator<Item = Time> + '_ {
        self.segs.iter().map(|s| s.start)
    }

    /// `true` iff the curve never decreases **on the tick lattice**:
    /// `f(t) ≥ f(t−1)` for every integer `t ≥ 1`.
    ///
    /// Lattice operations (pointwise min/max, running extrema) place
    /// breakpoints at the first integer past a fractional crossing, so the
    /// real-line interpolation may overshoot between the last lattice point
    /// of a piece and the next breakpoint; only lattice monotonicity is
    /// meaningful for such curves.
    pub fn is_nondecreasing(&self) -> bool {
        self.first_decrease().is_none()
    }

    /// First integer `t` with `f(t) < f(t−1)`, if any.
    pub fn first_decrease(&self) -> Option<Time> {
        for (i, s) in self.segs.iter().enumerate() {
            // Decrease across the breakpoint vs. the previous lattice point
            // (it comes before one inside the piece).
            if i > 0 && s.start > Time::ZERO && s.value < self.eval(s.start - Time(1)) {
                return Some(s.start);
            }
            // Decrease inside the piece: a negative slope observable at a
            // second lattice point.
            if s.slope < 0 {
                let second = s.start + Time(1);
                if self.segs.get(i + 1).is_none_or(|n| second < n.start) {
                    return Some(second);
                }
            }
        }
        None
    }

    /// Check the curve is nondecreasing, returning a descriptive error if not.
    pub fn require_nondecreasing(&self) -> Result<(), CurveError> {
        match self.first_decrease() {
            None => Ok(()),
            Some(at) => Err(CurveError::NotMonotone { at }),
        }
    }

    /// Sample the curve at every integer tick in `[from, to]` (inclusive) —
    /// intended for tests and debugging, not hot paths.
    pub fn sample(&self, from: Time, to: Time) -> Vec<i64> {
        (from.ticks()..=to.ticks())
            .map(|t| self.eval(Time(t)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Internal
    // ------------------------------------------------------------------

    /// Merge segments that continue their predecessor's line — in place,
    /// without allocating, by compacting with a read/write pointer pair.
    fn normalize(&mut self) {
        let mut w = 0usize;
        for r in 0..self.segs.len() {
            let s = self.segs[r];
            if w > 0 {
                let prev = self.segs[w - 1];
                if prev.slope == s.slope && prev.eval(s.start) == s.value {
                    continue;
                }
            }
            self.segs[w] = s;
            w += 1;
        }
        self.segs.truncate(w);
    }

    /// Internal constructor for segment lists already normalized (an SoA
    /// curve's columns):
    /// debug-checks the full invariant set, so a malformed list fails
    /// loudly here instead of producing a curve that silently violates
    /// the representation invariants downstream.
    pub(crate) fn from_normalized(segs: Vec<Segment>) -> Curve {
        debug_assert!(!segs.is_empty(), "written curve must be non-empty");
        debug_assert!(segs[0].start == Time::ZERO);
        debug_assert!(segs.windows(2).all(|w| w[0].start < w[1].start));
        debug_assert!(segs
            .windows(2)
            .all(|w| { w[0].slope != w[1].slope || w[0].eval(w[1].start) != w[1].value }));
        Curve { segs }
    }
}

impl std::fmt::Display for Curve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Curve[")?;
        for (i, s) in self.segs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "({}: {} + {}·Δt)", s.start, s.value, s.slope)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staircase() -> Curve {
        // 0 on [0,5), 2 on [5,10), then slope 1.
        Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(5), 2, 0),
            Segment::new(Time(10), 2, 1),
        ])
    }

    #[test]
    fn construction_validates() {
        assert_eq!(Curve::try_from_segments(vec![]), Err(CurveError::Empty));
        assert_eq!(
            Curve::try_from_segments(vec![Segment::new(Time(1), 0, 0)]),
            Err(CurveError::FirstSegmentNotAtZero)
        );
        let dup = vec![Segment::new(Time(0), 0, 0), Segment::new(Time(0), 1, 0)];
        assert_eq!(
            Curve::try_from_segments(dup),
            Err(CurveError::UnsortedSegments { index: 1 })
        );
    }

    #[test]
    fn normalization_merges_continuations() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 1),
            Segment::new(Time(5), 5, 1), // continuation of the same line
            Segment::new(Time(8), 9, 1), // jump of +1
        ]);
        assert_eq!(c.segments().len(), 2);
        assert_eq!(c.eval(Time(7)), 7);
        assert_eq!(c.eval(Time(8)), 9);
    }

    #[test]
    fn eval_and_left_limits() {
        let c = staircase();
        assert_eq!(c.eval(Time(0)), 0);
        assert_eq!(c.eval(Time(4)), 0);
        assert_eq!(c.eval(Time(5)), 2); // right-continuous
        assert_eq!(c.eval_left(Time(5)), 0);
        assert_eq!(c.eval_left(Time(7)), 2);
        assert_eq!(c.eval(Time(12)), 4);
        assert_eq!(c.eval_left(Time(12)), 4);
    }

    #[test]
    fn monotonicity_detection() {
        assert!(staircase().is_nondecreasing());
        let dec = Curve::from_segments(vec![
            Segment::new(Time(0), 10, 0),
            Segment::new(Time(3), 4, 0), // downward jump
        ]);
        assert_eq!(dec.first_decrease(), Some(Time(3)));
        let negslope = Curve::affine(0, -1);
        // The first observable lattice decrease is at t = 1 (f(1) < f(0)).
        assert_eq!(negslope.first_decrease(), Some(Time(1)));
        assert!(negslope.require_nondecreasing().is_err());
        // Overshoot-then-dip representations that are monotone on the
        // lattice count as nondecreasing: values 0,1,2,2,… with the second
        // piece starting below the first piece's interpolated extension.
        let lattice_monotone = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 1),
            Segment::new(Time(3), 2, 0),
        ]);
        assert!(lattice_monotone.is_nondecreasing());
    }

    #[test]
    fn scale_multiplies_values_and_slopes() {
        let c = staircase().scale(3);
        assert_eq!(c.sample(Time(0), Time(12)), {
            let base = staircase().sample(Time(0), Time(12));
            base.into_iter().map(|v| 3 * v).collect::<Vec<_>>()
        });
        // Scaling by zero collapses every piece into the zero curve.
        assert_eq!(staircase().scale(0), Curve::zero());
    }

    #[test]
    fn display_is_stable() {
        let s = format!("{}", Curve::affine(1, 2));
        assert_eq!(s, "Curve[(0: 1 + 2·Δt)]");
    }
}
