//! # rta-curves — exact piecewise-linear curve algebra for real-time calculus
//!
//! This crate is the mathematical substrate for the service-function based
//! response-time analysis of Li, Bettati & Zhao (ICPP 1998). Every quantity
//! in that analysis — arrival functions, departure functions, workload
//! functions, service functions, utilization functions — is a
//! right-continuous piecewise-linear (PWL) function of time.
//!
//! ## One layout
//!
//! The analysis computes on one representation, the structure-of-arrays
//! [`SoaCurve`] (three parallel columns of breakpoint starts, values and
//! slopes), with the exact operations the theorems need:
//!
//! * pointwise linear combination, k-way sums, minimum and maximum, prefix
//!   ("running") extrema, shifts and departure extraction
//!   `⌊S(t)/τ⌋` ([`soa`]), plus resumable monotone eval/inverse sweeps
//!   ([`SoaCursor`]);
//! * the busy-window bound that Theorems 3, 5 and 6 share, in two fused
//!   merge passes ([`busy`]);
//! * FCFS on staircases: Theorem 7's utilization with both Theorem 8/9
//!   serving frontiers in one pass, and each frontier bound in one more
//!   ([`fcfs`]);
//! * IWRR on staircases: the convolution of a workload with the strict
//!   round-robin service curve as one recurrence pass ([`iwrr`]);
//! * the pseudo-inverse `g⁻¹(y) = min { s : g(s) ≥ y }` at a point
//!   ([`inverse`]).
//!
//! Every kernel writes into a caller-provided curve and draws its
//! temporaries from a [`Scratch`], so a warm analysis allocates nothing.
//! The array-of-structs [`Curve`] is the ingest and report type: arrival
//! patterns are built as `Curve`s ([`counting`]), reports hand `Curve`s
//! back, and [`SoaCurve::from_curve`] / [`SoaCurve::to_curve`] convert at
//! those two boundaries. [`CurveArena`] interns ingest curves
//! ([`intern`]). The lattice min-plus convolution ([`convolution`]) is a
//! test oracle.
//!
//! ## Exactness model: the tick lattice
//!
//! Time is measured in integer **ticks** ([`Time`]). All schedulability
//! decisions are made on the integer lattice: curves are piecewise linear
//! with *integer* breakpoints, values, and slopes, and every operation is
//! specified (and exact) at integer times. A model is quantized to ticks
//! once, at construction time; afterwards the analysis is free of floating
//! point, so a job is never admitted or rejected because of rounding noise.
//!
//! Operations whose true real-valued breakpoints could be fractional (e.g.
//! the crossing point inside a pointwise minimum) place the breakpoint at
//! the first integer tick past the crossing, which preserves the value of
//! the result at every integer tick. Because all events in a quantized
//! system happen on the lattice, this is exact for the analysis.
//!
//! ## Quick example
//!
//! ```
//! use rta_curves::{Curve, SoaCurve, Time};
//!
//! // Arrival function of a job released at t = 0, 10, 20 (3 instances).
//! let arr = Curve::from_event_times(&[Time(0), Time(10), Time(20)]);
//! assert_eq!(arr.eval(Time(0)), 1);
//! assert_eq!(arr.eval(Time(15)), 2);
//! // Pseudo-inverse: release time of the 2nd instance.
//! assert_eq!(arr.inverse_at(2), Some(Time(10)));
//!
//! // Workload function c(t) = f_arr(t) * tau with tau = 4, computed on
//! // the analysis layout.
//! let mut c = SoaCurve::zero();
//! SoaCurve::from_curve(&arr).scale_into(4, &mut c);
//! assert_eq!(c.eval(Time(25)), 12);
//! assert_eq!(c.to_curve(), arr.scale(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod busy;
pub mod convolution;
pub mod counting;
mod curve;
pub mod fcfs;
pub mod intern;
pub mod inverse;
pub mod iwrr;
mod segment;
pub mod soa;
mod time;
mod util;

pub use arena::Scratch;
pub use busy::{busy_window_into, WindowStart};
pub use curve::Curve;
pub use fcfs::{fcfs_context_into, frontier_bound_into};
pub use intern::{CurveArena, CurveId};
pub use iwrr::iwrr_bounds_into;
pub use segment::Segment;
pub use soa::{linear_combine_line_into, sum_many_into, SoaCursor, SoaCurve, SoaView};
pub use time::{Time, DEFAULT_TICKS_PER_UNIT};

/// Error type for curve construction and operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurveError {
    /// A curve must contain at least one segment.
    Empty,
    /// The first segment of a curve must start at time zero.
    FirstSegmentNotAtZero,
    /// Segment start times must be strictly increasing.
    UnsortedSegments {
        /// Index of the offending segment.
        index: usize,
    },
    /// An operation required a nondecreasing curve but got a decreasing one.
    NotMonotone {
        /// Time at which the curve decreases.
        at: Time,
    },
    /// The pseudo-inverse of a curve with a negative-slope or otherwise
    /// unsupported segment was requested.
    UnsupportedSlope {
        /// The offending slope.
        slope: i64,
    },
    /// An operation on cumulative curves required `f(0) ≥ 0`.
    NegativeAtZero {
        /// The offending initial value.
        value: i64,
    },
    /// Two curve collections that must be paired element-wise (e.g. peer
    /// lower/upper service bounds) have different lengths.
    MismatchedLengths {
        /// Length of the left collection.
        left: usize,
        /// Length of the right collection.
        right: usize,
    },
}

impl std::fmt::Display for CurveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CurveError::Empty => write!(f, "curve must contain at least one segment"),
            CurveError::FirstSegmentNotAtZero => {
                write!(f, "first segment must start at time zero")
            }
            CurveError::UnsortedSegments { index } => {
                write!(f, "segment {index} does not start after its predecessor")
            }
            CurveError::NotMonotone { at } => {
                write!(f, "curve decreases at t = {at}, expected nondecreasing")
            }
            CurveError::UnsupportedSlope { slope } => {
                write!(f, "operation does not support segments of slope {slope}")
            }
            CurveError::NegativeAtZero { value } => {
                write!(f, "operation requires f(0) ≥ 0, got {value}")
            }
            CurveError::MismatchedLengths { left, right } => {
                write!(
                    f,
                    "paired curve collections differ in length: {left} vs {right}"
                )
            }
        }
    }
}

impl std::error::Error for CurveError {}

#[cfg(test)]
mod error_tests {
    use super::*;

    #[test]
    fn error_messages_name_the_problem() {
        let cases: Vec<(CurveError, &str)> = vec![
            (CurveError::Empty, "at least one segment"),
            (CurveError::FirstSegmentNotAtZero, "start at time zero"),
            (CurveError::UnsortedSegments { index: 3 }, "segment 3"),
            (CurveError::NotMonotone { at: Time(7) }, "t = 7"),
            (CurveError::UnsupportedSlope { slope: -2 }, "slope -2"),
            (CurveError::NegativeAtZero { value: -5 }, "-5"),
            (
                CurveError::MismatchedLengths { left: 2, right: 3 },
                "2 vs 3",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
        }
    }
}
