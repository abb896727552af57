//! # rta-curves — exact piecewise-linear curve algebra for real-time calculus
//!
//! This crate is the mathematical substrate for the service-function based
//! response-time analysis of Li, Bettati & Zhao (ICPP 1998). Every quantity
//! in that analysis — arrival functions, departure functions, workload
//! functions, service functions, utilization functions — is a
//! right-continuous piecewise-linear (PWL) function of time.
//!
//! ## One curve type
//!
//! Every curve is one representation, the structure-of-arrays
//! [`SoaCurve`] (three parallel columns of breakpoint starts, values and
//! slopes): arrival patterns are built as `SoaCurve`s
//! ([`SoaCurve::from_event_times_into`]), the analyses compute on them and
//! reports hand them back. The exact operations the theorems need:
//!
//! * pointwise linear combination, k-way sums, minimum and maximum, shifts
//!   and departure extraction `⌊S(t)/τ⌋` ([`soa`]), plus resumable
//!   monotone eval/inverse sweeps ([`SoaCursor`]), whose
//!   [`SoaCursor::inverse_at`] is the pseudo-inverse
//!   `g⁻¹(y) = min { s : g(s) ≥ y }` of Definition 5;
//! * the busy-window bound that Theorems 3, 5 and 6 share, in two fused
//!   merge passes ([`busy`]);
//! * FCFS on staircases: Theorem 7's utilization with both Theorem 8/9
//!   serving frontiers in one pass, and each frontier bound in one more
//!   ([`fcfs`]);
//! * IWRR on staircases: the convolution of a workload with the strict
//!   round-robin service curve as one recurrence pass ([`iwrr`]).
//!
//! Every kernel writes into a caller-provided curve and draws its
//! temporaries from a [`Scratch`], so a warm analysis allocates nothing.
//! [`SoaCurve::try_from_pieces`] builds a curve from checked
//! `(start, value, slope)` pieces. The lattice min-plus convolution
//! ([`convolution`]) is a test oracle.
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
//! use rta_curves::{SoaCursor, SoaCurve, Time};
//!
//! // Arrival function of a job released at t = 0, 10, 20 (3 instances).
//! let mut arr = SoaCurve::zero();
//! SoaCurve::from_event_times_into(&[Time(0), Time(10), Time(20)], &mut arr);
//! assert_eq!(arr.eval(Time(0)), 1);
//! assert_eq!(arr.eval(Time(15)), 2);
//! // Pseudo-inverse: release time of the 2nd instance.
//! assert_eq!(SoaCursor::new(&arr).inverse_at(2), Some(Time(10)));
//!
//! // Workload function c(t) = f_arr(t) * tau with tau = 4.
//! let mut c = SoaCurve::zero();
//! arr.scale_into(4, &mut c);
//! assert_eq!(c.eval(Time(25)), 12);
//! // The same curve from its (start, value, slope) pieces.
//! let pieces = [(0, 4, 0), (10, 8, 0), (20, 12, 0)];
//! assert_eq!(SoaCurve::try_from_pieces(&pieces), Ok(c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod busy;
pub mod convolution;
pub mod fcfs;
pub mod iwrr;
pub mod soa;
mod time;
mod util;

pub use arena::Scratch;
pub use busy::{busy_window_into, WindowStart};
pub use fcfs::{fcfs_context_into, frontier_bound_into};
pub use iwrr::iwrr_bounds_into;
pub use soa::{sum_many_into, SoaCursor, SoaCurve, SoaView};
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
