//! Rate-latency service bounds.
//!
//! Definition 6 of the paper introduces upper/lower bound functions. The
//! network-calculus composition in `rta-core` (`nc.rs`) fits each hop's
//! guaranteed service with the classical rate-latency family of Cruz's
//! calculus (the paper's refs [20, 21]) and concatenates the fits along a
//! chain.

use crate::{Curve, Segment, Time};

/// A rate-latency service lower bound `β(t) = max(0, R·(t − T))`: nothing for
/// `T` ticks, then service at rate `R`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RateLatency {
    /// Initial service latency in ticks.
    pub latency: Time,
    /// Service rate (work units per tick), ≥ 1.
    pub rate: i64,
}

impl RateLatency {
    /// The bound as a concrete curve.
    pub fn curve(&self) -> Curve {
        if self.latency == Time::ZERO {
            return Curve::affine(0, self.rate);
        }
        Curve::from_segments(vec![
            Segment::new(Time::ZERO, 0, 0),
            Segment::new(self.latency, 0, self.rate),
        ])
    }

    /// Concatenation of two rate-latency servers (min-plus convolution):
    /// latencies add, the slower rate dominates.
    pub fn then(&self, other: &RateLatency) -> RateLatency {
        RateLatency {
            latency: self.latency + other.latency,
            rate: self.rate.min(other.rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_latency_algebra() {
        let a = RateLatency {
            latency: Time(3),
            rate: 2,
        };
        let b = RateLatency {
            latency: Time(5),
            rate: 1,
        };
        let ab = a.then(&b);
        assert_eq!(
            ab,
            RateLatency {
                latency: Time(8),
                rate: 1
            }
        );
        let c = a.curve();
        assert_eq!(c.eval(Time(3)), 0);
        assert_eq!(c.eval(Time(7)), 8);
    }

    #[test]
    fn zero_latency_rate_latency_is_affine() {
        let srv = RateLatency {
            latency: Time::ZERO,
            rate: 3,
        };
        assert_eq!(srv.curve(), Curve::affine(0, 3));
    }
}
