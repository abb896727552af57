//! Min-plus convolution on the lattice — a test oracle.
//!
//! No analysis computes a general convolution: the one policy whose bound
//! is a convolution, IWRR, computes it as a recurrence on staircases
//! ([`crate::iwrr`]). [`min_plus_convolve_lattice`] evaluates the
//! definition tick by tick, so the property tests can check that kernel
//! against the convolution form of its bound.

use crate::{SoaCurve, Time};

/// Exhaustive min-plus convolution
/// `(f ⊗ g)(t) = min_{0 ≤ s ≤ t} ( f(s) + g(t − s) )` on the lattice of
/// `[0, horizon]`, `O(horizon²)`, frozen at its horizon value beyond.
#[must_use]
pub fn min_plus_convolve_lattice(f: &SoaCurve, g: &SoaCurve, horizon: Time) -> SoaCurve {
    let h = horizon.ticks();
    assert!(h >= 0);
    let fv: Vec<i64> = (0..=h).map(|t| f.eval(Time(t))).collect();
    let gv: Vec<i64> = (0..=h).map(|t| g.eval(Time(t))).collect();
    let mut out = SoaCurve::zero();
    out.begin(h as usize + 1);
    for t in 0..=h {
        let mut best = i64::MAX;
        for s in 0..=t {
            best = best.min(fv[s as usize] + gv[(t - s) as usize]);
        }
        out.push(t, best, 0);
    }
    out.finish();
    out
}
