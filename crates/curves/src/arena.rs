//! Reusable scratch space for the curve kernels.
//!
//! Every kernel writes its result into a caller-provided [`SoaCurve`],
//! reusing the column buffers already allocated there. [`Scratch`] keeps
//! the buffers of the kernels' temporaries alive across calls: a free-list
//! of SoA curve buffers (`take_soa` hands out a curve whose columns retain
//! the capacity they grew to on earlier uses; `put_soa` returns it). After
//! a warm-up pass over representative inputs, a take/compute/put cycle
//! performs no heap allocation. One `Scratch` per worker thread is the
//! intended granularity; the type is not `Sync` — sharing across threads is
//! a compile error, not a data race.
//!
//! Reusing buffers can change *where* a result lives, never what it is: the
//! property tests run every kernel on dirty outputs and one shared scratch.
//! A kernel that panics mid-write (e.g. a debug assertion) can leave its
//! output holding a partial, invariant-violating curve; the output must be
//! treated as poisoned and not reused after a caught panic.

use crate::SoaCurve;

/// Reusable scratch space for the curve kernels: a free-list of SoA curve
/// buffers.
///
/// Intended granularity is one `Scratch` per worker thread (the analysis
/// drivers in `rta-core` keep one in thread-local storage); kernels borrow
/// it mutably for the duration of a call and return every buffer they take.
#[derive(Default)]
pub struct Scratch {
    /// Free-list of SoA curve buffers.
    soa_pool: Vec<SoaCurve>,
}

impl Scratch {
    /// A fresh, empty scratch space.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Borrow a temporary curve buffer (the zero curve, capacity-warm).
    pub fn take_soa(&mut self) -> SoaCurve {
        match self.soa_pool.pop() {
            Some(mut c) => {
                c.set_affine(0, 0);
                c
            }
            None => SoaCurve::zero(),
        }
    }

    /// Return a temporary curve buffer to the pool.
    pub fn put_soa(&mut self, c: SoaCurve) {
        self.soa_pool.push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Time;

    #[test]
    fn scratch_hands_out_zero_curves_with_warm_capacity() {
        let mut s = Scratch::new();
        let mut c = s.take_soa();
        assert_eq!(c, SoaCurve::zero());
        // Grow the buffer, return it, take it back: the zero curve again.
        SoaCurve::from_event_times_into(&(0..64).map(Time).collect::<Vec<_>>(), &mut c);
        s.put_soa(c);
        assert_eq!(s.take_soa(), SoaCurve::zero());
    }
}
