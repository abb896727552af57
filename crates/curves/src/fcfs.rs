//! The two step-curve kernels of FCFS (Definition 7, Theorems 7–9).
//!
//! FCFS bounds a subjob's service through its processor's total workload
//! `G = Σ c̄` (Eq. 21). Every workload the analysis builds is a staircase
//! (a scaled counting curve), and on staircases each theorem is one merge
//! pass:
//!
//! * [`fcfs_context_into`] computes Theorem 7's utilization, under the
//!   left-limit reading of DESIGN §5, as the lattice recursion
//!
//!   ```text
//!   U(0) = 0,   U(t + 1) = min(U(t) + 1, G(t))
//!   ```
//!
//!   and, in the same pass, the serving frontiers of Theorems 8 and 9
//!
//!   ```text
//!   v_k(t) = min { s ≤ H : G(s) ≥ U(t) + k },   or H + 1 when there is none
//!   ```
//!
//!   for `k = 1` (Theorem 8) and `k = 0` (Theorem 9), each followed by a
//!   monotone pointer into `G`;
//! * [`frontier_bound_into`] reads one service bound off a frontier `v`,
//!
//!   ```text
//!   out(t) = running_max( max(0, min(c(v(t) − lag) + bonus, c(t), t)) )
//!   ```
//!
//!   with `c(s) = 0` for `s < 0`, through a monotone cursor into `c`:
//!   Theorem 8's lower bound is lag 1 and bonus 0 on `v₁`, Theorem 9's
//!   upper bound lag 0 and bonus `τ` on `v₀`.
//!
//! Both kernels take slope-0 curves only and answer
//! [`CurveError::UnsupportedSlope`] otherwise; on an error the outputs are
//! left untouched. The property tests `fcfs_context_matches_lattice` and
//! `frontier_bound_matches_lattice` in `tests/proptests.rs` check them
//! tick by tick against the definitions above.

use crate::soa::SoaWriter;
use crate::{CurveError, SoaCurve, Time};

/// Theorem 7's utilization `U` of the total workload `total` (`G`) and the
/// Theorem 8/9 frontiers `v₁`/`v₀` on horizon `H`, written into
/// `utilization`, `lower_frontier` and `upper_frontier` in one pass over
/// `G` (module docs). `G` must be a nondecreasing staircase with
/// `G(0) ≥ 0`.
pub fn fcfs_context_into(
    total: &SoaCurve,
    horizon: Time,
    utilization: &mut SoaCurve,
    lower_frontier: &mut SoaCurve,
    upper_frontier: &mut SoaCurve,
) -> Result<(), CurveError> {
    total.require_steps()?;
    total.require_nondecreasing()?;
    if total.values[0] < 0 {
        return Err(CurveError::NegativeAtZero {
            value: total.values[0],
        });
    }
    let n = total.len();
    let (gs, gv) = (&total.starts[..], &total.values[..n]);
    let h = horizon.ticks();
    // The pieces a frontier can stop on: those starting at or before `H`.
    let live = gs.partition_point(|&s| s <= h);
    let mut wu = SoaWriter::new(utilization, 2 * n);
    let mut lower = Frontier::new(lower_frontier, 1, gs, gv, live, h);
    let mut upper = Frontier::new(upper_frontier, 0, gs, gv, live, h);
    // `u` is `U` at the start of piece `i`; on the piece `U` rises by one
    // per tick until it catches up with the piece's level `g`, then holds.
    let mut u = 0i64;
    for i in 0..n {
        let (t0, g) = (gs[i], gv[i]);
        let t1 = gs.get(i + 1).copied().unwrap_or(i64::MAX);
        if u < g {
            wu.emit(t0, u, 1);
            let caught = t0 + (g - u);
            if caught < t1 {
                wu.emit(caught, g, 0);
            }
        } else {
            wu.emit(t0, u, 0);
        }
        lower.advance(t0, t1, u, g);
        upper.advance(t0, t1, u, g);
        if t1 != i64::MAX {
            u += (t1 - t0).min(g - u);
        }
    }
    wu.finish();
    utilization.finish();
    lower.wr.finish();
    upper.wr.finish();
    lower_frontier.finish();
    upper_frontier.finish();
    Ok(())
}

/// One frontier `v_k` being written: the pointer `j` to the first piece of
/// `G` whose level covers `U(t) + k`, with `j = live` standing for
/// `H + 1`.
struct Frontier<'a> {
    wr: SoaWriter<'a>,
    k: i64,
    j: usize,
    gs: &'a [i64],
    gv: &'a [i64],
    live: usize,
    h: i64,
}

impl<'a> Frontier<'a> {
    /// Start the frontier at `t = 0`, where `U(0) = 0`.
    fn new(
        out: &'a mut SoaCurve,
        k: i64,
        gs: &'a [i64],
        gv: &'a [i64],
        live: usize,
        h: i64,
    ) -> Frontier<'a> {
        let mut f = Frontier {
            wr: SoaWriter::new(out, live + 1),
            k,
            j: 0,
            gs,
            gv,
            live,
            h,
        };
        while f.j < live && f.gv[f.j] + 1 - k <= 0 {
            f.j += 1;
        }
        let v = f.value();
        f.wr.emit(0, v, 0);
        f
    }

    #[inline]
    fn value(&self) -> i64 {
        if self.j < self.live {
            self.gs[self.j]
        } else {
            self.h + 1
        }
    }

    /// Follow `U(t) = min(u + t − t0, g)` over `[t0, t1)`: the frontier
    /// moves past piece `j` at the first tick where `U(t) + k` exceeds
    /// that piece's level. Each level needs a higher `U` than the last,
    /// and `U` never exceeds `g` here.
    #[inline]
    fn advance(&mut self, t0: i64, t1: i64, u: i64, g: i64) {
        while self.j < self.live {
            let need = self.gv[self.j] + 1 - self.k;
            if need > g {
                break;
            }
            debug_assert!(need >= u, "an earlier piece passed this level");
            let t = t0 + (need - u);
            if t >= t1 {
                break;
            }
            self.j += 1;
            let v = self.value();
            self.wr.emit(t, v, 0);
        }
    }
}

/// The frontier bound of the module docs,
/// `running_max(max(0, min(c(v(t) − lag) + bonus, c(t), t)))` with
/// `c(s) = 0` for `s < 0`, written into `out` in one merge over the
/// breakpoints of `workload` (`c`) and `frontier` (`v`). Both must be
/// staircases, and `v` nondecreasing.
pub fn frontier_bound_into(
    workload: &SoaCurve,
    frontier: &SoaCurve,
    lag: i64,
    bonus: i64,
    out: &mut SoaCurve,
) -> Result<(), CurveError> {
    workload.require_steps()?;
    frontier.require_steps()?;
    frontier.require_nondecreasing()?;
    let (nc, nv) = (workload.len(), frontier.len());
    let (cs, cv) = (&workload.starts[..], &workload.values[..nc]);
    let (vs, vv) = (&frontier.starts[..], &frontier.values[..nv]);
    let mut wr = SoaWriter::new(out, 2 * (nc + nv));
    // `ic`/`iv`: the pieces of `c` and `v` active at `t0`; `jc`: the piece
    // of `c` holding `v(t0) − lag`, which only moves forward.
    let (mut ic, mut iv, mut jc) = (0, 0, 0);
    // The running maximum, seeded with the clamp's 0. Every value is at
    // most its own tick, so `hi ≤ t0` at the start of each interval.
    let mut hi = 0i64;
    let mut t0 = 0i64;
    loop {
        let c_next = cs.get(ic + 1).copied().unwrap_or(i64::MAX);
        let v_next = vs.get(iv + 1).copied().unwrap_or(i64::MAX);
        let t1 = c_next.min(v_next);
        let s = vv[iv] - lag;
        let at_frontier = if s < 0 {
            0
        } else {
            while jc + 1 < nc && cs[jc + 1] <= s {
                jc += 1;
            }
            cv[jc]
        };
        // On `[t0, t1)` the bound's argument is `min(m, t)`.
        let m = (at_frontier + bonus).min(cv[ic]);
        if m <= hi {
            wr.emit(t0, hi, 0);
        } else if m <= t0 {
            wr.emit(t0, m, 0);
            hi = m;
        } else {
            wr.emit(t0, t0, 1);
            if m < t1 {
                wr.emit(m, m, 0);
            }
            if t1 != i64::MAX {
                hi = m.min(t1 - 1);
            }
        }
        if t1 == i64::MAX {
            break;
        }
        if c_next == t1 {
            ic += 1;
        }
        if v_next == t1 {
            iv += 1;
        }
        t0 = t1;
    }
    wr.finish();
    out.finish();
    Ok(())
}
