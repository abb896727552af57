//! The step-curve kernel of interleaved weighted round-robin.
//!
//! A flow with weight `w` and execution time `τ` on an IWRR processor whose
//! round takes at most `L = Σ_j w_j·τ_j` ticks is served its quantum
//! `q = w·τ` once per complete round, and a window of length `u` holds at
//! least `⌊u/L⌋ − 1` complete rounds. Its guaranteed service is the
//! min-plus convolution of the workload released strictly before a window
//! start with that strict service curve,
//! `min_{0 ≤ s ≤ t} ( c̄(s − 1) + q·max(0, ⌊(t − s)/L⌋ − 1) )`, and its
//! possible service is bounded by real time and demand. Every workload the
//! analysis builds is a nondecreasing staircase, and on a staircase the
//! convolution is one recurrence over its own output:
//!
//! ```text
//! G(t) = min( c̄(t − 2L), G(t − L) + q )   for 0 ≤ t ≤ H   (G = 0 on [0, 2L))
//! G(t) = G(H)                              for t > H
//! S̲(t) = min(t, G(t))
//! S̄(t) = min(t, c̄(t))
//! ```
//!
//! with `c̄(s) = 0` for `s < 0`. Splitting the convolution's `s` at
//! `t − 2L` gives the recurrence: window starts after `t − 2L` see no
//! complete round, and the earliest of them sees `c̄(t − 2L)` released
//! before it; every earlier start sees one more round than it does from
//! `t − L`. Beyond the horizon `H` the convolution is frozen at its `H`
//! value.
//!
//! [`iwrr_bounds_into`] computes `G` in one merge of `c̄` delayed by `2L`
//! with `G` itself delayed by `L`, read back from the part of `G` already
//! written, and then each bound in one pass. It takes slope-0 curves only
//! and answers [`CurveError::UnsupportedSlope`] otherwise; on an error the
//! outputs are left untouched. The property test `iwrr_bounds_match_lattice`
//! in `tests/proptests.rs` checks it tick by tick against the convolution
//! form, computed with [`crate::convolution::min_plus_convolve_lattice`].

use crate::soa::SoaWriter;
use crate::{CurveError, Scratch, SoaCurve, Time};

/// IWRR's service bounds `S̲`/`S̄` of the module docs for the workload
/// `c̄` (`workload`), round length `L = round_len ≥ 1`, quantum
/// `q = quantum ≥ 0` and horizon `H`, written into `lower` and `upper`.
/// `c̄` must be a nondecreasing staircase with `c̄(0) ≥ 0`; the one
/// temporary, `G`, comes from `scratch`.
pub fn iwrr_bounds_into(
    workload: &SoaCurve,
    round_len: i64,
    quantum: i64,
    horizon: Time,
    scratch: &mut Scratch,
    lower: &mut SoaCurve,
    upper: &mut SoaCurve,
) -> Result<(), CurveError> {
    workload.require_steps()?;
    workload.require_nondecreasing()?;
    if workload.values[0] < 0 {
        return Err(CurveError::NegativeAtZero {
            value: workload.values[0],
        });
    }
    debug_assert!(round_len >= 1 && quantum >= 0);
    let mut g = scratch.take_soa();
    recurrence_into(workload, round_len, quantum, horizon.ticks(), &mut g);
    min_with_time_into(&g, lower);
    min_with_time_into(workload, upper);
    scratch.put_soa(g);
    Ok(())
}

/// `G` of the module docs, written into `out`. The breakpoints of `G` are
/// the starts of `c̄` delayed by `2L` and the breakpoints of `G` delayed by
/// `L`, so one merge of the two visits them all; a breakpoint of `G` is
/// written before its delayed copy is reached.
fn recurrence_into(c: &SoaCurve, l: i64, q: i64, h: i64, out: &mut SoaCurve) {
    let n = c.len();
    let (cs, cv) = (&c.starts[..], &c.values[..n]);
    let lag = l.checked_mul(2);
    let mut wr = SoaWriter::new(out, n + 1);
    wr.emit(0, 0, 0);
    // `i`/`j`: the pieces of `c̄`/`G` whose delayed start has been reached.
    // `G`'s first piece starts at 0 and is reached at `L`, before any piece
    // of `c̄` (at `2L` or later), so `j ≥ 1` at every merge point. A delayed
    // start past `i64::MAX` is never reached.
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        let tc = lag.and_then(|d| cs.get(i)?.checked_add(d));
        let tg = wr.entry(j).and_then(|(s, _)| s.checked_add(l));
        let Some(t) = tc.into_iter().chain(tg).min().filter(|&t| t <= h) else {
            break;
        };
        if tc == Some(t) {
            i += 1;
        }
        if tg == Some(t) {
            j += 1;
        }
        let delayed_c = if i > 0 { cv[i - 1] } else { 0 };
        let (_, delayed_g) = wr.entry(j - 1).expect("G's first piece is reached first");
        let v = delayed_c.min(delayed_g.saturating_add(q));
        wr.room(1);
        wr.emit(t, v, 0);
    }
    wr.finish();
    out.finish();
}

/// `min(t, f(t))` for a nondecreasing staircase `f ≥ 0`, written into
/// `out`: a piece above its own start follows `t` until `t` reaches it.
fn min_with_time_into(f: &SoaCurve, out: &mut SoaCurve) {
    let n = f.len();
    let mut wr = SoaWriter::new(out, 2 * n);
    for k in 0..n {
        let (a, v) = (f.starts[k], f.values[k]);
        if v <= a {
            wr.emit(a, v, 0);
        } else {
            wr.emit(a, a, 1);
            if f.starts.get(k + 1).is_none_or(|&b| v < b) {
                wr.emit(v, v, 0);
            }
        }
    }
    wr.finish();
    out.finish();
}
