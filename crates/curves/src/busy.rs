//! The busy-window kernel shared by Theorems 3, 5 and 6.
//!
//! All three theorems bound a subjob's service by the same formula: its
//! workload, capped by the time available to it since the last start of a
//! busy window,
//!
//! ```text
//! out(t) = running_max( clamp_[0,t]( mask_[0,b]( min( w(t),
//!              t − b − Σ_t(t) + min_{0 ≤ s ≤ t−b} g(s) ) ) ) )
//! g(s)   = w(s − 1) − A(s)            (w(−1) = 0)
//! ```
//!
//! `w(s − 1)` is the workload released strictly before the window start
//! `s`, `b` a blocking interval during which nothing is guaranteed, and
//! `Σ_s`/`Σ_t` the higher-priority interference charged at the window's
//! start and end. `A(s)` is the availability charged at the start:
//! `s − Σ_s(s)` ([`WindowStart::Open`]), or Equation 17's printed `B̲(s)`,
//! zero on `[0, b]` and `s − b − Σ_s(s)` after ([`WindowStart::Blocked`]).
//!
//! | bound                         | `b` | `Σ_s`  | `Σ_t`  | start     |
//! |-------------------------------|-----|--------|--------|-----------|
//! | Theorem 3 (exact SPP)         | 0   | `ΣS_h` | `ΣS_h` | `Open`    |
//! | Theorem 6, `Conservative`     | 0   | `ΣS̄_h` | `ΣS̲_h` | `Open`    |
//! | Theorem 6, `AsPrinted`        | 0   | `ΣS̲_h` | `ΣS̲_h` | `Open`    |
//! | Theorem 5, `Conservative`     | `b` | `ΣS̲_h` | `ΣS̄_h` | `Open`    |
//! | Theorem 5, `AsPrinted`        | `b` | `ΣS̲_h` | `ΣS̲_h` | `Blocked` |
//!
//! On an exact service (Theorem 3 with exact peers) the clamp and the
//! running maximum change nothing at any tick; on bounds they restore a
//! nondecreasing curve in `[0, t]` when peer bounds overlap.
//!
//! [`busy_window_into`] runs two merge passes, each writing one curve:
//! pass 1 folds the running minimum of `g` into a merge of the delayed
//! workload with `Σ_s`; pass 2 merges `w`, `Σ_t` and that minimum delayed
//! by `b`, and on each merge interval emits the running maximum of the
//! lower envelope of three lines (`w`, the availability candidate and
//! `t`). No intermediate curve of the formula is materialized besides the
//! running minimum, which lives in a [`Scratch`] buffer. The property test
//! `busy_window_matches_lattice` in `tests/proptests.rs` checks the kernel
//! tick by tick against the formula above.

use crate::soa::SoaWriter;
use crate::util::div_floor;
use crate::{Scratch, SoaCurve, Time};

/// The availability a busy window charges at its start `s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowStart {
    /// `A(s) = s − Σ_s(s)` at every `s`.
    Open,
    /// Equation 17 as printed: `B̲(s) = 0` on `[0, b]`, `s − b − Σ_s(s)`
    /// after.
    Blocked,
}

/// The busy-window bound of the module docs, written into `out`:
/// `workload` is `w`, `s_interference`/`t_interference` are `Σ_s`/`Σ_t`,
/// `blocking` is `b ≥ 0`. The one temporary, the running minimum of `g`,
/// comes from `scratch`; the result is normalized and exact at every
/// integer tick, for any input curves.
pub fn busy_window_into(
    workload: &SoaCurve,
    s_interference: &SoaCurve,
    t_interference: &SoaCurve,
    blocking: Time,
    start: WindowStart,
    scratch: &mut Scratch,
    out: &mut SoaCurve,
) {
    let b = blocking.ticks();
    assert!(b >= 0, "blocking must be nonnegative");
    let mut run = scratch.take_soa();
    window_start_min_into(workload, s_interference, b, start, &mut run);
    window_end_into(workload, t_interference, &run, b, out);
    scratch.put_soa(run);
}

/// One merge operand `c(t − shift)` (zero before `shift`), held in
/// intercept form `k + m·t` on the current merge interval. `next` is its
/// next breakpoint, `i64::MAX` past the last one. The columns are borrowed
/// as slices of one length, so the merge loops keep them in registers.
struct Head<'a> {
    starts: &'a [i64],
    values: &'a [i64],
    slopes: &'a [i64],
    shift: i64,
    /// Index of the next piece to load.
    i: usize,
    k: i64,
    m: i64,
    next: i64,
}

impl<'a> Head<'a> {
    /// The operand positioned on its piece active at `t`.
    #[inline]
    fn at(c: &'a SoaCurve, shift: i64, t: i64) -> Head<'a> {
        let n = c.starts.len();
        let mut h = Head {
            starts: &c.starts,
            values: &c.values[..n],
            slopes: &c.slopes[..n],
            shift,
            i: c.starts.partition_point(|&s| s + shift <= t),
            k: 0,
            m: 0,
            next: 0,
        };
        if h.i > 0 {
            h.load(h.i - 1);
        }
        h.next = h.start_of(h.i);
        h
    }

    #[inline]
    fn start_of(&self, i: usize) -> i64 {
        if i < self.starts.len() {
            self.starts[i] + self.shift
        } else {
            i64::MAX
        }
    }

    #[inline]
    fn load(&mut self, i: usize) {
        let s = self.starts[i] + self.shift;
        self.m = self.slopes[i];
        self.k = self.values[i] - self.m * s;
    }

    /// Step onto the next piece; the merge calls this when it reaches
    /// `next`.
    #[inline]
    fn advance(&mut self) {
        self.load(self.i);
        self.i += 1;
        self.next = self.start_of(self.i);
    }
}

/// Pass 1: `run(u) = min_{0 ≤ s ≤ u} g(s)`, one merge over the delayed
/// workload, `Σ_s` and (for [`WindowStart::Blocked`]) the mask edge
/// `b + 1`, folding the running minimum in as it goes. The minimum of a
/// piece over the lattice is attained at an integer endpoint, so a
/// decreasing piece is followed from the first tick it dips below the
/// minimum so far.
fn window_start_min_into(
    w: &SoaCurve,
    sigma_s: &SoaCurve,
    b: i64,
    start: WindowStart,
    run: &mut SoaCurve,
) {
    // `g(s) = w(s − 1) − s + off + Σ_s(s)` from `on` on, `w(s − 1)` before.
    let (on, off) = match start {
        WindowStart::Open => (0, 0),
        WindowStart::Blocked => (b + 1, b),
    };
    let mut hw = Head::at(w, 1, 0);
    let mut hs = Head::at(sigma_s, 0, 0);
    let mut edge = if on > 0 { on } else { i64::MAX };
    let mut wr = SoaWriter::new(run, w.len() + sigma_s.len() + 2);
    let mut lo = i64::MAX;
    let mut t0 = 0;
    loop {
        let t1 = hw.next.min(hs.next).min(edge);
        let (k, m) = if t0 >= on {
            (hw.k + hs.k + off, hw.m + hs.m - 1)
        } else {
            (hw.k, hw.m)
        };
        let v0 = k + m * t0;
        wr.room(2);
        if m >= 0 {
            lo = lo.min(v0);
            wr.emit(t0, lo, 0);
        } else {
            if v0 <= lo {
                wr.emit(t0, v0, m);
            } else {
                wr.emit(t0, lo, 0);
                let tc = t0 + div_floor(v0 - lo, -m) + 1;
                if tc < t1 {
                    wr.emit(tc, k + m * tc, m);
                }
            }
            if t1 != i64::MAX {
                lo = lo.min(k + m * (t1 - 1));
            }
        }
        if t1 == i64::MAX {
            break;
        }
        if hw.next == t1 {
            hw.advance();
        }
        if hs.next == t1 {
            hs.advance();
        }
        if edge == t1 {
            edge = i64::MAX;
        }
        t0 = t1;
    }
    wr.finish();
    run.finish();
}

/// Pass 2: zero on `[0, b]`, then the running maximum of
/// `min(w(t), t, t − b − Σ_t(t) + run(t − b))`, one merge over `w`, `Σ_t`
/// and `run` delayed by `b`. Every value after the zero prefix is clamped
/// at 0, and the running maximum starts at that prefix's 0, so the clamp
/// is the maximum's seed.
fn window_end_into(w: &SoaCurve, sigma_t: &SoaCurve, run: &SoaCurve, b: i64, out: &mut SoaCurve) {
    let t_on = b + 1;
    let mut hw = Head::at(w, 0, t_on);
    let mut ht = Head::at(sigma_t, 0, t_on);
    let mut hr = Head::at(run, b, t_on);
    let mut wr = SoaWriter::new(out, w.len() + sigma_t.len() + run.len() + 2);
    wr.emit(0, 0, 0);
    let mut hi = 0i64;
    let mut t0 = t_on;
    loop {
        let t1 = hw.next.min(ht.next).min(hr.next);
        let (wk, wm) = (hw.k, hw.m);
        let (lk, lm) = (hr.k - ht.k - b, 1 + hr.m - ht.m);
        wr.room(6);
        // A line least at both ends of a finite interval is least
        // throughout, so the interval is one piece and needs no division:
        // 96–97 % of intervals on the figure sweeps and the admission
        // stream (DESIGN §4g).
        let one = if t1 == i64::MAX {
            None
        } else {
            let e = t1 - 1;
            let (l0, l1, w0, w1) = (lk + lm * t0, lk + lm * e, wk + wm * t0, wk + wm * e);
            if l0 <= w0 && l1 <= w1 && l0 <= t0 && l1 <= e {
                Some((lk, lm))
            } else if w0 <= l0 && w1 <= l1 && w0 <= t0 && w1 <= e {
                Some((wk, wm))
            } else {
                None
            }
        };
        match one {
            Some((k, m)) => running_max_piece(k, m, t0, t1, &mut hi, &mut wr),
            None => {
                let (pieces, n) = lower_envelope(&[(wk, wm), (lk, lm), (0, 1)], t0, t1);
                for &(k, m, start, end) in &pieces[..n] {
                    running_max_piece(k, m, start, end, &mut hi, &mut wr);
                }
            }
        }
        if t1 == i64::MAX {
            break;
        }
        if hw.next == t1 {
            hw.advance();
        }
        if ht.next == t1 {
            ht.advance();
        }
        if hr.next == t1 {
            hr.advance();
        }
        t0 = t1;
    }
    wr.finish();
    out.finish();
}

/// The lower envelope of `lines` (each `(k, m)` for `k + m·t`) on
/// `[t, t1)`, as up to three pieces `(k, m, start, end)`. The envelope is
/// concave, so it walks the lines in decreasing slope. Out of line and
/// free of the writer: the merge loop calling it keeps its writer state
/// in registers.
#[inline(never)]
fn lower_envelope(
    lines: &[(i64, i64); 3],
    mut t: i64,
    t1: i64,
) -> ([(i64, i64, i64, i64); 3], usize) {
    let mut pieces = [(0, 0, 0, 0); 3];
    let mut n = 0;
    loop {
        // The least line at `t`.
        let (mut k, mut m) = lines[0];
        for &(lk, lm) in &lines[1..] {
            if lk + lm * t < k + m * t {
                (k, m) = (lk, lm);
            }
        }
        // It stays least until the first tick a shallower line dips
        // strictly below it; every line is at or above it at `t`, so that
        // tick is past `t`.
        let mut end = t1;
        for &(lk, lm) in lines {
            if lm < m {
                end = end.min(div_floor(lk - k, m - lm) + 1);
            }
        }
        pieces[n] = (k, m, t, end);
        n += 1;
        if end >= t1 {
            return (pieces, n);
        }
        t = end;
    }
}

/// Emit, on `[t, end)`, the running maximum (seeded with `hi`, which it
/// updates) of the line `k + m·t`: flat at `hi` until the line first
/// exceeds it, then the line while it rises.
#[inline(always)]
fn running_max_piece(k: i64, m: i64, t: i64, end: i64, hi: &mut i64, wr: &mut SoaWriter<'_>) {
    let v = k + m * t;
    if m >= 0 && v >= *hi {
        wr.emit(t, v, m);
    } else if m <= 0 || (end != i64::MAX && k + m * (end - 1) <= *hi) {
        *hi = (*hi).max(v);
        wr.emit(t, *hi, 0);
        return;
    } else {
        let rise = t + div_floor(*hi - v, m) + 1;
        wr.emit(t, *hi, 0);
        wr.emit(rise, k + m * rise, m);
    }
    if end != i64::MAX {
        *hi = k + m * (end - 1);
    }
}
