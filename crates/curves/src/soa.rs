//! Structure-of-arrays curve kernels.
//!
//! [`SoaCurve`] stores a normalized piecewise-linear function in three
//! parallel arrays (`starts`, `values`, `slopes`). It is the one curve type
//! of the workspace: arrival patterns are built as `SoaCurve`s
//! ([`SoaCurve::from_event_times_into`]), the analyses compute on them and
//! reports hand them back. The hot merge loops walk the breakpoint columns
//! contiguously, keep both operands' active piece scalars in registers
//! with `i64::MAX` sentinels for exhausted heads (no `Option` juggling in
//! the merge), and write by index into pre-sized columns with the
//! normalization predicate checked inline against a register-cached
//! previous entry — no per-entry `Vec::push` length/capacity traffic. See
//! [`linear_combine_into`] for the canonical shape.
//!
//! ## Exactness contract
//!
//! Every kernel is exact at every integer tick: its output evaluates, tick
//! by tick, to the operator's definition applied to its inputs' values
//! (crossings inside a piece land on the first integer tick past them, via
//! `div_floor`/`div_ceil`). Writers emit breakpoints in strictly increasing
//! order and coalesce line-continuations with the normalization predicate
//! (`prev.slope == s.slope && prev.eval(s.start) == s.value`), so every
//! output is normalized. The property tests in `tests/proptests.rs` check
//! each kernel against a per-tick evaluation of its definition, over random
//! curves, dirty output buffers and error paths.

use crate::util::{div_ceil, div_floor};
use crate::{CurveError, Time};

/// A piecewise-linear curve in structure-of-arrays layout: three parallel
/// arrays of breakpoint starts (ticks), values and slopes.
///
/// It is the common representation for every cumulative function of the
/// ICPP'98 analysis: arrival functions (`f_arr`), departure functions
/// (`f_dep`), workload functions (`c`), service functions (`S`) and
/// utilization functions (`U`). Piece `i` describes the curve on
/// `[starts[i], starts[i + 1])` (the last piece extends to `+∞`) as
/// `values[i] + slopes[i] · (t − starts[i])`; curves are right-continuous,
/// so a jump sits at a breakpoint whenever the previous piece's line,
/// extended to it, differs from the new piece's value.
///
/// Invariants, kept by every constructor and kernel: non-empty, first start
/// at zero, strictly increasing starts, normalized (no piece continues its
/// predecessor's line). Built from checked pieces
/// ([`SoaCurve::try_from_pieces`]), from event times
/// ([`SoaCurve::from_event_times_into`]) or as a kernel output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SoaCurve {
    pub(crate) starts: Vec<i64>,
    pub(crate) values: Vec<i64>,
    pub(crate) slopes: Vec<i64>,
}

/// A borrowed view of a curve in structure-of-arrays layout — the operand
/// type of the SoA kernels. Cheap to copy; also constructible from stack
/// arrays inside the crate (the clamp kernels pass a one-segment constant
/// operand without touching the heap).
#[derive(Clone, Copy, Debug)]
pub struct SoaView<'a> {
    pub(crate) starts: &'a [i64],
    pub(crate) values: &'a [i64],
    pub(crate) slopes: &'a [i64],
}

impl<'a> SoaView<'a> {
    /// Number of linear pieces.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when the view holds no pieces (never the case for views of a
    /// valid curve).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Breakpoint starts, in ticks.
    #[inline]
    pub fn starts(&self) -> &'a [i64] {
        self.starts
    }

    /// Values at the breakpoints.
    #[inline]
    pub fn values(&self) -> &'a [i64] {
        self.values
    }

    /// Slopes of the pieces.
    #[inline]
    pub fn slopes(&self) -> &'a [i64] {
        self.slopes
    }

    /// Value of piece `i` extended to time `t` (ticks).
    #[inline]
    pub(crate) fn piece_eval(&self, i: usize, t: i64) -> i64 {
        self.values[i] + self.slopes[i] * (t - self.starts[i])
    }
}

impl Default for SoaCurve {
    fn default() -> SoaCurve {
        SoaCurve::zero()
    }
}

impl SoaCurve {
    /// The zero curve.
    pub fn zero() -> SoaCurve {
        SoaCurve {
            starts: vec![0],
            values: vec![0],
            slopes: vec![0],
        }
    }

    /// Build a curve from `(start, value, slope)` pieces, starts in ticks,
    /// validating and normalizing: the pieces must be non-empty
    /// ([`CurveError::Empty`]), start at zero
    /// ([`CurveError::FirstSegmentNotAtZero`]) and have strictly increasing
    /// starts ([`CurveError::UnsortedSegments`]); a piece that continues its
    /// predecessor's line merges into it.
    pub fn try_from_pieces(pieces: &[(i64, i64, i64)]) -> Result<SoaCurve, CurveError> {
        match pieces.first() {
            None => return Err(CurveError::Empty),
            Some(&(t0, _, _)) if t0 != 0 => return Err(CurveError::FirstSegmentNotAtZero),
            Some(_) => {}
        }
        if let Some(index) = (1..pieces.len()).find(|&i| pieces[i].0 <= pieces[i - 1].0) {
            return Err(CurveError::UnsortedSegments { index });
        }
        let mut c = SoaCurve {
            starts: Vec::new(),
            values: Vec::new(),
            slopes: Vec::new(),
        };
        c.begin(pieces.len());
        for &(t, v, m) in pieces {
            c.push(t, v, m);
        }
        c.finish();
        Ok(c)
    }

    /// Overwrite `out` with the counting curve of a sorted sequence of
    /// event times, `f(t) = #{ i : times[i] ≤ t }` — e.g. an arrival
    /// function (Definition 1). Multiple equal times produce a single
    /// multi-unit jump. Panics if the sequence is unsorted or contains a
    /// negative time.
    pub fn from_event_times_into(times: &[Time], out: &mut SoaCurve) {
        out.begin(times.len() + 1);
        out.push(0, 0, 0);
        let mut count: i64 = 0;
        let mut i = 0;
        while i < times.len() {
            let t = times[i];
            assert!(t >= Time::ZERO, "event times must be nonnegative");
            if i > 0 {
                assert!(times[i - 1] <= t, "event times must be sorted");
            }
            let mut j = i;
            while j < times.len() && times[j] == t {
                j += 1;
            }
            count += (j - i) as i64;
            if t == Time::ZERO {
                out.values[0] = count;
            } else {
                out.push(t.ticks(), count, 0);
            }
            i = j;
        }
        out.finish();
    }

    /// Borrow as an [`SoaView`].
    #[inline]
    pub fn view(&self) -> SoaView<'_> {
        SoaView {
            starts: &self.starts,
            values: &self.values,
            slopes: &self.slopes,
        }
    }

    /// Number of linear pieces.
    #[inline]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` when the curve holds no pieces — only observable mid-write;
    /// every finished curve is non-empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Index of the piece containing `t ≥ 0`.
    #[inline]
    fn seg_index(&self, t: i64) -> usize {
        debug_assert!(t >= 0, "curves are defined on [0, ∞)");
        self.starts.partition_point(|&s| s <= t) - 1
    }

    /// Evaluate at `t ≥ 0` (right-continuous value).
    #[inline]
    pub fn eval(&self, t: Time) -> i64 {
        let i = self.seg_index(t.ticks());
        self.values[i] + self.slopes[i] * (t.ticks() - self.starts[i])
    }

    /// Overwrite with the affine curve `v0 + slope · t`.
    pub fn set_affine(&mut self, v0: i64, slope: i64) {
        self.begin(1);
        self.starts.push(0);
        self.values.push(v0);
        self.slopes.push(slope);
    }

    /// Overwrite with a copy of `src`, reusing the arrays.
    pub fn copy_from(&mut self, src: &SoaCurve) {
        self.begin(src.len());
        self.starts.extend_from_slice(&src.starts);
        self.values.extend_from_slice(&src.values);
        self.slopes.extend_from_slice(&src.slopes);
    }

    /// Clear all three arrays (keeping capacity) and reserve room for `cap`
    /// entries — the start of a write session.
    pub(crate) fn begin(&mut self, cap: usize) {
        self.starts.clear();
        self.values.clear();
        self.slopes.clear();
        self.starts.reserve(cap);
        self.values.reserve(cap);
        self.slopes.reserve(cap);
    }

    /// Normalized push: skip the entry when it continues the previous
    /// line — the normalization predicate every writer applies.
    /// Starts must be strictly increasing (debug-asserted).
    #[inline]
    pub(crate) fn push(&mut self, t: i64, v: i64, m: i64) {
        if let Some(k) = self.starts.len().checked_sub(1) {
            debug_assert!(self.starts[k] < t, "pushes must be strictly increasing");
            if self.slopes[k] == m && self.values[k] + self.slopes[k] * (t - self.starts[k]) == v {
                return;
            }
        }
        self.starts.push(t);
        self.values.push(v);
        self.slopes.push(m);
    }

    /// Debug-check the curve invariants at the end of a write session.
    pub(crate) fn finish(&self) {
        debug_assert!(!self.starts.is_empty(), "written curve must be non-empty");
        debug_assert!(self.starts[0] == 0);
        debug_assert!(self.starts.windows(2).all(|w| w[0] < w[1]));
        debug_assert!((1..self.len()).all(|i| {
            self.slopes[i - 1] != self.slopes[i]
                || self.values[i - 1] + self.slopes[i - 1] * (self.starts[i] - self.starts[i - 1])
                    != self.values[i]
        }));
    }

    /// First integer `t` with `f(t) < f(t−1)`, if any.
    fn first_decrease(&self) -> Option<Time> {
        for i in 0..self.len() {
            // A decrease across the breakpoint comes before one inside the
            // piece.
            if i > 0 && self.starts[i] > 0 {
                let prev_end = self.values[i - 1]
                    + self.slopes[i - 1] * (self.starts[i] - 1 - self.starts[i - 1]);
                if self.values[i] < prev_end {
                    return Some(Time(self.starts[i]));
                }
            }
            if self.slopes[i] < 0 {
                let second = self.starts[i] + 1;
                if self.starts.get(i + 1).is_none_or(|&ns| second < ns) {
                    return Some(Time(second));
                }
            }
        }
        None
    }

    /// `true` iff the curve never decreases on the tick lattice.
    pub fn is_nondecreasing(&self) -> bool {
        self.first_decrease().is_none()
    }

    /// Check the curve is nondecreasing, returning
    /// [`CurveError::NotMonotone`] at the first tick `t` with
    /// `f(t) < f(t−1)` if not.
    pub fn require_nondecreasing(&self) -> Result<(), CurveError> {
        match self.first_decrease() {
            None => Ok(()),
            Some(at) => Err(CurveError::NotMonotone { at }),
        }
    }

    /// [`CurveError::UnsupportedSlope`] unless every piece is flat — the
    /// input check of the step-curve kernels.
    pub(crate) fn require_steps(&self) -> Result<(), CurveError> {
        match self.slopes.iter().find(|&&m| m != 0) {
            Some(&slope) => Err(CurveError::UnsupportedSlope { slope }),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Unary kernels
    // ------------------------------------------------------------------

    /// Pointwise scaling `k·self` — e.g. the workload function
    /// `c(t) = f_arr(t) · τ` of Definition 3 — written into `out`.
    pub fn scale_into(&self, k: i64, out: &mut SoaCurve) {
        let mut w = SoaWriter::new(out, self.len());
        for i in 0..self.len() {
            w.emit(self.starts[i], k * self.values[i], k * self.slopes[i]);
        }
        w.finish();
        out.finish();
    }

    /// Horizontal shift right by `d ≥ 0` ticks, filling `[0, d)` with
    /// `fill`: `g(t) = f(t − d)` for `t ≥ d`, `g(t) = fill` for `t < d`.
    pub fn shift_right_into(&self, d: Time, fill: i64, out: &mut SoaCurve) {
        assert!(d >= Time::ZERO, "shift_right requires d >= 0");
        if d == Time::ZERO {
            out.copy_from(self);
            return;
        }
        let b = d.ticks();
        let mut w = SoaWriter::new(out, self.len() + 1);
        w.emit(0, fill, 0);
        w.emit(b, self.values[0], self.slopes[0]);
        // Time shifts cancel inside the normalize predicate and the input
        // is normalized, so no shifted tail entry can continue its
        // predecessor (nor the fill line, which would imply piece 1
        // continued piece 0 unshifted) — copy the tail verbatim.
        let k = w.w;
        let cnt = self.len() - 1;
        for (dst, src) in w.s[k..k + cnt].iter_mut().zip(&self.starts[1..]) {
            *dst = src + b;
        }
        w.v[k..k + cnt].copy_from_slice(&self.values[1..]);
        w.m[k..k + cnt].copy_from_slice(&self.slopes[1..]);
        w.w = k + cnt;
        w.finish();
        out.finish();
    }

    /// Compute `t ↦ ⌊self(t)/τ⌋` on `[0, horizon]` as a counting curve —
    /// the departure function `f_dep = ⌊S/τ⌋` of Theorem 2, whose jumps sit
    /// at the exact instants `S` crosses multiples of `τ`.
    ///
    /// `self` must be nondecreasing and nonnegative at 0 (a service
    /// function); `τ ≥ 1`. Beyond `horizon` the result is frozen at its
    /// horizon value. On error `out` is left untouched.
    pub fn floor_div_into(
        &self,
        tau: i64,
        horizon: Time,
        out: &mut SoaCurve,
    ) -> Result<(), CurveError> {
        assert!(tau >= 1, "execution time must be at least one tick");
        self.require_nondecreasing()?;
        let v0 = self.values[0];
        if v0 < 0 {
            return Err(CurveError::NegativeAtZero { value: v0 });
        }

        // Every emitted step strictly raises the count, so the entry total
        // is bounded by the count swing over `[0, horizon]` — a hard cap
        // for the indexed writer (no reallocation mid-staircase).
        let t_end = horizon.ticks().max(0);
        let i_end = self.seg_index(t_end);
        let f_end = self.values[i_end] + self.slopes[i_end] * (t_end - self.starts[i_end]);
        let cap = (div_floor(f_end.max(v0), tau) - div_floor(v0, tau) + 1) as usize;
        let mut wr = SoaWriter::new(out, cap);
        let mut count = div_floor(v0, tau);
        wr.emit(0, count, 0);
        for i in 0..self.len() {
            let (s_start, s_value, s_slope) = (self.starts[i], self.values[i], self.slopes[i]);
            if s_start > horizon.ticks() {
                break;
            }
            let c0 = div_floor(s_value, tau);
            if c0 > count {
                wr.emit(s_start, c0, 0);
                count = c0;
            }
            if s_slope > 0 {
                let end = self
                    .starts
                    .get(i + 1)
                    .map(|&n| n - 1)
                    .unwrap_or(i64::MAX)
                    .min(horizon.ticks());
                loop {
                    let level = (count + 1) * tau;
                    let off = div_ceil(level - s_value, s_slope);
                    let t = s_start + off;
                    if t > end {
                        break;
                    }
                    let c = div_floor(s_value + s_slope * (t - s_start), tau);
                    debug_assert!(c > count);
                    wr.emit(t, c, 0);
                    count = c;
                }
            }
        }
        wr.finish();
        out.finish();
        Ok(())
    }

    // ------------------------------------------------------------------
    // Pointwise extrema
    // ------------------------------------------------------------------

    /// Pointwise minimum with another curve, written into `out`, exact at
    /// every integer tick.
    pub fn min_with_into(&self, rhs: &SoaCurve, out: &mut SoaCurve) {
        extremum_into(self.view(), rhs.view(), false, out);
    }

    /// Pointwise maximum with another curve, written into `out`, exact at
    /// every integer tick.
    pub fn max_with_into(&self, rhs: &SoaCurve, out: &mut SoaCurve) {
        extremum_into(self.view(), rhs.view(), true, out);
    }

    /// Clamp below: `max(self, v)`, written into `out` — e.g. forcing a
    /// service lower bound to be nonnegative. Allocation-free: the
    /// constant operand is three stack arrays, never a heap curve.
    pub fn clamp_min_into(&self, v: i64, out: &mut SoaCurve) {
        let (s, val, m) = ([0i64], [v], [0i64]);
        extremum_into(
            self.view(),
            SoaView {
                starts: &s,
                values: &val,
                slopes: &m,
            },
            true,
            out,
        );
    }
}

/// Indexed writer over a curve's three columns: pre-sizes the arrays once,
/// writes by index (no per-entry `Vec::push` length/capacity traffic), and
/// applies the normalization continuation predicate inline against a
/// register-cached previous entry, so no second normalization pass runs.
/// All merge and unary kernels write through this.
pub(crate) struct SoaWriter<'a> {
    s: &'a mut Vec<i64>,
    v: &'a mut Vec<i64>,
    m: &'a mut Vec<i64>,
    w: usize,
    pt: i64,
    pv: i64,
    pm: i64,
}

impl<'a> SoaWriter<'a> {
    #[inline]
    pub(crate) fn new(out: &'a mut SoaCurve, cap: usize) -> SoaWriter<'a> {
        out.starts.resize(cap, 0);
        out.values.resize(cap, 0);
        out.slopes.resize(cap, 0);
        SoaWriter {
            s: &mut out.starts,
            v: &mut out.values,
            m: &mut out.slopes,
            w: 0,
            pt: 0,
            // No real entry evaluates to i64::MIN, so the first emit can
            // never be mistaken for a line continuation.
            pv: i64::MIN,
            pm: 0,
        }
    }

    #[inline]
    pub(crate) fn emit(&mut self, t: i64, v: i64, m: i64) {
        if self.pm == m && self.pv + self.pm * (t - self.pt) == v {
            return;
        }
        self.s[self.w] = t;
        self.v[self.w] = v;
        self.m[self.w] = m;
        (self.pt, self.pv, self.pm) = (t, v, m);
        self.w += 1;
    }

    /// Start and value of entry `i` if it has been written — for a kernel
    /// that reads its own output back.
    #[inline]
    pub(crate) fn entry(&self, i: usize) -> Option<(i64, i64)> {
        (i < self.w).then(|| (self.s[i], self.v[i]))
    }

    /// Make room for `extra` more entries — for kernels whose output
    /// length has no cheap tight bound up front. Grows geometrically, so
    /// a warm output rarely resizes; the growth is out of line and never
    /// sees the writer itself, which keeps the writer's state in
    /// registers through the caller's loop.
    #[inline]
    pub(crate) fn room(&mut self, extra: usize) {
        let need = self.w + extra;
        if need > self.s.len() {
            grow_columns([&mut *self.s, &mut *self.v, &mut *self.m], need);
        }
    }

    #[inline]
    pub(crate) fn finish(self) {
        self.s.truncate(self.w);
        self.v.truncate(self.w);
        self.m.truncate(self.w);
    }
}

#[cold]
fn grow_columns(columns: [&mut Vec<i64>; 3], need: usize) {
    for c in columns {
        let cap = (2 * c.len()).max(need);
        c.resize(cap, 0);
    }
}

/// The pointwise linear combination `ca·a + cb·b`, written into `out`. The
/// merge walks the union of both breakpoint sets in one O(n + m) pass,
/// keeping both operands' active piece scalars in locals (loaded once per
/// head advance, with `i64::MAX` sentinels standing in for "no next
/// breakpoint", so the hot loop is `Option`-free), and writes by index
/// into pre-sized columns with the normalization continuation predicate
/// checked against a register-cached previous entry — no per-entry
/// `Vec::push` length/capacity traffic and no second normalization pass.
pub fn linear_combine_into(a: &SoaCurve, ca: i64, b: &SoaCurve, cb: i64, out: &mut SoaCurve) {
    // A one-piece operand is a line: fold it into the other operand's
    // single pass.
    if b.len() == 1 {
        let (lv, lm) = (
            cb * (b.values[0] - b.slopes[0] * b.starts[0]),
            cb * b.slopes[0],
        );
        return combine_line(a, ca, lv, lm, out);
    }
    if a.len() == 1 {
        let (lv, lm) = (
            ca * (a.values[0] - a.slopes[0] * a.starts[0]),
            ca * a.slopes[0],
        );
        return combine_line(b, cb, lv, lm, out);
    }
    let (sa, va, ma) = (
        a.starts.as_slice(),
        a.values.as_slice(),
        a.slopes.as_slice(),
    );
    let (sb, vb, mb) = (
        b.starts.as_slice(),
        b.values.as_slice(),
        b.slopes.as_slice(),
    );
    let mut wr = SoaWriter::new(out, a.len() + b.len());
    // The merge keeps each scaled piece in intercept form `k + m·t`, so an
    // emit is one multiply; the per-piece constants are refreshed only when
    // a head advances. `k + m·t` equals the scaled point-slope evaluation
    // exactly in integer arithmetic.
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut ka = ca * (va[0] - ma[0] * sa[0]);
    let mut kam = ca * ma[0];
    let mut kb = cb * (vb[0] - mb[0] * sb[0]);
    let mut kbm = cb * mb[0];
    let mut na = sa.get(1).copied().unwrap_or(i64::MAX);
    let mut nb = sb.get(1).copied().unwrap_or(i64::MAX);
    wr.emit(0, ka + kb, kam + kbm);
    loop {
        let t = na.min(nb);
        if t == i64::MAX {
            break;
        }
        if na == t {
            ia += 1;
            ka = ca * (va[ia] - ma[ia] * sa[ia]);
            kam = ca * ma[ia];
            na = sa.get(ia + 1).copied().unwrap_or(i64::MAX);
        }
        if nb == t {
            ib += 1;
            kb = cb * (vb[ib] - mb[ib] * sb[ib]);
            kbm = cb * mb[ib];
            nb = sb.get(ib + 1).copied().unwrap_or(i64::MAX);
        }
        let m = kam + kbm;
        wr.emit(t, ka + kb + m * t, m);
    }
    wr.finish();
    out.finish();
}

/// `cc·c + lv + lm·t` — a scaled curve plus a line, one pass over `c`'s
/// breakpoints. The affine term regroups exactly in integer arithmetic,
/// so this matches the general merge against a one-piece operand that
/// folds to the same `(lv, lm)`.
fn combine_line(c: &SoaCurve, cc: i64, lv: i64, lm: i64, out: &mut SoaCurve) {
    let mut wr = SoaWriter::new(out, c.len());
    for i in 0..c.len() {
        let t = c.starts[i];
        wr.emit(t, cc * c.values[i] + lv + lm * t, cc * c.slopes[i] + lm);
    }
    wr.finish();
    out.finish();
}

/// The pointwise sum of `curves`, written into `out` in a single k-way
/// merge — equivalent to folding [`linear_combine_into`] with unit
/// coefficients over the slice
/// (pointwise addition is exact and the normalized segment representation
/// is canonical, so the two agree segment for segment), but each input
/// breakpoint is visited once instead of once per accumulation step. An
/// empty slice yields the zero curve. Merge state lives in fixed stack
/// arrays; sums wider than their capacity fall back to the fold.
pub fn sum_many_into(curves: &[&SoaCurve], out: &mut SoaCurve) {
    const FAN: usize = 16;
    match curves.len() {
        0 => {
            out.set_affine(0, 0);
            return;
        }
        1 => {
            out.copy_from(curves[0]);
            return;
        }
        2 => {
            linear_combine_into(curves[0], 1, curves[1], 1, out);
            return;
        }
        n if n > FAN => {
            // Cold path: tree-reduce through temporaries so the hot merge
            // below keeps its fixed-size state.
            let mut acc = SoaCurve::zero();
            let mut tmp = SoaCurve::zero();
            sum_many_into(&curves[..FAN], &mut acc);
            for chunk in curves[FAN..].chunks(FAN - 1) {
                let mut operands: Vec<&SoaCurve> = Vec::with_capacity(FAN);
                operands.push(&acc);
                operands.extend_from_slice(chunk);
                sum_many_into(&operands, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            out.copy_from(&acc);
            return;
        }
        _ => {}
    }
    let k = curves.len();
    let cap: usize = curves.iter().map(|c| c.len()).sum();
    let mut wr = SoaWriter::new(out, cap);
    let mut idx = [0usize; FAN];
    let mut head = [(0i64, 0i64, 0i64); FAN];
    let mut next = [i64::MAX; FAN];
    let (mut v0, mut m0) = (0i64, 0i64);
    for (j, c) in curves.iter().enumerate() {
        head[j] = (c.starts[0], c.values[0], c.slopes[0]);
        next[j] = c.starts.get(1).copied().unwrap_or(i64::MAX);
        v0 += c.values[0] - c.slopes[0] * c.starts[0];
        m0 += c.slopes[0];
    }
    wr.emit(0, v0, m0);
    loop {
        let mut t = i64::MAX;
        for &n in &next[..k] {
            t = t.min(n);
        }
        if t == i64::MAX {
            break;
        }
        let (mut v, mut m) = (0i64, 0i64);
        for j in 0..k {
            if next[j] == t {
                idx[j] += 1;
                let i = idx[j];
                let c = curves[j];
                head[j] = (c.starts[i], c.values[i], c.slopes[i]);
                next[j] = c.starts.get(i + 1).copied().unwrap_or(i64::MAX);
            }
            let (a0, av, am) = head[j];
            v += av + am * (t - a0);
            m += am;
        }
        wr.emit(t, v, m);
    }
    wr.finish();
    out.finish();
}

/// Copy a (normalized) view verbatim into `out`.
fn copy_view(v: SoaView<'_>, out: &mut SoaCurve) {
    out.starts.clear();
    out.starts.extend_from_slice(v.starts);
    out.values.clear();
    out.values.extend_from_slice(v.values);
    out.slopes.clear();
    out.slopes.extend_from_slice(v.slopes);
    out.finish();
}

/// Shared min/max kernel. With `max = false` this is the lattice-exact
/// minimum; `max = true` flips the sign of every comparison, which computes
/// `−min(−a, −b)` without materializing either negation. Two pieces may
/// cross at a fractional instant; the switch lands on the first integer
/// tick past the crossing (`div_floor` offset), which keeps the value at
/// every integer tick exact. Ties pick `a`. Uses the same indexed-write
/// scheme as [`linear_combine_into`].
fn extremum_into(a: SoaView<'_>, b: SoaView<'_>, max: bool, out: &mut SoaCurve) {
    // One-piece operands (the identity line, clamp constants) skip the
    // merge. The specialization keeps the operand roles of the general
    // loop — ties pick `a`, and which side a single-tick switch piece
    // borrows its slope from depends on that order.
    if b.len() == 1 {
        return extremum_with_affine(a, (b.starts[0], b.values[0], b.slopes[0]), max, false, out);
    }
    if a.len() == 1 {
        return extremum_with_affine(b, (a.starts[0], a.values[0], a.slopes[0]), max, true, out);
    }
    let sign: i64 = if max { -1 } else { 1 };
    let (sa, va, ma) = (a.starts, a.values, a.slopes);
    let (sb, vb, mb) = (b.starts, b.values, b.slopes);
    let (mut ia, mut ib) = (0usize, 0usize);
    let (mut a0, mut av, mut am) = (sa[0], va[0], ma[0]);
    let (mut b0, mut bv, mut bm) = (sb[0], vb[0], mb[0]);
    let mut na = sa.get(1).copied().unwrap_or(i64::MAX);
    let mut nb = sb.get(1).copied().unwrap_or(i64::MAX);
    let mut t0 = 0i64;
    // Phase 1: follow the tick-0 winner (ties pick `a`) through the
    // breakpoint union without writing anything — each interval only needs
    // the sign of the linear difference at its endpoints, no divisions.
    // The clamp/cap steps of the analysis chains are one-sided almost
    // always once the fixpoint is warm, so this usually runs to the end
    // and the merge collapses to a copy. When the winner does lose an
    // interval, everything emitted so far is exactly the winner's pieces
    // up to its current head (the other operand's breakpoints inside a won
    // stretch are line continuations the normalize predicate drops), so
    // the emitting merge resumes mid-stream from a bulk-copied prefix.
    let a_winning = sign * (va[0] - vb[0]) <= 0;
    loop {
        let next = na.min(nb);
        let d0 = sign * ((av + am * (t0 - a0)) - (bv + bm * (t0 - b0)));
        let ds = sign * (am - bm);
        let holds = if next == i64::MAX {
            if a_winning {
                d0 <= 0 && ds <= 0
            } else {
                d0 > 0 && ds >= 0
            }
        } else {
            let de = d0 + ds * (next - 1 - t0);
            if a_winning {
                d0 <= 0 && de <= 0
            } else {
                d0 > 0 && de > 0
            }
        };
        if !holds {
            break;
        }
        if next == i64::MAX {
            return copy_view(if a_winning { a } else { b }, out);
        }
        t0 = next;
        if na == next {
            ia += 1;
            (a0, av, am) = (sa[ia], va[ia], ma[ia]);
            na = sa.get(ia + 1).copied().unwrap_or(i64::MAX);
        }
        if nb == next {
            ib += 1;
            (b0, bv, bm) = (sb[ib], vb[ib], mb[ib]);
            nb = sb.get(ib + 1).copied().unwrap_or(i64::MAX);
        }
    }
    // Phase 2: the emitting merge, seeded with the winner's prefix.
    let mut wr = SoaWriter::new(out, 2 * (a.len() + b.len()));
    if t0 > 0 {
        let (ws, wv, wm, iw) = if a_winning {
            (sa, va, ma, ia)
        } else {
            (sb, vb, mb, ib)
        };
        // A winner piece starting exactly at the divergence time covers no
        // validated interval — the merge below owns the emit at `t0`.
        let n = if ws[iw] == t0 { iw } else { iw + 1 };
        wr.s[..n].copy_from_slice(&ws[..n]);
        wr.v[..n].copy_from_slice(&wv[..n]);
        wr.m[..n].copy_from_slice(&wm[..n]);
        wr.w = n;
        (wr.pt, wr.pv, wr.pm) = (ws[n - 1], wv[n - 1], wm[n - 1]);
    }
    loop {
        let next = na.min(nb);
        let ea = av + am * (t0 - a0);
        let eb = bv + bm * (t0 - b0);
        let e0 = sign * (ea - eb);
        let es = sign * (am - bm);
        // The currently-extremal piece, then a possible single switch.
        let take_a = e0 <= 0;
        let (first_v, first_m) = if take_a { (ea, am) } else { (eb, bm) };
        wr.emit(t0, first_v, first_m);
        let cross_off = if take_a && es > 0 {
            Some(div_floor(-e0, es) + 1)
        } else if !take_a && es < 0 {
            Some(div_floor(e0, -es) + 1)
        } else {
            None
        };
        if let Some(off) = cross_off {
            debug_assert!(off >= 1);
            let tc = t0 + off;
            if tc < next {
                let (sv, sm) = if take_a {
                    (bv + bm * (tc - b0), bm)
                } else {
                    (av + am * (tc - a0), am)
                };
                wr.emit(tc, sv, sm);
            }
        }
        if next == i64::MAX {
            break;
        }
        t0 = next;
        if na == next {
            ia += 1;
            (a0, av, am) = (sa[ia], va[ia], ma[ia]);
            na = sa.get(ia + 1).copied().unwrap_or(i64::MAX);
        }
        if nb == next {
            ib += 1;
            (b0, bv, bm) = (sb[ib], vb[ib], mb[ib]);
            nb = sb.get(ib + 1).copied().unwrap_or(i64::MAX);
        }
    }
    wr.finish();
    out.finish();
}

/// [`extremum_into`] against a single affine piece `aff(t) = av + am·(t −
/// a0)`, iterating only the multi-piece operand `c`. `aff_is_a` records
/// which *positional* operand the affine piece was, so tie-breaks (`take_a
/// = e0 ≤ 0`) and switch-piece slopes replicate the general merge exactly.
fn extremum_with_affine(
    c: SoaView<'_>,
    (f0, fv, fm): (i64, i64, i64),
    max: bool,
    aff_is_a: bool,
    out: &mut SoaCurve,
) {
    let sign: i64 = if max { -1 } else { 1 };
    let (sc, vc, mc) = (c.starts, c.values, c.slopes);
    // Pre-scan: when `c` is extremal at every integer tick the merge is
    // the identity on it — the general loop would take `c`'s piece in
    // every interval and never emit a switch, so copying `c` is
    // segment-identical and skips all crossing divisions. Ties go to
    // positional operand `a`, so `c` must win strictly when the affine
    // piece holds that slot. Clipping curves against the identity line or
    // a zero floor usually no-ops on converged bounds, which makes this
    // the common case in the fixpoint's warm rounds.
    let strict = aff_is_a;
    let mut c_extremal = true;
    for i in 0..c.len() {
        let (t0, cv, cm) = (sc[i], vc[i], mc[i]);
        let d0 = sign * (cv - (fv + fm * (t0 - f0)));
        if if strict { d0 >= 0 } else { d0 > 0 } {
            c_extremal = false;
            break;
        }
        let ds = sign * (cm - fm);
        match sc.get(i + 1) {
            Some(&t1) => {
                let de = d0 + ds * (t1 - 1 - t0);
                if if strict { de >= 0 } else { de > 0 } {
                    c_extremal = false;
                    break;
                }
            }
            None => {
                if ds > 0 {
                    c_extremal = false;
                    break;
                }
            }
        }
    }
    if c_extremal {
        return copy_view(c, out);
    }
    let mut wr = SoaWriter::new(out, 2 * (c.len() + 1));
    for i in 0..c.len() {
        let (t0, cv, cm) = (sc[i], vc[i], mc[i]);
        let next = sc.get(i + 1).copied().unwrap_or(i64::MAX);
        let ev = fv + fm * (t0 - f0);
        // The general loop's (ea, eb) with the affine piece restored to
        // its original operand slot.
        let (e0, es) = if aff_is_a {
            (sign * (ev - cv), sign * (fm - cm))
        } else {
            (sign * (cv - ev), sign * (cm - fm))
        };
        let take_a = e0 <= 0;
        let take_aff = take_a == aff_is_a;
        let (first_v, first_m) = if take_aff { (ev, fm) } else { (cv, cm) };
        wr.emit(t0, first_v, first_m);
        let cross_off = if take_a && es > 0 {
            Some(div_floor(-e0, es) + 1)
        } else if !take_a && es < 0 {
            Some(div_floor(e0, -es) + 1)
        } else {
            None
        };
        if let Some(off) = cross_off {
            debug_assert!(off >= 1);
            let tc = t0 + off;
            if tc < next {
                let (sv, sm) = if take_aff {
                    (cv + cm * (tc - t0), cm)
                } else {
                    (fv + fm * (tc - f0), fm)
                };
                wr.emit(tc, sv, sm);
            }
        }
    }
    wr.finish();
    out.finish();
}

/// A forward-only cursor over a **nondecreasing** SoA curve, answering
/// [`SoaCursor::eval`] and [`SoaCursor::inverse_at`] for monotone query
/// sequences in amortized O(1) — the Theorem-1 and Eq. 12 instance sweeps
/// read `f⁻¹(1), f⁻¹(2), …` this way instead of rescanning from the
/// front. A one-shot pseudo-inverse is `SoaCursor::new(&c).inverse_at(y)`. The inverse sweep touches only the `starts`/`values` columns
/// until a sloped piece resolves the query, so a counting-curve sweep
/// streams two flat arrays.
#[derive(Clone, Debug)]
pub struct SoaCursor<'a> {
    curve: SoaView<'a>,
    inv_idx: usize,
    eval_idx: usize,
    #[cfg(debug_assertions)]
    last_t: Option<Time>,
    #[cfg(debug_assertions)]
    last_y: Option<i64>,
}

impl<'a> SoaCursor<'a> {
    /// Start a sweep over `curve`.
    pub fn new(curve: &'a SoaCurve) -> SoaCursor<'a> {
        debug_assert!(
            curve.is_nondecreasing(),
            "SoaCursor requires a nondecreasing curve"
        );
        SoaCursor {
            curve: curve.view(),
            inv_idx: 0,
            eval_idx: 0,
            #[cfg(debug_assertions)]
            last_t: None,
            #[cfg(debug_assertions)]
            last_y: None,
        }
    }

    /// `curve.eval(t)` for a nondecreasing sequence of `t`.
    pub fn eval(&mut self, t: Time) -> i64 {
        #[cfg(debug_assertions)]
        {
            debug_assert!(t >= Time::ZERO);
            debug_assert!(
                self.last_t.is_none_or(|p| t >= p),
                "cursor eval queries must be nondecreasing"
            );
            self.last_t = Some(t);
        }
        let starts = self.curve.starts;
        while self.eval_idx + 1 < starts.len() && starts[self.eval_idx + 1] <= t.ticks() {
            self.eval_idx += 1;
        }
        self.curve.piece_eval(self.eval_idx, t.ticks())
    }

    /// The pseudo-inverse `f⁻¹(y) = min { t ≥ 0 : f(t) ≥ y }` (Definition
    /// 5) on the tick lattice, or `None` when the curve never reaches `y`,
    /// for a nondecreasing sequence of `y`.
    pub fn inverse_at(&mut self, y: i64) -> Option<Time> {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_y.is_none_or(|p| y >= p),
                "cursor inverse queries must be nondecreasing"
            );
            self.last_y = Some(y);
        }
        // Equal-length columns let the compiler drop the per-column
        // bounds checks inside the loop.
        let starts = self.curve.starts;
        let (values, slopes) = (
            &self.curve.values[..starts.len()],
            &self.curve.slopes[..starts.len()],
        );
        while self.inv_idx < starts.len() {
            let i = self.inv_idx;
            if values[i] >= y {
                return Some(Time(starts[i]));
            }
            if slopes[i] > 0 {
                let off = div_ceil(y - values[i], slopes[i]);
                debug_assert!(off >= 1);
                let t = starts[i] + off;
                match starts.get(i + 1) {
                    Some(&next) if t >= next => {} // reached after piece ends
                    _ => return Some(Time(t)),
                }
            }
            // This piece never reaches `y` (nor any larger value): skip it
            // for the rest of the sweep.
            self.inv_idx += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soa(pieces: &[(i64, i64, i64)]) -> SoaCurve {
        SoaCurve::try_from_pieces(pieces).unwrap()
    }

    /// 0 on [0,5), 2 on [5,10), then slope 1.
    fn staircase() -> SoaCurve {
        soa(&[(0, 0, 0), (5, 2, 0), (10, 2, 1)])
    }

    fn ticks(c: &SoaCurve, h: i64) -> Vec<i64> {
        (0..=h).map(|t| c.eval(Time(t))).collect()
    }

    #[test]
    fn construction_validates() {
        assert_eq!(SoaCurve::try_from_pieces(&[]), Err(CurveError::Empty));
        assert_eq!(
            SoaCurve::try_from_pieces(&[(1, 0, 0)]),
            Err(CurveError::FirstSegmentNotAtZero)
        );
        assert_eq!(
            SoaCurve::try_from_pieces(&[(0, 0, 0), (0, 1, 0)]),
            Err(CurveError::UnsortedSegments { index: 1 })
        );
        assert_eq!(
            SoaCurve::try_from_pieces(&[(0, 0, 0), (4, 1, 0), (3, 2, 0)]),
            Err(CurveError::UnsortedSegments { index: 2 })
        );
    }

    #[test]
    fn construction_normalizes_continuations() {
        // (5, 5, 1) continues the first line; (8, 9, 1) jumps by one.
        let c = soa(&[(0, 0, 1), (5, 5, 1), (8, 9, 1)]);
        assert_eq!(c.view().starts(), &[0, 8]);
        assert_eq!(c.eval(Time(7)), 7);
        assert_eq!(c.eval(Time(8)), 9);
        assert_eq!(soa(&[(0, 0, 0), (3, 0, 0)]), SoaCurve::zero());
    }

    #[test]
    fn monotonicity_detection() {
        assert!(staircase().is_nondecreasing());
        let dec = soa(&[(0, 10, 0), (3, 4, 0)]);
        assert_eq!(dec.first_decrease(), Some(Time(3)));
        // The first observable lattice decrease is at t = 1 (f(1) < f(0)).
        let negslope = soa(&[(0, 0, -1)]);
        assert_eq!(negslope.first_decrease(), Some(Time(1)));
        assert!(negslope.require_nondecreasing().is_err());
        // Monotone on the lattice although the first piece's line overshoots
        // the second piece's start: values 0, 1, 2, 2, …
        assert!(soa(&[(0, 0, 1), (3, 2, 0)]).is_nondecreasing());
    }

    #[test]
    fn event_times_build_the_counting_curve() {
        let mut c = staircase(); // dirty output
        SoaCurve::from_event_times_into(&[Time(0), Time(0), Time(5), Time(9), Time(9)], &mut c);
        assert_eq!(ticks(&c, 10), vec![2, 2, 2, 2, 2, 3, 3, 3, 3, 5, 5]);
        SoaCurve::from_event_times_into(&[], &mut c);
        assert_eq!(c, SoaCurve::zero());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_events_panic() {
        SoaCurve::from_event_times_into(&[Time(5), Time(2)], &mut SoaCurve::zero());
    }

    #[test]
    fn linear_combine_is_pointwise() {
        let (a, b) = (staircase(), soa(&[(0, 0, 1)]));
        let mut out = SoaCurve::zero();
        linear_combine_into(&a, 2, &b, -3, &mut out);
        for t in 0..=15 {
            assert_eq!(out.eval(Time(t)), 2 * a.eval(Time(t)) - 3 * t, "t={t}");
        }
    }

    #[test]
    fn min_with_fractional_crossing_is_lattice_exact() {
        // f = 2t, g = 7 (crossing at t = 3.5).
        let (f, g) = (soa(&[(0, 0, 2)]), soa(&[(0, 7, 0)]));
        let mut out = SoaCurve::zero();
        f.min_with_into(&g, &mut out);
        for t in 0..=10 {
            assert_eq!(out.eval(Time(t)), (2 * t).min(7), "t={t}");
        }
        f.max_with_into(&g, &mut out);
        for t in 0..=10 {
            assert_eq!(out.eval(Time(t)), (2 * t).max(7), "t={t}");
        }
        soa(&[(0, -5, 1)]).clamp_min_into(0, &mut out);
        for t in 0..=10 {
            assert_eq!(out.eval(Time(t)), (t - 5).max(0), "t={t}");
        }
    }

    #[test]
    fn floor_div_counts_crossings_and_rejects_decrease() {
        let id = soa(&[(0, 0, 1)]);
        let mut out = SoaCurve::zero();
        id.floor_div_into(4, Time(30), &mut out).unwrap();
        for t in 0..=30 {
            assert_eq!(out.eval(Time(t)), t / 4, "t={t}");
        }
        // Errors leave out untouched.
        let before = out.clone();
        assert!(soa(&[(0, 5, -1)])
            .floor_div_into(2, Time(10), &mut out)
            .is_err());
        assert_eq!(out, before);
    }

    #[test]
    fn shift_reindexes_the_curve() {
        let c = staircase();
        let mut out = SoaCurve::zero();
        c.shift_right_into(Time(3), 7, &mut out);
        for t in 0..=20 {
            let expect = if t < 3 { 7 } else { c.eval(Time(t - 3)) };
            assert_eq!(out.eval(Time(t)), expect, "shift t={t}");
        }
    }

    #[test]
    fn cursor_matches_rescanning_queries() {
        let c = soa(&[(0, 0, 1), (3, 3, 0), (8, 5, 2), (12, 13, 0)]);
        let mut cur = SoaCursor::new(&c);
        for t in 0..=20 {
            assert_eq!(cur.eval(Time(t)), c.eval(Time(t)), "t={t}");
        }
        let mut cur = SoaCursor::new(&c);
        for y in 0..=16 {
            let scan = (0..=20).map(Time).find(|&t| c.eval(t) >= y);
            assert_eq!(cur.inverse_at(y), scan, "y={y}");
        }
    }

    #[test]
    fn inverse_skips_plateaus_and_resolves_slopes() {
        // 0 on [0, 5), then slope 2.
        let c = soa(&[(0, 0, 0), (5, 0, 2)]);
        assert_eq!(SoaCursor::new(&c).inverse_at(1), Some(Time(6)));
        assert_eq!(SoaCursor::new(&c).inverse_at(3), Some(Time(7)));
        let c = soa(&[(0, 0, 1), (3, 3, 0), (8, 3, 1)]);
        assert_eq!(SoaCursor::new(&c).inverse_at(3), Some(Time(3)));
        assert_eq!(SoaCursor::new(&c).inverse_at(4), Some(Time(9)));
        let steps = soa(&[(0, 1, 0), (10, 3, 0), (25, 4, 0)]);
        let mut cur = SoaCursor::new(&steps);
        let got: Vec<_> = (0..=5).map(|y| cur.inverse_at(y)).collect();
        let want = [Some(0), Some(0), Some(10), Some(10), Some(25), None];
        assert_eq!(got, want.map(|t| t.map(Time)));
    }
}
