//! Min-plus convolution.
//!
//! The paper's Theorem 3 is a disguised min-plus operation: the exact SPP
//! service function is `S = A − ((A − c) ⊘ 0)` in deconvolution form, or —
//! as implemented in `rta-core` — an availability curve plus a running
//! minimum. This module provides the segment-native operator for arbitrary
//! curves ([`convolve`]) via convex decomposition, the O(n + m) slope-merge
//! for the convex case ([`convolve_convex`]), and an exhaustive lattice
//! evaluator ([`min_plus_convolve_lattice`]) kept **only as a test oracle**
//! — it is O(horizon²) and must not appear on analysis paths.
//!
//! ## Convex decomposition
//!
//! Any piecewise-linear curve splits into maximal *convex runs*: break the
//! segment list wherever the curve jumps or its slope decreases. Each run
//! is convex on its half-open time domain, the domains partition `[0, ∞)`,
//! and with the convention `f_i = +∞` outside its domain, `f = min_i f_i`.
//! Min-plus convolution distributes over `min`, so
//!
//! ```text
//! f ⊗ g = min_{i,j} ( f_i ⊗ g_j )
//! ```
//!
//! where each `f_i ⊗ g_j` is a convex partial curve computed by the
//! classical slope merge (domain start/lengths add). The cost is
//! O(R_f · R_g · segments) for R convex runs — for the convex curves that
//! dominate the analysis R = 1 and the general path collapses to the
//! slope merge.
//!
//! ## Dense crossover
//!
//! The decomposition cost grows with the *product* of the run counts, so
//! for curves whose breakpoint spacing approaches one tick (R ≈ horizon —
//! dense staircases at coarse resolution) the O(horizon²) lattice scan is
//! cheaper than the O(R_f · R_g · segments) pair merge. [`convolve`] is a
//! hybrid: it estimates both costs and dispatches to the cheaper kernel;
//! both produce identical values at every tick of the horizon.
//! [`convolve_decomposed_into`] pins the decomposition path for benchmarks
//! and oracle tests, which check it against the lattice scan.

use crate::curve::push_normalized;
use crate::soa::SoaCurve;
use crate::{Curve, Scratch, Segment, Time};

/// Sentinel standing in for `+∞` while folding partial curves into a total
/// minimum. Any real curve value within the analysis horizon is far below
/// this, so the sentinel loses every pointwise min on `[0, horizon]`.
const INFTY: i64 = i64::MAX / 8;

impl Curve {
    /// `true` iff the curve is convex on the lattice: continuous with
    /// nondecreasing slopes.
    pub fn is_convex(&self) -> bool {
        self.is_continuous() && self.segments().windows(2).all(|w| w[0].slope <= w[1].slope)
    }
}

/// Min-plus convolution `(f ⊗ g)(t) = min_{0 ≤ s ≤ t} ( f(s) + g(t − s) )`
/// for **convex** nondecreasing curves.
///
/// For convex curves the infimal convolution is obtained by laying the linear
/// pieces of both curves end to end in order of increasing slope, starting
/// from `f(0) + g(0)` — an O(n + m) merge. Panics (debug) if either curve is
/// not convex; use [`min_plus_convolve_lattice`] for arbitrary curves.
#[must_use]
pub fn convolve_convex(f: &Curve, g: &Curve) -> Curve {
    let mut scratch = Scratch::new();
    let mut out = Curve::zero();
    convolve_convex_into(f, g, &mut scratch, &mut out);
    out
}

/// [`convolve_convex`] writing into a caller-provided curve; the
/// `(length, slope)` piece staging lives in `scratch`, so a warm call
/// allocates nothing.
pub fn convolve_convex_into(f: &Curve, g: &Curve, scratch: &mut Scratch, out: &mut Curve) {
    debug_assert!(f.is_convex(), "convolve_convex requires convex f");
    debug_assert!(g.is_convex(), "convolve_convex requires convex g");

    // Collect finite pieces (length, slope); final pieces are infinite.
    let pieces = &mut scratch.pieces;
    pieces.clear();
    for c in [f, g] {
        let segs = c.segments();
        for (i, s) in segs.iter().enumerate() {
            pieces.push((segs.get(i + 1).map(|n| n.start - s.start), s.slope));
        }
    }
    // Stable sort, f's pieces staged before g's — the same piece order the
    // allocating implementation always produced.
    pieces.sort_by_key(|&(_, slope)| slope);

    let out_segs = out.begin_write(pieces.len());
    let mut t = Time::ZERO;
    let mut v = f.eval(Time::ZERO) + g.eval(Time::ZERO);
    for &(len, slope) in pieces.iter() {
        push_normalized(out_segs, Segment::new(t, v, slope));
        match len {
            Some(len) => {
                t += len;
                v += slope * len.ticks();
            }
            None => break, // first infinite piece has the smallest remaining slope
        }
    }
    out.finish_write();
}

/// Min-plus convolution
/// `(f ⊗ g)(t) = min_{0 ≤ s ≤ t} ( f(s) + g(t − s) )` for **arbitrary**
/// piecewise-linear curves, exact at every integer tick in `[0, horizon]`
/// (frozen beyond, like the lattice oracle it replaces).
///
/// Convex inputs take the O(n + m) slope-merge fast path. General inputs
/// are dispatched by a cost heuristic (see the module docs): sparse curves
/// go through the convex decomposition ([`convolve_decomposed_into`],
/// O(R_f · R_g · (n + m)) for R convex runs, independent of the horizon),
/// while run counts approaching the horizon fall back to the dense
/// O(horizon²) lattice scan, which beats the decomposition in that regime.
#[must_use]
pub fn convolve(f: &Curve, g: &Curve, horizon: Time) -> Curve {
    let mut scratch = Scratch::new();
    let mut out = Curve::zero();
    convolve_into(f, g, horizon, &mut scratch, &mut out);
    out
}

/// [`convolve`] writing into a caller-provided curve. All three kernels —
/// the convex fast path, the dense lattice fallback, and the
/// convex-decomposition path (whose per-pair partials and fold layers are
/// structure-of-arrays buffers pooled in `scratch`) — run entirely out of
/// `scratch`, so a warm call performs no heap traffic.
pub fn convolve_into(f: &Curve, g: &Curve, horizon: Time, scratch: &mut Scratch, out: &mut Curve) {
    assert!(horizon >= Time::ZERO);
    if f.is_convex() && g.is_convex() {
        convolve_convex_into(f, g, scratch, out);
    } else if dense_scan_is_cheaper(f, g, horizon) {
        min_plus_convolve_lattice_into(f, g, horizon, scratch, out);
    } else {
        convolve_decomposed_into(f, g, horizon, scratch, out);
    }
}

/// Exclusive-prefix run starts of a curve's convex decomposition, clipped
/// to the horizon (runs starting beyond it contribute nothing).
fn run_starts_within(c: &Curve, horizon: Time) -> Vec<i64> {
    let segs = c.segments();
    let mut starts = vec![Time::ZERO.ticks()];
    for i in 1..segs.len() {
        let discontinuous = segs[i - 1].eval(segs[i].start) != segs[i].value;
        if discontinuous || segs[i].slope < segs[i - 1].slope {
            if segs[i].start > horizon {
                break;
            }
            starts.push(segs[i].start.ticks());
        }
    }
    starts
}

/// Cost heuristic for the hybrid dispatch: compare the decomposition's
/// leaf-and-fold work against the lattice scan's `horizon²` cell sweep,
/// mirroring which leaf generator [`convolve_decomposed_into`] would pick.
///
/// When the staircase row path applies its work is `R · |other|` (one
/// shifted copy of the other operand per flat run), so the lattice only
/// wins for near-every-tick staircases where `R` and `|other|` both
/// approach the horizon. Otherwise the pair count honors the horizon clip
/// of the decomposition's inner loop (a pair is dead once its domain
/// starts past the horizon), and each pair costs on the order of the total
/// segment count. Both constants calibrate merge work against the per-cell
/// scan; they were fitted on the `convolve/*` benchmarks in
/// `BENCH_curves.json` plus adversarial every-tick / every-2-tick
/// staircase shapes (lattice 506–576 µs vs rows 1.9–17.8 ms there; rows
/// 67–317 µs on the bench shapes).
fn dense_scan_is_cheaper(f: &Curve, g: &Curve, horizon: Time) -> bool {
    const ROW_VS_CELL: u128 = 16;
    const PAIR_VS_CELL: u128 = 3;
    let h = horizon.ticks() as u128;
    let segs_within = |c: &Curve| {
        c.segments()
            .iter()
            .take_while(|s| s.start <= horizon)
            .count() as u128
    };
    for (stair, other) in [(f, g), (g, f)] {
        if is_staircase(stair) && other.is_nondecreasing() {
            let rows = segs_within(stair);
            return h * h < ROW_VS_CELL * rows * (segs_within(other) + 2);
        }
    }
    let starts_f = run_starts_within(f, horizon);
    let starts_g = run_starts_within(g, horizon);
    // Two-pointer count of pairs with start_f + start_g ≤ horizon.
    let mut pairs: u128 = 0;
    let mut j = starts_g.len();
    for &sf in &starts_f {
        while j > 0 && sf + starts_g[j - 1] > horizon.ticks() {
            j -= 1;
        }
        if j == 0 {
            break;
        }
        pairs += j as u128;
    }
    let segs = (f.num_segments() + g.num_segments()) as u128;
    h * h < PAIR_VS_CELL * pairs * segs
}

/// Begin indices of a segment list's maximal convex runs (break wherever
/// the curve jumps or its slope decreases), staged in a reusable buffer.
/// Run `k` spans `segs[out[k]..out[k+1]]` (the last run extends to the end
/// of the list); the runs' domains partition `[0, ∞)`.
fn run_begins_into(segs: &[Segment], out: &mut Vec<u32>) {
    out.clear();
    out.push(0);
    for i in 1..segs.len() {
        let discontinuous = segs[i - 1].eval(segs[i].start) != segs[i].value;
        if discontinuous || segs[i].slope < segs[i - 1].slope {
            out.push(i as u32);
        }
    }
}

/// Min-plus convolution of two convex runs by the slope merge, written as
/// an [`INFTY`]-padded total curve straight into an SoA buffer with no
/// per-pair allocation. Domain starts add, piece lengths add, and pieces
/// are laid out in slope order from `f(a_f) + g(a_g)`; outside the pair's
/// domain the sentinel stands in for `+∞`.
#[allow(clippy::too_many_arguments)]
fn pair_partial_into(
    fsegs: &[Segment],
    f_end: Option<Time>,
    gsegs: &[Segment],
    g_end: Option<Time>,
    horizon: Time,
    pieces: &mut Vec<(Option<Time>, i64)>,
    p: &mut SoaCurve,
) {
    pieces.clear();
    let mut unbounded = false;
    for (segs, end) in [(fsegs, f_end), (gsegs, g_end)] {
        for (i, s) in segs.iter().enumerate() {
            match segs.get(i + 1) {
                Some(n) => pieces.push((Some(n.start - s.start), s.slope)),
                None => match end {
                    // Last lattice point of the domain is `end − 1`.
                    Some(e) => pieces.push((Some(e - Time(1) - s.start), s.slope)),
                    None => {
                        pieces.push((None, s.slope));
                        unbounded = true;
                    }
                },
            }
        }
    }
    pieces.sort_by_key(|&(_, slope)| slope);

    let mut t = (fsegs[0].start + gsegs[0].start).ticks();
    let mut v = fsegs[0].value + gsegs[0].value;
    p.begin(pieces.len() + 3);
    if t > 0 {
        p.push(0, INFTY, 0);
    }
    let mut pushed = false;
    for &(len, slope) in pieces.iter() {
        match len {
            Some(len) if len == Time::ZERO => continue,
            Some(len) => {
                p.push(t, v, slope);
                pushed = true;
                t += len.ticks();
                v += slope * len.ticks();
            }
            None => {
                p.push(t, v, slope);
                pushed = true;
                break; // smallest-slope unbounded piece dominates the tail
            }
        }
    }
    if !pushed {
        // Both domains are single lattice points: a point mass.
        p.push(t, v, 0);
    }
    if !unbounded {
        // Closed result domain ends at the sum of the last lattice points.
        let e = t + 1;
        if e <= horizon.ticks() {
            p.push(e, INFTY, 0);
        }
    }
    p.finish();
}

/// `true` iff every segment is flat — i.e. every convex run is a single
/// slope-0 segment (a staircase; jumps may go either way). Normalization
/// guarantees consecutive flat segments are discontinuous, so for such a
/// curve segments and convex runs coincide.
fn is_staircase(c: &Curve) -> bool {
    c.segments().iter().all(|s| s.slope == 0)
}

/// Leaf generator for the staircase fast path of the decomposition:
/// `f` a staircase, `g` nondecreasing. The flat run `[aᵢ, bᵢ)` of `f` at
/// height `vᵢ` convolves with *all* of `g` at once:
///
/// ```text
/// (fᵢ ⊗ g)(t) = vᵢ + min_{s ∈ [aᵢ, min(bᵢ−1, t)]} g(t − s)
///             = vᵢ + g(max(t − (bᵢ − 1), 0))        for t ≥ aᵢ
/// ```
///
/// because a nondecreasing `g` always prefers the latest start the run
/// allows. Each row is a shifted copy of `g`, so the `R_f · R_g` pair
/// explosion collapses to one leaf per run of `f` — the difference between
/// ~R² tiny partials and ~R rows on dense staircase workloads.
fn staircase_rows(
    f: &Curve,
    g: &Curve,
    horizon: Time,
    scratch: &mut Scratch,
    layer: &mut Vec<SoaCurve>,
) {
    let fsegs = f.segments();
    let gsegs = g.segments();
    let g0 = gsegs[0].value;
    for (i, s) in fsegs.iter().enumerate() {
        let a = s.start.ticks();
        if a > horizon.ticks() {
            break; // later runs start even further out
        }
        let v = s.value;
        let mut p = scratch.take_soa();
        p.begin(gsegs.len() + 2);
        if a > 0 {
            p.push(0, INFTY, 0);
        }
        match fsegs.get(i + 1) {
            // Final, unbounded run: the inner minimum always reaches g(0).
            None => p.push(a, v + g0, 0),
            Some(n) => {
                let shift = n.start.ticks() - 1;
                if a < shift {
                    // Flat at v + g(0) until the run's last lattice point …
                    p.push(a, v + g0, 0);
                    if gsegs[0].slope != 0 {
                        p.push(shift, v + g0, gsegs[0].slope);
                    }
                } else {
                    // … which for a one-point run is the start itself.
                    p.push(a, v + g0, gsegs[0].slope);
                }
                for gs in &gsegs[1..] {
                    let t = shift + gs.start.ticks();
                    if t > horizon.ticks() {
                        break; // beyond-horizon content is truncated anyway
                    }
                    p.push(t, v + gs.value, gs.slope);
                }
            }
        }
        p.finish();
        layer.push(p);
    }
}

/// Leaf generator for the general decomposition path: one [`INFTY`]-padded
/// partial per pair of convex runs whose domain starts within the horizon.
fn pair_partials(
    f: &Curve,
    g: &Curve,
    horizon: Time,
    scratch: &mut Scratch,
    layer: &mut Vec<SoaCurve>,
) {
    let fsegs = f.segments();
    let gsegs = g.segments();
    let mut rb_f = std::mem::take(&mut scratch.run_bounds_a);
    let mut rb_g = std::mem::take(&mut scratch.run_bounds_b);
    run_begins_into(fsegs, &mut rb_f);
    run_begins_into(gsegs, &mut rb_g);

    for i in 0..rb_f.len() {
        let f_run = &fsegs[rb_f[i] as usize..rb_f.get(i + 1).map_or(fsegs.len(), |&n| n as usize)];
        let f_end = rb_f.get(i + 1).map(|&n| fsegs[n as usize].start);
        if f_run[0].start > horizon {
            break; // later runs start even further out
        }
        for j in 0..rb_g.len() {
            let g_run =
                &gsegs[rb_g[j] as usize..rb_g.get(j + 1).map_or(gsegs.len(), |&n| n as usize)];
            let g_end = rb_g.get(j + 1).map(|&n| gsegs[n as usize].start);
            // The pair's domain starts at the sum of the run starts.
            if f_run[0].start + g_run[0].start > horizon {
                break;
            }
            let mut p = scratch.take_soa();
            pair_partial_into(
                f_run,
                f_end,
                g_run,
                g_end,
                horizon,
                &mut scratch.pieces,
                &mut p,
            );
            layer.push(p);
        }
    }
    scratch.run_bounds_a = rb_f;
    scratch.run_bounds_b = rb_g;
}

/// The convex-decomposition kernel behind [`convolve`], writing into a
/// caller-provided curve: it always takes the decomposition path,
/// regardless of the cost heuristic, so benchmarks and oracle tests can pin
/// it; analysis code should call [`convolve`]. Every leaf partial and both
/// tree-fold layers are drawn from `scratch`'s SoA pool, so a warm call
/// allocates nothing. Exact at every lattice tick in `[0, horizon]`
/// (checked against [`min_plus_convolve_lattice`]).
///
/// Leaves come from one of two generators: when either operand is a
/// staircase and the other nondecreasing, [`staircase_rows`] emits one
/// shifted copy of the other curve per flat run; otherwise
/// [`pair_partials`] emits the classical per-run-pair convex merges.
pub fn convolve_decomposed_into(
    f: &Curve,
    g: &Curve,
    horizon: Time,
    scratch: &mut Scratch,
    out: &mut Curve,
) {
    assert!(horizon >= Time::ZERO);
    if f.is_convex() && g.is_convex() {
        convolve_convex_into(f, g, scratch, out);
        return;
    }
    let mut layer = std::mem::take(&mut scratch.fold_layer);
    let mut spare = std::mem::take(&mut scratch.fold_spare);
    layer.clear();
    spare.clear();

    if is_staircase(f) && g.is_nondecreasing() {
        staircase_rows(f, g, horizon, scratch, &mut layer);
    } else if is_staircase(g) && f.is_nondecreasing() {
        // Min-plus convolution is commutative; swap roles.
        staircase_rows(g, f, horizon, scratch, &mut layer);
    } else {
        pair_partials(f, g, horizon, scratch, &mut layer);
    }
    // Tree-fold the pairwise results: a sequential fold would re-walk the
    // O(horizon)-sized accumulator once per pair (O(pairs · |acc|)); merging
    // neighbours pairwise keeps every operand near its final size and costs
    // O(total segments · log pairs). Truncating at every merge keeps all
    // breakpoints within the horizon, so sentinel-sized values only ever
    // appear on constant pieces (no overflow in later crossings).
    while layer.len() > 1 {
        spare.clear();
        let mut k = 0;
        while k < layer.len() {
            if k + 1 < layer.len() {
                let mut m = scratch.take_soa();
                crate::soa::pointwise_min_into(&layer[k], &layer[k + 1], &mut m);
                m.truncate_after(horizon);
                spare.push(m);
                k += 2;
            } else {
                // The odd leftover passes to the next layer unchanged
                // (and untruncated).
                let placeholder = scratch.take_soa();
                spare.push(std::mem::replace(&mut layer[k], placeholder));
                k += 1;
            }
        }
        for c in layer.drain(..) {
            scratch.put_soa(c);
        }
        std::mem::swap(&mut layer, &mut spare);
    }
    let mut result = layer.pop().expect("runs cover t = 0");
    result.truncate_after(horizon);
    result.write_to_curve(out);
    scratch.put_soa(result);
    scratch.fold_layer = layer;
    scratch.fold_spare = spare;
}

/// Exhaustive min-plus convolution on the lattice, `O(horizon²)`. Serves
/// two roles: the **test oracle** for [`convolve_decomposed_into`] and
/// [`convolve_convex`], and the dense kernel [`convolve`] falls back to
/// when the run-pair count rivals the horizon. The result is frozen at its
/// horizon value.
#[must_use]
pub fn min_plus_convolve_lattice(f: &Curve, g: &Curve, horizon: Time) -> Curve {
    let mut scratch = Scratch::new();
    let mut out = Curve::zero();
    min_plus_convolve_lattice_into(f, g, horizon, &mut scratch, &mut out);
    out
}

/// The dense kernel behind [`min_plus_convolve_lattice`]: samples both
/// operands into `scratch` and pushes the resulting staircase straight
/// into `out`.
fn min_plus_convolve_lattice_into(
    f: &Curve,
    g: &Curve,
    horizon: Time,
    scratch: &mut Scratch,
    out: &mut Curve,
) {
    let h = horizon.ticks();
    assert!(h >= 0);
    let fv = &mut scratch.values_a;
    let gv = &mut scratch.values_b;
    fv.clear();
    fv.extend((0..=h).map(|t| f.eval(Time(t))));
    gv.clear();
    gv.extend((0..=h).map(|t| g.eval(Time(t))));
    let segs = out.begin_write(h as usize + 1);
    for t in 0..=h {
        let mut best = i64::MAX;
        for s in 0..=t {
            best = best.min(fv[s as usize] + gv[(t - s) as usize]);
        }
        push_normalized(segs, Segment::new(Time(t), best, 0));
    }
    out.finish_write();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::RateLatency;

    fn assert_agree(f: &Curve, g: &Curve, horizon: i64) {
        let fast = convolve_convex(f, g);
        let slow = min_plus_convolve_lattice(f, g, Time(horizon));
        for t in 0..=horizon {
            assert_eq!(fast.eval(Time(t)), slow.eval(Time(t)), "t={t} f={f} g={g}");
        }
    }

    #[test]
    fn convexity_detection() {
        assert!(Curve::identity().is_convex());
        assert!(RateLatency {
            latency: Time(3),
            rate: 2
        }
        .curve()
        .is_convex());
        assert!(!Curve::from_event_times(&[Time(1)]).is_convex()); // jump
        let concave = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 2),
            Segment::new(Time(4), 8, 1),
        ]);
        assert!(!concave.is_convex());
    }

    #[test]
    fn rate_latency_convolution_is_closed_form() {
        let a = RateLatency {
            latency: Time(2),
            rate: 3,
        };
        let b = RateLatency {
            latency: Time(5),
            rate: 1,
        };
        let conv = convolve_convex(&a.curve(), &b.curve());
        assert_eq!(conv, a.then(&b).curve());
        assert_agree(&a.curve(), &b.curve(), 25);
    }

    #[test]
    fn convolution_with_zero_is_floor() {
        // f ⊗ 0 = min over splits: with g ≡ 0 the result is the running min
        // of f; for nondecreasing convex f that is f(0).
        let f = Curve::affine(4, 2);
        let conv = convolve_convex(&f, &Curve::zero());
        assert_eq!(conv, Curve::constant(4));
    }

    #[test]
    fn general_convex_pair() {
        let f = Curve::from_segments(vec![
            Segment::new(Time(0), 1, 0),
            Segment::new(Time(3), 1, 1),
            Segment::new(Time(7), 5, 4),
        ]);
        let g = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 2),
            Segment::new(Time(5), 10, 3),
        ]);
        assert!(f.is_convex() && g.is_convex());
        assert_agree(&f, &g, 30);
    }

    fn assert_convolve_matches_oracle(f: &Curve, g: &Curve, horizon: i64) {
        let fast = convolve(f, g, Time(horizon));
        let slow = min_plus_convolve_lattice(f, g, Time(horizon));
        for t in 0..=horizon {
            assert_eq!(fast.eval(Time(t)), slow.eval(Time(t)), "t={t} f={f} g={g}");
        }
    }

    #[test]
    fn general_convolve_on_staircases() {
        // Staircase ⊗ rate — non-convex left operand.
        let f = Curve::from_event_times(&[Time(0), Time(4), Time(8)]).scale(3);
        assert_convolve_matches_oracle(&f, &Curve::identity(), 20);
        // Staircase ⊗ staircase.
        let g = Curve::from_event_times(&[Time(1), Time(5)]).scale(2);
        assert_convolve_matches_oracle(&f, &g, 20);
        // Against a rate-latency service curve.
        let rl = RateLatency {
            latency: Time(3),
            rate: 2,
        }
        .curve();
        assert_convolve_matches_oracle(&f, &rl, 25);
    }

    #[test]
    fn general_convolve_on_concave_and_mixed() {
        // Concave: slopes decrease (two runs).
        let concave = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 3),
            Segment::new(Time(4), 12, 1),
        ]);
        assert_convolve_matches_oracle(&concave, &Curve::identity(), 20);
        assert_convolve_matches_oracle(&concave, &concave, 20);
        // Plateau-then-burst against concave.
        let bursty = Curve::from_segments(vec![
            Segment::new(Time(0), 2, 0),
            Segment::new(Time(6), 9, 2),
        ]);
        assert_convolve_matches_oracle(&bursty, &concave, 24);
    }

    #[test]
    fn general_convolve_convex_fast_path() {
        // Convex inputs must round-trip through convolve_convex unchanged.
        let a = RateLatency {
            latency: Time(2),
            rate: 3,
        }
        .curve();
        let b = RateLatency {
            latency: Time(5),
            rate: 1,
        }
        .curve();
        assert_eq!(convolve(&a, &b, Time(40)), convolve_convex(&a, &b));
    }

    #[test]
    fn general_convolve_with_zero_horizon() {
        // Only the s = 0 split exists: (f ⊗ id)(0) = f(0) + id(0).
        let f = Curve::from_event_times(&[Time(0), Time(2)]).scale(4);
        let c = convolve(&f, &Curve::identity(), Time::ZERO);
        assert_eq!(c.eval(Time::ZERO), f.eval(Time::ZERO));
    }

    #[test]
    fn convex_run_decomposition_counts() {
        let runs = |c: &Curve| {
            let mut begins = Vec::new();
            run_begins_into(c.segments(), &mut begins);
            begins.len()
        };
        assert_eq!(runs(&Curve::identity()), 1);
        let stair = Curve::from_event_times(&[Time(1), Time(5), Time(9)]);
        // Each jump opens a new run: initial plateau + 3 steps.
        assert_eq!(runs(&stair), 4);
        let concave = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 3),
            Segment::new(Time(4), 12, 1),
        ]);
        assert_eq!(runs(&concave), 2);
    }

    #[test]
    fn hybrid_agrees_with_both_kernels_in_both_regimes() {
        // Dense regime: 64 events at gap 10 against 64 at gap 12 — the
        // BENCH_curves regression shape. The staircase row path collapsed
        // the pair explosion, so the decomposition wins here now; the
        // lattice only takes over near every-tick density (see
        // `dispatch_picks_expected_kernel_per_size_class`).
        let dense_f =
            Curve::from_event_times(&(0..64).map(|i| Time(i * 10)).collect::<Vec<_>>()).scale(3);
        let dense_g =
            Curve::from_event_times(&(0..64).map(|i| Time(i * 12)).collect::<Vec<_>>()).scale(2);
        let h_dense = Time(64 * 12 + 120);
        assert!(!dense_scan_is_cheaper(&dense_f, &dense_g, h_dense));
        // Sparse regime: few events across a huge horizon — decomposition
        // territory (the lattice scan would be ~1000× slower here).
        let sparse_f = Curve::from_event_times(&(0..8).map(|i| Time(i * 625)).collect::<Vec<_>>());
        let h_sparse = Time(25_000);
        assert!(!dense_scan_is_cheaper(&sparse_f, &sparse_f, h_sparse));
        // Whichever kernel the heuristic picks, values are identical at
        // every tick (spot-check the dense pair on a clipped horizon to
        // keep the oracle affordable).
        let h = Time(200);
        let hybrid = convolve(&dense_f, &dense_g, h);
        let mut dec = Curve::zero();
        convolve_decomposed_into(&dense_f, &dense_g, h, &mut Scratch::new(), &mut dec);
        let lat = min_plus_convolve_lattice(&dense_f, &dense_g, h);
        for t in 0..=h.ticks() {
            assert_eq!(hybrid.eval(Time(t)), dec.eval(Time(t)), "t={t}");
            assert_eq!(hybrid.eval(Time(t)), lat.eval(Time(t)), "t={t}");
        }
    }

    #[test]
    fn decomposed_path_matches_lattice_oracle() {
        // Value-identical to the lattice scan at every tick, across both
        // leaf generators, repeated calls on one scratch, and a dirty
        // output buffer.
        let dense_f =
            Curve::from_event_times(&(0..32).map(|i| Time(i * 10)).collect::<Vec<_>>()).scale(3);
        let dense_g =
            Curve::from_event_times(&(0..32).map(|i| Time(i * 12)).collect::<Vec<_>>()).scale(2);
        let sparse = Curve::from_event_times(&(0..8).map(|i| Time(i * 625)).collect::<Vec<_>>());
        let concave = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 3),
            Segment::new(Time(4), 12, 1),
        ]);
        let mut scratch = Scratch::new();
        let mut out = Curve::affine(-7, 13); // pre-dirtied
        for (f, g, h) in [
            (&dense_f, &dense_g, Time(500)),
            (&sparse, &sparse, Time(25_000)),
            (&dense_f, &concave, Time(400)),
        ] {
            convolve_decomposed_into(f, g, h, &mut scratch, &mut out);
            let lattice = min_plus_convolve_lattice(f, g, h);
            for t in 0..=h.ticks() {
                assert_eq!(out.eval(Time(t)), lattice.eval(Time(t)), "t={t} h={h}");
            }
        }
    }

    #[test]
    fn decomposed_pair_path_matches_lattice_oracle() {
        // Neither operand is a staircase, so the pair-partial generator
        // runs.
        let saw_f = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 2),
            Segment::new(Time(6), 12, 1), // slope decrease: run break
        ]);
        let saw_g = Curve::from_segments(vec![
            Segment::new(Time(0), 1, 3),
            Segment::new(Time(5), 16, 1), // slope decrease: run break
            Segment::new(Time(9), 20, 2),
        ]);
        assert!(!is_staircase(&saw_f) && !is_staircase(&saw_g));
        let mut scratch = Scratch::new();
        let mut out = Curve::affine(-7, 13); // pre-dirtied
        let h = Time(60);
        convolve_decomposed_into(&saw_f, &saw_g, h, &mut scratch, &mut out);
        let lattice = min_plus_convolve_lattice(&saw_f, &saw_g, h);
        for t in 0..=h.ticks() {
            assert_eq!(out.eval(Time(t)), lattice.eval(Time(t)), "t={t}");
        }
    }

    #[test]
    fn staircase_row_path_matches_lattice_oracle() {
        // The row identity (fᵢ ⊗ g)(t) = vᵢ + g(max(t − (bᵢ − 1), 0))
        // needs g nondecreasing but allows f to jump *down*; check both
        // argument orders so each dispatch branch runs.
        let down_stair = Curve::from_segments(vec![
            Segment::new(Time(0), 5, 0),
            Segment::new(Time(3), 2, 0),
            Segment::new(Time(7), 9, 0),
        ]);
        let ramp = Curve::identity();
        let h = Time(30);
        let mut dec = Curve::zero();
        for (f, g) in [(&down_stair, &ramp), (&ramp, &down_stair)] {
            convolve_decomposed_into(f, g, h, &mut Scratch::new(), &mut dec);
            let lat = min_plus_convolve_lattice(f, g, h);
            for t in 0..=h.ticks() {
                assert_eq!(dec.eval(Time(t)), lat.eval(Time(t)), "t={t}");
            }
        }
    }

    #[test]
    fn dispatch_picks_expected_kernel_per_size_class() {
        // Pins the hybrid's choice on each benchmarked size class, so a
        // heuristic retune that flips a class shows up as a test diff, not
        // as a silent perf cliff. Measured on the BENCH_curves shapes:
        // the decomposition (row path) wins every staircase shape up to
        // roughly every-2-tick density, where the lattice takes over.
        let shape = |n: i64, gap_f: i64, gap_g: i64, h: i64| {
            (
                Curve::from_event_times(&(0..n).map(|i| Time(i * gap_f)).collect::<Vec<_>>())
                    .scale(3),
                Curve::from_event_times(&(0..n).map(|i| Time(i * gap_g)).collect::<Vec<_>>())
                    .scale(2),
                Time(h),
            )
        };
        // Bench size classes 16 / 64 / sparse: decomposition.
        for (n, gf, gg, h) in [
            (16, 10, 12, 16 * 12 + 120),
            (64, 10, 12, 64 * 12 + 120),
            (8, 625, 625, 25_000),
        ] {
            let (f, g, h) = shape(n, gf, gg, h);
            assert!(!dense_scan_is_cheaper(&f, &g, h), "n={n} gap={gf}/{gg}");
        }
        // Adversarial near-every-tick staircases: lattice (the row fold
        // would walk R · |g| ≈ h² segments with a worse constant).
        for gap in [1, 2] {
            let (f, g, h) = shape(888 / gap + 1, gap, gap, 888);
            assert!(dense_scan_is_cheaper(&f, &g, h), "gap={gap}");
        }
    }

    #[test]
    fn run_start_counting_clips_at_horizon() {
        let stair = Curve::from_event_times(&[Time(1), Time(5), Time(9)]);
        // All four runs (plateau + 3 jumps) start within a large horizon...
        assert_eq!(run_starts_within(&stair, Time(100)).len(), 4);
        // ...but only the plateau and the first jump within a small one.
        assert_eq!(run_starts_within(&stair, Time(4)).len(), 2);
    }

    #[test]
    fn lattice_oracle_handles_nonconvex() {
        // Staircase ⊗ rate: classic smoothing.
        let f = Curve::from_event_times(&[Time(0), Time(4), Time(8)]).scale(3);
        let g = Curve::identity();
        let conv = min_plus_convolve_lattice(&f, &g, Time(15));
        for t in 0..=15 {
            let mut best = i64::MAX;
            for s in 0..=t {
                best = best.min(f.eval(Time(s)) + (t - s));
            }
            assert_eq!(conv.eval(Time(t)), best, "t={t}");
        }
    }
}
