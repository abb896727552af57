//! Min-plus convolution.
//!
//! The paper's Theorem 3 is a disguised min-plus operation: the exact SPP
//! service function is `S = A − ((A − c) ⊘ 0)` in deconvolution form, or —
//! as implemented in `rta-core` — an availability curve plus a running
//! minimum. This module provides the segment-native operator for arbitrary
//! curves ([`convolve_into`]) via convex decomposition, the O(n + m)
//! slope-merge for the convex case ([`convolve_convex_into`]), and an
//! exhaustive lattice evaluator ([`min_plus_convolve_lattice`]), the test
//! oracle of the other two and the dense fallback below. Every kernel
//! reads and writes structure-of-arrays curves ([`SoaCurve`]) and draws its
//! temporaries from a [`Scratch`].
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
//! cheaper than the O(R_f · R_g · segments) pair merge. [`convolve_into`]
//! is a hybrid: it estimates both costs and dispatches to the cheaper kernel;
//! both produce identical values at every tick of the horizon.
//! [`convolve_decomposed_into`] pins the decomposition path for benchmarks
//! and oracle tests, which check it against the lattice scan.

use crate::soa::{pointwise_min_into, SoaCurve, SoaView};
use crate::{Scratch, Time};

/// Sentinel standing in for `+∞` while folding partial curves into a total
/// minimum. Any real curve value within the analysis horizon is far below
/// this, so the sentinel loses every pointwise min on `[0, horizon]`.
const INFTY: i64 = i64::MAX / 8;

/// Min-plus convolution `(f ⊗ g)(t) = min_{0 ≤ s ≤ t} ( f(s) + g(t − s) )`
/// for **convex** nondecreasing curves, written into `out`.
///
/// For convex curves the infimal convolution is obtained by laying the
/// linear pieces of both curves end to end in order of increasing slope,
/// starting from `f(0) + g(0)` — an O(n + m) merge. The `(length, slope)`
/// piece staging lives in `scratch`, so a warm call allocates nothing.
/// Panics (debug) if either curve is not convex; use [`convolve_into`] for
/// arbitrary curves.
pub fn convolve_convex_into(f: &SoaCurve, g: &SoaCurve, scratch: &mut Scratch, out: &mut SoaCurve) {
    debug_assert!(f.is_convex(), "convolve_convex requires convex f");
    debug_assert!(g.is_convex(), "convolve_convex requires convex g");

    // Collect finite pieces (length, slope); final pieces are infinite.
    let pieces = &mut scratch.pieces;
    pieces.clear();
    for c in [f, g] {
        for i in 0..c.len() {
            pieces.push((
                c.starts.get(i + 1).map(|&n| Time(n - c.starts[i])),
                c.slopes[i],
            ));
        }
    }
    // Stable sort: f's pieces stay staged before g's among equal slopes.
    pieces.sort_by_key(|&(_, slope)| slope);

    out.begin(pieces.len());
    let mut t = 0i64;
    let mut v = f.values[0] + g.values[0];
    for &(len, slope) in pieces.iter() {
        out.push(t, v, slope);
        match len {
            Some(len) => {
                t += len.ticks();
                v += slope * len.ticks();
            }
            None => break, // first infinite piece has the smallest remaining slope
        }
    }
    out.finish();
}

/// Min-plus convolution
/// `(f ⊗ g)(t) = min_{0 ≤ s ≤ t} ( f(s) + g(t − s) )` for **arbitrary**
/// piecewise-linear curves, written into `out`, exact at every integer tick
/// in `[0, horizon]` (frozen beyond, like the lattice oracle).
///
/// Convex inputs take the O(n + m) slope-merge fast path. General inputs
/// are dispatched by a cost heuristic (see the module docs): sparse curves
/// go through the convex decomposition ([`convolve_decomposed_into`],
/// O(R_f · R_g · (n + m)) for R convex runs, independent of the horizon),
/// while run counts approaching the horizon fall back to the dense
/// O(horizon²) lattice scan, which beats the decomposition in that regime.
/// All three kernels run entirely out of `scratch`, so a warm call performs
/// no heap traffic.
pub fn convolve_into(
    f: &SoaCurve,
    g: &SoaCurve,
    horizon: Time,
    scratch: &mut Scratch,
    out: &mut SoaCurve,
) {
    assert!(horizon >= Time::ZERO);
    if f.is_convex() && g.is_convex() {
        convolve_convex_into(f, g, scratch, out);
    } else if dense_scan_is_cheaper(f, g, horizon) {
        lattice_into(f, g, horizon, scratch, out);
    } else {
        convolve_decomposed_into(f, g, horizon, scratch, out);
    }
}

/// `true` iff a convex run of `c` begins at piece `i ≥ 1`: the curve jumps
/// there or its slope decreases.
fn run_breaks_at(c: SoaView<'_>, i: usize) -> bool {
    let discontinuous = c.piece_eval(i - 1, c.starts[i]) != c.values[i];
    discontinuous || c.slopes[i] < c.slopes[i - 1]
}

/// Exclusive-prefix run starts of a curve's convex decomposition, clipped
/// to the horizon (runs starting beyond it contribute nothing).
fn run_starts_within(c: SoaView<'_>, horizon: Time) -> Vec<i64> {
    let mut starts = vec![0];
    for i in 1..c.len() {
        if run_breaks_at(c, i) {
            if c.starts[i] > horizon.ticks() {
                break;
            }
            starts.push(c.starts[i]);
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
fn dense_scan_is_cheaper(f: &SoaCurve, g: &SoaCurve, horizon: Time) -> bool {
    const ROW_VS_CELL: u128 = 16;
    const PAIR_VS_CELL: u128 = 3;
    let h = horizon.ticks() as u128;
    let segs_within = |c: &SoaCurve| c.starts.partition_point(|&s| s <= horizon.ticks()) as u128;
    for (stair, other) in [(f, g), (g, f)] {
        if is_staircase(stair) && other.is_nondecreasing() {
            let rows = segs_within(stair);
            return h * h < ROW_VS_CELL * rows * (segs_within(other) + 2);
        }
    }
    let starts_f = run_starts_within(f.view(), horizon);
    let starts_g = run_starts_within(g.view(), horizon);
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
    let segs = (f.len() + g.len()) as u128;
    h * h < PAIR_VS_CELL * pairs * segs
}

/// Begin indices of a curve's maximal convex runs (break wherever the
/// curve jumps or its slope decreases), staged in a reusable buffer. Run
/// `k` spans pieces `out[k]..out[k+1]` (the last run extends to the end of
/// the curve); the runs' domains partition `[0, ∞)`.
fn run_begins_into(c: SoaView<'_>, out: &mut Vec<u32>) {
    out.clear();
    out.push(0);
    for i in 1..c.len() {
        if run_breaks_at(c, i) {
            out.push(i as u32);
        }
    }
}

/// Min-plus convolution of two convex runs by the slope merge, written as
/// an [`INFTY`]-padded total curve with no per-pair allocation. Domain
/// starts add, piece lengths add, and pieces are laid out in slope order
/// from `f(a_f) + g(a_g)`; outside the pair's domain the sentinel stands in
/// for `+∞`. A run's domain ends at `end` (exclusive), or never.
fn pair_partial_into(
    (f, f_end): (SoaView<'_>, Option<i64>),
    (g, g_end): (SoaView<'_>, Option<i64>),
    horizon: Time,
    pieces: &mut Vec<(Option<Time>, i64)>,
    p: &mut SoaCurve,
) {
    pieces.clear();
    let mut unbounded = false;
    for (run, end) in [(f, f_end), (g, g_end)] {
        for i in 0..run.len() {
            match run.starts.get(i + 1) {
                Some(&n) => pieces.push((Some(Time(n - run.starts[i])), run.slopes[i])),
                None => match end {
                    // Last lattice point of the domain is `end − 1`.
                    Some(e) => pieces.push((Some(Time(e - 1 - run.starts[i])), run.slopes[i])),
                    None => {
                        pieces.push((None, run.slopes[i]));
                        unbounded = true;
                    }
                },
            }
        }
    }
    pieces.sort_by_key(|&(_, slope)| slope);

    let mut t = f.starts[0] + g.starts[0];
    let mut v = f.values[0] + g.values[0];
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

/// `true` iff every piece is flat — i.e. every convex run is a single
/// slope-0 piece (a staircase; jumps may go either way). Normalization
/// guarantees consecutive flat pieces are discontinuous, so for such a
/// curve pieces and convex runs coincide.
fn is_staircase(c: &SoaCurve) -> bool {
    c.slopes.iter().all(|&m| m == 0)
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
    f: &SoaCurve,
    g: &SoaCurve,
    horizon: Time,
    scratch: &mut Scratch,
    layer: &mut Vec<SoaCurve>,
) {
    let (g0, gm0) = (g.values[0], g.slopes[0]);
    for i in 0..f.len() {
        let a = f.starts[i];
        if a > horizon.ticks() {
            break; // later runs start even further out
        }
        let v = f.values[i];
        let mut p = scratch.take_soa();
        p.begin(g.len() + 2);
        if a > 0 {
            p.push(0, INFTY, 0);
        }
        match f.starts.get(i + 1) {
            // Final, unbounded run: the inner minimum always reaches g(0).
            None => p.push(a, v + g0, 0),
            Some(&n) => {
                let shift = n - 1;
                if a < shift {
                    // Flat at v + g(0) until the run's last lattice point …
                    p.push(a, v + g0, 0);
                    if gm0 != 0 {
                        p.push(shift, v + g0, gm0);
                    }
                } else {
                    // … which for a one-point run is the start itself.
                    p.push(a, v + g0, gm0);
                }
                for j in 1..g.len() {
                    let t = shift + g.starts[j];
                    if t > horizon.ticks() {
                        break; // beyond-horizon content is truncated anyway
                    }
                    p.push(t, v + g.values[j], g.slopes[j]);
                }
            }
        }
        p.finish();
        layer.push(p);
    }
}

/// Run `k` of a curve with run begin indices `rb`: its pieces, and where its
/// domain ends (the next run's start), if it does.
fn run<'a>(c: SoaView<'a>, rb: &[u32], k: usize) -> (SoaView<'a>, Option<i64>) {
    let end = rb.get(k + 1).map(|&n| n as usize);
    (
        c.range(rb[k] as usize, end.unwrap_or(c.len())),
        end.map(|n| c.starts[n]),
    )
}

/// Leaf generator for the general decomposition path: one [`INFTY`]-padded
/// partial per pair of convex runs whose domain starts within the horizon.
fn pair_partials(
    f: &SoaCurve,
    g: &SoaCurve,
    horizon: Time,
    scratch: &mut Scratch,
    layer: &mut Vec<SoaCurve>,
) {
    let (fv, gv) = (f.view(), g.view());
    let mut rb_f = std::mem::take(&mut scratch.run_bounds_a);
    let mut rb_g = std::mem::take(&mut scratch.run_bounds_b);
    run_begins_into(fv, &mut rb_f);
    run_begins_into(gv, &mut rb_g);
    for i in 0..rb_f.len() {
        let f_run = run(fv, &rb_f, i);
        if f_run.0.starts[0] > horizon.ticks() {
            break; // later runs start even further out
        }
        for j in 0..rb_g.len() {
            let g_run = run(gv, &rb_g, j);
            // The pair's domain starts at the sum of the run starts.
            if f_run.0.starts[0] + g_run.0.starts[0] > horizon.ticks() {
                break;
            }
            let mut p = scratch.take_soa();
            pair_partial_into(f_run, g_run, horizon, &mut scratch.pieces, &mut p);
            layer.push(p);
        }
    }
    scratch.run_bounds_a = rb_f;
    scratch.run_bounds_b = rb_g;
}

/// The convex-decomposition kernel behind [`convolve_into`]: it always
/// takes the decomposition path, regardless of the cost heuristic, so
/// benchmarks and oracle tests can pin it; analysis code should call
/// [`convolve_into`]. Every leaf partial and both tree-fold layers are
/// drawn from `scratch`'s SoA pool, so a warm call allocates nothing.
/// Exact at every lattice tick in `[0, horizon]` (checked against
/// [`min_plus_convolve_lattice`]).
///
/// Leaves come from one of two generators: when either operand is a
/// staircase and the other nondecreasing, [`staircase_rows`] emits one
/// shifted copy of the other curve per flat run; otherwise
/// [`pair_partials`] emits the classical per-run-pair convex merges.
pub fn convolve_decomposed_into(
    f: &SoaCurve,
    g: &SoaCurve,
    horizon: Time,
    scratch: &mut Scratch,
    out: &mut SoaCurve,
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
                pointwise_min_into(&layer[k], &layer[k + 1], &mut m);
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
    std::mem::swap(out, &mut result);
    scratch.put_soa(result);
    scratch.fold_layer = layer;
    scratch.fold_spare = spare;
}

/// Exhaustive min-plus convolution on the lattice, `O(horizon²)`. Serves
/// two roles: the **test oracle** for [`convolve_decomposed_into`] and
/// [`convolve_convex_into`], and the dense kernel [`convolve_into`] falls
/// back to when the run-pair count rivals the horizon. The result is frozen
/// at its horizon value.
#[must_use]
pub fn min_plus_convolve_lattice(f: &SoaCurve, g: &SoaCurve, horizon: Time) -> SoaCurve {
    let mut out = SoaCurve::zero();
    lattice_into(f, g, horizon, &mut Scratch::new(), &mut out);
    out
}

/// The dense kernel behind [`min_plus_convolve_lattice`]: samples both
/// operands into `scratch` and pushes the resulting staircase straight
/// into `out`.
fn lattice_into(
    f: &SoaCurve,
    g: &SoaCurve,
    horizon: Time,
    scratch: &mut Scratch,
    out: &mut SoaCurve,
) {
    let h = horizon.ticks();
    assert!(h >= 0);
    let fv = &mut scratch.values_a;
    let gv = &mut scratch.values_b;
    fv.clear();
    fv.extend((0..=h).map(|t| f.eval(Time(t))));
    gv.clear();
    gv.extend((0..=h).map(|t| g.eval(Time(t))));
    out.begin(h as usize + 1);
    for t in 0..=h {
        let mut best = i64::MAX;
        for s in 0..=t {
            best = best.min(fv[s as usize] + gv[(t - s) as usize]);
        }
        out.push(t, best, 0);
    }
    out.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::RateLatency;
    use crate::{Curve, Segment};

    fn soa(c: &Curve) -> SoaCurve {
        SoaCurve::from_curve(c)
    }

    fn convex(f: &Curve, g: &Curve) -> SoaCurve {
        let mut out = SoaCurve::zero();
        convolve_convex_into(&soa(f), &soa(g), &mut Scratch::new(), &mut out);
        out
    }

    fn convolve(f: &Curve, g: &Curve, horizon: Time) -> SoaCurve {
        let mut out = SoaCurve::zero();
        convolve_into(&soa(f), &soa(g), horizon, &mut Scratch::new(), &mut out);
        out
    }

    fn lattice(f: &Curve, g: &Curve, horizon: Time) -> SoaCurve {
        min_plus_convolve_lattice(&soa(f), &soa(g), horizon)
    }

    fn assert_ticks_equal(a: &SoaCurve, b: &SoaCurve, horizon: i64) {
        for t in 0..=horizon {
            assert_eq!(a.eval(Time(t)), b.eval(Time(t)), "t={t}");
        }
    }

    fn staircase(n: i64, gap: i64, k: i64) -> Curve {
        Curve::from_event_times(&(0..n).map(|i| Time(i * gap)).collect::<Vec<_>>()).scale(k)
    }

    #[test]
    fn convexity_detection() {
        assert!(soa(&Curve::identity()).is_convex());
        let rl = RateLatency {
            latency: Time(3),
            rate: 2,
        };
        assert!(soa(&rl.curve()).is_convex());
        assert!(!soa(&Curve::from_event_times(&[Time(1)])).is_convex()); // jump
        let concave = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 2),
            Segment::new(Time(4), 8, 1),
        ]);
        assert!(!soa(&concave).is_convex());
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
        let conv = convex(&a.curve(), &b.curve());
        assert_eq!(conv.to_curve(), a.then(&b).curve());
        assert_ticks_equal(&conv, &lattice(&a.curve(), &b.curve(), Time(25)), 25);
    }

    #[test]
    fn convolution_with_zero_is_floor() {
        // f ⊗ 0 = min over splits: with g ≡ 0 the result is the running min
        // of f; for nondecreasing convex f that is f(0).
        let f = Curve::affine(4, 2);
        assert_eq!(convex(&f, &Curve::zero()).to_curve(), Curve::constant(4));
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
        assert_ticks_equal(&convex(&f, &g), &lattice(&f, &g, Time(30)), 30);
    }

    fn assert_convolve_matches_oracle(f: &Curve, g: &Curve, horizon: i64) {
        let h = Time(horizon);
        assert_ticks_equal(&convolve(f, g, h), &lattice(f, g, h), horizon);
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
        // Convex inputs must take the slope merge unchanged.
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
        assert_eq!(convolve(&a, &b, Time(40)), convex(&a, &b));
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
            run_begins_into(soa(c).view(), &mut begins);
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
        let dense_f = soa(&staircase(64, 10, 3));
        let dense_g = soa(&staircase(64, 12, 2));
        let h_dense = Time(64 * 12 + 120);
        assert!(!dense_scan_is_cheaper(&dense_f, &dense_g, h_dense));
        // Sparse regime: few events across a huge horizon — decomposition
        // territory (the lattice scan would be ~1000× slower here).
        let sparse_f = soa(&staircase(8, 625, 1));
        let h_sparse = Time(25_000);
        assert!(!dense_scan_is_cheaper(&sparse_f, &sparse_f, h_sparse));
        // Whichever kernel the heuristic picks, values are identical at
        // every tick (spot-check the dense pair on a clipped horizon to
        // keep the oracle affordable).
        let h = Time(200);
        let mut scratch = Scratch::new();
        let mut hybrid = SoaCurve::zero();
        convolve_into(&dense_f, &dense_g, h, &mut scratch, &mut hybrid);
        let mut dec = SoaCurve::zero();
        convolve_decomposed_into(&dense_f, &dense_g, h, &mut scratch, &mut dec);
        let lat = min_plus_convolve_lattice(&dense_f, &dense_g, h);
        assert_ticks_equal(&hybrid, &dec, h.ticks());
        assert_ticks_equal(&hybrid, &lat, h.ticks());
    }

    #[test]
    fn decomposed_path_matches_lattice_oracle() {
        // Value-identical to the lattice scan at every tick, across both
        // leaf generators, repeated calls on one scratch, and a dirty
        // output buffer.
        let dense_f = soa(&staircase(32, 10, 3));
        let dense_g = soa(&staircase(32, 12, 2));
        let sparse = soa(&staircase(8, 625, 1));
        let concave = soa(&Curve::from_segments(vec![
            Segment::new(Time(0), 0, 3),
            Segment::new(Time(4), 12, 1),
        ]));
        let mut scratch = Scratch::new();
        let mut out = soa(&Curve::affine(-7, 13)); // pre-dirtied
        for (f, g, h) in [
            (&dense_f, &dense_g, Time(500)),
            (&sparse, &sparse, Time(25_000)),
            (&dense_f, &concave, Time(400)),
        ] {
            convolve_decomposed_into(f, g, h, &mut scratch, &mut out);
            assert_ticks_equal(&out, &min_plus_convolve_lattice(f, g, h), h.ticks());
        }
    }

    #[test]
    fn decomposed_pair_path_matches_lattice_oracle() {
        // Neither operand is a staircase, so the pair-partial generator
        // runs.
        let saw_f = soa(&Curve::from_segments(vec![
            Segment::new(Time(0), 0, 2),
            Segment::new(Time(6), 12, 1), // slope decrease: run break
        ]));
        let saw_g = soa(&Curve::from_segments(vec![
            Segment::new(Time(0), 1, 3),
            Segment::new(Time(5), 16, 1), // slope decrease: run break
            Segment::new(Time(9), 20, 2),
        ]));
        assert!(!is_staircase(&saw_f) && !is_staircase(&saw_g));
        let mut out = soa(&Curve::affine(-7, 13)); // pre-dirtied
        let h = Time(60);
        convolve_decomposed_into(&saw_f, &saw_g, h, &mut Scratch::new(), &mut out);
        assert_ticks_equal(&out, &min_plus_convolve_lattice(&saw_f, &saw_g, h), 60);
    }

    #[test]
    fn staircase_row_path_matches_lattice_oracle() {
        // The row identity (fᵢ ⊗ g)(t) = vᵢ + g(max(t − (bᵢ − 1), 0))
        // needs g nondecreasing but allows f to jump *down*; check both
        // argument orders so each dispatch branch runs.
        let down_stair = soa(&Curve::from_segments(vec![
            Segment::new(Time(0), 5, 0),
            Segment::new(Time(3), 2, 0),
            Segment::new(Time(7), 9, 0),
        ]));
        let ramp = soa(&Curve::identity());
        let h = Time(30);
        let mut dec = SoaCurve::zero();
        for (f, g) in [(&down_stair, &ramp), (&ramp, &down_stair)] {
            convolve_decomposed_into(f, g, h, &mut Scratch::new(), &mut dec);
            assert_ticks_equal(&dec, &min_plus_convolve_lattice(f, g, h), 30);
        }
    }

    #[test]
    fn dispatch_picks_expected_kernel_per_size_class() {
        // Pins the hybrid's choice on each benchmarked size class, so a
        // heuristic retune that flips a class shows up as a test diff, not
        // as a silent perf cliff. Measured on the BENCH_curves shapes:
        // the decomposition (row path) wins every staircase shape up to
        // roughly every-2-tick density, where the lattice takes over.
        let shape = |n: i64, gap_f: i64, gap_g: i64| {
            (soa(&staircase(n, gap_f, 3)), soa(&staircase(n, gap_g, 2)))
        };
        // Bench size classes 16 / 64 / sparse: decomposition.
        for (n, gf, gg, h) in [
            (16, 10, 12, 16 * 12 + 120),
            (64, 10, 12, 64 * 12 + 120),
            (8, 625, 625, 25_000),
        ] {
            let (f, g) = shape(n, gf, gg);
            assert!(
                !dense_scan_is_cheaper(&f, &g, Time(h)),
                "n={n} gap={gf}/{gg}"
            );
        }
        // Adversarial near-every-tick staircases: lattice (the row fold
        // would walk R · |g| ≈ h² segments with a worse constant).
        for gap in [1, 2] {
            let (f, g) = shape(888 / gap + 1, gap, gap);
            assert!(dense_scan_is_cheaper(&f, &g, Time(888)), "gap={gap}");
        }
    }

    #[test]
    fn run_start_counting_clips_at_horizon() {
        let stair = soa(&Curve::from_event_times(&[Time(1), Time(5), Time(9)]));
        // All four runs (plateau + 3 jumps) start within a large horizon...
        assert_eq!(run_starts_within(stair.view(), Time(100)).len(), 4);
        // ...but only the plateau and the first jump within a small one.
        assert_eq!(run_starts_within(stair.view(), Time(4)).len(), 2);
    }

    #[test]
    fn lattice_oracle_handles_nonconvex() {
        // Staircase ⊗ rate: classic smoothing.
        let f = Curve::from_event_times(&[Time(0), Time(4), Time(8)]).scale(3);
        let conv = lattice(&f, &Curve::identity(), Time(15));
        for t in 0..=15 {
            let mut best = i64::MAX;
            for s in 0..=t {
                best = best.min(f.eval(Time(s)) + (t - s));
            }
            assert_eq!(conv.eval(Time(t)), best, "t={t}");
        }
    }
}
