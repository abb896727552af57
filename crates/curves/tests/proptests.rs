//! Property-based tests for the curve kernels.
//!
//! Every kernel is checked against a brute-force lattice evaluation of its
//! definition on a bounded horizon: the segment-walking algorithms must
//! agree with the definitionally obvious per-tick computation at every
//! integer tick. Outputs are pre-dirtied and reused across kernels, and
//! one [`Scratch`] serves many calls, which is how the analysis workspaces
//! drive them: a kernel must fully overwrite whatever its output held, and
//! a fallible kernel must leave its output untouched when it fails.

use proptest::prelude::*;
use rta_curves::convolution::min_plus_convolve_lattice;
use rta_curves::soa::{linear_combine_into, pointwise_max_into, pointwise_min_into};
use rta_curves::{
    busy_window_into, fcfs_context_into, frontier_bound_into, iwrr_bounds_into,
    linear_combine_line_into, sum_many_into, Curve, CurveError, Scratch, Segment, SoaCursor,
    SoaCurve, Time, WindowStart,
};

const HORIZON: i64 = 60;

/// Strategy: an arbitrary PWL curve with small integer breakpoints, values
/// and slopes (possibly negative, possibly with jumps); `rest` may be
/// empty, so single-piece curves are covered.
fn arb_curve() -> impl Strategy<Value = SoaCurve> {
    (
        -20i64..20,
        -3i64..4,
        prop::collection::vec((1i64..12, -20i64..20, -3i64..4), 0..6),
    )
        .prop_map(|(v0, k0, rest)| {
            let mut segs = vec![Segment::new(Time(0), v0, k0)];
            let mut t = 0i64;
            for (gap, v, k) in rest {
                t += gap;
                segs.push(Segment::new(Time(t), v, k));
            }
            soa(segs)
        })
}

/// Strategy: a long many-piece curve with values in a narrow band, so
/// extremum merges switch winners often and winner pre-scans see both
/// early failures and full-length successes.
fn arb_wide_curve() -> impl Strategy<Value = SoaCurve> {
    (
        -4i64..4,
        -2i64..3,
        prop::collection::vec((1i64..5, -4i64..4, -2i64..3), 8..40),
    )
        .prop_map(|(v0, k0, rest)| {
            let mut segs = vec![Segment::new(Time(0), v0, k0)];
            let mut t = 0i64;
            for (gap, v, k) in rest {
                t += gap;
                segs.push(Segment::new(Time(t), v, k));
            }
            soa(segs)
        })
}

/// A nondecreasing curve with nonnegative start and the given slope range
/// (upward jumps of `0..8` at each breakpoint).
fn cumulative(v0: i64, k0: i64, rest: Vec<(i64, i64, i64)>) -> SoaCurve {
    let mut segs = vec![Segment::new(Time(0), v0, k0)];
    let mut t = 0i64;
    for (gap, jump, k) in rest {
        t += gap;
        let base = segs.last().unwrap().eval(Time(t));
        segs.push(Segment::new(Time(t), base + jump, k));
    }
    soa(segs)
}

/// Strategy: a nondecreasing curve with nonnegative values (a cumulative
/// function such as an arrival, workload or service curve).
fn arb_cumulative() -> impl Strategy<Value = SoaCurve> {
    (
        0i64..10,
        0i64..3,
        prop::collection::vec((1i64..10, 0i64..8, 0i64..3), 0..6),
    )
        .prop_map(|(v0, k0, rest)| cumulative(v0, k0, rest))
}

/// Strategy: a nondecreasing curve with slopes in {0, 1} — the shape of all
/// service and utilization functions.
fn arb_service_shape() -> impl Strategy<Value = SoaCurve> {
    (
        0i64..10,
        0i64..2,
        prop::collection::vec((1i64..10, 0i64..8, 0i64..2), 0..6),
    )
        .prop_map(|(v0, k0, rest)| cumulative(v0, k0, rest))
}

fn soa(segs: Vec<Segment>) -> SoaCurve {
    SoaCurve::from_curve(&Curve::from_segments(segs))
}

/// A distinctive curve used to dirty outputs before kernel calls: the
/// kernels must fully overwrite whatever was there.
fn dirt() -> SoaCurve {
    soa(vec![
        Segment::new(Time(0), 17, -2),
        Segment::new(Time(3), -9, 5),
        Segment::new(Time(11), 40, 0),
    ])
}

fn lattice(c: &SoaCurve) -> Vec<i64> {
    (0..=HORIZON).map(|t| c.eval(Time(t))).collect()
}

/// The last breakpoint of `c`: beyond it the curve is one line.
fn last_start(c: &SoaCurve) -> i64 {
    *c.view().starts().last().unwrap()
}

/// Smallest lattice `t` in `[0, limit]` with `c(t) ≥ y`, by scanning.
fn brute_inverse(c: &SoaCurve, y: i64, limit: i64) -> Option<Time> {
    (0..=limit).map(Time).find(|&t| c.eval(t) >= y)
}

/// `min_{0 ≤ s ≤ t} f(s) + g(t − s)` at every tick of `[0, h]`.
fn brute_convolution(f: &SoaCurve, g: &SoaCurve, h: i64) -> Vec<i64> {
    (0..=h)
        .map(|t| {
            (0..=t)
                .map(|s| f.eval(Time(s)) + g.eval(Time(t - s)))
                .min()
                .unwrap()
        })
        .collect()
}

proptest! {
    #[test]
    fn roundtrip_and_monotonicity_checks(c in arb_curve()) {
        prop_assert_eq!(&SoaCurve::from_curve(&c.to_curve()), &c);
        // Beyond the last breakpoint one line remains, so a decrease shows
        // within two ticks of it or never.
        let end = last_start(&c) + 2;
        let first = (1..=end).find(|&t| c.eval(Time(t)) < c.eval(Time(t - 1))).map(Time);
        prop_assert_eq!(c.first_decrease(), first);
        prop_assert_eq!(c.is_nondecreasing(), first.is_none());
        prop_assert_eq!(c.require_nondecreasing().is_ok(), first.is_none());
        prop_assert_eq!(c.to_curve().first_decrease(), first);
    }

    #[test]
    fn linear_combine_matches_lattice(a in arb_curve(), b in arb_curve(),
                                      ca in -3i64..4, cb in -3i64..4) {
        let mut out = dirt();
        linear_combine_into(&a, ca, &b, cb, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), ca * a.eval(t) + cb * b.eval(t), "t={}", t);
        }
        a.add_into(&b, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t) + b.eval(t), "add t={}", t);
        }
        a.sub_into(&b, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t) - b.eval(t), "sub t={}", t);
        }
    }

    #[test]
    fn fused_line_combine_matches_lattice(a in arb_curve(), b in arb_curve(),
                                          ca in -3i64..4, cb in -3i64..4,
                                          lv in -9i64..10, lm in -3i64..4) {
        let mut out = dirt();
        linear_combine_line_into(&a, ca, &b, cb, lv, lm, &mut out);
        for t in 0..=HORIZON {
            let expect = ca * a.eval(Time(t)) + cb * b.eval(Time(t)) + lv + lm * t;
            prop_assert_eq!(out.eval(Time(t)), expect, "t={}", t);
        }
    }

    #[test]
    fn sum_many_matches_lattice(curves in prop::collection::vec(arb_curve(), 0..20)) {
        // Sized to cross the k-way merge fan-out (16), so the tree-reduce
        // cold path runs alongside the fixed-state merge.
        let refs: Vec<&SoaCurve> = curves.iter().collect();
        let mut out = dirt();
        sum_many_into(&refs, &mut out);
        for t in 0..=HORIZON {
            let expect: i64 = curves.iter().map(|c| c.eval(Time(t))).sum();
            prop_assert_eq!(out.eval(Time(t)), expect, "t={}", t);
        }
    }

    #[test]
    fn min_max_match_lattice(a in arb_curve(), b in arb_curve(), v in -6i64..7) {
        let mut out = dirt();
        pointwise_min_into(&a, &b, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t).min(b.eval(t)), "min t={}", t);
        }
        pointwise_max_into(&a, &b, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t).max(b.eval(t)), "max t={}", t);
        }
        a.min_with_into(&b, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t).min(b.eval(t)), "min_with t={}", t);
        }
        a.max_with_into(&b, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t).max(b.eval(t)), "max_with t={}", t);
        }
        a.clamp_min_into(v, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t).max(v), "clamp t={}", t);
        }
    }

    #[test]
    fn wide_extremum_merges_match_lattice(a in arb_wide_curve(), b in arb_wide_curve()) {
        // Long many-piece operands stress the winner pre-scans and the
        // two-phase merge seeding (prefix copy + divergence handoff) in a
        // way the short default strategy rarely does.
        let h = last_start(&a).max(last_start(&b)) + 3;
        let mut out = dirt();
        pointwise_min_into(&a, &b, &mut out);
        for t in (0..=h).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t).min(b.eval(t)), "min t={}", t);
        }
        pointwise_max_into(&a, &b, &mut out);
        for t in (0..=h).map(Time) {
            prop_assert_eq!(out.eval(t), a.eval(t).max(b.eval(t)), "max t={}", t);
        }
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        let mut max = dirt();
        a.running_min_into(&mut out);
        a.running_max_into(&mut max);
        for t in (0..=h).map(Time) {
            lo = lo.min(a.eval(t));
            hi = hi.max(a.eval(t));
            prop_assert_eq!(out.eval(t), lo, "running_min t={}", t);
            prop_assert_eq!(max.eval(t), hi, "running_max t={}", t);
        }
    }

    #[test]
    fn running_extrema_match_lattice(a in arb_curve()) {
        let mut min = dirt();
        let mut max = dirt();
        a.running_min_into(&mut min);
        a.running_max_into(&mut max);
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for (t, v) in lattice(&a).into_iter().enumerate() {
            lo = lo.min(v);
            hi = hi.max(v);
            prop_assert_eq!(min.eval(Time(t as i64)), lo, "min t={}", t);
            prop_assert_eq!(max.eval(Time(t as i64)), hi, "max t={}", t);
        }
        // Idempotence: a running extremum is its own running extremum.
        let mut again = dirt();
        min.running_min_into(&mut again);
        prop_assert_eq!(lattice(&again), lattice(&min));
        max.running_max_into(&mut again);
        prop_assert_eq!(lattice(&again), lattice(&max));
    }

    #[test]
    fn scale_and_offset_match_lattice(c in arb_curve(), k in -3i64..4, v in -6i64..7) {
        let mut out = dirt();
        c.scale_into(k, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), k * c.eval(t), "scale t={}", t);
        }
        c.add_const_into(v, &mut out);
        for t in (0..=HORIZON).map(Time) {
            prop_assert_eq!(out.eval(t), c.eval(t) + v, "offset t={}", t);
        }
    }

    #[test]
    fn galois_connection(c in arb_cumulative(), y in 0i64..40) {
        // g(t) ≥ y  ⇔  g⁻¹(y) ≤ t  for nondecreasing g.
        let inv = c.to_curve().inverse_at(y);
        for t in 0..=HORIZON {
            let reached = c.eval(Time(t)) >= y;
            let inv_le = inv.is_some_and(|i| i <= Time(t));
            prop_assert_eq!(reached, inv_le, "y={} t={}", y, t);
        }
    }

    #[test]
    fn floor_div_matches_lattice(c in arb_cumulative(), bad in arb_curve(), tau in 1i64..7) {
        let mut d = dirt();
        c.floor_div_into(tau, Time(HORIZON), &mut d).unwrap();
        for t in 0..=HORIZON {
            prop_assert_eq!(
                d.eval(Time(t)),
                c.eval(Time(t)).div_euclid(tau),
                "t={} tau={}", t, tau
            );
        }
        // An input that decreases on the lattice or starts negative is
        // rejected, and the output keeps its previous contents.
        let mut untouched = dirt();
        let rejected = !bad.is_nondecreasing() || bad.eval(Time::ZERO) < 0;
        let res = bad.floor_div_into(tau, Time(HORIZON), &mut untouched);
        prop_assert_eq!(res.is_err(), rejected);
        if rejected {
            prop_assert_eq!(&untouched, &dirt());
        }
    }

    #[test]
    fn shift_right_matches_lattice(c in arb_curve(), d in 0i64..15, fill in -5i64..5) {
        let mut s = dirt();
        c.shift_right_into(Time(d), fill, &mut s);
        for t in 0..=HORIZON {
            let expect = if t < d { fill } else { c.eval(Time(t - d)) };
            prop_assert_eq!(s.eval(Time(t)), expect, "t={}", t);
        }
    }

    #[test]
    fn truncate_agrees_before_horizon(c in arb_curve(), h in 0i64..HORIZON) {
        let mut tr = c.clone();
        tr.truncate_after(Time(h));
        for t in 0..=h {
            prop_assert_eq!(tr.eval(Time(t)), c.eval(Time(t)));
        }
        // Past the horizon the piece active at it extends unchanged.
        let slope = tr.eval(Time(h + 1)) - tr.eval(Time(h));
        prop_assert_eq!(tr.eval(Time(h + 9)), tr.eval(Time(h)) + 9 * slope);
    }

    #[test]
    fn monotone_ops_preserve_monotonicity(a in arb_cumulative(), b in arb_cumulative()) {
        let mut out = dirt();
        a.add_into(&b, &mut out);
        prop_assert!(out.is_nondecreasing());
        pointwise_min_into(&a, &b, &mut out);
        prop_assert!(out.is_nondecreasing());
        pointwise_max_into(&a, &b, &mut out);
        prop_assert!(out.is_nondecreasing());
        a.running_max_into(&mut out);
        prop_assert!(out.is_nondecreasing());
    }

    #[test]
    fn event_times_build_the_counting_curve(times in prop::collection::vec(0i64..40, 0..12)) {
        let mut ts: Vec<Time> = times.into_iter().map(Time).collect();
        ts.sort();
        let mut c = dirt();
        SoaCurve::from_event_times_into(&ts, &mut c);
        for t in 0..=HORIZON {
            let count = ts.iter().filter(|&&e| e <= Time(t)).count() as i64;
            prop_assert_eq!(c.eval(Time(t)), count, "t={}", t);
        }
        // Event times are the pseudo-inverse at each count.
        let mut cur = SoaCursor::new(&c);
        for (i, &t) in ts.iter().enumerate() {
            prop_assert_eq!(cur.inverse_at(i as i64 + 1), Some(t));
        }
    }

    #[test]
    fn cursor_matches_rescanning_queries(c in arb_cumulative(),
                                         ts in prop::collection::vec(0i64..60, 1..10),
                                         ys in prop::collection::vec(0i64..40, 1..6)) {
        // Cursors are monotone: walked over an ascending time (resp. level)
        // sequence they must answer what a fresh scan answers.
        let mut times = ts;
        times.sort_unstable();
        let mut cur = SoaCursor::new(&c);
        for &t in &times {
            prop_assert_eq!(cur.eval(Time(t)), c.eval(Time(t)), "t = {}", t);
        }
        let mut levels = ys;
        levels.sort_unstable();
        let mut cur = SoaCursor::new(&c);
        // Past its last breakpoint the curve is flat or rising by ≥ 1 per
        // tick, so any reachable level is reached within `limit`.
        let limit = last_start(&c) + 40;
        for &y in &levels {
            prop_assert_eq!(cur.inverse_at(y), brute_inverse(&c, y, limit), "y = {}", y);
        }
    }

    #[test]
    fn lattice_oracle_is_the_definition(f in arb_curve(), g in arb_curve(), h in 0i64..30) {
        let oracle = min_plus_convolve_lattice(&f, &g, Time(h));
        let slow = brute_convolution(&f, &g, h);
        for t in 0..=h {
            prop_assert_eq!(oracle.eval(Time(t)), slow[t as usize], "t={}", t);
        }
    }
}

/// Degenerate inputs the strategies cannot hit deterministically: the zero
/// curve, constants, empty event lists, and affine reuse of one buffer.
#[test]
fn degenerate_inputs() {
    let zero = SoaCurve::zero();
    let konst = soa(vec![Segment::new(Time(0), -4, 0)]);
    let mut out = dirt();

    zero.add_into(&konst, &mut out);
    assert_eq!(lattice(&out), vec![-4; HORIZON as usize + 1]);
    konst.running_min_into(&mut out);
    assert_eq!(lattice(&out), vec![-4; HORIZON as usize + 1]);
    zero.shift_right_into(Time(5), 3, &mut out);
    assert_eq!(out.eval(Time(4)), 3);
    assert_eq!(out.eval(Time(5)), 0);
    zero.floor_div_into(3, Time(20), &mut out).unwrap();
    assert_eq!(out, SoaCurve::zero());
    SoaCurve::from_event_times_into(&[], &mut out);
    assert_eq!(out, SoaCurve::zero());
    sum_many_into(&[], &mut out);
    assert_eq!(out, SoaCurve::zero());

    // `set_affine` reuses whatever buffer was there.
    out.set_affine(7, 2);
    assert_eq!(
        out.to_curve(),
        Curve::from_segments(vec![Segment::new(Time(0), 7, 2)])
    );
}

/// Fallible kernels must leave `out` untouched on error, so a workspace
/// slot never ends up holding a half-written curve.
#[test]
fn errors_leave_out_untouched() {
    let decreasing = soa(vec![Segment::new(Time(0), 3, -1)]);
    let negative = soa(vec![Segment::new(Time(0), -2, 1)]);

    let mut out = dirt();
    for bad in [&decreasing, &negative] {
        assert!(bad.floor_div_into(2, Time(20), &mut out).is_err());
        assert_eq!(out, dirt());
    }
}

/// The FCFS kernels take staircases only: a sloped piece anywhere in an
/// input is refused with its slope, a step going down in `G` or in a
/// frontier with where it goes down, and a negative `G(0)` as such; every
/// output keeps its previous contents.
#[test]
fn fcfs_kernels_refuse_what_is_not_a_staircase() {
    let step = soa(vec![
        Segment::new(Time(0), 2, 0),
        Segment::new(Time(4), 6, 0),
    ]);
    let sloped = soa(vec![
        Segment::new(Time(0), 2, 0),
        Segment::new(Time(4), 6, 2),
    ]);
    let down = soa(vec![
        Segment::new(Time(0), 6, 0),
        Segment::new(Time(4), 2, 0),
    ]);
    let negative = soa(vec![
        Segment::new(Time(0), -1, 0),
        Segment::new(Time(4), 2, 0),
    ]);
    let (mut u, mut v1, mut v0) = (dirt(), dirt(), dirt());
    let mut context = |g: &SoaCurve| {
        let res = fcfs_context_into(g, Time(20), &mut u, &mut v1, &mut v0);
        assert!([&u, &v1, &v0].iter().all(|c| **c == dirt()));
        res
    };
    assert_eq!(
        context(&sloped),
        Err(CurveError::UnsupportedSlope { slope: 2 })
    );
    assert_eq!(context(&down), Err(CurveError::NotMonotone { at: Time(4) }));
    assert_eq!(
        context(&negative),
        Err(CurveError::NegativeAtZero { value: -1 })
    );
    let mut out = dirt();
    for (c, v, err) in [
        (&sloped, &step, CurveError::UnsupportedSlope { slope: 2 }),
        (&step, &sloped, CurveError::UnsupportedSlope { slope: 2 }),
        (&step, &down, CurveError::NotMonotone { at: Time(4) }),
    ] {
        for lag in [0, 1] {
            assert_eq!(
                frontier_bound_into(c, v, lag, 3, &mut out),
                Err(err.clone())
            );
            assert_eq!(out, dirt());
        }
    }
}

/// The busy-window bound of `rta_curves::busy` evaluated tick by tick on
/// `[0, h]`, straight from its definition:
/// `running_max(clamp_[0,t](mask_[0,b](min(w(t), t − b − Σ_t(t) + run(t − b)))))`
/// with `run` the running minimum of `g(s) = w(s − 1) − A(s)`, `A(s) =
/// s − Σ_s(s)` for an open start and `0` on `[0, b]`, `s − b − Σ_s(s)`
/// after, for a blocked one.
fn busy_window_lattice(
    w: &SoaCurve,
    ss: &SoaCurve,
    st: &SoaCurve,
    b: i64,
    start: WindowStart,
    h: i64,
) -> Vec<i64> {
    let at = |c: &SoaCurve, t: i64| c.eval(Time(t));
    let mut lo = i64::MAX;
    let run: Vec<i64> = (0..=h)
        .map(|s| {
            let prev = if s == 0 { 0 } else { at(w, s - 1) };
            let avail = match start {
                WindowStart::Open => s - at(ss, s),
                WindowStart::Blocked if s <= b => 0,
                WindowStart::Blocked => s - b - at(ss, s),
            };
            lo = lo.min(prev - avail);
            lo
        })
        .collect();
    let mut hi = i64::MIN;
    (0..=h)
        .map(|t| {
            let raw = if t <= b {
                0
            } else {
                at(w, t).min(t - b - at(st, t) + run[(t - b) as usize])
            };
            hi = hi.max(raw.clamp(0, t));
            hi
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The busy-window kernel equals its definition at every tick to far
    /// past all breakpoints, for both window starts and blocking 0–11, on
    /// any curves (negative slopes and downward jumps included, start and end
    /// interference swapped too) and on the cumulative shapes the analysis
    /// feeds it (workloads and service sums); one scratch and one dirty
    /// output serve every call.
    #[test]
    fn busy_window_matches_lattice(
        w in arb_curve(),
        ss in arb_curve(),
        st in arb_wide_curve(),
        (cw, cs, ct) in (arb_cumulative(), arb_service_shape(), arb_service_shape()),
        b in 0i64..12,
    ) {
        let mut scratch = Scratch::new();
        let mut out = dirt();
        for (w, s_part, t_part) in [(&w, &ss, &st), (&w, &st, &ss), (&cw, &cs, &ct)] {
            let last_in = last_start(w).max(last_start(s_part)).max(last_start(t_part));
            for start in [WindowStart::Open, WindowStart::Blocked] {
                busy_window_into(w, s_part, t_part, Time(b), start, &mut scratch, &mut out);
                // Past the inputs' last breakpoints the kernel makes its
                // own (running-minimum crossing, rise of the maximum,
                // envelope crossings), up to about 200 ticks later on
                // these strategies: check past the output's last one, and
                // 1 024 ticks past the inputs' so that a crossing the
                // kernel missed shows too.
                let h = last_in.max(last_start(&out)) + b + 1024;
                let want = busy_window_lattice(w, s_part, t_part, b, start, h);
                for (t, &v) in want.iter().enumerate() {
                    prop_assert_eq!(out.eval(Time(t as i64)), v, "{:?} b={} t={}", start, b, t);
                }
            }
        }
    }
}

/// One `Scratch` and one output driven through many dissimilar inputs in
/// sequence — the arena-reuse pattern of the analysis workspaces. Buffer
/// capacity carried over from a large input must never leak into the
/// result of a small one.
#[test]
fn shared_scratch_and_out_survive_reuse() {
    let mut scratch = Scratch::new();
    let mut out = SoaCurve::zero();
    let mut inputs: Vec<SoaCurve> = Vec::new();
    // A deterministic family of increasingly spiky cumulative curves.
    for i in 0..20i64 {
        let rest = (1..=(i % 6))
            .map(|j| (1 + i % 3, j + i % 5, (i + j) % 3))
            .collect();
        inputs.push(cumulative(i % 4, i % 3, rest));
    }
    for (i, f) in inputs.iter().enumerate() {
        let g = &inputs[(i * 7 + 3) % inputs.len()];
        busy_window_into(
            f,
            g,
            g,
            Time::ZERO,
            WindowStart::Open,
            &mut scratch,
            &mut out,
        );
        let want = busy_window_lattice(f, g, g, 0, WindowStart::Open, 30);
        for t in 0..=30 {
            assert_eq!(out.eval(Time(t)), want[t as usize], "busy #{i} t={t}");
        }
        f.add_into(g, &mut out);
        for t in (0..=30).map(Time) {
            assert_eq!(out.eval(t), f.eval(t) + g.eval(t), "add #{i} t={t}");
        }
        f.max_with_into(g, &mut out);
        for t in (0..=30).map(Time) {
            assert_eq!(out.eval(t), f.eval(t).max(g.eval(t)), "max #{i} t={t}");
        }
        let tau = 1 + i as i64 % 5;
        f.floor_div_into(tau, Time(30), &mut out).unwrap();
        for t in (0..=30).map(Time) {
            assert_eq!(
                out.eval(t),
                f.eval(t).div_euclid(tau),
                "floor_div #{i} t={t}"
            );
        }
    }
}

/// Strategy: a staircase (slope 0 everywhere) with arbitrary levels,
/// negative ones and downward steps included.
fn arb_steps() -> impl Strategy<Value = SoaCurve> {
    (
        -6i64..12,
        prop::collection::vec((1i64..10, -6i64..14), 0..8),
    )
        .prop_map(|(v0, rest)| {
            let mut segs = vec![Segment::new(Time(0), v0, 0)];
            let mut t = 0i64;
            for (gap, v) in rest {
                t += gap;
                segs.push(Segment::new(Time(t), v, 0));
            }
            soa(segs)
        })
}

/// Strategy: a nondecreasing staircase with `f(0) ≥ 0` — a workload, a
/// total workload `G`, or a frontier.
fn arb_cumulative_steps() -> impl Strategy<Value = SoaCurve> {
    (0i64..8, prop::collection::vec((1i64..10, 0i64..9), 0..8)).prop_map(|(v0, rest)| {
        cumulative(v0, 0, rest.into_iter().map(|(g, j)| (g, j, 0)).collect())
    })
}

/// Theorem 7's utilization and the Theorem 8/9 frontiers of `g` on horizon
/// `hz`, tick by tick on `[0, h]`, straight from their definitions:
/// `U(0) = 0, U(t + 1) = min(U(t) + 1, G(t))` and
/// `v_k(t) = min { s ≤ hz : G(s) ≥ U(t) + k }`, or `hz + 1` when there is
/// none, by scanning.
fn fcfs_context_lattice(g: &SoaCurve, hz: i64, h: i64) -> [Vec<i64>; 3] {
    let mut u = vec![0i64];
    for t in 0..h {
        u.push((u[t as usize] + 1).min(g.eval(Time(t))));
    }
    let frontier = |k: i64| -> Vec<i64> {
        u.iter()
            .map(|&y| {
                (0..=hz)
                    .find(|&s| g.eval(Time(s)) >= y + k)
                    .unwrap_or(hz + 1)
            })
            .collect()
    };
    let (v1, v0) = (frontier(1), frontier(0));
    [u, v1, v0]
}

/// The frontier bound `running_max(max(0, min(c(v(t) − lag) + bonus, c(t),
/// t)))`, with `c(s) = 0` for `s < 0`, tick by tick on `[0, h]`.
fn frontier_bound_lattice(c: &SoaCurve, v: &SoaCurve, lag: i64, bonus: i64, h: i64) -> Vec<i64> {
    let at = |s: i64| if s < 0 { 0 } else { c.eval(Time(s)) };
    let mut hi = i64::MIN;
    (0..=h)
        .map(|t| {
            let raw = (at(v.eval(Time(t)) - lag) + bonus).min(at(t)).min(t);
            hi = hi.max(raw.max(0));
            hi
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The FCFS context kernel equals its definition at every tick to past
    /// the last breakpoint of its input and of all three outputs, on
    /// horizons before, at and past the breakpoints of `G` (a horizon on a
    /// breakpoint picks one of them); the outputs start dirty and are
    /// reused from the previous call.
    #[test]
    fn fcfs_context_matches_lattice(
        gs in prop::collection::vec(arb_cumulative_steps(), 1..4),
        pick in 0usize..12,
        free in 0i64..80,
    ) {
        let (mut u, mut v1, mut v0) = (dirt(), dirt(), dirt());
        for g in &gs {
            let starts = g.view().starts();
            let hz = starts.get(pick).copied().unwrap_or(free);
            fcfs_context_into(g, Time(hz), &mut u, &mut v1, &mut v0).unwrap();
            let h = [g, &u, &v1, &v0].iter().map(|c| last_start(c)).max().unwrap().max(hz) + 8;
            let [wu, w1, w0] = fcfs_context_lattice(g, hz, h);
            for t in 0..=h {
                let i = t as usize;
                prop_assert_eq!(u.eval(Time(t)), wu[i], "U hz={} t={}", hz, t);
                prop_assert_eq!(v1.eval(Time(t)), w1[i], "v1 hz={} t={}", hz, t);
                prop_assert_eq!(v0.eval(Time(t)), w0[i], "v0 hz={} t={}", hz, t);
            }
        }
    }

    /// The frontier-bound kernel equals its definition at every tick to
    /// past the last breakpoint of its inputs and its output, with lag 0/1
    /// and bonus 0/τ, on any staircase workload (negative levels and
    /// downward steps included, so the zero clamp acts) against any
    /// nondecreasing staircase frontier and against the frontiers the
    /// context kernel builds; one dirty output serves every call.
    #[test]
    fn frontier_bound_matches_lattice(
        c in arb_steps(),
        cw in arb_cumulative_steps(),
        v in arb_cumulative_steps(),
        peer in arb_cumulative_steps(),
        hz in 0i64..60,
        tau in 1i64..8,
    ) {
        let mut g = dirt();
        sum_many_into(&[&cw, &peer], &mut g);
        let (mut u, mut v1, mut v0) = (dirt(), dirt(), dirt());
        fcfs_context_into(&g, Time(hz), &mut u, &mut v1, &mut v0).unwrap();
        let mut out = dirt();
        for (c, v) in [(&c, &v), (&cw, &v), (&cw, &v1), (&cw, &v0), (&c, &v1)] {
            for (lag, bonus) in [(0, 0), (1, 0), (0, tau), (1, tau)] {
                frontier_bound_into(c, v, lag, bonus, &mut out).unwrap();
                let h = last_start(c).max(last_start(v)).max(last_start(&out))
                    + v.view().values().last().unwrap() + lag + 8;
                let want = frontier_bound_lattice(c, v, lag, bonus, h);
                for (t, &w) in want.iter().enumerate() {
                    prop_assert_eq!(out.eval(Time(t as i64)), w, "lag={} bonus={} t={}", lag, bonus, t);
                }
            }
        }
    }
}

/// IWRR's bounds tick by tick on `[0, h]`, from the convolution form the
/// kernel replaces: the workload released strictly before each window
/// start (`c̄` shifted right by one) convolved by the lattice oracle with
/// the strict service curve `q·max(0, ⌊u/L⌋ − 1)` (jumps at `2L, 3L, …`
/// up to `hz`), capped by `c̄` and `t`, clamped at 0 and made
/// nondecreasing; the upper bound is `min(t, c̄)` clamped and made
/// nondecreasing, and at least the lower one.
fn iwrr_bounds_lattice(c: &SoaCurve, l: i64, q: i64, hz: i64, h: i64) -> [Vec<i64>; 2] {
    let mut shifted = SoaCurve::zero();
    c.shift_right_into(Time(1), 0, &mut shifted);
    let jumps: Vec<Time> = (2..)
        .map(|k| Time(k * l))
        .take_while(|u| u.ticks() <= hz)
        .collect();
    let mut rounds = SoaCurve::zero();
    SoaCurve::from_event_times_into(&jumps, &mut rounds);
    let mut beta = SoaCurve::zero();
    rounds.scale_into(q, &mut beta);
    let conv = min_plus_convolve_lattice(&shifted, &beta, Time(hz));
    let (mut lo, mut hi) = (i64::MIN, i64::MIN);
    let (mut lower, mut upper) = (Vec::new(), Vec::new());
    for t in 0..=h {
        let ct = c.eval(Time(t));
        lo = lo.max(conv.eval(Time(t)).min(ct).min(t).max(0));
        hi = hi.max(t.min(ct).max(0));
        lower.push(lo);
        upper.push(hi.max(lo));
    }
    [lower, upper]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The IWRR kernel equals the convolution form of its bounds at every
    /// tick to 1 024 ticks past the last breakpoint of its input and of
    /// both outputs, on workload staircases against round lengths 1–20
    /// and quanta 1–10 (a quantum above the round length lets `G` pass
    /// `t`) and horizons 0–80, before, among and past the breakpoints;
    /// one scratch and two dirty outputs serve every call.
    #[test]
    fn iwrr_bounds_match_lattice(
        cs in prop::collection::vec(arb_cumulative_steps(), 1..4),
        l in 1i64..21,
        q in 1i64..11,
        hz in 0i64..81,
    ) {
        let mut scratch = Scratch::new();
        let (mut lower, mut upper) = (dirt(), dirt());
        for c in &cs {
            iwrr_bounds_into(c, l, q, Time(hz), &mut scratch, &mut lower, &mut upper).unwrap();
            let h = [c, &lower, &upper].iter().map(|x| last_start(x)).max().unwrap().max(hz) + 1024;
            let [lo, hi] = iwrr_bounds_lattice(c, l, q, hz, h);
            for t in 0..=h {
                let i = t as usize;
                prop_assert_eq!(lower.eval(Time(t)), lo[i], "lower L={} q={} H={} t={}", l, q, hz, t);
                prop_assert_eq!(upper.eval(Time(t)), hi[i], "upper L={} q={} H={} t={}", l, q, hz, t);
            }
        }
    }
}

/// The IWRR kernel takes nondecreasing staircases with `c̄(0) ≥ 0` only: a
/// sloped piece is refused with its slope, a step going down with where
/// it goes down, and a negative start as such; both outputs keep their
/// previous contents.
#[test]
fn iwrr_kernel_refuses_what_is_not_a_staircase() {
    let sloped = soa(vec![
        Segment::new(Time(0), 2, 0),
        Segment::new(Time(4), 6, 3),
    ]);
    let down = soa(vec![
        Segment::new(Time(0), 6, 0),
        Segment::new(Time(4), 2, 0),
    ]);
    let negative = soa(vec![
        Segment::new(Time(0), -1, 0),
        Segment::new(Time(4), 2, 0),
    ]);
    for (c, err) in [
        (&sloped, CurveError::UnsupportedSlope { slope: 3 }),
        (&down, CurveError::NotMonotone { at: Time(4) }),
        (&negative, CurveError::NegativeAtZero { value: -1 }),
    ] {
        let (mut lower, mut upper) = (dirt(), dirt());
        let res = iwrr_bounds_into(
            c,
            4,
            2,
            Time(40),
            &mut Scratch::new(),
            &mut lower,
            &mut upper,
        );
        assert_eq!(res, Err(err));
        assert_eq!((lower, upper), (dirt(), dirt()));
    }
}
