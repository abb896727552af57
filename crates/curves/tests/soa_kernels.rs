//! The structure-of-arrays kernels must be drop-in replacements for the
//! `Curve` (array-of-structs) kernels they shadow: for every input —
//! including degenerate single-segment and zero curves and previously-dirty
//! output buffers — converting to [`SoaCurve`], running the SoA kernel and
//! converting back must equal the AoS result *exactly* (`Curve` is `Eq`,
//! so equality is segment-for-segment). The AoS kernels are the oracles;
//! `tests/into_kernels.rs` pins them to the allocating reference in turn.
//! Every test pre-dirties its SoA outputs and reuses them across kernels,
//! which is precisely how the arena-backed workspaces drive them.

use proptest::prelude::*;
use rta_curves::arena::Scratch;
use rta_curves::convolution::{convolve_decomposed_into, min_plus_convolve_lattice};
use rta_curves::ops::{linear_combine, pointwise_max, pointwise_min};
use rta_curves::soa::{
    convolve_convex_into, linear_combine_into, linear_combine_line_into, pointwise_max_into,
    pointwise_min_into, sum_many_into,
};
use rta_curves::{Curve, CurveCursor, Segment, SoaCursor, SoaCurve, Time};

/// Strategy: an arbitrary PWL curve (possibly negative, with jumps);
/// `rest` may be empty, so single-segment curves are covered.
fn arb_curve() -> impl Strategy<Value = Curve> {
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
            Curve::from_segments(segs)
        })
}

/// Strategy: a nondecreasing curve with nonnegative values.
fn arb_cumulative() -> impl Strategy<Value = Curve> {
    (
        0i64..10,
        0i64..3,
        prop::collection::vec((1i64..10, 0i64..8, 0i64..3), 0..6),
    )
        .prop_map(|(v0, k0, rest)| {
            let mut segs = vec![Segment::new(Time(0), v0, k0)];
            let mut t = 0i64;
            for (gap, jump, k) in rest {
                t += gap;
                let prev = *segs.last().unwrap();
                let base = prev.eval(Time(t));
                segs.push(Segment::new(Time(t), base + jump, k));
            }
            Curve::from_segments(segs)
        })
}

/// Strategy: a convex curve (nondecreasing slopes piece by piece).
fn arb_convex() -> impl Strategy<Value = Curve> {
    (0i64..5, 0i64..3, prop::collection::vec(1i64..8, 0..4)).prop_map(|(v0, base, lens)| {
        let mut segs = vec![Segment::new(Time(0), v0, base)];
        let mut t = 0i64;
        let mut v = v0;
        let mut k = base;
        for len in lens {
            t += len;
            v += k * len;
            k += 1;
            segs.push(Segment::new(Time(t), v, k));
        }
        Curve::from_segments(segs)
    })
}

/// Strategy: a long many-piece curve with values in a narrow band, so
/// extremum merges switch winners often and winner pre-scans see both
/// early failures and full-length successes.
fn arb_wide_curve() -> impl Strategy<Value = Curve> {
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
            Curve::from_segments(segs)
        })
}

/// A distinctive curve used to dirty outputs before every kernel call: the
/// kernels must fully overwrite whatever was there.
fn dirt() -> Curve {
    Curve::from_segments(vec![
        Segment::new(Time(0), 17, -2),
        Segment::new(Time(3), -9, 5),
        Segment::new(Time(11), 40, 0),
    ])
}

/// A pre-dirtied SoA buffer.
fn soa_dirt() -> SoaCurve {
    SoaCurve::from_curve(&dirt())
}

/// Round-trip an SoA result back to a `Curve` through a dirty output.
fn back(soa: &SoaCurve) -> Curve {
    let mut out = dirt();
    soa.write_to_curve(&mut out);
    out
}

proptest! {
    #[test]
    fn roundtrip_preserves_curves_exactly(c in arb_curve()) {
        let soa = SoaCurve::from_curve(&c);
        prop_assert_eq!(&soa.to_curve(), &c);
        prop_assert_eq!(&back(&soa), &c);
        // `copy_from_curve` into a dirty buffer must match `from_curve`.
        let mut reused = soa_dirt();
        reused.copy_from_curve(&c);
        prop_assert_eq!(&back(&reused), &c);
        // Classification predicates agree with the AoS curve.
        prop_assert_eq!(soa.is_nondecreasing(), c.is_nondecreasing());
        prop_assert_eq!(soa.first_decrease(), c.first_decrease());
        prop_assert_eq!(soa.is_continuous(), c.is_continuous());
    }

    #[test]
    fn unary_kernels_match_aos(c in arb_curve(), k in -3i64..4, v in -6i64..7,
                               reindex in (0i64..15, -5i64..5, 0i64..30, 0i64..40)) {
        let (d, fill, t0, h) = reindex;
        let soa = SoaCurve::from_curve(&c);
        // One shared dirty output across every kernel: later calls must not
        // be contaminated by earlier contents.
        let mut out = soa_dirt();
        soa.neg_into(&mut out);
        prop_assert_eq!(&back(&out), &c.neg());
        soa.scale_into(k, &mut out);
        prop_assert_eq!(&back(&out), &c.scale(k));
        soa.add_const_into(v, &mut out);
        prop_assert_eq!(&back(&out), &c.add_const(v));
        soa.clamp_min_into(v, &mut out);
        prop_assert_eq!(&back(&out), &c.clamp_min(v));
        soa.clamp_max_into(v, &mut out);
        prop_assert_eq!(&back(&out), &c.clamp_max(v));
        soa.running_min_into(&mut out);
        prop_assert_eq!(&back(&out), &c.running_min());
        soa.running_max_into(&mut out);
        prop_assert_eq!(&back(&out), &c.running_max());
        soa.shift_right_into(Time(d), fill, &mut out);
        prop_assert_eq!(&back(&out), &c.shift_right(Time(d), fill));
        soa.mask_before_into(Time(t0), fill, &mut out);
        prop_assert_eq!(&back(&out), &c.mask_before(Time(t0), fill));
        // In-place truncation against the AoS counterpart.
        let mut trunc = soa_dirt();
        trunc.copy_from_curve(&c);
        trunc.truncate_after(Time(h));
        prop_assert_eq!(&back(&trunc), &c.truncate_after(Time(h)));
    }

    #[test]
    fn binary_kernels_match_aos(a in arb_curve(), b in arb_curve(),
                                ca in -3i64..4, cb in -3i64..4) {
        let (sa, sb) = (SoaCurve::from_curve(&a), SoaCurve::from_curve(&b));
        let mut out = soa_dirt();
        sa.add_into(&sb, &mut out);
        prop_assert_eq!(&back(&out), &a.add(&b));
        sa.sub_into(&sb, &mut out);
        prop_assert_eq!(&back(&out), &a.sub(&b));
        sa.min_with_into(&sb, &mut out);
        prop_assert_eq!(&back(&out), &a.min_with(&b));
        sa.max_with_into(&sb, &mut out);
        prop_assert_eq!(&back(&out), &a.max_with(&b));
        pointwise_min_into(&sa, &sb, &mut out);
        prop_assert_eq!(&back(&out), &pointwise_min(&a, &b));
        pointwise_max_into(&sa, &sb, &mut out);
        prop_assert_eq!(&back(&out), &pointwise_max(&a, &b));
        linear_combine_into(&sa, ca, &sb, cb, &mut out);
        prop_assert_eq!(&back(&out), &linear_combine(&a, ca, &b, cb));
    }

    #[test]
    fn fused_line_combine_matches_staged_aos(a in arb_curve(), b in arb_curve(),
                                             ca in -3i64..4, cb in -3i64..4,
                                             lv in -9i64..10, lm in -3i64..4) {
        // `ca·a + cb·b + (lv + lm·t)` in one pass must equal staging the
        // affine term as a separate AoS add.
        let (sa, sb) = (SoaCurve::from_curve(&a), SoaCurve::from_curve(&b));
        let mut out = soa_dirt();
        linear_combine_line_into(&sa, ca, &sb, cb, lv, lm, &mut out);
        let line = Curve::from_segments(vec![Segment::new(Time(0), lv, lm)]);
        prop_assert_eq!(&back(&out), &linear_combine(&a, ca, &b, cb).add(&line));
    }

    #[test]
    fn sum_many_matches_folded_aos(curves in prop::collection::vec(arb_curve(), 0..20)) {
        // Sized to cross the k-way merge fan-out (16), so the tree-reduce
        // cold path is exercised alongside the fixed-state merge.
        let soa: Vec<SoaCurve> = curves.iter().map(SoaCurve::from_curve).collect();
        let refs: Vec<&SoaCurve> = soa.iter().collect();
        let mut out = soa_dirt();
        sum_many_into(&refs, &mut out);
        let expected = curves
            .iter()
            .fold(Curve::zero(), |acc, c| acc.add(c));
        prop_assert_eq!(&back(&out), &expected);
    }

    #[test]
    fn wide_extremum_merges_match_aos(a in arb_wide_curve(), b in arb_wide_curve()) {
        // Long many-piece operands stress the winner pre-scans and the
        // two-phase merge seeding (prefix copy + divergence handoff) in a
        // way the short default strategy rarely does.
        let (sa, sb) = (SoaCurve::from_curve(&a), SoaCurve::from_curve(&b));
        let mut out = soa_dirt();
        pointwise_min_into(&sa, &sb, &mut out);
        prop_assert_eq!(&back(&out), &pointwise_min(&a, &b));
        pointwise_max_into(&sa, &sb, &mut out);
        prop_assert_eq!(&back(&out), &pointwise_max(&a, &b));
        sa.running_min_into(&mut out);
        prop_assert_eq!(&back(&out), &a.running_min());
        sa.running_max_into(&mut out);
        prop_assert_eq!(&back(&out), &a.running_max());
        linear_combine_into(&sa, 2, &sb, -1, &mut out);
        prop_assert_eq!(&back(&out), &linear_combine(&a, 2, &b, -1));
    }

    #[test]
    fn floor_div_matches_aos_including_errors(c in arb_cumulative(), bad in arb_curve(),
                                              tau in 1i64..7) {
        let soa = SoaCurve::from_curve(&c);
        let mut out = soa_dirt();
        soa.floor_div_into(tau, Time(40), &mut out).unwrap();
        prop_assert_eq!(&back(&out), &c.floor_div(tau, Time(40)).unwrap());
        // Error parity: the SoA kernel fails exactly when the AoS one does,
        // and leaves its output untouched when it fails.
        let sbad = SoaCurve::from_curve(&bad);
        let mut untouched = soa_dirt();
        let soa_res = sbad.floor_div_into(tau, Time(40), &mut untouched);
        let aos_res = bad.floor_div(tau, Time(40));
        prop_assert_eq!(soa_res.is_err(), aos_res.is_err());
        if soa_res.is_err() {
            prop_assert_eq!(&back(&untouched), &dirt());
        } else {
            prop_assert_eq!(&back(&untouched), &aos_res.unwrap());
        }
    }

    #[test]
    fn convex_convolution_matches_aos(cf in arb_convex(), cg in arb_convex()) {
        let (sf, sg) = (SoaCurve::from_curve(&cf), SoaCurve::from_curve(&cg));
        let mut scratch = Scratch::new();
        let mut out = soa_dirt();
        convolve_convex_into(&sf, &sg, &mut scratch, &mut out);
        prop_assert_eq!(&back(&out), &rta_curves::convolution::convolve_convex(&cf, &cg));
    }

    #[test]
    fn cursor_matches_aos_cursor(c in arb_cumulative(), ts in prop::collection::vec(0i64..60, 1..10),
                                 ys in prop::collection::vec(0i64..40, 1..6)) {
        // Cursors are monotone: both sides walked over the same ascending
        // time (resp. level) sequence must agree step for step.
        let soa = SoaCurve::from_curve(&c);
        let mut times: Vec<i64> = ts;
        times.sort_unstable();
        let mut aos_cur = CurveCursor::new(&c);
        let mut soa_cur = SoaCursor::new(&soa);
        for &t in &times {
            prop_assert_eq!(soa_cur.eval(Time(t)), aos_cur.eval(Time(t)), "t = {}", t);
        }
        let mut levels: Vec<i64> = ys;
        levels.sort_unstable();
        let mut aos_cur = CurveCursor::new(&c);
        let mut soa_cur = SoaCursor::new(&soa);
        for &y in &levels {
            prop_assert_eq!(soa_cur.inverse_at(y), aos_cur.inverse_at(y), "y = {}", y);
        }
    }

    #[test]
    fn decomposed_convolution_matches_the_lattice_oracle(
        f in arb_cumulative(), g in arb_cumulative(), h in 1i64..50
    ) {
        // The SoA-backed decomposition is free to fold partials in any
        // order, so the contract is value identity at every lattice tick,
        // checked against the exhaustive scan.
        let mut scratch = Scratch::new();
        let mut out = dirt();
        convolve_decomposed_into(&f, &g, Time(h), &mut scratch, &mut out);
        let lattice = min_plus_convolve_lattice(&f, &g, Time(h));
        for t in 0..=h {
            prop_assert_eq!(out.eval(Time(t)), lattice.eval(Time(t)), "t = {}", t);
        }
    }
}

/// Degenerate inputs the strategies cannot hit deterministically: the zero
/// curve, constants, and affine reuse of one buffer.
#[test]
fn degenerate_inputs_match_aos() {
    let zero = Curve::zero();
    let konst = Curve::constant(-4);
    let (szero, skonst) = (SoaCurve::from_curve(&zero), SoaCurve::from_curve(&konst));
    let mut out = soa_dirt();

    szero.add_into(&skonst, &mut out);
    assert_eq!(back(&out), zero.add(&konst));
    skonst.running_min_into(&mut out);
    assert_eq!(back(&out), konst.running_min());
    szero.shift_right_into(Time(5), 3, &mut out);
    assert_eq!(back(&out), zero.shift_right(Time(5), 3));
    szero.floor_div_into(3, Time(20), &mut out).unwrap();
    assert_eq!(back(&out), zero.floor_div(3, Time(20)).unwrap());

    // `set_affine` reuses whatever buffer was there.
    out.set_affine(7, 2);
    assert_eq!(
        back(&out),
        Curve::from_segments(vec![Segment::new(Time(0), 7, 2)])
    );
    assert_eq!(SoaCurve::zero().to_curve(), Curve::zero());
}

/// One `Scratch` and a pair of SoA outputs driven through many dissimilar
/// inputs in sequence — the arena-reuse pattern of the analysis workspaces.
/// Buffer capacity carried over from a large input must never leak into the
/// result of a small one.
#[test]
fn shared_buffers_survive_reuse() {
    let mut scratch = Scratch::new();
    let mut out = SoaCurve::zero();
    let mut staging = SoaCurve::zero();
    let mut inputs: Vec<Curve> = Vec::new();
    for i in 0..20i64 {
        let mut segs = vec![Segment::new(Time(0), i % 4, i % 3)];
        for j in 1..=(i % 6) {
            let t = j * (1 + i % 3);
            let base = segs.last().unwrap().eval(Time(t));
            segs.push(Segment::new(Time(t), base + j + i % 5, (i + j) % 3));
        }
        inputs.push(Curve::from_segments(segs));
    }
    for (i, f) in inputs.iter().enumerate() {
        let g = &inputs[(i * 7 + 3) % inputs.len()];
        staging.copy_from_curve(f);
        let sg = SoaCurve::from_curve(g);
        staging.add_into(&sg, &mut out);
        assert_eq!(back(&out), f.add(g), "add #{i}");
        staging.max_with_into(&sg, &mut out);
        assert_eq!(back(&out), f.max_with(g), "max #{i}");
        staging.running_max_into(&mut out);
        assert_eq!(back(&out), f.running_max(), "running_max #{i}");
        staging
            .floor_div_into(1 + (i as i64 % 5), Time(30), &mut out)
            .unwrap();
        assert_eq!(
            back(&out),
            f.floor_div(1 + (i as i64 % 5), Time(30)).unwrap(),
            "floor_div #{i}"
        );
        let mut conv = dirt();
        convolve_decomposed_into(f, g, Time(30), &mut scratch, &mut conv);
        let lattice = min_plus_convolve_lattice(f, g, Time(30));
        for t in 0..=30 {
            assert_eq!(conv.eval(Time(t)), lattice.eval(Time(t)), "conv #{i} t={t}");
        }
    }
}
