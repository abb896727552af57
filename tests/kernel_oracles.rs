//! Property tests pinning the segment-native kernels to their lattice-scan
//! oracles: cursor sweeps vs front-rescanning queries, and the Theorem-3
//! service kernel vs a brute-force evaluation of the min-form on the
//! lattice.

use bursty_rta::analysis::spp::exact_service_into;
use bursty_rta::curves::{Curve, Scratch, SoaCursor, SoaCurve, Time};
use proptest::prelude::*;

/// A random bursty staircase: `n` event times in `[0, span)`, steps of
/// height `tau`.
fn arb_staircase(span: i64) -> impl Strategy<Value = SoaCurve> {
    (prop::collection::vec(0i64..span, 1..8), 1i64..5).prop_map(|(mut ts, tau)| {
        ts.sort();
        SoaCurve::from_curve(
            &Curve::from_event_times(&ts.into_iter().map(Time).collect::<Vec<_>>()).scale(tau),
        )
    })
}

/// A random nondecreasing curve: a staircase, optionally clipped by a
/// random affine ceiling so sloped pieces appear too.
fn arb_monotone(span: i64) -> impl Strategy<Value = SoaCurve> {
    (arb_staircase(span), 0i64..20, 0i64..4, any::<bool>()).prop_map(|(stairs, b, a, clip)| {
        if clip {
            let mut ceiling = SoaCurve::zero();
            ceiling.set_affine(b, a);
            let mut out = SoaCurve::zero();
            stairs.min_with_into(&ceiling, &mut out);
            out
        } else {
            stairs
        }
    })
}

/// The Theorem-3 kernel into a fresh curve.
fn exact_service(work: &SoaCurve, hp: &[&SoaCurve]) -> SoaCurve {
    let mut out = SoaCurve::zero();
    exact_service_into(work, hp, &mut Scratch::new(), &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cursor sweeps return exactly what the front-rescanning queries do,
    /// for both the pseudo-inverse and pointwise evaluation.
    #[test]
    fn cursor_matches_rescanning_queries(c in arb_monotone(80), ymax in 1i64..120) {
        let aos = c.to_curve();
        let mut inv = SoaCursor::new(&c);
        for y in 0..=ymax {
            prop_assert_eq!(inv.inverse_at(y), aos.inverse_at(y), "y={}", y);
        }
        let mut ev = SoaCursor::new(&c);
        for t in 0..=ymax {
            prop_assert_eq!(ev.eval(Time(t)), aos.eval(Time(t)), "t={}", t);
        }
    }

    /// The Theorem-3 service kernel equals the brute tick evaluation
    /// `min(c(t), min_s A(t) − A(s) + c(s⁻))` with the availability left
    /// over by a chain of zero to three higher-priority subjobs, each
    /// served exactly under the ones above it.
    #[test]
    fn exact_service_matches_tick_reference(
        work in arb_staircase(40),
        peers in prop::collection::vec(arb_staircase(40), 3..4),
    ) {
        let mut hp: Vec<SoaCurve> = Vec::new();
        for c in &peers {
            let refs: Vec<&SoaCurve> = hp.iter().collect();
            let s = exact_service(c, &refs);
            hp.push(s);
        }
        let horizon = 100i64;
        for k in 0..=hp.len() {
            let hp: Vec<&SoaCurve> = hp[..k].iter().collect();
            let service = exact_service(&work, &hp);
            let avail = |t: i64| t - hp.iter().map(|s| s.eval(Time(t))).sum::<i64>();
            for t in 0..=horizon {
                let inner = (0..=t)
                    .map(|s| {
                        let c_left = if s == 0 { 0 } else { work.eval(Time(s - 1)) };
                        avail(t) - avail(s) + c_left
                    })
                    .min()
                    .unwrap();
                let expect = inner.min(work.eval(Time(t)));
                prop_assert_eq!(service.eval(Time(t)), expect, "{} peers, t={}", k, t);
            }
        }
    }
}
