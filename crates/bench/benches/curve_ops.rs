//! Microbenchmarks of the exact curve algebra (the analysis inner loop).
//!
//! Run with `cargo bench -p rta-bench --bench curve_ops`. Uses the crate's
//! own [`rta_bench::harness::Bench`] (criterion is not in the offline
//! dependency closure). Every kernel writes into a warm output buffer and
//! draws its temporaries from a warm [`Scratch`], as the analysis drivers
//! run them.

use rta_bench::harness::Bench;
use rta_core::spp::exact_service_into;
use rta_curves::soa::pointwise_min_into;
use rta_curves::{
    fcfs_context_into, frontier_bound_into, iwrr_bounds_into, Curve, Scratch, SoaCursor, SoaCurve,
    Time,
};

/// A periodic arrival curve with `n` events spaced `gap` apart, scaled by
/// `k`.
fn arrivals(n: i64, gap: i64, k: i64) -> SoaCurve {
    let times: Vec<Time> = (0..n).map(|i| Time(i * gap)).collect();
    SoaCurve::from_curve(&Curve::from_event_times(&times).scale(k))
}

fn affine(v0: i64, slope: i64) -> SoaCurve {
    let mut c = SoaCurve::zero();
    c.set_affine(v0, slope);
    c
}

const SIZES: [i64; 3] = [16, 128, 1024];

fn main() {
    let mut b = Bench::new();
    let mut out = SoaCurve::zero();
    let mut scratch = Scratch::new();

    for n in SIZES {
        let mut saw = SoaCurve::zero();
        arrivals(n, 10, 3).sub_into(&affine(0, 1), &mut saw);
        b.run(&format!("running_min/{n}"), || {
            saw.running_min_into(&mut out)
        });
    }

    for n in SIZES {
        let a = arrivals(n, 10, 2);
        let b2 = affine(5, 1);
        b.run(&format!("pointwise_min/{n}"), || {
            pointwise_min_into(&a, &b2, &mut out)
        });
    }

    for n in SIZES {
        // A service-like curve: workload clipped by elapsed time.
        let mut service = SoaCurve::zero();
        arrivals(n, 10, 4).min_with_into(&affine(0, 1), &mut service);
        let horizon = Time(n * 10 + 100);
        b.run(&format!("floor_div/{n}"), || {
            service.floor_div_into(4, horizon, &mut out).unwrap()
        });
    }

    for n in SIZES {
        // An FCFS processor of two staircase workloads: its context, then
        // one subjob's Theorem 8 bound off the lower frontier.
        let (c, peer) = (arrivals(n, 10, 4), arrivals(n, 14, 3));
        let mut g = SoaCurve::zero();
        c.add_into(&peer, &mut g);
        let horizon = Time(n * 14 + 100);
        let (mut u, mut v1, mut v0) = (SoaCurve::zero(), SoaCurve::zero(), SoaCurve::zero());
        b.run(&format!("fcfs/context/{n}"), || {
            fcfs_context_into(&g, horizon, &mut u, &mut v1, &mut v0).unwrap()
        });
        b.run(&format!("fcfs/frontier_bound/{n}"), || {
            frontier_bound_into(&c, &v1, 1, 0, &mut out).unwrap()
        });
    }

    for n in SIZES {
        let mut hp = SoaCurve::zero();
        exact_service_into(&arrivals(n, 10, 3), &[], &mut scratch, &mut hp);
        let work = arrivals(n, 12, 5);
        b.run(&format!("thm3_service/{n}"), || {
            exact_service_into(&work, &[&hp], &mut scratch, &mut out)
        });
    }

    // IWRR's round-robin recurrence on a staircase workload whose round
    // is a few of its gaps long.
    for n in SIZES {
        let work = arrivals(n, 10, 3);
        let mut upper = SoaCurve::zero();
        let horizon = Time(n * 10 + 120);
        b.run(&format!("iwrr_bounds/{n}"), || {
            iwrr_bounds_into(&work, 25, 6, horizon, &mut scratch, &mut out, &mut upper).unwrap()
        });
    }

    // Cursor sweep vs front-rescanning inverse: the Theorem-1 inner loop.
    for n in SIZES {
        let arr = arrivals(n, 10, 1);
        let aos = arr.to_curve();
        b.run(&format!("inverse_sweep/cursor/{n}"), || {
            let mut cur = SoaCursor::new(&arr);
            let mut acc = Time::ZERO;
            for m in 1..=n {
                if let Some(t) = cur.inverse_at(m) {
                    acc += t;
                }
            }
            acc
        });
        b.run(&format!("inverse_sweep/rescan/{n}"), || {
            let mut acc = Time::ZERO;
            for m in 1..=n {
                if let Some(t) = aos.inverse_at(m) {
                    acc += t;
                }
            }
            acc
        });
    }
}
