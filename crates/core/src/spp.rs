//! Exact service functions for preemptive static-priority scheduling
//! (Theorem 3).
//!
//! On an SPP processor the time available to subjob `T_{k,j}` is whatever
//! the strictly-higher-priority subjobs leave over:
//! `A(t) = t − Σ_hp S_h(t)` (Equation 10). The service actually received is
//!
//! ```text
//! S(t) = min( c(t),  min_{0 ≤ s ≤ t} ( A(t) − A(s) + c(s⁻) ) )
//! ```
//!
//! Intuition (Reich's backlog identity): pick the last instant `s` at which
//! the subjob had no pending work; everything that arrived *strictly before*
//! `s` had been served, and after `s` the subjob absorbs all available time.
//! The candidate therefore pairs the availability increment `A(t) − A(s)`
//! with the **left limit** `c(s⁻)` of the workload — an instance released
//! exactly at the busy-period start is served after `s`, not before. (The
//! paper's Equation 9 writes `c(s)`; with Definition 1's right-continuous
//! arrival functions the left limit is the reading under which the theorem
//! is physically consistent — e.g. a single 5-tick instance released at
//! `t = 0` has received exactly 4 ticks of service by `t = 4`, which
//! requires the `c(0⁻) = 0` candidate.) The outer `min` with `c(t)` covers
//! the empty-backlog case. On the tick lattice `c(s⁻) = c(s − 1)` with
//! `c(−1) = 0`.
//!
//! This is the busy-window bound of [`rta_curves::busy`] with no blocking
//! and the same peer sum at both ends of the window: one k-way sum of the
//! peers (none with one peer, whose service is read in place) and one
//! two-pass kernel call, temporaries from a [`Scratch`]. Neither `A` nor
//! any other intermediate of the formula is materialized besides the
//! running minimum. On exact peers the kernel's clamp to `[0, t]` and its
//! running maximum change nothing at any tick.
//!
//! ```
//! use rta_core::spp::exact_service_into;
//! use rta_curves::{Scratch, SoaCursor, SoaCurve, Time};
//!
//! // Two instances of 4 ticks each, released at 0 and 10, alone on the
//! // processor: served back to back within their periods.
//! let mut arrivals = SoaCurve::zero();
//! SoaCurve::from_event_times_into(&[Time(0), Time(10)], &mut arrivals);
//! let mut workload = SoaCurve::zero();
//! arrivals.scale_into(4, &mut workload);
//! let mut service = SoaCurve::zero();
//! exact_service_into(&workload, &[], &mut Scratch::new(), &mut service);
//! assert_eq!(service.eval(Time(4)), 4);   // first instance done
//! assert_eq!(service.eval(Time(9)), 4);   // idle gap
//! assert_eq!(service.eval(Time(14)), 8);  // second instance done
//!
//! // Departures per Theorem 2.
//! let mut dep = SoaCurve::zero();
//! service.floor_div_into(4, Time(100), &mut dep).unwrap();
//! assert_eq!(SoaCursor::new(&dep).inverse_at(2), Some(Time(14)));
//! ```

use rta_curves::{busy_window_into, sum_many_into, Scratch, SoaCurve, Time, WindowStart};

/// The exact SPP service function of a subjob (Theorem 3), written into
/// `out`: `S(t) = min( c(t), A(t) + min_{0 ≤ s ≤ t} ( c(s⁻) − A(s) ) )`
/// for the availability `A(t) = t − Σ_h S_h(t)` (Equation 10) its
/// higher-priority peers' exact services leave over.
///
pub fn exact_service_into(
    workload: &SoaCurve,
    hp_services: &[&SoaCurve],
    scratch: &mut Scratch,
    out: &mut SoaCurve,
) {
    let mut buf = scratch.take_soa();
    let hp_sum = peer_sum(hp_services, &mut buf);
    // The kernel's clamp and running maximum would hide a wrong peer sum
    // (overlapping peers), so check the exact shape before the call.
    debug_assert!(
        workload.is_nondecreasing(),
        "workload must be nondecreasing"
    );
    debug_assert!(
        grows_by_at_most_one_per_tick(hp_sum),
        "peer services must sum to a curve that grows by 0 or 1 per tick (peers overlap?)"
    );
    // `A(t) = t − Σ(t)` at both ends of the window, no blocking.
    busy_window_into(
        workload,
        hp_sum,
        hp_sum,
        Time::ZERO,
        WindowStart::Open,
        scratch,
        out,
    );
    debug_assert!(
        out.is_nondecreasing(),
        "exact SPP service must be nondecreasing"
    );
    debug_assert!(out.eval(Time::ZERO) >= 0, "service must be nonnegative");
    scratch.put_soa(buf);
}

/// `true` iff `c` grows by 0 or 1 from each tick to the next (within its
/// pieces and across each breakpoint): the shape of a sum of services that
/// never overlap.
fn grows_by_at_most_one_per_tick(c: &SoaCurve) -> bool {
    let v = c.view();
    let (s, x, m) = (v.starts(), v.values(), v.slopes());
    (0..s.len()).all(|i| {
        let step = if i == 0 {
            0
        } else {
            x[i] - (x[i - 1] + m[i - 1] * (s[i] - 1 - s[i - 1]))
        };
        (m[i] == 0 || m[i] == 1) && (step == 0 || step == 1)
    })
}

/// The pointwise sum of `peers`: the one peer itself, or their k-way sum
/// written into `buf` (the zero curve when there are none).
pub(crate) fn peer_sum<'a>(peers: &[&'a SoaCurve], buf: &'a mut SoaCurve) -> &'a SoaCurve {
    match peers {
        [one] => one,
        many => {
            sum_many_into(many, buf);
            buf
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{departure_time, workload};

    /// The kernel on a fresh scratch and output.
    fn service(c: &SoaCurve, hp: &[&SoaCurve]) -> SoaCurve {
        let mut out = SoaCurve::zero();
        exact_service_into(c, hp, &mut Scratch::new(), &mut out);
        out
    }

    /// Brute-force Theorem 3 on the lattice, with the availability `t − Σ`
    /// of the given peer services.
    fn brute_service(hp: &[&SoaCurve], c: &SoaCurve, horizon: i64) -> Vec<i64> {
        let avail = |t: i64| t - hp.iter().map(|s| s.eval(Time(t))).sum::<i64>();
        (0..=horizon)
            .map(|t| {
                let inner = (0..=t)
                    .map(|s| {
                        let c_left = if s == 0 { 0 } else { c.eval(Time(s - 1)) };
                        avail(t) - avail(s) + c_left
                    })
                    .min()
                    .unwrap();
                inner.min(c.eval(Time(t)))
            })
            .collect()
    }

    #[test]
    fn highest_priority_gets_everything_it_asks() {
        // Single subjob, arrivals at 0 and 10, τ = 4: S(t) follows t until the
        // backlog drains, then plateaus.
        let c = workload(&[0, 10], 4);
        let s = service(&c, &[]);
        let expect = brute_service(&[], &c, 20);
        for t in 0..=20 {
            assert_eq!(s.eval(Time(t)), expect[t as usize], "t={t}");
        }
        // Instance 1 served during [0,4), instance 2 during [10,14).
        assert_eq!(s.eval(Time(2)), 2);
        assert_eq!(s.eval(Time(4)), 4);
        assert_eq!(s.eval(Time(9)), 4);
        assert_eq!(s.eval(Time(14)), 8);
    }

    #[test]
    fn partial_service_mid_instance_is_exact() {
        // The boundary case that forces the left-limit reading: one 5-tick
        // instance at t = 0 must show exactly 4 ticks of service at t = 4.
        let s = service(&workload(&[0], 5), &[]);
        for t in 0..=10 {
            assert_eq!(s.eval(Time(t)), t.min(5), "t={t}");
        }
        assert_eq!(departure_time(&s, 5, 10, 1), Some(Time(5)));
    }

    #[test]
    fn low_priority_is_squeezed() {
        // Hp subjob: arrivals every 10, τ=4 ⇒ serves [0,4), [10,14), …
        let hp_s = service(&workload(&[0, 10], 4), &[]);
        // Lp subjob arrives at 0 with τ=8: gets [4,10) (6 ticks) + [14,16).
        let lp_s = service(&workload(&[0], 8), &[&hp_s]);
        assert_eq!(lp_s.eval(Time(4)), 0);
        assert_eq!(lp_s.eval(Time(10)), 6);
        assert_eq!(lp_s.eval(Time(14)), 6);
        assert_eq!(lp_s.eval(Time(16)), 8);
        assert_eq!(lp_s.eval(Time(30)), 8); // no more demand
                                            // Departure: single instance completes at 16.
        assert_eq!(departure_time(&lp_s, 8, 30, 1), Some(Time(16)));
    }

    #[test]
    fn matches_brute_force_with_zero_to_three_peers() {
        // Each peer is itself served exactly under the ones above it.
        let peers = [
            workload(&[0, 7, 14], 3),
            workload(&[2, 9], 2),
            workload(&[5], 4),
        ];
        let mut hp: Vec<SoaCurve> = Vec::new();
        for c in &peers {
            let refs: Vec<&SoaCurve> = hp.iter().collect();
            let s = service(c, &refs);
            hp.push(s);
        }
        let lp_c = workload(&[1, 8], 5);
        for k in 0..=hp.len() {
            let refs: Vec<&SoaCurve> = hp[..k].iter().collect();
            let lp_s = service(&lp_c, &refs);
            let expect = brute_service(&refs, &lp_c, 40);
            for t in 0..=40 {
                assert_eq!(lp_s.eval(Time(t)), expect[t as usize], "{k} peers, t={t}");
            }
        }
    }

    #[test]
    fn service_never_exceeds_workload_or_time() {
        let c = workload(&[0, 2, 4], 6);
        let s = service(&c, &[]);
        for t in 0..=40 {
            let t = Time(t);
            assert!(s.eval(t) <= c.eval(t));
            assert!(s.eval(t) <= t.ticks());
            assert!(s.eval(t) >= 0);
        }
    }

    #[test]
    fn idle_availability_before_arrival() {
        // Subjob arrives at 5: no service before, ramps after.
        let s = service(&workload(&[5], 3), &[]);
        assert_eq!(s.eval(Time(5)), 0);
        assert_eq!(s.eval(Time(6)), 1);
        assert_eq!(s.eval(Time(8)), 3);
        assert_eq!(s.eval(Time(100)), 3);
    }

    #[test]
    fn two_priority_levels_partition_the_processor() {
        // Both subjobs always-backlogged over [0, 12): hp takes everything,
        // lp gets nothing until hp drains.
        let hp_s = service(&workload(&[0, 4, 8], 4), &[]);
        let lp_s = service(&workload(&[0], 100), &[&hp_s]);
        // While both are backlogged the processor is never idle: the two
        // service functions partition elapsed time.
        for t in 0..=20 {
            let t = Time(t);
            assert_eq!(hp_s.eval(t) + lp_s.eval(t), t.ticks(), "t={t}");
        }
        // After hp drains at 12, lp absorbs everything.
        assert_eq!(lp_s.eval(Time(20)), 8);
    }

    #[test]
    fn warm_scratch_and_dirty_output_do_not_leak() {
        let hp_s = service(&workload(&[0, 6, 11], 3), &[]);
        let c = workload(&[0, 8], 4);
        let mut scratch = Scratch::new();
        let mut out = hp_s.clone(); // dirty
        for _ in 0..3 {
            exact_service_into(&c, &[&hp_s], &mut scratch, &mut out);
            assert_eq!(out, service(&c, &[&hp_s]));
        }
    }
}
