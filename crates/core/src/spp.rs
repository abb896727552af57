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
//! The kernel runs on the structure-of-arrays layout, with temporaries
//! from a [`Scratch`]: the `+ t`/`− t` of the availability ride along
//! inside the fused linear combinations, so `A` itself is never
//! materialized.
//!
//! ```
//! use rta_core::spp::exact_service_into;
//! use rta_curves::{Curve, Scratch, SoaCurve, Time};
//!
//! // Two instances of 4 ticks each, released at 0 and 10, alone on the
//! // processor: served back to back within their periods.
//! let workload = SoaCurve::from_curve(&Curve::from_event_times(&[Time(0), Time(10)]).scale(4));
//! let mut service = SoaCurve::zero();
//! exact_service_into(&workload, &[], &mut Scratch::new(), &mut service);
//! assert_eq!(service.eval(Time(4)), 4);   // first instance done
//! assert_eq!(service.eval(Time(9)), 4);   // idle gap
//! assert_eq!(service.eval(Time(14)), 8);  // second instance done
//!
//! // Departures per Theorem 2.
//! let mut dep = SoaCurve::zero();
//! service.floor_div_into(4, Time(100), &mut dep).unwrap();
//! assert_eq!(dep.to_curve().event_time(2), Some(Time(14)));
//! ```

use rta_curves::{linear_combine_line_into, sum_many_into, Scratch, SoaCurve, Time};

/// The exact SPP service function of a subjob (Theorem 3), written into
/// `out`: `S(t) = min( c(t), A(t) + min_{0 ≤ s ≤ t} ( c(s⁻) − A(s) ) )`
/// for the availability `A(t) = t − Σ_h S_h(t)` (Equation 10) its
/// higher-priority peers' exact services leave over.
///
/// Any nondecreasing availability of slope 0 or 1 can be expressed this
/// way: a periodic reservation with supply `sbf` passes `t − sbf` as its
/// one peer ([`crate::server`]).
pub fn exact_service_into(
    workload: &SoaCurve,
    hp_services: &[&SoaCurve],
    scratch: &mut Scratch,
    out: &mut SoaCurve,
) {
    let mut hp_sum = scratch.take_soa();
    let mut c_prev = scratch.take_soa();
    let mut t1 = scratch.take_soa();
    let mut t2 = scratch.take_soa();
    sum_many_into(hp_services, &mut hp_sum);
    workload.shift_right_into(Time::ONE, 0, &mut c_prev);
    // c(s⁻) − A(s) = c(s⁻) + Σ S_h(s) − s, then its running minimum.
    linear_combine_line_into(&c_prev, 1, &hp_sum, 1, 0, -1, &mut t1);
    t1.running_min_into(&mut t2);
    // A(t) + run(t) = run(t) − Σ S_h(t) + t, capped by the demand.
    linear_combine_line_into(&t2, 1, &hp_sum, -1, 0, 1, &mut t1);
    t1.min_with_into(workload, out);
    debug_assert!(
        out.is_nondecreasing(),
        "exact SPP service must be nondecreasing (peers overlap?)"
    );
    debug_assert!(out.eval(Time::ZERO) >= 0, "service must be nonnegative");
    for c in [hp_sum, c_prev, t1, t2] {
        scratch.put_soa(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_curves::Curve;

    /// The kernel on an ingest workload.
    fn service(c: &Curve, hp: &[&SoaCurve]) -> SoaCurve {
        let mut out = SoaCurve::zero();
        exact_service_into(&SoaCurve::from_curve(c), hp, &mut Scratch::new(), &mut out);
        out
    }

    /// `τ`-workload of instances released at `times`.
    fn workload(times: &[i64], tau: i64) -> Curve {
        Curve::from_event_times(&times.iter().map(|&t| Time(t)).collect::<Vec<_>>()).scale(tau)
    }

    /// Brute-force Theorem 3 on the lattice, with the availability `t − Σ`
    /// of the given peer services.
    fn brute_service(hp: &[&SoaCurve], c: &Curve, horizon: i64) -> Vec<i64> {
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

    fn departure(s: &SoaCurve, tau: i64, horizon: i64) -> Curve {
        let mut dep = SoaCurve::zero();
        s.floor_div_into(tau, Time(horizon), &mut dep).unwrap();
        dep.to_curve()
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
        assert_eq!(departure(&s, 5, 10).event_time(1), Some(Time(5)));
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
        assert_eq!(departure(&lp_s, 8, 30).event_time(1), Some(Time(16)));
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
        let c = SoaCurve::from_curve(&workload(&[0, 8], 4));
        let mut scratch = Scratch::new();
        let mut out = hp_s.clone(); // dirty
        for _ in 0..3 {
            exact_service_into(&c, &[&hp_s], &mut scratch, &mut out);
            assert_eq!(out, service(&c.to_curve(), &[&hp_s]));
        }
    }
}
