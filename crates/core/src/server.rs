//! Aperiodic servers — the paper's Introduction, transformation (ii):
//! "having servers, which look like periodic jobs to the rest of the
//! system, execute the non-periodic jobs."
//!
//! A server reserves `budget` `Θ` units of processor time every `period`
//! `Π`; the rest of the system sees one periodic job `(Θ, Π)`, and the
//! bursty stream is served from the reservation. The guaranteed service of
//! such a reservation is the classical **supply bound function** of the
//! periodic resource model `Γ(Π, Θ)` (Shin & Lee, RTSS 2003):
//!
//! ```text
//! sbf(t) = k·Θ + max(0, t − (Π − Θ) − k·Π − (Π − Θ))   with k = ⌊(t − (Π − Θ))/Π⌋
//!        = 0 for t ≤ Π − Θ
//! ```
//!
//! — a slope-{0,1} staircase that drops straight into this library's
//! service-function machinery: the bursty job's response bound is the
//! horizontal deviation between its workload and `⌊sbf/τ⌋` departures,
//! exactly the Theorem 4 shape with the server's supply as the service
//! lower bound.
//!
//! This makes the paper's motivating comparison concrete: the same bursty
//! stream analyzed (a) directly on a shared processor with the paper's
//! method vs. (b) through a server reservation — see
//! `tests/transformations.rs::server_transformation_tradeoff`.
//!
//! ```
//! use rta_core::server::PeriodicServer;
//! use rta_curves::{Curve, Time};
//!
//! // 30% of a processor: 3 ticks of budget every 10.
//! let srv = PeriodicServer::new(Time(10), Time(3));
//! assert!((srv.bandwidth() - 0.3).abs() < 1e-12);
//!
//! // A 3-tick instance released at t = 0 is served, worst case, by the
//! // end of the first post-blackout budget chunk.
//! let arr = Curve::from_event_times(&[Time(0)]);
//! let bound = srv.response_bound(&arr, Time(3), Time(200)).unwrap();
//! assert_eq!(bound, Time(17));
//! ```

use crate::spp::exact_service_into;
use rta_curves::{Curve, Scratch, Segment, SoaCursor, SoaCurve, Time};

/// A periodic processor reservation `Γ(Π, Θ)`: `budget` units of service
/// every `period`, delivered anywhere inside the period.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PeriodicServer {
    /// Replenishment period `Π` (ticks, ≥ 1).
    pub period: Time,
    /// Budget `Θ` per period (ticks, `1 ≤ Θ ≤ Π`).
    pub budget: Time,
}

impl PeriodicServer {
    /// Construct, validating `1 ≤ Θ ≤ Π`.
    pub fn new(period: Time, budget: Time) -> PeriodicServer {
        assert!(budget >= Time::ONE && budget <= period, "need 1 ≤ Θ ≤ Π");
        PeriodicServer { period, budget }
    }

    /// Long-run fraction of the processor reserved.
    pub fn bandwidth(&self) -> f64 {
        self.budget.ticks() as f64 / self.period.ticks() as f64
    }

    /// The worst-case supply bound function on `[0, horizon]`:
    /// zero for `t ≤ Π − Θ` (the budget may have just been exhausted as
    /// early as possible and replenished as late as possible), then `Θ`
    /// units delivered per period, each period's delivery as late as
    /// possible — a staircase of slope-1 ramps.
    pub fn supply_curve(&self, horizon: Time) -> Curve {
        let pi = self.period.ticks();
        let theta = self.budget.ticks();
        let blackout = pi - theta;
        // Worst phasing: a full budget ends right at 0, the next budget is
        // delivered as late as possible: the k-th chunk (k ≥ 1) is the
        // slope-1 ramp on [blackout + (k−1)·Π + (Π − Θ) … +Θ], i.e. starting
        // at blackout + k·Π − Θ… equivalently 2·blackout + (k−1)·Π.
        let mut segs = vec![Segment::new(Time::ZERO, 0, 0)];
        let mut k: i64 = 0;
        loop {
            let ramp_start = 2 * blackout + k * pi;
            if ramp_start > horizon.ticks() {
                break;
            }
            let supplied = k * theta;
            if ramp_start == 0 {
                // Θ = Π: the reservation is the whole processor.
                return Curve::identity();
            }
            segs.push(Segment::new(Time(ramp_start), supplied, 1));
            segs.push(Segment::new(Time(ramp_start + theta), supplied + theta, 0));
            k += 1;
        }
        Curve::from_segments(segs)
    }

    /// Worst-case response bound for a stream of `τ`-sized instances with
    /// arrival function `arrival`, served FIFO from this reservation:
    /// the horizontal deviation between arrivals and the supply's
    /// departures. `None` if some instance is not served within `horizon`.
    pub fn response_bound(&self, arrival: &Curve, tau: Time, horizon: Time) -> Option<Time> {
        let workload = SoaCurve::from_curve(&arrival.scale(tau.ticks()));
        // Supply is capacity, service is capped by demand: the served work
        // is the Theorem-3 min-form with the supply as availability, i.e.
        // with the time the reservation withholds, `t − sbf(t)`, as the one
        // higher-priority peer.
        // The supply is nondecreasing, so the service is too.
        let (mut id, mut withheld) = (SoaCurve::zero(), SoaCurve::zero());
        id.set_affine(0, 1);
        id.sub_into(
            &SoaCurve::from_curve(&self.supply_curve(horizon)),
            &mut withheld,
        );
        let (mut service, mut departures) = (SoaCurve::zero(), SoaCurve::zero());
        exact_service_into(&workload, &[&withheld], &mut Scratch::new(), &mut service);
        service
            .floor_div_into(tau.ticks(), horizon, &mut departures)
            .ok()?;
        let mut dep = SoaCursor::new(&departures);
        let n = arrival.total_events();
        let mut worst = Time::ZERO;
        for m in 1..=n {
            let a = arrival.event_time(m).expect("within curve");
            let c = dep.inverse_at(m)?;
            worst = worst.max(c - a);
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supply_curve_matches_shin_lee_landmarks() {
        // Γ(Π=10, Θ=3): blackout 7, first ramp at 14.
        let s = PeriodicServer::new(Time(10), Time(3)).supply_curve(Time(100));
        assert_eq!(s.eval(Time(0)), 0);
        assert_eq!(s.eval(Time(13)), 0);
        assert_eq!(s.eval(Time(14)), 0);
        assert_eq!(s.eval(Time(15)), 1);
        assert_eq!(s.eval(Time(17)), 3);
        assert_eq!(s.eval(Time(24)), 3); // next ramp at 24
        assert_eq!(s.eval(Time(27)), 6);
        // Long-run slope = bandwidth.
        let far = s.eval(Time(97));
        assert!((far as f64 / 97.0 - 0.3).abs() < 0.1);
    }

    #[test]
    fn full_budget_is_the_whole_processor() {
        let s = PeriodicServer::new(Time(10), Time(10)).supply_curve(Time(50));
        assert_eq!(s, Curve::identity());
    }

    #[test]
    fn supply_is_sound_versus_any_phase() {
        // Simulate every budget placement (contiguous Θ anywhere in each
        // period, chosen adversarially per period = latest possible): the
        // sbf must lower-bound the windowed delivery from any start phase.
        let srv = PeriodicServer::new(Time(8), Time(3));
        let sbf = srv.supply_curve(Time(80));
        // Concrete adversarial supply: budget at the very start of each
        // period — the worst window begins right after a budget chunk.
        // Delivery function from phase φ: chunks at [kΠ, kΠ+Θ).
        let delivered = |from: i64, to: i64| -> i64 {
            // work delivered in [from, to) with chunks at [8k, 8k+3)
            let mut acc = 0;
            let mut k = from.div_euclid(8) - 1;
            while 8 * k < to {
                let (s, e) = (8 * k, 8 * k + 3);
                acc += (e.min(to) - s.max(from)).max(0);
                k += 1;
            }
            acc
        };
        for start in 0..16 {
            for span in 0..=60 {
                assert!(
                    sbf.eval(Time(span)) <= delivered(start, start + span),
                    "window [{start}, {}): sbf too optimistic",
                    start + span
                );
            }
        }
    }

    #[test]
    fn response_bound_single_instance() {
        // One 3-tick instance into Γ(10, 3): worst case waits the double
        // blackout (14) then is served within one ramp: completes by 17.
        let srv = PeriodicServer::new(Time(10), Time(3));
        let arr = Curve::from_event_times(&[Time(0)]);
        let d = srv.response_bound(&arr, Time(3), Time(200)).unwrap();
        assert_eq!(d, Time(17));
    }

    #[test]
    fn response_bound_burst_spans_periods() {
        // Three 3-tick instances at once: 9 units at Θ=3 per Π=10 ⇒ the
        // last one needs three budget chunks.
        let srv = PeriodicServer::new(Time(10), Time(3));
        let arr = Curve::from_event_times(&[Time(0), Time(0), Time(0)]);
        let d = srv.response_bound(&arr, Time(3), Time(200)).unwrap();
        // Chunks end at 17, 27, 37 in the worst phasing.
        assert_eq!(d, Time(37));
    }

    #[test]
    fn response_bound_unserved_within_horizon() {
        let srv = PeriodicServer::new(Time(10), Time(1));
        let arr = Curve::from_event_times(&[Time(0); 20]);
        // 20 × 5 = 100 units at 1 unit per 10 ticks: needs ~1000 ticks.
        assert_eq!(srv.response_bound(&arr, Time(5), Time(100)), None);
    }

    #[test]
    fn bigger_budget_never_hurts() {
        let arr = Curve::from_event_times(&[Time(0), Time(4), Time(11)]);
        let small = PeriodicServer::new(Time(10), Time(2))
            .response_bound(&arr, Time(2), Time(400))
            .unwrap();
        let large = PeriodicServer::new(Time(10), Time(5))
            .response_bound(&arr, Time(2), Time(400))
            .unwrap();
        assert!(large <= small, "{large:?} > {small:?}");
    }
}
