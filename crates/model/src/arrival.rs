//! Arrival patterns: how instances of a job are released over time.
//!
//! Section 3.1 of the paper removes the classical periodicity assumption:
//! instances may be released at arbitrary instants. The analysis consumes an
//! *arrival function* (a counting curve); this module generates the concrete
//! release-time sequences for the pattern families used in the paper and its
//! evaluation, plus a few standard bursty families.

use rta_curves::{SoaCurve, Time};

/// Release-time pattern of a job's first subjob.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalPattern {
    /// Strictly periodic releases `t_m = offset + (m−1)·period` — the
    /// classical model (Figure 1 top; Equation 25 with `offset = 0`).
    Periodic {
        /// Inter-release time in ticks (≥ 1).
        period: Time,
        /// Release time of the first instance.
        offset: Time,
    },
    /// The paper's bursty aperiodic stream (Equation 27):
    /// `t_m = (1/x)·√(x² + (m−1)²) − 1` time units.
    ///
    /// Early instances are released nearly simultaneously (the inter-release
    /// gap starts near zero) and the stream asymptotically settles to period
    /// `1/x` — a burst followed by a sustained rate.
    Hyperbolic {
        /// The rate parameter `x ∈ (0, 1)`.
        x: f64,
        /// Ticks per model-time unit used for quantization.
        ticks_per_unit: i64,
    },
    /// Periodic trains of dense bursts: every `train_period`, `burst_len`
    /// instances are released `intra_gap` apart.
    BurstTrain {
        /// Instances per burst (≥ 1).
        burst_len: u32,
        /// Gap between instances inside a burst.
        intra_gap: Time,
        /// Start-to-start distance between bursts (must exceed the burst
        /// extent).
        train_period: Time,
        /// Release time of the first burst.
        offset: Time,
    },
    /// Worst-case sporadic envelope: the densest stream permitted by a
    /// minimum inter-arrival separation, i.e. periodic at `min_gap` — the
    /// classical transformation (i) from the paper's introduction.
    SporadicEnvelope {
        /// Minimum inter-arrival separation (≥ 1 tick).
        min_gap: Time,
    },
    /// Periodic releases with bounded release jitter, realized as the
    /// classical worst-case (densest) pattern: a maximally-delayed first
    /// instance followed by on-time successors,
    /// `t_m = offset + max(0, (m−1)·period − jitter)`, so the count in any
    /// interval matches the jitter arrival bound `⌈(Δ + J)/T⌉` (Tindell et
    /// al., the paper's reference \[9\]).
    PeriodicJitter {
        /// Nominal period (≥ 1 tick).
        period: Time,
        /// Maximum release jitter `J ≥ 0`.
        jitter: Time,
        /// Release time of the (delayed) first instance.
        offset: Time,
    },
    /// An explicit, sorted release-time trace.
    Trace(Vec<Time>),
}

impl ArrivalPattern {
    /// All release times in `[0, window]`, sorted.
    pub fn release_times(&self, window: Time) -> Vec<Time> {
        let mut out = Vec::new();
        self.release_times_into(window, &mut out);
        out
    }

    /// [`ArrivalPattern::release_times`] writing into a caller-provided
    /// buffer (cleared first), so hot re-analysis paths can reuse its
    /// capacity across calls.
    pub fn release_times_into(&self, window: Time, out: &mut Vec<Time>) {
        out.clear();
        match self {
            ArrivalPattern::Periodic { period, offset } => {
                assert!(*period >= Time::ONE, "period must be at least one tick");
                let mut t = *offset;
                while t <= window {
                    out.push(t);
                    t += *period;
                }
            }
            ArrivalPattern::Hyperbolic { x, ticks_per_unit } => {
                assert!(*x > 0.0 && *x < 1.0, "Eq. 27 requires x in (0,1)");
                let mut m: u64 = 1;
                loop {
                    let i = (m - 1) as f64;
                    let units = (x * x + i * i).sqrt() / x - 1.0;
                    // Floor: releasing earlier is the conservative direction.
                    let t = Time::from_units_floor(units, *ticks_per_unit).max(Time::ZERO);
                    if t > window {
                        break;
                    }
                    out.push(t);
                    m += 1;
                }
            }
            ArrivalPattern::BurstTrain {
                burst_len,
                intra_gap,
                train_period,
                offset,
            } => {
                assert!(*burst_len >= 1);
                let extent = *intra_gap * (*burst_len as i64 - 1);
                assert!(
                    *train_period > extent,
                    "bursts must not overlap: train_period must exceed the burst extent"
                );
                let mut start = *offset;
                'outer: loop {
                    for i in 0..*burst_len {
                        let t = start + *intra_gap * i as i64;
                        if t > window {
                            break 'outer;
                        }
                        out.push(t);
                    }
                    start += *train_period;
                    if start > window {
                        break;
                    }
                }
            }
            ArrivalPattern::SporadicEnvelope { min_gap } => ArrivalPattern::Periodic {
                period: *min_gap,
                offset: Time::ZERO,
            }
            .release_times_into(window, out),
            ArrivalPattern::PeriodicJitter {
                period,
                jitter,
                offset,
            } => {
                assert!(*period >= Time::ONE, "period must be at least one tick");
                assert!(*jitter >= Time::ZERO, "jitter must be nonnegative");
                let mut m: i64 = 0;
                loop {
                    let t = *offset + (*period * m - *jitter).max(Time::ZERO);
                    if t > window {
                        break;
                    }
                    out.push(t);
                    m += 1;
                }
            }
            ArrivalPattern::Trace(times) => {
                debug_assert!(
                    times.windows(2).all(|w| w[0] <= w[1]),
                    "trace must be sorted"
                );
                out.extend(times.iter().copied().filter(|t| *t <= window));
            }
        }
    }

    /// The arrival function `f_arr` (Definition 1) on `[0, window]` as a
    /// counting curve.
    pub fn arrival_curve(&self, window: Time) -> SoaCurve {
        let mut c = SoaCurve::zero();
        SoaCurve::from_event_times_into(&self.release_times(window), &mut c);
        c
    }

    /// The classical transformation (i) of the paper's introduction:
    /// abstract this pattern into its sporadic envelope — periodic at the
    /// minimum inter-arrival separation observed over `window`.
    ///
    /// The transformed pattern dominates the original pointwise (it
    /// releases at least as many instances by every instant), so analyzing
    /// it is conservative — and, as the paper argues, typically much more
    /// pessimistic than analyzing the bursty pattern directly. Returns
    /// `None` when fewer than two releases fall inside the window or two
    /// releases coincide (no finite positive separation exists).
    pub fn sporadic_envelope(&self, window: Time) -> Option<ArrivalPattern> {
        let times = self.release_times(window);
        let min_gap = times.windows(2).map(|w| w[1] - w[0]).min()?;
        (min_gap > Time::ZERO).then_some(ArrivalPattern::SporadicEnvelope { min_gap })
    }

    /// Nominal long-run period in ticks, where one exists (used by
    /// rate-monotonic priority assignment and utilization accounting).
    pub fn nominal_period(&self, ticks_per_unit_hint: i64) -> Option<Time> {
        match self {
            ArrivalPattern::Periodic { period, .. } => Some(*period),
            ArrivalPattern::Hyperbolic { x, ticks_per_unit } => {
                let _ = ticks_per_unit_hint;
                Some(Time::from_units(1.0 / x, *ticks_per_unit))
            }
            ArrivalPattern::BurstTrain {
                burst_len,
                train_period,
                ..
            } => Some(Time(train_period.ticks() / *burst_len as i64)),
            ArrivalPattern::SporadicEnvelope { min_gap } => Some(*min_gap),
            ArrivalPattern::PeriodicJitter { period, .. } => Some(*period),
            ArrivalPattern::Trace(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_release_times() {
        let p = ArrivalPattern::Periodic {
            period: Time(10),
            offset: Time(3),
        };
        assert_eq!(
            p.release_times(Time(35)),
            vec![Time(3), Time(13), Time(23), Time(33)]
        );
        let c = p.arrival_curve(Time(35));
        assert_eq!(c.eval(Time(2)), 0);
        assert_eq!(c.eval(Time(33)), 4);
    }

    #[test]
    fn hyperbolic_starts_at_zero_and_settles_to_period() {
        let x = 0.5;
        let tpu = 1000;
        let p = ArrivalPattern::Hyperbolic {
            x,
            ticks_per_unit: tpu,
        };
        let ts = p.release_times(Time(20_000));
        // Eq. 27 with m = 1: t = (1/x)·√(x²) − 1 = 0.
        assert_eq!(ts[0], Time::ZERO);
        // Early gaps are compressed below the asymptotic period 1/x = 2
        // (first gap = (1/x)·√(x²+1) − 1 ≈ (1−x)·period for small x), and
        // gaps are strictly increasing toward the period.
        let gaps: Vec<i64> = ts.windows(2).map(|w| (w[1] - w[0]).ticks()).collect();
        assert!(gaps[0] < 2 * tpu, "first gap {} below period", gaps[0]);
        assert!(
            gaps.windows(2).all(|g| g[0] <= g[1]),
            "gaps widen monotonically: {gaps:?}"
        );
        // Late gaps approach 1/x = 2 units = 2000 ticks.
        let late_gap = *gaps.last().unwrap();
        assert!(
            (late_gap - 2000).abs() <= 5,
            "late gap {late_gap} should approach the period"
        );
    }

    #[test]
    fn hyperbolic_dominates_periodic_counts() {
        // Eq. 27 releases every instance no later than the periodic stream
        // of the same rate (√(x²+i²) ≤ i + x), so its arrival curve
        // dominates pointwise — the burst front-loads work.
        let tpu = 1000;
        let p = ArrivalPattern::Hyperbolic {
            x: 0.9,
            ticks_per_unit: tpu,
        };
        let period = Time::from_units(1.0 / 0.9, tpu);
        let per = ArrivalPattern::Periodic {
            period,
            offset: Time::ZERO,
        };
        let w = Time(12_000);
        let (cb, cp) = (p.arrival_curve(w), per.arrival_curve(w));
        let mut strictly = false;
        for t in (0..=w.ticks()).step_by(97) {
            let (nb, np) = (cb.eval(Time(t)), cp.eval(Time(t)));
            assert!(nb >= np, "bursty count must dominate at t={t}");
            strictly |= nb > np;
        }
        assert!(strictly, "burst must be strictly ahead somewhere");
    }

    #[test]
    fn burst_train_pattern() {
        let p = ArrivalPattern::BurstTrain {
            burst_len: 3,
            intra_gap: Time(2),
            train_period: Time(20),
            offset: Time(1),
        };
        assert_eq!(
            p.release_times(Time(25)),
            vec![Time(1), Time(3), Time(5), Time(21), Time(23), Time(25)]
        );
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_burst_train_rejected() {
        let p = ArrivalPattern::BurstTrain {
            burst_len: 5,
            intra_gap: Time(10),
            train_period: Time(20),
            offset: Time::ZERO,
        };
        let _ = p.release_times(Time(100));
    }

    #[test]
    fn sporadic_envelope_is_dense_periodic() {
        let s = ArrivalPattern::SporadicEnvelope { min_gap: Time(7) };
        assert_eq!(s.release_times(Time(20)), vec![Time(0), Time(7), Time(14)]);
    }

    #[test]
    fn periodic_jitter_worst_case_pattern() {
        let p = ArrivalPattern::PeriodicJitter {
            period: Time(10),
            jitter: Time(4),
            offset: Time::ZERO,
        };
        // First instance maximally delayed, the rest on time relative to it:
        // t = 0, 6, 16, 26, …
        assert_eq!(
            p.release_times(Time(30)),
            vec![Time(0), Time(6), Time(16), Time(26)]
        );
        // Counts match the classical jitter bound: releases in the
        // half-open window [0, Δ+1) number ⌈(Δ + 1 + J)/T⌉.
        let c = p.arrival_curve(Time(100));
        for d in 0i64..=60 {
            let classic = ((d + 1 + 4) as f64 / 10.0).ceil() as i64;
            assert_eq!(c.eval(Time(d)), classic, "Δ={d}");
        }
        // Zero jitter degenerates to plain periodic.
        let plain = ArrivalPattern::PeriodicJitter {
            period: Time(10),
            jitter: Time::ZERO,
            offset: Time(2),
        };
        assert_eq!(
            plain.release_times(Time(25)),
            vec![Time(2), Time(12), Time(22)]
        );
    }

    #[test]
    fn sporadic_envelope_transformation_dominates() {
        // The paper's motivating comparison: transforming a bursty stream
        // into its sporadic envelope inflates the arrival function.
        let bursty = ArrivalPattern::Trace(vec![Time(0), Time(3), Time(4), Time(20)]);
        let env = bursty.sporadic_envelope(Time(30)).unwrap();
        assert_eq!(env, ArrivalPattern::SporadicEnvelope { min_gap: Time(1) });
        let (cb, ce) = (bursty.arrival_curve(Time(30)), env.arrival_curve(Time(30)));
        for t in 0..=30 {
            assert!(ce.eval(Time(t)) >= cb.eval(Time(t)), "t={t}");
        }
        // Degenerate cases yield no transformation.
        assert_eq!(
            ArrivalPattern::Trace(vec![Time(5)]).sporadic_envelope(Time(30)),
            None
        );
        assert_eq!(
            ArrivalPattern::Trace(vec![Time(5), Time(5)]).sporadic_envelope(Time(30)),
            None
        );
    }

    #[test]
    fn trace_is_window_filtered() {
        let t = ArrivalPattern::Trace(vec![Time(1), Time(4), Time(40)]);
        assert_eq!(t.release_times(Time(10)), vec![Time(1), Time(4)]);
    }

    #[test]
    fn nominal_periods() {
        assert_eq!(
            ArrivalPattern::Periodic {
                period: Time(10),
                offset: Time::ZERO
            }
            .nominal_period(1),
            Some(Time(10))
        );
        assert_eq!(
            ArrivalPattern::Hyperbolic {
                x: 0.5,
                ticks_per_unit: 1000
            }
            .nominal_period(1),
            Some(Time(2000))
        );
        assert_eq!(ArrivalPattern::Trace(vec![]).nominal_period(1), None);
    }
}
