//! Parametric schedulability-region exploration.
//!
//! [`super::critical_scaling`] answers a one-dimensional question: how much
//! uniform execution-time headroom does a system have? For bursty systems
//! the designer's question is usually two-dimensional — *how does that
//! headroom erode as arrival bursts grow?* [`explore_region`] walks an
//! (execution-scale × burst-length) grid and reports, per burst length, the
//! schedulability frontier: the largest scale on the axis that stays
//! schedulable.
//!
//! The whole grid is driven through **one** [`AnalysisSession`]:
//!
//! * moving along the scale axis is [`AnalysisSession::schedulable_at_scale`]
//!   — an in-place exec rewrite that reuses interned pattern curves and the
//!   verdict memo;
//! * moving along the burst axis is one [`AnalysisSession::set_arrival`]
//!   delta per bursty job — a structural edit that invalidates exactly what
//!   the new envelope can reach.
//!
//! The walk order puts the delta the session can absorb most cheaply on
//! the **inner** axis. For the exact oracle that is the burst axis: a
//! burst edit dirties only the subjobs on the processors the train
//! crosses, so the session re-derives that cone and reuses every other
//! cached subjob curve and interned envelope verbatim (and re-probing the
//! unchanged scale leaves the caches clean). For the bounds-based oracles
//! — whose per-processor fixpoint memo an execution-time delta drops
//! entirely, and which reuse only verdict memos across scales — the scale
//! axis is inner, keeping each row on one arrival structure.
//!
//! The analysis frame (arrival window, horizon) is resolved **once**, from
//! the system at the *largest* requested burst length, and pinned for every
//! grid point. A window sized for the widest burst is sound for the
//! narrower ones (it only admits more instances than necessary), and a
//! shared frame keeps the per-row verdicts comparable and the session's
//! caches valid across deltas.
//!
//! Either way the inner axis is scanned **ascending with early exit**: the
//! analyses here are monotone both in a uniform execution scale (scaling up
//! only raises workload curves and blocking terms) and in the burst length
//! (a longer train only raises the arrival envelope), so the first
//! unschedulable point settles the rest of its line. On a 32×32 grid whose
//! frontiers sit mid-axis, roughly half the probes are never run at all.

use crate::config::AnalysisConfig;
use crate::error::AnalysisError;
use crate::sensitivity::Oracle;
use crate::session::{AnalysisSession, SessionStats};
use rta_model::{ArrivalPattern, JobId, TaskSystem};

/// Axes and oracle of one region exploration.
#[derive(Clone, Debug)]
pub struct RegionConfig {
    /// Execution-scale axis, strictly ascending, all positive and finite.
    pub scales: Vec<f64>,
    /// Burst-length axis applied to every [`ArrivalPattern::BurstTrain`]
    /// job (other arrival patterns are left untouched).
    pub burst_lens: Vec<u32>,
    /// Schedulability oracle used at every grid point.
    pub oracle: Oracle,
}

impl RegionConfig {
    /// Evenly spaced axes: `scale_steps` points across `[scale_lo,
    /// scale_hi]` and `burst_steps` integer burst lengths across
    /// `[burst_lo, burst_hi]` (rounded to the lattice and deduplicated, so
    /// fewer than `burst_steps` rows may result when the range is narrow).
    pub fn grid(
        scale_lo: f64,
        scale_hi: f64,
        scale_steps: usize,
        burst_lo: u32,
        burst_hi: u32,
        burst_steps: usize,
        oracle: Oracle,
    ) -> RegionConfig {
        assert!(scale_steps >= 1 && burst_steps >= 1);
        assert!(scale_lo > 0.0 && scale_hi >= scale_lo && scale_hi.is_finite());
        assert!(burst_lo >= 1 && burst_hi >= burst_lo);
        let lerp = |lo: f64, hi: f64, i: usize, n: usize| {
            if n == 1 {
                lo
            } else {
                lo + (hi - lo) * i as f64 / (n - 1) as f64
            }
        };
        let scales = (0..scale_steps)
            .map(|i| lerp(scale_lo, scale_hi, i, scale_steps))
            .collect();
        let mut burst_lens: Vec<u32> = (0..burst_steps)
            .map(|i| lerp(burst_lo as f64, burst_hi as f64, i, burst_steps).round() as u32)
            .collect();
        burst_lens.dedup();
        RegionConfig {
            scales,
            burst_lens,
            oracle,
        }
    }
}

/// One burst-length row of the explored region.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionRow {
    /// Burst length applied to every burst-train job for this row.
    pub burst_len: u32,
    /// Verdict per scale-axis point (aligned with [`RegionReport::scales`]).
    /// Points beyond the first unschedulable point of their grid line are
    /// `false` by monotonicity without having been probed.
    pub schedulable: Vec<bool>,
    /// Largest scale on the axis that is schedulable, if any.
    pub frontier: Option<f64>,
}

/// The explored schedulability region.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionReport {
    /// The scale axis shared by every row.
    pub scales: Vec<f64>,
    /// One row per requested burst length, in axis order.
    pub rows: Vec<RegionRow>,
    /// Grid points actually analyzed (early exit skips the remainder).
    pub probes: usize,
    /// Session reuse counters accumulated over the whole walk.
    pub stats: SessionStats,
}

impl RegionReport {
    /// Serialize the region as a JSON object (hand-rolled — the crate has
    /// no serialization dependency): `scales`, `rows` (each with
    /// `burst_len`, `frontier` — `null` when empty — and the per-scale
    /// `schedulable` mask), and the `probes` count.
    pub fn to_json(&self) -> String {
        fn join<T, F: FnMut(&T) -> String>(items: &[T], f: F) -> String {
            items.iter().map(f).collect::<Vec<_>>().join(",")
        }
        let mut s = String::from("{\n  \"scales\": [");
        s.push_str(&join(&self.scales, |x| format!("{x}")));
        s.push_str("],\n  \"rows\": [\n");
        let rows = join(&self.rows, |r| {
            let frontier = r
                .frontier
                .map_or_else(|| "null".to_string(), |x| format!("{x}"));
            let mask = join(&r.schedulable, |b| b.to_string());
            format!(
                "    {{\"burst_len\": {}, \"frontier\": {frontier}, \"schedulable\": [{mask}]}}",
                r.burst_len
            )
        });
        s.push_str(&rows.replace("},", "},\n"));
        s.push_str(&format!("\n  ],\n  \"probes\": {}\n}}\n", self.probes));
        s
    }
}

/// `pat` with its burst length replaced, leaving every other arrival
/// pattern (and the train's gap/period/offset) untouched.
fn with_burst_len(pat: &ArrivalPattern, len: u32) -> ArrivalPattern {
    match *pat {
        ArrivalPattern::BurstTrain {
            intra_gap,
            train_period,
            offset,
            ..
        } => ArrivalPattern::BurstTrain {
            burst_len: len,
            intra_gap,
            train_period,
            offset,
        },
        ref other => other.clone(),
    }
}

/// Ids of the jobs whose arrival is a burst train.
fn bursty_jobs(sys: &TaskSystem) -> Vec<JobId> {
    sys.jobs()
        .iter()
        .enumerate()
        .filter(|(_, j)| matches!(j.arrival, ArrivalPattern::BurstTrain { .. }))
        .map(|(k, _)| JobId(k))
        .collect()
}

/// Walk the (scale × burst-length) schedulability region of `sys` through
/// one incremental [`AnalysisSession`] (see the module docs for the walk
/// order and frame-pinning argument).
///
/// Burst lengths are applied to every burst-train job; a system without
/// burst trains degenerates to identical rows. Requested burst lengths that
/// would make a job's trains overlap are rejected up front with
/// [`rta_model::ModelError::OverlappingBursts`] rather than failing mid-walk.
pub fn explore_region(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    region: &RegionConfig,
) -> Result<RegionReport, AnalysisError> {
    assert!(!region.scales.is_empty() && !region.burst_lens.is_empty());
    assert!(
        region
            .scales
            .windows(2)
            .all(|w| w[0] < w[1] && w[0].is_finite())
            && region.scales[0] > 0.0
            && region.scales[region.scales.len() - 1].is_finite(),
        "scales must be strictly ascending, positive and finite"
    );
    assert!(
        region.burst_lens.iter().all(|&b| b >= 1),
        "burst lengths must be at least 1"
    );

    let bursty = bursty_jobs(sys);

    // Widest-burst variant: validates every requested row up front (overlap
    // is monotone in the burst length) and fixes the shared frame.
    let max_burst = *region.burst_lens.iter().max().unwrap();
    let mut frame_sys = sys.clone();
    for &id in &bursty {
        frame_sys.set_arrival(id, with_burst_len(&frame_sys.job(id).arrival, max_burst));
    }
    frame_sys.validate(false)?;
    let (window, horizon) = cfg.try_resolve(&frame_sys)?;
    let pinned = AnalysisConfig {
        arrival_window: Some(window),
        horizon: Some(horizon),
        ..cfg.clone()
    };

    let mut session = AnalysisSession::pinned(sys.clone(), pinned);
    let (ns, nb) = (region.scales.len(), region.burst_lens.len());
    let mut masks = vec![vec![false; ns]; nb];
    let mut probes = 0usize;
    if matches!(region.oracle, Oracle::Exact) {
        // Scale-outer, burst-inner: the inner delta is one `set_arrival`
        // per bursty job, whose dirty cone covers only the processors the
        // burst train crosses — the exact path's cached subjob curves and
        // interned envelopes of every untouched job are reused verbatim,
        // and `scale_exec` at an unchanged factor leaves them all clean.
        // Both axes are monotone, so a column stops at its first
        // unschedulable burst, and the first column that fails at the
        // smallest burst settles every later column.
        'columns: for (si, &scale) in region.scales.iter().enumerate() {
            for (bi, &burst_len) in region.burst_lens.iter().enumerate() {
                for &id in &bursty {
                    let pat = with_burst_len(&session.system().job(id).arrival, burst_len);
                    session.set_arrival(id, pat);
                }
                probes += 1;
                if session.schedulable_at_scale(scale, region.oracle)? {
                    masks[bi][si] = true;
                } else if bi == 0 {
                    break 'columns; // wider scales fail everywhere too
                } else {
                    break; // monotone in the burst: the rest of the column fails
                }
            }
        }
    } else {
        // Burst-outer, scale-inner: a scale probe drops the whole fixpoint
        // memo, so the walk keeps each row on one arrival structure and
        // lets the session's verdict memo absorb repeated scale probes.
        for (bi, &burst_len) in region.burst_lens.iter().enumerate() {
            for &id in &bursty {
                let pat = with_burst_len(&session.system().job(id).arrival, burst_len);
                session.set_arrival(id, pat);
            }
            for (si, &scale) in region.scales.iter().enumerate() {
                probes += 1;
                if session.schedulable_at_scale(scale, region.oracle)? {
                    masks[bi][si] = true;
                } else {
                    break; // monotone in the scale: the rest of the row fails
                }
            }
        }
    }
    let rows = region
        .burst_lens
        .iter()
        .zip(masks)
        .map(|(&burst_len, schedulable)| {
            let frontier = schedulable
                .iter()
                .rposition(|&s| s)
                .map(|i| region.scales[i]);
            RegionRow {
                burst_len,
                schedulable,
                frontier,
            }
        })
        .collect();
    Ok(RegionReport {
        scales: region.scales.clone(),
        rows,
        probes,
        stats: session.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_curves::Time;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ModelError, SchedulerKind, SystemBuilder};

    /// One SPP processor, a burst-train job and a periodic victim.
    fn bursty_sys(intra_gap: i64, train_period: i64) -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job(
            "burst",
            Time(40),
            ArrivalPattern::BurstTrain {
                burst_len: 1,
                intra_gap: Time(intra_gap),
                train_period: Time(train_period),
                offset: Time::ZERO,
            },
            vec![(p, Time(4))],
        );
        b.add_job(
            "victim",
            Time(30),
            ArrivalPattern::Periodic {
                period: Time(30),
                offset: Time::ZERO,
            },
            vec![(p, Time(6))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RateMonotonic).unwrap();
        sys
    }

    #[test]
    fn grid_axes_are_even_and_deduplicated() {
        let r = RegionConfig::grid(0.5, 2.0, 4, 1, 8, 8, Oracle::Exact);
        assert_eq!(r.scales, vec![0.5, 1.0, 1.5, 2.0]);
        assert_eq!(r.burst_lens, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // A narrow burst range collapses duplicate rounded points.
        let r = RegionConfig::grid(1.0, 1.0, 1, 1, 2, 5, Oracle::Exact);
        assert_eq!(r.scales, vec![1.0]);
        assert_eq!(r.burst_lens, vec![1, 2]);
    }

    #[test]
    fn frontier_is_monotone_and_matches_cold_analysis() {
        let sys = bursty_sys(5, 120);
        let cfg = AnalysisConfig::default();
        let region = RegionConfig {
            scales: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            burst_lens: vec![1, 3, 6],
            oracle: Oracle::Exact,
        };
        let report = explore_region(&sys, &cfg, &region).unwrap();
        assert_eq!(report.rows.len(), 3);
        assert!(report.probes <= 15);

        // Growing the burst can only shrink the frontier.
        let frontiers: Vec<f64> = report
            .rows
            .iter()
            .map(|r| r.frontier.expect("schedulable somewhere"))
            .collect();
        assert!(frontiers.windows(2).all(|w| w[1] <= w[0]), "{frontiers:?}");

        // Every cell (probed or settled by monotone early exit) must agree
        // with a cold analysis of the correspondingly edited system, under
        // the same pinned frame the walk used.
        let max_burst = 6;
        let mut frame_sys = sys.clone();
        for id in bursty_jobs(&sys) {
            frame_sys.set_arrival(id, with_burst_len(&frame_sys.job(id).arrival, max_burst));
        }
        let (window, horizon) = cfg.resolve(&frame_sys);
        let pinned = AnalysisConfig {
            arrival_window: Some(window),
            horizon: Some(horizon),
            ..cfg.clone()
        };
        for row in &report.rows {
            for (i, &scale) in report.scales.iter().enumerate() {
                let mut cold = sys.clone();
                for id in bursty_jobs(&sys) {
                    cold.set_arrival(id, with_burst_len(&cold.job(id).arrival, row.burst_len));
                }
                let cold = cold.with_scaled_exec(scale);
                let verdict = crate::analyze_exact_spp(&cold, &pinned)
                    .unwrap()
                    .all_schedulable();
                assert_eq!(
                    verdict, row.schedulable[i],
                    "burst {} scale {scale}",
                    row.burst_len
                );
            }
        }
    }

    /// Two SPNP stages crossed by the burst-train flow, each with a local
    /// periodic job — the loop-tolerant fixpoint's home turf.
    fn bursty_spnp_pipeline() -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("stage-1", SchedulerKind::Spnp);
        let p2 = b.add_processor("stage-2", SchedulerKind::Spnp);
        b.add_job(
            "bursty-flow",
            Time(300),
            ArrivalPattern::BurstTrain {
                burst_len: 1,
                intra_gap: Time(8),
                train_period: Time(400),
                offset: Time::ZERO,
            },
            vec![(p1, Time(12)), (p2, Time(9))],
        );
        b.add_job(
            "local-1",
            Time(80),
            ArrivalPattern::Periodic {
                period: Time(80),
                offset: Time::ZERO,
            },
            vec![(p1, Time(16))],
        );
        b.add_job(
            "local-2",
            Time(120),
            ArrivalPattern::Periodic {
                period: Time(120),
                offset: Time(5),
            },
            vec![(p2, Time(20))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        sys
    }

    #[test]
    fn loops_oracle_cells_match_cold_fixpoint() {
        // The memoized session fixpoint must reach the same verdicts as
        // a cold `analyze_with_loops` per cell — the property the
        // `region/32x32_grid` vs `_cold` bench pair relies on.
        let sys = bursty_spnp_pipeline();
        let cfg = AnalysisConfig::default();
        let rounds = 24;
        let region = RegionConfig {
            scales: vec![0.25, 0.5, 1.0, 1.5, 2.5],
            burst_lens: vec![1, 4, 8],
            oracle: Oracle::Loops { max_rounds: rounds },
        };
        let report = explore_region(&sys, &cfg, &region).unwrap();
        // The fixpoint memo accounts for every subjob of every run. Here
        // each probe moves the execution vector (a new scale) or the flow's
        // arrivals, whose train crosses both stages, so every probe drops
        // every processor's memo and nothing is copied.
        let subjobs = sys.all_subjobs().count() as u64;
        assert_eq!(
            report.stats.subjobs_recomputed,
            subjobs * report.stats.analyses,
            "{:?}",
            report.stats
        );
        assert_eq!(report.stats.subjobs_reused, 0, "{:?}", report.stats);

        let mut frame_sys = sys.clone();
        for id in bursty_jobs(&sys) {
            frame_sys.set_arrival(id, with_burst_len(&frame_sys.job(id).arrival, 8));
        }
        let (window, horizon) = cfg.resolve(&frame_sys);
        let pinned = AnalysisConfig {
            arrival_window: Some(window),
            horizon: Some(horizon),
            ..cfg.clone()
        };
        for row in &report.rows {
            for (i, &scale) in report.scales.iter().enumerate() {
                let mut cold = sys.clone();
                for id in bursty_jobs(&sys) {
                    cold.set_arrival(id, with_burst_len(&cold.job(id).arrival, row.burst_len));
                }
                let cold = cold.with_scaled_exec(scale);
                let verdict = crate::fixpoint::analyze_with_loops(&cold, &pinned, rounds)
                    .unwrap()
                    .all_schedulable();
                assert_eq!(
                    verdict, row.schedulable[i],
                    "burst {} scale {scale}",
                    row.burst_len
                );
            }
        }
    }

    #[test]
    fn rejects_burst_lengths_that_overlap_trains() {
        // Extent at burst 4 is 3·10 = 30 ≥ train period 25.
        let sys = bursty_sys(10, 25);
        let region = RegionConfig {
            scales: vec![1.0],
            burst_lens: vec![1, 2, 4],
            oracle: Oracle::Exact,
        };
        let err = explore_region(&sys, &AnalysisConfig::default(), &region).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::Model(ModelError::OverlappingBursts { job }) if job.0 == 0
        ));
    }

    #[test]
    fn json_has_axes_rows_and_probe_count() {
        let sys = bursty_sys(5, 120);
        let region = RegionConfig {
            scales: vec![0.5, 1.0],
            burst_lens: vec![1, 2],
            oracle: Oracle::Exact,
        };
        let report = explore_region(&sys, &AnalysisConfig::default(), &region).unwrap();
        let json = report.to_json();
        assert!(json.contains("\"scales\": [0.5,1]"), "{json}");
        assert_eq!(json.matches("\"burst_len\"").count(), 2, "{json}");
        assert!(json.contains("\"probes\""), "{json}");
        assert!(json.contains("\"schedulable\": ["), "{json}");
    }
}
