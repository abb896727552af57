//! Integration gates for the streaming WCDFP estimator.
//!
//! Three standing claims are pinned here rather than in unit tests because
//! they cross the public API boundary exactly as callers do:
//!
//! 1. **Merge determinism** — the worker-pool fold of [`estimate_fixed`]
//!    produces an accumulator *bit-identical* to the single-threaded
//!    reference fold [`accumulate_range`], in every sampling mode
//!    (property-tested over draw counts and seeds), and so does any split
//!    of the units into sub-ranges merged in any order — which exercises
//!    the merge even where the pool runs sequentially (one core). This is
//!    what makes `BENCH_wcdfp.json` numbers and daemon responses
//!    reproducible regardless of pool size.
//! 2. **Adaptive soundness** — an adaptive run's interval never excludes
//!    the point estimate of a much larger fixed-budget run on the same
//!    draw sequence.
//! 3. **Golden smoke** — a 2 000-draw run on a pinned two-job jitter
//!    system produces pinned miss counts and intervals (the same
//!    invocation `scripts/check.sh` replays).

use proptest::prelude::*;
use rta_core::wcdfp::{Mode, Stopping, WcdfpAccum};
use rta_curves::Time;
use rta_model::distributions::Dist;
use rta_model::jobshop::{ShopArrivals, ShopConfig};
use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder, TaskSystem};
use rta_sim::wcdfp::{accumulate_range, estimate_adaptive, estimate_fixed, DrawModel, WcdfpConfig};

/// Two jobs on one FCFS processor; J1's jitter window makes its verdict
/// genuinely random draw to draw, J2 is comfortable. Identical to the
/// system the unit tests use, rebuilt here through the public API.
fn jitter_system() -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p = b.add_processor("P1", SchedulerKind::Fcfs);
    b.add_job(
        "J1",
        Time(11),
        ArrivalPattern::PeriodicJitter {
            period: Time(20),
            jitter: Time(8),
            offset: Time(8),
        },
        vec![(p, Time(6))],
    );
    b.add_job(
        "J2",
        Time(40),
        ArrivalPattern::Periodic {
            period: Time(25),
            offset: Time::ZERO,
        },
        vec![(p, Time(7))],
    );
    b.build().unwrap()
}

/// A small bursty SPP job shop for the `Shop` draw model.
fn small_shop() -> ShopConfig {
    ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 4,
        scheduler: SchedulerKind::Spp,
        utilization: 0.6,
        arrivals: ShopArrivals::Bursty {
            deadline: Dist::Exponential { mean: 6.0 },
        },
        x_min: 0.25,
        ticks_per_unit: 100,
    }
}

/// Units folded for a given draw budget — mirrors the library's private
/// rounding (antithetic draws come in pairs).
fn units_for(mode: Mode, draws: u64) -> u64 {
    match mode {
        Mode::Antithetic => draws.div_ceil(2),
        _ => draws,
    }
}

fn empty_accum(model: &DrawModel, cfg: &WcdfpConfig) -> WcdfpAccum {
    let n_jobs = match model {
        DrawModel::Arrivals(sys) => sys.jobs().len(),
        DrawModel::Shop(shop) => shop.n_jobs,
    };
    WcdfpAccum::new(cfg.mode, n_jobs)
}

/// The sequential reference: fold every unit in one workspace, in order.
fn sequential_accum(model: &DrawModel, cfg: &WcdfpConfig, draws: u64) -> WcdfpAccum {
    let mut accum = empty_accum(model, cfg);
    accumulate_range(model, cfg, 0, units_for(cfg.mode, draws), &mut accum);
    accum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pool-folded accumulators are indistinguishable from the sequential
    /// fold: every counter, every histogram bucket, bit for bit.
    /// `PartialEq` on `WcdfpAccum` compares all of them.
    #[test]
    fn pool_fold_is_bit_identical_to_sequential_fold(
        draws in 1u64..40,
        seed in 0u64..1000,
        mode_ix in 0usize..3,
        sketches in any::<bool>(),
    ) {
        let mode = [Mode::Plain, Mode::Antithetic, Mode::Stratified(4)][mode_ix];
        let cfg = WcdfpConfig {
            mode,
            base_seed: seed,
            sketches,
            ..WcdfpConfig::default()
        };
        let model = DrawModel::Arrivals(jitter_system());
        let pooled = estimate_fixed(&model, &cfg, draws);
        let sequential = sequential_accum(&model, &cfg, draws);
        prop_assert_eq!(&pooled.accum, &sequential);
        // The derived intervals are a pure function of the accumulator,
        // but pin them too — they are what callers actually consume.
        let seq_estimates = sequential.estimates(cfg.confidence, cfg.ci);
        for (a, b) in pooled.estimates.iter().zip(&seq_estimates) {
            prop_assert_eq!(a.misses, b.misses);
            prop_assert_eq!(a.p.to_bits(), b.p.to_bits());
            prop_assert_eq!(a.lo.to_bits(), b.lo.to_bits());
            prop_assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        }
    }

    /// Any split of the units into sub-ranges, each folded on its own and
    /// merged in shuffled order, equals the single-range fold — response
    /// histograms and bound-tightness counts included.
    #[test]
    fn any_split_merged_in_any_order_equals_the_single_fold(
        (units, seed) in (1u64..10, 0u64..1000),
        cuts in prop::collection::vec(0u64..10, 0..4),
        keys in prop::collection::vec(0u64..1000, 5..6),
        (mode_ix, sketches, bounds, shop) in (0usize..3, any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let mode = [Mode::Plain, Mode::Antithetic, Mode::Stratified(4)][mode_ix];
        let cfg = WcdfpConfig {
            mode,
            base_seed: seed,
            sketches,
            bounds: bounds && shop,
            ..WcdfpConfig::default()
        };
        let model = if shop {
            DrawModel::Shop(small_shop())
        } else {
            DrawModel::Arrivals(jitter_system())
        };
        let mut whole = empty_accum(&model, &cfg);
        accumulate_range(&model, &cfg, 0, units, &mut whole);

        let mut ends: Vec<u64> = cuts.iter().map(|&c| c.min(units)).collect();
        ends.extend([0, units]);
        ends.sort_unstable();
        let mut parts: Vec<(u64, WcdfpAccum)> = ends
            .windows(2)
            .zip(&keys)
            .map(|(w, &key)| {
                let mut part = empty_accum(&model, &cfg);
                accumulate_range(&model, &cfg, w[0], w[1], &mut part);
                (key, part)
            })
            .collect();
        parts.sort_by_key(|&(key, _)| key);
        let mut merged = empty_accum(&model, &cfg);
        for (_, part) in &parts {
            merged.merge(part);
        }
        prop_assert_eq!(&merged, &whole);
        if sketches {
            prop_assert!(whole.jobs.iter().any(|j| j.responses.count() > 0));
        }
    }
}

/// An adaptive run that stops early must still be *consistent* with the
/// estimate a large fixed budget converges to: its interval may be wider,
/// but it must contain the fixed run's point estimate for every job.
/// Deterministic seeding makes this a pinned regression test, not a
/// statistical coin flip.
#[test]
fn adaptive_interval_never_excludes_fixed_estimate() {
    let model = DrawModel::Arrivals(jitter_system());
    let cfg = WcdfpConfig::default();
    let stop = Stopping {
        tolerance: 0.05,
        confidence: 0.95,
        threshold: None,
    };
    let fixed_budget: u64 = if cfg!(debug_assertions) {
        4_000
    } else {
        100_000
    };
    let adaptive = estimate_adaptive(&model, &cfg, &stop, fixed_budget);
    assert!(adaptive.converged, "tolerance 0.05 must be reachable");
    assert!(
        adaptive.draws < fixed_budget,
        "early stop must actually stop early"
    );
    let fixed = estimate_fixed(&model, &cfg, fixed_budget);
    for ((name, a), f) in adaptive
        .names
        .iter()
        .zip(&adaptive.estimates)
        .zip(&fixed.estimates)
    {
        assert!(
            a.lo <= f.p && f.p <= a.hi,
            "{name}: adaptive [{:.4}, {:.4}] excludes fixed point {:.4}",
            a.lo,
            a.hi,
            f.p
        );
    }
}

/// 2 000-draw golden smoke, pinned end to end. The numbers are a plain
/// Wilson readout of the pinned miss counters, so any drift means the
/// draw sequence, the engine, or the interval math changed.
#[test]
fn golden_smoke_2000_draws() {
    let model = DrawModel::Arrivals(jitter_system());
    let rep = estimate_fixed(&model, &WcdfpConfig::default(), 2_000);
    assert_eq!(rep.names, vec!["J1", "J2"]);
    assert_eq!(rep.draws, 2_000);
    let misses: Vec<u64> = rep.estimates.iter().map(|e| e.misses).collect();
    assert_eq!(misses, vec![588, 0]);
    let j1 = &rep.estimates[0];
    assert_eq!(j1.p, 0.294);
    assert!(
        (j1.lo - 0.274_443_321_382_680_07).abs() < 1e-12,
        "{}",
        j1.lo
    );
    assert!((j1.hi - 0.314_346_502_098_467_3).abs() < 1e-12, "{}", j1.hi);
    let j2 = &rep.estimates[1];
    assert_eq!(j2.p, 0.0);
    assert!(j2.hi < 0.002, "{}", j2.hi);
    // Histogram side of the same run: every J1 instance completed (a
    // missed deadline still finishes executing under FCFS), and the exact
    // quantiles sit at the exec-time floor and the observed maximum.
    let j1a = &rep.accum.jobs[0];
    assert_eq!(j1a.incomplete, 0);
    let r = &j1a.responses;
    assert_eq!(r.count(), 12_000);
    assert_eq!(r.quantile(0.5), Some(6));
    assert_eq!(r.quantile(0.99), Some(12));
    assert_eq!(r.max(), Some(12));
}
