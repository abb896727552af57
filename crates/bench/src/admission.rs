//! Admission-probability estimation (Section 5.1).
//!
//! "The admission probability is defined as the probability that a randomly
//! generated job set can meet its deadline requirements. […] In each run of
//! the simulation, 1,000 sets of jobs are randomly generated. We apply each
//! analysis method separately to determine how many sets of jobs can be
//! admitted."
//!
//! Each job set is identified by a seed; the same seed produces the same
//! periods, routes, weights and deadlines for every method (only the
//! scheduler kind differs), exactly as in the paper's methodology.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_core::bounds::bounds_schedulable;
use rta_core::{analyze_exact_spp, holistic::holistic_schedulable, AnalysisConfig};
use rta_model::jobshop::{generate, ShopConfig, ShopSampler};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::SchedulerKind;

/// The four analysis methods compared in Section 5.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Exact analysis, preemptive static priorities (Section 4.1).
    SppExact,
    /// Approximate analysis, non-preemptive static priorities (§4.2.2).
    SpnpApp,
    /// Approximate analysis, FCFS (§4.2.3).
    FcfsApp,
    /// Holistic baseline for periodic jobs (Sun & Liu / Tindell-Clark).
    SppSL,
}

impl Method {
    /// The scheduler the method analyzes.
    pub fn scheduler(self) -> SchedulerKind {
        match self {
            Method::SppExact | Method::SppSL => SchedulerKind::Spp,
            Method::SpnpApp => SchedulerKind::Spnp,
            Method::FcfsApp => SchedulerKind::Fcfs,
        }
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Method::SppExact => "SPP/Exact",
            Method::SpnpApp => "SPNP/App",
            Method::FcfsApp => "FCFS/App",
            Method::SppSL => "SPP/S&L",
        }
    }
}

/// Generate job set `seed` for `base` and decide admission under `method`.
pub fn admits(base: &ShopConfig, method: Method, seed: u64, acfg: &AnalysisConfig) -> bool {
    let mut cfg = base.clone();
    cfg.scheduler = method.scheduler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = match generate(&cfg, &mut rng) {
        Ok(s) => s,
        Err(_) => return false,
    };
    decide(&mut sys, method, acfg)
}

/// Assign priorities (Eq. 24) and run `method`'s analysis on a freshly
/// drawn system. Shared verdict tail of [`admits`] and the batched sweep.
fn decide(sys: &mut rta_model::TaskSystem, method: Method, acfg: &AnalysisConfig) -> bool {
    if method.scheduler().uses_priorities() {
        // The paper's relative-deadline-monotonic rule (Eq. 24).
        if assign_priorities(sys, PriorityPolicy::RelativeDeadlineMonotonic).is_err() {
            return false;
        }
    }
    match method {
        Method::SppExact => analyze_exact_spp(sys, acfg)
            .map(|r| r.all_schedulable())
            .unwrap_or(false),
        // Verdict-only drivers: the same analyses as `analyze_bounds` and
        // `analyze_holistic`, minus the report (and, for the bounds pass,
        // the work after the first job that cannot meet its deadline) —
        // the sweep only keeps the boolean.
        Method::SpnpApp | Method::FcfsApp => bounds_schedulable(sys, acfg).unwrap_or(false),
        Method::SppSL => holistic_schedulable(sys, acfg).unwrap_or(false),
    }
}

/// Estimate the admission probability of `method` over `sets` random job
/// sets derived from `master_seed`.
///
/// Runs on the batched scenario engine ([`rta_core::BatchAnalyzer`] over
/// the persistent worker pool): each participating thread redraws sets
/// into a reusable [`ShopSampler`] instead of rebuilding a `TaskSystem`
/// per seed. The `threads` argument is kept for API compatibility (the
/// pool sizes itself), and the estimate is a pure function of
/// `(base, method, sets, master_seed, acfg)` — each seed depends only on
/// its index, never on which worker ran it, so the result is identical to
/// the per-seed [`admits`] loop.
pub fn admission_probability(
    base: &ShopConfig,
    method: Method,
    sets: u32,
    master_seed: u64,
    threads: usize,
    acfg: &AnalysisConfig,
) -> f64 {
    let _ = threads;
    admission_probability_batched(base, method, sets, master_seed, acfg)
}

/// Batched estimator over [`rta_core::BatchAnalyzer`]: each participating
/// thread builds a [`ShopSampler`] once and redraws every set it claims
/// into that sampler's reusable `TaskSystem` (plus a cloned
/// [`AnalysisConfig`]), so the per-set cost is the random draws and the
/// warm, workspace-backed analysis — no per-set Strings, builders, or
/// shared-state captures.
///
/// Produces exactly the same estimate as [`admission_probability`]: the
/// sampler is draw-for-draw identical to `generate`
/// (`jobshop::ShopSampler`), and the verdict for seed `i` is a pure
/// function of `(base, method, master_seed, i, acfg)`.
pub fn admission_probability_batched(
    base: &ShopConfig,
    method: Method,
    sets: u32,
    master_seed: u64,
    acfg: &AnalysisConfig,
) -> f64 {
    assert!(sets >= 1);
    let mut shop = base.clone();
    shop.scheduler = method.scheduler();
    let batch = rta_core::BatchAnalyzer::new(acfg.clone());
    let admitted = batch
        .run(
            sets as usize,
            move |cfg| (ShopSampler::new(shop.clone()), cfg.clone()),
            move |(sampler, cfg), i| {
                let Ok(sampler) = sampler else {
                    // Template construction failed: `generate` would fail
                    // identically for every seed, so nothing admits.
                    return false;
                };
                let seed = master_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64);
                let mut rng = StdRng::seed_from_u64(seed);
                match sampler.sample(&mut rng) {
                    Ok(sys) => decide(sys, method, cfg),
                    Err(_) => false,
                }
            },
        )
        .into_iter()
        .filter(|&a| a)
        .count();
    admitted as f64 / sets as f64
}

/// Default thread count: all cores (the estimator is CPU-bound).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::distributions::Dist;
    use rta_model::jobshop::ShopArrivals;

    fn base(util: f64) -> ShopConfig {
        ShopConfig {
            stages: 1,
            procs_per_stage: 2,
            n_jobs: 4,
            scheduler: SchedulerKind::Spp,
            utilization: util,
            arrivals: ShopArrivals::Periodic {
                deadline_factor: 2.0,
            },
            x_min: 0.25,
            ticks_per_unit: 200,
        }
    }

    #[test]
    fn probability_is_monotone_in_load() {
        let acfg = AnalysisConfig::default();
        let lo = admission_probability(&base(0.2), Method::SppExact, 40, 7, 2, &acfg);
        let hi = admission_probability(&base(0.95), Method::SppExact, 40, 7, 2, &acfg);
        assert!(
            lo >= hi,
            "admission must not increase with load: {lo} < {hi}"
        );
        assert!(lo > 0.5, "light load should mostly admit: {lo}");
    }

    #[test]
    fn exact_dominates_approximations_on_identical_draws() {
        // Method comparison is per-seed: whenever SPNP/App admits, the
        // (preemptive, exact) SPP/Exact analysis must admit the same draw —
        // preemptive scheduling is inherently superior (Section 5.2) and
        // the exact analysis is tighter.
        let acfg = AnalysisConfig::default();
        for seed in 0..30 {
            let cfg = base(0.6);
            if admits(&cfg, Method::SpnpApp, seed, &acfg) {
                assert!(
                    admits(&cfg, Method::SppExact, seed, &acfg),
                    "seed {seed}: SPNP/App admitted but SPP/Exact did not"
                );
            }
        }
    }

    #[test]
    fn deterministic_under_master_seed() {
        let acfg = AnalysisConfig::default();
        let a = admission_probability(&base(0.5), Method::FcfsApp, 25, 99, 3, &acfg);
        let b = admission_probability(&base(0.5), Method::FcfsApp, 25, 99, 1, &acfg);
        assert_eq!(a, b, "thread count must not affect the estimate");
    }

    #[test]
    fn pooled_per_seed_and_batched_estimators_agree() {
        let acfg = AnalysisConfig::default();
        let pooled = admission_probability(&base(0.6), Method::SppExact, 30, 42, 2, &acfg);
        let per_seed = (0..30u64)
            .filter(|&i| {
                let seed = 42u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
                admits(&base(0.6), Method::SppExact, seed, &acfg)
            })
            .count() as f64
            / 30.0;
        let batched = admission_probability_batched(&base(0.6), Method::SppExact, 30, 42, &acfg);
        assert_eq!(pooled, per_seed);
        assert_eq!(pooled, batched);
        // Also over the S&L holistic path, which exercises the sequential
        // per-set driver inside the batched sweep.
        let p2 = admission_probability(&base(0.6), Method::SppSL, 30, 42, 2, &acfg);
        let b2 = admission_probability_batched(&base(0.6), Method::SppSL, 30, 42, &acfg);
        assert_eq!(p2, b2);
    }

    #[test]
    fn bursty_mode_works_for_all_but_holistic() {
        let cfg = ShopConfig {
            arrivals: ShopArrivals::Bursty {
                deadline: Dist::Exponential { mean: 8.0 },
            },
            ..base(0.4)
        };
        let acfg = AnalysisConfig::default();
        for m in [Method::SppExact, Method::SpnpApp, Method::FcfsApp] {
            let p = admission_probability(&cfg, m, 20, 5, 2, &acfg);
            assert!((0.0..=1.0).contains(&p));
        }
        // The holistic baseline requires periodic jobs: every set rejected.
        assert_eq!(
            admission_probability(&cfg, Method::SppSL, 10, 5, 2, &acfg),
            0.0
        );
    }
}
