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
use rta_core::par::pool_map_stateful;
use rta_core::{analyze_exact_spp, holistic::holistic_schedulable, AnalysisConfig};
use rta_model::jobshop::{generate, ShopConfig, ShopSampler};
use rta_model::priority::{rank_priorities, PriorityPolicy};
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

/// Rank priorities (Eq. 24) and run `method`'s analysis on a freshly
/// drawn system. Shared verdict tail of [`admits`] and the batched sweep.
/// Ranking skips [`assign_priorities`]' closing validation: every driver
/// below validates the system first, and a failed validation is `false`
/// either way.
///
/// [`assign_priorities`]: rta_model::priority::assign_priorities
fn decide(sys: &mut rta_model::TaskSystem, method: Method, acfg: &AnalysisConfig) -> bool {
    if method.scheduler().uses_priorities() {
        // The paper's relative-deadline-monotonic rule (Eq. 24).
        if rank_priorities(sys, PriorityPolicy::RelativeDeadlineMonotonic).is_err() {
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
/// Runs on the persistent worker pool, which sizes itself
/// ([`pool_map_stateful`]): each participating thread builds a
/// [`ShopSampler`] once and redraws every set it claims into that
/// sampler's reusable `TaskSystem` (plus a cloned [`AnalysisConfig`]), so
/// the per-set cost is the random draws and the warm, workspace-backed
/// analysis — no per-set Strings, builders, or shared-state captures.
///
/// The estimate is a pure function of `(base, method, sets, master_seed,
/// acfg)`: the sampler is draw-for-draw identical to `generate`
/// (`jobshop::ShopSampler`), and the verdict for seed `i` depends only on
/// its index, never on which worker ran it, so the result is identical to
/// the per-seed [`admits`] loop.
pub fn admission_probability(
    base: &ShopConfig,
    method: Method,
    sets: u32,
    master_seed: u64,
    acfg: &AnalysisConfig,
) -> f64 {
    assert!(sets >= 1);
    let mut shop = base.clone();
    shop.scheduler = method.scheduler();
    let acfg = acfg.clone();
    let admitted = pool_map_stateful(
        sets as usize,
        move || (ShopSampler::new(shop.clone()), acfg.clone()),
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
        let lo = admission_probability(&base(0.2), Method::SppExact, 40, 7, &acfg);
        let hi = admission_probability(&base(0.95), Method::SppExact, 40, 7, &acfg);
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
        let a = admission_probability(&base(0.5), Method::FcfsApp, 25, 99, &acfg);
        let b = admission_probability(&base(0.5), Method::FcfsApp, 25, 99, &acfg);
        assert_eq!(a, b, "repeated runs must give the same estimate");
    }

    #[test]
    fn pooled_per_seed_and_batched_estimators_agree() {
        // The pooled estimator equals the per-seed `admits` loop, over the
        // exact SPP path and the S&L holistic path, which runs the
        // sequential per-set driver inside the batched sweep.
        let acfg = AnalysisConfig::default();
        for method in [Method::SppExact, Method::SppSL] {
            let pooled = admission_probability(&base(0.6), method, 30, 42, &acfg);
            let per_seed = (0..30u64)
                .filter(|&i| {
                    let seed = 42u64.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
                    admits(&base(0.6), method, seed, &acfg)
                })
                .count() as f64
                / 30.0;
            assert_eq!(pooled, per_seed, "{method:?}");
        }
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
            let p = admission_probability(&cfg, m, 20, 5, &acfg);
            assert!((0.0..=1.0).contains(&p));
        }
        // The holistic baseline requires periodic jobs: every set rejected.
        assert_eq!(
            admission_probability(&cfg, Method::SppSL, 10, 5, &acfg),
            0.0
        );
    }
}
