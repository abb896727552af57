//! Replay determinism: the same seed must reproduce the same simulation
//! bit for bit — across repeated runs, across engine-workspace reuse, and
//! across however many worker threads the Monte-Carlo driver uses (draw
//! `i` is seeded `base_seed + i`, so thread assignment cannot leak into
//! results).
//! Under the `trace` feature the full trace (serving intervals and hop
//! records) is part of the pinned state via `SimResult`'s `PartialEq`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_core::wcdfp::Histogram;
use rta_core::AnalysisConfig;
use rta_model::distributions::Dist;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig, ShopSampler};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::SchedulerKind;
use rta_sim::wcdfp::{estimate_fixed, DrawModel, WcdfpConfig};
use rta_sim::{simulate, SimConfig, SimEngine, SimResult};

fn bursty_shop(scheduler: SchedulerKind) -> ShopConfig {
    ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 5,
        scheduler,
        utilization: 0.7,
        arrivals: ShopArrivals::Bursty {
            deadline: Dist::Exponential { mean: 6.0 },
        },
        x_min: 0.25,
        ticks_per_unit: 100,
    }
}

#[test]
fn same_seed_same_result_bit_for_bit() {
    for kind in [
        SchedulerKind::Spp,
        SchedulerKind::Spnp,
        SchedulerKind::Fcfs,
        SchedulerKind::Iwrr,
    ] {
        for seed in 0..5u64 {
            let cfg = bursty_shop(kind);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sys = generate(&cfg, &mut rng).expect("valid shop");
            if kind.uses_priorities() {
                assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
            }
            let (window, horizon) = AnalysisConfig::default().resolve(&sys);
            let scfg = SimConfig { window, horizon };
            let a = simulate(&sys, &scfg);
            let b = simulate(&sys, &scfg);
            assert_eq!(a, b, "{kind:?} seed {seed}: repeated runs diverged");
        }
    }
}

#[test]
fn reused_engine_workspace_matches_fresh_runs() {
    // One engine simulating different draws back to back must produce
    // exactly what fresh single-use runs produce — leftover calendar
    // buckets, arena slots, or scheduler state must never leak.
    let cfg = bursty_shop(SchedulerKind::Spp);
    let mut sampler = ShopSampler::new(cfg).expect("valid shop shape");
    let mut engine = SimEngine::new();
    let mut out = SimResult::default();
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let sys = sampler.sample(&mut rng).expect("valid draw");
        assign_priorities(sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let (window, horizon) = AnalysisConfig::default().resolve(sys);
        let scfg = SimConfig { window, horizon };
        engine.simulate_into(sys, &scfg, &mut out);
        assert_eq!(
            out,
            simulate(sys, &scfg),
            "seed {seed}: reused workspace diverged from a fresh run"
        );
    }
}

/// The sequential oracle for the driver's shop draws: one draw at a time,
/// in draw order, using the same per-draw seeding and priority rule.
fn sequential_oracle(shop: &ShopConfig, base_seed: u64, draws: u64) -> Vec<SimResult> {
    let mut sampler = ShopSampler::new(shop.clone()).expect("valid shop shape");
    (0..draws)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(base_seed + i);
            let sys = sampler.sample(&mut rng).expect("valid draw");
            if sys
                .processors()
                .iter()
                .any(|p| p.scheduler.uses_priorities())
            {
                assign_priorities(sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
            }
            let (window, horizon) = AnalysisConfig::default().resolve(sys);
            simulate(sys, &SimConfig { window, horizon })
        })
        .collect()
}

#[test]
fn batch_samples_match_sequential_oracle() {
    // The driver distributes draws over the worker pool; its merged
    // per-job response histograms and incomplete counts must equal a
    // by-hand sequential replication of the same seeds, independent of
    // how many threads the pool happens to use.
    let shop = bursty_shop(SchedulerKind::Spp);
    let cfg = WcdfpConfig {
        base_seed: 99,
        ..WcdfpConfig::default()
    };
    let rep = estimate_fixed(&DrawModel::Shop(shop.clone()), &cfg, 12);
    let oracle = sequential_oracle(&shop, cfg.base_seed, 12);

    for k in 0..shop.n_jobs {
        let job = rta_model::JobId(k);
        let mut expected = Histogram::default();
        let mut incomplete = 0;
        for res in &oracle {
            for m in 1..=res.instances(job) {
                match res.response(job, m) {
                    Some(r) => expected.add(r.ticks(), 1),
                    None => incomplete += 1,
                }
            }
        }
        assert!(expected.count() > 0, "job {k}: oracle saw no completions");
        assert_eq!(
            rep.accum.jobs[k].responses, expected,
            "job {k}: driver responses diverged from the sequential oracle"
        );
        assert_eq!(rep.accum.jobs[k].incomplete, incomplete, "job {k}");
    }
}

#[test]
fn repeated_batch_runs_are_identical() {
    let model = DrawModel::Shop(bursty_shop(SchedulerKind::Fcfs));
    for bounds in [false, true] {
        let cfg = WcdfpConfig {
            base_seed: 7,
            bounds,
            ..WcdfpConfig::default()
        };
        let a = estimate_fixed(&model, &cfg, 8).accum;
        assert_eq!(a, estimate_fixed(&model, &cfg, 8).accum, "bounds {bounds}");
        assert!(!bounds || a.jobs.iter().any(|j| j.bounded > 0));
    }
}
