//! Ablation: the SPNP availability recursion of Theorem 5 — paper-verbatim
//! (`AsPrinted`, Eq. 17) vs. the provably sound mixed-increment form
//! (`Conservative`, the library default).
//!
//! Reports, per utilization level: admission probability under each
//! variant, plus bound-violation rates against the simulator. The verbatim
//! variant is tighter (admits more) but can under-estimate; the
//! conservative variant never violates (see DESIGN.md §5).
//!
//! Usage: `cargo run -p rta-bench --release --bin ablation [-- --sets N]`

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_bench::admission::{admission_probability, Method};
use rta_core::{analyze_bounds, AnalysisConfig, SpnpAvailability};
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{JobId, SchedulerKind};
use rta_sim::{simulate, SimConfig};

fn shop(utilization: f64) -> ShopConfig {
    ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 6,
        scheduler: SchedulerKind::Spnp,
        utilization,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 4.0,
        },
        x_min: 0.2,
        ticks_per_unit: 500,
    }
}

fn violation_rate(variant: SpnpAvailability, sets: u64, util: f64) -> f64 {
    let (mut bad, mut total) = (0u64, 0u64);
    for seed in 0..sets {
        let cfg = shop(util);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sys = generate(&cfg, &mut rng).unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let acfg = AnalysisConfig {
            spnp_availability: variant,
            ..Default::default()
        };
        let (window, horizon) = acfg.resolve(&sys);
        let report = analyze_bounds(&sys, &acfg).unwrap();
        let sim = simulate(&sys, &SimConfig { window, horizon });
        for (k, jb) in report.jobs.iter().enumerate() {
            let Some(bound) = jb.e2e_bound else { continue };
            for m in 1..=sim.instances(JobId(k)) {
                if let Some(resp) = sim.response(JobId(k), m) {
                    total += 1;
                    if resp > bound {
                        bad += 1;
                    }
                }
            }
        }
    }
    bad as f64 / total.max(1) as f64
}

fn main() {
    let sets: u64 = std::env::args()
        .skip(1)
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "--sets")
        .map(|w| w[1].parse().expect("--sets N"))
        .unwrap_or(60);

    println!(
        "{:>6} {:>16} {:>16} {:>14} {:>14}",
        "util", "admit(printed)", "admit(conserv)", "viol(printed)", "viol(conserv)"
    );
    for util in [0.3, 0.5, 0.7, 0.9] {
        let base = shop(util);
        let printed_cfg = AnalysisConfig {
            spnp_availability: SpnpAvailability::AsPrinted,
            ..Default::default()
        };
        let conserv_cfg = AnalysisConfig::default();
        let ap = admission_probability(&base, Method::SpnpApp, sets as u32, 7, &printed_cfg);
        let ac = admission_probability(&base, Method::SpnpApp, sets as u32, 7, &conserv_cfg);
        let vp = violation_rate(SpnpAvailability::AsPrinted, sets, util);
        let vc = violation_rate(SpnpAvailability::Conservative, sets, util);
        println!("{util:>6.2} {ap:>16.3} {ac:>16.3} {vp:>14.4} {vc:>14.4}");
    }
}
