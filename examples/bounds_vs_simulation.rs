//! Empirical response-time distributions vs. analytic bounds, at scale.
//!
//! Uses the Monte-Carlo driver [`bursty_rta::sim::wcdfp`] in its `bounds`
//! mode to re-draw a bursty job shop many times, simulate every draw on
//! the event core, run the Theorem 4 analysis on the same draw, and print
//! the per-job
//! observed-vs-analytic tightness gap — the measurement behind the
//! EXPERIMENTS.md bound-tightness table. This replaces the old
//! single-trajectory curve comparison: one trace shows that the bounds
//! bracket one run; the replication shows how much headroom the bound
//! leaves over the *distribution* of runs, and that no draw ever crosses
//! it.
//!
//! Run with: `cargo run --release --example bounds_vs_simulation`

use bursty_rta::model::distributions::Dist;
use bursty_rta::model::jobshop::{ShopArrivals, ShopConfig};
use bursty_rta::model::SchedulerKind;
use bursty_rta::sim::wcdfp::{estimate_fixed, DrawModel, WcdfpConfig};

fn main() {
    // A 2-stage SPP shop under the paper's Eq. 27 bursty arrivals,
    // re-drawn 200 times: every draw is simulated and analyzed, giving an
    // empirical response distribution per job next to its analytic bound.
    let shop = ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 5,
        scheduler: SchedulerKind::Spp,
        utilization: 0.7,
        arrivals: ShopArrivals::Bursty {
            deadline: Dist::Exponential { mean: 6.0 },
        },
        x_min: 0.25,
        ticks_per_unit: 100,
    };
    let cfg = WcdfpConfig {
        base_seed: 42,
        bounds: true,
        ..WcdfpConfig::default()
    };
    let report = estimate_fixed(&DrawModel::Shop(shop), &cfg, 200);

    println!(
        "bursty 2-stage SPP shop, {} draws (seeds {}..{}), {} analysis failures",
        report.draws,
        cfg.base_seed,
        cfg.base_seed + report.draws,
        report.accum.analysis_failures
    );
    println!(
        "{:>4} {:>8} {:>6} {:>8} {:>8} {:>8} {:>6} {:>6} {:>5}",
        "job", "samples", "incmp", "p50", "p99", "max", "mean%", "worst%", "viol"
    );
    for (k, stats) in report.accum.jobs.iter().enumerate() {
        let r = &stats.responses;
        println!(
            "{:>4} {:>8} {:>6} {:>8} {:>8} {:>8} {:>6.1} {:>6.1} {:>5}",
            k,
            r.count(),
            stats.incomplete,
            r.quantile(0.50).unwrap(),
            r.quantile(0.99).unwrap(),
            r.max().unwrap(),
            stats.ratio_ppm_sum as f64 / stats.bounded.max(1) as f64 / 1e4,
            stats.ratio_ppm_max as f64 / 1e4,
            stats.violations,
        );
        // SPP bounds are sound: the observed worst case never exceeds them.
        assert_eq!(stats.violations, 0, "job {k}: bound violated");
    }
    println!(
        "\nno simulated response exceeded its Theorem 4 bound \
         (mean/worst% = observed response as a share of the bound)"
    );
}
