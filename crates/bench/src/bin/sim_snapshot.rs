//! Performance snapshot of the discrete-event simulator
//! (`BENCH_sim.json`).
//!
//! `cargo run -p rta-bench --release --bin sim_snapshot` times the event
//! engine on the standard job-shop workload and writes `BENCH_sim.json` in
//! the working directory; `scripts/check.sh` gates it against the committed
//! baseline like the other suites.
//!
//! The headline row is `sim/throughput/jobshop`: nanoseconds per **subjob
//! completion** on a Figure-2-shaped shop (4 stages × 2 processors, 6 jobs,
//! SPP, utilization 0.6) simulated over a long arrival window. The ROADMAP
//! target is ≥ 10⁶ subjob completions per second, i.e. the row must stay
//! below 1000 ns.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_bench::harness::Bench;
use rta_curves::Time;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{SchedulerKind, TaskSystem};
use rta_sim::{simulate, SimConfig, SimResult};

/// The standard throughput workload: the Figure 2 shop shape at realistic
/// tick resolution, simulated over a window long enough that per-run setup
/// is noise next to the event loop.
fn throughput_workload() -> (TaskSystem, SimConfig) {
    let cfg = ShopConfig {
        stages: 4,
        procs_per_stage: 2,
        n_jobs: 6,
        scheduler: SchedulerKind::Spp,
        utilization: 0.6,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 8.0,
        },
        x_min: 0.2,
        ticks_per_unit: 500,
    };
    let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(42)).unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    // A long window (vs the analysis default) so one run retires tens of
    // thousands of subjob completions.
    let window = Time(400_000);
    let horizon = rta_model::horizon::analysis_horizon(&sys, window).unwrap();
    (sys, SimConfig { window, horizon })
}

fn completed_hops(res: &SimResult) -> u64 {
    res.hop_completions
        .iter()
        .flatten()
        .flatten()
        .filter(|c| c.is_some())
        .count() as u64
}

fn main() {
    let mut b = Bench::new();

    let (sys, scfg) = throughput_workload();
    let completions = completed_hops(&simulate(&sys, &scfg));
    assert!(
        completions > 10_000,
        "throughput workload too small: {completions} completions"
    );
    let run = b.run("sim/run/jobshop", || simulate(&sys, &scfg));
    let per_completion = run.ns_per_iter / completions as f64;
    b.record("sim/throughput/jobshop", completions, per_completion);
    println!(
        "  -> {completions} subjob completions/run, {:.3} M completions/sec",
        1e3 / per_completion
    );

    let json = b.to_json(&[
        ("suite", "BENCH_sim"),
        ("package", "rta-bench"),
        ("profile", "release"),
    ]);
    if cfg!(feature = "alloc_stats") {
        println!("\nalloc_stats build: not overwriting BENCH_sim.json (timings perturbed)");
    } else {
        std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
        println!("\nwrote BENCH_sim.json ({} benchmarks)", b.results().len());
    }
}
