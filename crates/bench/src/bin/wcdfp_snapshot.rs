//! Performance snapshot of the WCDFP estimation engine
//! (`BENCH_wcdfp.json`).
//!
//! `cargo run -p rta-bench --release --bin wcdfp_snapshot` times the
//! verdict-only Monte-Carlo path and writes `BENCH_wcdfp.json` in the
//! working directory; `scripts/check.sh` gates it against the committed
//! baseline like the other suites.
//!
//! Two claims are asserted **in-binary** (the snapshot fails outright if
//! they regress, independent of the drift gate):
//!
//! * `wcdfp/verdict/5job_shop` — nanoseconds per draw in the verdict-only
//!   configuration (`sketches: false`, the admission path) on a 5-job
//!   bursty shop (the `bounds_vs_simulation` example's shape), must stay
//!   ≤ 10 000 ns (≥ 10⁵ draws/sec). `wcdfp/run/1000draws` times the same
//!   1 000 draws with the exact response histograms on beside it — the
//!   configuration that yields per-job response distributions.
//! * adaptive early termination beats fixed-N a-priori sizing: on an easy
//!   shop, `estimate_adaptive` to half-width 0.01 must use no more draws
//!   (and less wall time) than the `N = z²·¼/tol² = 9604` a fixed-budget
//!   run must commit to when the miss rate is unknown.

use rta_bench::harness::Bench;
use rta_core::wcdfp::Stopping;
use rta_model::distributions::Dist;
use rta_model::jobshop::{ShopArrivals, ShopConfig};
use rta_model::SchedulerKind;
use rta_sim::wcdfp::{estimate_adaptive, estimate_fixed, DrawModel, WcdfpConfig};

/// A 2-stage × 2-processor bursty SPP shop (5 jobs, utilization 0.7,
/// Eq. 27 arrivals).
fn bursty_shop() -> ShopConfig {
    ShopConfig {
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
    }
}

/// A lightly-loaded shop whose miss probability is ~0: the adaptive run
/// should settle in its first round.
fn easy_shop() -> ShopConfig {
    ShopConfig {
        utilization: 0.3,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 8.0,
        },
        ..bursty_shop()
    }
}

fn main() {
    let mut b = Bench::new();
    let cfg = WcdfpConfig::default();
    // The admission-path configuration: misses and intervals only, no
    // response histograms. This is the path the ≤ 10 µs/draw claim is about.
    let lean = WcdfpConfig {
        sketches: false,
        ..WcdfpConfig::default()
    };

    // Throughput with the response histograms on.
    const DRAWS: u64 = 1000;
    let model = DrawModel::Shop(bursty_shop());
    b.run("wcdfp/run/1000draws", || {
        estimate_fixed(&model, &cfg, DRAWS)
    });

    // Verdict-only throughput on the same shop.
    let run = b.run("wcdfp/verdict_run/1000draws", || {
        estimate_fixed(&model, &lean, DRAWS)
    });
    let per_draw = run.ns_per_iter / DRAWS as f64;
    b.record("wcdfp/verdict/5job_shop", DRAWS, per_draw);
    println!(
        "  -> {:.2} µs/draw verdict-only ({:.0} draws/sec)",
        per_draw / 1e3,
        1e9 / per_draw
    );
    assert!(
        per_draw <= 10_000.0,
        "verdict path too slow: {per_draw:.0} ns/draw (target ≤ 10000)"
    );

    // Adaptive early termination vs a-priori fixed sizing. With the miss
    // rate unknown, a fixed run targeting half-width 0.01 at 95% must
    // budget for p = ½: N = (1.96² · 0.25) / 0.01² = 9604 draws. The
    // adaptive run discovers p ≈ 0 and stops after its first round.
    const FIXED_N: u64 = 9604;
    let easy = DrawModel::Shop(easy_shop());
    let stop = Stopping {
        tolerance: 0.01,
        confidence: 0.95,
        threshold: None,
    };
    let adaptive_ns = b
        .run("wcdfp/adaptive/easy_tol01", || {
            estimate_adaptive(&easy, &lean, &stop, FIXED_N)
        })
        .ns_per_iter;
    let fixed_ns = b
        .run("wcdfp/fixed/easy_9604", || {
            estimate_fixed(&easy, &lean, FIXED_N)
        })
        .ns_per_iter;
    let rep = estimate_adaptive(&easy, &lean, &stop, FIXED_N);
    println!(
        "  -> adaptive converged={} after {} draws (fixed budget {FIXED_N}); \
         {:.2}x wall-time speedup",
        rep.converged,
        rep.draws,
        fixed_ns / adaptive_ns
    );
    assert!(rep.converged, "easy shop must converge within the budget");
    assert!(
        rep.draws <= FIXED_N,
        "adaptive used {} draws, more than the fixed budget {FIXED_N}",
        rep.draws
    );
    for e in &rep.estimates {
        assert!(
            e.half_width() <= stop.tolerance,
            "converged run violates the tolerance: {e:?}"
        );
    }
    assert!(
        adaptive_ns < fixed_ns,
        "adaptive ({adaptive_ns:.0} ns) must beat fixed-{FIXED_N} ({fixed_ns:.0} ns) \
         at equal CI width"
    );

    let json = b.to_json(&[
        ("suite", "BENCH_wcdfp"),
        ("package", "rta-bench"),
        ("profile", "release"),
    ]);
    if cfg!(feature = "alloc_stats") {
        println!("\nalloc_stats build: not overwriting BENCH_wcdfp.json (timings perturbed)");
    } else {
        std::fs::write("BENCH_wcdfp.json", &json).expect("write BENCH_wcdfp.json");
        println!(
            "\nwrote BENCH_wcdfp.json ({} benchmarks)",
            b.results().len()
        );
    }
}
