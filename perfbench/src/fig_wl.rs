//! The `fig_sweep` workload: Fig. 3 and Fig. 4 panels at a reduced set
//! count through `rta_bench::figures::run_panel`, one call per panel and
//! utilization point, back to back.

use std::time::{Duration, Instant};

use bursty_rta::analysis::holistic::holistic_schedulable;
use bursty_rta::analysis::par::pool_threads;
use bursty_rta::analysis::{analyze_bounds, analyze_exact_spp, AnalysisConfig};
use bursty_rta::model::jobshop::{generate, ShopConfig};
use bursty_rta::model::priority::{assign_priorities, PriorityPolicy};
use bursty_rta::model::SchedulerKind;
use bursty_rta::sim::wcdfp::{estimate_fixed, DrawModel, WcdfpConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rta_bench::admission::{admits, Method};
use rta_bench::figures::{fig3_panels, fig4_panels, run_panel, utilization_sweep, Panel};

use crate::fleet::Shape;
use crate::report::{median, ratio, Metrics, Repeated};
use crate::trace::Tracer;

/// Job sets per method and point.
pub const SETS: u32 = 8;

/// Full sweeps (every panel at every point) per second of `--seconds`,
/// repeats included.
const SWEEPS_PER_SECOND: f64 = 2.0;

/// Rounds over the same sweeps.
const REPEATS: usize = 5;

/// Draws per panel for `draws_per_s`.
const DRAWS_PER_PANEL: u64 = 150;

/// Calls re-derived set by set for the correctness check.
const CHECKED_CALLS: usize = 24;

fn panels() -> Vec<Panel> {
    let mut p = fig3_panels();
    p.extend(fig4_panels());
    p
}

/// The master seed of sweep `pass`.
fn master(seed: u64, pass: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(pass as u64)
}

/// The seed of set `i` at point `u`, as `run_panel` derives it.
fn set_seed(master: u64, u: f64, i: u32) -> u64 {
    (master ^ ((u * 1000.0) as u64))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(i))
}

/// Decide set `seed` of `method` the per-set way: generation (with the
/// priority rule where the method uses priorities) under a `model.gen`
/// span, then the method's cold driver under its own span, all inside a
/// `set` span. `None` when generation, the priority rule or the analysis
/// fails, where the sweep would count the set as rejected.
fn decide_set(
    base: &ShopConfig,
    method: Method,
    seed: u64,
    acfg: &AnalysisConfig,
    tr: &mut Tracer,
) -> Option<bool> {
    let mut cfg = base.clone();
    cfg.scheduler = method.scheduler();
    tr.open("set");
    let mut rng = StdRng::seed_from_u64(seed);
    let sys = tr.span("model.gen", || {
        let mut sys = generate(&cfg, &mut rng).ok()?;
        if method.scheduler().uses_priorities() {
            assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).ok()?;
        }
        Some(sys)
    });
    let verdict = sys.and_then(|sys| {
        match method {
            Method::SppExact => tr
                .span("exact", || analyze_exact_spp(&sys, acfg))
                .map(|r| r.all_schedulable()),
            Method::SpnpApp | Method::FcfsApp => tr
                .span("bounds", || analyze_bounds(&sys, acfg))
                .map(|r| r.all_schedulable()),
            Method::SppSL => tr.span("holistic", || holistic_schedulable(&sys, acfg)),
        }
        .ok()
    });
    tr.close();
    verdict
}

/// Set-up: build the panel grids and run each panel once at one set, which
/// starts the worker pool and warms every analysis path.
fn setup_once() -> Duration {
    let t0 = Instant::now();
    let panels = panels();
    for p in &panels {
        std::hint::black_box(run_panel(p, &[0.5], 1, 7, 0));
    }
    t0.elapsed()
}

/// One untraced run: every end-to-end metric.
///
/// The run makes [`REPEATS`] rounds over the same sweeps (every panel at
/// every utilization point, each sweep with its own master seed), one
/// round after another, so the repeats of one call lie seconds apart. Each
/// sweep comes with one set-up sample and a short Monte-Carlo pass over
/// every panel. Every time is read from the least of its repeats
/// ([`Repeated`]): each `run_panel` call and each panel's Monte-Carlo pass.
/// `setup_s` is the median set-up.
pub fn run_untraced(seed: u64, seconds: f64) -> (Metrics, bool, u64, u64) {
    let panels = panels();
    let utils = utilization_sweep();
    let sweeps = ((seconds * SWEEPS_PER_SECOND / REPEATS as f64).round() as usize).max(1);
    let calls_per_sweep = panels.len() * utils.len();
    let sets_per_sweep: u64 = panels
        .iter()
        .map(|p| p.methods.len() as u64 * u64::from(SETS) * utils.len() as u64)
        .sum();

    let mut setup_s = Vec::new();
    let (mut call_ns, mut draw_ns) = (Repeated::default(), Repeated::default());
    let mut results = Vec::new();
    let mut bad = Vec::new();
    let mut draws = 0u64;
    for round in 0..REPEATS {
        for pass in 0..sweeps {
            setup_s.push(setup_once().as_secs_f64());
            for (k, p) in panels.iter().enumerate() {
                let mut cfg = p.base.clone();
                cfg.utilization = 0.5;
                let wcfg = WcdfpConfig {
                    base_seed: master(seed, pass).wrapping_add(k as u64 * DRAWS_PER_PANEL),
                    sketches: false,
                    ..WcdfpConfig::default()
                };
                let t0 = Instant::now();
                let done = estimate_fixed(&DrawModel::Shop(cfg), &wcfg, DRAWS_PER_PANEL).draws;
                draw_ns.record(pass * panels.len() + k, t0.elapsed().as_nanos() as u64);
                if round == 0 {
                    draws += done;
                }
            }
            for (pi, panel) in panels.iter().enumerate() {
                for (ui, &u) in utils.iter().enumerate() {
                    let call = pass * calls_per_sweep + pi * utils.len() + ui;
                    let c0 = Instant::now();
                    let r = run_panel(panel, &[u], SETS, master(seed, pass), 0);
                    call_ns.record(call, c0.elapsed().as_nanos() as u64);
                    let points: Vec<_> = r.series.iter().map(|s| s.points.clone()).collect();
                    if round == 0 {
                        results.push((pass, pi, u, r, points));
                    } else if results[call].4 != points {
                        bad.push(format!(
                            "{} u={u} sweep {pass}: repeat {round} estimated differently",
                            panel.label
                        ));
                    }
                }
            }
        }
    }

    // Re-derive a seeded sample of calls set by set through the per-seed
    // `admission::admits` path. `admits`, like the sweep, counts a set whose
    // generation or analysis fails as rejected; the same sets decided
    // through `decide_set` expose those failures, which the run reports.
    let acfg = AnalysisConfig::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF16);
    let (mut checked_sets, mut errors) = (0u64, 0u64);
    let mut off = Tracer::off();
    for _ in 0..CHECKED_CALLS {
        let (pass, pi, u, r, _) = &results[rng.gen_range(0..results.len())];
        let mut base = panels[*pi].base.clone();
        base.utilization = *u;
        for s in &r.series {
            let mut admitted = 0u32;
            for i in 0..SETS {
                let set = set_seed(master(seed, *pass), *u, i);
                let per_seed = admits(&base, s.method, set, &acfg);
                let decided = decide_set(&base, s.method, set, &acfg, &mut off);
                checked_sets += 1;
                errors += u64::from(decided.is_none());
                if decided.unwrap_or(false) != per_seed {
                    bad.push(format!(
                        "{} {} u={u} set {i}: admits {per_seed}, per-set drivers {decided:?}",
                        panels[*pi].label,
                        s.method.label()
                    ));
                }
                admitted += u32::from(per_seed);
            }
            let est = f64::from(admitted) / f64::from(SETS);
            if est != s.points[0].1 {
                bad.push(format!(
                    "{} {} u={u}: sweep {} vs per-seed {est}",
                    panels[*pi].label,
                    s.method.label(),
                    s.points[0].1
                ));
            }
        }
    }
    for b in &bad {
        eprintln!("mismatch: {b}");
    }

    let calls = call_ns.values().len();
    let wall = call_ns.total_s();
    let mut m = Metrics::default();
    m.set("setup_s", median(setup_s), "s");
    m.set("p50_us", call_ns.quantile(0.50) / 1e3, "us");
    m.set("p99_us", call_ns.quantile(0.99) / 1e3, "us");
    m.set("capacity_rps", calls as f64 / wall, "1/s");
    m.set("sets_per_s", (sweeps as u64 * sets_per_sweep) as f64 / wall, "1/s");
    m.set("draws_per_s", draws as f64 / draw_ns.total_s(), "1/s");
    eprintln!(
        "fig_sweep: {sweeps} sweeps {REPEATS} times, {} panel-point calls ({SETS} sets per \
         method), {} sets per round; {draws} draws per round; \
         {checked_sets} sets re-derived, {errors} failed",
        calls,
        sweeps as u64 * sets_per_sweep
    );
    (m, bad.is_empty(), checked_sets, errors)
}

/// The tenant shapes the traced run serves through the daemon layers: one
/// set per panel, rotating over the three schedulers.
pub fn fleet_shapes() -> Vec<Shape> {
    let kinds = [SchedulerKind::Spp, SchedulerKind::Spnp, SchedulerKind::Fcfs];
    panels()
        .into_iter()
        .enumerate()
        .map(|(k, p)| {
            let mut cfg = p.base;
            cfg.utilization = 0.2;
            cfg.scheduler = kinds[k % kinds.len()];
            Shape::Shop(cfg)
        })
        .collect()
}

/// Per-set layers of the sweep: generation (with the priority rule) and
/// the method's cold analysis, traced set by set for a seeded sample of
/// panel-point calls and checked against the sweep's estimates.
pub fn set_layers(seed: u64, calls: usize, bad: &mut Vec<String>) -> Metrics {
    let panels = panels();
    let utils = utilization_sweep();
    let acfg = AnalysisConfig::default();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7);
    let mut tr = Tracer::new();
    let mut off = Tracer::off();
    let (mut pooled_ns, mut seq_ns) = (0u64, 0u64);
    let (mut attempts, mut errors) = (0u64, 0u64);
    let mut set_id = 0u32;
    for call in 0..calls {
        let panel = &panels[rng.gen_range(0..panels.len())];
        let u = utils[rng.gen_range(0..utils.len())];
        let ms = master(seed, call);
        let t0 = Instant::now();
        let r = run_panel(panel, &[u], SETS, ms, 0);
        pooled_ns += t0.elapsed().as_nanos() as u64;
        let mut base = panel.base.clone();
        base.utilization = u;
        for traced in [false, true] {
            let t0 = Instant::now();
            for s in &r.series {
                let mut admitted = 0u32;
                for i in 0..SETS {
                    let tr = if traced { &mut tr } else { &mut off };
                    tr.set_request(set_id);
                    set_id += u32::from(traced);
                    let verdict = decide_set(&base, s.method, set_seed(ms, u, i), &acfg, tr);
                    if traced {
                        attempts += 1;
                        errors += u64::from(verdict.is_none());
                    }
                    admitted += u32::from(verdict == Some(true));
                }
                let est = f64::from(admitted) / f64::from(SETS);
                if est != s.points[0].1 {
                    bad.push(format!(
                        "{} {} u={u}: sweep {} vs traced per-set path {est}",
                        panel.label,
                        s.method.label(),
                        s.points[0].1
                    ));
                }
            }
            if !traced {
                seq_ns += t0.elapsed().as_nanos() as u64;
            }
        }
    }
    let totals = tr.totals();
    let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
    let mut m = Metrics::default();
    m.set("model.gen_ns", mean("model.gen"), "ns");
    m.set("exact.ns", mean("exact"), "ns");
    m.set("bounds.ns", mean("bounds"), "ns");
    m.set("holistic.ns", mean("holistic"), "ns");
    m.set(
        "analysis.err_frac",
        ratio(errors as f64, attempts as f64),
        "frac",
    );
    m.set(
        "par.efficiency",
        seq_ns as f64 / (pooled_ns as f64 * pool_threads() as f64),
        "frac",
    );
    eprintln!(
        "fig_sweep set layers: {} sets traced, mean set {:.0} ns (generation {:.0} ns)",
        totals.get("set").map_or(0, |t| t.count),
        mean("set"),
        mean("model.gen")
    );
    m
}
