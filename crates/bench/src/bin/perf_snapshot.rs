//! Performance snapshot of the curve kernels and analysis drivers.
//!
//! `cargo run -p rta-bench --release --bin perf_snapshot` times the
//! segment-native kernels (with their lattice-scan oracles for reference)
//! and the end-to-end analyses, then writes `BENCH_curves.json` and
//! `BENCH_incremental.json` (cold-vs-warm sweeps through
//! [`AnalysisSession`]) in the working directory. CI and
//! `scripts/check.sh` use them as the regression baselines for the numbers
//! quoted in DESIGN.md.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_bench::admission::{admission_probability, Method};
use rta_bench::figures;
use rta_bench::harness::Bench;
use rta_core::bounds::bounds_schedulable;
use rta_core::sensitivity::region::{explore_region, RegionConfig};
use rta_core::sensitivity::Oracle;
use rta_core::{analyze_bounds, analyze_exact_spp, AnalysisConfig, AnalysisSession};
use rta_curves::arena::Scratch;
use rta_curves::{Curve, SoaCursor, SoaCurve, Time};
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{ArrivalPattern, Job, SchedulerKind, Subjob, SystemBuilder, TaskSystem};

fn arrivals(n: i64, gap: i64) -> Curve {
    let times: Vec<Time> = (0..n).map(|i| Time(i * gap)).collect();
    Curve::from_event_times(&times)
}

fn shop(scheduler: SchedulerKind, stages: usize, n_jobs: usize) -> TaskSystem {
    shop_at_ticks(scheduler, stages, n_jobs, 500)
}

fn shop_at_ticks(
    scheduler: SchedulerKind,
    stages: usize,
    n_jobs: usize,
    ticks_per_unit: i64,
) -> TaskSystem {
    let cfg = ShopConfig {
        stages,
        procs_per_stage: 2,
        n_jobs,
        scheduler,
        utilization: 0.6,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 2.0 * stages as f64,
        },
        x_min: 0.2,
        ticks_per_unit,
    };
    let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(42)).unwrap();
    if scheduler.uses_priorities() {
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    }
    sys
}

/// SPP pipeline with one burst-train flow crossing the first `flow_stages`
/// stages and two periodic jobs per stage — a wide variant of the
/// `examples/region_explorer` workload. The flow carries the lowest
/// priority (deadline-monotonic, longest deadline), so a burst edit dirties
/// only the flow's own subjob cone while the other `2·stages` jobs stay
/// cached — the cold arm re-derives all of them per probe.
fn bursty_pipeline(stages: usize, flow_stages: usize) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let procs: Vec<_> = (0..stages)
        .map(|i| b.add_processor(format!("stage-{}", i + 1), SchedulerKind::Spp))
        .collect();
    b.add_job(
        "bursty-flow",
        Time(150 * flow_stages as i64),
        ArrivalPattern::BurstTrain {
            burst_len: 1,
            intra_gap: Time(8),
            train_period: Time(400),
            offset: Time::ZERO,
        },
        procs[..flow_stages]
            .iter()
            .map(|&p| (p, Time(10)))
            .collect(),
    );
    for (i, &p) in procs.iter().enumerate() {
        let i = i as i64;
        b.add_job(
            format!("local-a{}", i + 1),
            Time(80),
            ArrivalPattern::Periodic {
                period: Time(80),
                offset: Time(i * 7 % 80),
            },
            vec![(p, Time(16))],
        );
        b.add_job(
            format!("local-b{}", i + 1),
            Time(120),
            ArrivalPattern::Periodic {
                period: Time(120),
                offset: Time((5 + i * 11) % 120),
            },
            vec![(p, Time(20))],
        );
    }
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

/// `sys` with every burst-train job's burst length replaced by `len`.
fn with_burst(sys: &TaskSystem, len: u32) -> TaskSystem {
    let mut out = sys.clone();
    for k in 0..out.jobs().len() {
        if let ArrivalPattern::BurstTrain {
            intra_gap,
            train_period,
            offset,
            ..
        } = out.jobs()[k].arrival
        {
            out.set_arrival(
                rta_model::JobId(k),
                ArrivalPattern::BurstTrain {
                    burst_len: len,
                    intra_gap,
                    train_period,
                    offset,
                },
            );
        }
    }
    out
}

fn main() {
    let mut b = Bench::new();

    // The curve kernels on the merge-heavy shapes the fixpoint inner loop
    // produces, with warm output buffers.
    {
        let sa = SoaCurve::from_curve(&arrivals(256, 7).scale(3));
        let sc = SoaCurve::from_curve(&arrivals(256, 11).scale(2));
        let mut soa_out = SoaCurve::zero();
        b.run("soa/linear_combine/256", || {
            rta_curves::soa::linear_combine_into(&sa, 2, &sc, -1, &mut soa_out)
        });
        b.run("soa/floor_div/256", || {
            sa.floor_div_into(3, Time(2048), &mut soa_out).unwrap()
        });
        b.run("soa/pointwise_min/256", || {
            sa.min_with_into(&sc, &mut soa_out)
        });
    }

    // Cursor sweep vs front-rescanning pseudo-inverse (Theorem-1 loop).
    for n in [128i64, 1024] {
        let arr = arrivals(n, 10);
        let soa = SoaCurve::from_curve(&arr);
        b.run(&format!("inverse_sweep/cursor/{n}"), || {
            let mut cur = SoaCursor::new(&soa);
            let mut acc = Time::ZERO;
            for m in 1..=n {
                if let Some(t) = cur.inverse_at(m) {
                    acc += t;
                }
            }
            acc
        });
        b.run(&format!("inverse_sweep/rescan/{n}"), || {
            let mut acc = Time::ZERO;
            for m in 1..=n {
                if let Some(t) = arr.inverse_at(m) {
                    acc += t;
                }
            }
            acc
        });
    }

    // Policy-seam overhead: identical Theorem 5/6 inputs through the
    // chain itself and through `policy_for(...).service_bounds` (one vtable
    // hop plus `BoundsInputs` construction per call). Both run on the same
    // SoA operands, converted once up front, each with its own warm
    // `Scratch` and output buffer, so the pair pins the trait dispatch as
    // noise (<5%) next to the curve algebra.
    {
        use rta_core::policy::{policy_for, BoundsInputs};
        use rta_core::spnp::{spnp_bounds, SoaServiceBounds};
        use rta_core::SpnpAvailability;
        let workload = SoaCurve::from_curve(&arrivals(48, 10).scale(3));
        let hp_work = SoaCurve::from_curve(&arrivals(48, 14).scale(2));
        let mut hp = SoaServiceBounds::zeroed();
        spnp_bounds(
            &hp_work,
            &[],
            &[],
            Time::ZERO,
            SpnpAvailability::Conservative,
            &mut Scratch::new(),
            &mut hp,
        )
        .unwrap();
        let horizon = Time(48 * 14 + 200);
        let (mut scratch, mut out) = (Scratch::new(), SoaServiceBounds::zeroed());
        b.run("policy_dispatch/spnp_direct", || {
            spnp_bounds(
                &workload,
                &[&hp.lower],
                &[&hp.upper],
                Time(5),
                SpnpAvailability::Conservative,
                &mut scratch,
                &mut out,
            )
            .unwrap();
            out.upper.len()
        });
        let policy = policy_for(SchedulerKind::Spnp);
        let (mut scratch, mut out) = (Scratch::new(), SoaServiceBounds::zeroed());
        b.run("policy_dispatch/spnp_trait", || {
            policy
                .service_bounds(
                    &BoundsInputs {
                        workload: &workload,
                        tau: Time(3),
                        weight: 1,
                        blocking: Time(5),
                        hp_lower: &[&hp.lower],
                        hp_upper: &[&hp.upper],
                        variant: SpnpAvailability::Conservative,
                        ctx: None,
                        horizon,
                        processor: rta_model::ProcessorId(0),
                    },
                    &mut scratch,
                    &mut out,
                )
                .unwrap();
            out.upper.len()
        });
    }

    // End-to-end drivers on the largest analysis_scaling configs.
    let big = shop(SchedulerKind::Spp, 8, 6);
    b.run("analysis/exact_spp_8stage_6job", || {
        analyze_exact_spp(&big, &AnalysisConfig::default()).unwrap()
    });
    let wide = shop(SchedulerKind::Spp, 2, 12);
    b.run("analysis/exact_spp_2stage_12job", || {
        analyze_exact_spp(&wide, &AnalysisConfig::default()).unwrap()
    });
    let spnp = shop(SchedulerKind::Spnp, 2, 6);
    b.run("analysis/fixpoint_loops_2stage_6job", || {
        rta_core::fixpoint::analyze_with_loops(&spnp, &AnalysisConfig::default(), 4).unwrap()
    });

    // The cold one-pass Theorem-4 driver on one set of the 4-stage Fig. 3
    // panel (deadline 4× period) at utilization 0.6 — the per-set work of
    // the SPNP/App and FCFS/App series.
    let fig3_4stage = figures::fig3_panels()
        .into_iter()
        .find(|p| p.base.stages == 4)
        .expect("Fig. 3 has a 4-stage panel")
        .base;
    for (kind, label) in [(SchedulerKind::Spnp, "spnp"), (SchedulerKind::Fcfs, "fcfs")] {
        let cfg = ShopConfig {
            scheduler: kind,
            utilization: 0.6,
            ..fig3_4stage.clone()
        };
        let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(42)).unwrap();
        if kind.uses_priorities() {
            assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        }
        b.run(&format!("analysis/bounds_{label}_fig3_4stage"), || {
            analyze_bounds(&sys, &AnalysisConfig::default()).unwrap()
        });
    }

    // The warm verdict-only bounds pass on the same panel under IWRR at
    // utilization 0.3: one round-robin kernel call per subjob
    // (`rta_curves::iwrr`).
    let iwrr = generate(
        &ShopConfig {
            scheduler: SchedulerKind::Iwrr,
            utilization: 0.3,
            ..fig3_4stage.clone()
        },
        &mut StdRng::seed_from_u64(42),
    )
    .unwrap();
    b.run("iwrr/bounds_fig3_4stage", || {
        bounds_schedulable(&iwrr, &AnalysisConfig::default()).unwrap()
    });

    let json = b.to_json(&[
        ("suite", "BENCH_curves"),
        ("package", "rta-bench"),
        ("profile", "release"),
    ]);
    if cfg!(feature = "alloc_stats") {
        println!("\nalloc_stats build: not overwriting BENCH_curves.json (timings perturbed)");
    } else {
        std::fs::write("BENCH_curves.json", &json).expect("write BENCH_curves.json");
        println!(
            "\nwrote BENCH_curves.json ({} benchmarks)",
            b.results().len()
        );
    }

    incremental_suite();
}

/// Cold-vs-warm sweeps through the incremental re-analysis engine
/// (`BENCH_incremental.json`). Every cold/session pair computes the same
/// verdicts — the oracle tests in `incremental_oracles.rs` pin them
/// bit-for-bit — so the ratio is pure reuse.
fn incremental_suite() {
    let mut b = Bench::new();
    // Full-precision λ search (64 bisection steps resolves λ* to the f64
    // limit): execution times are integer ticks, so past the first ~12
    // probes every bisection midpoint lands on an already-seen quantized
    // system — a cold driver re-analyzes it, a session answers from its
    // verdict memo.
    let iters = 64;

    // Bisection sweep, loop-tolerant oracle, frame pinned as in the
    // service. An 8-stage pipeline makes the fixpoint's priority chains
    // deep and coarse ticks keep the probe space small, as in the paper's
    // unit-scale experiments. Cold: clone + full fixpoint per probe; the
    // session adds the verdict memo (a scale probe drops the whole
    // fixpoint memo).
    let spnp = shop_at_ticks(SchedulerKind::Spnp, 8, 6, 8);
    let (w, h) = AnalysisConfig::default().resolve(&spnp);
    let pinned = AnalysisConfig {
        arrival_window: Some(w),
        horizon: Some(h),
        ..AnalysisConfig::default()
    };
    let rounds = 24;
    b.run("critical_scaling/loops_cold", || {
        bisect(iters, |f| {
            rta_core::fixpoint::analyze_with_loops(&spnp.with_scaled_exec(f), &pinned, rounds)
                .map(|r| r.all_schedulable())
                .unwrap_or(false)
        })
    });
    b.run("critical_scaling/loops_session", || {
        AnalysisSession::pinned(spnp.clone(), pinned.clone())
            .critical_scaling(Oracle::Loops { max_rounds: rounds }, iters)
            .unwrap()
    });

    // The allocation-free steady state: one warm fixpoint run per
    // iteration on a session whose per-processor memo is complete, so the
    // run copies every subjob's bounds and assembles the report — the
    // floor under every warm verdict; the `alloc_budget` test pins its
    // heap traffic.
    let small = shop_at_ticks(SchedulerKind::Spnp, 2, 6, 8);
    let (sw, sh) = AnalysisConfig::default().resolve(&small);
    let small_pinned = AnalysisConfig {
        arrival_window: Some(sw),
        horizon: Some(sh),
        ..AnalysisConfig::default()
    };
    {
        let mut warm = AnalysisSession::pinned(small.clone(), small_pinned.clone());
        warm.analyze_with_loops(rounds).unwrap();
        b.run("fixpoint_loops/alloc_free", move || {
            warm.analyze_with_loops(rounds).unwrap()
        });
    }

    // A warm admission probe as the service runs one: add a lowest-priority
    // one-hop candidate to a pinned session, ask for the verdict, remove
    // it. The exact oracle recomputes the candidate's subjob alone; the
    // fixpoint re-evaluates the candidate's processor and copies the rest.
    for (kind, oracle, label) in [
        (SchedulerKind::Spp, Oracle::Exact, "exact_spp"),
        (
            SchedulerKind::Spnp,
            Oracle::Loops { max_rounds: 8 },
            "fixpoint_spnp",
        ),
    ] {
        let sys = shop(kind, 2, 6);
        let (w, h) = AnalysisConfig::default().resolve(&sys);
        let pinned = AnalysisConfig {
            arrival_window: Some(w),
            horizon: Some(h),
            ..AnalysisConfig::default()
        };
        let probe = lowest_priority_probe(&sys);
        let mut warm = AnalysisSession::pinned(sys, pinned);
        warm.schedulable(oracle).unwrap();
        b.run(&format!("admit_probe/{label}_2stage_6job"), move || {
            let id = warm.add_job(probe.clone());
            let verdict = warm.schedulable(oracle).unwrap();
            warm.remove_job(id);
            verdict
        });
    }

    // Same sweep with the exact oracle at full tick resolution (dynamic
    // frame, like the free function) — the conservative data point: far
    // more distinct probes, memoization only collapses the tail.
    let spp = shop(SchedulerKind::Spp, 2, 6);
    let acfg = AnalysisConfig::default();
    b.run("critical_scaling/exact_cold", || {
        bisect(iters, |f| {
            analyze_exact_spp(&spp.with_scaled_exec(f), &acfg)
                .map(|r| r.all_schedulable())
                .unwrap_or(false)
        })
    });
    b.run("critical_scaling/exact_session", || {
        AnalysisSession::new(spp.clone(), acfg.clone())
            .critical_scaling(Oracle::Exact, iters)
            .unwrap()
    });

    // Schedulability-region sweep: a 32×32 (execution-scale × burst-length)
    // grid over the bursty SPP pipeline under the exact oracle. For the
    // exact path `explore_region` walks scale-outer/burst-inner, so the
    // inner delta is a single `set_arrival` whose dirty cone is just the
    // bursty flow's two subjobs — the other 32 single-hop jobs are served
    // from the session's curve and verdict caches. `grid_cold` performs the
    // *identical* transposed walk — same pinned frame, same early exits
    // (a column failing at the smallest burst fails all wider ones) — with
    // a fresh full analysis per probe. The verdicts coincide (the
    // `frontier_is_monotone_and_matches_cold_analysis` and
    // `loops_oracle_cells_match_cold_fixpoint` region tests pin both walk
    // orders), so the ratio is pure session reuse.
    let pipeline = bursty_pipeline(16, 2);
    let region = RegionConfig::grid(0.25, 4.0, 32, 1, 32, 32, Oracle::Exact);
    b.run("region/32x32_grid", || {
        explore_region(&pipeline, &acfg, &region).unwrap()
    });
    let (rw, rh) = acfg.resolve(&with_burst(&pipeline, 32));
    let rpinned = AnalysisConfig {
        arrival_window: Some(rw),
        horizon: Some(rh),
        ..AnalysisConfig::default()
    };
    b.run("region/32x32_grid_cold", || {
        let mut masks = vec![vec![false; region.scales.len()]; region.burst_lens.len()];
        'columns: for (si, &s) in region.scales.iter().enumerate() {
            for (bi, &bl) in region.burst_lens.iter().enumerate() {
                let row_sys = with_burst(&pipeline, bl).with_scaled_exec(s);
                let ok = rta_core::analyze_exact_spp(&row_sys, &rpinned)
                    .map(|r| r.all_schedulable())
                    .unwrap_or(false);
                if ok {
                    masks[bi][si] = true;
                } else if bi == 0 {
                    break 'columns;
                } else {
                    break;
                }
            }
        }
        masks
    });

    // The paper's 1,000-set admission sweep through the production
    // `admission_probability`, which runs on the batched scenario engine.
    let base = ShopConfig {
        stages: 1,
        procs_per_stage: 2,
        n_jobs: 4,
        scheduler: SchedulerKind::Spp,
        utilization: 0.6,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 2.0,
        },
        x_min: 0.25,
        ticks_per_unit: 200,
    };
    b.run("admission/1000sets_pooled", || {
        admission_probability(&base, Method::SppSL, 1000, 7, &acfg)
    });

    // With the counting allocator installed, also report heap traffic per
    // warm analysis (not a timed row: the counter's atomics perturb the
    // timing baselines, so `alloc_stats` builds never overwrite the JSON
    // written by default builds — see the guard below).
    #[cfg(feature = "alloc_stats")]
    {
        let mut warm = AnalysisSession::pinned(small.clone(), small_pinned.clone());
        for _ in 0..3 {
            warm.analyze_with_loops(rounds).unwrap();
        }
        const RUNS: u64 = 64;
        let before = rta_bench::alloc_stats::alloc_count();
        for _ in 0..RUNS {
            warm.analyze_with_loops(rounds).unwrap();
        }
        let per = (rta_bench::alloc_stats::alloc_count() - before) as f64 / RUNS as f64;
        println!("\nallocs/analysis (warm memoized fixpoint): {per:.2}");
    }

    let json = b.to_json(&[
        ("suite", "BENCH_incremental"),
        ("package", "rta-bench"),
        ("profile", "release"),
    ]);
    if cfg!(feature = "alloc_stats") {
        println!("alloc_stats build: not overwriting BENCH_incremental.json (timings perturbed)");
    } else {
        std::fs::write("BENCH_incremental.json", &json).expect("write BENCH_incremental.json");
        println!(
            "\nwrote BENCH_incremental.json ({} benchmarks)",
            b.results().len()
        );
    }
}

/// A one-hop candidate below every resident of job 0's first processor,
/// with a quarter of that hop's execution time and job 0's arrivals.
fn lowest_priority_probe(sys: &TaskSystem) -> Job {
    let first = &sys.jobs()[0];
    let hop = &first.subjobs[0];
    let lowest = sys
        .subjobs_on(hop.processor)
        .iter()
        .filter_map(|&r| sys.subjob(r).priority)
        .max()
        .unwrap_or(0);
    Job {
        name: "probe".into(),
        deadline: first.deadline,
        arrival: first.arrival.clone(),
        subjobs: vec![Subjob {
            processor: hop.processor,
            exec: Time((hop.exec.ticks() / 4).max(1)),
            priority: Some(lowest + 1),
            weight: None,
        }],
    }
}

/// The `critical_scaling` search shape, over an arbitrary probe.
fn bisect(iterations: u32, probe: impl Fn(f64) -> bool) -> Option<f64> {
    let (mut lo, mut hi) = (1.0 / 64.0, 64.0);
    if !probe(lo) {
        return None;
    }
    if probe(hi) {
        return Some(hi);
    }
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}
