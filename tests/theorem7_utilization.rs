//! Theorem 7 identity: for any work-conserving scheduler, the processor's
//! utilization function computed from the exact aggregate workload
//! (`U(t) = min(t, min_s(t − s + G(s⁻)))`) must equal the simulator's
//! observed busy time — independently of whether the processor runs SPP,
//! SPNP or FCFS (the min-form only uses work conservation).
//!
//! Only the *first* stage qualifies for an exact check (its arrivals are
//! known exactly); single-stage shops are therefore used.

use bursty_rta::curves::{SoaCurve, Time};
use bursty_rta::model::jobshop::{generate, ShopArrivals, ShopConfig};
use bursty_rta::model::priority::{assign_priorities, PriorityPolicy};
use bursty_rta::model::{ProcessorId, SchedulerKind};
use bursty_rta::sim::{simulate, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Theorem 7 evaluated tick by tick on `[0, until]`:
/// `U(t) = max(0, min(t, t + min_{0 ≤ s ≤ t} (G(s⁻) − s)))` with
/// `G = Σ c` and `G(0⁻) = 0`.
fn theorem7_utilization(workloads: &[SoaCurve], until: Time) -> Vec<i64> {
    let g = |t: i64| workloads.iter().map(|c| c.eval(Time(t))).sum::<i64>();
    let mut run = i64::MAX;
    (0..=until.ticks())
        .map(|t| {
            let g_left = if t == 0 { 0 } else { g(t - 1) };
            run = run.min(g_left - t);
            t.min(t + run).max(0)
        })
        .collect()
}

#[test]
fn observed_utilization_matches_theorem7_for_all_schedulers() {
    for scheduler in [SchedulerKind::Spp, SchedulerKind::Spnp, SchedulerKind::Fcfs] {
        for seed in 0..15 {
            for util in [0.4, 0.8] {
                let cfg = ShopConfig {
                    stages: 1,
                    procs_per_stage: 2,
                    n_jobs: 5,
                    scheduler,
                    utilization: util,
                    arrivals: ShopArrivals::Periodic {
                        deadline_factor: 3.0,
                    },
                    x_min: 0.25,
                    ticks_per_unit: 100,
                };
                let mut rng = StdRng::seed_from_u64(seed);
                let mut sys = generate(&cfg, &mut rng).unwrap();
                if scheduler.uses_priorities() {
                    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
                }
                let scfg = SimConfig::defaults_for(&sys);
                let sim = simulate(&sys, &scfg);
                for p in 0..sys.processors().len() {
                    let pid = ProcessorId(p);
                    let refs = sys.subjobs_on(pid);
                    if refs.is_empty() {
                        continue;
                    }
                    let workloads: Vec<SoaCurve> = refs
                        .iter()
                        .map(|r| {
                            let mut c = SoaCurve::zero();
                            sys.job(r.job)
                                .arrival
                                .arrival_curve(scfg.window)
                                .scale_into(sys.subjob(*r).exec.ticks(), &mut c);
                            c
                        })
                        .collect();
                    // Compare up to the point where horizon truncation can
                    // differ (everything released is served well before
                    // horizon − max deadline).
                    let until = scfg.window;
                    let analytic = theorem7_utilization(&workloads, until);
                    let observed = sim.observed_utilization(&sys, pid);
                    for t in (0..=until.ticks()).step_by(13) {
                        assert_eq!(
                            analytic[t as usize],
                            observed.eval(Time(t)),
                            "{scheduler} seed {seed} util {util} proc {p} t={t}"
                        );
                    }
                }
            }
        }
    }
}
