//! Policy-conformance property suite: every registered [`ServicePolicy`]
//! must honor the trait's soundness obligations on randomized workloads.
//!
//! The contract a driver relies on (see `DESIGN.md` §4c):
//!
//! * **Zero start** — `S̲(0) = S̄(0) = 0`: no service before time zero.
//! * **Monotone** — both bounds are nondecreasing (cumulative service).
//! * **Causal** — `S̄(t) ≤ min(t, c̄(t))`: a processor cannot serve more
//!   than wall-clock time, nor more work than has arrived.
//! * **Ordered** — `0 ≤ S̲(t) ≤ S̄(t)` everywhere.
//! * **Registry coherence** — `policy_for(p.kind()).kind() == p.kind()`,
//!   and `supports_exact()` implies the Theorem-3 kernel the exact driver
//!   runs (`spp::exact_service_into`) yields a curve obeying the same
//!   obligations.
//!
//! The suite iterates `all_policies()`, so a future fifth discipline is
//! checked the moment it is registered — adding a policy that violates the
//! seam fails here before any driver test notices. Bounds come from the
//! one trait method, `ServicePolicy::service_bounds`, through the helper in
//! `support`.

mod support;

use proptest::prelude::*;
use rta_core::policy::{all_policies, policy_for, BoundsInputs, PeerInputs, ProcessorContexts};
use rta_core::spp::exact_service_into;
use rta_core::{AnalysisConfig, SpnpAvailability};
use rta_curves::{Scratch, SoaCurve, Time};
use rta_model::{ArrivalPattern, ProcessorId, SchedulerKind, SubjobRef, SystemBuilder, TaskSystem};
use support::{pattern, scaled, service_bounds_of};

/// One randomized flow: trace release times and an execution time.
#[derive(Debug, Clone)]
struct Flow {
    releases: Vec<i64>,
    exec: i64,
}

fn arb_flows() -> impl Strategy<Value = Vec<Flow>> {
    prop::collection::vec(
        (prop::collection::vec(0i64..80, 1..6), 1i64..8).prop_map(|(mut releases, exec)| {
            releases.sort_unstable();
            Flow { releases, exec }
        }),
        2..4,
    )
}

/// A single-processor system of single-hop trace jobs under `kind`.
/// Priorities are distinct by construction; weights cycle 1..=3 so the
/// IWRR policy sees a non-trivial weight vector.
fn flow_sys(kind: SchedulerKind, flows: &[Flow]) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p = b.add_processor("P", kind);
    for (k, f) in flows.iter().enumerate() {
        let job = b.add_job(
            format!("T{k}"),
            Time(500),
            ArrivalPattern::Trace(f.releases.iter().map(|&t| Time(t)).collect()),
            vec![(p, Time(f.exec))],
        );
        let r = SubjobRef { job, index: 0 };
        b.set_priority(r, k as u32 + 1);
        b.set_weight(r, k as u32 % 3 + 1);
    }
    b.build().unwrap()
}

fn assert_service_obligations(
    label: &str,
    lower: &SoaCurve,
    upper: &SoaCurve,
    workload: &SoaCurve,
    horizon: Time,
) {
    assert_eq!(lower.eval(Time::ZERO), 0, "{label}: S̲(0) ≠ 0");
    assert_eq!(upper.eval(Time::ZERO), 0, "{label}: S̄(0) ≠ 0");
    assert!(lower.is_nondecreasing(), "{label}: S̲ not monotone");
    assert!(upper.is_nondecreasing(), "{label}: S̄ not monotone");
    for t in (0..=horizon.ticks()).map(Time) {
        let (lo, up) = (lower.eval(t), upper.eval(t));
        assert!(lo >= 0, "{label}: S̲({t:?}) = {lo} < 0");
        assert!(lo <= up, "{label}: S̲({t:?}) = {lo} > S̄ = {up}");
        assert!(
            up <= t.ticks().max(0),
            "{label}: S̄({t:?}) = {up} exceeds wall clock"
        );
        assert!(
            up <= workload.eval(t),
            "{label}: S̄({t:?}) = {up} exceeds arrived work {}",
            workload.eval(t)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every registered policy produces sound service bounds on random
    /// bursty multi-flow workloads, under both SPNP availability variants.
    #[test]
    fn every_policy_produces_sound_service_bounds(flows in arb_flows()) {
        for policy in all_policies() {
            let kind = policy.kind();
            prop_assert_eq!(policy_for(kind).kind(), kind, "registry must round-trip");

            let sys = flow_sys(kind, &flows);
            let cfg = AnalysisConfig {
                arrival_window: Some(Time(120)),
                ..AnalysisConfig::default()
            };
            let (window, horizon) = cfg.resolve(&sys);
            let p = ProcessorId(0);

            // Workloads exactly as the drivers derive them, per subjob in
            // dense (single-hop: job) order.
            let workloads: Vec<SoaCurve> = sys
                .subjobs_on(p)
                .into_iter()
                .map(|r| scaled(&pattern(&sys, r, window), sys.subjob(r).exec.ticks()))
                .collect();
            let workload_of = |r: SubjobRef| &workloads[r.job.0];

            for variant in [SpnpAvailability::Conservative, SpnpAvailability::AsPrinted] {
                let mut ctxs = ProcessorContexts::new();
                if policy.peer_inputs() == PeerInputs::SharedWorkloads {
                    ctxs.ensure(&sys, p, horizon, &workload_of).unwrap();
                }

                // Evaluate flows from highest to lowest priority so the
                // hp service bounds exist when a lower flow needs them.
                let mut order = sys.subjobs_on(p);
                order.sort_by_key(|&r| sys.subjob(r).priority);
                let mut done: Vec<(SubjobRef, SoaCurve, SoaCurve)> = Vec::new();
                for r in order {
                    let workload = workload_of(r);
                    let hp = sys.higher_priority_peers(r);
                    let hp_lower: Vec<&SoaCurve> = hp
                        .iter()
                        .map(|h| &done.iter().find(|(o, _, _)| o == h).expect("priority order").1)
                        .collect();
                    let hp_upper: Vec<&SoaCurve> = hp
                        .iter()
                        .map(|h| &done.iter().find(|(o, _, _)| o == h).expect("priority order").2)
                        .collect();
                    let bounds = service_bounds_of(
                        policy,
                        &BoundsInputs {
                            workload,
                            tau: sys.subjob(r).exec,
                            weight: sys.subjob(r).weight(),
                            blocking: policy.blocking(&sys, r),
                            hp_lower: &hp_lower,
                            hp_upper: &hp_upper,
                            variant,
                            ctx: ctxs.get(p),
                            horizon,
                            processor: p,
                        },
                    )
                    .unwrap();
                    let label = format!("{kind:?}/{variant:?}/{r:?}");
                    assert_service_obligations(&label, &bounds.lower, &bounds.upper, workload, horizon);
                    done.push((r, bounds.lower, bounds.upper));
                }
            }

            // Exact-capable policies: the exact service function obeys the
            // same obligations (checked flow-by-flow, peers folded in).
            if policy.supports_exact() {
                let mut order = sys.subjobs_on(p);
                order.sort_by_key(|&r| sys.subjob(r).priority);
                let mut services: Vec<(SubjobRef, SoaCurve)> = Vec::new();
                for r in order {
                    let workload = workload_of(r);
                    let hp = sys.higher_priority_peers(r);
                    let hp_services: Vec<&SoaCurve> = hp
                        .iter()
                        .map(|h| &services.iter().find(|(o, _)| o == h).expect("order").1)
                        .collect();
                    let mut exact = SoaCurve::zero();
                    exact_service_into(workload, &hp_services, &mut Scratch::new(), &mut exact);
                    let label = format!("{kind:?}/exact/{r:?}");
                    assert_service_obligations(&label, &exact, &exact, workload, horizon);
                    services.push((r, exact));
                }
            }
        }
    }
}
