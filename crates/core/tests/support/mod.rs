//! Test support shared by the driver oracle suites: the legacy one-pass
//! Theorem-4 bounds pass on the allocating AoS kernels, with explicit
//! `match` dispatch on the scheduler kind.
//!
//! This is how `analyze_bounds` computed its nodes before the policy seam
//! and before the SoA workspace pipeline: per subjob in dependency order,
//! the arrival envelope (the primary pattern at the first hop, the
//! upstream upper bound's Lemma-2 envelope after it), the service bounds,
//! and the departure/next-hop curves — every curve freshly allocated. The
//! production driver must reproduce it hop delay for hop delay.

#![allow(dead_code)]

use std::collections::HashMap;

use rta_core::depgraph::{evaluation_order, SubjobIndex};
use rta_core::fcfs::FcfsProcessor;
use rta_core::policy::{policy_for, BoundsInputs};
use rta_core::spnp::{spnp_bounds, ServiceBounds};
use rta_core::{AnalysisConfig, BoundsReport};
use rta_curves::{Curve, CurveCursor, Time};
use rta_model::{JobId, SchedulerKind, SubjobRef, TaskSystem};

/// One subjob's curves in the legacy pass.
pub struct LegacyNode {
    pub arr_env: Curve,
    pub bounds: ServiceBounds,
    pub dep_lower: Curve,
    pub arr_next: Curve,
}

/// What `compute_nodes` looked like before the `ServicePolicy` seam: a
/// `match` on the scheduler kind, with the FCFS slot map built at the first
/// subjob of each FCFS processor. IWRR postdates the seam; its arm calls
/// the policy's AoS kernel with a context built the same way.
pub fn legacy_compute_nodes(sys: &TaskSystem, cfg: &AnalysisConfig) -> Vec<LegacyNode> {
    let (window, horizon) = cfg.resolve(sys);
    let idx = SubjobIndex::new(sys);
    let order = evaluation_order(sys, &idx).expect("acyclic fixture");

    let mut nodes: Vec<Option<LegacyNode>> = Vec::with_capacity(idx.len());
    nodes.resize_with(idx.len(), || None);
    let mut fcfs: HashMap<usize, FcfsProcessor> = HashMap::new();

    let arr_env_of = |nodes: &[Option<LegacyNode>], r: SubjobRef| -> Curve {
        if r.index == 0 {
            sys.job(r.job).arrival.arrival_curve(window)
        } else {
            let pred = SubjobRef {
                job: r.job,
                index: r.index - 1,
            };
            nodes[idx.index(pred)]
                .as_ref()
                .expect("dependency order")
                .arr_next
                .clone()
        }
    };
    let peer_workloads = |nodes: &[Option<LegacyNode>], p| -> (Vec<SubjobRef>, Vec<Curve>) {
        let peers = sys.subjobs_on(p);
        let workloads = peers
            .iter()
            .map(|&o| arr_env_of(nodes, o).scale(sys.subjob(o).exec.ticks()))
            .collect();
        (peers, workloads)
    };

    for i in order {
        let r = idx.subjob(i);
        let subjob = sys.subjob(r);
        let tau = subjob.exec;
        let arr_env = arr_env_of(&nodes, r);
        let workload = arr_env.scale(tau.ticks());

        let bounds = match sys.processor(subjob.processor).scheduler {
            kind @ (SchedulerKind::Spp | SchedulerKind::Spnp) => {
                let hp = sys.higher_priority_peers(r);
                let hp_lower: Vec<&Curve> = hp
                    .iter()
                    .map(|h| &nodes[idx.index(*h)].as_ref().expect("order").bounds.lower)
                    .collect();
                let hp_upper: Vec<&Curve> = hp
                    .iter()
                    .map(|h| &nodes[idx.index(*h)].as_ref().expect("order").bounds.upper)
                    .collect();
                let blocking = if kind == SchedulerKind::Spnp {
                    sys.blocking_time(r)
                } else {
                    Time::ZERO
                };
                spnp_bounds(
                    &workload,
                    &hp_lower,
                    &hp_upper,
                    blocking,
                    cfg.spnp_availability,
                )
                .expect("paired peer slices")
            }
            SchedulerKind::Fcfs => {
                let proc = fcfs.entry(subjob.processor.0).or_insert_with(|| {
                    let (_, workloads) = peer_workloads(&nodes, subjob.processor);
                    let refs: Vec<&Curve> = workloads.iter().collect();
                    FcfsProcessor::new(&refs, horizon).expect("fcfs slot map")
                });
                proc.service_bounds(&workload, tau).expect("fcfs bounds")
            }
            SchedulerKind::Iwrr => {
                let policy = policy_for(SchedulerKind::Iwrr);
                let (peers, workloads) = peer_workloads(&nodes, subjob.processor);
                let refs: Vec<&Curve> = workloads.iter().collect();
                let ctx = policy
                    .build_context(sys, subjob.processor, &peers, &refs, horizon)
                    .expect("iwrr context");
                policy
                    .service_bounds(&BoundsInputs {
                        workload: &workload,
                        tau,
                        weight: subjob.weight(),
                        blocking: Time::ZERO,
                        hp_lower: &[],
                        hp_upper: &[],
                        variant: cfg.spnp_availability,
                        ctx: ctx.as_ref(),
                        horizon,
                        processor: subjob.processor,
                    })
                    .expect("iwrr bounds")
            }
        };

        let dep_lower = bounds.lower.floor_div(tau.ticks(), horizon).unwrap();
        let arr_next = bounds.upper.floor_div(tau.ticks(), horizon).unwrap();
        nodes[i] = Some(LegacyNode {
            arr_env,
            bounds,
            dep_lower,
            arr_next,
        });
    }
    nodes
        .into_iter()
        .map(|n| n.expect("all computed"))
        .collect()
}

/// Per job: its hop delays and end-to-end bound.
pub type BoundsSummary = Vec<(Vec<Option<Time>>, Option<Time>)>;

/// Legacy `analyze_bounds`: Eq. 12 hop delays summed per Eq. 11.
pub fn legacy_bounds(sys: &TaskSystem, cfg: &AnalysisConfig) -> BoundsSummary {
    let (window, _) = cfg.resolve(sys);
    let idx = SubjobIndex::new(sys);
    let nodes = legacy_compute_nodes(sys, cfg);

    let mut out = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let n_instances = job.arrival.release_times(window).len() as i64;
        let mut hop_delays = Vec::with_capacity(job.subjobs.len());
        for j in 0..job.subjobs.len() {
            let node = &nodes[idx.index(SubjobRef {
                job: JobId(k),
                index: j,
            })];
            let mut arr_cur = CurveCursor::new(&node.arr_env);
            let mut dep_cur = CurveCursor::new(&node.dep_lower);
            let mut d = Some(Time::ZERO);
            for m in 1..=n_instances {
                d = match (d, arr_cur.inverse_at(m), dep_cur.inverse_at(m)) {
                    (Some(d), Some(early), Some(late)) => Some(d.max(late - early)),
                    _ => None,
                };
            }
            hop_delays.push(d);
        }
        let e2e = hop_delays
            .iter()
            .try_fold(Time::ZERO, |acc, d| d.map(|d| acc + d));
        out.push((hop_delays, e2e));
    }
    out
}

/// The per-job hop delays and end-to-end bounds of a driver report, in the
/// shape [`legacy_bounds`] returns.
pub fn summary(report: &BoundsReport) -> BoundsSummary {
    report
        .jobs
        .iter()
        .map(|j| (j.hop_delays.clone(), j.e2e_bound))
        .collect()
}
