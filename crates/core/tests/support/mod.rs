//! Test support shared by the driver oracle suites, both drivers rebuilt
//! on the allocating AoS kernels through public APIs only:
//!
//! * the legacy one-pass Theorem-4 bounds pass, with explicit `match`
//!   dispatch on the scheduler kind. This is how `analyze_bounds` computed
//!   its nodes before the policy seam and before the SoA workspace
//!   pipeline: per subjob in dependency order, the arrival envelope (the
//!   primary pattern at the first hop, the upstream upper bound's Lemma-2
//!   envelope after it), the service bounds, and the departure/next-hop
//!   curves — every curve freshly allocated. The production driver must
//!   reproduce it hop delay for hop delay.
//! * the Section 6 fixed point as plain Jacobi rounds
//!   ([`analyze_with_loops_aos_reference`]): every round re-evaluates every
//!   subjob from the previous round's bounds. The production driver
//!   evaluates each subjob once, in priority order, and must reproduce
//!   these rounds' reports at every budget.

#![allow(dead_code)]

use std::collections::HashMap;

use rta_core::depgraph::{evaluation_order, SubjobIndex};
use rta_core::fcfs::FcfsProcessor;
use rta_core::policy::{policy_for, BoundsInputs, PeerInputs, PolicyContext};
use rta_core::spnp::{spnp_bounds, ServiceBounds};
use rta_core::{AnalysisConfig, AnalysisError, BoundsReport, JobBound};
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
            hop_delays.push(hop_delay(&node.arr_env, &node.dep_lower, n_instances));
        }
        let e2e = hop_delays
            .iter()
            .try_fold(Time::ZERO, |acc, d| d.map(|d| acc + d));
        out.push((hop_delays, e2e));
    }
    out
}

/// Eq. 12: the largest gap, over the first `n_instances` instances,
/// between an instance's earliest arrival at the hop and its latest
/// departure; `None` when some instance never departs within the horizon.
pub fn hop_delay(arr_env: &Curve, dep_lower: &Curve, n_instances: i64) -> Option<Time> {
    let mut arr_cur = CurveCursor::new(arr_env);
    let mut dep_cur = CurveCursor::new(dep_lower);
    let mut d = Some(Time::ZERO);
    for m in 1..=n_instances {
        d = match (d, arr_cur.inverse_at(m), dep_cur.inverse_at(m)) {
            (Some(d), Some(early), Some(late)) => Some(d.max(late - early)),
            _ => None,
        };
    }
    d
}

/// The Section 6 fixed point as plain Jacobi rounds on the AoS kernels.
///
/// Cycle-free envelopes (the primary pattern shifted by the upstream
/// minimum processing) and workloads are built once; each shared-workload
/// processor's context is built from its peers' workloads, in subjob
/// order; round 0 is the information-free bound `[0, max(0, min(t, c̄))]`;
/// every round then re-evaluates every subjob's policy kernel from the
/// previous round's bounds, stopping early once a round changes nothing;
/// Eq. 12 hop delays against the envelopes close the report.
pub fn analyze_with_loops_aos_reference(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
) -> Result<BoundsReport, AnalysisError> {
    sys.validate(true)?;
    assert!(max_rounds >= 1);
    let (window, horizon) = cfg.resolve(sys);
    let idx = SubjobIndex::new(sys);

    let mut arr_env = Vec::with_capacity(idx.len());
    let mut workload = Vec::with_capacity(idx.len());
    for job in sys.jobs() {
        let first = job.arrival.arrival_curve(window);
        let mut shift = Time::ZERO;
        for s in &job.subjobs {
            let env = first.shift_right(shift, 0);
            workload.push(env.scale(s.exec.ticks()));
            arr_env.push(env);
            shift += s.exec;
        }
    }

    let mut ctxs: HashMap<usize, Option<PolicyContext>> = HashMap::new();
    for &r in idx.refs() {
        let p = sys.subjob(r).processor;
        let policy = policy_for(sys.processor(p).scheduler);
        if policy.peer_inputs() == PeerInputs::SharedWorkloads && !ctxs.contains_key(&p.0) {
            let peers = sys.subjobs_on(p);
            let peer_workloads: Vec<&Curve> =
                peers.iter().map(|&o| &workload[idx.index(o)]).collect();
            let ctx = policy.build_context(sys, p, &peers, &peer_workloads, horizon)?;
            ctxs.insert(p.0, ctx);
        }
    }

    let hp: Vec<Vec<usize>> = idx
        .refs()
        .iter()
        .map(|&r| {
            let p = sys.subjob(r).processor;
            match policy_for(sys.processor(p).scheduler).peer_inputs() {
                PeerInputs::HigherPriorityServices => sys
                    .higher_priority_peers(r)
                    .iter()
                    .map(|&h| idx.index(h))
                    .collect(),
                PeerInputs::SharedWorkloads => Vec::new(),
            }
        })
        .collect();
    let mut cur: Vec<ServiceBounds> = workload
        .iter()
        .map(|w| ServiceBounds {
            lower: Curve::affine(0, 0),
            upper: Curve::identity().min_with(w).clamp_min(0),
        })
        .collect();
    for _ in 0..max_rounds {
        let mut next = Vec::with_capacity(cur.len());
        for (i, &r) in idx.refs().iter().enumerate() {
            let s = sys.subjob(r);
            let policy = policy_for(sys.processor(s.processor).scheduler);
            let hp_lower: Vec<&Curve> = hp[i].iter().map(|&h| &cur[h].lower).collect();
            let hp_upper: Vec<&Curve> = hp[i].iter().map(|&h| &cur[h].upper).collect();
            next.push(policy.service_bounds(&BoundsInputs {
                workload: &workload[i],
                tau: s.exec,
                weight: s.weight(),
                blocking: policy.blocking(sys, r),
                hp_lower: &hp_lower,
                hp_upper: &hp_upper,
                variant: cfg.spnp_availability,
                ctx: ctxs.get(&s.processor.0).and_then(Option::as_ref),
                horizon,
                processor: s.processor,
            })?);
        }
        let settled = next == cur;
        cur = next;
        if settled {
            break;
        }
    }

    let mut jobs = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let n_instances = job.arrival.release_times(window).len() as i64;
        let mut hop_delays = Vec::with_capacity(job.subjobs.len());
        for (j, s) in job.subjobs.iter().enumerate() {
            let i = idx.index(SubjobRef {
                job: JobId(k),
                index: j,
            });
            let dep_lower = cur[i].lower.floor_div(s.exec.ticks(), horizon)?;
            hop_delays.push(hop_delay(&arr_env[i], &dep_lower, n_instances));
        }
        let e2e_bound = hop_delays
            .iter()
            .try_fold(Time::ZERO, |acc, d| d.map(|d| acc + d));
        jobs.push(JobBound {
            job: JobId(k),
            hop_delays,
            e2e_bound,
            deadline: job.deadline,
        });
    }
    Ok(BoundsReport {
        window,
        horizon,
        jobs,
    })
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
