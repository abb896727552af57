//! Loop-tolerant bounds analysis — the Section 6 extension.
//!
//! When a job visits the same processor twice ("physical loop") or two jobs
//! interfere with each other's upstream hops ("logical loop"), the subjob
//! dependency relation is cyclic and the one-pass analyses fail with
//! [`AnalysisError::CyclicDependency`]. Section 6 of the paper sketches the
//! remedy: treat the unknown quantities as a vector `X` and iterate
//! `Xⁿ⁺¹ = F(Xⁿ)` from `X¹ = 0̄`.
//!
//! This module implements that scheme over *service-curve* unknowns:
//!
//! * Arrival envelopes never need peer services: instance `m` reaches hop
//!   `j` no earlier than its release plus the minimum processing of the
//!   upstream hops, so `f̄_{arr,j}(t) = f_{arr,1}(t − Σ_{i<j} τ_i)` is a
//!   sound (cycle-free) envelope.
//! * Higher-priority interference starts from the information-free bounds
//!   `S̄_h⁰ = min(t, c̄_h(t))`, `S̲_h⁰ = 0`, and each round recomputes every
//!   subjob's Theorem 5/6 (or 8/9) bounds from the previous round's values.
//!   Every round's output is sound, and rounds only tighten, so the
//!   iteration can stop at any budget; it converges when no curve changes.
//!
//! On acyclic systems neither this bound nor [`crate::analyze_bounds`]
//! dominates the other: the one-pass driver chains Lemma-2 envelopes hop by
//! hop, this one shifts the primary envelope by the upstream minimum
//! processing, and either can be the tighter one for a given job. Unlike
//! the one-pass driver, this one is defined for arbitrary topologies.
//!
//! ## Warm starts
//!
//! The only cross-subjob inputs of a round are the service bounds of
//! strictly higher-priority peers on the same processor. Priorities are a
//! strict order per processor, so that input relation is a DAG even when the
//! full subjob dependency graph (with chain edges) is cyclic — the arrival
//! envelopes above are computed once, outside the iteration. A DAG of pure
//! per-node functions has exactly one fixed point, reached from *any*
//! starting vector within `depth + 1` rounds. [`analyze_with_loops_seeded`]
//! exploits this: seeding the iteration with the converged bounds of a
//! nearby system (e.g. the previous bisection step of
//! [`crate::sensitivity::critical_scaling`]) starts next to the new fixed
//! point and typically converges in one verification round, while producing
//! bit-identical reports to a cold start whenever the round budget lets the
//! cold run converge. The cold entry point [`analyze_with_loops`] is kept
//! unchanged as the correctness oracle.
//!
//! ## Memory discipline
//!
//! All interior state — dense subjob tables, arrival/workload curves,
//! double-buffered bound iterates and the curve [`Scratch`] — lives in a
//! per-thread [`LoopWorkspace`] that is reused across calls (and shared
//! with the one-pass bounds driver, [`crate::bounds`]). Small systems
//! (below [`PAR_THRESHOLD`] subjobs) run the rounds sequentially through
//! the `_into` kernels: after a warm-up call on the same frame, a seeded
//! re-analysis performs O(1) heap allocations (see DESIGN.md §4d and the
//! `alloc_budget` test in `rta-bench`). Larger systems fan rounds out over
//! the persistent worker pool exactly as before; both paths compute
//! bit-identical results (pinned by `sequential_and_parallel_agree`).

use std::cell::RefCell;
use std::sync::Arc;

use crate::config::{AnalysisConfig, SpnpAvailability};
use crate::error::AnalysisError;
use crate::policy::{
    policy_for, BoundsInputs, PeerInputs, ProcessorContexts, ServicePolicy, SoaBoundsInputs,
};
use crate::report::{BoundsReport, JobBound};
use crate::spnp::{ServiceBounds, SoaServiceBounds};
use rta_curves::{Curve, Scratch, SoaCurve, Time};
use rta_model::{JobId, ProcessorId, SubjobRef, TaskSystem};

/// Systems with at least this many subjobs fan each round out over the
/// worker pool; smaller ones iterate sequentially in the caller's
/// workspace, which is both faster (no dispatch overhead) and
/// allocation-free when warm.
const PAR_THRESHOLD: usize = 32;

/// Converged interior state of a loop-tolerant run, reusable as the seed of
/// the next run on a system with the same topology and analysis frame.
///
/// The bounds are shared (`Arc`) and stored in structure-of-arrays layout —
/// the working representation of the warm rounds (DESIGN.md §4g), so
/// re-seeding copies flat arrays (or, for an unchanged system, returns a
/// handle to the same vector) without ever materializing AoS segments.
#[derive(Clone, Debug)]
pub struct LoopSeed {
    pub(crate) window: Time,
    pub(crate) horizon: Time,
    pub(crate) bounds: Arc<Vec<SoaServiceBounds>>,
}

impl LoopSeed {
    /// `true` when this seed can start an analysis at frame
    /// `(window, horizon)` over `n` subjobs.
    pub fn matches(&self, window: Time, horizon: Time, n: usize) -> bool {
        self.window == window && self.horizon == horizon && self.bounds.len() == n
    }
}

/// Per-thread state of the bounds drivers — this module's fixpoint and the
/// one-pass Theorem-4 pass in [`crate::bounds`] — reused across calls so a
/// warm re-analysis allocates nothing: dense subjob tables (the `i`-th
/// entry of every vector describes subjob `refs[i]`, in `all_subjobs`
/// order), arrival envelopes and workloads, the per-subjob bound slots
/// (`cur`, plus the fixpoint's `next` iterate), and the curve scratch
/// arena. Each driver rewrites every slot it reads before reading it.
#[derive(Default)]
pub(crate) struct LoopWorkspace {
    pub(crate) scratch: Scratch,
    pub(crate) refs: Vec<SubjobRef>,
    /// `job_start[k] + j` is the dense index of subjob `j` of job `k`.
    pub(crate) job_start: Vec<usize>,
    pub(crate) times: Vec<Time>,
    /// AoS staging: first-hop envelopes, then (one-pass driver) the
    /// current node's workload.
    pub(crate) stage: Curve,
    /// SoA staging pair: first-hop envelopes and round-0 cold-init
    /// temporaries (one-pass driver: the current node's workload), then
    /// the Eq. 12 `floor_div` departure curve.
    pub(crate) stage_soa: SoaCurve,
    pub(crate) dep_soa: SoaCurve,
    /// Per-subjob arrival envelopes: the fixpoint's cycle-free ones, the
    /// one-pass driver's Lemma-2 ones.
    pub(crate) arr_env: Vec<SoaCurve>,
    /// Per-subjob workloads in both layouts, built once at model ingest:
    /// the SoA copy feeds the rounds, the AoS copy feeds shared-workload
    /// policy contexts and the conversion fallback (DESIGN.md §4g).
    pub(crate) workload: Vec<Curve>,
    pub(crate) workload_soa: Vec<SoaCurve>,
    pub(crate) policy: Vec<&'static dyn ServicePolicy>,
    pub(crate) tau: Vec<Time>,
    pub(crate) weight: Vec<u32>,
    pub(crate) blocking: Vec<Time>,
    pub(crate) processor: Vec<usize>,
    /// Flattened higher-priority peer indices; node `i`'s peers are
    /// `hp_flat[hp_start[i]..hp_start[i + 1]]`.
    pub(crate) hp_flat: Vec<usize>,
    pub(crate) hp_start: Vec<usize>,
    /// Per-subjob service bounds, in SoA layout end-to-end: the fixpoint's
    /// double-buffered iterates (`cur`/`next`), the one-pass driver's
    /// node results (`cur`).
    pub(crate) cur: Vec<SoaServiceBounds>,
    next: Vec<SoaServiceBounds>,
    stale: Vec<bool>,
    changed: Vec<bool>,
    /// The one-pass driver's tables ([`crate::bounds`]): per-subjob Eq. 12
    /// hop delays, per-job instance counts and partial Eq. 11 sums, and
    /// the node's output bounds before they are copied into `cur`.
    pub(crate) hop: Vec<Option<Time>>,
    pub(crate) instances: Vec<i64>,
    pub(crate) e2e: Vec<Option<Time>>,
    pub(crate) node: SoaServiceBounds,
}

thread_local! {
    static LOOP_WS: RefCell<LoopWorkspace> = RefCell::new(LoopWorkspace::default());
}

/// Run `f` on this thread's [`LoopWorkspace`].
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut LoopWorkspace) -> R) -> R {
    LOOP_WS.with(|ws| f(&mut ws.borrow_mut()))
}

impl LoopWorkspace {
    /// Fill the dense subjob tables for `sys`: `refs`/`job_start`, and per
    /// subjob its policy, execution time, weight, blocking term, processor
    /// and higher-priority peers (enumerated in `higher_priority_peers`
    /// order). Returns the subjob count.
    pub(crate) fn index_system(&mut self, sys: &TaskSystem) -> usize {
        self.refs.clear();
        self.job_start.clear();
        for (k, job) in sys.jobs().iter().enumerate() {
            self.job_start.push(self.refs.len());
            for j in 0..job.subjobs.len() {
                self.refs.push(SubjobRef {
                    job: JobId(k),
                    index: j,
                });
            }
        }
        let n = self.refs.len();
        self.policy.clear();
        self.tau.clear();
        self.weight.clear();
        self.blocking.clear();
        self.processor.clear();
        self.hp_flat.clear();
        self.hp_start.clear();
        for i in 0..n {
            let r = self.refs[i];
            let s = sys.subjob(r);
            let policy = policy_for(sys.processor(s.processor).scheduler);
            self.hp_start.push(self.hp_flat.len());
            if policy.peer_inputs() == PeerInputs::HigherPriorityServices {
                let phi = s.priority.expect("validated: priorities assigned");
                for (h, &o) in self.refs.iter().enumerate() {
                    if o == r {
                        continue;
                    }
                    let os = sys.subjob(o);
                    if os.processor == s.processor && os.priority.expect("assigned") < phi {
                        self.hp_flat.push(h);
                    }
                }
            }
            self.policy.push(policy);
            self.tau.push(s.exec);
            self.weight.push(s.weight());
            self.blocking.push(policy.blocking(sys, r));
            self.processor.push(s.processor.0);
        }
        self.hp_start.push(self.hp_flat.len());
        n
    }
}

fn ensure_curves(v: &mut Vec<Curve>, n: usize) {
    if v.len() < n {
        v.resize_with(n, Curve::zero);
    }
}

pub(crate) fn ensure_soa_curves(v: &mut Vec<SoaCurve>, n: usize) {
    if v.len() < n {
        v.resize_with(n, SoaCurve::zero);
    }
}

pub(crate) fn ensure_bounds(v: &mut Vec<SoaServiceBounds>, n: usize) {
    if v.len() < n {
        v.resize_with(n, SoaServiceBounds::zeroed);
    }
}

/// Round-invariant inputs of one subjob, detached from the workspace so
/// the parallel round closures are `'static` for the worker pool.
struct RoundNode {
    workload: Curve,
    /// Dense indices of strictly-higher-priority peers (empty for
    /// shared-workload policies like FCFS and IWRR).
    hp: Vec<usize>,
    policy: &'static dyn ServicePolicy,
    processor: usize,
    tau: Time,
    weight: u32,
    blocking: Time,
}

/// Everything a parallel Jacobi round reads besides the previous round's
/// bounds.
struct RoundCtx {
    nodes: Vec<RoundNode>,
    ctxs: ProcessorContexts,
    avail: SpnpAvailability,
    horizon: Time,
}

/// Run the loop-tolerant fixed-point analysis for at most `max_rounds`
/// refinement rounds (each round is a full sweep over all subjobs).
pub fn analyze_with_loops(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
) -> Result<BoundsReport, AnalysisError> {
    analyze_with_loops_seeded(sys, cfg, max_rounds, None).map(|(report, _)| report)
}

/// [`analyze_with_loops`] with an optional warm-start seed; also returns the
/// converged bounds as the seed for the next run.
///
/// A seed is used only when [`LoopSeed::matches`] the resolved frame and
/// subjob count; otherwise the run silently falls back to the cold round-0
/// bounds. See the module docs for why seeding cannot change the converged
/// result.
pub fn analyze_with_loops_seeded(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
    seed: Option<&LoopSeed>,
) -> Result<(BoundsReport, LoopSeed), AnalysisError> {
    with_workspace(|ws| analyze_seeded_in(sys, cfg, max_rounds, seed, ws, PAR_THRESHOLD))
}

/// [`analyze_with_loops`] forced onto the retained AoS kernels (the
/// parallel-round path, which never touches the SoA iterate buffers).
///
/// This is the pinned reference driver: the SoA rounds are required to be
/// bit-identical to it, and the driver-level oracle tests compare full
/// reports from both entry points. It is not a performance API.
pub fn analyze_with_loops_aos_reference(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
) -> Result<BoundsReport, AnalysisError> {
    let mut ws = LoopWorkspace::default();
    analyze_seeded_in(sys, cfg, max_rounds, None, &mut ws, 0).map(|(report, _)| report)
}

fn analyze_seeded_in(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
    seed: Option<&LoopSeed>,
    ws: &mut LoopWorkspace,
    par_threshold: usize,
) -> Result<(BoundsReport, LoopSeed), AnalysisError> {
    sys.validate(true)?;
    assert!(max_rounds >= 1);
    let (window, horizon) = cfg.resolve(sys);

    let n = ws.index_system(sys);

    // ---- Cycle-free arrival envelopes and workloads. This is the single
    // AoS→SoA ingest boundary: the workloads convert here, once, and the
    // rounds run on the flat arrays. ----
    ensure_soa_curves(&mut ws.arr_env, n);
    ensure_curves(&mut ws.workload, n);
    ensure_soa_curves(&mut ws.workload_soa, n);
    for (k, job) in sys.jobs().iter().enumerate() {
        job.arrival.release_times_into(window, &mut ws.times);
        Curve::from_event_times_into(&ws.times, &mut ws.stage);
        ws.stage_soa.copy_from_curve(&ws.stage);
        let mut min_shift = Time::ZERO;
        for (j, s) in job.subjobs.iter().enumerate() {
            let i = ws.job_start[k] + j;
            ws.stage_soa
                .shift_right_into(min_shift, 0, &mut ws.arr_env[i]);
            ws.arr_env[i].scale_into(s.exec.ticks(), &mut ws.workload_soa[i]);
            ws.workload_soa[i].write_to_curve(&mut ws.workload[i]);
            min_shift += s.exec;
        }
    }

    // Shared-workload policy contexts (FCFS, IWRR) depend only on the
    // (round-invariant) peer workloads: build each processor's context
    // once, before the rounds. Priority policies never enter this branch,
    // so the warm path allocates nothing here.
    let mut ctxs = ProcessorContexts::new();
    for i in 0..n {
        if ws.policy[i].peer_inputs() == PeerInputs::SharedWorkloads {
            let p = ProcessorId(ws.processor[i]);
            let workload = &ws.workload;
            let job_start = &ws.job_start;
            ctxs.ensure(sys, p, horizon, &mut |o| {
                workload[job_start[o.job.0] + o.index].clone()
            })?;
        }
    }

    // ---- Round 0: the seed when it fits the frame, information-free
    // otherwise — built directly on the SoA kernels (segment-identical to
    // the AoS construction by the equivalence contract). ----
    ensure_bounds(&mut ws.cur, n);
    ensure_bounds(&mut ws.next, n);
    let seeded = seed.filter(|s| s.matches(window, horizon, n));
    if let Some(s) = seeded {
        for i in 0..n {
            ws.cur[i].lower.copy_from(&s.bounds[i].lower);
            ws.cur[i].upper.copy_from(&s.bounds[i].upper);
        }
    } else {
        for i in 0..n {
            ws.cur[i].lower.set_affine(0, 0);
            ws.stage_soa.set_affine(0, 1);
            ws.stage_soa
                .min_with_into(&ws.workload_soa[i], &mut ws.dep_soa);
            ws.dep_soa.clamp_min_into(0, &mut ws.cur[i].upper);
        }
    }

    // Subjob `i`'s round-r bounds are a pure function of the round-(r−1)
    // bounds of its higher-priority peers (and round-invariant workloads),
    // so a subjob whose inputs did not change in the previous round keeps
    // its memoized bounds. FCFS bounds have no cross-subjob inputs at all:
    // they are computed once in the first round and never again.
    let mut any_change_ever = false;
    if n < par_threshold {
        // Sequential rounds, double-buffered through `cur`/`next` with all
        // curve temporaries drawn from the scratch arena. Bounds stay in
        // SoA layout across rounds — the policies' `service_bounds_soa_into`
        // reads and writes the flat arrays directly.
        let LoopWorkspace {
            scratch,
            workload,
            workload_soa,
            policy,
            tau,
            weight,
            blocking,
            processor,
            hp_flat,
            hp_start,
            cur,
            next,
            stale,
            changed,
            ..
        } = &mut *ws;
        stale.clear();
        stale.resize(n, true);
        changed.clear();
        changed.resize(n, false);
        for _round in 0..max_rounds {
            let mut any_changed = false;
            {
                let mut hp_lower: Vec<&SoaCurve> = Vec::new();
                let mut hp_upper: Vec<&SoaCurve> = Vec::new();
                for i in 0..n {
                    if !stale[i] {
                        changed[i] = false;
                        next[i].lower.copy_from(&cur[i].lower);
                        next[i].upper.copy_from(&cur[i].upper);
                        continue;
                    }
                    hp_lower.clear();
                    hp_upper.clear();
                    for &h in &hp_flat[hp_start[i]..hp_start[i + 1]] {
                        hp_lower.push(&cur[h].lower);
                        hp_upper.push(&cur[h].upper);
                    }
                    policy[i].service_bounds_soa_into(
                        &SoaBoundsInputs {
                            workload: &workload_soa[i],
                            workload_aos: Some(&workload[i]),
                            tau: tau[i],
                            weight: weight[i],
                            blocking: blocking[i],
                            hp_lower: &hp_lower,
                            hp_upper: &hp_upper,
                            variant: cfg.spnp_availability,
                            ctx: ctxs.get(ProcessorId(processor[i])),
                            horizon,
                            processor: ProcessorId(processor[i]),
                        },
                        scratch,
                        &mut next[i],
                    )?;
                    changed[i] = next[i] != cur[i];
                    any_changed |= changed[i];
                }
            }
            std::mem::swap(cur, next);
            if !any_changed {
                break;
            }
            any_change_ever = true;
            for i in 0..n {
                stale[i] = hp_flat[hp_start[i]..hp_start[i + 1]]
                    .iter()
                    .any(|&h| changed[h]);
            }
        }
    } else {
        // Parallel rounds: detach the round inputs from the workspace and
        // fan each sweep out over the persistent pool. This path runs on
        // the retained AoS kernels (it is the oracle the SoA rounds are
        // pinned against by `sequential_and_parallel_agree`), converting
        // the SoA iterates at entry and exit.
        let nodes: Vec<RoundNode> = (0..n)
            .map(|i| RoundNode {
                workload: ws.workload[i].clone(),
                hp: ws.hp_flat[ws.hp_start[i]..ws.hp_start[i + 1]].to_vec(),
                policy: ws.policy[i],
                processor: ws.processor[i],
                tau: ws.tau[i],
                weight: ws.weight[i],
                blocking: ws.blocking[i],
            })
            .collect();
        let ctx = Arc::new(RoundCtx {
            nodes,
            ctxs,
            avail: cfg.spnp_availability,
            horizon,
        });
        let mut bounds: Vec<ServiceBounds> = ws.cur[..n].iter().map(|b| b.to_bounds()).collect();
        let mut stale: Vec<bool> = vec![true; n];
        for _round in 0..max_rounds {
            let prev = Arc::new(std::mem::take(&mut bounds));
            let results: Vec<Option<Result<ServiceBounds, AnalysisError>>> = {
                let ctx = Arc::clone(&ctx);
                let prev = Arc::clone(&prev);
                let stale = Arc::new(stale.clone());
                crate::par::pool_map(prev.len(), move |i| {
                    if !stale[i] {
                        return None;
                    }
                    let node = &ctx.nodes[i];
                    let hp_lower: Vec<&Curve> = node.hp.iter().map(|&h| &prev[h].lower).collect();
                    let hp_upper: Vec<&Curve> = node.hp.iter().map(|&h| &prev[h].upper).collect();
                    Some(node.policy.service_bounds(&BoundsInputs {
                        workload: &node.workload,
                        tau: node.tau,
                        weight: node.weight,
                        blocking: node.blocking,
                        hp_lower: &hp_lower,
                        hp_upper: &hp_upper,
                        variant: ctx.avail,
                        ctx: ctx.ctxs.get(ProcessorId(node.processor)),
                        horizon: ctx.horizon,
                        processor: ProcessorId(node.processor),
                    }))
                })
            };
            let mut changed_now = vec![false; prev.len()];
            let mut any_changed = false;
            bounds = Vec::with_capacity(prev.len());
            for (i, res) in results.into_iter().enumerate() {
                match res {
                    Some(nb) => {
                        let nb = nb?;
                        if nb != prev[i] {
                            changed_now[i] = true;
                            any_changed = true;
                        }
                        bounds.push(nb);
                    }
                    None => bounds.push(prev[i].clone()),
                }
            }
            if !any_changed {
                break;
            }
            any_change_ever = true;
            for (i, s) in stale.iter_mut().enumerate() {
                *s = ctx.nodes[i].hp.iter().any(|&h| changed_now[h]);
            }
        }
        for (i, b) in bounds.into_iter().enumerate() {
            ws.cur[i].copy_from_bounds(&b);
        }
    }

    // ---- Per-hop delays (Eq. 12) against the cycle-free envelopes. ----
    let mut jobs = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let job_id = JobId(k);
        job.arrival.release_times_into(window, &mut ws.times);
        let n_instances = ws.times.len() as i64;
        let mut hop_delays = Vec::with_capacity(job.subjobs.len());
        for j in 0..job.subjobs.len() {
            let i = ws.job_start[k] + j;
            // SoA sweep: the converged lower bound is already SoA, so the
            // departure extraction and the Eq. 12 cursor walk run on the
            // flat arrays with no conversion at all.
            ws.cur[i].lower.floor_div_into(
                job.subjobs[j].exec.ticks(),
                horizon,
                &mut ws.dep_soa,
            )?;
            hop_delays.push(crate::bounds::hop_delay_soa(
                &ws.arr_env[i],
                &ws.dep_soa,
                n_instances,
            ));
        }
        let e2e_bound = hop_delays
            .iter()
            .try_fold(Time::ZERO, |acc, d| d.map(|d| acc + d));
        jobs.push(JobBound {
            job: job_id,
            hop_delays,
            e2e_bound,
            deadline: job.deadline,
        });
    }
    let report = BoundsReport {
        window,
        horizon,
        jobs,
    };
    // An unchanged seeded run converged onto its own seed: hand the same
    // Arc back instead of cloning every curve.
    let next_seed = match seeded {
        Some(s) if !any_change_ever => LoopSeed {
            window,
            horizon,
            bounds: Arc::clone(&s.bounds),
        },
        _ => LoopSeed {
            window,
            horizon,
            bounds: Arc::new(ws.cur[..n].to_vec()),
        },
    };
    Ok((report, next_seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::{evaluation_order, SubjobIndex};
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    /// The figure-eight system whose dependency graph is cyclic.
    fn looped_system() -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(200),
            periodic(40),
            vec![(p1, Time(4)), (p2, Time(4))],
        );
        let t2 = b.add_job(
            "T2",
            Time(200),
            periodic(40),
            vec![(p2, Time(4)), (p1, Time(4))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 2);
        b.set_priority(SubjobRef { job: t2, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t1, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        b.build().unwrap()
    }

    #[test]
    fn handles_cyclic_topologies() {
        let sys = looped_system();
        let idx = SubjobIndex::new(&sys);
        assert!(matches!(
            evaluation_order(&sys, &idx),
            Err(AnalysisError::CyclicDependency { .. })
        ));
        let r = analyze_with_loops(&sys, &AnalysisConfig::default(), 8).unwrap();
        // Light load (8/40 per processor): everything comfortably bounded.
        for j in &r.jobs {
            let d = j.e2e_bound.expect("bounded");
            assert!(d >= Time(8), "at least the execution demand: {d:?}");
            assert!(j.schedulable(), "loop at low load must admit: {d:?}");
        }
    }

    #[test]
    fn rounds_only_tighten() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        let r1 = analyze_with_loops(&sys, &cfg, 1).unwrap();
        let r4 = analyze_with_loops(&sys, &cfg, 6).unwrap();
        for k in 0..sys.jobs().len() {
            let (a, b) = (r1.jobs[k].e2e_bound, r4.jobs[k].e2e_bound);
            match (a, b) {
                (Some(a), Some(b)) => assert!(b <= a, "job {k}: {b:?} > {a:?}"),
                (None, _) => {}
                (Some(_), None) => panic!("refinement lost a bound"),
            }
        }
    }

    #[test]
    fn acyclic_systems_also_work() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spnp);
        b.add_job(
            "T1",
            Time(100),
            periodic(25),
            vec![(p1, Time(3)), (p2, Time(4))],
        );
        b.add_job("T2", Time(100), periodic(30), vec![(p2, Time(5))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let lo = analyze_with_loops(&sys, &AnalysisConfig::default(), 6).unwrap();
        let direct = crate::analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            assert!(lo.jobs[k].schedulable() && direct.jobs[k].schedulable());
        }

        // Neither bound dominates the other in general (module docs), but
        // both dominate the exact worst-case response on a single-stage
        // all-SPP system, where the envelope shift is zero.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(20), periodic(20), vec![(p, Time(4))]);
        b.add_job("T2", Time(30), periodic(30), vec![(p, Time(7))]);
        b.add_job("T3", Time(60), periodic(60), vec![(p, Time(9))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let cfg = AnalysisConfig::default();
        let exact = crate::analyze_exact_spp(&sys, &cfg).unwrap();
        let lo = analyze_with_loops(&sys, &cfg, 8).unwrap();
        let direct = crate::analyze_bounds(&sys, &cfg).unwrap();
        for k in 0..3 {
            let wcrt = exact.jobs[k].wcrt.expect("resolved");
            assert!(lo.jobs[k].e2e_bound.expect("bounded") >= wcrt, "job {k}");
            assert!(
                direct.jobs[k].e2e_bound.expect("bounded") >= wcrt,
                "job {k}"
            );
        }
    }

    #[test]
    fn overloaded_loop_is_rejected() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(20),
            periodic(10),
            vec![(p1, Time(6)), (p2, Time(6))],
        );
        let t2 = b.add_job(
            "T2",
            Time(20),
            periodic(10),
            vec![(p2, Time(6)), (p1, Time(6))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 2);
        b.set_priority(SubjobRef { job: t2, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t1, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = analyze_with_loops(&sys, &AnalysisConfig::default(), 8).unwrap();
        assert!(!r.all_schedulable());
    }

    #[test]
    fn warm_start_from_own_solution_is_identical_and_converges_in_one_round() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        let (cold, seed) = analyze_with_loops_seeded(&sys, &cfg, 16, None).unwrap();
        // Re-analyzing the same system from its converged seed must converge
        // immediately (a 1-round budget suffices) to the same report.
        let (warm, seed2) = analyze_with_loops_seeded(&sys, &cfg, 1, Some(&seed)).unwrap();
        assert_eq!(format!("{cold}"), format!("{warm}"));
        for (a, b) in seed.bounds.iter().zip(seed2.bounds.iter()) {
            assert_eq!(a.lower, b.lower);
            assert_eq!(a.upper, b.upper);
        }
        // The converged warm seed shares storage with its input seed.
        assert!(Arc::ptr_eq(&seed.bounds, &seed2.bounds));
    }

    #[test]
    fn mismatched_seed_falls_back_to_cold() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        let (_, seed) = analyze_with_loops_seeded(&sys, &cfg, 16, None).unwrap();
        // A frame the seed does not match: different arrival window.
        let other = AnalysisConfig {
            arrival_window: Some(Time(777)),
            ..AnalysisConfig::default()
        };
        let cold = analyze_with_loops(&sys, &other, 16).unwrap();
        let (warm, _) = analyze_with_loops_seeded(&sys, &other, 16, Some(&seed)).unwrap();
        assert_eq!(format!("{cold}"), format!("{warm}"));
    }

    /// The sequential in-workspace path and the pool-dispatched path are
    /// the same analysis: bit-identical reports and seed curves.
    #[test]
    fn sequential_and_parallel_agree() {
        let run = |threshold: usize, seed: Option<&LoopSeed>, rounds: usize| {
            let sys = looped_system();
            let cfg = AnalysisConfig::default();
            let mut ws = LoopWorkspace::default();
            analyze_seeded_in(&sys, &cfg, rounds, seed, &mut ws, threshold).unwrap()
        };
        let (seq, seq_seed) = run(usize::MAX, None, 8);
        let (par, par_seed) = run(0, None, 8);
        assert_eq!(format!("{seq}"), format!("{par}"));
        for (a, b) in seq_seed.bounds.iter().zip(par_seed.bounds.iter()) {
            assert_eq!(a.lower, b.lower);
            assert_eq!(a.upper, b.upper);
        }
        // Warm runs agree too.
        let (seq_w, _) = run(usize::MAX, Some(&seq_seed), 1);
        let (par_w, _) = run(0, Some(&par_seed), 1);
        assert_eq!(format!("{seq_w}"), format!("{par_w}"));
    }
}
