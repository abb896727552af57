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
//! ## One pass in priority order
//!
//! The only cross-subjob inputs of a round are the service bounds of
//! strictly higher-priority peers on the same processor — a DAG even when
//! the full dependency graph is cyclic, since priorities are a strict order
//! per processor. A subjob's *depth*, its longest higher-priority chain, is
//! then its number of higher-priority peers, and its round-`r` iterate (its
//! kernel applied to its peers' round-`(r − 1)` iterates) stops changing
//! after round `depth + 1`. A budget of `max_rounds` rounds leaves it at
//! round `e = min(depth + 1, max_rounds)`, so the driver evaluates each
//! subjob once, by ascending depth, from its peers' final bounds. Only a
//! subjob at least `max_rounds` deep reads a peer at an earlier round than
//! the peer's final one: a backward pass collects those few iterates (round
//! 0 is the information-free bound) and the forward pass computes them
//! too. Reports, errors included, equal the Jacobi rounds' at every budget;
//! those rounds, on freshly allocated curves, are the independent reference
//! in `crates/core/tests/support/`.
//!
//! ## The per-processor memo
//!
//! Every input of a subjob's bounds lies on its own processor (its
//! higher-priority peers, the SPNP blocking term, the FCFS/IWRR context) or
//! in its own job (the cycle-free envelope). An [`crate::AnalysisSession`]
//! therefore keeps a `LoopMemo` of final bounds and contexts per
//! processor; its deltas drop the processors they touch, and a warm run
//! evaluates only those and copies the rest.
//!
//! ## Memory discipline
//!
//! All interior state — dense subjob tables, arrival/workload curves,
//! per-subjob bound slots and the curve [`Scratch`] — lives in a per-thread
//! [`LoopWorkspace`] reused across calls (and shared with the one-pass
//! bounds driver, [`crate::bounds`]). Kernels write into one output buffer
//! that is copied into the retained slots (DESIGN.md §4d), so a memoized
//! re-analysis performs O(1) heap allocations once warm (the
//! `alloc_budget` test in `rta-bench`).

use std::cell::RefCell;

use crate::config::AnalysisConfig;
use crate::depgraph::SubjobIndex;
use crate::error::AnalysisError;
use crate::policy::{policy_for, BoundsInputs, PeerInputs, ProcessorContexts, ServicePolicy};
use crate::report::{BoundsReport, JobBound};
use crate::spnp::SoaServiceBounds;
use rta_curves::{Scratch, SoaCurve, Time};
use rta_model::{Job, JobId, ProcessorId, SubjobRef, TaskSystem};

/// A [`LoopWorkspace::slot`] entry no dependent reads.
const UNUSED: usize = usize::MAX;

/// Per-thread state of the bounds drivers — this module's fixpoint and the
/// one-pass Theorem-4 pass in [`crate::bounds`] — reused across calls so a
/// warm re-analysis allocates nothing: dense subjob tables (the `i`-th
/// entry of every vector describes subjob `refs[i]`, in `all_subjobs`
/// order), arrival envelopes and workloads, the per-subjob bound slots,
/// and the curve scratch arena. Each driver rewrites every slot it reads
/// before reading it.
#[derive(Default)]
pub(crate) struct LoopWorkspace {
    pub(crate) scratch: Scratch,
    pub(crate) refs: Vec<SubjobRef>,
    /// `job_start[k] + j` is the dense index of subjob `j` of job `k`.
    pub(crate) job_start: Vec<usize>,
    pub(crate) times: Vec<Time>,
    /// Staging pair: the fixpoint's first-hop envelopes and
    /// information-free-bound temporaries, then the Eq. 12 `floor_div`
    /// departure curve.
    pub(crate) stage_soa: SoaCurve,
    pub(crate) dep_soa: SoaCurve,
    /// Per-subjob arrival envelopes: the fixpoint's cycle-free ones, the
    /// one-pass driver's Lemma-2 ones.
    pub(crate) arr_env: Vec<SoaCurve>,
    /// Per-subjob workloads `c̄ = f̄_arr · τ`: of the subjobs the fixpoint
    /// evaluates, and of the one-pass driver's nodes and of the peers whose
    /// shared-workload contexts it builds. Contexts borrow them
    /// (DESIGN.md §4g).
    pub(crate) workload: Vec<SoaCurve>,
    pub(crate) policy: Vec<&'static dyn ServicePolicy>,
    pub(crate) tau: Vec<Time>,
    pub(crate) weight: Vec<u32>,
    pub(crate) blocking: Vec<Time>,
    pub(crate) processor: Vec<usize>,
    /// Flattened higher-priority peer indices; node `i`'s peers are
    /// `hp_flat[hp_start[i]..hp_start[i + 1]]`.
    pub(crate) hp_flat: Vec<usize>,
    pub(crate) hp_start: Vec<usize>,
    /// Per-subjob service bounds in SoA layout: the fixpoint's final
    /// bounds, the one-pass driver's node results.
    pub(crate) cur: Vec<SoaServiceBounds>,
    /// The fixpoint's evaluation order (ascending depth, then dense index)
    /// and which subjobs it evaluates rather than copies from a memo.
    order: Vec<usize>,
    evaluate: Vec<bool>,
    /// Earlier-round iterates: round `r` of subjob `i`, below its final
    /// round, lives in `early[slot[round_start[i] + r]]` when a dependent
    /// reads it, and its slot is [`UNUSED`] otherwise.
    round_start: Vec<usize>,
    slot: Vec<usize>,
    early: Vec<SoaServiceBounds>,
    /// The one-pass driver's tables ([`crate::bounds`]): per-subjob Eq. 12
    /// hop delays, per-job instance counts (the fixpoint's too) and partial
    /// Eq. 11 sums, and the kernel output both drivers copy into their
    /// retained slots.
    pub(crate) hop: Vec<Option<Time>>,
    pub(crate) instances: Vec<i64>,
    pub(crate) e2e: Vec<Option<Time>>,
    pub(crate) node: SoaServiceBounds,
    /// The cold passes' processor contexts, cleared at the start of each
    /// pass and rebuilt in the storage of the previous one.
    pub(crate) ctxs: ProcessorContexts,
}

thread_local! {
    static LOOP_WS: RefCell<LoopWorkspace> = RefCell::new(LoopWorkspace::default());
}

/// Run `f` on this thread's [`LoopWorkspace`].
pub(crate) fn with_workspace<R>(f: impl FnOnce(&mut LoopWorkspace) -> R) -> R {
    LOOP_WS.with(|ws| f(&mut ws.borrow_mut()))
}

impl LoopWorkspace {
    /// Fill the dense subjob tables for `sys` from its index `idx`:
    /// `refs`/`job_start`, and per subjob its policy, execution time,
    /// weight, blocking term, processor and higher-priority peers (in
    /// enumeration order, read from the processor's subjob list). Returns
    /// the subjob count.
    pub(crate) fn index_system(&mut self, sys: &TaskSystem, idx: &SubjobIndex) -> usize {
        self.refs.clear();
        self.refs.extend_from_slice(idx.refs());
        self.job_start.clear();
        self.job_start.extend_from_slice(idx.job_starts());
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
                self.hp_flat.extend(idx.higher_priority_peers(sys, i));
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

/// Subjob `i`'s depth, given `hp_start`: its number of higher-priority
/// peers.
fn depth(hp_start: &[usize], i: usize) -> usize {
    hp_start[i + 1] - hp_start[i]
}

/// The round of subjob `i`'s reported bounds.
fn final_round(hp_start: &[usize], i: usize, max_rounds: usize) -> usize {
    (depth(hp_start, i) + 1).min(max_rounds)
}

/// The round peer `h` supplies to a dependent's round-`r` evaluation: its
/// round-`(r − 1)` iterate, settled after round `depth + 1`.
fn peer_round(hp_start: &[usize], h: usize, r: usize) -> usize {
    (r - 1).min(depth(hp_start, h) + 1)
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

/// The fixed point's memo of one evolving system, kept by an
/// [`crate::AnalysisSession`] (see the module docs): every subjob's final
/// bounds, in rows parallel to the jobs like the session's exact-path
/// curve cache (so a removal's job-id shift carries them along), and each
/// shared-workload processor's context. A processor's entries stay valid
/// until a delta drops them; a run under another frame or round budget, or
/// on a system the rows do not fit, drops everything.
#[derive(Default)]
pub(crate) struct LoopMemo {
    key: Option<(Time, Time, usize)>,
    /// Per processor: whether its subjobs' rows and its context are current.
    valid: Vec<bool>,
    rows: Vec<Vec<SoaServiceBounds>>,
    ctxs: ProcessorContexts,
}

impl LoopMemo {
    /// `job` was appended: give it a row and drop its processors.
    pub(crate) fn add_job(&mut self, job: &Job) {
        self.rows.push(Vec::new());
        self.drop_job(job);
    }

    /// `job`, with id `id`, was removed: drop its row and its processors.
    pub(crate) fn remove_job(&mut self, id: JobId, job: &Job) {
        if id.0 < self.rows.len() {
            self.rows.remove(id.0);
        }
        self.drop_job(job);
    }

    /// Forget the bounds and contexts of every processor `job` visits.
    pub(crate) fn drop_job(&mut self, job: &Job) {
        for s in &job.subjobs {
            self.drop_processor(s.processor);
        }
    }

    /// Forget processor `p`'s bounds and context.
    pub(crate) fn drop_processor(&mut self, p: ProcessorId) {
        if let Some(v) = self.valid.get_mut(p.0) {
            *v = false;
        }
        self.ctxs.remove(p);
    }

    /// Forget every processor's bounds and context.
    pub(crate) fn drop_all(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
        self.ctxs.clear();
    }

    /// Key the memo to a run under `key` and shape its tables to `sys`.
    fn prepare(&mut self, sys: &TaskSystem, key: (Time, Time, usize)) {
        if self.key != Some(key) || self.rows.len() != sys.jobs().len() {
            self.drop_all();
            self.key = Some(key);
            self.rows.resize_with(sys.jobs().len(), Vec::new);
        }
        self.valid.resize(sys.processors().len(), false);
        for (row, job) in self.rows.iter_mut().zip(sys.jobs()) {
            row.resize_with(job.subjobs.len(), SoaServiceBounds::zeroed);
        }
    }
}

/// Run the loop-tolerant fixed-point analysis for at most `max_rounds`
/// refinement rounds (a round re-evaluates every subjob from the previous
/// round's bounds; the driver gets there in one pass, see the module docs).
pub fn analyze_with_loops(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
) -> Result<BoundsReport, AnalysisError> {
    with_workspace(|ws| analyze_in(sys, cfg, max_rounds, ws, None)).map(|(report, _)| report)
}

/// [`analyze_with_loops`] through `memo`: evaluates the processors whose
/// entries are not valid, copies the rest, and on success leaves every
/// processor valid. Also returns how many subjobs were copied.
pub(crate) fn analyze_with_loops_memo(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
    memo: &mut LoopMemo,
) -> Result<(BoundsReport, usize), AnalysisError> {
    with_workspace(|ws| analyze_in(sys, cfg, max_rounds, ws, Some(memo)))
}

fn analyze_in(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
    ws: &mut LoopWorkspace,
    mut memo: Option<&mut LoopMemo>,
) -> Result<(BoundsReport, usize), AnalysisError> {
    sys.validate(true)?;
    assert!(max_rounds >= 1);
    let (window, horizon) = cfg.try_resolve(sys)?;
    let n = ws.index_system(sys, &SubjobIndex::new(sys));

    // Evaluate every subjob cold; warm, copy those on valid processors.
    ensure_bounds(&mut ws.cur, n);
    ws.evaluate.clear();
    ws.evaluate.resize(n, true);
    if let Some(m) = memo.as_deref_mut() {
        m.prepare(sys, (window, horizon, max_rounds));
        for i in (0..n).filter(|&i| m.valid[ws.processor[i]]) {
            let row = &m.rows[ws.refs[i].job.0][ws.refs[i].index];
            ws.cur[i].lower.copy_from(&row.lower);
            ws.cur[i].upper.copy_from(&row.upper);
            ws.evaluate[i] = false;
        }
    }

    // ---- Cycle-free arrival envelopes for every subjob (the hop delays
    // read them), workloads for the evaluated ones. ----
    ensure_soa_curves(&mut ws.arr_env, n);
    ensure_soa_curves(&mut ws.workload, n);
    ws.instances.clear();
    for (k, job) in sys.jobs().iter().enumerate() {
        job.arrival.release_times_into(window, &mut ws.times);
        ws.instances.push(ws.times.len() as i64);
        SoaCurve::from_event_times_into(&ws.times, &mut ws.stage_soa);
        let mut min_shift = Time::ZERO;
        for (j, s) in job.subjobs.iter().enumerate() {
            let i = ws.job_start[k] + j;
            ws.stage_soa
                .shift_right_into(min_shift, 0, &mut ws.arr_env[i]);
            if ws.evaluate[i] {
                ws.arr_env[i].scale_into(s.exec.ticks(), &mut ws.workload[i]);
            }
            min_shift += s.exec;
        }
    }

    // Shared-workload policy contexts (FCFS, IWRR) depend only on the peer
    // workloads: build each evaluated processor's context up front.
    let mut cold_ctxs = std::mem::take(&mut ws.ctxs);
    cold_ctxs.clear();
    let ctxs = memo.as_deref_mut().map_or(&mut cold_ctxs, |m| &mut m.ctxs);
    for i in 0..n {
        if ws.evaluate[i] && ws.policy[i].peer_inputs() == PeerInputs::SharedWorkloads {
            let (workload, job_start) = (&ws.workload, &ws.job_start);
            ctxs.ensure(sys, ProcessorId(ws.processor[i]), horizon, &|o| {
                &workload[job_start[o.job.0] + o.index]
            })?;
        }
    }

    // ---- The evaluated subjobs by ascending depth and, when a chain
    // reaches the budget, the earlier iterates it reads. ----
    ws.order.clear();
    ws.order.extend((0..n).filter(|&i| ws.evaluate[i]));
    let hs = &ws.hp_start;
    ws.order.sort_unstable_by_key(|&i| (depth(hs, i), i));
    let deep = ws.order.iter().any(|&i| depth(hs, i) >= max_rounds);
    if deep {
        collect_early_rounds(ws, max_rounds);
    }
    forward_pass(ws, cfg, ctxs, horizon, max_rounds, deep)?;
    ws.ctxs = cold_ctxs;
    if let Some(m) = memo {
        for &i in &ws.order {
            let row = &mut m.rows[ws.refs[i].job.0][ws.refs[i].index];
            row.lower.copy_from(&ws.cur[i].lower);
            row.upper.copy_from(&ws.cur[i].upper);
        }
        m.valid.iter_mut().for_each(|v| *v = true);
    }
    let copied = n - ws.order.len();

    // ---- Per-hop delays (Eq. 12) against the cycle-free envelopes. ----
    let mut jobs = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let mut hop_delays = Vec::with_capacity(job.subjobs.len());
        for j in 0..job.subjobs.len() {
            let i = ws.job_start[k] + j;
            ws.cur[i].lower.floor_div_into(
                job.subjobs[j].exec.ticks(),
                horizon,
                &mut ws.dep_soa,
            )?;
            hop_delays.push(crate::bounds::hop_delay_soa(
                &ws.arr_env[i],
                &ws.dep_soa,
                ws.instances[k],
            ));
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
    let report = BoundsReport {
        window,
        horizon,
        jobs,
    };
    Ok((report, copied))
}

/// The backward pass: by descending depth, mark for each round an
/// evaluated subjob is needed at the iterate every higher-priority peer
/// supplies, unless that is the peer's final round (kept in `cur`); then
/// number the marked slots into `early`.
fn collect_early_rounds(ws: &mut LoopWorkspace, max_rounds: usize) {
    ws.round_start.clear();
    let mut total = 0;
    let hs = &ws.hp_start;
    for i in 0..ws.refs.len() {
        ws.round_start.push(total);
        total += final_round(hs, i, max_rounds);
    }
    ws.slot.clear();
    ws.slot.resize(total, UNUSED);
    for &i in ws.order.iter().rev() {
        let e = final_round(hs, i, max_rounds);
        for r in 1..=e {
            if r == e || ws.slot[ws.round_start[i] + r] != UNUSED {
                for &h in &ws.hp_flat[hs[i]..hs[i + 1]] {
                    let rh = peer_round(hs, h, r);
                    if rh < final_round(hs, h, max_rounds) {
                        ws.slot[ws.round_start[h] + rh] = 0;
                    }
                }
            }
        }
    }
    let mut used = 0;
    for s in ws.slot.iter_mut().filter(|s| **s != UNUSED) {
        *s = used;
        used += 1;
    }
    ensure_bounds(&mut ws.early, used);
}

/// The forward pass: each evaluated subjob by ascending depth — its marked
/// earlier-round iterates when `deep`, then its final bounds — each one
/// kernel call into `ws.node`, copied into its retained slot (DESIGN.md
/// §4d).
fn forward_pass(
    ws: &mut LoopWorkspace,
    cfg: &AnalysisConfig,
    ctxs: &ProcessorContexts,
    horizon: Time,
    max_rounds: usize,
    deep: bool,
) -> Result<(), AnalysisError> {
    let hs = &ws.hp_start;
    for &i in &ws.order {
        let e = final_round(hs, i, max_rounds);
        for r in if deep { 0 } else { e }..=e {
            let dst = match r < e {
                true if ws.slot[ws.round_start[i] + r] == UNUSED => continue,
                true => Some(ws.slot[ws.round_start[i] + r]),
                false => None,
            };
            if r == 0 {
                // The information-free bound `[0, max(0, min(t, c̄))]`.
                ws.node.lower.set_affine(0, 0);
                ws.stage_soa.set_affine(0, 1);
                ws.stage_soa.min_with_into(&ws.workload[i], &mut ws.dep_soa);
                ws.dep_soa.clamp_min_into(0, &mut ws.node.upper);
            } else {
                let peer = |h: usize| match peer_round(hs, h, r) {
                    rh if rh == final_round(hs, h, max_rounds) => &ws.cur[h],
                    rh => &ws.early[ws.slot[ws.round_start[h] + rh]],
                };
                let hp = &ws.hp_flat[hs[i]..hs[i + 1]];
                let hp_lower: Vec<&SoaCurve> = hp.iter().map(|&h| &peer(h).lower).collect();
                let hp_upper: Vec<&SoaCurve> = hp.iter().map(|&h| &peer(h).upper).collect();
                let p = ProcessorId(ws.processor[i]);
                ws.policy[i].service_bounds(
                    &BoundsInputs {
                        workload: &ws.workload[i],
                        tau: ws.tau[i],
                        weight: ws.weight[i],
                        blocking: ws.blocking[i],
                        hp_lower: &hp_lower,
                        hp_upper: &hp_upper,
                        variant: cfg.spnp_availability,
                        ctx: ctxs.get(p),
                        horizon,
                        processor: p,
                    },
                    &mut ws.scratch,
                    &mut ws.node,
                )?;
            }
            let out = match dst {
                Some(s) => &mut ws.early[s],
                None => &mut ws.cur[i],
            };
            out.lower.copy_from(&ws.node.lower);
            out.upper.copy_from(&ws.node.upper);
        }
    }
    Ok(())
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

    /// A cold report, rendered through `Debug`, which prints every field.
    fn cold(sys: &TaskSystem, cfg: &AnalysisConfig, rounds: usize) -> String {
        format!("{:?}", analyze_with_loops(sys, cfg, rounds).unwrap())
    }

    #[test]
    fn memoized_rerun_is_identical_and_evaluates_nothing() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        let mut memo = LoopMemo::default();
        let (first, copied) = analyze_with_loops_memo(&sys, &cfg, 16, &mut memo).unwrap();
        assert_eq!(copied, 0, "an empty memo copies nothing");
        assert_eq!(format!("{first:?}"), cold(&sys, &cfg, 16));
        // Re-analyzing the unchanged system copies every subjob's bounds
        // and reproduces the same report.
        let (again, copied) = analyze_with_loops_memo(&sys, &cfg, 16, &mut memo).unwrap();
        assert_eq!(copied, 4);
        assert_eq!(format!("{again:?}"), cold(&sys, &cfg, 16));
    }

    #[test]
    fn memo_from_another_frame_or_budget_is_dropped() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        let mut memo = LoopMemo::default();
        analyze_with_loops_memo(&sys, &cfg, 16, &mut memo).unwrap();
        // A frame the memo was not computed under: different arrival window.
        let other = AnalysisConfig {
            arrival_window: Some(Time(777)),
            ..AnalysisConfig::default()
        };
        let (warm, copied) = analyze_with_loops_memo(&sys, &other, 16, &mut memo).unwrap();
        assert_eq!(copied, 0);
        assert_eq!(format!("{warm:?}"), cold(&sys, &other, 16));
        // Another budget: a truncated chain's bounds depend on it.
        let (warm, copied) = analyze_with_loops_memo(&sys, &other, 1, &mut memo).unwrap();
        assert_eq!(copied, 0);
        assert_eq!(format!("{warm:?}"), cold(&sys, &other, 1));
    }

    /// Re-evaluating only the dropped processors is the same analysis as
    /// evaluating everything, at every budget (including budgets below the
    /// priority chains' depth, where earlier-round iterates are read).
    #[test]
    fn partial_reevaluation_matches_full_evaluation() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        for rounds in 1..=8 {
            let mut memo = LoopMemo::default();
            analyze_with_loops_memo(&sys, &cfg, rounds, &mut memo).unwrap();
            memo.drop_processor(ProcessorId(0));
            let (warm, copied) = analyze_with_loops_memo(&sys, &cfg, rounds, &mut memo).unwrap();
            assert_eq!(copied, 2, "P2's two subjobs are copied");
            assert_eq!(
                format!("{warm:?}"),
                cold(&sys, &cfg, rounds),
                "rounds {rounds}"
            );
            memo.drop_all();
            let (warm, copied) = analyze_with_loops_memo(&sys, &cfg, rounds, &mut memo).unwrap();
            assert_eq!(copied, 0);
            assert_eq!(format!("{warm:?}"), cold(&sys, &cfg, rounds));
        }
    }
}
