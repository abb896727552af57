//! Incremental re-analysis sessions.
//!
//! The paper's Section 5 experiments are *sweeps*: `critical_scaling` runs
//! ~30 bisection steps that each re-analyze a system differing only by a
//! uniform execution-time scale, and the admission experiments analyze
//! 1,000 randomly drawn sets per point. A cold call of
//! [`crate::analyze_exact_spp`] rebuilds every curve from scratch, so sweep
//! cost is `runs × full analysis` even though consecutive runs share almost
//! all structure. [`AnalysisSession`] amortizes that cost:
//!
//! * **Dirty-cone invalidation** — the session keeps the per-subjob
//!   arrival/service/departure curves of its last exact analysis. A delta
//!   ([`AnalysisSession::set_priority`], [`AnalysisSession::add_job`],
//!   [`AnalysisSession::remove_job`], [`AnalysisSession::scale_exec`])
//!   marks only the directly-affected subjobs; at the next analysis the
//!   marks are closed over the forward dependency edges
//!   ([`crate::depgraph::DirtyCone`]) and **only the cone recomputes** —
//!   clean subjobs reuse their cached curves verbatim, which is exact
//!   because their inputs are bit-identical. An added job marks only its
//!   own subjobs and a removed one only the lower-priority peers it
//!   leaves behind: by Theorem 3 a subjob reads nothing but its
//!   higher-priority peers and its own upstream hop, and the cone adds the
//!   rest.
//! * **Memoized fixpoints** — the session carries the fixed point's final
//!   bounds and policy contexts per processor
//!   ([`crate::fixpoint`]'s memo). A delta drops the memo of the
//!   processors it touches (add/remove a job or move its arrivals: the
//!   job's processors; a priority move: that processor; an execution-time
//!   or frame change: all of them), and the next run evaluates only those
//!   and copies the rest — exact, because every input of a subjob's bounds
//!   lies on its own processor or in its own job. The holistic driver
//!   warm-starts from the carried [`crate::holistic::HolisticSeed`] when
//!   sound (see that type for the from-below argument).
//! * **Verdict memoization** — execution times are quantized to ticks, so a
//!   narrowing bisection re-visits *identical* systems once `λ` steps fall
//!   below one tick; schedulability verdicts are cached on the execution
//!   vector (bounded FIFO) and repeated probes cost a hash lookup.
//! * **Interned pattern curves** — hop-0 arrival curves live in a
//!   [`CurveArena`], so jobs sharing a pattern (and repeated re-analyses)
//!   share one structural copy.
//!
//! ## Frames
//!
//! The default ([`AnalysisSession::new`]) resolves the analysis frame
//! `(window, horizon)` from the *current* system on every run, exactly like
//! the free analysis functions — bit-compatible, but execution-time deltas
//! move the horizon and force full recomputes. A pinned session
//! ([`AnalysisSession::pinned`]) resolves the frame once, from the initial
//! system, and reuses it for every run: caches, memos and seeds stay valid
//! across scale deltas. Verdicts under a pinned frame are still sound (an
//! undersized horizon can only leave instances unresolved, which reads as
//! unschedulable), and they are bit-identical to a cold analysis *given the
//! same pinned configuration*.

use std::collections::{HashMap, VecDeque};

use crate::config::AnalysisConfig;
use crate::depgraph::{DepGraph, DirtyCone, SubjobIndex};
use crate::error::AnalysisError;
use crate::exact::{
    assemble_exact_report, job_report, require_exact_capable, subjob_node_curves, NodeCurves,
};
use crate::fixpoint::{analyze_with_loops_memo, LoopMemo};
use crate::holistic::{analyze_holistic_seeded, HolisticSeed};
use crate::report::{BoundsReport, ExactReport};
use crate::sensitivity::Oracle;
use rta_curves::{CurveArena, CurveId, Scratch, SoaCurve, Time};
use rta_model::{ArrivalPattern, Job, JobId, ModelError, ProcessorId, SubjobRef, TaskSystem};

/// Counters describing how much work a session reused vs. recomputed.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Analyses run (any oracle), excluding memoized verdicts.
    pub analyses: u64,
    /// Subjobs recomputed: exact-analysis nodes inside a dirty cone, and
    /// fixed-point subjobs on processors whose memo a delta dropped.
    pub subjobs_recomputed: u64,
    /// Subjobs reused verbatim: exact-analysis nodes from the curve cache,
    /// and fixed-point subjobs copied from the per-processor memo.
    pub subjobs_reused: u64,
    /// Schedulability verdicts answered from the memo table.
    pub verdict_hits: u64,
    /// Schedulability verdicts that required an analysis.
    pub verdict_misses: u64,
    /// Holistic runs that started from a carried seed (the loops fixpoint
    /// reports its reuse through the subjob counters above).
    pub warm_starts: u64,
}

/// Bound on the verdict memo table (FIFO eviction).
const VERDICT_MEMO_CAPACITY: usize = 1024;

type VerdictKey = (u8, u64, Vec<i64>);

/// The exact path's structure-dependent machinery: subjob index,
/// evaluation order and dependency graph, rebuilt only when a delta changes
/// what they are derived from (see the field docs on
/// [`AnalysisSession::structure`]).
struct StructureCache {
    idx: SubjobIndex,
    order: Vec<usize>,
    graph: DepGraph,
}

/// A stateful re-analysis engine over one evolving [`TaskSystem`].
///
/// See the [module docs](self) for the reuse machinery. The system given at
/// construction also serves as the *scaling base*:
/// [`AnalysisSession::scale_exec`] always scales from it, never
/// cumulatively.
pub struct AnalysisSession {
    base: TaskSystem,
    current: TaskSystem,
    cfg: AnalysisConfig,
    /// Frame fixed at construction (pinned mode), or the overflow that kept
    /// it from resolving; `None` = resolve per run.
    pinned: Option<Result<(Time, Time), ModelError>>,
    /// Frame of the cached exact curves; a frame change dirties everything.
    cached_frame: Option<(Time, Time)>,
    /// Cached exact curves and direct-dirty marks, rows parallel to jobs.
    curves: Vec<Vec<Option<NodeCurves>>>,
    dirty: Vec<Vec<bool>>,
    /// Kernel temporaries of the exact path.
    scratch: Scratch,
    arena: CurveArena,
    /// Interned hop-0 pattern curves keyed by `(job index, window)`.
    pattern_cache: HashMap<(usize, Time), CurveId>,
    /// Subjob index, evaluation order and dependency graph of the exact
    /// path. These depend only on chains, processor assignment and
    /// priorities — never on execution times or arrival patterns — so
    /// exec/arrival deltas keep them; priority and job-set deltas drop
    /// them.
    structure: Option<StructureCache>,
    /// Per-job exact schedulability verdicts, invalidated by the dirty
    /// cone whenever a job's curves are recomputed.
    job_sched: Vec<Option<bool>>,
    /// The loops fixpoint's per-processor memo of final bounds and
    /// contexts.
    loop_memo: LoopMemo,
    /// Holistic seed plus the execution vector it was computed under (the
    /// from-below gate needs pointwise comparison).
    holistic_seed: Option<(HolisticSeed, Vec<i64>)>,
    verdicts: HashMap<VerdictKey, bool>,
    verdict_order: VecDeque<VerdictKey>,
    stats: SessionStats,
}

impl AnalysisSession {
    /// Open a session that resolves the analysis frame from the current
    /// system on every run — bit-compatible with the free analysis
    /// functions under the same `cfg`.
    pub fn new(sys: TaskSystem, cfg: AnalysisConfig) -> AnalysisSession {
        Self::build(sys, cfg, false)
    }

    /// Open a session whose frame is resolved **once**, from `sys`, and
    /// pinned for every subsequent run, keeping curve caches, the fixpoint
    /// memo and seeds valid across deltas. See the module docs for the
    /// soundness trade.
    pub fn pinned(sys: TaskSystem, cfg: AnalysisConfig) -> AnalysisSession {
        Self::build(sys, cfg, true)
    }

    fn build(sys: TaskSystem, cfg: AnalysisConfig, pin: bool) -> AnalysisSession {
        let pinned = pin.then(|| cfg.try_resolve(&sys));
        let n_jobs = sys.jobs().len();
        let rows: Vec<Vec<Option<NodeCurves>>> = sys
            .jobs()
            .iter()
            .map(|j| vec![None; j.subjobs.len()])
            .collect();
        let dirty = sys
            .jobs()
            .iter()
            .map(|j| vec![true; j.subjobs.len()])
            .collect();
        AnalysisSession {
            base: sys.clone(),
            current: sys,
            cfg,
            pinned,
            cached_frame: None,
            curves: rows,
            dirty,
            scratch: Scratch::new(),
            arena: CurveArena::new(),
            pattern_cache: HashMap::new(),
            structure: None,
            job_sched: vec![None; n_jobs],
            loop_memo: LoopMemo::default(),
            holistic_seed: None,
            verdicts: HashMap::new(),
            verdict_order: VecDeque::new(),
            stats: SessionStats::default(),
        }
    }

    /// The system in its current (post-delta) state.
    pub fn system(&self) -> &TaskSystem {
        &self.current
    }

    /// The analysis configuration, with the pinned frame applied if any.
    pub fn config(&self) -> AnalysisConfig {
        match self.pinned {
            Some(Ok((w, h))) => AnalysisConfig {
                arrival_window: Some(w),
                horizon: Some(h),
                ..self.cfg.clone()
            },
            _ => self.cfg.clone(),
        }
    }

    /// Reuse/recompute counters accumulated so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Interning statistics of the session's curve arena.
    pub fn arena_stats(&self) -> rta_curves::intern::ArenaStats {
        self.arena.stats()
    }

    fn frame(&self) -> Result<(Time, Time), AnalysisError> {
        let frame = match &self.pinned {
            Some(pinned) => pinned.clone(),
            None => self.cfg.try_resolve(&self.current),
        };
        Ok(frame?)
    }

    fn exec_vector(&self) -> Vec<i64> {
        self.current
            .jobs()
            .iter()
            .flat_map(|j| j.subjobs.iter().map(|s| s.exec.ticks()))
            .collect()
    }

    // ---- deltas ---------------------------------------------------------

    fn mark_all_dirty(&mut self) {
        for row in &mut self.dirty {
            row.iter_mut().for_each(|d| *d = true);
        }
    }

    fn mark_processor_dirty(&mut self, p: ProcessorId) {
        for r in self.current.subjobs_on(p) {
            self.dirty[r.job.0][r.index] = true;
        }
    }

    /// Structural deltas invalidate anything keyed on the old structure.
    fn forget_structural_caches(&mut self) {
        self.verdicts.clear();
        self.verdict_order.clear();
        self.holistic_seed = None;
        self.pattern_cache.clear();
    }

    /// Scale every execution time from the **base** system by `factor`
    /// (ceil, at least one tick), in place — no system clone per step.
    /// Every workload curve depends on its execution time, so when any
    /// execution time moves the whole cone is dirty and the whole fixpoint
    /// memo is dropped; the cross-run reuse for that case comes from
    /// verdict memoization, the holistic seed and interned pattern curves.
    /// When quantization maps `factor` onto the execution vector already in
    /// place (re-probing a scale, or a bisection step below one tick),
    /// nothing an analysis depends on has changed and every cached curve
    /// stays clean.
    pub fn scale_exec(&mut self, factor: f64) {
        let before = self.exec_vector();
        self.current.assign_scaled_exec(&self.base, factor);
        if self.exec_vector() != before {
            self.mark_all_dirty();
            self.loop_memo.drop_all();
        }
    }

    /// Set (or clear) one subjob's priority. Dirties every subjob on that
    /// processor (any priority move can reorder its peers' interference
    /// sets) and drops its fixpoint memo; downstream propagation happens
    /// at the next analysis.
    pub fn set_priority(&mut self, r: SubjobRef, priority: Option<u32>) {
        self.current.set_priority(r, priority);
        let p = self.current.subjob(r).processor;
        self.mark_processor_dirty(p);
        self.loop_memo.drop_processor(p);
        self.structure = None; // priorities shape the interference edges
        self.forget_structural_caches();
    }

    /// Replace one job's arrival pattern (e.g. grow its burst train while
    /// walking a schedulability region). Unlike a priority move, an
    /// arrival delta leaves the dependency graph intact — only the job's
    /// hop-0 envelope changes — so just the job's own subjobs are marked;
    /// the next analysis closes the influence cone over the graph (chain
    /// successors plus every lower-priority peer on the job's processors),
    /// and everything outside it keeps its cached curves. A lowest-priority
    /// burst source therefore invalidates nothing but itself.
    ///
    /// The cache invalidation is similarly narrow: verdict memos are keyed
    /// on execution vectors only, so they must all go, and the fixpoint
    /// memo of the job's processors is dropped (its envelopes feed their
    /// bounds and contexts) — but pattern curves are keyed per job, so only
    /// the edited job's envelopes are evicted and every other job's
    /// interned envelope survives the delta. This is what makes an inner
    /// burst-axis walk of [`crate::sensitivity::region::explore_region`]
    /// cheap: probe after probe, the unedited jobs' curves and verdicts are
    /// reused verbatim.
    pub fn set_arrival(&mut self, id: JobId, arrival: ArrivalPattern) {
        self.current.set_arrival(id, arrival);
        for d in &mut self.dirty[id.0] {
            *d = true;
        }
        self.loop_memo.drop_job(self.current.job(id));
        self.verdicts.clear();
        self.verdict_order.clear();
        self.holistic_seed = None;
        self.pattern_cache.retain(|&(job, _), _| job != id.0);
    }

    /// Append a job. Existing jobs keep their ids. Only the new job's
    /// subjobs are marked: the dirty cone adds its lower-priority peers and
    /// everything downstream, and the job's processors drop their fixpoint
    /// memo. The job also joins the *scaling base* at its given execution
    /// times (even if the session is currently scaled), so later
    /// [`AnalysisSession::scale_exec`] calls treat it like any resident
    /// job: `scale_exec(1.0)` restores the exec it was admitted with.
    pub fn add_job(&mut self, job: Job) -> JobId {
        self.loop_memo.add_job(&job);
        self.base.push_job(job.clone());
        let id = self.current.push_job(job);
        let hops = self.current.job(id).subjobs.len();
        self.curves.push(vec![None; hops]);
        self.dirty.push(vec![true; hops]);
        self.job_sched.push(None);
        self.structure = None;
        self.forget_structural_caches();
        id
    }

    /// Remove a job; later job ids shift down by one. On each processor
    /// the job visited, the subjobs below it in priority are marked (they
    /// lose an interferer; the cone adds their downstream hops) and the
    /// fixpoint memo is dropped. The job leaves the scaling base too,
    /// keeping base and current shape-aligned for
    /// [`AnalysisSession::scale_exec`].
    pub fn remove_job(&mut self, id: JobId) -> Job {
        self.base.remove_job(id);
        let removed = self.current.remove_job(id);
        self.curves.remove(id.0);
        self.dirty.remove(id.0);
        self.job_sched.remove(id.0);
        self.loop_memo.remove_job(id, &removed);
        for s in &removed.subjobs {
            for r in self.current.subjobs_on(s.processor) {
                let higher = matches!(
                    (self.current.subjob(r).priority, s.priority),
                    (Some(a), Some(b)) if a < b
                );
                if !higher {
                    self.dirty[r.job.0][r.index] = true;
                }
            }
        }
        self.structure = None;
        self.forget_structural_caches();
        removed
    }

    // ---- exact analysis -------------------------------------------------

    /// Hop-0 arrival curve of job `k`, via the interned pattern cache of
    /// ingest curves.
    fn pattern_curve(&mut self, k: usize, window: Time) -> SoaCurve {
        let id = match self.pattern_cache.get(&(k, window)) {
            Some(&id) => id,
            None => {
                let c = self.current.jobs()[k].arrival.arrival_curve(window);
                let id = self.arena.intern(c);
                self.pattern_cache.insert((k, window), id);
                id
            }
        };
        SoaCurve::from_curve(self.arena.get(id))
    }

    /// Bring the cached curve set up to date: close the dirty marks over
    /// the dependency graph and recompute exactly the cone. On success the
    /// structure cache is guaranteed present (callers read the index from
    /// it).
    fn refresh_exact_curves(&mut self) -> Result<(Time, Time), AnalysisError> {
        self.current.validate(true)?;
        require_exact_capable(&self.current)?;
        let (window, horizon) = self.frame()?;
        if self.cached_frame != Some((window, horizon)) {
            self.mark_all_dirty();
            self.cached_frame = Some((window, horizon));
        }
        let sc = match self.structure.take() {
            Some(sc) => sc,
            None => {
                let idx = SubjobIndex::new(&self.current);
                let graph = DepGraph::new(&self.current, &idx);
                let order = graph.evaluation_order(&idx)?;
                StructureCache { idx, order, graph }
            }
        };
        let idx = &sc.idx;
        let order = &sc.order;

        let mut cone = DirtyCone::clean(idx.len());
        for (i, &r) in idx.refs().iter().enumerate() {
            if self.dirty[r.job.0][r.index] || self.curves[r.job.0][r.index].is_none() {
                cone.mark(i);
            }
        }
        cone.propagate(&sc.graph);

        // A job whose curves are about to be recomputed loses its cached
        // verdict; everything outside the cone keeps it.
        for (i, &r) in idx.refs().iter().enumerate() {
            if cone.is_dirty(i) {
                self.job_sched[r.job.0] = None;
            }
        }

        // Pre-resolve pattern curves for dirty first hops (needs `&mut
        // self` for the arena, so it happens before the rows are detached).
        let mut hop0: HashMap<usize, SoaCurve> = HashMap::new();
        for (i, &r) in idx.refs().iter().enumerate() {
            if r.index == 0 && cone.is_dirty(i) {
                let c = self.pattern_curve(r.job.0, window);
                hop0.insert(r.job.0, c);
            }
        }

        // Move clean entries into the dense working set; recompute the cone
        // in topological order; move everything back.
        let mut rows = std::mem::take(&mut self.curves);
        let mut dense: Vec<Option<NodeCurves>> = idx
            .refs()
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                if cone.is_dirty(i) {
                    None
                } else {
                    rows[r.job.0][r.index].take()
                }
            })
            .collect();
        let mut result = Ok(());
        for &i in order {
            if !cone.is_dirty(i) {
                self.stats.subjobs_reused += 1;
                continue;
            }
            let r = idx.subjob(i);
            let pattern = (r.index == 0).then(|| hop0.remove(&r.job.0)).flatten();
            match subjob_node_curves(
                &self.current,
                idx,
                i,
                (window, horizon),
                &dense,
                pattern,
                &mut self.scratch,
            ) {
                Ok(c) => dense[i] = Some(c),
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
            self.stats.subjobs_recomputed += 1;
        }
        if result.is_ok() {
            for (i, &r) in idx.refs().iter().enumerate() {
                rows[r.job.0][r.index] = dense[i].take();
                self.dirty[r.job.0][r.index] = false;
            }
        } else {
            // Leave the session fully dirty rather than half-updated.
            self.mark_all_dirty();
            self.job_sched.iter_mut().for_each(|v| *v = None);
        }
        self.curves = rows;
        self.structure = Some(sc);
        result.map(|()| (window, horizon))
    }

    /// Exact Theorem-1 analysis of the current system, recomputing only the
    /// dirty cone. Bit-identical to
    /// [`crate::analyze_exact_spp`]`(self.system(), &self.config())`.
    pub fn analyze_exact(&mut self) -> Result<ExactReport, AnalysisError> {
        let (window, horizon) = self.refresh_exact_curves()?;
        self.stats.analyses += 1;
        let idx = &self.structure.as_ref().expect("refreshed").idx;
        let nodes: Vec<&NodeCurves> = idx
            .refs()
            .iter()
            .map(|&r| {
                self.curves[r.job.0][r.index]
                    .as_ref()
                    .expect("refreshed cache is complete")
            })
            .collect();
        Ok(assemble_exact_report(
            &self.current,
            idx,
            &nodes,
            window,
            horizon,
        ))
    }

    /// All-jobs verdict of the exact path, with per-job verdicts served
    /// from [`AnalysisSession::job_sched`] when the job's curves were
    /// reused verbatim — response-time extraction runs only for jobs the
    /// dirty cone touched.
    fn exact_all_schedulable(&mut self) -> Result<bool, AnalysisError> {
        self.refresh_exact_curves()?;
        self.stats.analyses += 1;
        let idx = &self.structure.as_ref().expect("refreshed").idx;
        for (k, job) in self.current.jobs().iter().enumerate() {
            let v = match self.job_sched[k] {
                Some(v) => v,
                None => {
                    let job_id = JobId(k);
                    let first = idx.index(SubjobRef {
                        job: job_id,
                        index: 0,
                    });
                    let last = idx.index(SubjobRef {
                        job: job_id,
                        index: job.subjobs.len() - 1,
                    });
                    let fr = idx.subjob(first);
                    let lr = idx.subjob(last);
                    let rep = job_report(
                        job_id,
                        job.deadline,
                        &self.curves[fr.job.0][fr.index]
                            .as_ref()
                            .expect("refreshed")
                            .arrival,
                        &self.curves[lr.job.0][lr.index]
                            .as_ref()
                            .expect("refreshed")
                            .departure,
                    );
                    let v = rep.schedulable();
                    self.job_sched[k] = Some(v);
                    v
                }
            };
            if !v {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ---- warm fixpoint drivers ----------------------------------------

    /// Loop-tolerant bounds analysis through the session's per-processor
    /// memo: only processors a delta touched since the last run (all of
    /// them after a frame or budget change) are evaluated. Bit-identical
    /// to the cold [`crate::fixpoint::analyze_with_loops`] under the same
    /// configuration at every `max_rounds`.
    pub fn analyze_with_loops(&mut self, max_rounds: usize) -> Result<BoundsReport, AnalysisError> {
        let cfg = self.config();
        let (report, copied) =
            analyze_with_loops_memo(&self.current, &cfg, max_rounds, &mut self.loop_memo)?;
        let n = self.current.all_subjobs().count();
        self.stats.analyses += 1;
        self.stats.subjobs_reused += copied as u64;
        self.stats.subjobs_recomputed += (n - copied) as u64;
        Ok(report)
    }

    /// Holistic (SPP/S&L) analysis, warm-started when sound: the carried
    /// seed is used only if every execution time it was computed under is
    /// pointwise ≤ the current one (the from-below precondition of
    /// [`HolisticSeed`]) and the frame matches.
    pub fn analyze_holistic(&mut self) -> Result<BoundsReport, AnalysisError> {
        let cfg = self.config();
        let (window, horizon) = self.frame()?;
        let exec = self.exec_vector();
        let seed = self.holistic_seed.take().filter(|(s, seed_exec)| {
            s.matches(window, horizon, exec.len())
                && seed_exec.len() == exec.len()
                && seed_exec.iter().zip(&exec).all(|(a, b)| a <= b)
        });
        if seed.is_some() {
            self.stats.warm_starts += 1;
        }
        let (report, next) =
            analyze_holistic_seeded(&self.current, &cfg, seed.as_ref().map(|(s, _)| s))?;
        self.stats.analyses += 1;
        self.holistic_seed = Some((next, exec));
        Ok(report)
    }

    // ---- verdicts and sweeps -------------------------------------------

    fn verdict_key(&self, oracle: Oracle) -> VerdictKey {
        let (tag, param) = match oracle {
            Oracle::Exact => (0u8, 0u64),
            Oracle::Bounds => (1, 0),
            Oracle::Loops { max_rounds } => (2, max_rounds as u64),
        };
        (tag, param, self.exec_vector())
    }

    /// Schedulability of the current system under `oracle`, memoized on the
    /// (quantized) execution vector.
    pub fn schedulable(&mut self, oracle: Oracle) -> Result<bool, AnalysisError> {
        let key = self.verdict_key(oracle);
        if let Some(&v) = self.verdicts.get(&key) {
            self.stats.verdict_hits += 1;
            return Ok(v);
        }
        self.stats.verdict_misses += 1;
        let v = match oracle {
            Oracle::Exact => self.exact_all_schedulable()?,
            Oracle::Bounds => {
                let cfg = self.config();
                self.stats.analyses += 1;
                crate::bounds::analyze_bounds(&self.current, &cfg)?.all_schedulable()
            }
            Oracle::Loops { max_rounds } => self.analyze_with_loops(max_rounds)?.all_schedulable(),
        };
        if self.verdicts.len() >= VERDICT_MEMO_CAPACITY {
            if let Some(old) = self.verdict_order.pop_front() {
                self.verdicts.remove(&old);
            }
        }
        self.verdict_order.push_back(key.clone());
        self.verdicts.insert(key, v);
        Ok(v)
    }

    /// Scale from the base system and decide schedulability in one step.
    pub fn schedulable_at_scale(
        &mut self,
        factor: f64,
        oracle: Oracle,
    ) -> Result<bool, AnalysisError> {
        self.scale_exec(factor);
        self.schedulable(oracle)
    }

    /// The largest execution-time scaling factor (within `[1/64, 64]`, to
    /// `iterations` bisection steps) under which the base system stays
    /// schedulable — the incremental engine behind
    /// [`crate::sensitivity::critical_scaling`]. Returns `None` if the
    /// system is unschedulable even at the lower edge.
    pub fn critical_scaling(
        &mut self,
        oracle: Oracle,
        iterations: u32,
    ) -> Result<Option<f64>, AnalysisError> {
        let (mut lo, mut hi) = (1.0 / 64.0, 64.0);
        if !self.schedulable_at_scale(lo, oracle)? {
            return Ok(None);
        }
        if self.schedulable_at_scale(hi, oracle)? {
            return Ok(Some(hi));
        }
        for _ in 0..iterations {
            let mid = 0.5 * (lo + hi);
            if self.schedulable_at_scale(mid, oracle)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Some(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, Subjob, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    /// Two processors, three jobs; T3 only touches P2.
    fn pipeline_system() -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(80),
            periodic(40),
            vec![(p1, Time(4)), (p2, Time(6))],
        );
        b.add_job("T2", Time(90), periodic(45), vec![(p1, Time(5))]);
        b.add_job("T3", Time(120), periodic(60), vec![(p2, Time(7))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        sys
    }

    #[test]
    fn first_analysis_matches_cold_function() {
        let sys = pipeline_system();
        let cfg = AnalysisConfig::default();
        let cold = crate::analyze_exact_spp(&sys, &cfg).unwrap();
        let mut session = AnalysisSession::new(sys, cfg);
        let warm = session.analyze_exact().unwrap();
        assert_eq!(format!("{cold}"), format!("{warm}"));
        assert_eq!(cold.curves.len(), warm.curves.len());
        for (a, b) in cold.curves.iter().zip(warm.curves.iter()) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.service, b.service);
            assert_eq!(a.departure, b.departure);
        }
    }

    #[test]
    fn clean_reanalysis_recomputes_nothing() {
        let mut session = AnalysisSession::new(pipeline_system(), AnalysisConfig::default());
        session.analyze_exact().unwrap();
        let before = session.stats();
        session.analyze_exact().unwrap();
        let after = session.stats();
        assert_eq!(after.subjobs_recomputed, before.subjobs_recomputed);
        assert_eq!(
            after.subjobs_reused,
            before.subjobs_reused + 4,
            "all four subjobs reused"
        );
    }

    #[test]
    fn priority_delta_recomputes_only_the_cone() {
        let sys = pipeline_system();
        let cfg = AnalysisConfig::default();
        let mut session = AnalysisSession::new(sys.clone(), cfg.clone());
        session.analyze_exact().unwrap();

        // Swap priorities on P1 (T1 hop 0 and T2). T3 lives on P2 and is
        // downstream of nothing on P1 except through T1's chain.
        let t1h0 = SubjobRef {
            job: JobId(0),
            index: 0,
        };
        let t2h0 = SubjobRef {
            job: JobId(1),
            index: 0,
        };
        let (a, b) = (
            sys.subjob(t1h0).priority.unwrap(),
            sys.subjob(t2h0).priority.unwrap(),
        );
        session.set_priority(t1h0, Some(b));
        session.set_priority(t2h0, Some(a));
        let before = session.stats();
        let warm = session.analyze_exact().unwrap();
        let after = session.stats();

        // Cold oracle on the mutated system.
        let mut cold_sys = sys.clone();
        cold_sys.set_priority(t1h0, Some(b));
        cold_sys.set_priority(t2h0, Some(a));
        let cold = crate::analyze_exact_spp(&cold_sys, &cfg).unwrap();
        assert_eq!(format!("{cold}"), format!("{warm}"));
        for (x, y) in cold.curves.iter().zip(warm.curves.iter()) {
            assert_eq!(x.departure, y.departure);
        }

        // The cone is P1's two subjobs plus T1's downstream hop on P2, plus
        // T3 (lower priority than T1 hop 1 on P2): at least T2 alone...
        // here the only subjob that can stay clean is none-or-T3 depending
        // on priorities; assert we did *not* recompute everything while
        // recomputing at least the two P1 subjobs.
        let recomputed = after.subjobs_recomputed - before.subjobs_recomputed;
        assert!(recomputed >= 2, "P1 subjobs must recompute: {recomputed}");
        assert!(
            recomputed <= 4,
            "cone must not exceed the system: {recomputed}"
        );
    }

    #[test]
    fn add_and_remove_job_stay_bit_identical() {
        let sys = pipeline_system();
        let cfg = AnalysisConfig::default();
        let mut session = AnalysisSession::new(sys.clone(), cfg.clone());
        session.analyze_exact().unwrap();

        // Add a low-priority job on P1.
        let new_job = Job {
            name: "T4".into(),
            deadline: Time(200),
            arrival: periodic(100),
            subjobs: vec![Subjob {
                processor: rta_model::ProcessorId(0),
                exec: Time(3),
                priority: Some(99),
                weight: None,
            }],
        };
        let id = session.add_job(new_job.clone());
        let warm = session.analyze_exact().unwrap();
        let mut cold_sys = sys.clone();
        cold_sys.push_job(new_job);
        let cold = crate::analyze_exact_spp(&cold_sys, &cfg).unwrap();
        assert_eq!(format!("{cold}"), format!("{warm}"));

        // Remove it again: back to the original system's results.
        session.remove_job(id);
        let warm = session.analyze_exact().unwrap();
        let cold = crate::analyze_exact_spp(&sys, &cfg).unwrap();
        assert_eq!(format!("{cold}"), format!("{warm}"));
    }

    #[test]
    fn verdict_memo_hits_on_repeated_scales() {
        let mut session = AnalysisSession::new(pipeline_system(), AnalysisConfig::default());
        assert!(session.schedulable_at_scale(1.0, Oracle::Exact).unwrap());
        let s1 = session.stats();
        // Identical quantized system: ceil(exec × 0.9999999) == exec.
        assert!(session
            .schedulable_at_scale(0.9999999, Oracle::Exact)
            .unwrap());
        let s2 = session.stats();
        assert_eq!(s2.verdict_hits, s1.verdict_hits + 1);
        assert_eq!(s2.analyses, s1.analyses);
    }

    #[test]
    fn session_critical_scaling_matches_free_function() {
        let sys = pipeline_system();
        let cfg = AnalysisConfig::default();
        let free = crate::sensitivity::critical_scaling(&sys, &cfg, Oracle::Exact, 16)
            .unwrap()
            .unwrap();
        let mut session = AnalysisSession::new(sys, cfg);
        let via_session = session
            .critical_scaling(Oracle::Exact, 16)
            .unwrap()
            .unwrap();
        assert_eq!(free, via_session);
        assert!(session.stats().verdict_hits > 0, "bisection must re-visit");
    }

    #[test]
    fn pinned_frame_keeps_the_loop_memo_warm() {
        let sys = pipeline_system();
        let mut session = AnalysisSession::pinned(sys, AnalysisConfig::default());
        let oracle = Oracle::Loops { max_rounds: 8 };
        session.schedulable_at_scale(1.0, oracle).unwrap();
        session.schedulable_at_scale(1.05, oracle).unwrap();
        // The pinned frame keeps the scaled run's memo valid: an arrival
        // delta on T3 (P2 only) re-evaluates P2's two subjobs and copies
        // P1's two.
        let before = session.stats();
        session.set_arrival(JobId(2), periodic(50));
        let warm = session.analyze_with_loops(8).unwrap();
        let after = session.stats();
        assert_eq!(after.subjobs_reused - before.subjobs_reused, 2, "{after:?}");
        assert_eq!(after.subjobs_recomputed - before.subjobs_recomputed, 2);
        let cold =
            crate::fixpoint::analyze_with_loops(session.system(), &session.config(), 8).unwrap();
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        // An unchanged re-run copies everything.
        let warm = session.analyze_with_loops(8).unwrap();
        assert_eq!(session.stats().subjobs_reused - after.subjobs_reused, 4);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
    }

    #[test]
    fn pattern_curves_are_interned_once() {
        let mut session = AnalysisSession::pinned(pipeline_system(), AnalysisConfig::default());
        session.analyze_exact().unwrap();
        let after_first = session.arena_stats().curves;
        // Scale delta dirties everything, but the pattern curves are
        // window-keyed and survive; re-interning must not grow the arena.
        session.scale_exec(1.5);
        session.analyze_exact().unwrap();
        assert_eq!(session.arena_stats().curves, after_first);
    }
}
