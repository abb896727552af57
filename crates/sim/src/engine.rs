//! The indexed discrete-event engine.
//!
//! Instances live in a flat [`InstanceArena`]; the schedule itself needs no
//! general-purpose priority queue, because only two kinds of event ever sit
//! in the *future*:
//!
//! * **primary releases** — known in full before the run starts, so they
//!   are materialized once as a `(time, seq)` array, stable-sorted by time
//!   (the input is one sorted run per job, which the stable sort merges in
//!   near-linear time), and consumed by a cursor;
//! * **hop completions** — at most one live per processor (a processor
//!   runs one instance at a time), held in a per-processor `complete_at`
//!   slot that a preemption simply overwrites. No queue, no stale entries,
//!   no generation counters.
//!
//! Everything else — chain releases under Direct Synchronization,
//! preemption/dispatch re-checks — happens at the instant being drained
//! and goes straight to the target processor's ready queue or onto the
//! instant's dirty-processor list.
//!
//! ## Ordering
//!
//! Each instant drains in the classic three-phase order the retired loop
//! used (and `tests/oracle.rs` pins event for event against
//! [`crate::legacy`]): completions in processor order, then releases in
//! release-sequence order, then one preemption/dispatch check per
//! processor whose state changed. Two facts make the flat structures
//! equivalent to a totally-ordered event queue:
//!
//! * a dispatch decision on one processor never affects another processor
//!   at the same instant (a dispatch schedules a completion strictly in
//!   the future, since executions are positive), so the phase-3 checks
//!   can run in any deterministic order;
//! * policies pick by `(priority-key, hop_release, seq)` — a total order —
//!   so the *insertion* order of a ready queue is immaterial, and a chain
//!   release may be enqueued during the completion phase even though the
//!   retired loop formally processed it in the release phase. Every check
//!   consults the processor's full ready set, so several state changes
//!   coalesced into one check decide as they would one by one.
//!
//! ## Dispatch
//!
//! Each processor runs its policy's [`FastPath`] inline: the minimum of
//! `(prio, hop_release, seq)` with or without preemption (SPP, SPNP), of
//! `(hop_release, job, seq)` (FCFS), or IWRR's `(pos, cycle)` round-robin
//! cursor over the processor's flows and weights, kept per processor and
//! refilled in place each run. No decision calls into the policy.
//!
//! Processors whose state did not change at an instant are never visited —
//! a processor with no completion and no arrival either keeps running
//! (nothing new to preempt it: its ready set is unchanged) or is idle with
//! an empty ready queue (dispatch never leaves work queued on an idle
//! processor), so skipping it cannot change the schedule.

use crate::arena::{InstanceArena, InstanceId, InstanceState};
use crate::result::SimResult;
use rta_core::policy::{policy_for, FastPath, ReadyInstance};
use rta_core::AnalysisConfig;
use rta_curves::Time;
use rta_model::{Job, JobId, SubjobRef, TaskSystem};

/// What a simulation run reports to its caller. The single event loop is
/// generic over this, so the full-trace path ([`SimResult`] via
/// [`ResultObserver`]) and the verdict-only Monte-Carlo path
/// ([`crate::wcdfp`]) share one schedule byte for byte — the observer only
/// chooses what to *record*, never what *happens*.
pub(crate) trait Observer {
    /// Called once per job in index order, before any event runs, with the
    /// job's primary release times for this run.
    fn begin_job(&mut self, job: &Job, times: &[Time]);

    /// A hop of `inst` completed at `t` (`inst` still holds its pre-advance
    /// state); `last` is true when this was the chain's final hop.
    fn hop_complete(&mut self, id: InstanceId, inst: &InstanceState, t: Time, last: bool);

    /// `inst`'s subjob was served on its processor over `[from, to)`.
    #[cfg(feature = "trace")]
    fn service(&mut self, subjob: rta_model::SubjobRef, from: Time, to: Time);
}

/// The [`Observer`] behind [`SimEngine::simulate_into`]: records everything
/// into a recycled [`SimResult`].
struct ResultObserver<'a> {
    out: &'a mut SimResult,
}

impl Observer for ResultObserver<'_> {
    fn begin_job(&mut self, job: &Job, times: &[Time]) {
        self.out
            .hop_completions
            .push(vec![vec![None; job.subjobs.len()]; times.len()]);
        self.out.releases.push(times.to_vec());
    }

    fn hop_complete(&mut self, _id: InstanceId, inst: &InstanceState, t: Time, _last: bool) {
        #[cfg(feature = "trace")]
        self.out.hop_records.push(crate::result::HopRecord {
            job: inst.job,
            m: inst.m,
            hop: inst.hop,
            release: inst.hop_release,
            start: inst.started,
            finish: t,
        });
        self.out.hop_completions[inst.job.0][inst.m as usize - 1][inst.hop as usize] = Some(t);
    }

    #[cfg(feature = "trace")]
    fn service(&mut self, subjob: rta_model::SubjobRef, from: Time, to: Time) {
        self.out
            .service_intervals
            .entry(subjob)
            .or_default()
            .push((from, to));
    }
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Instances released in `[0, window]` are simulated.
    pub window: Time,
    /// Hard stop: instances not completed by this time are reported as
    /// incomplete (matches the analysis convention).
    pub horizon: Time,
}

impl SimConfig {
    /// Window/horizon matching the defaults of `rta-model::horizon` (and
    /// hence of the analyses), so simulation and analysis cover the same
    /// instances.
    ///
    /// # Panics
    ///
    /// When the window or the horizon overflows a tick (see
    /// [`AnalysisConfig::try_resolve`]).
    pub fn defaults_for(sys: &TaskSystem) -> SimConfig {
        let (window, horizon) = AnalysisConfig::default().resolve(sys);
        SimConfig { window, horizon }
    }
}

/// A processor's `complete_at` when nothing is dispatched on it.
const IDLE: i64 = i64::MAX;

/// Placeholder for `running_view` while nothing is dispatched.
const NO_VIEW: ReadyInstance = ReadyInstance {
    subjob: SubjobRef {
        job: JobId(0),
        index: 0,
    },
    hop_release: Time(0),
    seq: 0,
    prio: u32::MAX,
};

/// Per-processor run state: the policy's dispatch shape and the queues.
struct ProcState {
    /// The processor's [`FastPath`], from its policy at the start of a run.
    fast: FastPath,
    /// [`FastPath::RoundRobin`]'s flows and cursor (empty for the other
    /// shapes).
    rr: RoundRobin,
    /// Ready instances, by arena id. Order is insertion order; policies
    /// select by index through the views buffer.
    ready: Vec<InstanceId>,
    /// Policy-facing views of `ready`, maintained in lockstep (an
    /// instance's view fields only change while it is *running*, never
    /// while it is queued, so a pushed view stays valid until dispatch).
    views: Vec<ReadyInstance>,
    running: Option<(InstanceId, Time)>, // (instance, dispatched at)
    /// The running instance's view, captured at dispatch (its fields are
    /// stable while it runs), so preemption checks rebuild nothing.
    /// Meaningful only while `running` is `Some`.
    running_view: ReadyInstance,
    /// Whether this processor is already on the current instant's
    /// dirty list.
    dirty: bool,
}

/// The policy-facing view of one instance, with its subjob's priority
/// cached so policy selection loops stay pointer-free.
fn view(sys: &TaskSystem, inst: &InstanceState) -> ReadyInstance {
    let subjob = inst.subjob();
    ReadyInstance {
        subjob,
        hop_release: inst.hop_release,
        seq: inst.seq,
        prio: sys.subjob(subjob).priority.unwrap_or(u32::MAX),
    }
}

/// Mark `proc` for a phase-3 check at the instant being drained.
fn mark(procs: &mut [ProcState], dirty: &mut Vec<u32>, proc: usize) {
    let p = &mut procs[proc];
    if !p.dirty {
        p.dirty = true;
        dirty.push(proc as u32);
    }
}

/// [`FastPath::RoundRobin`]'s state on one processor: its flows in
/// [`TaskSystem::subjobs_on`] order with their weights, and IWRR's cursor.
/// Cycle `c = 1..=w_max` of a round visits the flows in order and serves
/// those with `w ≥ c`; `(pos, cycle)` is the next visit. Memory is one
/// entry per flow, whatever the weights.
#[derive(Default)]
struct RoundRobin {
    flows: Vec<(SubjobRef, u32)>,
    w_max: u32,
    pos: usize,
    cycle: u32,
}

impl RoundRobin {
    /// The dispatch: the first visit from the cursor whose flow is eligible
    /// and has a ready instance serves that flow's earliest
    /// `(hop_release, seq)`, and the cursor moves past the visit.
    /// Eligibility only narrows as the cycle grows, so a ready flow not
    /// met by the end of the cycle after the cursor's is next eligible in
    /// cycle 1 of the next round: three passes over the flows find the
    /// visit, however large the weights.
    fn pick(&mut self, views: &[ReadyInstance]) -> Option<usize> {
        let (n, w_max) = (self.flows.len(), self.w_max);
        let next = if self.cycle < w_max {
            self.cycle + 1
        } else {
            1
        };
        for (c, from) in [(self.cycle, self.pos), (next, 0), (1, 0)] {
            for (j, &(flow, w)) in self.flows.iter().enumerate().skip(from) {
                let best = views
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| w >= c && v.subjob == flow)
                    .min_by_key(|(_, v)| (v.hop_release, v.seq));
                if let Some((i, _)) = best {
                    (self.pos, self.cycle) = match (j + 1 < n, c < w_max) {
                        (true, _) => (j + 1, c),
                        (false, true) => (0, c + 1),
                        (false, false) => (0, 1),
                    };
                    return Some(i);
                }
            }
        }
        None
    }
}

/// One subjob's hot fields, flattened so the event loop never chases
/// `sys.job()`/`sys.subjob()` double-indexed loads: job `k`'s hop `j` is
/// `subs[sub_off[k] + j]`, and hops of one job are contiguous, so a chain
/// advance reads the *next* hop at `si + 1`.
struct SubInfo {
    proc: u32,
    prio: u32,
    exec: Time,
    last: bool,
}

/// A reusable simulation workspace: the arena, the release table and the
/// per-processor queues survive across runs, so a Monte-Carlo driver pays
/// the allocations once per thread, not once per draw.
#[derive(Default)]
pub struct SimEngine {
    arena: InstanceArena,
    procs: Vec<ProcState>,
    /// Flattened per-subjob dispatch fields (rebuilt each run).
    subs: Vec<SubInfo>,
    /// Job `k`'s subjobs start at `subs[sub_off[k]]`.
    sub_off: Vec<u32>,
    /// Primary releases as `(time, seq)`, sorted by time (seq-stable).
    order: Vec<(i64, u32)>,
    /// Per-processor pending completion time ([`IDLE`] when none), hoisted
    /// out of [`ProcState`] so the per-instant scans touch one cache line.
    completes: Vec<i64>,
    /// Processors dirtied at the instant being drained.
    dirty: Vec<u32>,
    /// Release-table scratch: job `k`'s primary releases are
    /// `rel_flat[rel_off[k]..rel_off[k + 1]]`. Filled by [`run_observed`],
    /// kept flat so Monte-Carlo drivers can also hand in their own
    /// randomized tables without per-job allocations.
    rel_flat: Vec<Time>,
    rel_off: Vec<usize>,
    rel_tmp: Vec<Time>,
}

impl SimEngine {
    /// A fresh workspace.
    pub fn new() -> SimEngine {
        SimEngine::default()
    }

    /// Run one simulation, writing the outcome into `out` (whose buffers
    /// are recycled). Equivalent to [`simulate`] but allocation-amortized
    /// across repeated runs.
    pub fn simulate_into(&mut self, sys: &TaskSystem, cfg: &SimConfig, out: &mut SimResult) {
        sys.validate(true).expect("system must be valid");

        out.releases.clear();
        out.hop_completions.clear();
        out.horizon = cfg.horizon;
        #[cfg(feature = "trace")]
        {
            out.service_intervals.clear();
            out.hop_records.clear();
        }
        self.run_observed(sys, cfg, &mut ResultObserver { out });
    }

    /// Run one simulation with the default release tables (each job's
    /// [`rta_model::ArrivalPattern`] evaluated over `cfg.window`), reporting
    /// to `obs`.
    pub(crate) fn run_observed<O: Observer>(
        &mut self,
        sys: &TaskSystem,
        cfg: &SimConfig,
        obs: &mut O,
    ) {
        // The scratch moves out and back so `run_with_releases` can borrow
        // the tables while taking `&mut self`.
        let mut flat = std::mem::take(&mut self.rel_flat);
        let mut off = std::mem::take(&mut self.rel_off);
        let mut tmp = std::mem::take(&mut self.rel_tmp);
        flat.clear();
        off.clear();
        off.push(0);
        for job in sys.jobs() {
            job.arrival.release_times_into(cfg.window, &mut tmp);
            flat.extend_from_slice(&tmp);
            off.push(flat.len());
        }
        self.run_with_releases(sys, cfg, &off, &flat, obs);
        self.rel_flat = flat;
        self.rel_off = off;
        self.rel_tmp = tmp;
    }

    /// Run one simulation whose primary release tables are given explicitly
    /// (job `k` releases at `flat[off[k]..off[k + 1]]`, each table sorted
    /// ascending), reporting to `obs`. This is the entry the Monte-Carlo
    /// arrival-model path uses to inject randomized releases.
    pub(crate) fn run_with_releases<O: Observer>(
        &mut self,
        sys: &TaskSystem,
        cfg: &SimConfig,
        off: &[usize],
        flat: &[Time],
        obs: &mut O,
    ) {
        debug_assert_eq!(off.len(), sys.jobs().len() + 1);
        self.arena.clear();
        self.order.clear();
        self.dirty.clear();
        self.completes.clear();
        self.completes.resize(sys.processors().len(), IDLE);

        // Primary releases in job-then-instance order: `seq` order is the
        // deterministic tie-break every policy bottoms out in, and the
        // arena id of primary instance `seq` is `seq` itself. The same
        // pass flattens each subjob's dispatch fields into `subs`.
        self.subs.clear();
        self.sub_off.clear();
        let mut seq: u64 = 0;
        for (k, job) in sys.jobs().iter().enumerate() {
            self.sub_off.push(self.subs.len() as u32);
            for (j, sub) in job.subjobs.iter().enumerate() {
                self.subs.push(SubInfo {
                    proc: sub.processor.0 as u32,
                    prio: sub.priority.unwrap_or(u32::MAX),
                    exec: sub.exec,
                    last: j + 1 == job.subjobs.len(),
                });
            }
            let times = &flat[off[k]..off[k + 1]];
            obs.begin_job(job, times);
            for (i, &t) in times.iter().enumerate() {
                self.arena.push(InstanceState {
                    job: JobId(k),
                    m: (i + 1) as u32,
                    hop: 0,
                    remaining: job.subjobs[0].exec,
                    hop_release: t,
                    seq,
                    #[cfg(feature = "trace")]
                    started: Time(-1),
                });
                self.order.push((t.ticks(), seq as u32));
                seq += 1;
            }
        }
        // Sorting the full `(time, seq)` pair gives exactly the
        // stable-by-time order (`seq` ascends within the input), without a
        // stable sort's per-run merge allocation.
        self.order.sort_unstable();

        // Start-of-run dispatch state: each processor's shape, and the
        // round-robin flows refilled in their recycled buffers in one pass
        // over the subjobs. Recycle the queues too.
        self.procs.truncate(sys.processors().len());
        while self.procs.len() < sys.processors().len() {
            self.procs.push(ProcState {
                fast: FastPath::FifoMin,
                rr: RoundRobin::default(),
                ready: Vec::new(),
                views: Vec::new(),
                running: None,
                running_view: NO_VIEW,
                dirty: false,
            });
        }
        for (i, p) in self.procs.iter_mut().enumerate() {
            p.fast = policy_for(sys.processors()[i].scheduler).fast_path();
            p.rr.flows.clear();
            (p.rr.w_max, p.rr.pos, p.rr.cycle) = (0, 0, 1);
            p.ready.clear();
            p.views.clear();
            p.running = None;
            p.dirty = false;
        }
        for r in sys.all_subjobs() {
            let s = sys.subjob(r);
            let p = &mut self.procs[s.processor.0];
            if p.fast == FastPath::RoundRobin {
                p.rr.flows.push((r, s.weight()));
                p.rr.w_max = p.rr.w_max.max(s.weight());
            }
        }

        let SimEngine {
            arena,
            procs,
            order,
            dirty,
            completes,
            subs,
            sub_off,
            ..
        } = self;
        let horizon = cfg.horizon.ticks();
        let mut cursor = 0usize;
        loop {
            // The next instant: the earliest pending completion or primary
            // release. (Chain releases and checks never outlive an instant.)
            let mut cmin = IDLE;
            for &c in completes.iter() {
                cmin = cmin.min(c);
            }
            let t = cmin.min(order.get(cursor).map_or(IDLE, |e| e.0));
            if t == IDLE || t > horizon {
                break;
            }
            let tt = Time(t);

            // Phase 1: hop completions, in processor order (skipped
            // outright when the instant is release-only).
            for pi in 0..if cmin == t { procs.len() } else { 0 } {
                if completes[pi] != t {
                    continue;
                }
                completes[pi] = IDLE;
                let p = &mut procs[pi];
                let (id, _at) = p.running.take().expect("completion without a dispatch");
                let inst = &arena[id];
                debug_assert_eq!(_at + inst.remaining, tt);
                debug_assert_eq!(sys.subjob(inst.subjob()).processor.0, pi);
                #[cfg(feature = "trace")]
                if _at < tt {
                    obs.service(inst.subjob(), _at, tt);
                }
                let si = (sub_off[inst.job.0] + inst.hop) as usize;
                let last = subs[si].last;
                obs.hop_complete(id, inst, tt, last);
                if !last {
                    // Direct Synchronization: the next hop becomes ready at
                    // this very instant, on its own processor.
                    let nxt = &subs[si + 1];
                    let inst = &mut arena[id];
                    inst.hop += 1;
                    inst.remaining = nxt.exec;
                    inst.hop_release = tt;
                    inst.seq = seq;
                    #[cfg(feature = "trace")]
                    {
                        inst.started = Time(-1);
                    }
                    seq += 1;
                    let v = ReadyInstance {
                        subjob: inst.subjob(),
                        hop_release: tt,
                        seq: inst.seq,
                        prio: nxt.prio,
                    };
                    let target = nxt.proc as usize;
                    procs[target].ready.push(id);
                    procs[target].views.push(v);
                    mark(procs, dirty, target);
                }
                // The freed processor only needs a check when something is
                // queued for it. If a release lands here later this same
                // instant, its own mark triggers the dispatch.
                if !procs[pi].ready.is_empty() {
                    mark(procs, dirty, pi);
                }
            }

            // Phase 2: primary releases at this instant, in `seq` order.
            while let Some(&(rt, s)) = order.get(cursor) {
                if rt != t {
                    break;
                }
                cursor += 1;
                let id = InstanceId(s);
                let inst = &arena[id];
                let info = &subs[sub_off[inst.job.0] as usize]; // primaries are at hop 0
                let v = ReadyInstance {
                    subjob: inst.subjob(),
                    hop_release: inst.hop_release,
                    seq: inst.seq,
                    prio: info.prio,
                };
                let target = info.proc as usize;
                procs[target].ready.push(id);
                procs[target].views.push(v);
                mark(procs, dirty, target);
            }

            // Phase 3: one preemption/dispatch check per dirtied processor.
            // Checks never dirty a processor (a dispatch completes strictly
            // later), so the list is fixed by now.
            for &d in dirty.iter() {
                let pi = d as usize;
                let p = &mut procs[pi];
                p.dirty = false;
                if let Some((id, at)) = p.running {
                    let wants = match p.fast {
                        FastPath::PrioMin { preemptive } => {
                            let rp = p.running_view.prio;
                            preemptive && p.views.iter().any(|v| v.prio < rp)
                        }
                        FastPath::FifoMin | FastPath::RoundRobin => false,
                    };
                    if wants {
                        #[cfg(feature = "trace")]
                        if at < tt {
                            obs.service(arena[id].subjob(), at, tt);
                        }
                        let inst = &mut arena[id];
                        inst.remaining -= tt - at;
                        debug_assert!(inst.remaining > Time::ZERO);
                        p.ready.push(id);
                        p.views.push(p.running_view);
                        p.running = None;
                        completes[pi] = IDLE;
                    }
                }
                if p.running.is_none() && !p.views.is_empty() {
                    let pick = match p.fast {
                        FastPath::PrioMin { .. } => {
                            let mut bi = 0;
                            for i in 1..p.views.len() {
                                let (a, b) = (&p.views[i], &p.views[bi]);
                                if (a.prio, a.hop_release, a.seq) < (b.prio, b.hop_release, b.seq) {
                                    bi = i;
                                }
                            }
                            Some(bi)
                        }
                        FastPath::FifoMin => {
                            let mut bi = 0;
                            for i in 1..p.views.len() {
                                let (a, b) = (&p.views[i], &p.views[bi]);
                                if (a.hop_release, a.subjob.job.0, a.seq)
                                    < (b.hop_release, b.subjob.job.0, b.seq)
                                {
                                    bi = i;
                                }
                            }
                            Some(bi)
                        }
                        FastPath::RoundRobin => p.rr.pick(&p.views),
                    };
                    if let Some(i) = pick {
                        let id = p.ready.swap_remove(i);
                        p.running_view = p.views.swap_remove(i);
                        debug_assert!(p.ready.iter().zip(&p.views).all(|(&r, v)| {
                            let w = view(sys, &arena[r]);
                            (w.subjob, w.hop_release, w.seq) == (v.subjob, v.hop_release, v.seq)
                        }));
                        p.running = Some((id, tt));
                        #[cfg(feature = "trace")]
                        if arena[id].started < Time::ZERO {
                            arena[id].started = tt;
                        }
                        completes[pi] = t + arena[id].remaining.ticks();
                    }
                }
            }
            dirty.clear();
        }
    }
}

/// Run one simulation in a fresh workspace.
pub fn simulate(sys: &TaskSystem, cfg: &SimConfig) -> SimResult {
    let mut out = SimResult::default();
    SimEngine::new().simulate_into(sys, cfg, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    fn cfg(window: i64, horizon: i64) -> SimConfig {
        SimConfig {
            window: Time(window),
            horizon: Time(horizon),
        }
    }

    #[test]
    fn single_job_runs_back_to_back() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(10), periodic(10), vec![(p, Time(4))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let r = simulate(&sys, &cfg(30, 100));
        assert_eq!(r.instances(JobId(0)), 4);
        for m in 1..=4 {
            assert_eq!(r.response(JobId(0), m), Some(Time(4)), "m={m}");
        }
    }

    #[test]
    fn spp_preemption() {
        // T2 (low prio, τ=6) starts at 0; T1 (high prio, τ=2) arrives at 2:
        // preempts, T2 finishes at 10.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Trace(vec![Time(2), Time(5)]),
            vec![(p, Time(2))],
        );
        let t2 = b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(6))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(50, 200));
        // T1 instances run immediately on arrival.
        assert_eq!(r.response(JobId(0), 1), Some(Time(2)));
        assert_eq!(r.response(JobId(0), 2), Some(Time(2)));
        // T2: 6 exec + 4 preemption = completes at 10.
        assert_eq!(r.completion(JobId(1), 1), Some(Time(10)));
        // Observed service of T2 has a hole during preemptions.
        #[cfg(feature = "trace")]
        {
            let s = r.observed_service(SubjobRef { job: t2, index: 0 });
            assert_eq!(s.eval(Time(2)), 2);
            assert_eq!(s.eval(Time(4)), 2);
            assert_eq!(s.eval(Time(5)), 3);
            assert_eq!(s.eval(Time(7)), 3);
            assert_eq!(s.eval(Time(10)), 6);
        }
    }

    #[test]
    fn spnp_does_not_preempt() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spnp);
        let t1 = b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Trace(vec![Time(1)]),
            vec![(p, Time(2))],
        );
        let t2 = b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(6))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(50, 200));
        // T2 blocks T1 for its whole execution.
        assert_eq!(r.completion(JobId(1), 1), Some(Time(6)));
        assert_eq!(r.completion(JobId(0), 1), Some(Time(8)));
    }

    #[test]
    fn fcfs_serves_in_arrival_order() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Trace(vec![Time(3)]),
            vec![(p, Time(2))],
        );
        b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(6))],
        );
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(50, 200));
        // T2 first (arrived at 0), then T1 at 6.
        assert_eq!(r.completion(JobId(1), 1), Some(Time(6)));
        assert_eq!(r.completion(JobId(0), 1), Some(Time(8)));
    }

    #[test]
    fn chain_release_cascades_same_instant() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(100),
            periodic(50),
            vec![(p1, Time(3)), (p2, Time(4))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let r = simulate(&sys, &cfg(100, 400));
        // Hop 2 starts the instant hop 1 completes.
        assert_eq!(r.hop_completions[0][0][0], Some(Time(3)));
        assert_eq!(r.hop_completions[0][0][1], Some(Time(7)));
    }

    #[test]
    fn overload_leaves_instances_incomplete() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job("T1", Time(10), periodic(10), vec![(p, Time(8))]);
        let t2 = b.add_job("T2", Time(10), periodic(10), vec![(p, Time(8))]);
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(100, 120));
        assert!(r.wcrt(JobId(1)).is_none(), "T2 must starve");
        // T1 itself stays fine.
        assert_eq!(r.wcrt(JobId(0)), Some(Time(8)));
    }

    #[test]
    fn backlogged_instances_of_one_subjob_are_fifo() {
        // Period 3, exec 5: instances pile up; each must complete in
        // release order, back to back.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t = b.add_job("T1", Time(100), periodic(3), vec![(p, Time(5))]);
        b.set_priority(SubjobRef { job: t, index: 0 }, 1);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(12, 200));
        // Releases at 0,3,6,9,12: completions at 5,10,15,20,25.
        for m in 1..=5 {
            assert_eq!(r.completion(JobId(0), m), Some(Time(5 * m as i64)), "m={m}");
        }
    }

    #[test]
    fn fcfs_tie_break_is_deterministic_by_job_index() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(4))],
        );
        b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(6))],
        );
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(10, 100));
        // Simultaneous arrivals: the lower job index goes first.
        assert_eq!(r.completion(JobId(0), 1), Some(Time(4)));
        assert_eq!(r.completion(JobId(1), 1), Some(Time(10)));
    }

    #[test]
    fn iwrr_interleaves_backlogged_flows_by_weight() {
        // T1 (w=2, τ=2) releases 3 instances at 0; T2 (w=1, τ=3) releases
        // 2 at 0. Rounds serve T1, T2, T1 (cycle 2), so the timeline is
        // T1 [0,2) T2 [2,5) T1 [5,7) | T1 [7,9) T2 [9,12).
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Iwrr);
        let t1 = b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0), Time(0), Time(0)]),
            vec![(p, Time(2))],
        );
        b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0), Time(0)]),
            vec![(p, Time(3))],
        );
        b.set_weight(SubjobRef { job: t1, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(50, 200));
        assert_eq!(r.completion(JobId(0), 1), Some(Time(2)));
        assert_eq!(r.completion(JobId(1), 1), Some(Time(5)));
        assert_eq!(r.completion(JobId(0), 2), Some(Time(7)));
        assert_eq!(r.completion(JobId(0), 3), Some(Time(9)));
        assert_eq!(r.completion(JobId(1), 2), Some(Time(12)));
    }

    #[test]
    fn iwrr_skips_cycles_no_ready_flow_is_eligible_in() {
        // T1 (w = u32::MAX, τ=2) releases 3 instances at 0; T2 (w=1, τ=3)
        // releases 2. Cycles 1–3 serve T1, T2, T1, T1; T1 is then empty
        // and T2 is next eligible in cycle 1 of the next round, some 4·10⁹
        // cycles on: T1 [0,2) T2 [2,5) T1 [5,7) T1 [7,9) T2 [9,12).
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Iwrr);
        let t1 = b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0), Time(0), Time(0)]),
            vec![(p, Time(2))],
        );
        b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0), Time(0)]),
            vec![(p, Time(3))],
        );
        b.set_weight(SubjobRef { job: t1, index: 0 }, u32::MAX);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(50, 200));
        assert_eq!(r.completion(JobId(0), 1), Some(Time(2)));
        assert_eq!(r.completion(JobId(1), 1), Some(Time(5)));
        assert_eq!(r.completion(JobId(0), 2), Some(Time(7)));
        assert_eq!(r.completion(JobId(0), 3), Some(Time(9)));
        assert_eq!(r.completion(JobId(1), 2), Some(Time(12)));
    }

    #[test]
    fn mixed_schedulers_along_one_chain() {
        // SPP first hop, FCFS second: the chain crosses policies intact.
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Fcfs);
        let t1 = b.add_job(
            "T1",
            Time(100),
            periodic(20),
            vec![(p1, Time(3)), (p2, Time(4))],
        );
        b.add_job("T2", Time(100), periodic(20), vec![(p2, Time(6))]);
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(20, 200));
        // T2 starts on P2 at 0; T1's hop 2 arrives at 3, waits until 6.
        assert_eq!(r.hop_completions[0][0][0], Some(Time(3)));
        assert_eq!(r.hop_completions[0][0][1], Some(Time(10)));
        assert_eq!(r.completion(JobId(1), 1), Some(Time(6)));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn observed_utilization_aggregates_processor_busy_time() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(3))],
        );
        let t2 = b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(5)]),
            vec![(p, Time(2))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(20, 100));
        let u = r.observed_utilization(&sys, rta_model::ProcessorId(0));
        // Busy [0,3) and [5,7).
        assert_eq!(u.eval(Time(0)), 0);
        assert_eq!(u.eval(Time(3)), 3);
        assert_eq!(u.eval(Time(5)), 3);
        assert_eq!(u.eval(Time(7)), 5);
        assert_eq!(u.eval(Time(50)), 5);
    }

    #[test]
    fn completion_beats_preemption_at_same_instant() {
        // T2 completes exactly when T1 arrives: no preemption of a finished
        // instance, T1 starts at the same instant.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Trace(vec![Time(4)]),
            vec![(p, Time(2))],
        );
        let t2 = b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(4))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(50, 100));
        assert_eq!(r.completion(JobId(1), 1), Some(Time(4)));
        assert_eq!(r.completion(JobId(0), 1), Some(Time(6)));
    }

    #[test]
    fn coalesced_check_consults_the_full_ready_set() {
        // Two releases at the same instant coalesce into one check. The
        // first (T1a) is lower
        // priority than the running T2 and would not preempt on its own;
        // the second (T1b) must still get its preemption.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1a = b.add_job(
            "T1a",
            Time(100),
            ArrivalPattern::Trace(vec![Time(2)]),
            vec![(p, Time(1))],
        );
        let t1b = b.add_job(
            "T1b",
            Time(100),
            ArrivalPattern::Trace(vec![Time(2)]),
            vec![(p, Time(1))],
        );
        let t2 = b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Trace(vec![Time(0)]),
            vec![(p, Time(10))],
        );
        b.set_priority(SubjobRef { job: t1a, index: 0 }, 3);
        b.set_priority(SubjobRef { job: t1b, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = simulate(&sys, &cfg(50, 200));
        // T1b preempts T2 at 2 and finishes at 3; T2 resumes and finishes
        // at 11; T1a (lowest priority) runs last.
        assert_eq!(r.completion(JobId(1), 1), Some(Time(3)));
        assert_eq!(r.completion(JobId(2), 1), Some(Time(11)));
        assert_eq!(r.completion(JobId(0), 1), Some(Time(12)));
    }

    #[test]
    fn workspace_reuse_is_equivalent_to_fresh_runs() {
        // One engine, two different systems back to back: results must
        // match fresh single-run engines (workspace recycling is benign).
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job("T1", Time(100), periodic(7), vec![(p, Time(3))]);
        let sys_a = b.build().unwrap();

        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t = b.add_job(
            "T1",
            Time(100),
            periodic(10),
            vec![(p1, Time(2)), (p2, Time(5))],
        );
        b.set_priority(SubjobRef { job: t, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t, index: 1 }, 1);
        let sys_b = b.build().unwrap();

        let c = cfg(40, 200);
        let mut engine = SimEngine::new();
        let mut out = SimResult::default();
        engine.simulate_into(&sys_a, &c, &mut out);
        assert_eq!(out, simulate(&sys_a, &c));
        engine.simulate_into(&sys_b, &c, &mut out);
        assert_eq!(out, simulate(&sys_b, &c));
        engine.simulate_into(&sys_a, &c, &mut out);
        assert_eq!(out, simulate(&sys_a, &c));
    }
}
