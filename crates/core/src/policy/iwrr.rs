//! Interleaved weighted round-robin behind the policy seam — the fourth
//! discipline, landed purely against [`ServicePolicy`] (no driver edits).
//!
//! Following the network-calculus analysis of IWRR (Tabatabaee, Le Boudec
//! & Boyer, arXiv:2003.08372), adapted to this codebase's instance-granular
//! non-preemptive server: each serving opportunity of subjob `i` processes
//! one whole instance (`τ_i` ticks), and one *round* interleaves `w_max`
//! cycles, cycle `c` serving every flow with weight `w_j ≥ c` once.
//!
//! While every flow is backlogged a round lasts at most
//! `L = Σ_j w_j · τ_j` ticks, and flow `i` is served exactly `w_i` times
//! per round. Any window of length `u` therefore contains at least
//! `⌊u/L⌋ − 1` complete rounds, giving the **strict service curve**
//!
//! ```text
//! β_i(u) = w_i · τ_i · max(0, ⌊u/L⌋ − 1)
//! ```
//!
//! `β_i` is a lower bound on service *while backlogged*, so the
//! busy-period argument of Theorem 3 yields the guaranteed service
//!
//! ```text
//! S̲(t) = min( t, c̄(t), min_{0 ≤ s ≤ t} ( c̄(s⁻) + β_i(t − s) ) )
//! ```
//!
//! — a min-plus convolution of the left-shifted workload with the
//! staircase. Note the staircase is **not** subadditive, so the
//! availability-increment form used by SPP/SPNP (`B(t) − B(s)`) would be
//! unsound here; the convolution form is the standard sound composition.
//! The upper bound is the information-free `min(t, c̄(t))`: non-preemptive
//! round-robin guarantees nothing tighter without peer *service* curves,
//! and the looseness only feeds the next hop's arrival envelope
//! conservatively. Every workload is a staircase, on which the
//! convolution is the recurrence
//! `G(t) = min(c̄(t − 2L), G(t − L) + w_i·τ_i)`; both bounds are one call
//! to [`rta_curves::iwrr_bounds_into`].
//!
//! In the event engine IWRR dispatches through [`FastPath::RoundRobin`];
//! `IwrrSim` below is the scheduler of the legacy simulator, the
//! independent spec the engine is checked against.

use super::{
    BoundsInputs, FastPath, PeerInputs, PolicyContext, ReadySet, ServicePolicy, SimScheduler,
};
use crate::error::AnalysisError;
use crate::spnp::SoaServiceBounds;
use rta_curves::{iwrr_bounds_into, Scratch, SoaCurve, Time};
use rta_model::{ModelError, ProcessorId, SchedulerKind, SubjobRef, TaskSystem};

/// Per-processor IWRR state: the worst-case round length `L`.
#[derive(Clone, Debug)]
pub struct IwrrContext {
    /// `L = Σ_j w_j · τ_j` over all subjobs sharing the processor.
    pub round_len: i64,
}

/// Interleaved weighted round-robin (non-preemptive, instance-granular).
pub struct IwrrPolicy;

impl ServicePolicy for IwrrPolicy {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Iwrr
    }

    fn peer_inputs(&self) -> PeerInputs {
        PeerInputs::SharedWorkloads
    }

    fn build_context(
        &self,
        sys: &TaskSystem,
        _p: ProcessorId,
        peers: &[SubjobRef],
        _peer_workloads: &[&SoaCurve],
        _horizon: Time,
    ) -> Result<Option<PolicyContext>, AnalysisError> {
        let round_len = round_len(sys, peers)?;
        Ok(Some(PolicyContext::new(IwrrContext { round_len })))
    }

    fn rebuild_context(
        &self,
        sys: &TaskSystem,
        p: ProcessorId,
        peers: &[SubjobRef],
        peer_workloads: &[&SoaCurve],
        horizon: Time,
        slot: &mut Option<PolicyContext>,
    ) -> Result<(), AnalysisError> {
        match slot.as_mut().and_then(|c| c.downcast_mut::<IwrrContext>()) {
            Some(ctx) => ctx.round_len = round_len(sys, peers)?,
            None => *slot = self.build_context(sys, p, peers, peer_workloads, horizon)?,
        }
        Ok(())
    }

    fn service_bounds(
        &self,
        inputs: &BoundsInputs<'_>,
        scratch: &mut Scratch,
        out: &mut SoaServiceBounds,
    ) -> Result<(), AnalysisError> {
        let ctx = inputs.context::<IwrrContext>()?;
        let quantum = quantum(inputs.weight, inputs.tau).ok_or(ModelError::TickOverflow {
            quantity: "IWRR quantum",
        })?;
        iwrr_bounds_into(
            inputs.workload,
            ctx.round_len.max(1),
            quantum,
            inputs.horizon,
            scratch,
            &mut out.lower,
            &mut out.upper,
        )?;
        Ok(())
    }

    fn fast_path(&self) -> FastPath {
        FastPath::RoundRobin
    }

    fn sim_scheduler(&self, sys: &TaskSystem, p: ProcessorId) -> Box<dyn SimScheduler> {
        let flows = sys.subjobs_on(p);
        let weights: Vec<u32> = flows.iter().map(|&r| sys.subjob(r).weight()).collect();
        let wmax = weights.iter().copied().max().unwrap_or(1);
        Box::new(IwrrSim {
            flows,
            weights,
            wmax,
            pos: 0,
            cycle: 1,
        })
    }
}

/// `L = Σ_j w_j · τ_j` over `peers`, or [`ModelError::TickOverflow`].
fn round_len(sys: &TaskSystem, peers: &[SubjobRef]) -> Result<i64, ModelError> {
    peers
        .iter()
        .try_fold(0i64, |sum, &o| {
            let s = sys.subjob(o);
            sum.checked_add(quantum(s.weight(), s.exec)?)
        })
        .ok_or(ModelError::TickOverflow {
            quantity: "IWRR round length",
        })
}

/// A flow's quantum `w·τ`, or `None` when it overflows.
fn quantum(weight: u32, tau: Time) -> Option<i64> {
    i64::from(weight).checked_mul(tau.ticks())
}

/// The interleaved round cursor: cycle `c` visits each flow in list order
/// and serves those with `w ≥ c`; flows with an empty queue are skipped
/// instantly (work conservation), so the cursor only advances on visits.
struct IwrrSim {
    flows: Vec<SubjobRef>,
    weights: Vec<u32>,
    wmax: u32,
    pos: usize,
    cycle: u32,
}

impl SimScheduler for IwrrSim {
    fn pick_idx(&mut self, _sys: &TaskSystem, ready: &ReadySet<'_>) -> Option<usize> {
        if ready.is_empty() || self.flows.is_empty() {
            return None;
        }
        // One full sweep covers every (flow, cycle) slot; any backlogged
        // flow is eligible in cycle 1, so the sweep always finds work.
        for _ in 0..self.flows.len() as u64 * self.wmax as u64 {
            let flow = self.flows[self.pos];
            let eligible = self.cycle <= self.weights[self.pos];
            let cand = if eligible {
                ready
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.subjob == flow)
                    .min_by_key(|(_, c)| (c.hop_release, c.seq))
                    .map(|(i, _)| i)
            } else {
                None
            };
            self.pos += 1;
            if self.pos == self.flows.len() {
                self.pos = 0;
                self.cycle = if self.cycle >= self.wmax {
                    1
                } else {
                    self.cycle + 1
                };
            }
            if let Some(i) = cand {
                return Some(i);
            }
        }
        // Unreachable for instances of registered flows; keep a sound
        // fallback instead of a panicking path.
        (0..ready.len()).min_by_key(|&i| (ready[i].hop_release, ready[i].seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpnpAvailability;
    use crate::policy::{ReadyInstance, ReadySet};
    use rta_model::{ArrivalPattern, SystemBuilder};

    fn two_flow_sys(w1: u32, w2: u32) -> (TaskSystem, ProcessorId) {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Iwrr);
        let t1 = b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Periodic {
                period: Time(20),
                offset: Time::ZERO,
            },
            vec![(p, Time(3))],
        );
        let t2 = b.add_job(
            "T2",
            Time(100),
            ArrivalPattern::Periodic {
                period: Time(20),
                offset: Time::ZERO,
            },
            vec![(p, Time(4))],
        );
        b.set_weight(SubjobRef { job: t1, index: 0 }, w1);
        b.set_weight(SubjobRef { job: t2, index: 0 }, w2);
        (b.build().unwrap(), p)
    }

    fn bounds_for(
        sys: &TaskSystem,
        p: ProcessorId,
        r: SubjobRef,
        horizon: Time,
    ) -> SoaServiceBounds {
        let peers = sys.subjobs_on(p);
        let window = Time(60);
        let workloads: Vec<SoaCurve> = peers
            .iter()
            .map(|&o| {
                let mut c = SoaCurve::zero();
                sys.job(o.job)
                    .arrival
                    .arrival_curve(window)
                    .scale_into(sys.subjob(o).exec.ticks(), &mut c);
                c
            })
            .collect();
        let refs: Vec<&SoaCurve> = workloads.iter().collect();
        let ctx = IwrrPolicy
            .build_context(sys, p, &peers, &refs, horizon)
            .unwrap()
            .unwrap();
        let i = peers.iter().position(|&o| o == r).unwrap();
        let mut out = SoaServiceBounds::zeroed();
        IwrrPolicy
            .service_bounds(
                &BoundsInputs {
                    workload: &workloads[i],
                    tau: sys.subjob(r).exec,
                    weight: sys.subjob(r).weight(),
                    blocking: Time::ZERO,
                    hp_lower: &[],
                    hp_upper: &[],
                    variant: SpnpAvailability::Conservative,
                    ctx: Some(&ctx),
                    horizon,
                    processor: p,
                },
                &mut Scratch::new(),
                &mut out,
            )
            .unwrap();
        out
    }

    #[test]
    fn round_length_sums_weighted_exec() {
        let (sys, p) = two_flow_sys(2, 1);
        let peers = sys.subjobs_on(p);
        let ctx = IwrrPolicy
            .build_context(&sys, p, &peers, &[], Time(100))
            .unwrap()
            .unwrap();
        let ctx = ctx.downcast_ref::<IwrrContext>().unwrap();
        // L = 2·3 + 1·4 = 10.
        assert_eq!(ctx.round_len, 10);
    }

    #[test]
    fn bounds_are_sane_and_guarantee_progress() {
        let (sys, p) = two_flow_sys(2, 1);
        let r = SubjobRef {
            job: rta_model::JobId(0),
            index: 0,
        };
        let horizon = Time(400);
        let b = bounds_for(&sys, p, r, horizon);
        assert!(b.lower.is_nondecreasing());
        assert!(b.upper.is_nondecreasing());
        for t in 0..=horizon.ticks() {
            let t = Time(t);
            assert!(b.lower.eval(t) <= b.upper.eval(t), "ordered at {t}");
            assert!(b.lower.eval(t) >= 0);
            assert!(b.upper.eval(t) <= t.ticks());
        }
        assert_eq!(b.lower.eval(Time::ZERO), 0);
        // L = 10; a continuously-backlogged period of 2L guarantees one
        // full round: flow 1's first instance (workload jump of 3 at t=0)
        // is certainly served within 2L = 20.
        assert!(b.lower.eval(Time(20)) >= 3, "{}", b.lower.eval(Time(20)));
    }

    #[test]
    fn heavier_weight_drains_a_burst_sooner() {
        // Under sustained backlog the guarantee is governed by the
        // per-round quantum w·τ out of the round length L; a heavier flow
        // must be guaranteed to drain a burst no later than a light one.
        // (Pointwise domination does NOT hold: a heavier self-weight also
        // lengthens L, delaying the earliest guaranteed service.)
        fn burst_sys(w1: u32) -> (TaskSystem, ProcessorId) {
            let mut b = SystemBuilder::new();
            let p = b.add_processor("P1", SchedulerKind::Iwrr);
            let t1 = b.add_job(
                "T1",
                Time(400),
                ArrivalPattern::Trace(vec![Time::ZERO; 8]),
                vec![(p, Time(3))],
            );
            b.add_job(
                "T2",
                Time(400),
                ArrivalPattern::Periodic {
                    period: Time(20),
                    offset: Time::ZERO,
                },
                vec![(p, Time(4))],
            );
            b.set_weight(SubjobRef { job: t1, index: 0 }, w1);
            (b.build().unwrap(), p)
        }
        let r = SubjobRef {
            job: rta_model::JobId(0),
            index: 0,
        };
        let horizon = Time(400);
        let total = 8 * 3;
        let drain = |sys: &TaskSystem, p| {
            let b = bounds_for(sys, p, r, horizon);
            (0..=horizon.ticks())
                .find(|&t| b.lower.eval(Time(t)) >= total)
                .expect("burst drains within the horizon")
        };
        let (light_sys, p) = burst_sys(1);
        let (heavy_sys, _) = burst_sys(3);
        let light = drain(&light_sys, p);
        let heavy = drain(&heavy_sys, p);
        assert!(heavy < light, "heavy {heavy} !< light {light}");
    }

    #[test]
    fn sim_cursor_interleaves_by_weight() {
        let (sys, p) = two_flow_sys(2, 1);
        let mut sched = IwrrPolicy.sim_scheduler(&sys, p);
        let f1 = SubjobRef {
            job: rta_model::JobId(0),
            index: 0,
        };
        let f2 = SubjobRef {
            job: rta_model::JobId(1),
            index: 0,
        };
        let mk = |subjob, seq| ReadyInstance {
            subjob,
            hop_release: Time::ZERO,
            seq,
            prio: u32::MAX,
        };
        // Both flows deeply backlogged: a full round serves f1, f2 (cycle
        // 1), then f1 again (cycle 2, f2's weight exhausted), repeating.
        let views = vec![mk(f1, 0), mk(f1, 1), mk(f1, 2), mk(f2, 3), mk(f2, 4)];
        let ready = ReadySet::new(&views);
        let order: Vec<SubjobRef> = (0..3)
            .map(|_| {
                let i = sched.pick_idx(&sys, &ready).unwrap();
                ready[i].subjob
            })
            .collect();
        assert_eq!(order, vec![f1, f2, f1]);
        // Next round starts over at cycle 1.
        let i = sched.pick_idx(&sys, &ready).unwrap();
        assert_eq!(ready[i].subjob, f1);
        let i = sched.pick_idx(&sys, &ready).unwrap();
        assert_eq!(ready[i].subjob, f2);
    }

    #[test]
    fn sim_cursor_skips_empty_queues() {
        let (sys, p) = two_flow_sys(2, 1);
        let mut sched = IwrrPolicy.sim_scheduler(&sys, p);
        let f2 = SubjobRef {
            job: rta_model::JobId(1),
            index: 0,
        };
        // Only flow 2 backlogged: every pick must serve it immediately.
        let views = vec![ReadyInstance {
            subjob: f2,
            hop_release: Time(5),
            seq: 9,
            prio: u32::MAX,
        }];
        let ready = ReadySet::new(&views);
        for _ in 0..4 {
            assert_eq!(sched.pick_idx(&sys, &ready), Some(0));
        }
    }
}
