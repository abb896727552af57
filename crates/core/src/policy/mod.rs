//! The policy-kernel layer: one trait per scheduling discipline.
//!
//! The paper derives per-policy service functions (Theorem 3 for SPP,
//! Eq. 15/Theorems 5–6 for SPNP, Theorems 7–9 for FCFS) that all feed the
//! *same* Theorem-1/Theorem-4 response-time machinery. This module is the
//! seam between the curve algebra ([`rta_curves`]) and the drivers
//! ([`crate::bounds`], [`crate::fixpoint`], [`crate::exact`],
//! [`crate::session`], `rta-sim`): a [`ServicePolicy`] answers, for one
//! subjob, "given peer workload curves, priority context, and a horizon,
//! what service is guaranteed/possible, and what blocks it?".
//!
//! ## Contract (DESIGN.md §4c)
//!
//! Every implementation must produce service curves that are
//!
//! * **monotone** — nondecreasing (served work never un-happens);
//! * **causal** — `S(t) ≤ min(t, c̄(t))`: a subjob cannot be served faster
//!   than real time or beyond its demand;
//! * **zero at the origin** — `S(0) = 0` on the left-limit lattice;
//! * **ordered** — `S̲(t) ≤ S̄(t)` for all `t`.
//!
//! The property suite in `crates/core/tests/policy_conformance.rs` checks
//! these obligations for every registered policy on randomized workloads.
//!
//! ## Adding a policy
//!
//! 1. Add a [`SchedulerKind`] variant in `rta-model` (plus any per-subjob
//!    parameters, e.g. weights).
//! 2. Write a submodule here implementing [`ServicePolicy`] (and a
//!    [`SimScheduler`] for the event engine). Per-processor state derived
//!    from peer workloads lives in a [`PolicyContext`] built by
//!    [`ServicePolicy::build_context`].
//! 3. Register it in [`policy_for`] and [`all_policies`].
//!
//! No driver edits are required: the drivers consult
//! [`ServicePolicy::peer_inputs`] for dependency wiring and call
//! [`ServicePolicy::service_bounds`] for the math. The IWRR policy
//! ([`iwrr`]) was landed exactly this way.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use crate::config::SpnpAvailability;
use crate::error::AnalysisError;
use crate::spnp::{ServiceBounds, SoaServiceBounds};
use rta_curves::{Curve, Scratch, SoaCurve, Time};
use rta_model::{ProcessorId, SchedulerKind, SubjobRef, TaskSystem};

pub mod fcfs;
pub mod iwrr;
pub mod spnp;
pub mod spp;

/// Which peer curves a policy's bounds consume each evaluation — the
/// information drivers need to wire dependencies (and staleness tracking)
/// without knowing the discipline.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum PeerInputs {
    /// Service bounds of strictly higher-priority subjobs on the same
    /// processor (the summations of Theorems 3, 5 and 6).
    HigherPriorityServices,
    /// Workload curves of *every* subjob sharing the processor, consumed
    /// once through [`ServicePolicy::build_context`] (Theorem 7's total
    /// workload `G`; IWRR's round length).
    SharedWorkloads,
}

/// Opaque per-processor state a policy derives from peer workload curves —
/// e.g. the FCFS utilization cache. Policies downcast their own context;
/// drivers only store and pass it, so adding a policy never touches them.
pub struct PolicyContext(Box<dyn Any + Send + Sync>);

impl PolicyContext {
    /// Wrap a policy-owned context value.
    pub fn new<T: Any + Send + Sync>(value: T) -> PolicyContext {
        PolicyContext(Box::new(value))
    }

    /// Downcast to the concrete context type; `None` when the context
    /// belongs to a different policy.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for PolicyContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PolicyContext(..)")
    }
}

/// All inputs of one [`ServicePolicy::service_bounds`] evaluation.
///
/// Drivers fill every field they can; fields a policy does not consume
/// (e.g. `hp_lower` for FCFS, `ctx` for SPP) are simply ignored.
pub struct BoundsInputs<'a> {
    /// The subjob's (upper-bounded) workload `c̄ = f̄_arr · τ`.
    pub workload: &'a Curve,
    /// The subjob's execution time `τ`.
    pub tau: Time,
    /// The subjob's round-robin weight (1 unless assigned).
    pub weight: u32,
    /// The blocking term `b_{k,j}` from [`ServicePolicy::blocking`].
    pub blocking: Time,
    /// Lower service bounds of strictly higher-priority peers.
    pub hp_lower: &'a [&'a Curve],
    /// Upper service bounds of the same peers, in the same order.
    pub hp_upper: &'a [&'a Curve],
    /// Which Theorem-5 availability recursion SPNP uses.
    pub variant: SpnpAvailability,
    /// The processor context from [`ServicePolicy::build_context`], if any.
    pub ctx: Option<&'a PolicyContext>,
    /// Analysis horizon — curves are exact on `[0, horizon]`.
    pub horizon: Time,
    /// The processor this subjob executes on (for error reporting).
    pub processor: ProcessorId,
}

/// The inputs of one [`ServicePolicy::service_bounds_soa_into`]
/// evaluation — [`BoundsInputs`] with the curves in structure-of-arrays
/// layout (DESIGN.md §4g).
///
/// `workload_aos` carries the same curve as `workload` in AoS form when
/// the driver holds one: the fixpoint driver keeps both (the AoS copy is
/// built once at model ingest, so its rounds never pay a per-round
/// conversion), and the one-pass driver builds one on shared-workload
/// processors, whose contexts need it anyway. Policies falling back on
/// the AoS kernels — the default implementation — convert `workload`
/// themselves when it is `None`.
pub struct SoaBoundsInputs<'a> {
    /// The subjob's (upper-bounded) workload `c̄ = f̄_arr · τ`.
    pub workload: &'a SoaCurve,
    /// The same workload in AoS layout, when the driver holds one.
    pub workload_aos: Option<&'a Curve>,
    /// The subjob's execution time `τ`.
    pub tau: Time,
    /// The subjob's round-robin weight (1 unless assigned).
    pub weight: u32,
    /// The blocking term `b_{k,j}` from [`ServicePolicy::blocking`].
    pub blocking: Time,
    /// Lower service bounds of strictly higher-priority peers.
    pub hp_lower: &'a [&'a SoaCurve],
    /// Upper service bounds of the same peers, in the same order.
    pub hp_upper: &'a [&'a SoaCurve],
    /// Which Theorem-5 availability recursion SPNP uses.
    pub variant: SpnpAvailability,
    /// The processor context from [`ServicePolicy::build_context`], if any.
    pub ctx: Option<&'a PolicyContext>,
    /// Analysis horizon — curves are exact on `[0, horizon]`.
    pub horizon: Time,
    /// The processor this subjob executes on (for error reporting).
    pub processor: ProcessorId,
}

/// One scheduling discipline's analysis kernel plus its simulator.
///
/// Implementations are stateless singletons (per-processor state lives in
/// [`PolicyContext`]); the registry hands out `&'static` references.
pub trait ServicePolicy: Send + Sync {
    /// The model-level tag this policy implements.
    fn kind(&self) -> SchedulerKind;

    /// Which peer curves [`ServicePolicy::service_bounds`] consumes.
    fn peer_inputs(&self) -> PeerInputs;

    /// Whether the discipline preempts a running subjob for a
    /// higher-urgency arrival.
    fn preemptive(&self) -> bool {
        false
    }

    /// The blocking term `b_{k,j}` of Eq. 15 — zero unless the discipline
    /// lets lower-priority work hold the processor.
    fn blocking(&self, _sys: &TaskSystem, _r: SubjobRef) -> Time {
        Time::ZERO
    }

    /// Whether [`ServicePolicy::exact_service`] is available (Theorem 3
    /// holds only for preemptive static priorities).
    fn supports_exact(&self) -> bool {
        false
    }

    /// The *exact* service curve given exact peer services, or `None` when
    /// the discipline has no exact theory (drivers report
    /// [`AnalysisError::NotAllSpp`]).
    fn exact_service(&self, _workload: &Curve, _hp_services: &[&Curve]) -> Option<Curve> {
        None
    }

    /// Build the per-processor context from the workload curves of all
    /// subjobs sharing the processor (`peers` and `peer_workloads` are
    /// parallel slices). `Ok(None)` when the policy keeps no state.
    fn build_context(
        &self,
        _sys: &TaskSystem,
        _p: ProcessorId,
        _peers: &[SubjobRef],
        _peer_workloads: &[&Curve],
        _horizon: Time,
    ) -> Result<Option<PolicyContext>, AnalysisError> {
        Ok(None)
    }

    /// Lower/upper service bounds for one subjob — the policy kernel.
    fn service_bounds(&self, inputs: &BoundsInputs<'_>) -> Result<ServiceBounds, AnalysisError>;

    /// [`ServicePolicy::service_bounds`] writing into a caller-provided
    /// [`ServiceBounds`], drawing temporaries from `scratch` — the
    /// zero-allocation entry the fixpoint driver's warm path uses.
    ///
    /// The default delegates to the allocating kernel (correct for every
    /// policy); disciplines with hot `_into` kernels override it. Results
    /// must be bit-identical to [`ServicePolicy::service_bounds`].
    fn service_bounds_into(
        &self,
        inputs: &BoundsInputs<'_>,
        _scratch: &mut Scratch,
        out: &mut ServiceBounds,
    ) -> Result<(), AnalysisError> {
        *out = self.service_bounds(inputs)?;
        Ok(())
    }

    /// [`ServicePolicy::service_bounds_into`] with every curve in
    /// structure-of-arrays layout — the entry the SoA fixpoint rounds call
    /// (DESIGN.md §4g). Results must convert bit-identically to
    /// [`ServicePolicy::service_bounds`].
    ///
    /// The default converts at the boundary and delegates to the AoS
    /// kernel — correct for every policy, and cheap for disciplines whose
    /// bounds take no cross-round inputs (FCFS, IWRR: computed once per
    /// analysis, never re-evaluated on warm rounds). Disciplines with
    /// native SoA chains (SPP/SPNP) override it.
    fn service_bounds_soa_into(
        &self,
        inputs: &SoaBoundsInputs<'_>,
        scratch: &mut Scratch,
        out: &mut SoaServiceBounds,
    ) -> Result<(), AnalysisError> {
        let hp_lower: Vec<Curve> = inputs.hp_lower.iter().map(|c| c.to_curve()).collect();
        let hp_upper: Vec<Curve> = inputs.hp_upper.iter().map(|c| c.to_curve()).collect();
        let hp_lo_refs: Vec<&Curve> = hp_lower.iter().collect();
        let hp_up_refs: Vec<&Curve> = hp_upper.iter().collect();
        let converted;
        let workload = match inputs.workload_aos {
            Some(c) => c,
            None => {
                converted = inputs.workload.to_curve();
                &converted
            }
        };
        let aos_inputs = BoundsInputs {
            workload,
            tau: inputs.tau,
            weight: inputs.weight,
            blocking: inputs.blocking,
            hp_lower: &hp_lo_refs,
            hp_upper: &hp_up_refs,
            variant: inputs.variant,
            ctx: inputs.ctx,
            horizon: inputs.horizon,
            processor: inputs.processor,
        };
        let mut tmp = ServiceBounds {
            lower: scratch.take_curve(),
            upper: scratch.take_curve(),
        };
        let r = self.service_bounds_into(&aos_inputs, scratch, &mut tmp);
        if r.is_ok() {
            out.copy_from_bounds(&tmp);
        }
        scratch.put_curve(tmp.lower);
        scratch.put_curve(tmp.upper);
        r
    }

    /// A fresh event-engine scheduler for one processor running this
    /// discipline.
    fn sim_scheduler(&self, sys: &TaskSystem, p: ProcessorId) -> Box<dyn SimScheduler>;
}

/// The single dispatch point from model tags to policy kernels.
pub fn policy_for(kind: SchedulerKind) -> &'static dyn ServicePolicy {
    match kind {
        SchedulerKind::Spp => &spp::SppPolicy,
        SchedulerKind::Spnp => &spnp::SpnpPolicy,
        SchedulerKind::Fcfs => &fcfs::FcfsPolicy,
        SchedulerKind::Iwrr => &iwrr::IwrrPolicy,
    }
}

/// Every registered policy — the conformance suite iterates this.
pub fn all_policies() -> Vec<&'static dyn ServicePolicy> {
    vec![
        &spp::SppPolicy,
        &spnp::SpnpPolicy,
        &fcfs::FcfsPolicy,
        &iwrr::IwrrPolicy,
    ]
}

/// Per-processor policy contexts, built lazily — the single home of the
/// slot bookkeeping previously duplicated across the bounds and fixpoint
/// drivers.
#[derive(Default)]
pub struct ProcessorContexts {
    slots: HashMap<usize, Option<PolicyContext>>,
}

impl ProcessorContexts {
    /// An empty cache.
    pub fn new() -> ProcessorContexts {
        ProcessorContexts::default()
    }

    /// Build (once) and return processor `p`'s context, deriving the peer
    /// workload curves on demand via `workload_of`. Policies without
    /// per-processor state yield `None` without calling `workload_of`.
    pub fn ensure(
        &mut self,
        sys: &TaskSystem,
        p: ProcessorId,
        horizon: Time,
        workload_of: &mut dyn FnMut(SubjobRef) -> Curve,
    ) -> Result<Option<&PolicyContext>, AnalysisError> {
        if let Entry::Vacant(e) = self.slots.entry(p.0) {
            let policy = policy_for(sys.processor(p).scheduler);
            let ctx = if policy.peer_inputs() == PeerInputs::SharedWorkloads {
                let peers = sys.subjobs_on(p);
                let workloads: Vec<Curve> = peers.iter().map(|&o| workload_of(o)).collect();
                let refs: Vec<&Curve> = workloads.iter().collect();
                policy.build_context(sys, p, &peers, &refs, horizon)?
            } else {
                None
            };
            e.insert(ctx);
        }
        Ok(self.get(p))
    }

    /// The context of processor `p`, if one has been built.
    pub fn get(&self, p: ProcessorId) -> Option<&PolicyContext> {
        self.slots.get(&p.0).and_then(|c| c.as_ref())
    }

    /// Forget processor `p`'s context; the next [`ProcessorContexts::ensure`]
    /// rebuilds it.
    pub fn remove(&mut self, p: ProcessorId) {
        self.slots.remove(&p.0);
    }
}

/// A ready instance as the event engine presents it to a scheduler: the
/// subjob it instantiates, when it became ready at this hop, and a unique
/// release sequence number for deterministic tie-breaks.
#[derive(Copy, Clone, Debug)]
pub struct ReadyInstance {
    /// The subjob this instance executes.
    pub subjob: SubjobRef,
    /// When the instance was released at this hop.
    pub hop_release: Time,
    /// Global release sequence number (unique).
    pub seq: u64,
    /// The subjob's static priority rank, cached by the engine when the
    /// view is built (`u32::MAX` when the processor's policy assigns no
    /// priorities), so priority policies never chase `sys` pointers inside
    /// their selection loops.
    pub prio: u32,
}

/// One processor's ready queue as the event engine presents it for a
/// scheduling decision: a borrowed view over the engine's per-processor
/// scratch buffer, rebuilt in place before each decision. Wrapping the
/// slice (rather than passing it raw) keeps the trait contract explicit —
/// the views are valid only for the duration of one `pick_idx`/`preempts`
/// call, and no policy may retain or allocate copies of them.
#[derive(Copy, Clone, Debug)]
pub struct ReadySet<'a> {
    items: &'a [ReadyInstance],
}

impl<'a> ReadySet<'a> {
    /// Wrap the engine's scratch buffer for one decision.
    pub fn new(items: &'a [ReadyInstance]) -> ReadySet<'a> {
        ReadySet { items }
    }

    /// Number of ready instances.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the ready queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate the ready instances in queue order.
    pub fn iter(&self) -> std::slice::Iter<'a, ReadyInstance> {
        self.items.iter()
    }

    /// The underlying slice, in queue order.
    pub fn as_slice(&self) -> &'a [ReadyInstance] {
        self.items
    }
}

impl std::ops::Index<usize> for ReadySet<'_> {
    type Output = ReadyInstance;
    fn index(&self, i: usize) -> &ReadyInstance {
        &self.items[i]
    }
}

/// A scheduler's static decision shape, when it has one.
///
/// Disciplines whose dispatch is a pure argmin over the fields of
/// [`ReadyInstance`] — no internal state, no `sys` consultation — can
/// advertise that shape here, and the event engine runs the scan inline
/// instead of making two virtual calls per scheduling decision. The
/// declared shape **must** be observably identical to the scheduler's
/// `pick_idx`/`preempts` (the simulator's oracle suite pins this); when in
/// doubt, stay [`FastPath::Dynamic`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FastPath {
    /// Dispatch the minimum of `(prio, hop_release, seq)`; when
    /// `preemptive`, an arrival preempts iff its `prio` is strictly below
    /// the running instance's (SPP/SPNP).
    PrioMin {
        /// Whether a strictly higher-priority arrival preempts.
        preemptive: bool,
    },
    /// Dispatch the minimum of `(hop_release, job, seq)`; never preempts
    /// (FCFS).
    FifoMin,
    /// No static shape — the engine calls `pick_idx`/`preempts` (IWRR's
    /// round cursor).
    Dynamic,
}

/// The dispatch side of a policy: which ready instance runs next, and
/// whether an arrival preempts the running one. Stateful schedulers (IWRR's
/// round cursor) advance on each successful `pick_idx`. Both hooks operate
/// on a borrowed [`ReadySet`] so a decision never allocates.
pub trait SimScheduler: Send {
    /// Index into `ready` of the instance to dispatch, `None` when empty.
    fn pick_idx(&mut self, sys: &TaskSystem, ready: &ReadySet<'_>) -> Option<usize>;

    /// Whether any instance in `ready` preempts `running` — an
    /// exists-test over the set, with no ordering or completeness
    /// assumptions. Callers may pass any subset of the true ready set that
    /// is guaranteed to contain every instance that could preempt (the
    /// engine passes just the newly released instance when it is the only
    /// state change since the last decision).
    fn preempts(&self, _sys: &TaskSystem, _running: &ReadyInstance, _ready: &ReadySet<'_>) -> bool {
        false
    }

    /// Restore the scheduler to its start-of-run state for a new run on
    /// (possibly) a different system, returning `true` on success. A
    /// `false` return means the scheduler holds system-derived state it
    /// cannot cheaply re-derive; the caller must construct a fresh one.
    /// Stateless dispatchers return `true` and Monte-Carlo drivers then
    /// recycle the allocation across draws.
    fn reset(&mut self, _sys: &TaskSystem, _p: ProcessorId) -> bool {
        false
    }

    /// The scheduler's static decision shape (see [`FastPath`]). Must
    /// match `pick_idx`/`preempts` exactly; defaults to dynamic dispatch.
    fn fast_path(&self) -> FastPath {
        FastPath::Dynamic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_soa_path_converts_a_missing_aos_workload() {
        // Shared-workload policies run the default SoA entry; without an
        // AoS copy of the workload it must convert one itself and agree
        // with the run that was handed the copy.
        let times = [Time(0), Time(6)];
        let c = Curve::from_event_times(&times).scale(4);
        let soa = SoaCurve::from_curve(&c);
        let horizon = Time(60);
        for kind in [SchedulerKind::Fcfs, SchedulerKind::Iwrr] {
            let mut b = rta_model::SystemBuilder::new();
            let p = b.add_processor("P1", kind);
            b.add_job(
                "T1",
                Time(50),
                rta_model::ArrivalPattern::Trace(times.to_vec()),
                vec![(p, Time(4))],
            );
            let sys = b.build().unwrap();
            let policy = policy_for(kind);
            let ctx = policy
                .build_context(&sys, p, &sys.subjobs_on(p), &[&c], horizon)
                .unwrap();
            let run = |workload_aos| {
                let mut out = SoaServiceBounds::zeroed();
                policy
                    .service_bounds_soa_into(
                        &SoaBoundsInputs {
                            workload: &soa,
                            workload_aos,
                            tau: Time(4),
                            weight: 1,
                            blocking: Time::ZERO,
                            hp_lower: &[],
                            hp_upper: &[],
                            variant: SpnpAvailability::Conservative,
                            ctx: ctx.as_ref(),
                            horizon,
                            processor: p,
                        },
                        &mut Scratch::new(),
                        &mut out,
                    )
                    .unwrap();
                out
            };
            assert_eq!(run(Some(&c)), run(None), "{kind}");
        }
    }

    #[test]
    fn registry_round_trips_every_kind() {
        for kind in [
            SchedulerKind::Spp,
            SchedulerKind::Spnp,
            SchedulerKind::Fcfs,
            SchedulerKind::Iwrr,
        ] {
            assert_eq!(policy_for(kind).kind(), kind);
        }
        assert_eq!(all_policies().len(), 4);
    }

    #[test]
    fn policy_context_downcasts_its_own_type_only() {
        let ctx = PolicyContext::new(42_u64);
        assert_eq!(ctx.downcast_ref::<u64>(), Some(&42));
        assert!(ctx.downcast_ref::<i32>().is_none());
    }

    #[test]
    fn exact_support_matches_the_paper() {
        // Theorem 3 is preemptive-static-priority only.
        for p in all_policies() {
            assert_eq!(
                p.supports_exact(),
                p.kind() == SchedulerKind::Spp,
                "{}",
                p.kind()
            );
            if p.supports_exact() {
                assert!(p.preemptive());
            }
        }
    }
}
