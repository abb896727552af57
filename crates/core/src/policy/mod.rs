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
//! ## One bounds method
//!
//! Every discipline answers the bounds question through one method,
//! [`ServicePolicy::service_bounds`]: [`BoundsInputs`] in, with the curves
//! in structure-of-arrays layout, [`SoaServiceBounds`] out, temporaries
//! drawn from a [`Scratch`]. Both drivers call it and nothing else. SPP and
//! SPNP run the SoA chain ([`crate::spnp::spnp_bounds`]), FCFS its
//! Theorem 8/9 frontiers ([`crate::fcfs::FcfsProcessor`]) and IWRR its
//! round-robin recurrence ([`rta_curves::iwrr_bounds_into`]), all on the
//! same layout: no policy converts curves.
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
//!    [`SimScheduler`] for the legacy simulator). Per-processor state derived
//!    from peer workloads lives in a [`PolicyContext`] built by
//!    [`ServicePolicy::build_context`]. Kernels compute on
//!    [`SoaCurve`]s with temporaries from the [`Scratch`].
//! 3. Register it in [`policy_for`] and [`all_policies`].
//!
//! No analysis driver edits are required: the drivers consult
//! [`ServicePolicy::peer_inputs`] for dependency wiring and call
//! [`ServicePolicy::service_bounds`] for the math. The event engine in
//! `rta-sim` runs a policy's [`ServicePolicy::fast_path`] inline; a
//! discipline whose dispatch none of the [`FastPath`] shapes describes
//! needs a new shape there.

use std::any::Any;

use crate::config::SpnpAvailability;
use crate::error::AnalysisError;
use crate::spnp::SoaServiceBounds;
use rta_curves::{Scratch, SoaCurve, Time};
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

    /// Mutable [`PolicyContext::downcast_ref`], for a policy rebuilding
    /// its context in place.
    pub fn downcast_mut<T: Any>(&mut self) -> Option<&mut T> {
        self.0.downcast_mut::<T>()
    }
}

impl std::fmt::Debug for PolicyContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PolicyContext(..)")
    }
}

/// All inputs of one [`ServicePolicy::service_bounds`] evaluation, with the
/// curves in structure-of-arrays layout (DESIGN.md §4g).
///
/// Drivers fill every field they can; fields a policy does not consume
/// (e.g. `hp_lower` for FCFS, `ctx` for SPP) are simply ignored.
pub struct BoundsInputs<'a> {
    /// The subjob's (upper-bounded) workload `c̄ = f̄_arr · τ`.
    pub workload: &'a SoaCurve,
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

impl BoundsInputs<'_> {
    /// The processor context as the policy's own type `T`, or
    /// [`AnalysisError::MissingPolicyContext`] when the driver supplied
    /// none (or another policy's).
    pub(crate) fn context<T: Any>(&self) -> Result<&T, AnalysisError> {
        self.ctx
            .and_then(|c| c.downcast_ref::<T>())
            .ok_or(AnalysisError::MissingPolicyContext {
                processor: self.processor,
            })
    }
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

    /// Whether the discipline has an exact theory: Theorem 3 holds only for
    /// preemptive static priorities, and the exact driver
    /// ([`crate::exact`]) computes it with [`crate::spp::exact_service_into`]
    /// once every processor passes this check (otherwise it reports
    /// [`AnalysisError::NotAllSpp`]).
    fn supports_exact(&self) -> bool {
        false
    }

    /// Build the per-processor context from the workload curves of all
    /// subjobs sharing the processor (`peers` and `peer_workloads` are
    /// parallel slices). `Ok(None)` when the policy keeps no state.
    fn build_context(
        &self,
        _sys: &TaskSystem,
        _p: ProcessorId,
        _peers: &[SubjobRef],
        _peer_workloads: &[&SoaCurve],
        _horizon: Time,
    ) -> Result<Option<PolicyContext>, AnalysisError> {
        Ok(None)
    }

    /// [`ServicePolicy::build_context`] into `slot`, which holds processor
    /// `p`'s context from an earlier build (or `None`). The default builds
    /// afresh; a policy whose context owns curves rebuilds it in their
    /// storage, so a warm driver pass allocates no new context.
    fn rebuild_context(
        &self,
        sys: &TaskSystem,
        p: ProcessorId,
        peers: &[SubjobRef],
        peer_workloads: &[&SoaCurve],
        horizon: Time,
        slot: &mut Option<PolicyContext>,
    ) -> Result<(), AnalysisError> {
        *slot = self.build_context(sys, p, peers, peer_workloads, horizon)?;
        Ok(())
    }

    /// Lower/upper service bounds for one subjob — the policy kernel —
    /// written into `out`, with temporaries drawn from `scratch`. The one
    /// bounds entry both drivers call.
    fn service_bounds(
        &self,
        inputs: &BoundsInputs<'_>,
        scratch: &mut Scratch,
        out: &mut SoaServiceBounds,
    ) -> Result<(), AnalysisError>;

    /// The dispatch shape the event engine runs inline for this
    /// discipline. It must decide exactly as
    /// [`ServicePolicy::sim_scheduler`] does.
    fn fast_path(&self) -> FastPath;

    /// A fresh scheduler for one processor running this discipline, for
    /// the legacy simulator — the independent spec the event engine is
    /// checked against.
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
/// slot bookkeeping of the bounds and fixpoint drivers. A context that is
/// dropped ([`ProcessorContexts::remove`], `ProcessorContexts::clear`)
/// keeps its storage, and the next [`ProcessorContexts::ensure`] rebuilds
/// it there through [`ServicePolicy::rebuild_context`].
#[derive(Default)]
pub struct ProcessorContexts {
    /// Per processor id: whether the context is current, and the context
    /// of its latest build.
    slots: Vec<(bool, Option<PolicyContext>)>,
}

impl ProcessorContexts {
    /// An empty cache.
    pub fn new() -> ProcessorContexts {
        ProcessorContexts::default()
    }

    /// Build (once) and return processor `p`'s context from the peer
    /// workload curves `workload_of` lends out of the driver's workspace.
    /// Policies without per-processor state yield `None` without calling
    /// `workload_of`.
    pub fn ensure<'w>(
        &mut self,
        sys: &TaskSystem,
        p: ProcessorId,
        horizon: Time,
        workload_of: &dyn Fn(SubjobRef) -> &'w SoaCurve,
    ) -> Result<Option<&PolicyContext>, AnalysisError> {
        if self.slots.len() <= p.0 {
            self.slots.resize_with(p.0 + 1, || (false, None));
        }
        let (current, ctx) = &mut self.slots[p.0];
        if !*current {
            let policy = policy_for(sys.processor(p).scheduler);
            if policy.peer_inputs() == PeerInputs::SharedWorkloads {
                let peers = sys.subjobs_on(p);
                let workloads: Vec<&SoaCurve> = peers.iter().map(|&o| workload_of(o)).collect();
                policy.rebuild_context(sys, p, &peers, &workloads, horizon, ctx)?;
            } else {
                *ctx = None;
            }
            *current = true;
        }
        Ok(ctx.as_ref())
    }

    /// Whether processor `p`'s context has been built (it may be `None`).
    pub(crate) fn contains(&self, p: ProcessorId) -> bool {
        self.slots.get(p.0).is_some_and(|s| s.0)
    }

    /// The context of processor `p`, if one has been built.
    pub fn get(&self, p: ProcessorId) -> Option<&PolicyContext> {
        self.slots
            .get(p.0)
            .filter(|s| s.0)
            .and_then(|s| s.1.as_ref())
    }

    /// Forget processor `p`'s context; the next [`ProcessorContexts::ensure`]
    /// rebuilds it.
    pub fn remove(&mut self, p: ProcessorId) {
        if let Some(s) = self.slots.get_mut(p.0) {
            s.0 = false;
        }
    }

    /// Forget every processor's context.
    pub(crate) fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| s.0 = false);
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

/// A policy's dispatch shape in the event engine.
///
/// Every discipline dispatches by one of these shapes, and the event
/// engine runs the shape inline instead of calling into the policy per
/// decision. The declared shape **must** be observably identical to the
/// policy's [`SimScheduler`] (the simulator's oracle suite pins this).
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
    /// Interleaved weighted round-robin; never preempts (IWRR). Cycle
    /// `c = 1..=w_max` of a round visits the flows in [`TaskSystem::subjobs_on`]
    /// order and serves those with `w ≥ c`. A dispatch takes the first
    /// visit from a cursor whose flow has a ready instance, serves its
    /// earliest `(hop_release, seq)`, and moves the cursor past the visit;
    /// the cursor starts at the first flow of cycle 1.
    RoundRobin,
}

/// The dispatch side of a policy in the legacy simulator: which ready
/// instance runs next, and whether an arrival preempts the running one.
/// Stateful schedulers (IWRR's round cursor) advance on each successful
/// `pick_idx`. Both hooks operate on a borrowed [`ReadySet`] so a decision
/// never allocates.
pub trait SimScheduler: Send {
    /// Index into `ready` of the instance to dispatch, `None` when empty.
    fn pick_idx(&mut self, sys: &TaskSystem, ready: &ReadySet<'_>) -> Option<usize>;

    /// Whether any instance in `ready` preempts `running` — an
    /// exists-test over the set, with no ordering or completeness
    /// assumptions.
    fn preempts(&self, _sys: &TaskSystem, _running: &ReadyInstance, _ready: &ReadySet<'_>) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
