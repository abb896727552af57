//! First-come-first-served behind the policy seam.
//!
//! The per-processor state lives in a [`crate::fcfs::FcfsProcessor`]
//! wrapped in a [`PolicyContext`]: the total workload `G`, Theorem 7's
//! utilization `U(0) = 0, U(t + 1) = min(U(t) + 1, G(t))`, and the
//! Theorem 8/9 serving frontiers `v_k(t) = min { s ≤ H : G(s) ≥ U(t) + k }`
//! (`H + 1` when there is none, `k = 1` and `k = 0`), all from one pass
//! over `G`. A warm driver pass rebuilds a slot that already holds an
//! `FcfsProcessor` in its storage. The Theorem 8/9 bounds delegate to
//! [`crate::fcfs::FcfsProcessor::service_bounds`].

use super::{
    BoundsInputs, FastPath, PeerInputs, PolicyContext, ReadySet, ServicePolicy, SimScheduler,
};
use crate::error::AnalysisError;
use crate::fcfs::FcfsProcessor;
use crate::spnp::SoaServiceBounds;
use rta_curves::{Scratch, SoaCurve, Time};
use rta_model::{ProcessorId, SchedulerKind, SubjobRef, TaskSystem};

/// First-come-first-served (Theorems 7–9).
pub struct FcfsPolicy;

impl ServicePolicy for FcfsPolicy {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Fcfs
    }

    fn peer_inputs(&self) -> PeerInputs {
        PeerInputs::SharedWorkloads
    }

    fn build_context(
        &self,
        _sys: &TaskSystem,
        _p: ProcessorId,
        _peers: &[SubjobRef],
        peer_workloads: &[&SoaCurve],
        horizon: Time,
    ) -> Result<Option<PolicyContext>, AnalysisError> {
        let ctx = FcfsProcessor::new(peer_workloads, horizon)?;
        Ok(Some(PolicyContext::new(ctx)))
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
        match slot
            .as_mut()
            .and_then(|c| c.downcast_mut::<FcfsProcessor>())
        {
            Some(ctx) => ctx.rebuild(peer_workloads, horizon)?,
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
        let ctx = inputs.context::<FcfsProcessor>()?;
        ctx.service_bounds(inputs.workload, inputs.tau, scratch, out)?;
        Ok(())
    }

    fn fast_path(&self) -> FastPath {
        FastPath::FifoMin
    }

    fn sim_scheduler(&self, _sys: &TaskSystem, _p: ProcessorId) -> Box<dyn SimScheduler> {
        Box::new(FcfsSim)
    }
}

/// Dispatch in hop-release order; ties break by job index, then sequence.
struct FcfsSim;

impl SimScheduler for FcfsSim {
    fn pick_idx(&mut self, _sys: &TaskSystem, ready: &ReadySet<'_>) -> Option<usize> {
        (0..ready.len()).min_by_key(|&i| {
            let inst = &ready[i];
            (inst.hop_release.ticks(), inst.subjob.job.0 as i64, inst.seq)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpnpAvailability;

    fn workload(at: i64) -> SoaCurve {
        crate::testutil::workload(&[at], 4)
    }

    fn bounds_via_policy(
        workload: &SoaCurve,
        ctx: Option<&PolicyContext>,
        processor: ProcessorId,
    ) -> Result<SoaServiceBounds, AnalysisError> {
        let mut out = SoaServiceBounds::zeroed();
        FcfsPolicy.service_bounds(
            &BoundsInputs {
                workload,
                tau: Time(4),
                weight: 1,
                blocking: Time::ZERO,
                hp_lower: &[],
                hp_upper: &[],
                variant: SpnpAvailability::Conservative,
                ctx,
                horizon: Time(50),
                processor,
            },
            &mut Scratch::new(),
            &mut out,
        )?;
        Ok(out)
    }

    #[test]
    fn missing_context_is_an_honest_error() {
        let err = bounds_via_policy(&workload(0), None, ProcessorId(7)).unwrap_err();
        assert!(matches!(
            err,
            AnalysisError::MissingPolicyContext { processor } if processor == ProcessorId(7)
        ));
    }

    #[test]
    fn bounds_match_the_kernel_verbatim() {
        let (ca, cb) = (workload(0), workload(2));
        let horizon = Time(50);
        let direct_ctx = FcfsProcessor::new(&[&ca, &cb], horizon).unwrap();
        let mut direct = SoaServiceBounds::zeroed();
        direct_ctx
            .service_bounds(&ca, Time(4), &mut Scratch::new(), &mut direct)
            .unwrap();

        let ctx = PolicyContext::new(FcfsProcessor::new(&[&ca, &cb], horizon).unwrap());
        let via_policy = bounds_via_policy(&ca, Some(&ctx), ProcessorId(0)).unwrap();
        assert_eq!(via_policy, direct);
    }
}
