//! Preemptive static priorities behind the policy seam.
//!
//! The bounds delegate to the SoA chain [`crate::spnp::spnp_bounds`] with a
//! zero blocking term (Theorems 5/6 degenerate to Theorem 3 with bounded
//! inputs — see the [`crate::spnp`] module docs). SPP is the one policy
//! with an exact theory; the exact driver runs Theorem 3
//! ([`crate::spp::exact_service_into`]) itself.

use super::{
    BoundsInputs, FastPath, PeerInputs, ReadyInstance, ReadySet, ServicePolicy, SimScheduler,
};
use crate::error::AnalysisError;
use crate::spnp::{spnp_bounds, SoaServiceBounds};
use rta_curves::Scratch;
use rta_model::{ProcessorId, SchedulerKind, TaskSystem};

/// Static-priority preemptive (Theorem 3).
pub struct SppPolicy;

impl ServicePolicy for SppPolicy {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Spp
    }

    fn peer_inputs(&self) -> PeerInputs {
        PeerInputs::HigherPriorityServices
    }

    fn preemptive(&self) -> bool {
        true
    }

    fn supports_exact(&self) -> bool {
        true
    }

    fn service_bounds(
        &self,
        inputs: &BoundsInputs<'_>,
        scratch: &mut Scratch,
        out: &mut SoaServiceBounds,
    ) -> Result<(), AnalysisError> {
        spnp_bounds(
            inputs.workload,
            inputs.hp_lower,
            inputs.hp_upper,
            inputs.blocking,
            inputs.variant,
            scratch,
            out,
        )
        .map_err(AnalysisError::from)
    }

    fn fast_path(&self) -> FastPath {
        FastPath::PrioMin { preemptive: true }
    }

    fn sim_scheduler(&self, _sys: &TaskSystem, _p: ProcessorId) -> Box<dyn SimScheduler> {
        Box::new(PrioritySim { preemptive: true })
    }
}

/// Dispatch by static priority; shared by SPP (preemptive) and SPNP.
/// Ties break by hop release time, then release sequence.
pub(super) struct PrioritySim {
    pub(super) preemptive: bool,
}

impl SimScheduler for PrioritySim {
    fn pick_idx(&mut self, _sys: &TaskSystem, ready: &ReadySet<'_>) -> Option<usize> {
        (0..ready.len()).min_by_key(|&i| {
            let inst = &ready[i];
            (inst.prio, inst.hop_release.ticks(), inst.seq)
        })
    }

    fn preempts(&self, _sys: &TaskSystem, running: &ReadyInstance, ready: &ReadySet<'_>) -> bool {
        if !self.preemptive {
            return false;
        }
        ready.iter().any(|c| c.prio < running.prio)
    }
}

#[cfg(test)]
mod tests {
    use super::super::policy_for;
    use super::*;
    use crate::config::SpnpAvailability;
    use rta_curves::Time;

    #[test]
    fn bounds_match_the_kernel_verbatim() {
        let c = crate::testutil::workload(&[0, 10], 4);
        let mut scratch = Scratch::new();
        let mut via_policy = SoaServiceBounds::zeroed();
        policy_for(SchedulerKind::Spp)
            .service_bounds(
                &BoundsInputs {
                    workload: &c,
                    tau: Time(4),
                    weight: 1,
                    blocking: Time::ZERO,
                    hp_lower: &[],
                    hp_upper: &[],
                    variant: SpnpAvailability::Conservative,
                    ctx: None,
                    horizon: Time(100),
                    processor: ProcessorId(0),
                },
                &mut scratch,
                &mut via_policy,
            )
            .unwrap();
        let mut direct = SoaServiceBounds::zeroed();
        spnp_bounds(
            &c,
            &[],
            &[],
            Time::ZERO,
            SpnpAvailability::Conservative,
            &mut scratch,
            &mut direct,
        )
        .unwrap();
        assert_eq!(via_policy, direct);
    }
}
