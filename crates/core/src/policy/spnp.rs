//! Non-preemptive static priorities behind the policy seam.
//!
//! Runs the SoA chain [`crate::spnp::spnp_bounds`] (Theorems 5/6) with the
//! Eq. 15 blocking term supplied by [`ServicePolicy::blocking`].

use super::spp::PrioritySim;
use super::{BoundsInputs, PeerInputs, ServicePolicy, SimScheduler};
use crate::error::AnalysisError;
use crate::spnp::{spnp_bounds, SoaServiceBounds};
use rta_curves::{Scratch, Time};
use rta_model::{ProcessorId, SchedulerKind, SubjobRef, TaskSystem};

/// Static-priority non-preemptive (Eq. 15, Theorems 5/6).
pub struct SpnpPolicy;

impl ServicePolicy for SpnpPolicy {
    fn kind(&self) -> SchedulerKind {
        SchedulerKind::Spnp
    }

    fn peer_inputs(&self) -> PeerInputs {
        PeerInputs::HigherPriorityServices
    }

    fn blocking(&self, sys: &TaskSystem, r: SubjobRef) -> Time {
        sys.blocking_time(r)
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

    fn sim_scheduler(&self, _sys: &TaskSystem, _p: ProcessorId) -> Box<dyn SimScheduler> {
        Box::new(PrioritySim { preemptive: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::{ArrivalPattern, SystemBuilder};

    #[test]
    fn blocking_term_is_the_eq_15_maximum() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spnp);
        let t1 = b.add_job(
            "T1",
            Time(20),
            ArrivalPattern::Periodic {
                period: Time(20),
                offset: Time::ZERO,
            },
            vec![(p, Time(2))],
        );
        let t2 = b.add_job(
            "T2",
            Time(40),
            ArrivalPattern::Periodic {
                period: Time(40),
                offset: Time::ZERO,
            },
            vec![(p, Time(9))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let hi = SubjobRef { job: t1, index: 0 };
        let lo = SubjobRef { job: t2, index: 0 };
        assert_eq!(SpnpPolicy.blocking(&sys, hi), Time(9));
        assert_eq!(SpnpPolicy.blocking(&sys, lo), Time::ZERO);
    }
}
