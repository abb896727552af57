//! Sensitivity analysis: how much load a system can absorb before a
//! deadline breaks.
//!
//! The admission experiments of Section 5 ask a yes/no question per system;
//! designers usually want the margin too. [`critical_scaling`] binary
//! searches the largest uniform execution-time scaling factor `λ` under
//! which the system remains schedulable — `λ > 1` means headroom, `λ < 1`
//! means the system is over-committed by that ratio.
//!
//! The bisection is driven by an [`crate::AnalysisSession`]: the scaled
//! system is written into one reusable buffer instead of cloning the
//! `TaskSystem` per step and repeated quantized probes hit the session's
//! verdict memo.

use crate::config::AnalysisConfig;
use crate::error::AnalysisError;
use crate::session::AnalysisSession;
use rta_model::TaskSystem;

pub mod region;

/// Which analysis backs the schedulability oracle.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// Exact analysis — requires an all-SPP system.
    Exact,
    /// Theorem 4 bounds — any scheduler mix.
    Bounds,
    /// Section 6 loop-tolerant fixpoint with the given round budget — any
    /// scheduler mix, including cyclic subjob graphs.
    Loops {
        /// Iteration budget handed to [`crate::fixpoint::analyze_with_loops`].
        max_rounds: usize,
    },
}

/// The largest execution-time scaling factor (within `[lo, hi]`, to
/// `iterations` bisection steps) under which the system stays schedulable.
///
/// Returns `None` if the system is unschedulable even at `lo`. The search
/// assumes monotonicity of schedulability in the scale factor, which holds
/// for the analyses here (scaling all execution times up only increases
/// every workload curve and blocking term).
pub fn critical_scaling(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    oracle: Oracle,
    iterations: u32,
) -> Result<Option<f64>, AnalysisError> {
    AnalysisSession::new(sys.clone(), cfg.clone()).critical_scaling(oracle, iterations)
}

/// Convenience: pick the oracle from the system's schedulers.
pub fn default_oracle(sys: &TaskSystem) -> Oracle {
    if sys
        .processors()
        .iter()
        .all(|p| crate::policy::policy_for(p.scheduler).supports_exact())
    {
        Oracle::Exact
    } else {
        Oracle::Bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_curves::Time;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder};

    fn sys(util_percent: i64, scheduler: SchedulerKind) -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", scheduler);
        b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Periodic {
                period: Time(100),
                offset: Time::ZERO,
            },
            vec![(p, Time(util_percent))],
        );
        let mut s = b.build().unwrap();
        assign_priorities(&mut s, PriorityPolicy::DeadlineMonotonic).unwrap();
        s
    }

    #[test]
    fn headroom_for_light_system() {
        // One job, C=25, T=D=100, alone: schedulable up to λ = 4 exactly.
        let s = sys(25, SchedulerKind::Spp);
        let lam = critical_scaling(&s, &AnalysisConfig::default(), Oracle::Exact, 24)
            .unwrap()
            .unwrap();
        assert!((lam - 4.0).abs() < 0.01, "λ = {lam}");
    }

    #[test]
    fn overcommitted_system_reports_sub_unity() {
        // C=150 > D=100 alone: needs shrinking to ≤ 100/150.
        let s = sys(150, SchedulerKind::Spp);
        let lam = critical_scaling(&s, &AnalysisConfig::default(), Oracle::Exact, 24)
            .unwrap()
            .unwrap();
        assert!(lam < 1.0 && (lam - 100.0 / 150.0).abs() < 0.01, "λ = {lam}");
    }

    #[test]
    fn bounds_oracle_for_non_spp() {
        let s = sys(25, SchedulerKind::Fcfs);
        assert_eq!(default_oracle(&s), Oracle::Bounds);
        let lam = critical_scaling(&s, &AnalysisConfig::default(), Oracle::Bounds, 20)
            .unwrap()
            .unwrap();
        // Alone on FCFS the job is just run-to-completion; headroom near 4
        // minus the Theorem 9 τ-slack.
        assert!(lam > 2.0, "λ = {lam}");
        // Exact oracle must refuse non-SPP.
        assert!(critical_scaling(&s, &AnalysisConfig::default(), Oracle::Exact, 4).is_err());
    }

    #[test]
    fn scaling_helper_clamps_and_rounds_up() {
        let s = sys(25, SchedulerKind::Spp);
        let tiny = s.with_scaled_exec(1e-9);
        assert_eq!(tiny.jobs()[0].subjobs[0].exec, Time(1));
        let up = s.with_scaled_exec(1.5);
        assert_eq!(up.jobs()[0].subjobs[0].exec, Time(38)); // ceil(37.5)
    }
}
