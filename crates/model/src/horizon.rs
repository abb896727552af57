//! Analysis-horizon selection.
//!
//! The theorems quantify over every instance `m ≥ 0`; a computation must cut
//! off somewhere. The horizon policy used throughout this workspace:
//!
//! 1. pick an **arrival window** `W` — instances released in `[0, W]` are
//!    analyzed;
//! 2. run the analysis on `[0, H]` with `H = W + max deadline + pad`.
//!
//! Every instance released within the window must either complete by its
//! absolute deadline (which is `≤ H`) or miss it — so the admission decision
//! for the considered instances is exact regardless of the cutoff, and an
//! instance whose completion cannot be proven inside `H` is (conservatively)
//! a deadline miss.
//!
//! For synchronous periodic job sets the critical instant is at time zero,
//! so a window of a few periods captures the worst case; for the paper's
//! bursty streams (Eq. 27) the dense burst — and hence the worst response —
//! is at the very beginning.

use crate::system::{ModelError, TaskSystem};
use rta_curves::Time;

/// Default number of longest-periods an arrival window spans.
pub const DEFAULT_WINDOW_CYCLES: i64 = 4;

/// An arrival window covering `cycles` multiples of the longest nominal
/// period in the system (falling back to the largest deadline for patterns
/// without a period, e.g. traces), or [`ModelError::TickOverflow`] when it
/// does not fit in a tick.
pub fn default_arrival_window(sys: &TaskSystem, cycles: i64) -> Result<Time, ModelError> {
    assert!(cycles >= 1);
    let tpu = sys.ticks_per_unit();
    let max_period = sys
        .jobs()
        .iter()
        .filter_map(|j| j.arrival.nominal_period(tpu))
        .max();
    let max_deadline = sys
        .jobs()
        .iter()
        .map(|j| j.deadline)
        .max()
        .unwrap_or(Time::ONE);
    let base = max_period.unwrap_or(max_deadline);
    base.ticks()
        .checked_mul(cycles)
        .map(Time)
        .ok_or(ModelError::TickOverflow {
            quantity: "arrival window",
        })
}

/// The analysis horizon for a given arrival window: the window plus the
/// largest deadline plus one full round of everyone's execution time (a
/// generous drain pad — completions relevant to the admission decision all
/// occur before `window + max deadline`), or [`ModelError::TickOverflow`]
/// when it does not fit in a tick.
pub fn analysis_horizon(sys: &TaskSystem, window: Time) -> Result<Time, ModelError> {
    let max_deadline = sys
        .jobs()
        .iter()
        .map(|j| j.deadline)
        .max()
        .unwrap_or(Time::ZERO);
    let mut execs = sys.jobs().iter().flat_map(|j| &j.subjobs);
    window
        .ticks()
        .checked_add(max_deadline.ticks())
        .and_then(|h| execs.try_fold(h, |h, s| h.checked_add(s.exec.ticks())))
        .map(Time)
        .ok_or(ModelError::TickOverflow {
            quantity: "analysis horizon",
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalPattern;
    use crate::system::{SchedulerKind, SystemBuilder};

    fn sys() -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(80),
            ArrivalPattern::Periodic {
                period: Time(30),
                offset: Time::ZERO,
            },
            vec![(p, Time(5))],
        );
        b.add_job(
            "T2",
            Time(40),
            ArrivalPattern::Periodic {
                period: Time(50),
                offset: Time::ZERO,
            },
            vec![(p, Time(10))],
        );
        b.build().unwrap()
    }

    #[test]
    fn window_spans_longest_period() {
        assert_eq!(default_arrival_window(&sys(), 4), Ok(Time(200)));
        assert_eq!(default_arrival_window(&sys(), 1), Ok(Time(50)));
    }

    #[test]
    fn horizon_covers_window_plus_deadline_plus_drain() {
        let s = sys();
        let h = analysis_horizon(&s, Time(200));
        assert_eq!(h, Ok(Time(200 + 80 + 15)));
    }

    #[test]
    fn trace_only_system_falls_back_to_deadline() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job(
            "T1",
            Time(70),
            ArrivalPattern::Trace(vec![Time(0), Time(5)]),
            vec![(p, Time(3))],
        );
        let s = b.build().unwrap();
        assert_eq!(default_arrival_window(&s, 2), Ok(Time(140)));
    }

    /// A period of 2⁶¹ ticks: four of them wrap an `i64`, and a window
    /// that fits still leaves no room for the deadline and the executions.
    #[test]
    fn window_and_horizon_overflow_is_an_error_not_a_wrap() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P", SchedulerKind::Iwrr);
        b.add_job(
            "a",
            Time(100),
            ArrivalPattern::Periodic {
                period: Time(1 << 61),
                offset: Time::ZERO,
            },
            vec![(p, Time(5))],
        );
        let s = b.build().unwrap();
        let overflow = |quantity| Err(ModelError::TickOverflow { quantity });
        assert_eq!(default_arrival_window(&s, 4), overflow("arrival window"));
        assert_eq!(default_arrival_window(&s, 3), Ok(Time(3 << 61)));
        assert_eq!(
            analysis_horizon(&s, Time(3 << 61)),
            Ok(Time((3 << 61) + 105))
        );
        assert_eq!(
            analysis_horizon(&s, Time(i64::MAX - 104)),
            overflow("analysis horizon")
        );
    }
}
