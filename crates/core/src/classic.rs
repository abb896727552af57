//! Classical uniprocessor schedulability results. Their role is that of
//! independent test oracles: the references the `holistic` unit tests and
//! `tests/cross_method.rs` compare the paper's analyses against. No
//! production path calls them.
//!
//! * [`rta_uniprocessor`] — the exact response-time analysis of Joseph &
//!   Pandya (1986) / Audsley et al. for synchronous periodic tasks under
//!   preemptive static priorities, extended to multiple pending instances
//!   (Lehoczky's arbitrary-deadline busy-period scan). On a single SPP
//!   processor it must agree with the paper's exact analysis and with the
//!   holistic baseline.
//! * [`liu_layland_bound`] — the Liu & Layland (1973) utilization bound
//!   `n(2^{1/n} − 1)`, the classical sufficient test, and [`utilization`],
//!   which `tests/cross_method.rs` uses to pick its task sets.

use rta_curves::Time;

/// One synchronous periodic task on a uniprocessor, listed in **descending
/// priority order** (index 0 = highest).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PeriodicTask {
    /// Worst-case execution time.
    pub exec: Time,
    /// Period (= minimum inter-arrival time).
    pub period: Time,
}

/// Exact worst-case response time of task `i` (0-based, priorities descend
/// with the index) under preemptive static-priority scheduling with
/// synchronous release, or `None` if the iteration exceeds `limit`
/// (overload).
///
/// Handles response times beyond the period via the standard busy-period
/// scan over pending instances `q = 0, 1, …`:
/// `w_q = (q+1)·C_i + Σ_hp ⌈w_q/T_h⌉·C_h`, `R = max_q (w_q − q·T_i)`,
/// stopping at the first `q` with `w_q ≤ (q+1)·T_i`.
pub fn rta_uniprocessor(tasks: &[PeriodicTask], i: usize, limit: Time) -> Option<Time> {
    let hp = &tasks[..i];
    let t_i = tasks[i].period;
    let c_i = tasks[i].exec;
    let mut worst = Time::ZERO;
    let mut q: i64 = 0;
    loop {
        // Fixed-point iteration for the q-instance busy window.
        let mut w = c_i * (q + 1);
        loop {
            let mut next = c_i * (q + 1);
            for h in hp {
                let ceil = (w.ticks() + h.period.ticks() - 1).div_euclid(h.period.ticks());
                next += h.exec * ceil;
            }
            if next == w {
                break;
            }
            w = next;
            if w > limit {
                return None;
            }
        }
        worst = worst.max(w - t_i * q);
        if w <= t_i * (q + 1) {
            return Some(worst);
        }
        q += 1;
    }
}

/// The Liu & Layland utilization bound for `n` tasks: a synchronous
/// periodic task set with `Σ C/T` at most this value is schedulable under
/// rate-monotonic priorities.
pub fn liu_layland_bound(n: usize) -> f64 {
    assert!(n >= 1);
    let n = n as f64;
    n * (2f64.powf(1.0 / n) - 1.0)
}

/// Total utilization `Σ C/T` of a task set.
pub fn utilization(tasks: &[PeriodicTask]) -> f64 {
    tasks
        .iter()
        .map(|t| t.exec.ticks() as f64 / t.period.ticks() as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(c: i64, p: i64) -> PeriodicTask {
        PeriodicTask {
            exec: Time(c),
            period: Time(p),
        }
    }

    #[test]
    fn textbook_example() {
        // T1 (1,4), T2 (2,6), T3 (3,13) — classic RM example.
        let ts = [t(1, 4), t(2, 6), t(3, 13)];
        assert_eq!(rta_uniprocessor(&ts, 0, Time(1000)), Some(Time(1)));
        assert_eq!(rta_uniprocessor(&ts, 1, Time(1000)), Some(Time(3)));
        // T3: w = 3 + ⌈w/4⌉ + 2⌈w/6⌉ → 3,6,8,9,10 → R = 10.
        assert_eq!(rta_uniprocessor(&ts, 2, Time(1000)), Some(Time(10)));
    }

    #[test]
    fn full_utilization_pair() {
        // T1 (3,5), T2 (4,10) at U = 1.0: T2 fills the leftover bandwidth
        // exactly, completing at 10.
        let ts = [t(3, 5), t(4, 10)];
        assert_eq!(rta_uniprocessor(&ts, 1, Time(1000)), Some(Time(10)));
    }

    #[test]
    fn response_beyond_period_uses_busy_window() {
        // Lehoczky's arbitrary-deadline example: T1 (26,70), T2 (62,100).
        // The level-2 busy period spans 7 instances of T2; the worst
        // response (118) occurs at a later instance, not the first.
        let ts = [t(26, 70), t(62, 100)];
        assert_eq!(rta_uniprocessor(&ts, 1, Time(10_000)), Some(Time(118)));
    }

    #[test]
    fn overload_returns_none() {
        let ts = [t(4, 5), t(4, 5)];
        assert_eq!(rta_uniprocessor(&ts, 1, Time(10_000)), None);
    }

    #[test]
    fn liu_layland_values() {
        assert!((liu_layland_bound(1) - 1.0).abs() < 1e-12);
        assert!((liu_layland_bound(2) - 0.8284).abs() < 1e-3);
        // n → ∞ limit is ln 2.
        assert!((liu_layland_bound(10_000) - std::f64::consts::LN_2).abs() < 1e-4);
    }

    #[test]
    fn utilization_sum() {
        let ts = [t(1, 4), t(2, 8)];
        assert!((utilization(&ts) - 0.5).abs() < 1e-12);
    }
}
