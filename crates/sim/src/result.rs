//! Simulation results and observed-curve reconstruction.
//!
//! The hot path records completion times only. Service intervals and
//! per-hop trace records — everything needed to *reconstruct observed
//! curves* rather than check response times — sit behind the `trace`
//! feature so throughput runs pay nothing for them.

use rta_curves::Time;
use rta_model::JobId;

#[cfg(feature = "trace")]
use rta_curves::SoaCurve;
#[cfg(feature = "trace")]
use rta_model::SubjobRef;
#[cfg(feature = "trace")]
use std::collections::HashMap;

/// One completed hop of one instance (`trace` feature): when it was
/// released at the hop, when it first got the processor, and when it
/// finished. Records appear in completion order.
#[cfg(feature = "trace")]
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct HopRecord {
    /// The job the instance belongs to.
    pub job: JobId,
    /// 1-based instance index.
    pub m: u32,
    /// 0-based hop (subjob index).
    pub hop: u32,
    /// Release time at this hop.
    pub release: Time,
    /// First dispatch time at this hop.
    pub start: Time,
    /// Completion time of this hop.
    pub finish: Time,
}

/// Outcome of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Release time of each analyzed instance, per job: `releases[k][m-1]`.
    pub releases: Vec<Vec<Time>>,
    /// Per-hop completion times: `hop_completions[k][m-1][j]`; `None` when
    /// the hop did not complete before the simulation horizon.
    pub hop_completions: Vec<Vec<Vec<Option<Time>>>>,
    /// Serving intervals `(from, to)` per subjob, in time order.
    #[cfg(feature = "trace")]
    pub service_intervals: HashMap<SubjobRef, Vec<(Time, Time)>>,
    /// Per-hop release/start/finish records, in completion order.
    #[cfg(feature = "trace")]
    pub hop_records: Vec<HopRecord>,
    /// The simulation horizon that was used.
    pub horizon: Time,
}

impl Default for SimResult {
    /// An empty result, ready to be filled by
    /// [`crate::SimEngine::simulate_into`].
    fn default() -> SimResult {
        SimResult {
            releases: Vec::new(),
            hop_completions: Vec::new(),
            #[cfg(feature = "trace")]
            service_intervals: HashMap::new(),
            #[cfg(feature = "trace")]
            hop_records: Vec::new(),
            horizon: Time::ZERO,
        }
    }
}

impl SimResult {
    /// End-to-end completion time of instance `m` (1-based) of a job.
    pub fn completion(&self, job: JobId, m: usize) -> Option<Time> {
        let hops = &self.hop_completions[job.0][m - 1];
        hops.last().copied().flatten()
    }

    /// End-to-end response time of instance `m` (1-based) of a job.
    pub fn response(&self, job: JobId, m: usize) -> Option<Time> {
        self.completion(job, m)
            .map(|c| c - self.releases[job.0][m - 1])
    }

    /// Number of analyzed instances of a job.
    pub fn instances(&self, job: JobId) -> usize {
        self.releases[job.0].len()
    }

    /// Worst observed end-to-end response of a job; `None` if any instance
    /// did not complete.
    pub fn wcrt(&self, job: JobId) -> Option<Time> {
        let mut worst = Time::ZERO;
        for m in 1..=self.instances(job) {
            worst = worst.max(self.response(job, m)?);
        }
        Some(worst)
    }

    /// Reconstruct the observed service function of a subjob from its
    /// serving intervals: slope 1 while serving, flat elsewhere.
    #[cfg(feature = "trace")]
    pub fn observed_service(&self, r: SubjobRef) -> SoaCurve {
        busy_curve(
            self.service_intervals
                .get(&r)
                .into_iter()
                .flatten()
                .copied(),
        )
    }

    /// Observed utilization function of a processor (Definition 7): total
    /// busy time over `[0, t]`, reconstructed from the serving intervals of
    /// every subjob the system maps to it.
    ///
    /// For any work-conserving scheduler this must equal the Theorem 7
    /// utilization function computed from the exact aggregate workload —
    /// an invariant checked by the integration tests.
    #[cfg(feature = "trace")]
    pub fn observed_utilization(
        &self,
        sys: &rta_model::TaskSystem,
        p: rta_model::ProcessorId,
    ) -> SoaCurve {
        let mut intervals: Vec<(Time, Time)> = sys
            .subjobs_on(p)
            .into_iter()
            .filter_map(|r| self.service_intervals.get(&r))
            .flatten()
            .copied()
            .collect();
        // Serving intervals of one processor never overlap.
        intervals.sort();
        busy_curve(intervals.into_iter())
    }
}

/// The cumulative busy time of time-ordered, disjoint `(from, to)` serving
/// intervals: slope 1 inside an interval, flat between them. An interval
/// that starts where its predecessor ends continues it.
#[cfg(feature = "trace")]
fn busy_curve(intervals: impl Iterator<Item = (Time, Time)>) -> SoaCurve {
    let mut pieces: Vec<(i64, i64, i64)> = vec![(0, 0, 0)];
    let mut acc = 0i64;
    for (from, to) in intervals {
        debug_assert!(from <= to);
        if from == to {
            continue;
        }
        // A piece already starting at `from` (time zero, or the end of a
        // contiguous predecessor) is replaced by the serving one.
        if pieces.last().map(|p| p.0) == Some(from.ticks()) {
            pieces.pop();
        }
        pieces.push((from.ticks(), acc, 1));
        acc += (to - from).ticks();
        pieces.push((to.ticks(), acc, 0));
    }
    SoaCurve::try_from_pieces(&pieces).expect("serving intervals are time-ordered")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The `..default()` covers the trace-gated fields; without `trace`
    // every field is explicit and the update is (harmlessly) redundant.
    #[allow(clippy::needless_update)]
    fn responses_and_wcrt_from_completions() {
        let res = SimResult {
            releases: vec![vec![Time(0), Time(10)]],
            hop_completions: vec![vec![
                vec![Some(Time(4)), Some(Time(9))],
                vec![Some(Time(12)), Some(Time(17))],
            ]],
            horizon: Time(20),
            ..SimResult::default()
        };
        assert_eq!(res.completion(JobId(0), 1), Some(Time(9)));
        assert_eq!(res.response(JobId(0), 1), Some(Time(9)));
        assert_eq!(res.response(JobId(0), 2), Some(Time(7)));
        assert_eq!(res.wcrt(JobId(0)), Some(Time(9)));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn observed_service_from_intervals() {
        let mut service_intervals = HashMap::new();
        let r = SubjobRef {
            job: JobId(0),
            index: 0,
        };
        service_intervals.insert(r, vec![(Time(2), Time(5)), (Time(8), Time(9))]);
        let res = SimResult {
            releases: vec![vec![Time(0)]],
            hop_completions: vec![vec![vec![Some(Time(9))]]],
            service_intervals,
            horizon: Time(20),
            ..SimResult::default()
        };
        let s = res.observed_service(r);
        assert_eq!(s.eval(Time(2)), 0);
        assert_eq!(s.eval(Time(4)), 2);
        assert_eq!(s.eval(Time(5)), 3);
        assert_eq!(s.eval(Time(8)), 3);
        assert_eq!(s.eval(Time(9)), 4);
        assert_eq!(s.eval(Time(100)), 4);
        assert_eq!(res.response(JobId(0), 1), Some(Time(9)));
        assert_eq!(res.wcrt(JobId(0)), Some(Time(9)));
    }
}
