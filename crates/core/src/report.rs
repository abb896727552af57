//! Analysis result types.

use rta_curves::{SoaCurve, Time};
use rta_model::JobId;

/// The three cumulative functions of one subjob from an exact analysis.
#[derive(Clone, Debug)]
pub struct SubjobCurves {
    /// Arrival function `f_arr` (Definition 1).
    pub arrival: SoaCurve,
    /// Service function `S` (Definition 4).
    pub service: SoaCurve,
    /// Departure function `f_dep = ⌊S/τ⌋` (Theorem 2).
    pub departure: SoaCurve,
}

/// Per-job outcome of the exact analysis (Theorem 1).
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The job.
    pub job: JobId,
    /// End-to-end response time of each analyzed instance (`None` when the
    /// instance provably cannot be shown complete within the horizon — a
    /// conservative deadline miss).
    pub responses: Vec<Option<Time>>,
    /// Worst-case end-to-end response time over the analyzed instances;
    /// `None` if any instance is unresolved.
    pub wcrt: Option<Time>,
    /// The job's end-to-end deadline.
    pub deadline: Time,
}

impl JobReport {
    /// All analyzed instances resolved and within the deadline.
    pub fn schedulable(&self) -> bool {
        matches!(self.wcrt, Some(w) if w <= self.deadline)
    }
}

/// Result of the exact SPP analysis.
#[derive(Clone, Debug)]
pub struct ExactReport {
    /// Arrival window used (instances released in `[0, window]`).
    pub window: Time,
    /// Analysis horizon used.
    pub horizon: Time,
    /// Per-job results, indexed by job id.
    pub jobs: Vec<JobReport>,
    /// Per-subjob curves in `TaskSystem::all_subjobs()` order.
    pub curves: Vec<SubjobCurves>,
}

impl ExactReport {
    /// Whether every job meets its deadline.
    pub fn all_schedulable(&self) -> bool {
        self.jobs.iter().all(JobReport::schedulable)
    }
}

/// Per-job outcome of the approximate (bounds) analysis (Theorem 4).
#[derive(Clone, Debug)]
pub struct JobBound {
    /// The job.
    pub job: JobId,
    /// Per-hop worst-case delay bounds `d_{k,j}` (Equation 12); `None` when
    /// a hop's delay is unbounded within the horizon.
    pub hop_delays: Vec<Option<Time>>,
    /// End-to-end bound `Σ_j d_{k,j}` (Equation 11); `None` if any hop is
    /// unbounded.
    pub e2e_bound: Option<Time>,
    /// The job's end-to-end deadline.
    pub deadline: Time,
}

impl JobBound {
    /// Bounded and within the deadline.
    pub fn schedulable(&self) -> bool {
        matches!(self.e2e_bound, Some(d) if d <= self.deadline)
    }
}

/// Result of the approximate (bounds) analysis.
#[derive(Clone, Debug)]
pub struct BoundsReport {
    /// Arrival window used.
    pub window: Time,
    /// Analysis horizon used.
    pub horizon: Time,
    /// Per-job results, indexed by job id.
    pub jobs: Vec<JobBound>,
}

impl BoundsReport {
    /// Whether every job's bound meets its deadline.
    pub fn all_schedulable(&self) -> bool {
        self.jobs.iter().all(JobBound::schedulable)
    }
}

impl std::fmt::Display for ExactReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "exact analysis (window {}, horizon {})",
            self.window, self.horizon
        )?;
        for j in &self.jobs {
            writeln!(
                f,
                "  {}: {} instances, WCRT {} / deadline {} -> {}",
                j.job,
                j.responses.len(),
                j.wcrt
                    .map_or("unresolved".into(), |t| t.ticks().to_string()),
                j.deadline,
                if j.schedulable() { "ok" } else { "MISS" }
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for BoundsReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "bounds analysis (window {}, horizon {})",
            self.window, self.horizon
        )?;
        for j in &self.jobs {
            let hops: Vec<String> = j
                .hop_delays
                .iter()
                .map(|d| d.map_or("∞".into(), |t| t.ticks().to_string()))
                .collect();
            writeln!(
                f,
                "  {}: hops [{}] -> e2e ≤ {} / deadline {} -> {}",
                j.job,
                hops.join(", "),
                j.e2e_bound.map_or("∞".into(), |t| t.ticks().to_string()),
                j.deadline,
                if j.schedulable() { "ok" } else { "MISS" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_render_readably() {
        let exact = ExactReport {
            window: Time(100),
            horizon: Time(200),
            jobs: vec![JobReport {
                job: JobId(0),
                responses: vec![Some(Time(7))],
                wcrt: Some(Time(7)),
                deadline: Time(10),
            }],
            curves: vec![],
        };
        let s = exact.to_string();
        assert!(s.contains("T1") && s.contains("WCRT 7") && s.contains("ok"));

        let bounds = BoundsReport {
            window: Time(100),
            horizon: Time(200),
            jobs: vec![JobBound {
                job: JobId(1),
                hop_delays: vec![Some(Time(3)), None],
                e2e_bound: None,
                deadline: Time(10),
            }],
        };
        let s = bounds.to_string();
        assert!(s.contains("T2") && s.contains("∞") && s.contains("MISS"));
    }

    #[test]
    fn job_report_schedulability() {
        let mut r = JobReport {
            job: JobId(0),
            responses: vec![Some(Time(5)), Some(Time(9))],
            wcrt: Some(Time(9)),
            deadline: Time(10),
        };
        assert!(r.schedulable());
        r.deadline = Time(8);
        assert!(!r.schedulable());
        r.wcrt = None;
        assert!(!r.schedulable());
    }

    #[test]
    fn job_bound_schedulability() {
        let b = JobBound {
            job: JobId(1),
            hop_delays: vec![Some(Time(3)), Some(Time(4))],
            e2e_bound: Some(Time(7)),
            deadline: Time(7),
        };
        assert!(b.schedulable());
        let unbounded = JobBound {
            e2e_bound: None,
            ..b
        };
        assert!(!unbounded.schedulable());
    }
}
