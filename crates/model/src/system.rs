//! The distributed real-time system: processors, jobs, subjob chains.

use crate::arrival::ArrivalPattern;
use crate::ids::{JobId, ProcessorId, SubjobRef};
use rta_curves::Time;

/// Scheduling algorithm run by a processor (Section 3.2).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum SchedulerKind {
    /// Static-priority preemptive.
    Spp,
    /// Static-priority non-preemptive.
    Spnp,
    /// First-come-first-served.
    Fcfs,
    /// Interleaved weighted round-robin (non-preemptive, per-subjob
    /// weights; Tabatabaee, Le Boudec & Boyer).
    Iwrr,
}

impl SchedulerKind {
    /// Whether subjobs on this processor need priorities assigned.
    pub fn uses_priorities(self) -> bool {
        matches!(self, SchedulerKind::Spp | SchedulerKind::Spnp)
    }

    /// Whether subjobs on this processor consume per-subjob weights.
    pub fn uses_weights(self) -> bool {
        matches!(self, SchedulerKind::Iwrr)
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::Spp => write!(f, "SPP"),
            SchedulerKind::Spnp => write!(f, "SPNP"),
            SchedulerKind::Fcfs => write!(f, "FCFS"),
            SchedulerKind::Iwrr => write!(f, "IWRR"),
        }
    }
}

/// A processor `P_i`.
#[derive(Clone, Debug)]
pub struct Processor {
    /// Human-readable name.
    pub name: String,
    /// Scheduling algorithm.
    pub scheduler: SchedulerKind,
}

/// A subjob `T_{k,j}`: one hop of a job's chain.
#[derive(Clone, Debug)]
pub struct Subjob {
    /// The processor `P(k,j)` this hop executes on.
    pub processor: ProcessorId,
    /// Execution time `τ_{k,j}` in ticks (≥ 1).
    pub exec: Time,
    /// Static priority `φ_{k,j}` on the processor — **smaller is higher**,
    /// as in the paper. `None` until a priority policy has run (FCFS-only
    /// systems may leave priorities unassigned).
    pub priority: Option<u32>,
    /// Service weight `w_{k,j}` for weighted round-robin disciplines.
    /// `None` means the default weight of 1; ignored by SPP/SPNP/FCFS.
    pub weight: Option<u32>,
}

impl Subjob {
    /// Effective round-robin weight (defaults to 1 when unassigned).
    pub fn weight(&self) -> u32 {
        self.weight.unwrap_or(1)
    }
}

/// A job `T_k`: a chain of subjobs with an end-to-end deadline and an
/// arrival pattern for its first subjob.
#[derive(Clone, Debug)]
pub struct Job {
    /// Human-readable name.
    pub name: String,
    /// End-to-end (relative) deadline `D_k` in ticks.
    pub deadline: Time,
    /// Release pattern of the first subjob.
    pub arrival: ArrivalPattern,
    /// The chain `T_{k,1}, …, T_{k,n_k}` (nonempty).
    pub subjobs: Vec<Subjob>,
}

impl Job {
    /// Total execution demand `Σ_j τ_{k,j}` of one instance.
    pub fn total_exec(&self) -> Time {
        self.subjobs.iter().map(|s| s.exec).sum()
    }
}

/// Errors raised during system construction or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A subjob references a processor that does not exist.
    UnknownProcessor {
        /// The offending subjob.
        subjob: SubjobRef,
    },
    /// A job has an empty subjob chain.
    EmptyChain {
        /// The offending job.
        job: JobId,
    },
    /// A subjob has a non-positive execution time.
    NonPositiveExec {
        /// The offending subjob.
        subjob: SubjobRef,
    },
    /// A job has a non-positive deadline.
    NonPositiveDeadline {
        /// The offending job.
        job: JobId,
    },
    /// The system contains no jobs.
    NoJobs,
    /// Two subjobs on the same static-priority processor share a priority
    /// level (the analysis requires a strict order).
    DuplicatePriority {
        /// The processor on which the collision occurs.
        processor: ProcessorId,
        /// The colliding priority value.
        priority: u32,
    },
    /// A subjob on a static-priority processor has no priority assigned.
    MissingPriority {
        /// The offending subjob.
        subjob: SubjobRef,
    },
    /// Rate-monotonic assignment needs a nominal period, but the job's
    /// arrival pattern (e.g. an explicit trace) has none.
    NoNominalPeriod {
        /// The offending job.
        job: JobId,
    },
    /// A subjob on a weighted round-robin processor has weight zero —
    /// such a flow would never be served.
    ZeroWeight {
        /// The offending subjob.
        subjob: SubjobRef,
    },
    /// A burst-train arrival whose burst extent `intra_gap · (burst_len − 1)`
    /// reaches its `train_period`, so consecutive trains would overlap.
    OverlappingBursts {
        /// The offending job.
        job: JobId,
    },
    /// A tick count derived from the system's periods, deadlines,
    /// execution times or weights does not fit in a signed 64-bit tick.
    TickOverflow {
        /// What was being computed (e.g. `"arrival window"`).
        quantity: &'static str,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::UnknownProcessor { subjob } => {
                write!(f, "subjob {subjob} references an unknown processor")
            }
            ModelError::EmptyChain { job } => write!(f, "job {job} has no subjobs"),
            ModelError::NonPositiveExec { subjob } => {
                write!(f, "subjob {subjob} has a non-positive execution time")
            }
            ModelError::NonPositiveDeadline { job } => {
                write!(f, "job {job} has a non-positive deadline")
            }
            ModelError::NoJobs => write!(f, "system contains no jobs"),
            ModelError::DuplicatePriority {
                processor,
                priority,
            } => {
                write!(f, "duplicate priority {priority} on processor {processor}")
            }
            ModelError::MissingPriority { subjob } => {
                write!(
                    f,
                    "subjob {subjob} on a static-priority processor has no priority"
                )
            }
            ModelError::NoNominalPeriod { job } => {
                write!(
                    f,
                    "job {job} has no nominal period for rate-monotonic assignment"
                )
            }
            ModelError::ZeroWeight { subjob } => {
                write!(
                    f,
                    "subjob {subjob} on a weighted round-robin processor has weight zero"
                )
            }
            ModelError::OverlappingBursts { job } => {
                write!(
                    f,
                    "job {job} has a burst train whose extent reaches its train period"
                )
            }
            ModelError::TickOverflow { quantity } => {
                write!(f, "the {quantity} overflows the 64-bit tick range")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A validated distributed real-time system (Section 3).
#[derive(Clone, Debug)]
pub struct TaskSystem {
    processors: Vec<Processor>,
    jobs: Vec<Job>,
    ticks_per_unit: i64,
}

impl TaskSystem {
    /// All processors.
    pub fn processors(&self) -> &[Processor] {
        &self.processors
    }

    /// All jobs.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Mutable access to jobs — used by priority-assignment policies.
    pub(crate) fn jobs_mut(&mut self) -> &mut [Job] {
        &mut self.jobs
    }

    /// Quantization factor recorded at construction (reporting only).
    pub fn ticks_per_unit(&self) -> i64 {
        self.ticks_per_unit
    }

    /// Look up a processor.
    pub fn processor(&self, id: ProcessorId) -> &Processor {
        &self.processors[id.0]
    }

    /// Look up a job.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.0]
    }

    /// Look up a subjob.
    pub fn subjob(&self, r: SubjobRef) -> &Subjob {
        &self.jobs[r.job.0].subjobs[r.index]
    }

    /// Iterator over all subjob references.
    pub fn all_subjobs(&self) -> impl Iterator<Item = SubjobRef> + '_ {
        self.jobs.iter().enumerate().flat_map(|(k, job)| {
            (0..job.subjobs.len()).map(move |j| SubjobRef {
                job: JobId(k),
                index: j,
            })
        })
    }

    /// All subjobs assigned to a processor.
    pub fn subjobs_on(&self, p: ProcessorId) -> Vec<SubjobRef> {
        self.all_subjobs()
            .filter(|r| self.subjob(*r).processor == p)
            .collect()
    }

    /// Subjobs on the same processor as `r` with **strictly higher** priority
    /// (smaller `φ`), per the summations in Theorems 3, 5 and 6.
    pub fn higher_priority_peers(&self, r: SubjobRef) -> Vec<SubjobRef> {
        let s = self.subjob(r);
        let phi = s.priority.expect("priorities must be assigned");
        self.all_subjobs()
            .filter(|o| {
                let os = self.subjob(*o);
                *o != r && os.processor == s.processor && os.priority.expect("assigned") < phi
            })
            .collect()
    }

    /// Maximum execution time of strictly lower-priority subjobs on the same
    /// processor: the blocking term `b_{k,j}` of Equation 15. Zero when no
    /// lower-priority subjob exists. Allocation-free — this sits on the
    /// warm re-analysis path.
    pub fn blocking_time(&self, r: SubjobRef) -> Time {
        let s = self.subjob(r);
        let phi = s.priority.expect("priorities must be assigned");
        self.all_subjobs()
            .filter(|o| {
                let os = self.subjob(*o);
                *o != r && os.processor == s.processor && os.priority.expect("assigned") > phi
            })
            .map(|o| self.subjob(o).exec)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Long-run utilization of a processor, where every job on it has a
    /// nominal period: `Σ τ/ρ`. `None` if some pattern has no period.
    pub fn utilization_on(&self, p: ProcessorId) -> Option<f64> {
        let mut u = 0.0;
        for r in self.subjobs_on(p) {
            let job = self.job(r.job);
            let period = job.arrival.nominal_period(self.ticks_per_unit)?;
            u += self.subjob(r).exec.ticks() as f64 / period.ticks() as f64;
        }
        Some(u)
    }

    /// A copy of the system with every execution time scaled by `factor`
    /// (rounded up, at least one tick) — the workhorse of sensitivity
    /// analysis. Priorities, deadlines and arrival patterns are unchanged.
    pub fn with_scaled_exec(&self, factor: f64) -> TaskSystem {
        assert!(factor > 0.0 && factor.is_finite());
        let mut out = self.clone();
        for job in &mut out.jobs {
            for s in &mut job.subjobs {
                let scaled = (s.exec.ticks() as f64 * factor).ceil() as i64;
                s.exec = Time(scaled.max(1));
            }
        }
        out
    }

    /// Overwrite every execution time in place with `base`'s scaled by
    /// `factor` (rounded up, at least one tick) — the allocation-free
    /// counterpart of [`TaskSystem::with_scaled_exec`] for bisection loops
    /// that re-scale one buffer from the same base system every step.
    ///
    /// `self` and `base` must have identical job/subjob shape (as produced
    /// by cloning `base` once up front).
    pub fn assign_scaled_exec(&mut self, base: &TaskSystem, factor: f64) {
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(self.jobs.len(), base.jobs.len(), "shape mismatch");
        for (job, base_job) in self.jobs.iter_mut().zip(&base.jobs) {
            assert_eq!(job.subjobs.len(), base_job.subjobs.len(), "shape mismatch");
            for (s, base_s) in job.subjobs.iter_mut().zip(&base_job.subjobs) {
                let scaled = (base_s.exec.ticks() as f64 * factor).ceil() as i64;
                s.exec = Time(scaled.max(1));
            }
        }
    }

    /// Set (or clear) the priority of one subjob. The caller is responsible
    /// for re-validating before analysis — duplicate priorities on a
    /// static-priority processor are caught by [`TaskSystem::validate`].
    pub fn set_priority(&mut self, r: SubjobRef, priority: Option<u32>) {
        self.jobs[r.job.0].subjobs[r.index].priority = priority;
    }

    /// Set (or clear) the round-robin weight of one subjob. Zero weights on
    /// a weighted processor are caught by [`TaskSystem::validate`].
    pub fn set_weight(&mut self, r: SubjobRef, weight: Option<u32>) {
        self.jobs[r.job.0].subjobs[r.index].weight = weight;
    }

    /// Replace one job's arrival pattern (e.g. to grow a burst train while
    /// sweeping a schedulability region). Overlapping burst trains are
    /// caught by [`TaskSystem::validate`].
    pub fn set_arrival(&mut self, id: JobId, arrival: ArrivalPattern) {
        self.jobs[id.0].arrival = arrival;
    }

    /// Append a job to the system; returns its id. Existing job ids (and
    /// therefore subjob enumeration order of existing jobs) are unchanged.
    pub fn push_job(&mut self, job: Job) -> JobId {
        self.jobs.push(job);
        JobId(self.jobs.len() - 1)
    }

    /// Remove a job; later job ids shift down by one. Returns the removed
    /// job. Panics if the id is out of range.
    pub fn remove_job(&mut self, id: JobId) -> Job {
        self.jobs.remove(id.0)
    }

    /// Validate structural invariants; called by the builder and again by
    /// analyses that require priorities.
    pub fn validate(&self, require_priorities: bool) -> Result<(), ModelError> {
        if self.jobs.is_empty() {
            return Err(ModelError::NoJobs);
        }
        for (k, job) in self.jobs.iter().enumerate() {
            let job_id = JobId(k);
            if job.subjobs.is_empty() {
                return Err(ModelError::EmptyChain { job: job_id });
            }
            if job.deadline <= Time::ZERO {
                return Err(ModelError::NonPositiveDeadline { job: job_id });
            }
            if let ArrivalPattern::BurstTrain {
                burst_len,
                intra_gap,
                train_period,
                ..
            } = job.arrival
            {
                if intra_gap * (burst_len.max(1) as i64 - 1) >= train_period {
                    return Err(ModelError::OverlappingBursts { job: job_id });
                }
            }
            for (j, s) in job.subjobs.iter().enumerate() {
                let r = SubjobRef {
                    job: job_id,
                    index: j,
                };
                if s.processor.0 >= self.processors.len() {
                    return Err(ModelError::UnknownProcessor { subjob: r });
                }
                if s.exec <= Time::ZERO {
                    return Err(ModelError::NonPositiveExec { subjob: r });
                }
                if self.processors[s.processor.0].scheduler.uses_weights() && s.weight == Some(0) {
                    return Err(ModelError::ZeroWeight { subjob: r });
                }
            }
        }
        if require_priorities {
            // Allocation-free duplicate detection (validate runs on every
            // warm re-analysis): for each priority-scheduled processor,
            // check each subjob's φ against all earlier subjobs on the
            // same processor. Quadratic in the per-processor subjob count,
            // which is small; error order matches the map-based scan this
            // replaces (first missing or duplicating subjob in enumeration
            // order wins).
            for (p, proc) in self.processors.iter().enumerate() {
                if !proc.scheduler.uses_priorities() {
                    continue;
                }
                let pid = ProcessorId(p);
                for r in self.all_subjobs() {
                    if self.subjob(r).processor != pid {
                        continue;
                    }
                    let Some(phi) = self.subjob(r).priority else {
                        return Err(ModelError::MissingPriority { subjob: r });
                    };
                    for o in self.all_subjobs() {
                        if o == r {
                            break;
                        }
                        let os = self.subjob(o);
                        if os.processor == pid && os.priority == Some(phi) {
                            return Err(ModelError::DuplicatePriority {
                                processor: pid,
                                priority: phi,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Incremental constructor for [`TaskSystem`].
#[derive(Default)]
pub struct SystemBuilder {
    processors: Vec<Processor>,
    jobs: Vec<Job>,
    ticks_per_unit: i64,
}

impl SystemBuilder {
    /// Start an empty system with the default quantization.
    pub fn new() -> SystemBuilder {
        SystemBuilder {
            processors: Vec::new(),
            jobs: Vec::new(),
            ticks_per_unit: rta_curves::DEFAULT_TICKS_PER_UNIT,
        }
    }

    /// Record the tick quantization used when the model was built.
    pub fn ticks_per_unit(mut self, tpu: i64) -> SystemBuilder {
        assert!(tpu >= 1);
        self.ticks_per_unit = tpu;
        self
    }

    /// Add a processor; returns its id.
    pub fn add_processor(
        &mut self,
        name: impl Into<String>,
        scheduler: SchedulerKind,
    ) -> ProcessorId {
        self.processors.push(Processor {
            name: name.into(),
            scheduler,
        });
        ProcessorId(self.processors.len() - 1)
    }

    /// Add a job as a chain of `(processor, execution time)` hops, with
    /// priorities unassigned; returns its id.
    pub fn add_job(
        &mut self,
        name: impl Into<String>,
        deadline: Time,
        arrival: ArrivalPattern,
        chain: Vec<(ProcessorId, Time)>,
    ) -> JobId {
        let subjobs = chain
            .into_iter()
            .map(|(processor, exec)| Subjob {
                processor,
                exec,
                priority: None,
                weight: None,
            })
            .collect();
        self.jobs.push(Job {
            name: name.into(),
            deadline,
            arrival,
            subjobs,
        });
        JobId(self.jobs.len() - 1)
    }

    /// Set an explicit priority on a subjob (smaller = higher).
    pub fn set_priority(&mut self, r: SubjobRef, priority: u32) -> &mut SystemBuilder {
        self.jobs[r.job.0].subjobs[r.index].priority = Some(priority);
        self
    }

    /// Set an explicit round-robin weight on a subjob (≥ 1).
    pub fn set_weight(&mut self, r: SubjobRef, weight: u32) -> &mut SystemBuilder {
        self.jobs[r.job.0].subjobs[r.index].weight = Some(weight);
        self
    }

    /// Finalize: validate structure (priorities may still be unassigned).
    pub fn build(self) -> Result<TaskSystem, ModelError> {
        let sys = TaskSystem {
            processors: self.processors,
            jobs: self.jobs,
            ticks_per_unit: self.ticks_per_unit,
        };
        sys.validate(false)?;
        Ok(sys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_proc_system() -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(100),
            ArrivalPattern::Periodic {
                period: Time(50),
                offset: Time::ZERO,
            },
            vec![(p1, Time(10)), (p2, Time(5))],
        );
        let t2 = b.add_job(
            "T2",
            Time(200),
            ArrivalPattern::Periodic {
                period: Time(100),
                offset: Time::ZERO,
            },
            vec![(p1, Time(20))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t1, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        b.build().unwrap()
    }

    #[test]
    fn builder_and_lookups() {
        let sys = two_proc_system();
        assert_eq!(sys.processors().len(), 2);
        assert_eq!(sys.jobs().len(), 2);
        assert_eq!(sys.subjobs_on(ProcessorId(0)).len(), 2);
        assert_eq!(sys.subjobs_on(ProcessorId(1)).len(), 1);
        assert_eq!(sys.job(JobId(0)).total_exec(), Time(15));
        assert!(sys.validate(true).is_ok());
    }

    #[test]
    fn higher_priority_peers_and_blocking() {
        let sys = two_proc_system();
        let t1p1 = SubjobRef {
            job: JobId(0),
            index: 0,
        };
        let t2p1 = SubjobRef {
            job: JobId(1),
            index: 0,
        };
        assert!(sys.higher_priority_peers(t1p1).is_empty());
        assert_eq!(sys.higher_priority_peers(t2p1), vec![t1p1]);
        // T1's subjob on P1 can be blocked by T2's (lower-priority, exec 20).
        assert_eq!(sys.blocking_time(t1p1), Time(20));
        assert_eq!(sys.blocking_time(t2p1), Time::ZERO);
    }

    #[test]
    fn utilization_accounting() {
        let sys = two_proc_system();
        // P1: 10/50 + 20/100 = 0.4; P2: 5/50 = 0.1.
        assert!((sys.utilization_on(ProcessorId(0)).unwrap() - 0.4).abs() < 1e-12);
        assert!((sys.utilization_on(ProcessorId(1)).unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_systems() {
        let b = SystemBuilder::new();
        assert_eq!(b.build().unwrap_err(), ModelError::NoJobs);

        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(0))],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::NonPositiveExec { .. }
        ));

        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time::ZERO,
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(1))],
        );
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::NonPositiveDeadline { .. }
        ));
    }

    #[test]
    fn priority_validation() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(1))],
        );
        let t2 = b.add_job(
            "T2",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(1))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 3);
        let sys = b.build().unwrap();
        // Missing priority on T2.
        assert!(matches!(
            sys.validate(true).unwrap_err(),
            ModelError::MissingPriority { subjob } if subjob.job == t2
        ));
        // FCFS processors do not need priorities.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job(
            "T1",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(1))],
        );
        assert!(b.build().unwrap().validate(true).is_ok());
    }

    #[test]
    fn duplicate_priorities_rejected() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spnp);
        let t1 = b.add_job(
            "T1",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(1))],
        );
        let t2 = b.add_job(
            "T2",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(1))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 1);
        let sys = b.build().unwrap();
        assert!(matches!(
            sys.validate(true).unwrap_err(),
            ModelError::DuplicatePriority { priority: 1, .. }
        ));
    }

    #[test]
    fn scheduler_kind_properties() {
        assert!(SchedulerKind::Spp.uses_priorities());
        assert!(SchedulerKind::Spnp.uses_priorities());
        assert!(!SchedulerKind::Fcfs.uses_priorities());
        assert!(!SchedulerKind::Iwrr.uses_priorities());
        assert!(SchedulerKind::Iwrr.uses_weights());
        assert!(!SchedulerKind::Fcfs.uses_weights());
        assert_eq!(SchedulerKind::Fcfs.to_string(), "FCFS");
        assert_eq!(SchedulerKind::Iwrr.to_string(), "IWRR");
    }

    #[test]
    fn weights_default_and_validate() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Iwrr);
        let t1 = b.add_job(
            "T1",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(1))],
        );
        let t2 = b.add_job(
            "T2",
            Time(10),
            ArrivalPattern::Periodic {
                period: Time(5),
                offset: Time::ZERO,
            },
            vec![(p, Time(1))],
        );
        b.set_weight(SubjobRef { job: t2, index: 0 }, 3);
        let sys = b.build().unwrap();
        // Unassigned weight defaults to 1; IWRR needs no priorities.
        assert_eq!(sys.subjob(SubjobRef { job: t1, index: 0 }).weight(), 1);
        assert_eq!(sys.subjob(SubjobRef { job: t2, index: 0 }).weight(), 3);
        assert!(sys.validate(true).is_ok());
        // An explicit zero weight on a weighted processor is rejected.
        let mut sys = sys;
        sys.set_weight(SubjobRef { job: t1, index: 0 }, Some(0));
        assert!(matches!(
            sys.validate(false).unwrap_err(),
            ModelError::ZeroWeight { subjob } if subjob.job == t1
        ));
    }
}
