//! Resident admission-control service: warm per-tenant analysis sessions.
//!
//! The analyses in this crate answer one operational question — *can this
//! shop absorb job `J` without missing deadlines?* — and production
//! admission control asks it continuously, not once per process. The
//! incremental engine ([`AnalysisSession`], ~6.5× warm vs. cold on sweeps)
//! amortizes re-analysis cost *within* one evolving system; this module
//! keeps those sessions alive *across requests*:
//!
//! * [`AdmissionService`] owns a map of named **tenants**, each a pinned
//!   [`AnalysisSession`] over that tenant's loaded system. Admission is
//!   delta-based: [`AdmissionService::admit`] pushes the candidate job into
//!   the warm session ([`AnalysisSession::add_job`]), asks the tenant's
//!   oracle, and rolls the job back ([`AnalysisSession::remove_job`]) when
//!   the verdict is a rejection — the session's dirty cone and fixpoint
//!   memo recompute only what the candidate can influence.
//! * Sessions are **pinned** ([`AnalysisSession::pinned`]): the analysis
//!   frame is resolved once, from the loaded system, so admission deltas
//!   keep curve caches and fixpoint memos valid. Verdicts under a pinned
//!   frame are sound (an undersized horizon reads as unschedulable) and are
//!   bit-identical to a cold analysis under the same pinned configuration —
//!   [`AdmissionService::tenant_config`] exposes that configuration so the
//!   warm/cold equivalence is testable (`tests/service_oracles.rs`).
//! * The tenant map is bounded: past [`ServiceConfig::max_tenants`] the
//!   least-recently-used tenant is evicted, so a long-running service holds
//!   a working set of warm sessions, not one per tenant ever seen.
//! * Every mutating request stamps the tenant with a **service-global,
//!   monotone generation number**. A reply carrying a generation can never
//!   be confused with a reply from before an eviction/reload or a
//!   concurrent mutation: generations never repeat, per tenant or globally.
//!
//! The service is transport-agnostic: it speaks [`TaskSystem`]/[`Job`]
//! values, never text. The umbrella crate's `daemon` module shards
//! instances of this service across the worker pool and serves the
//! line-oriented wire protocol over stdin/stdout and unix sockets.

use std::collections::HashMap;

use crate::config::AnalysisConfig;
use crate::error::AnalysisError;
use crate::sensitivity::region::{explore_region, RegionConfig, RegionReport};
use crate::sensitivity::Oracle;
use crate::session::{AnalysisSession, SessionStats};
use rta_model::{Job, JobId, TaskSystem};

/// Default bound on resident tenants.
pub const DEFAULT_MAX_TENANTS: usize = 64;

/// Default fixpoint round budget for the loop-tolerant oracle.
pub const DEFAULT_MAX_ROUNDS: usize = 8;

/// Sizing and analysis knobs of an [`AdmissionService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Analysis configuration applied to every tenant (each tenant pins its
    /// own frame from it at load time).
    pub analysis: AnalysisConfig,
    /// Resident-session cap: loading a tenant beyond this evicts the
    /// least-recently-used one. Must be ≥ 1.
    pub max_tenants: usize,
    /// Round budget handed to the loop-tolerant fixpoint oracle.
    pub max_rounds: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            analysis: AnalysisConfig::default(),
            max_tenants: DEFAULT_MAX_TENANTS,
            max_rounds: DEFAULT_MAX_ROUNDS,
        }
    }
}

/// Errors surfaced by service requests.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The named tenant has no resident session (never loaded, or evicted).
    UnknownTenant(String),
    /// A job name was not found in the tenant's current system.
    UnknownJob {
        /// Tenant the lookup ran against.
        tenant: String,
        /// The missing job name.
        job: String,
    },
    /// An admitted job with this name already exists in the tenant.
    DuplicateJob {
        /// Tenant the admission ran against.
        tenant: String,
        /// The duplicated job name.
        job: String,
    },
    /// A scale factor outside `(0, ∞)`.
    InvalidFactor(f64),
    /// The underlying analysis failed (the delta has been rolled back).
    Analysis(AnalysisError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownTenant(t) => write!(f, "unknown tenant '{t}'"),
            ServiceError::UnknownJob { tenant, job } => {
                write!(f, "tenant '{tenant}' has no job '{job}'")
            }
            ServiceError::DuplicateJob { tenant, job } => {
                write!(f, "tenant '{tenant}' already has a job '{job}'")
            }
            ServiceError::InvalidFactor(x) => {
                write!(f, "scale factor must be positive and finite, got {x}")
            }
            ServiceError::Analysis(e) => write!(f, "analysis failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<AnalysisError> for ServiceError {
    fn from(e: AnalysisError) -> Self {
        ServiceError::Analysis(e)
    }
}

/// An admission decision.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The system including the candidate is schedulable; the job stays.
    Admitted,
    /// Admission would break a deadline; the delta was rolled back.
    Rejected,
}

impl Verdict {
    /// `true` for [`Verdict::Admitted`].
    pub fn admitted(self) -> bool {
        matches!(self, Verdict::Admitted)
    }
}

/// Result of loading (or replacing) a tenant.
#[derive(Clone, Debug)]
pub struct LoadOutcome {
    /// Generation stamped on the load.
    pub generation: u64,
    /// Jobs in the loaded system.
    pub jobs: usize,
    /// Whether the loaded system is schedulable as-is.
    pub schedulable: bool,
    /// The rendered analysis report (exact for all-SPP tenants, Theorem 4
    /// bounds otherwise, the Section 6 fixed point for cyclic topologies —
    /// the same selection as a one-shot `rta-admit` run).
    pub report: String,
    /// Tenant evicted to make room, if the session cap was reached.
    pub evicted: Option<String>,
    /// The preferred oracle hit a cyclic dependency graph and the report
    /// came from the Section 6 fixed point instead (the one-shot CLI
    /// surfaces this as a diagnostic).
    pub cyclic_fallback: bool,
}

/// Result of an admission probe.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmitOutcome {
    /// The decision.
    pub verdict: Verdict,
    /// Generation stamped on the probe.
    pub generation: u64,
    /// Jobs resident after the decision (candidate included iff admitted).
    pub jobs: usize,
}

/// Result of removing a job or rescaling a tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct MutateOutcome {
    /// Generation stamped on the mutation.
    pub generation: u64,
    /// Jobs resident after the mutation.
    pub jobs: usize,
    /// Post-mutation schedulability (always `Some` for scaling, `None` for
    /// removals, which cannot make a schedulable system unschedulable).
    pub schedulable: Option<bool>,
}

/// Point-in-time counters of one tenant, for `STATS` replies.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantStats {
    /// Latest generation stamped on the tenant.
    pub generation: u64,
    /// Jobs currently resident.
    pub jobs: usize,
    /// The warm session's reuse counters.
    pub session: SessionStats,
    /// Distinct curves interned in the tenant's arena.
    pub interned_curves: usize,
}

struct Tenant {
    session: AnalysisSession,
    oracle: Oracle,
    generation: u64,
    last_used: u64,
}

/// A resident map of warm per-tenant [`AnalysisSession`]s answering
/// admission queries through delta analysis. See the [module docs](self).
pub struct AdmissionService {
    cfg: ServiceConfig,
    tenants: HashMap<String, Tenant>,
    /// LRU logical clock: bumped on every tenant touch.
    clock: u64,
    /// Service-global monotone generation counter (never reset, so replies
    /// from before an eviction/reload are distinguishable).
    next_gen: u64,
    evictions: u64,
}

impl AdmissionService {
    /// An empty service.
    pub fn new(cfg: ServiceConfig) -> AdmissionService {
        assert!(cfg.max_tenants >= 1, "max_tenants must be at least 1");
        AdmissionService {
            cfg,
            tenants: HashMap::new(),
            clock: 0,
            next_gen: 0,
            evictions: 0,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Number of resident tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Tenants evicted by the LRU policy since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whether `tenant` currently has a resident session.
    pub fn contains(&self, tenant: &str) -> bool {
        self.tenants.contains_key(tenant)
    }

    /// The tenant's current (post-delta) system, if resident.
    pub fn tenant_system(&self, tenant: &str) -> Option<&TaskSystem> {
        self.tenants.get(tenant).map(|t| t.session.system())
    }

    /// The tenant's effective analysis configuration — the service config
    /// with the session's pinned frame applied. A cold analysis under this
    /// exact configuration is the oracle for the tenant's warm verdicts.
    pub fn tenant_config(&self, tenant: &str) -> Option<AnalysisConfig> {
        self.tenants.get(tenant).map(|t| t.session.config())
    }

    /// The schedulability oracle backing the tenant's verdicts.
    pub fn tenant_oracle(&self, tenant: &str) -> Option<Oracle> {
        self.tenants.get(tenant).map(|t| t.oracle)
    }

    /// The verdict oracle the service would pick for `sys`: exact analysis
    /// when every processor's policy supports it, the loop-tolerant
    /// Section 6 fixpoint (which also covers cyclic topologies) otherwise.
    pub fn pick_oracle(sys: &TaskSystem, max_rounds: usize) -> Oracle {
        if sys
            .processors()
            .iter()
            .all(|p| crate::policy::policy_for(p.scheduler).supports_exact())
        {
            Oracle::Exact
        } else {
            Oracle::Loops { max_rounds }
        }
    }

    fn bump_gen(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    fn touch(clock: &mut u64, tenant: &mut Tenant) {
        *clock += 1;
        tenant.last_used = *clock;
    }

    fn tenant_mut(&mut self, name: &str) -> Result<&mut Tenant, ServiceError> {
        match self.tenants.get_mut(name) {
            Some(t) => {
                Self::touch(&mut self.clock, t);
                Ok(t)
            }
            None => Err(ServiceError::UnknownTenant(name.to_string())),
        }
    }

    /// Evict the least-recently-used tenant, returning its name.
    fn evict_lru(&mut self) -> Option<String> {
        let name = self
            .tenants
            .iter()
            .min_by_key(|(_, t)| t.last_used)
            .map(|(n, _)| n.clone())?;
        self.tenants.remove(&name);
        self.evictions += 1;
        Some(name)
    }

    /// Load (or replace) a tenant's system and run the full analysis once.
    ///
    /// The session is pinned to the frame resolved from `sys`, the verdict
    /// oracle is chosen by [`AdmissionService::pick_oracle`], and the
    /// rendered report follows the one-shot CLI's selection: exact for
    /// all-SPP systems, Theorem 4 bounds otherwise, falling back to the
    /// Section 6 fixed point on cyclic topologies. Loading past the session
    /// cap evicts the least-recently-used tenant (reported in the outcome).
    pub fn load(&mut self, tenant: &str, sys: TaskSystem) -> Result<LoadOutcome, ServiceError> {
        let mut oracle = Self::pick_oracle(&sys, self.cfg.max_rounds);
        let mut session = AnalysisSession::pinned(sys, self.cfg.analysis.clone());
        let cfg = session.config();

        let first = match oracle {
            Oracle::Exact => session
                .analyze_exact()
                .map(|r| (r.all_schedulable(), r.to_string())),
            _ => crate::bounds::analyze_bounds(session.system(), &cfg)
                .map(|r| (r.all_schedulable(), r.to_string())),
        };
        let mut cyclic_fallback = false;
        let (schedulable, report) = match first {
            Ok(out) => out,
            Err(AnalysisError::CyclicDependency { .. }) => {
                // Cyclic topology: only the Section 6 fixed point applies —
                // for the load report and for every later verdict.
                cyclic_fallback = true;
                oracle = Oracle::Loops {
                    max_rounds: self.cfg.max_rounds,
                };
                let r = session.analyze_with_loops(self.cfg.max_rounds)?;
                (r.all_schedulable(), r.to_string())
            }
            Err(e) => return Err(e.into()),
        };

        let evicted =
            if !self.tenants.contains_key(tenant) && self.tenants.len() >= self.cfg.max_tenants {
                self.evict_lru()
            } else {
                None
            };
        let generation = self.bump_gen();
        let jobs = session.system().jobs().len();
        let mut t = Tenant {
            session,
            oracle,
            generation,
            last_used: 0,
        };
        Self::touch(&mut self.clock, &mut t);
        self.tenants.insert(tenant.to_string(), t);
        Ok(LoadOutcome {
            generation,
            jobs,
            schedulable,
            report,
            evicted,
            cyclic_fallback,
        })
    }

    /// Delta-based admission probe: push `job` into the tenant's warm
    /// session, ask the tenant's oracle, and roll the job back on
    /// rejection (or on an analysis error). The candidate's name must not
    /// collide with a resident job — names are the protocol's stable job
    /// handles across the id shifts that removals cause.
    pub fn admit(&mut self, tenant: &str, job: Job) -> Result<AdmitOutcome, ServiceError> {
        let generation = self.bump_gen();
        let t = self.tenant_mut(tenant)?;
        if t.session.system().jobs().iter().any(|j| j.name == job.name) {
            return Err(ServiceError::DuplicateJob {
                tenant: tenant.to_string(),
                job: job.name,
            });
        }
        let oracle = t.oracle;
        let id = t.session.add_job(job);
        t.generation = generation;
        match t.session.schedulable(oracle) {
            Ok(true) => Ok(AdmitOutcome {
                verdict: Verdict::Admitted,
                generation,
                jobs: t.session.system().jobs().len(),
            }),
            Ok(false) => {
                t.session.remove_job(id);
                Ok(AdmitOutcome {
                    verdict: Verdict::Rejected,
                    generation,
                    jobs: t.session.system().jobs().len(),
                })
            }
            Err(e) => {
                t.session.remove_job(id);
                Err(e.into())
            }
        }
    }

    /// Remove a resident job by name.
    pub fn remove(&mut self, tenant: &str, job: &str) -> Result<MutateOutcome, ServiceError> {
        let generation = self.bump_gen();
        let t = self.tenant_mut(tenant)?;
        let Some(k) = t.session.system().jobs().iter().position(|j| j.name == job) else {
            return Err(ServiceError::UnknownJob {
                tenant: tenant.to_string(),
                job: job.to_string(),
            });
        };
        t.session.remove_job(JobId(k));
        t.generation = generation;
        Ok(MutateOutcome {
            generation,
            jobs: t.session.system().jobs().len(),
            schedulable: None,
        })
    }

    /// Rescale every execution time from the tenant's *loaded base* by
    /// `factor` (what-if probing along the sensitivity axis) and return the
    /// fresh verdict. Factors are absolute, not cumulative: `SCALE 1.0`
    /// restores the base execution times.
    pub fn scale(&mut self, tenant: &str, factor: f64) -> Result<MutateOutcome, ServiceError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(ServiceError::InvalidFactor(factor));
        }
        let generation = self.bump_gen();
        let t = self.tenant_mut(tenant)?;
        let oracle = t.oracle;
        t.session.scale_exec(factor);
        t.generation = generation;
        let ok = t.session.schedulable(oracle)?;
        Ok(MutateOutcome {
            generation,
            jobs: t.session.system().jobs().len(),
            schedulable: Some(ok),
        })
    }

    /// Explore the (execution-scale × burst-length) schedulability region
    /// of the tenant's *current* system (read-only: the tenant's session
    /// and generation are untouched), under the oracle behind the tenant's
    /// verdicts — including the fixed-point fallback of a cyclic tenant.
    pub fn region(
        &mut self,
        tenant: &str,
        scales: (f64, f64, usize),
        bursts: (u32, u32, usize),
    ) -> Result<RegionReport, ServiceError> {
        let base = self.cfg.analysis.clone();
        let t = self.tenant_mut(tenant)?;
        let region = RegionConfig::grid(
            scales.0, scales.1, scales.2, bursts.0, bursts.1, bursts.2, t.oracle,
        );
        Ok(explore_region(t.session.system(), &base, &region)?)
    }

    /// The tenant's reuse counters and latest generation.
    pub fn stats(&mut self, tenant: &str) -> Result<TenantStats, ServiceError> {
        let t = self.tenant_mut(tenant)?;
        Ok(TenantStats {
            generation: t.generation,
            jobs: t.session.system().jobs().len(),
            session: t.session.stats(),
            interned_curves: t.session.arena_stats().curves,
        })
    }

    /// Drop a tenant's session. Returns whether it was resident. The
    /// generation counter is global and monotone, so a later re-load can
    /// never reuse a generation stamped before the eviction.
    pub fn evict(&mut self, tenant: &str) -> bool {
        self.tenants.remove(tenant).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_curves::Time;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, Subjob, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    /// Two SPP processors, two jobs, plenty of slack.
    fn base_system() -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(80),
            periodic(40),
            vec![(p1, Time(4)), (p2, Time(6))],
        );
        b.add_job("T2", Time(90), periodic(45), vec![(p1, Time(5))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        sys
    }

    /// A single-hop job for processor `proc` with the lowest priority `prio`.
    fn candidate_on(proc: usize, name: &str, exec: i64, prio: u32) -> Job {
        Job {
            name: name.to_string(),
            deadline: Time(200),
            arrival: periodic(100),
            subjobs: vec![Subjob {
                processor: rta_model::ProcessorId(proc),
                exec: Time(exec),
                priority: Some(prio),
                weight: None,
            }],
        }
    }

    fn candidate(name: &str, exec: i64, prio: u32) -> Job {
        candidate_on(0, name, exec, prio)
    }

    #[test]
    fn admit_keeps_job_and_reject_rolls_back() {
        let mut svc = AdmissionService::new(ServiceConfig::default());
        svc.load("acme", base_system()).unwrap();
        let light = svc.admit("acme", candidate("ok", 3, 10)).unwrap();
        assert_eq!(light.verdict, Verdict::Admitted);
        assert_eq!(light.jobs, 3);
        assert!(svc
            .tenant_system("acme")
            .unwrap()
            .jobs()
            .iter()
            .any(|j| j.name == "ok"));

        // A hopeless candidate: exec far beyond its own deadline.
        let heavy = svc.admit("acme", candidate("nope", 500, 11)).unwrap();
        assert_eq!(heavy.verdict, Verdict::Rejected);
        assert_eq!(heavy.jobs, 3, "rolled back");
        assert!(!svc
            .tenant_system("acme")
            .unwrap()
            .jobs()
            .iter()
            .any(|j| j.name == "nope"));
        assert!(heavy.generation > light.generation, "generations ascend");
    }

    #[test]
    fn duplicate_and_unknown_names_are_reported() {
        let mut svc = AdmissionService::new(ServiceConfig::default());
        svc.load("t", base_system()).unwrap();
        let err = svc.admit("t", candidate("T1", 1, 10)).unwrap_err();
        assert!(matches!(err, ServiceError::DuplicateJob { .. }), "{err}");
        let err = svc.admit("ghost", candidate("X", 1, 10)).unwrap_err();
        assert!(matches!(err, ServiceError::UnknownTenant(_)), "{err}");
        let err = svc.remove("t", "ghost-job").unwrap_err();
        assert!(matches!(err, ServiceError::UnknownJob { .. }), "{err}");
    }

    #[test]
    fn remove_then_readmit_by_name() {
        let mut svc = AdmissionService::new(ServiceConfig::default());
        svc.load("t", base_system()).unwrap();
        svc.admit("t", candidate("X", 3, 10)).unwrap();
        let out = svc.remove("t", "X").unwrap();
        assert_eq!(out.jobs, 2);
        // Same name admits again after removal.
        let again = svc.admit("t", candidate("X", 3, 10)).unwrap();
        assert_eq!(again.verdict, Verdict::Admitted);
    }

    #[test]
    fn scale_is_absolute_from_base() {
        let mut svc = AdmissionService::new(ServiceConfig::default());
        svc.load("t", base_system()).unwrap();
        let crushed = svc.scale("t", 20.0).unwrap();
        assert_eq!(crushed.schedulable, Some(false));
        let restored = svc.scale("t", 1.0).unwrap();
        assert_eq!(restored.schedulable, Some(true));
        assert!(svc.scale("t", 0.0).is_err());
        assert!(svc.scale("t", f64::NAN).is_err());
    }

    #[test]
    fn lru_eviction_bounds_resident_tenants() {
        let cfg = ServiceConfig {
            max_tenants: 2,
            ..ServiceConfig::default()
        };
        let mut svc = AdmissionService::new(cfg);
        svc.load("a", base_system()).unwrap();
        svc.load("b", base_system()).unwrap();
        // Touch "a" so "b" becomes the LRU victim.
        svc.stats("a").unwrap();
        let out = svc.load("c", base_system()).unwrap();
        assert_eq!(out.evicted.as_deref(), Some("b"));
        assert_eq!(svc.tenant_count(), 2);
        assert!(svc.contains("a") && svc.contains("c") && !svc.contains("b"));
        assert_eq!(svc.evictions(), 1);
    }

    #[test]
    fn generations_survive_eviction_and_reload() {
        let cfg = ServiceConfig {
            max_tenants: 1,
            ..ServiceConfig::default()
        };
        let mut svc = AdmissionService::new(cfg);
        let g1 = svc.load("a", base_system()).unwrap().generation;
        let g2 = svc.admit("a", candidate("X", 3, 10)).unwrap().generation;
        svc.load("b", base_system()).unwrap(); // evicts "a"
        assert!(!svc.contains("a"));
        let g3 = svc.load("a", base_system()).unwrap().generation;
        assert!(g1 < g2 && g2 < g3, "{g1} {g2} {g3}");
    }

    #[test]
    fn load_verdict_matches_cold_analysis() {
        let sys = base_system();
        let cold = crate::analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        let mut svc = AdmissionService::new(ServiceConfig::default());
        let out = svc.load("t", sys).unwrap();
        assert_eq!(out.schedulable, cold.all_schedulable());
        assert_eq!(out.report, cold.to_string());
        assert_eq!(out.jobs, 2);
    }

    #[test]
    fn non_spp_tenants_use_the_loops_oracle() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job("T1", Time(100), periodic(50), vec![(p, Time(10))]);
        let sys = b.build().unwrap();
        let mut svc = AdmissionService::new(ServiceConfig::default());
        let out = svc.load("t", sys).unwrap();
        assert!(out.schedulable);
        assert!(matches!(svc.tenant_oracle("t"), Some(Oracle::Loops { .. })));
        let fit = Job {
            name: "X".into(),
            deadline: Time(300),
            arrival: periodic(150),
            subjobs: vec![Subjob {
                processor: rta_model::ProcessorId(0),
                exec: Time(5),
                priority: None,
                weight: None,
            }],
        };
        assert_eq!(svc.admit("t", fit).unwrap().verdict, Verdict::Admitted);
    }

    #[test]
    fn region_reports_frontiers_without_mutating() {
        let mut svc = AdmissionService::new(ServiceConfig::default());
        svc.load("t", base_system()).unwrap();
        let gen_before = svc.stats("t").unwrap().generation;
        let report = svc.region("t", (0.5, 4.0, 8), (1, 1, 1)).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert!(report.rows[0].frontier.is_some());
        assert_eq!(svc.stats("t").unwrap().generation, gen_before);
    }

    #[test]
    fn stats_track_warm_reuse() {
        let mut svc = AdmissionService::new(ServiceConfig::default());
        svc.load("t", base_system()).unwrap();
        for i in 0..4 {
            // Candidates land on P2: T1's hop on P1 and all of T2 sit
            // outside the dirty cone, so their curves are reused verbatim.
            let name = format!("J{i}");
            svc.admit("t", candidate_on(1, &name, 2, 20 + i)).unwrap();
            svc.remove("t", &name).unwrap();
        }
        let stats = svc.stats("t").unwrap();
        assert!(stats.session.subjobs_reused > 0, "{:?}", stats.session);
        assert_eq!(stats.jobs, 2);
    }
}
