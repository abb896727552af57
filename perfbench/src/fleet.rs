//! Seeded inputs of the daemon workloads: tenant fleets rendered in the
//! system-description grammar, and request streams generated against an
//! untimed dry run of the same service.
//!
//! The dry run is an [`AdmissionService`] loaded with the same tenant texts
//! the daemon will load. The generator applies every state-changing request
//! to it as it goes, so it knows each `ADMIT` verdict before the stream is
//! timed: `REMOVE` is only ever emitted for a probe the dry run admitted,
//! and every `ERR` the daemon answers is a real failure.

use std::collections::VecDeque;
use std::time::Instant;

use bursty_rta::analysis::sensitivity::Oracle;
use bursty_rta::analysis::service::{AdmissionService, ServiceConfig};
use bursty_rta::analysis::AnalysisConfig;
use bursty_rta::curves::Time;
use bursty_rta::model::jobshop::{generate, ShopArrivals, ShopConfig};
use bursty_rta::model::{ArrivalPattern, SchedulerKind, TaskSystem};
use bursty_rta::proto::{Request, WcdfpSpec};
use bursty_rta::textfmt::{format_arrival, parse_system, resolve_job, HopSpec, JobDraft};
use rand::rngs::StdRng;
use rand::Rng;

/// What a tenant's system is built from.
#[derive(Clone, Debug)]
pub enum Shape {
    /// A random job shop under one scheduler.
    Shop(ShopConfig),
    /// Two SPP processors and two opposite two-hop jobs with crossed
    /// explicit priorities: a cyclic topology that only the fixed-point
    /// analysis accepts.
    FigureEight,
}

/// One tenant of a fleet.
pub struct Tenant {
    /// Tenant key.
    pub name: String,
    /// System description, as sent in its `LOAD` payload.
    pub text: String,
    /// Time spent generating the system (`rta_model::jobshop`), in ns.
    pub gen_ns: u64,
}

/// The scheduler word of the description grammar.
fn scheduler_word(k: SchedulerKind) -> &'static str {
    match k {
        SchedulerKind::Spp => "spp",
        SchedulerKind::Spnp => "spnp",
        SchedulerKind::Fcfs => "fcfs",
        SchedulerKind::Iwrr => "iwrr",
    }
}

/// Render `sys` in the description grammar. Priorities are written only
/// when `explicit_prio` is set; otherwise the parser assigns them by the
/// relative-deadline-monotonic rule.
pub fn render(sys: &TaskSystem, explicit_prio: bool) -> String {
    let mut out = String::new();
    for p in sys.processors() {
        out.push_str(&format!(
            "processor {} {}\n",
            p.name,
            scheduler_word(p.scheduler)
        ));
    }
    for j in sys.jobs() {
        out.push_str(&format!(
            "job {} deadline {} {}\n",
            j.name,
            j.deadline.ticks(),
            format_arrival(&j.arrival)
        ));
        for s in &j.subjobs {
            out.push_str(&format!(
                "hop {} {}",
                sys.processor(s.processor).name,
                s.exec.ticks()
            ));
            if let (true, Some(p)) = (explicit_prio, s.priority) {
                out.push_str(&format!(" prio {p}"));
            }
            if let Some(w) = s.weight {
                out.push_str(&format!(" weight {w}"));
            }
            out.push('\n');
        }
    }
    out.trim_end().to_string()
}

/// A two-stage, two-processor-per-stage shop like the admission load
/// generator's, under `scheduler`.
pub fn daemon_shop(scheduler: SchedulerKind, utilization: f64) -> ShopConfig {
    ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 5,
        scheduler,
        utilization,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 3.0,
        },
        x_min: 0.5,
        ticks_per_unit: 400,
    }
}

/// The tenant shapes of `admit_churn`: sixteen tenants, nine all-SPP
/// (exact oracle), two each under SPNP, FCFS and IWRR (fixed-point oracle)
/// and one crossed-priority figure-eight (cyclic fallback).
pub fn admit_churn_shapes() -> Vec<Shape> {
    use SchedulerKind::*;
    let mut out: Vec<Shape> = [(Spp, 9), (Spnp, 2), (Fcfs, 2), (Iwrr, 2)]
        .into_iter()
        .flat_map(|(k, count)| std::iter::repeat_n(k, count))
        .map(|k| Shape::Shop(daemon_shop(k, 0.4)))
        .collect();
    out.push(Shape::FigureEight);
    out
}

fn figure_eight(rng: &mut StdRng) -> String {
    let period = 1000;
    let mut e = || rng.gen_range(60..140);
    format!(
        "processor A spp\nprocessor B spp\n\
         job x deadline 2400 periodic {period} 0\nhop A {} prio 2\nhop B {} prio 1\n\
         job y deadline 2400 periodic {period} 0\nhop B {} prio 2\nhop A {} prio 1",
        e(),
        e(),
        e(),
        e()
    )
}

/// Build one tenant per shape. Job shops are redrawn until the loaded
/// system is schedulable, so admission probes have room to succeed.
pub fn build_fleet(shapes: &[Shape], rng: &mut StdRng) -> Vec<Tenant> {
    shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            let name = format!("t{i:02}");
            match shape {
                Shape::FigureEight => Tenant {
                    name,
                    text: figure_eight(rng),
                    gen_ns: 0,
                },
                Shape::Shop(cfg) => {
                    let mut gen_ns = 0;
                    for _ in 0..64 {
                        let t0 = Instant::now();
                        let sys = generate(cfg, rng).expect("valid shop shape");
                        gen_ns += t0.elapsed().as_nanos() as u64;
                        let text = render(&sys, false);
                        let parsed = parse_system(&text).expect("rendered system parses");
                        let mut probe = AdmissionService::new(ServiceConfig::default());
                        if probe.load(&name, parsed).is_ok_and(|o| o.schedulable) {
                            return Tenant { name, text, gen_ns };
                        }
                    }
                    panic!("no schedulable draw for {name} in 64 tries");
                }
            }
        })
        .collect()
}

/// The `LOAD` requests of a fleet.
pub fn load_requests(fleet: &[Tenant]) -> Vec<Request> {
    fleet
        .iter()
        .map(|t| Request::Load {
            tenant: t.name.clone(),
            system: t.text.clone(),
        })
        .collect()
}

/// What the dry run knows about one request of the stream.
#[derive(Clone, Debug)]
pub enum Expect {
    /// An `ADMIT` with the dry run's verdict.
    Admit(bool),
    /// A `SCALE` with the dry run's verdict.
    Scale(bool),
    /// A `WCDFP` and the tenant system its draws must be folded from.
    Wcdfp(Box<TaskSystem>),
    /// Any other request: it must answer `OK`.
    Ok,
}

/// A sampled `ADMIT`: the tenant system with the candidate in place and the
/// tenant's pinned configuration, for the cold-analysis check.
pub struct ColdSample {
    /// Index of the request in the stream.
    pub index: usize,
    /// Tenant system including the candidate job.
    pub system: TaskSystem,
    /// The tenant's effective analysis configuration.
    pub config: AnalysisConfig,
    /// The oracle behind the tenant's warm verdicts.
    pub oracle: Oracle,
    /// Whether the tenant's topology is cyclic.
    pub cyclic: bool,
}

struct TenantState {
    name: String,
    base: TaskSystem,
    cyclic: bool,
    procs: Vec<String>,
    periods: Vec<i64>,
    resident: VecDeque<String>,
}

/// Stream generator over a dry-run service.
pub struct Generator {
    rng: StdRng,
    dry: AdmissionService,
    tenants: Vec<TenantState>,
    step: u64,
    cold_every: u64,
    /// Requests generated so far.
    pub requests: Vec<Request>,
    /// Dry-run expectation per request.
    pub expect: Vec<Expect>,
    /// Sampled `ADMIT`s for the cold-analysis check.
    pub cold: Vec<ColdSample>,
}

impl Generator {
    /// A generator over `fleet`, loaded into a fresh dry-run service;
    /// roughly one `ADMIT` in `cold_every` is sampled for the cold check.
    pub fn new(fleet: &[Tenant], rng: StdRng, cold_every: u64) -> Generator {
        let mut dry = AdmissionService::new(ServiceConfig::default());
        let tenants = fleet
            .iter()
            .map(|t| {
                let sys = parse_system(&t.text).expect("fleet text parses");
                let procs = sys.processors().iter().map(|p| p.name.clone()).collect();
                let periods = sys
                    .jobs()
                    .iter()
                    .filter_map(|j| match j.arrival {
                        ArrivalPattern::Periodic { period, .. }
                        | ArrivalPattern::PeriodicJitter { period, .. } => Some(period.ticks()),
                        ArrivalPattern::SporadicEnvelope { min_gap } => Some(min_gap.ticks()),
                        _ => None,
                    })
                    .collect::<Vec<_>>();
                let loaded = dry.load(&t.name, sys.clone()).expect("fleet tenant loads");
                TenantState {
                    name: t.name.clone(),
                    base: sys,
                    cyclic: loaded.cyclic_fallback,
                    procs,
                    periods: if periods.is_empty() {
                        vec![1000]
                    } else {
                        periods
                    },
                    resident: VecDeque::new(),
                }
            })
            .collect();
        Generator {
            rng,
            dry,
            tenants,
            step: 0,
            cold_every: cold_every.max(1),
            requests: Vec::new(),
            expect: Vec::new(),
            cold: Vec::new(),
        }
    }

    fn push(&mut self, req: Request, expect: Expect) {
        self.requests.push(req);
        self.expect.push(expect);
        self.step += 1;
    }

    fn candidate(&mut self, t: usize) -> JobDraft {
        let rng = &mut self.rng;
        let ts = &self.tenants[t];
        let period = ts.periods[rng.gen_range(0..ts.periods.len())] * rng.gen_range(1..=2i64);
        let deadline = period * rng.gen_range(2..=4i64);
        let n_hops = rng.gen_range(1..=2usize).min(ts.procs.len());
        let first = rng.gen_range(0..ts.procs.len());
        let hops = (0..n_hops)
            .map(|h| HopSpec {
                processor: ts.procs[(first + h) % ts.procs.len()].clone(),
                // Demands up to 60% of the period: about half the probes
                // are admitted, so `REMOVE`s (which can only follow an
                // admission) stay near a third of the stream and its
                // median falls well inside the `ADMIT` latencies.
                exec: ((period as f64 * rng.gen_range(0.05..0.6)) as i64).max(1),
                priority: None,
                weight: None,
            })
            .collect();
        JobDraft {
            name: format!("q{}", self.step),
            deadline,
            arrival: ArrivalPattern::Periodic {
                period: Time(period),
                offset: Time::ZERO,
            },
            hops,
        }
    }

    /// Emit an `ADMIT` of a fresh probe into tenant `t`; returns the dry
    /// run's verdict.
    pub fn admit(&mut self, t: usize) -> bool {
        let draft = self.candidate(t);
        let tenant = self.tenants[t].name.clone();
        let sys = self.dry.tenant_system(&tenant).expect("resident tenant");
        let job = resolve_job(sys, &draft).expect("probe resolves");
        if self.rng.gen_range(0..self.cold_every) == 0 {
            let mut system = sys.clone();
            system.push_job(job.clone());
            self.cold.push(ColdSample {
                index: self.requests.len(),
                system,
                config: self.dry.tenant_config(&tenant).expect("resident tenant"),
                oracle: self.dry.tenant_oracle(&tenant).expect("resident tenant"),
                cyclic: self.tenants[t].cyclic,
            });
        }
        let admitted = self
            .dry
            .admit(&tenant, job)
            .expect("dry-run admission succeeds")
            .verdict
            .admitted();
        if admitted {
            self.tenants[t].resident.push_back(draft.name.clone());
        }
        self.push(
            Request::Admit { tenant, job: draft },
            Expect::Admit(admitted),
        );
        admitted
    }

    /// Emit a `REMOVE` of `job`, a probe the dry run admitted into `t`.
    fn remove(&mut self, t: usize, job: String) {
        let tenant = self.tenants[t].name.clone();
        self.dry
            .remove(&tenant, &job)
            .expect("dry-run removal succeeds");
        self.push(Request::Remove { tenant, job }, Expect::Ok);
    }

    fn scale(&mut self, t: usize, factor: f64) {
        let tenant = self.tenants[t].name.clone();
        let ok = self
            .dry
            .scale(&tenant, factor)
            .expect("dry-run scaling succeeds")
            .schedulable
            .unwrap_or(false);
        self.push(Request::Scale { tenant, factor }, Expect::Scale(ok));
    }

    /// `REGION` walks the tenant under the oracle its processors support,
    /// which fails on a cyclic topology, so cyclic tenants get none.
    fn region(&mut self, t: usize, burst_hi: u32) {
        let tenant = self.tenants[t].name.clone();
        self.push(
            Request::Region {
                tenant,
                scale_lo: 0.5,
                scale_hi: 1.5,
                scale_steps: 3,
                burst_lo: 1,
                burst_hi,
                burst_steps: burst_hi as usize,
            },
            Expect::Ok,
        );
    }

    fn wcdfp(&mut self, t: usize, spec: WcdfpSpec) {
        let tenant = self.tenants[t].name.clone();
        let sys = self
            .dry
            .tenant_system(&tenant)
            .expect("resident tenant")
            .clone();
        self.push(
            Request::Wcdfp { tenant, spec },
            Expect::Wcdfp(Box::new(sys)),
        );
    }

    fn stats(&mut self, t: usize) {
        let tenant = self.tenants[t].name.clone();
        self.push(Request::Stats { tenant }, Expect::Ok);
    }

    /// Emit `n` requests of the `admit_churn` mix: `ADMIT` probes, `REMOVE`
    /// of admitted probes (and of the oldest when a tenant holds four),
    /// 3% `STATS`.
    pub fn extend(&mut self, n: usize) {
        for _ in 0..n {
            let t = self.rng.gen_range(0..self.tenants.len());
            let r: f64 = self.rng.gen();
            let resident = &mut self.tenants[t].resident;
            if r < 0.03 {
                self.stats(t);
            } else if r < 0.28 || resident.len() >= 4 {
                match resident.pop_front() {
                    Some(job) => self.remove(t, job),
                    None => {
                        self.admit(t);
                    }
                }
            } else {
                self.admit(t);
            }
        }
    }

    /// One pass over every tenant touching each layer once: an `ADMIT`
    /// (and `REMOVE` of it when admitted), a `SCALE` away and back, a small
    /// `REGION`, a short `WCDFP` and a `STATS`. The traced run appends it to
    /// every stream so each per-layer metric has samples on every workload.
    pub fn probe_pass(&mut self) {
        for t in 0..self.tenants.len() {
            if self.admit(t) {
                let job = self.tenants[t].resident.pop_back().expect("just admitted");
                self.remove(t, job);
            }
            self.scale(t, 1.25);
            self.scale(t, 1.0);
            if !self.tenants[t].cyclic {
                self.region(t, 2);
            }
            let seed = self.rng.gen_range(0..1u64 << 32);
            self.wcdfp(t, WcdfpSpec::Fixed { draws: 100, seed });
            self.stats(t);
        }
    }

    /// One fixed-draw `WCDFP` per tenant against freshly loaded tenants,
    /// for workloads whose own stream draws nothing.
    pub fn wcdfp_per_tenant(&mut self, draws: u64) -> (Vec<Request>, Vec<Expect>) {
        let mut reqs = Vec::new();
        let mut expect = Vec::new();
        for t in &self.tenants {
            reqs.push(Request::Wcdfp {
                tenant: t.name.clone(),
                spec: WcdfpSpec::Fixed {
                    draws,
                    seed: self.rng.gen_range(0..1u64 << 32),
                },
            });
            expect.push(Expect::Wcdfp(Box::new(t.base.clone())));
        }
        (reqs, expect)
    }
}
