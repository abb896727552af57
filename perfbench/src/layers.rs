//! The traced run's passes. Each pass calls the layers' public functions
//! one by one, in the order the daemon calls them, and records a span
//! around each call:
//!
//! * the stream pass replays the daemon's dispatch on a bare
//!   [`AdmissionService`]: `proto.parse`, `textfmt.resolve` or
//!   `textfmt.load`, `service.*` or `wcdfp.estimate`, `proto.format`, all
//!   under one `request` span per request;
//! * the same pass with tracing off gives the tracing overhead;
//! * the session replay drives one pinned [`AnalysisSession`] per tenant
//!   through the same deltas (`session.add`, `session.verdict`,
//!   `session.remove`, `session.scale`), which the service's own calls hide;
//! * the layer probes time the simulator, the worker pool and the cold
//!   analyses on the workload's tenant systems.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use bursty_rta::analysis::holistic::holistic_schedulable;
use bursty_rta::analysis::par::pool_threads;
use bursty_rta::analysis::sensitivity::Oracle;
use bursty_rta::analysis::service::{AdmissionService, ServiceConfig, ServiceError};
use bursty_rta::analysis::wcdfp::WcdfpAccum;
use bursty_rta::analysis::{
    analyze_bounds, analyze_exact_spp, AnalysisConfig, AnalysisError, AnalysisSession, SessionStats,
};
use bursty_rta::model::{JobId, SchedulerKind, TaskSystem};
use bursty_rta::proto::{Request, Response};
use bursty_rta::sim::wcdfp::{accumulate_range, estimate_fixed, DrawModel, WcdfpConfig};
use bursty_rta::sim::{SimConfig, SimEngine, SimResult};
use bursty_rta::textfmt::{parse_system, resolve_job};

use crate::daemon_wl::wcdfp_response;
use crate::fleet::{self, Expect, Tenant};
use crate::report::{ratio, Metrics};
use crate::trace::Tracer;

/// The traced request total must be within this share of the daemon's
/// untraced per-request time.
pub const SUM_TOLERANCE: f64 = 0.15;

/// Draws per tenant in the simulator and pool probes.
const PROBE_DRAWS: u64 = 300;

/// Counters the stream pass keeps beside its spans.
#[derive(Default)]
struct Counts {
    admits: u64,
    accepted: u64,
    regions: u64,
    region_probes: u64,
}

/// The traced run's passes over one fleet.
pub struct Passes<'a> {
    fleet: &'a [Tenant],
    traced_svc: AdmissionService,
    plain_svc: AdmissionService,
    load: Tracer,
    stream: Tracer,
    replay: Tracer,
    probe: Tracer,
    counts: Counts,
}

fn one_line_parse_error(e: &bursty_rta::textfmt::ParseError) -> String {
    if e.line == 0 {
        e.msg.clone()
    } else {
        format!("line {}: {} | {}", e.line, e.msg, e.text)
    }
}

/// The daemon's dispatch of one parsed request, with a span around each
/// layer call.
fn dispatch(
    svc: &mut AdmissionService,
    req: &Request,
    tr: &mut Tracer,
    c: &mut Counts,
) -> Response {
    let fail = |e: ServiceError| Response::Err {
        message: e.to_string(),
    };
    let unknown = |tenant: &str| Response::Err {
        message: format!("unknown tenant '{tenant}'"),
    };
    match req {
        Request::Ping => Response::Pong,
        Request::Load { tenant, system } => {
            let sys = match tr.span("textfmt.load", || parse_system(system)) {
                Ok(sys) => sys,
                Err(e) => {
                    return Response::Err {
                        message: one_line_parse_error(&e),
                    }
                }
            };
            match tr.span("service.load", || svc.load(tenant, sys)) {
                Ok(out) => Response::Loaded {
                    tenant: tenant.clone(),
                    generation: out.generation,
                    jobs: out.jobs,
                    schedulable: out.schedulable,
                    evicted: out.evicted,
                },
                Err(e) => fail(e),
            }
        }
        Request::Admit { tenant, job } => {
            let Some(sys) = svc.tenant_system(tenant) else {
                return unknown(tenant);
            };
            let resolved = match tr.span("textfmt.resolve", || resolve_job(sys, job)) {
                Ok(j) => j,
                Err(message) => return Response::Err { message },
            };
            match tr.span("service.admit", || svc.admit(tenant, resolved)) {
                Ok(out) => {
                    c.admits += 1;
                    c.accepted += u64::from(out.verdict.admitted());
                    Response::Admitted {
                        tenant: tenant.clone(),
                        generation: out.generation,
                        job: job.name.clone(),
                        admitted: out.verdict.admitted(),
                        jobs: out.jobs,
                    }
                }
                Err(e) => fail(e),
            }
        }
        Request::Remove { tenant, job } => {
            match tr.span("service.remove", || svc.remove(tenant, job)) {
                Ok(out) => Response::Removed {
                    tenant: tenant.clone(),
                    generation: out.generation,
                    job: job.clone(),
                    jobs: out.jobs,
                },
                Err(e) => fail(e),
            }
        }
        Request::Scale { tenant, factor } => {
            match tr.span("service.scale", || svc.scale(tenant, *factor)) {
                Ok(out) => Response::Scaled {
                    tenant: tenant.clone(),
                    generation: out.generation,
                    factor: *factor,
                    schedulable: out.schedulable.unwrap_or(false),
                },
                Err(e) => fail(e),
            }
        }
        Request::Region {
            tenant,
            scale_lo,
            scale_hi,
            scale_steps,
            burst_lo,
            burst_hi,
            burst_steps,
        } => {
            let report = tr.span("service.region", || {
                svc.region(
                    tenant,
                    (*scale_lo, *scale_hi, *scale_steps),
                    (*burst_lo, *burst_hi, *burst_steps),
                )
            });
            match report {
                Ok(report) => {
                    c.regions += 1;
                    c.region_probes += report.probes as u64;
                    Response::RegionMap {
                        tenant: tenant.clone(),
                        scales: report.scales.clone(),
                        rows: report
                            .rows
                            .iter()
                            .map(|r| (r.burst_len, r.frontier))
                            .collect(),
                    }
                }
                Err(e) => fail(e),
            }
        }
        Request::Stats { tenant } => match tr.span("service.stats", || svc.stats(tenant)) {
            Ok(stats) => Response::Stats {
                tenant: tenant.clone(),
                generation: stats.generation,
                jobs: stats.jobs,
                analyses: stats.session.analyses,
                recomputed: stats.session.subjobs_recomputed,
                reused: stats.session.subjobs_reused,
                verdict_hits: stats.session.verdict_hits,
                verdict_misses: stats.session.verdict_misses,
                warm_starts: stats.session.warm_starts,
                interned: stats.interned_curves,
                tenants: svc.tenant_count(),
            },
            Err(e) => fail(e),
        },
        Request::Wcdfp { tenant, spec } => {
            let svc = &*svc;
            tr.span("wcdfp.estimate", || wcdfp_response(svc, tenant, spec))
        }
        Request::Evict { tenant } => Response::Evicted {
            tenant: tenant.clone(),
            existed: svc.evict(tenant),
        },
    }
}

/// Parse, dispatch and format one rendered request under a `request` span.
fn apply(svc: &mut AdmissionService, text: &str, tr: &mut Tracer, c: &mut Counts) -> String {
    tr.open("request");
    let mut rest = text.split('\n');
    let first = rest.next().unwrap_or("").trim();
    let req = tr.span("proto.parse", || {
        Request::parse(first, || rest.next().map(str::to_string))
    });
    let resp = match req {
        Ok(req) => dispatch(svc, &req, tr, c),
        Err(message) => Response::Err { message },
    };
    let line = tr.span("proto.format", || resp.to_string());
    tr.close();
    line
}

/// A tenant as the service keeps it: a pinned session and its oracle,
/// built by the same steps as `AdmissionService::load`.
struct Shadow {
    session: AnalysisSession,
    oracle: Oracle,
}

fn shadow_load(sys: TaskSystem, cfg: &ServiceConfig) -> Shadow {
    let mut oracle = AdmissionService::pick_oracle(&sys, cfg.max_rounds);
    let mut session = AnalysisSession::pinned(sys, cfg.analysis.clone());
    let first = match oracle {
        Oracle::Exact => session.analyze_exact().map(|_| ()),
        _ => analyze_bounds(session.system(), &session.config()).map(|_| ()),
    };
    match first {
        Ok(()) => {}
        Err(AnalysisError::CyclicDependency { .. }) => {
            oracle = Oracle::Loops {
                max_rounds: cfg.max_rounds,
            };
            session
                .analyze_with_loops(cfg.max_rounds)
                .expect("fleet tenant analyzes");
        }
        Err(e) => panic!("fleet tenant does not analyze: {e}"),
    }
    Shadow { session, oracle }
}

fn add_stats(a: &mut SessionStats, b: SessionStats) {
    a.analyses += b.analyses;
    a.subjobs_recomputed += b.subjobs_recomputed;
    a.subjobs_reused += b.subjobs_reused;
    a.verdict_hits += b.verdict_hits;
    a.verdict_misses += b.verdict_misses;
    a.warm_starts += b.warm_starts;
}

/// Summed session counters of all shadows, and their curve arenas'
/// lookups: answered from the arena (interning matches and memo hits) and
/// computed (curves newly interned and memo misses).
fn counters(shadows: &HashMap<String, Shadow>) -> (SessionStats, u64, u64) {
    let mut s = SessionStats::default();
    let (mut hits, mut computed) = (0, 0);
    for sh in shadows.values() {
        add_stats(&mut s, sh.session.stats());
        let a = sh.session.arena_stats();
        hits += a.intern_hits + a.memo_hits;
        computed += a.curves as u64 + a.memo_misses;
    }
    (s, hits, computed)
}

/// Number of simulated events in `out`: primary releases plus completed
/// hops.
fn events(out: &SimResult) -> u64 {
    let releases: usize = out.releases.iter().map(Vec::len).sum();
    let hops: usize = out
        .hop_completions
        .iter()
        .flatten()
        .map(|inst| inst.iter().filter(|c| c.is_some()).count())
        .sum();
    (releases + hops) as u64
}

/// A bare service with `fleet` loaded through the traced dispatch.
fn loaded(fleet: &[Tenant], tr: &mut Tracer) -> AdmissionService {
    let mut svc = AdmissionService::new(ServiceConfig::default());
    let loads = crate::daemon_wl::render_all(&fleet::load_requests(fleet));
    for (i, text) in loads.iter().enumerate() {
        tr.set_request(i as u32);
        let line = apply(&mut svc, text, tr, &mut Counts::default());
        assert!(line.starts_with("OK LOAD"), "{line}");
    }
    svc
}

impl<'a> Passes<'a> {
    /// Passes over `fleet`, with one service loaded for the traced pass and
    /// one for the untraced pass.
    pub fn new(fleet: &'a [Tenant]) -> Passes<'a> {
        let mut load = Tracer::new();
        let traced_svc = loaded(fleet, &mut load);
        let plain_svc = loaded(fleet, &mut Tracer::off());
        Passes {
            fleet,
            traced_svc,
            plain_svc,
            load,
            stream: Tracer::new(),
            replay: Tracer::new(),
            probe: Tracer::new(),
            counts: Counts::default(),
        }
    }

    /// Run `lines`, the stream's requests from index `first` on, through
    /// the traced pass; returns their responses.
    pub fn traced(&mut self, first: usize, lines: &[String]) -> String {
        let mut out = String::new();
        for (i, text) in lines.iter().enumerate() {
            self.stream.set_request((first + i) as u32);
            out.push_str(&apply(
                &mut self.traced_svc,
                text,
                &mut self.stream,
                &mut self.counts,
            ));
            out.push('\n');
        }
        out
    }

    /// Run `lines` through the same pass with tracing off; returns the
    /// time taken in ns.
    pub fn untraced(&mut self, lines: &[String]) -> u128 {
        let mut off = Tracer::off();
        let mut counts = Counts::default();
        let t0 = Instant::now();
        for text in lines {
            std::hint::black_box(apply(&mut self.plain_svc, text, &mut off, &mut counts));
        }
        t0.elapsed().as_nanos()
    }

    /// Replay the stream's session deltas on one pinned session per
    /// tenant; verdicts must equal the dry run's.
    pub fn session_replay(
        &mut self,
        reqs: &[Request],
        expect: &[Expect],
        bad: &mut Vec<String>,
    ) -> Metrics {
        let cfg = ServiceConfig::default();
        let mut shadows: HashMap<String, Shadow> = self
            .fleet
            .iter()
            .map(|t| {
                let sys = parse_system(&t.text).expect("fleet text parses");
                (t.name.clone(), shadow_load(sys, &cfg))
            })
            .collect();
        let (s0, h0, m0) = counters(&shadows);
        let tr = &mut self.replay;
        let mut verdicts = 0u64;
        for (i, req) in reqs.iter().enumerate() {
            tr.set_request(i as u32);
            match req {
                Request::Admit { tenant, job } => {
                    let sh = shadows.get_mut(tenant).expect("fleet tenant");
                    let job = resolve_job(sh.session.system(), job).expect("probe resolves");
                    let oracle = sh.oracle;
                    tr.open("delta");
                    let id = tr.span("session.add", || sh.session.add_job(job));
                    let v = tr.span("session.verdict", || sh.session.schedulable(oracle));
                    let keep = matches!(v, Ok(true));
                    if !keep {
                        tr.span("session.remove", || sh.session.remove_job(id));
                    }
                    tr.close();
                    verdicts += 1;
                    if v.is_err() || !matches!(expect[i], Expect::Admit(w) if w == keep) {
                        bad.push(format!(
                            "request {i}: session replay verdict {v:?}, dry run {:?}",
                            expect[i]
                        ));
                    }
                }
                Request::Remove { tenant, job } => {
                    let sh = shadows.get_mut(tenant).expect("fleet tenant");
                    let k = sh
                        .session
                        .system()
                        .jobs()
                        .iter()
                        .position(|j| &j.name == job)
                        .expect("removed probe is resident");
                    tr.open("delta");
                    tr.span("session.remove", || sh.session.remove_job(JobId(k)));
                    tr.close();
                }
                Request::Scale { tenant, factor } => {
                    let sh = shadows.get_mut(tenant).expect("fleet tenant");
                    let oracle = sh.oracle;
                    tr.open("delta");
                    tr.span("session.scale", || sh.session.scale_exec(*factor));
                    let v = tr.span("session.verdict", || sh.session.schedulable(oracle));
                    tr.close();
                    verdicts += 1;
                    let ok = matches!((&v, &expect[i]), (Ok(v), Expect::Scale(w)) if v == w);
                    if !ok {
                        bad.push(format!(
                            "request {i}: session replay verdict {v:?}, dry run {:?}",
                            expect[i]
                        ));
                    }
                }
                _ => {}
            }
        }
        let (s1, h1, m1) = counters(&shadows);
        let d = |a: u64, b: u64| (b - a) as f64;
        let analyses = d(s0.analyses, s1.analyses);
        let recomputed = d(s0.subjobs_recomputed, s1.subjobs_recomputed);
        let reused = d(s0.subjobs_reused, s1.subjobs_reused);
        let hits = d(s0.verdict_hits, s1.verdict_hits);
        let misses = d(s0.verdict_misses, s1.verdict_misses);
        let (ops_hit, ops_miss) = (d(h0, h1), d(m0, m1));
        let totals = tr.totals();
        let mut m = Metrics::default();
        m.set(
            "session.add_ns",
            totals.get("session.add").map_or(0.0, |t| t.mean_ns()),
            "ns",
        );
        m.set(
            "session.remove_ns",
            totals.get("session.remove").map_or(0.0, |t| t.mean_ns()),
            "ns",
        );
        m.set(
            "session.verdict_ns",
            totals.get("session.verdict").map_or(0.0, |t| t.mean_ns()),
            "ns",
        );
        m.set("session.cone_subjobs", ratio(recomputed, analyses), "count");
        m.set(
            "session.reuse_frac",
            ratio(reused, reused + recomputed),
            "frac",
        );
        m.set(
            "session.warm_start_frac",
            ratio(d(s0.warm_starts, s1.warm_starts), analyses),
            "frac",
        );
        m.set("session.memo_hit_frac", ratio(hits, hits + misses), "frac");
        m.set(
            "curves.ops_computed",
            ratio(ops_miss, verdicts as f64),
            "count",
        );
        m.set(
            "curves.memo_hit_frac",
            ratio(ops_hit, ops_hit + ops_miss),
            "frac",
        );
        m
    }

    /// Per-layer metrics of the stream pass. `untraced_ns` is the daemon's
    /// own per-request time on one shard; `plain_ns` is the stream pass with
    /// tracing off.
    pub fn stream_metrics(
        &self,
        untraced_ns: f64,
        plain_ns: f64,
        bad: &mut Vec<String>,
    ) -> Metrics {
        let totals = self.stream.totals();
        let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
        let root = totals.get("request").copied().unwrap_or_default();
        let n = root.count.max(1) as f64;
        let children_ns = totals
            .iter()
            .filter(|(name, _)| **name != "request")
            .map(|(_, t)| t.total_ns as f64)
            .sum::<f64>()
            / n;
        let traced_ns = root.mean_ns();
        eprintln!(
            "layer self times per request (untraced daemon {untraced_ns:.0} ns over {} requests):",
            root.count
        );
        for (name, t) in &totals {
            eprintln!(
                "  {name:<16} {:>8} spans  mean {:>10.0} ns  self/request {:>9.0} ns  ({:>5.1}% of untraced)",
                t.count,
                t.mean_ns(),
                t.self_ns as f64 / n,
                100.0 * t.self_ns as f64 / n / untraced_ns
            );
        }
        let gap = (traced_ns - untraced_ns) / untraced_ns;
        eprintln!(
            "  traced total {traced_ns:.0} ns vs untraced {untraced_ns:.0} ns ({:+.1}%, tolerance ±{:.0}%); \
             tracing overhead {:.0} ns/request",
            100.0 * gap,
            100.0 * SUM_TOLERANCE,
            traced_ns - plain_ns
        );
        if gap.abs() > SUM_TOLERANCE {
            bad.push(format!(
                "layer self times sum to {traced_ns:.0} ns per request, untraced {untraced_ns:.0} ns"
            ));
        }
        let load = self.load.totals();
        let c = &self.counts;
        let region_ns = totals.get("service.region").map_or(0, |t| t.total_ns) as f64;
        let mut m = Metrics::default();
        m.set("proto.parse_ns", mean("proto.parse"), "ns");
        m.set("proto.format_ns", mean("proto.format"), "ns");
        m.set("textfmt.resolve_ns", mean("textfmt.resolve"), "ns");
        m.set(
            "textfmt.load_ms",
            load.get("textfmt.load").map_or(0.0, |t| t.mean_ns()) / 1e6,
            "ms",
        );
        m.set("daemon.self_ns", untraced_ns - children_ns, "ns");
        m.set("service.admit_ns", mean("service.admit"), "ns");
        m.set("service.remove_ns", mean("service.remove"), "ns");
        m.set("service.scale_ns", mean("service.scale"), "ns");
        m.set("service.region_ms", mean("service.region") / 1e6, "ms");
        m.set(
            "service.accept_frac",
            ratio(c.accepted as f64, c.admits as f64),
            "frac",
        );
        m.set(
            "region.probes",
            ratio(c.region_probes as f64, c.regions as f64),
            "count",
        );
        m.set(
            "region.probe_us",
            ratio(region_ns, c.region_probes as f64) / 1e3,
            "us",
        );
        m.set("trace.overhead_ns", traced_ns - plain_ns, "ns");
        m.set("trace.sum_frac", traced_ns / untraced_ns, "frac");
        m
    }

    /// Time the simulator, the worker pool and the cold analyses on each
    /// tenant system.
    pub fn probe_layers(&mut self) -> Metrics {
        let tr = &mut self.probe;
        let acfg = AnalysisConfig::default();
        let wcfg = WcdfpConfig {
            base_seed: 1,
            sketches: false,
            ..WcdfpConfig::default()
        };
        let (mut seq_ns, mut pooled_ns, mut draws) = (0u64, 0u64, 0u64);
        let (mut events_sum, mut sims) = (0u64, 0u64);
        let (mut attempts, mut errors) = (0u64, 0u64);
        let mut engine = SimEngine::new();
        let mut out = SimResult::default();
        for (i, tenant) in self.fleet.iter().enumerate() {
            let sys = &parse_system(&tenant.text).expect("fleet text parses");
            tr.set_request(i as u32);
            let model = DrawModel::Arrivals(sys.clone());
            let mut accum = WcdfpAccum::new(wcfg.mode, sys.jobs().len());
            let t0 = Instant::now();
            tr.span("sim.draws", || {
                accumulate_range(&model, &wcfg, 0, PROBE_DRAWS, &mut accum)
            });
            seq_ns += t0.elapsed().as_nanos() as u64;
            let t0 = Instant::now();
            let rep = tr.span("par.draws", || estimate_fixed(&model, &wcfg, PROBE_DRAWS));
            pooled_ns += t0.elapsed().as_nanos() as u64;
            assert_eq!(rep.accum.draws, accum.draws);
            draws += PROBE_DRAWS;

            let (window, horizon) = acfg.resolve(sys);
            tr.span("sim.simulate", || {
                engine.simulate_into(sys, &SimConfig { window, horizon }, &mut out)
            });
            events_sum += events(&out);
            sims += 1;

            let all_spp = sys
                .processors()
                .iter()
                .all(|p| p.scheduler == SchedulerKind::Spp);
            if all_spp {
                attempts += 1;
                errors += u64::from(tr.span("exact", || analyze_exact_spp(sys, &acfg)).is_err());
            }
            attempts += 1;
            errors += u64::from(tr.span("bounds", || analyze_bounds(sys, &acfg)).is_err());
            if all_spp {
                attempts += 1;
                errors += u64::from(
                    tr.span("holistic", || holistic_schedulable(sys, &acfg))
                        .is_err(),
                );
            }
        }
        let totals = tr.totals();
        let mean = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_ns());
        let mut m = Metrics::default();
        m.set("sim.draw_ns", seq_ns as f64 / draws as f64, "ns");
        m.set(
            "sim.events_per_draw",
            ratio(events_sum as f64, sims as f64),
            "count",
        );
        m.set(
            "par.efficiency",
            seq_ns as f64 / (pooled_ns as f64 * pool_threads() as f64),
            "frac",
        );
        m.set("exact.ns", mean("exact"), "ns");
        m.set("bounds.ns", mean("bounds"), "ns");
        m.set("holistic.ns", mean("holistic"), "ns");
        m.set(
            "analysis.err_frac",
            ratio(errors as f64, attempts as f64),
            "frac",
        );
        m
    }

    /// Write every recorded span to `path`.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{}", Tracer::HEADER)?;
        self.load.write_to(&mut w, "load")?;
        self.stream.write_to(&mut w, "stream")?;
        self.replay.write_to(&mut w, "replay")?;
        self.probe.write_to(&mut w, "probe")?;
        w.flush()
    }
}
