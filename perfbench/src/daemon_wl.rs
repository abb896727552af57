//! The `admit_churn` workload: a tenant fleet loaded through `LOAD`, then
//! one seeded request stream served by the real `bursty_rta::daemon::serve`,
//! in-process, once back to back (capacity) and once open loop at a fixed
//! offered rate (latency). The traced run also serves `fig_sweep`'s fleet.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bursty_rta::analysis::fixpoint::analyze_with_loops;
use bursty_rta::analysis::sensitivity::Oracle;
use bursty_rta::analysis::service::{AdmissionService, ServiceConfig};
use bursty_rta::analysis::wcdfp::Stopping;
use bursty_rta::daemon::{serve, ShardedService};
use bursty_rta::proto::{Request, Response, WcdfpJobLine, WcdfpSpec};
use bursty_rta::sim::wcdfp::{accumulate_range, DrawModel, WcdfpConfig};
use bursty_rta::textfmt::analyze_cold;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fleet::{self, ColdSample, Expect, Generator, Tenant};
use crate::layers;
use crate::loadgen::{drive, Run, Schedule};
use crate::report::{median, ratio, Metrics, Repeated};

/// Requests handed over per flush at most: a client pipelining a window of
/// this many requests.
pub const MAX_BATCH: usize = 32;

/// Passes of the stream in each loop, closed and open.
const PASSES: usize = 5;

/// Requests per segment, a whole number of [`MAX_BATCH`]es: between
/// segments the side samples are taken.
const SEGMENT_REQUESTS: usize = 256;

/// Fixed offered rate of the open loop, in requests per second.
pub const OFFERED_RATE: f64 = 1200.0;

/// Draws per tenant of the `WCDFP` requests that measure `draws_per_s`.
const SIDE_DRAWS: u64 = 1000;

/// Sampled `ADMIT`s whose cold analysis is timed for `sets_per_s`, per
/// segment, taken in turn from all of them.
const COLD_TIMED: usize = 32;

/// Render requests exactly as a client sends them.
pub fn render_all(reqs: &[Request]) -> Vec<String> {
    reqs.iter().map(|r| r.to_string()).collect()
}

/// A pooled service as `rta-admit --serve` builds it.
fn pooled() -> Arc<ShardedService> {
    Arc::new(ShardedService::with_pool_shards(ServiceConfig::default()))
}

/// Serve `sched` through `serve` on `svc`.
pub fn run_serve(svc: &Arc<ShardedService>, sched: &Schedule, keep: bool) -> Run {
    drive(sched, MAX_BATCH, keep, |feed, sink| serve(svc, feed, sink)).expect("in-memory serve")
}

/// Load `fleet` into `svc` through `LOAD` requests; returns the time taken.
pub fn load_fleet(svc: &Arc<ShardedService>, fleet: &[Tenant]) -> Duration {
    let sched = Schedule::back_to_back(render_all(&fleet::load_requests(fleet)));
    let run = run_serve(svc, &sched, true);
    let text = String::from_utf8(run.output).expect("utf-8 responses");
    for (line, t) in text.lines().zip(fleet) {
        assert!(
            line.starts_with(&format!("OK LOAD {} ", t.name))
                && line.contains("verdict=schedulable"),
            "LOAD {} answered {line}",
            t.name
        );
    }
    run.elapsed
}

/// Seed of the tenant fleet of `admit_churn`, the same for every run: the
/// cost of serving a fleet depends on its systems (the fixed-point tenants
/// set the latency tail), so a fleet drawn per seed would make every figure
/// depend on the seed more than on the program. `--seed` draws the stream.
const FLEET_SEED: u64 = 0xF1EE7;

/// The tenant fleet of `admit_churn`.
pub fn admit_churn_fleet() -> Vec<Tenant> {
    fleet::build_fleet(
        &fleet::admit_churn_shapes(),
        &mut StdRng::seed_from_u64(FLEET_SEED),
    )
}

/// A stream generator over `fleet`, seeded from `seed`.
fn generator(fleet: &[Tenant], seed: u64) -> Generator {
    Generator::new(fleet, StdRng::seed_from_u64(seed ^ 0x5EED), 10)
}

/// Requests in a stream for a run of `seconds`: the open loop takes about
/// 60% of the run at the offered rate.
pub fn stream_len(seconds: f64) -> usize {
    ((OFFERED_RATE * seconds * 0.6) as usize).max(200)
}

/// Outcome of the checks over one response stream.
#[derive(Default)]
pub struct Checked {
    /// Responses that are `ERR`. Each is also a mismatch: the dry run
    /// answered the same request without error.
    pub errors: u64,
    /// Mismatches against the dry run, the cold analysis or the sampler.
    pub mismatches: Vec<String>,
    /// Draws answered by `WCDFP` replies.
    pub draws: u64,
}

/// Check `output` (one line per request of `reqs`) against the dry run's
/// expectations, and every distinct `WCDFP` reply against a direct
/// sequential fold of the same draws.
pub fn check_stream(reqs: &[Request], expect: &[Expect], output: &[u8], out: &mut Checked) {
    let text = std::str::from_utf8(output).expect("utf-8 responses");
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != reqs.len() {
        out.mismatches.push(format!(
            "{} requests but {} responses",
            reqs.len(),
            lines.len()
        ));
        return;
    }
    let mut folded: HashSet<String> = HashSet::new();
    for (i, (req, line)) in reqs.iter().zip(&lines).enumerate() {
        let resp = match Response::parse(line) {
            Ok(r) => r,
            Err(e) => {
                out.mismatches
                    .push(format!("response {i} does not parse ({e}): {line}"));
                continue;
            }
        };
        if let Response::Err { .. } = resp {
            out.errors += 1;
            out.mismatches
                .push(format!("request {i}: dry run answered, daemon {line}"));
            continue;
        }
        match (&resp, &expect[i]) {
            (Response::Admitted { admitted, .. }, Expect::Admit(want))
            | (
                Response::Scaled {
                    schedulable: admitted,
                    ..
                },
                Expect::Scale(want),
            ) if admitted != want => {
                out.mismatches
                    .push(format!("request {i}: dry run {want}, daemon {line}"));
            }
            (Response::Admitted { .. }, Expect::Admit(_))
            | (Response::Scaled { .. }, Expect::Scale(_)) => {}
            (Response::Admitted { .. } | Response::Scaled { .. }, _) => {
                out.mismatches
                    .push(format!("request {i}: unexpected {line}"));
            }
            _ => {}
        }
        if let (Request::Wcdfp { spec, .. }, Response::Wcdfp { draws, jobs, .. }) = (req, &resp) {
            out.draws += draws;
            let Expect::Wcdfp(sys) = &expect[i] else {
                out.mismatches
                    .push(format!("request {i}: unexpected {line}"));
                continue;
            };
            if folded.insert(line.to_string()) && !wcdfp_reply_matches(sys, spec, *draws, jobs) {
                out.mismatches.push(format!(
                    "request {i}: WCDFP reply differs from a sequential fold: {line}"
                ));
            }
        }
    }
}

/// Whether a `WCDFP` reply's numbers equal a sequential fold of its draws.
fn wcdfp_reply_matches(
    sys: &bursty_rta::model::TaskSystem,
    spec: &WcdfpSpec,
    draws: u64,
    jobs: &[WcdfpJobLine],
) -> bool {
    let seed = match *spec {
        WcdfpSpec::Fixed { seed, .. } | WcdfpSpec::Adaptive { seed, .. } => seed,
    };
    let cfg = WcdfpConfig {
        base_seed: seed,
        sketches: false,
        ..WcdfpConfig::default()
    };
    let model = DrawModel::Arrivals(sys.clone());
    let mut accum = bursty_rta::analysis::wcdfp::WcdfpAccum::new(cfg.mode, sys.jobs().len());
    accumulate_range(&model, &cfg, 0, draws, &mut accum);
    let est = accum.estimates(cfg.confidence, cfg.ci);
    est.len() == jobs.len()
        && est.iter().zip(jobs).zip(sys.jobs()).all(|((e, j), job)| {
            j.name == job.name
                && e.p.to_bits() == j.p.to_bits()
                && e.lo.to_bits() == j.lo.to_bits()
                && e.hi.to_bits() == j.hi.to_bits()
        })
}

/// Sampled `ADMIT`s: the cold analysis of the tenant with the candidate in
/// place, under the tenant's pinned configuration, must give the dry run's
/// verdict (which the daemon's replies were checked against).
pub fn check_cold(samples: &[ColdSample], expect: &[Expect], out: &mut Checked) {
    for s in samples {
        let Expect::Admit(want) = expect[s.index] else {
            out.mismatches
                .push(format!("cold sample {} is not an ADMIT", s.index));
            continue;
        };
        match cold_verdict(s) {
            Ok(ok) if ok == want => {}
            Ok(ok) => out.mismatches.push(format!(
                "request {}: warm verdict {want}, cold analysis {ok}",
                s.index
            )),
            Err(e) => out
                .mismatches
                .push(format!("request {}: cold analysis failed: {e}", s.index)),
        }
    }
}

/// The cold verdict on a sampled `ADMIT`: `textfmt::analyze_cold`, or the
/// cold fixed-point analysis for an acyclic tenant on the fixed-point oracle
/// (`analyze_cold` runs the more pessimistic one-pass bounds there).
fn cold_verdict(s: &ColdSample) -> Result<bool, String> {
    match s.oracle {
        Oracle::Loops { max_rounds } if !s.cyclic => {
            analyze_with_loops(&s.system, &s.config, max_rounds)
                .map(|r| r.all_schedulable())
                .map_err(|e| e.to_string())
        }
        _ => analyze_cold(&s.system, &s.config).map(|(ok, _)| ok),
    }
}

/// One untraced run of `admit_churn`: every end-to-end metric.
///
/// The stream is served [`PASSES`] times back to back and [`PASSES`] times
/// open loop, each pass on its own freshly loaded service, so that request
/// `i` of every pass finds the same tenant state. The passes run one after
/// another, so the passes of one request lie seconds apart. After each
/// segment of [`SEGMENT_REQUESTS`] requests the fleet is loaded into a fresh
/// service (a set-up sample), which then answers the same `WCDFP` per tenant
/// (`draws_per_s`), and the next [`COLD_TIMED`] sampled `ADMIT`s, in turn,
/// are re-decided cold (`sets_per_s`). Every time is read from the least of
/// its repeats ([`Repeated`]): each 32-request closed-loop batch
/// (`capacity_rps`), each request's open-loop latency (`p50_us`, `p99_us`),
/// each `WCDFP` round and each cold sample. `setup_s` is the median set-up.
pub fn run_untraced(seed: u64, seconds: f64) -> (Metrics, bool, u64, u64) {
    let n = (stream_len(seconds) / PASSES).max(SEGMENT_REQUESTS);
    let fleet = admit_churn_fleet();
    let mut gen = generator(&fleet, seed);
    gen.extend(n);
    let lines = render_all(&gen.requests);
    let (side, side_expect) = gen.wcdfp_per_tenant(SIDE_DRAWS);
    let side_sched = Schedule::back_to_back(render_all(&side));
    let cold = gen.cold.len();
    let batches_per_segment = SEGMENT_REQUESTS / MAX_BATCH;

    let mut setup_s = Vec::new();
    let mut fresh = || {
        let svc = pooled();
        setup_s.push(load_fleet(&svc, &fleet).as_secs_f64());
        svc
    };
    let mut checked = Checked::default();
    let mut reference: Vec<u8> = Vec::new();
    let mut side_reference: Option<Vec<u8>> = None;
    let (mut batch_ns, mut latency_ns) = (Repeated::default(), Repeated::default());
    let (mut side_ns, mut cold_ns) = (Repeated::default(), Repeated::default());
    let (mut late_ns, mut idle, mut side_reqs) = (0u64, 0u64, 0u64);
    let mut cold_turn = 0;
    for pass in 0..PASSES {
        let (closed_svc, open_svc) = (fresh(), fresh());
        let (mut closed_out, mut open_out) = (Vec::new(), Vec::new());
        for (k, chunk) in lines.chunks(SEGMENT_REQUESTS).enumerate() {
            let first = k * SEGMENT_REQUESTS;
            let run = run_serve(&closed_svc, &Schedule::back_to_back(chunk.to_vec()), true);
            record_batches(&mut batch_ns, k * batches_per_segment, &run.latency_ns);
            closed_out.extend_from_slice(&run.output);

            let run = run_serve(
                &open_svc,
                &Schedule::fixed_rate(chunk.to_vec(), OFFERED_RATE),
                true,
            );
            for (i, &ns) in run.latency_ns.iter().enumerate() {
                latency_ns.record(first + i, ns);
            }
            late_ns += run.late_ns;
            idle += run.idle_handoffs;
            open_out.extend_from_slice(&run.output);

            // One `WCDFP` per tenant, served back to back on a freshly
            // loaded service; the first answers are checked against the
            // sampler, every later one must repeat them.
            let run = run_serve(&fresh(), &side_sched, true);
            side_ns.record(0, run.elapsed.as_nanos() as u64);
            side_reqs += side.len() as u64;
            match &side_reference {
                None => {
                    check_stream(&side, &side_expect, &run.output, &mut checked);
                    side_reference = Some(run.output);
                }
                Some(want) if *want != run.output => checked
                    .mismatches
                    .push("repeated WCDFP requests answered differently".into()),
                Some(_) => {}
            }
            // Tenant systems with a probe in place, analysed cold.
            for i in 0..COLD_TIMED.min(cold) {
                let j = (cold_turn + i) % cold;
                let t0 = Instant::now();
                std::hint::black_box(cold_verdict(&gen.cold[j])).ok();
                cold_ns.record(j, t0.elapsed().as_nanos() as u64);
            }
            cold_turn += COLD_TIMED;
        }
        if open_out != closed_out {
            checked.mismatches.push(format!(
                "pass {pass}: open-loop and closed-loop response streams differ"
            ));
        }
        if pass == 0 {
            reference = closed_out;
        } else if closed_out != reference {
            checked
                .mismatches
                .push(format!("pass {pass} answered differently from pass 0"));
        }
    }
    check_stream(&gen.requests, &gen.expect, &reference, &mut checked);
    check_cold(&gen.cold, &gen.expect, &mut checked);
    for m in checked.mismatches.iter().take(10) {
        eprintln!("mismatch: {m}");
    }

    let setups = setup_s.len();
    let mut m = Metrics::default();
    m.set("setup_s", median(setup_s), "s");
    m.set("p50_us", latency_ns.quantile(0.50) / 1e3, "us");
    m.set("p99_us", latency_ns.quantile(0.99) / 1e3, "us");
    m.set("capacity_rps", n as f64 / batch_ns.total_s(), "1/s");
    m.set("draws_per_s", checked.draws as f64 / side_ns.total_s(), "1/s");
    m.set(
        "sets_per_s",
        if cold == 0 {
            0.0
        } else {
            cold as f64 / cold_ns.total_s()
        },
        "1/s",
    );
    eprintln!(
        "admit_churn: {n} requests, {PASSES} passes each closed and open loop, {} tenants, \
         open loop at {OFFERED_RATE} req/s ({n} latency samples), late hand-offs {:.2} us; \
         {setups} set-ups; {cold} cold samples ({COLD_TIMED} timed per segment, in turn); \
         {} draws per WCDFP round",
        fleet.len(),
        ratio(late_ns as f64, idle as f64) / 1e3,
        checked.draws
    );
    let attempted = 2 * (PASSES * n) as u64 + side_reqs;
    (m, checked.mismatches.is_empty(), attempted, checked.errors)
}

/// Record the batch times of a back-to-back run whose batches are items
/// `first..`: every request is due at once, so batch `b` ends at its last
/// request's response and starts at the previous batch's.
fn record_batches(batch_ns: &mut Repeated, first: usize, done_ns: &[u64]) {
    let mut start = 0;
    for (b, batch) in done_ns.chunks(MAX_BATCH).enumerate() {
        let end = *batch.last().expect("non-empty batch");
        batch_ns.record(first + b, end - start);
        start = end;
    }
}

/// Requests per chunk of the traced run's interleaved passes.
const CHUNK: usize = 50;

/// One traced run over a fleet: every per-layer metric but the
/// figure-sweep ones. `own_stream` adds an `admit_churn` stream before the
/// probe pass; without it only the probe pass runs.
pub fn run_traced(
    own_stream: bool,
    fleet: Vec<Tenant>,
    seed: u64,
    seconds: f64,
    spans_path: &std::path::Path,
) -> (Metrics, bool, u64, u64) {
    let mut gen = generator(&fleet, seed);
    if own_stream {
        gen.extend((stream_len(seconds) / 3).max(200));
    }
    let own_lines = render_all(&gen.requests);
    // At least one probe pass, and enough of them to give the traced and
    // untraced passes a thousand requests to compare.
    gen.probe_pass();
    while gen.requests.len() < 1000 {
        gen.probe_pass();
    }
    let lines = render_all(&gen.requests);
    let mut checked = Checked::default();

    // The daemon's own loop on one shard (which keeps every request on the
    // calling thread, like the passes), the traced pass and the same pass
    // untraced, interleaved chunk by chunk in rotating order so that
    // machine noise falls on all three alike.
    let one = Arc::new(ShardedService::new(ServiceConfig::default(), 1));
    load_fleet(&one, &fleet);
    let mut passes = layers::Passes::new(&fleet);
    let (mut reference, mut traced) = (Vec::new(), String::new());
    let (mut reference_ns, mut plain_ns) = (0u128, 0u128);
    for (k, chunk) in lines.chunks(CHUNK).enumerate() {
        for step in 0..3 {
            match (k + step) % 3 {
                0 => {
                    let run = run_serve(&one, &Schedule::back_to_back(chunk.to_vec()), true);
                    reference_ns += run.elapsed.as_nanos();
                    reference.extend_from_slice(&run.output);
                }
                1 => traced.push_str(&passes.traced(k * CHUNK, chunk)),
                _ => plain_ns += passes.untraced(chunk),
            }
        }
    }
    let n = lines.len() as f64;
    let (untraced_ns, plain_ns) = (reference_ns as f64 / n, plain_ns as f64 / n);
    check_stream(&gen.requests, &gen.expect, &reference, &mut checked);
    check_cold(&gen.cold, &gen.expect, &mut checked);
    if traced.as_bytes() != reference.as_slice() {
        checked
            .mismatches
            .push("traced pass answers differ from the daemon's".into());
    }
    let replay = passes.session_replay(&gen.requests, &gen.expect, &mut checked.mismatches);

    // Open loop on the pooled daemon for batching, queueing and lateness.
    let open_lines = if own_stream { own_lines } else { lines.clone() };
    let svc = pooled();
    load_fleet(&svc, &fleet);
    let open = run_serve(&svc, &Schedule::fixed_rate(open_lines, OFFERED_RATE), false);

    let mut m = passes.stream_metrics(untraced_ns, plain_ns, &mut checked.mismatches);
    m.extend(replay);
    m.extend(passes.probe_layers());
    m.set(
        "daemon.batch_size",
        open.latency_ns.len() as f64 / open.batches as f64,
        "count",
    );
    m.set(
        "daemon.queue_us",
        open.queue_ns.iter().sum::<u64>() as f64 / open.queue_ns.len() as f64 / 1e3,
        "us",
    );
    m.set("loadgen.late_us", open.late_us(), "us");
    let generated: Vec<f64> = fleet
        .iter()
        .filter(|t| t.gen_ns > 0)
        .map(|t| t.gen_ns as f64)
        .collect();
    m.set(
        "model.gen_ns",
        ratio(generated.iter().sum(), generated.len() as f64),
        "ns",
    );
    if let Err(e) = passes.write_spans(spans_path) {
        eprintln!("could not write spans to {}: {e}", spans_path.display());
    }
    for msg in checked.mismatches.iter().take(10) {
        eprintln!("mismatch: {msg}");
    }
    let attempted = 3 * lines.len() as u64;
    (m, checked.mismatches.is_empty(), attempted, checked.errors)
}

/// The `WCDFP` dispatch of the daemon, repeated for the traced pass so the
/// sampler's time gets its own span.
pub fn wcdfp_response(svc: &AdmissionService, tenant: &str, spec: &WcdfpSpec) -> Response {
    let Some(sys) = svc.tenant_system(tenant) else {
        return Response::Err {
            message: format!("unknown tenant '{tenant}'"),
        };
    };
    let model = DrawModel::Arrivals(sys.clone());
    let base = |seed: u64| WcdfpConfig {
        base_seed: seed,
        sketches: false,
        ..WcdfpConfig::default()
    };
    let rep = match *spec {
        WcdfpSpec::Fixed { draws, seed } => {
            bursty_rta::sim::wcdfp::estimate_fixed(&model, &base(seed), draws)
        }
        WcdfpSpec::Adaptive {
            tolerance,
            max_draws,
            seed,
        } => {
            let stop = Stopping {
                tolerance,
                confidence: 0.95,
                threshold: None,
            };
            bursty_rta::sim::wcdfp::estimate_adaptive(&model, &base(seed), &stop, max_draws)
        }
    };
    Response::Wcdfp {
        tenant: tenant.to_string(),
        draws: rep.draws,
        converged: rep.converged,
        jobs: rep
            .names
            .iter()
            .zip(&rep.estimates)
            .map(|(name, e)| WcdfpJobLine {
                name: name.clone(),
                p: e.p,
                lo: e.lo,
                hi: e.hi,
            })
            .collect(),
    }
}
