//! `load_gen` — synthetic tenant request streams against the resident
//! admission service.
//!
//! Loads a fleet of warm tenants (deterministic job-shop systems), then
//! replays a mixed stream of `ADMIT` probes, `REMOVE` rollbacks, and
//! periodic `STATS` reads through [`ShardedService::apply_batch`] — the
//! same dispatch path the daemon's serve loop uses. Writes
//! `BENCH_service.json` with the gate-tracked `service/requests_per_sec`
//! row (as ns/request, the harness's lower-is-better unit; the req/s
//! figure is printed) plus `service/latency_p50` and
//! `service/latency_p99` — per-request latency quantiles (each request
//! charged its batch's mean), read exactly from the histogram type the
//! WCDFP engine uses, so tail latency is gated alongside throughput —
//! and hard-fails below the 10k req/s floor.
//!
//! Usage: `cargo run --release --bin load_gen [-- --duration S]`
//! (`--seconds` is accepted as an alias.)

use std::sync::Arc;
use std::time::Instant;

use bursty_rta::analysis::service::ServiceConfig;
use bursty_rta::daemon::ShardedService;
use bursty_rta::proto::{Request, Response};
use bursty_rta::textfmt::{HopSpec, JobDraft};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_bench::harness::Bench;
use rta_core::wcdfp::Histogram;
use rta_curves::Time;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{ArrivalPattern, SchedulerKind, TaskSystem};

const TENANTS: usize = 8;
const MIN_REQ_PER_SEC: f64 = 10_000.0;

fn tenant_system(seed: u64) -> TaskSystem {
    let cfg = ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 6,
        scheduler: SchedulerKind::Spp,
        utilization: 0.5,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 4.0,
        },
        x_min: 0.2,
        ticks_per_unit: 500,
    };
    let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

/// A light two-hop probe job; the exec demand cycles so verdicts exercise
/// both the memo table and fresh warm analyses, like a real mixed fleet.
fn candidate(round: u64) -> JobDraft {
    JobDraft {
        name: format!("probe{round}"),
        deadline: 50_000,
        arrival: ArrivalPattern::Periodic {
            period: Time(25_000),
            offset: Time(0),
        },
        hops: vec![
            HopSpec {
                processor: "S1P1".into(),
                exec: 1 + (round as i64 * 7) % 13,
                priority: None,
                weight: None,
            },
            HopSpec {
                processor: "S2P1".into(),
                exec: 1 + (round as i64 * 5) % 11,
                priority: None,
                weight: None,
            },
        ],
    }
}

fn batch_for(round: u64, tenants: &[String]) -> Vec<Request> {
    let mut reqs = Vec::with_capacity(tenants.len() * 3);
    for tenant in tenants {
        reqs.push(Request::Admit {
            tenant: tenant.clone(),
            job: candidate(round),
        });
        reqs.push(Request::Remove {
            tenant: tenant.clone(),
            job: format!("probe{round}"),
        });
        if round.is_multiple_of(8) {
            reqs.push(Request::Stats {
                tenant: tenant.clone(),
            });
        }
    }
    reqs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seconds: f64 = match args.as_slice() {
        [] => 1.0,
        [flag, s] if flag == "--duration" || flag == "--seconds" => {
            s.parse().expect("bad duration value")
        }
        _ => {
            eprintln!("usage: load_gen [--duration S]");
            std::process::exit(2);
        }
    };

    let svc = Arc::new(ShardedService::new(ServiceConfig::default(), TENANTS));
    let tenants: Vec<String> = (0..TENANTS).map(|i| format!("tenant{i}")).collect();
    for (i, tenant) in tenants.iter().enumerate() {
        let out = svc.load_full(tenant, tenant_system(i as u64)).unwrap();
        assert!(
            out.schedulable,
            "{tenant}: baseline system must be schedulable"
        );
    }
    println!(
        "loaded {} warm tenants across {} shard(s)",
        svc.tenant_count(),
        svc.shard_count()
    );

    // Warm the sessions and the verdict paths before timing.
    for round in 0..4 {
        svc.apply_batch(batch_for(round, &tenants));
    }

    let mut total: u64 = 0;
    let mut admitted: u64 = 0;
    let mut errors: u64 = 0;
    let mut round: u64 = 100;
    // Per-request latency in an exact histogram (the WCDFP engine's
    // response type). A batch is timed as one dispatch (that is the
    // daemon's unit of work) and each request in it is charged the batch
    // mean, in whole nanoseconds.
    let mut latency = Histogram::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let reqs = batch_for(round, &tenants);
        let len = reqs.len() as u64;
        total += len;
        let t0 = Instant::now();
        let resps = svc.apply_batch(reqs);
        latency.add(t0.elapsed().as_nanos() as i64 / len as i64, len);
        for resp in resps {
            match resp {
                Response::Admitted { admitted: true, .. } => admitted += 1,
                Response::Err { .. } => errors += 1,
                _ => {}
            }
        }
        round += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let req_per_sec = total as f64 / elapsed;
    let ns_per_req = elapsed * 1e9 / total as f64;
    println!(
        "{total} requests in {elapsed:.2}s across {TENANTS} tenants: \
         {req_per_sec:.0} req/s ({ns_per_req:.0} ns/request), \
         {admitted} admitted, {errors} errors"
    );
    assert!(
        admitted > 0,
        "stream sanity: no probe was ever admitted — candidate shape is wrong"
    );

    let quantile = |q| latency.quantile(q).expect("latency histogram is non-empty") as f64;
    let (lat50, lat99) = (quantile(0.5), quantile(0.99));
    println!("request latency: p50 {lat50:.0} ns, p99 {lat99:.0} ns");

    let mut b = Bench::new();
    b.record("service/requests_per_sec", total, ns_per_req);
    b.record("service/latency_p50", total, lat50);
    b.record("service/latency_p99", total, lat99);
    let json = b.to_json(&[
        ("suite", "BENCH_service"),
        ("package", "bursty-rta"),
        ("profile", "release"),
        ("tenants", "8"),
    ]);
    std::fs::write("BENCH_service.json", &json).expect("write BENCH_service.json");
    println!(
        "wrote BENCH_service.json ({} benchmarks)",
        b.results().len()
    );

    if req_per_sec < MIN_REQ_PER_SEC {
        eprintln!(
            "load_gen: FAIL — {req_per_sec:.0} req/s is below the {MIN_REQ_PER_SEC:.0} req/s floor"
        );
        std::process::exit(1);
    }
}
