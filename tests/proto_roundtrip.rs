//! Protocol properties: every request/response line form round-trips
//! through its grammar (`Display` ∘ `parse` = id), and the serve loop
//! answers junk with `ERR` — in order, without dying, and without wedging
//! the tenant sessions it serves.

use std::io::{self, BufReader, Read};
use std::sync::Arc;

use bursty_rta::analysis::service::ServiceConfig;
use bursty_rta::curves::Time;
use bursty_rta::daemon::{serve, ShardedService, MAX_BATCH_REQUESTS, MAX_LINE_BYTES};
use bursty_rta::model::ArrivalPattern;
use bursty_rta::proto::{Request, Response, WcdfpJobLine, WcdfpSpec, MAX_LOAD_BYTES};
use bursty_rta::textfmt::{HopSpec, JobDraft};
use proptest::prelude::*;

// ---- generators --------------------------------------------------------

fn arb_name() -> impl Strategy<Value = String> {
    (0u64..1_000_000).prop_map(|mut n| {
        let mut s = String::new();
        for _ in 0..4 {
            s.push((b'a' + (n % 26) as u8) as char);
            n /= 26;
        }
        s
    })
}

fn arb_arrival() -> impl Strategy<Value = ArrivalPattern> {
    prop_oneof![
        (1i64..100_000, 0i64..1000).prop_map(|(p, o)| ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time(o),
        }),
        (1i64..100_000, 0i64..500, 0i64..500).prop_map(|(p, j, o)| {
            ArrivalPattern::PeriodicJitter {
                period: Time(p),
                jitter: Time(j),
                offset: Time(o),
            }
        }),
        (1u64..1000, 1i64..10_000).prop_map(|(x, tpu)| ArrivalPattern::Hyperbolic {
            x: x as f64 / 1000.0,
            ticks_per_unit: tpu,
        }),
        (1u64..20, 0i64..50, 1i64..10_000, 0i64..100).prop_map(|(len, gap, period, off)| {
            ArrivalPattern::BurstTrain {
                burst_len: len as u32,
                intra_gap: Time(gap),
                train_period: Time(period),
                offset: Time(off),
            }
        }),
        (1i64..10_000).prop_map(|g| ArrivalPattern::SporadicEnvelope { min_gap: Time(g) }),
        prop::collection::vec(0i64..10_000, 1..5).prop_map(|mut ts| {
            ts.sort_unstable();
            ArrivalPattern::Trace(ts.into_iter().map(Time).collect())
        }),
    ]
}

fn arb_hop() -> impl Strategy<Value = HopSpec> {
    (arb_name(), 1i64..1000, 0u64..3, 1u64..9).prop_map(|(processor, exec, tag, v)| HopSpec {
        processor,
        exec,
        priority: (tag == 1).then_some(v as u32),
        weight: (tag == 2).then_some(v as u32),
    })
}

fn arb_draft() -> impl Strategy<Value = JobDraft> {
    (
        arb_name(),
        1i64..1_000_000,
        arb_arrival(),
        prop::collection::vec(arb_hop(), 0..3),
    )
        .prop_map(|(name, deadline, arrival, hops)| JobDraft {
            name,
            deadline,
            arrival,
            hops,
        })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_name(), prop::collection::vec(arb_name(), 0..4)).prop_map(|(tenant, lines)| {
            Request::Load {
                tenant,
                system: lines
                    .iter()
                    .map(|n| format!("processor {n} spp"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            }
        }),
        (arb_name(), arb_draft()).prop_map(|(tenant, job)| Request::Admit { tenant, job }),
        (arb_name(), arb_name()).prop_map(|(tenant, job)| Request::Remove { tenant, job }),
        (arb_name(), 0.001f64..1000.0)
            .prop_map(|(tenant, factor)| Request::Scale { tenant, factor }),
        (
            arb_name(),
            0.01f64..2.0,
            2.0f64..64.0,
            1u64..40,
            (1u64..10, 1u64..20, 1u64..12),
        )
            .prop_map(
                |(tenant, scale_lo, scale_hi, scale_steps, (blo, bspan, bsteps))| {
                    Request::Region {
                        tenant,
                        scale_lo,
                        scale_hi,
                        scale_steps: scale_steps as usize,
                        burst_lo: blo as u32,
                        burst_hi: (blo + bspan) as u32,
                        burst_steps: bsteps as usize,
                    }
                }
            ),
        arb_name().prop_map(|tenant| Request::Stats { tenant }),
        (arb_name(), arb_wcdfp_spec()).prop_map(|(tenant, spec)| Request::Wcdfp { tenant, spec }),
        arb_name().prop_map(|tenant| Request::Evict { tenant }),
        Just(Request::Ping),
    ]
}

fn arb_wcdfp_spec() -> impl Strategy<Value = WcdfpSpec> {
    prop_oneof![
        (1u64..1_000_000, 0u64..9999).prop_map(|(draws, seed)| WcdfpSpec::Fixed { draws, seed }),
        (0.0001f64..0.5, 1u64..1_000_000, 0u64..9999).prop_map(|(tolerance, max_draws, seed)| {
            WcdfpSpec::Adaptive {
                tolerance,
                max_draws,
                seed,
            }
        }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (arb_name(), 0u64..9999, 0u64..50, any::<bool>(), 0u64..3).prop_map(
            |(tenant, generation, jobs, schedulable, ev)| Response::Loaded {
                tenant: tenant.clone(),
                generation,
                jobs: jobs as usize,
                schedulable,
                evicted: (ev == 1).then(|| format!("old{tenant}")),
            }
        ),
        (arb_name(), 0u64..9999, arb_name(), any::<bool>(), 0u64..50).prop_map(
            |(tenant, generation, job, admitted, jobs)| Response::Admitted {
                tenant,
                generation,
                job,
                admitted,
                jobs: jobs as usize,
            }
        ),
        (arb_name(), 0u64..9999, arb_name(), 0u64..50).prop_map(
            |(tenant, generation, job, jobs)| Response::Removed {
                tenant,
                generation,
                job,
                jobs: jobs as usize,
            }
        ),
        (arb_name(), 0u64..9999, 0.001f64..100.0, any::<bool>()).prop_map(
            |(tenant, generation, factor, schedulable)| Response::Scaled {
                tenant,
                generation,
                factor,
                schedulable,
            }
        ),
        (
            arb_name(),
            prop::collection::vec(0.01f64..64.0, 0..5),
            prop::collection::vec((1u64..30, 0u64..2, 0.01f64..64.0), 0..5),
        )
            .prop_map(|(tenant, scales, raw_rows)| Response::RegionMap {
                tenant,
                scales,
                rows: raw_rows
                    .into_iter()
                    .map(|(b, has, f)| (b as u32, (has == 1).then_some(f)))
                    .collect(),
            }),
        (
            (arb_name(), 0u64..9999, 0u64..50),
            (0u64..999, 0u64..999, 0u64..999),
            (0u64..999, 0u64..999, 0u64..999),
            (0u64..9999, 0u64..64),
        )
            .prop_map(
                |(
                    (tenant, generation, jobs),
                    (analyses, recomputed, reused),
                    (verdict_hits, verdict_misses, warm_starts),
                    (interned, tenants),
                )| Response::Stats {
                    tenant,
                    generation,
                    jobs: jobs as usize,
                    analyses,
                    recomputed,
                    reused,
                    verdict_hits,
                    verdict_misses,
                    warm_starts,
                    interned: interned as usize,
                    tenants: tenants as usize,
                }
            ),
        (
            arb_name(),
            0u64..1_000_000,
            any::<bool>(),
            prop::collection::vec((arb_name(), 0.0f64..1.0, 0.0f64..0.5, 0.5f64..1.0), 0..5),
        )
            .prop_map(|(tenant, draws, converged, raw)| Response::Wcdfp {
                tenant,
                draws,
                converged,
                jobs: raw
                    .into_iter()
                    .map(|(name, p, lo, hi)| WcdfpJobLine { name, p, lo, hi })
                    .collect(),
            }),
        (arb_name(), any::<bool>())
            .prop_map(|(tenant, existed)| Response::Evicted { tenant, existed }),
        Just(Response::Pong),
        arb_name().prop_map(|w| Response::Err {
            message: format!("something {w} failed"),
        }),
    ]
}

fn roundtrip_request(req: &Request) -> Request {
    let text = req.to_string();
    let mut lines = text.lines();
    let first = lines.next().expect("rendered request has a first line");
    let rest: Vec<String> = lines.map(str::to_string).collect();
    let mut idx = 0;
    Request::parse(first, || {
        let line = rest.get(idx).cloned();
        idx += 1;
        line
    })
    .unwrap_or_else(|e| panic!("re-parse failed for {text:?}: {e}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse(render(request)) == request` for every request form.
    #[test]
    fn request_lines_round_trip(req in arb_request()) {
        prop_assert_eq!(roundtrip_request(&req), req);
    }

    /// `parse(render(response)) == response` for every response form,
    /// floats included (shortest-repr `Display` inverts exactly).
    #[test]
    fn response_lines_round_trip(resp in arb_response()) {
        let line = resp.to_string();
        let back = Response::parse(&line)
            .unwrap_or_else(|e| panic!("re-parse failed for {line:?}: {e}"));
        prop_assert_eq!(back, resp);
    }
}

// ---- junk-input behaviour of the serve loop ----------------------------

fn serve_lines(input: &str) -> Vec<String> {
    let svc = Arc::new(ShardedService::new(ServiceConfig::default(), 2));
    let mut out = Vec::new();
    serve(&svc, input.as_bytes(), &mut out).expect("in-memory serve cannot fail");
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn junk_gets_err_in_order_and_sessions_survive() {
    let input = "\
!!! garbage
PING
LOAD t 2
processor P1 spp
job A deadline 50 periodic 20 0 hop P1 5
FROB t
ADMIT t job B deadline 100 periodic 50 0 hop P1 3
ADMIT t job X deadline 100 periodic 50 0 hop P9 3
ADMIT t job C deadline 200 periodic 100 0 hop P1 1
LOAD t 2
processor P1 spp
job Z deadline 50 periodic 0 0 hop P1 5
ADMIT t job Y deadline 100 periodic 0 0 hop P1 3
PING
ADMIT t job D deadline 400 periodic 200 0 hop P1 1
";
    let lines = serve_lines(input);
    assert_eq!(lines.len(), 11, "one response per request: {lines:#?}");
    assert!(lines[0].starts_with("ERR "), "{}", lines[0]);
    assert_eq!(lines[1], "PONG");
    assert_eq!(lines[2], "OK LOAD t gen=1 jobs=1 verdict=schedulable");
    assert!(lines[3].starts_with("ERR "), "{}", lines[3]);
    assert_eq!(lines[4], "OK ADMIT t gen=2 job=B verdict=admitted jobs=2");
    assert!(
        lines[5].starts_with("ERR ") && lines[5].contains("P9"),
        "bad hop must name the unknown processor: {}",
        lines[5]
    );
    // The tenant session took more work after two failures — not wedged.
    assert_eq!(lines[6], "OK ADMIT t gen=3 job=C verdict=admitted jobs=3");
    // A zero period, in a LOAD payload or an inline ADMIT job, is a parse
    // error: the daemon answers it and the tenant keeps its system.
    for line in &lines[7..9] {
        assert!(
            line.starts_with("ERR ") && line.contains("bad period"),
            "{line}"
        );
    }
    assert_eq!(lines[9], "PONG");
    assert_eq!(lines[10], "OK ADMIT t gen=4 job=D verdict=admitted jobs=4");
}

#[test]
fn truncated_load_payload_is_an_err_not_a_hang() {
    let lines = serve_lines("LOAD t 5\nprocessor P1 spp\n");
    assert_eq!(lines.len(), 1);
    assert!(
        lines[0].starts_with("ERR ") && lines[0].contains("truncated"),
        "{}",
        lines[0]
    );
}

#[test]
fn quit_flushes_pending_batch_and_stops() {
    let lines = serve_lines("PING\nQUIT\nPING\n");
    assert_eq!(lines, vec!["PONG".to_string()]);
}

#[test]
fn blank_lines_flush_batches_between_responses() {
    let lines = serve_lines("PING\n\nPING\nPING\n\n");
    assert_eq!(lines, vec!["PONG".to_string(); 3]);
}

#[test]
fn errors_never_leak_across_tenants() {
    // Tenant `a` takes junk and failing requests; tenant `b` must keep
    // serving correct verdicts from its warm session throughout.
    let input = "\
LOAD a 2
processor P1 spp
job A deadline 50 periodic 20 0 hop P1 5
LOAD b 2
processor Q1 spp
job B deadline 60 periodic 30 0 hop Q1 6
SCALE a nonsense
REMOVE a ghost
ADMIT b job C deadline 120 periodic 60 0 hop Q1 2
";
    let lines = serve_lines(input);
    assert_eq!(lines.len(), 5, "{lines:#?}");
    assert!(lines[0].starts_with("OK LOAD a "), "{}", lines[0]);
    assert!(lines[1].starts_with("OK LOAD b "), "{}", lines[1]);
    assert!(lines[2].starts_with("ERR "), "{}", lines[2]);
    assert!(lines[3].starts_with("ERR "), "{}", lines[3]);
    assert!(
        lines[4].starts_with("OK ADMIT b ") && lines[4].contains("verdict=admitted"),
        "{}",
        lines[4]
    );
}

#[test]
fn region_on_a_cyclic_spp_tenant_uses_its_fixpoint_oracle() {
    // The crossed-priority figure-eight: all-SPP, so the exact oracle is
    // the first pick, but its dependency graph is cyclic and LOAD falls
    // back to the fixed point. REGION must explore under that fallback,
    // not re-pick the exact oracle and fail on the cycle.
    let input = "\
LOAD eight 4
processor P1 spp
processor P2 spp
job T1 deadline 200 periodic 40 0 hop P1 4 prio 2 hop P2 4 prio 1
job T2 deadline 200 periodic 40 0 hop P2 4 prio 2 hop P1 4 prio 1
REGION eight 0.5 1.5 3 1 4 4
";
    let lines = serve_lines(input);
    assert_eq!(lines.len(), 2, "{lines:#?}");
    assert!(lines[0].starts_with("OK LOAD eight "), "{}", lines[0]);
    assert!(lines[1].starts_with("OK REGION eight "), "{}", lines[1]);
}

#[test]
fn consecutive_hops_on_one_fcfs_processor_fall_back_to_the_fixpoint() {
    // A job visiting the same FCFS processor twice in a row makes its
    // first hop's context read its own departure — a physical loop. LOAD
    // must answer through the fixed-point fallback, and the daemon must
    // keep serving.
    let input = "\
LOAD t 3
processor P1 fcfs
job T1 deadline 60 periodic 30 0 hop P1 3 hop P1 4
job T2 deadline 60 periodic 20 0 hop P1 2
ADMIT t job X deadline 100 periodic 50 0 hop P1 1
PING
";
    let lines = serve_lines(input);
    assert_eq!(lines.len(), 3, "{lines:#?}");
    assert!(lines[0].starts_with("OK LOAD t "), "{}", lines[0]);
    assert!(lines[1].starts_with("OK ADMIT t "), "{}", lines[1]);
    assert_eq!(lines[2], "PONG");
}

#[test]
fn oversize_line_answers_err_and_leaves_the_tenant_unchanged() {
    // An ADMIT head and a LOAD payload line past the cap: each answers
    // `ERR` in order, the rest of the line is discarded rather than read as
    // requests, the LOAD keeps its framing, and tenant `t` keeps its
    // generation and jobs.
    let padding = " ".repeat(MAX_LINE_BYTES);
    let input = format!(
        "\
LOAD t 2
processor P1 spp
job A deadline 50 periodic 20 0 hop P1 5
ADMIT t job B deadline 100 periodic 50 0 hop P1 3{padding}
PING
LOAD t 2
processor P1 spp{padding}
job Z deadline 50 periodic 20 0 hop P1 5
ADMIT t job C deadline 200 periodic 100 0 hop P1 1
"
    );
    let lines = serve_lines(&input);
    assert_eq!(lines.len(), 5, "{lines:#?}");
    assert_eq!(lines[0], "OK LOAD t gen=1 jobs=1 verdict=schedulable");
    assert!(lines[1].starts_with("ERR line too long"), "{}", lines[1]);
    assert_eq!(lines[2], "PONG");
    assert!(lines[3].starts_with("ERR line too long"), "{}", lines[3]);
    assert_eq!(lines[4], "OK ADMIT t gen=2 job=C verdict=admitted jobs=2");
    // A line that is not UTF-8 is refused the same way.
    let svc = Arc::new(ShardedService::new(ServiceConfig::default(), 2));
    let mut out = Vec::new();
    serve(&svc, &b"PI\xffNG\nPING\n"[..], &mut out).expect("in-memory serve cannot fail");
    assert_eq!(
        String::from_utf8(out).unwrap(),
        "ERR line is not valid UTF-8\nPONG\n"
    );
}

#[test]
fn over_budget_load_answers_err_and_leaves_the_tenant_unchanged() {
    // A LOAD whose payload passes the byte budget is read to its announced
    // end without being stored: it answers `ERR` in order, the PING after
    // it `PONG`, and tenant `t` keeps its generation and jobs.
    let line = format!("# {}", "x".repeat(MAX_LINE_BYTES / 2));
    let n = MAX_LOAD_BYTES / line.len() + 2;
    let payload = vec![line; n].join("\n");
    let input = format!(
        "\
LOAD t 2
processor P1 spp
job A deadline 50 periodic 20 0 hop P1 5
LOAD t {n}
{payload}
PING
ADMIT t job C deadline 200 periodic 100 0 hop P1 1
"
    );
    let lines = serve_lines(&input);
    assert_eq!(lines.len(), 4, "{lines:#?}");
    assert_eq!(lines[0], "OK LOAD t gen=1 jobs=1 verdict=schedulable");
    assert_eq!(
        lines[1],
        format!("ERR LOAD payload too large (over {MAX_LOAD_BYTES} bytes)")
    );
    assert_eq!(lines[2], "PONG");
    assert_eq!(lines[3], "OK ADMIT t gen=2 job=C verdict=admitted jobs=2");
}

#[test]
fn window_overflow_load_answers_err_and_leaves_no_tenant() {
    // A period of 2⁶¹ ticks wraps a window of four periods. The LOAD is
    // refused with the overflow, the daemon keeps serving, and no tenant
    // `w` is left behind. A resident tenant offered such a job answers the
    // ADMIT and a WCDFP, and the daemon keeps serving.
    let input = "\
LOAD w 5
processor P iwrr
job a deadline 100 periodic 2305843009213693952 0
hop P 5
job b deadline 100 periodic 100 0
hop P 1
PING
STATS w
LOAD t 2
processor P1 iwrr
job A deadline 50 periodic 20 0 hop P1 5
ADMIT t job C deadline 200 periodic 2305843009213693952 0 hop P1 1
WCDFP t fixed 10 1
PING
";
    let lines = serve_lines(input);
    assert_eq!(lines.len(), 7, "{lines:#?}");
    let overflow = "the arrival window overflows the 64-bit tick range";
    assert_eq!(
        lines[0],
        format!("ERR analysis failed: model error: {overflow}")
    );
    assert_eq!(lines[1], "PONG");
    assert_eq!(lines[2], "ERR unknown tenant 'w'");
    assert_eq!(lines[3], "OK LOAD t gen=1 jobs=1 verdict=schedulable");
    assert!(lines[4].starts_with("OK ADMIT t ") || lines[4].starts_with("ERR "));
    assert!(lines[5].starts_with("OK WCDFP t ") || lines[5].starts_with("ERR "));
    assert_eq!(lines[6], "PONG");
}

#[test]
fn largest_iwrr_weight_is_simulated_and_the_daemon_keeps_serving() {
    // A weight of u32::MAX makes a round of about 4·10⁹ cycles, in all but
    // the first of which only flow `a` is eligible: the WCDFP draws
    // dispatch `b` without walking those cycles or holding a slot per
    // cycle, and the daemon answers the PING after them.
    let input = "\
LOAD h 3
processor P iwrr
job a deadline 100 periodic 20 0 hop P 2 weight 4294967295
job b deadline 100 periodic 20 0 hop P 3
WCDFP h fixed 20 1
PING
";
    let lines = serve_lines(input);
    assert_eq!(lines.len(), 3, "{lines:#?}");
    assert!(
        lines[0].starts_with("OK LOAD h gen=1 jobs=2 "),
        "{}",
        lines[0]
    );
    assert!(lines[1].starts_with("OK WCDFP h draws=20 "), "{}", lines[1]);
    assert_eq!(lines[2], "PONG");
}

/// A reader that fails: the stream behind the last line never ends
/// cleanly, so only responses the serve loop flushed on its own come out.
struct Broken;

impl Read for Broken {
    fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
        Err(io::Error::new(io::ErrorKind::ConnectionReset, "peer gone"))
    }
}

#[test]
fn batch_past_the_cap_is_flushed_without_a_blank_line() {
    // `2·cap + 3` requests and no blank line: the first two full batches
    // are answered in order before the stream breaks; the partial third
    // batch dies with the connection.
    let requests = "PING\n".repeat(2 * MAX_BATCH_REQUESTS + 3);
    let svc = Arc::new(ShardedService::new(ServiceConfig::default(), 2));
    let mut out = Vec::new();
    let input = BufReader::new(requests.as_bytes().chain(Broken));
    assert!(serve(&svc, input, &mut out).is_err());
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines, vec!["PONG"; 2 * MAX_BATCH_REQUESTS]);
    // With a clean end, every request is answered in order.
    let lines = serve_lines(&requests);
    assert_eq!(lines, vec!["PONG".to_string(); 2 * MAX_BATCH_REQUESTS + 3]);
}
