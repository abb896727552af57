//! `rta-admit` — admission control for distributed job-chain systems, as a
//! one-shot analyzer or a resident daemon.
//!
//! ```text
//! Usage: rta-admit <file> [<file> …]     analyze system descriptions
//!        rta-admit --wcdfp <file> […]    Monte-Carlo deadline-failure probability
//!        rta-admit --serve               serve the line protocol on stdin/stdout
//!        rta-admit --serve-unix <path>   serve the line protocol on a unix socket
//!        rta-admit --example             print an annotated example file
//! ```
//!
//! Both modes run the same service core
//! ([`bursty_rta::analysis::service::AdmissionService`] behind
//! [`bursty_rta::daemon::ShardedService`]): a one-shot run loads each file
//! as a throwaway tenant and prints its report; the daemon keeps tenants'
//! `AnalysisSession`s warm between requests and answers `ADMIT` probes via
//! the delta API. The file format and the protocol grammar are documented
//! in [`bursty_rta::textfmt`] and [`bursty_rta::proto`]; exit status is 0
//! iff every analyzed system is schedulable, 1 if any is not, 2 on
//! usage/IO/parse errors.

use std::sync::Arc;

use bursty_rta::analysis::par::pool_map;
use bursty_rta::analysis::service::{LoadOutcome, ServiceConfig};
use bursty_rta::daemon::{serve, serve_unix, ShardedService};
use bursty_rta::model::TaskSystem;
use bursty_rta::textfmt::{parse_system, ParseError, EXAMPLE};
use rta_core::wcdfp::Stopping;
use rta_sim::wcdfp::{estimate_adaptive, DrawModel, WcdfpConfig};

const USAGE: &str = "usage: rta-admit <file> [<file> …] | --wcdfp <file> [<file> …] | \
     --serve | --serve-unix <path> | --example";

/// Print a located parse diagnostic: `path:line: message` plus the
/// offending line, so editors can jump straight to it.
fn report_parse_error(path: &str, e: &ParseError) {
    if e.line > 0 {
        eprintln!("rta-admit: {path}:{}: {}", e.line, e.msg);
        eprintln!("    | {}", e.text);
    } else {
        eprintln!("rta-admit: {path}: {}", e.msg);
    }
}

/// Load every named system into the service over the worker pool; results
/// come back in argument order.
fn load_all(
    svc: &Arc<ShardedService>,
    items: Vec<(String, TaskSystem)>,
) -> Vec<Result<LoadOutcome, String>> {
    let items = Arc::new(items);
    let (svc2, items2) = (Arc::clone(svc), Arc::clone(&items));
    pool_map(items.len(), move |i| {
        let (name, sys) = &items2[i];
        svc2.load_full(name, sys.clone()).map_err(|e| e.to_string())
    })
}

fn run_files(paths: &[String]) -> i32 {
    let mut items = Vec::with_capacity(paths.len());
    for path in paths {
        let input = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rta-admit: cannot read {path}: {e}");
                return 2;
            }
        };
        match parse_system(&input) {
            Ok(sys) => items.push((path.clone(), sys)),
            Err(e) => {
                report_parse_error(path, &e);
                return 2;
            }
        }
    }
    let cfg = ServiceConfig {
        max_tenants: items.len().max(1),
        ..ServiceConfig::default()
    };
    let svc = Arc::new(ShardedService::with_pool_shards(cfg));
    let batch = paths.len() > 1;
    let mut all_ok = true;
    for (path, out) in paths.iter().zip(load_all(&svc, items)) {
        if batch {
            println!("== {path} ==");
        }
        match out {
            Ok(o) => {
                if o.cyclic_fallback {
                    eprintln!("(cyclic topology — falling back to the fixed-point analysis)");
                }
                print!("{}", o.report);
                if batch {
                    println!(
                        "{path}: {}",
                        if o.schedulable {
                            "admitted"
                        } else {
                            "REJECTED"
                        }
                    );
                }
                all_ok &= o.schedulable;
            }
            Err(e) => {
                // `ServiceError` already names the failed analysis.
                eprintln!("{path}: {e}");
                all_ok = false;
            }
        }
    }
    i32::from(!all_ok)
}

/// Monte-Carlo deadline-failure probability per file: adaptive run to a
/// 0.01 CI half-width at 95%, verdict-only configuration. Exit 1 if any
/// job of any file was observed missing its deadline.
fn run_wcdfp(paths: &[String]) -> i32 {
    if paths.is_empty() {
        eprintln!("{USAGE}");
        return 2;
    }
    let stop = Stopping {
        tolerance: 0.01,
        confidence: 0.95,
        threshold: None,
    };
    let cfg = WcdfpConfig {
        sketches: false,
        ..WcdfpConfig::default()
    };
    const MAX_DRAWS: u64 = 100_000;
    let mut any_miss = false;
    for path in paths {
        let input = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rta-admit: cannot read {path}: {e}");
                return 2;
            }
        };
        let sys = match parse_system(&input) {
            Ok(sys) => sys,
            Err(e) => {
                report_parse_error(path, &e);
                return 2;
            }
        };
        let model = match DrawModel::arrivals(sys) {
            Ok(model) => model,
            Err(e) => {
                eprintln!("{path}: {e}");
                return 2;
            }
        };
        let rep = estimate_adaptive(&model, &cfg, &stop, MAX_DRAWS);
        println!(
            "{path}: {} draws{}",
            rep.draws,
            if rep.converged {
                ""
            } else {
                " (budget exhausted before convergence)"
            }
        );
        for (name, e) in rep.names.iter().zip(&rep.estimates) {
            println!(
                "  {name}: P(miss) ∈ [{:.4}, {:.4}] @ 95% (point {:.4}, misses {})",
                e.lo, e.hi, e.p, e.misses
            );
            any_miss |= e.misses > 0;
        }
    }
    i32::from(any_miss)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("--example") => {
            print!("{EXAMPLE}");
            0
        }
        Some("--wcdfp") => run_wcdfp(&args[1..]),
        Some("--serve") => {
            let svc = Arc::new(ShardedService::with_pool_shards(ServiceConfig::default()));
            let stdin = std::io::stdin().lock();
            let mut stdout = std::io::stdout().lock();
            match serve(&svc, stdin, &mut stdout) {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("rta-admit: serve failed: {e}");
                    2
                }
            }
        }
        Some("--serve-unix") => match args.get(1) {
            Some(path) => {
                let svc = Arc::new(ShardedService::with_pool_shards(ServiceConfig::default()));
                match serve_unix(svc, std::path::Path::new(path)) {
                    Ok(()) => 0,
                    Err(e) => {
                        eprintln!("rta-admit: cannot serve on {path}: {e}");
                        2
                    }
                }
            }
            None => {
                eprintln!("{USAGE}");
                2
            }
        },
        Some(flag) if flag.starts_with("--") => {
            eprintln!("rta-admit: unknown flag {flag}");
            eprintln!("{USAGE}");
            2
        }
        Some(_) => run_files(&args),
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bursty_rta::analysis::service::ServiceError;
    use bursty_rta::analysis::{AnalysisConfig, AnalysisError};
    use bursty_rta::model::ModelError;
    use bursty_rta::textfmt::analyze_cold;

    fn service_for(n: usize) -> Arc<ShardedService> {
        let cfg = ServiceConfig {
            max_tenants: n.max(1),
            ..ServiceConfig::default()
        };
        Arc::new(ShardedService::with_pool_shards(cfg))
    }

    #[test]
    fn one_shot_report_matches_cold_oracle() {
        // The one-shot path is a thin client of the warm service; its
        // report must be byte-identical to the historical cold analysis.
        let sys = parse_system(EXAMPLE).unwrap();
        let (cold_ok, cold_report) = analyze_cold(&sys, &AnalysisConfig::default()).unwrap();
        let svc = service_for(1);
        let out = svc.load_full("example", sys).unwrap();
        assert_eq!(out.schedulable, cold_ok);
        assert_eq!(out.report, cold_report);
    }

    #[test]
    fn batch_verdict_is_the_conjunction() {
        let light =
            parse_system("processor P1 spp\njob T1 deadline 50 periodic 20 0\nhop P1 5\n").unwrap();
        let example = parse_system(EXAMPLE).unwrap();
        let doomed =
            parse_system("processor P1 spp\njob T1 deadline 5 periodic 20 0\nhop P1 9\n").unwrap();
        let svc = service_for(3);
        let outs = load_all(
            &svc,
            vec![
                ("light".into(), light),
                ("example".into(), example),
                ("doomed".into(), doomed),
            ],
        );
        let verdicts: Vec<bool> = outs
            .iter()
            .map(|o| o.as_ref().unwrap().schedulable)
            .collect();
        assert_eq!(verdicts, vec![true, true, false]);
    }

    #[test]
    fn window_overflow_is_refused_with_its_typed_error() {
        // Job a's period of 2⁶¹ ticks wraps a window of four periods; job b
        // alone overloads the processor (utilization 1.5). The file is
        // refused with the overflow before any curve is built, never
        // admitted over a wrapped window.
        let sys = parse_system(
            "processor P spp\n\
             job a deadline 100 periodic 2305843009213693952 0\nhop P 5\n\
             job b deadline 100 periodic 100 0\nhop P 150\n",
        )
        .unwrap();
        let overflow = AnalysisError::Model(ModelError::TickOverflow {
            quantity: "arrival window",
        });
        match service_for(1).load_full("wrap", sys.clone()) {
            Err(ServiceError::Analysis(e)) => assert_eq!(e, overflow),
            Err(e) => panic!("wrong error: {e}"),
            Ok(o) => panic!("admitted over a wrapped window:\n{}", o.report),
        }
        let cold = analyze_cold(&sys, &AnalysisConfig::default()).unwrap_err();
        assert!(cold.contains(&overflow.to_string()), "{cold}");
    }
}
