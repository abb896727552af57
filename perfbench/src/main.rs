//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from `--seed`, measures for about
//! `--seconds`, checks the outputs, and prints as its last line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Progress and the layer table go to stderr. See README.md
//! in this directory for the workloads, metrics and method.

mod daemon_wl;
mod fig_wl;
mod fleet;
mod layers;
mod loadgen;
mod report;
mod trace;

use std::path::PathBuf;

use report::peak_rss_mb;

const USAGE: &str =
    "usage: perfbench --workload <admit_churn|fig_sweep> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("bad --seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let daemon = match args.workload.as_str() {
        "admit_churn" => true,
        "fig_sweep" => false,
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {} pool threads",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bursty_rta::analysis::par::pool_threads()
    );
    let spans = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-{}.tsv", args.workload, args.seed));
    let (mut metrics, correct, attempted, failed) = match (daemon, args.trace) {
        (true, false) => daemon_wl::run_untraced(args.seed, args.seconds),
        (true, true) => daemon_wl::run_traced(
            true,
            daemon_wl::admit_churn_fleet(),
            args.seed,
            args.seconds,
            &spans,
        ),
        (false, false) => fig_wl::run_untraced(args.seed, args.seconds),
        (false, true) => {
            let mut rng = rand::SeedableRng::seed_from_u64(args.seed);
            let fleet = fleet::build_fleet(&fig_wl::fleet_shapes(), &mut rng);
            let (mut m, ok, attempted, failed) =
                daemon_wl::run_traced(false, fleet, args.seed, args.seconds, &spans);
            let mut bad = Vec::new();
            m.extend(fig_wl::set_layers(args.seed, 24, &mut bad));
            for b in &bad {
                eprintln!("mismatch: {b}");
            }
            (m, ok && bad.is_empty(), attempted, failed)
        }
    };
    if !args.trace {
        metrics.set("rss_mb", peak_rss_mb(), "MiB");
    }
    println!("{}", metrics.result_line(correct, attempted, failed));
}
