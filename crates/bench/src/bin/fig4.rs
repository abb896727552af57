//! Reproduce Figure 4: admission probability vs. system utilization for
//! bursty (Eq. 27) arrivals with gamma-distributed deadlines, comparing
//! SPP/Exact, SPNP/App and FCFS/App over a variance × mean panel grid.
//!
//! Usage: `cargo run -p rta-bench --release --bin fig4 [-- --sets N] [--seed S] [--json PATH]`

use rta_bench::figures::{fig4_panels, run_panel, utilization_sweep};
use rta_bench::table::{render_json, render_text};

fn main() {
    let args = Args::parse();
    let utils = utilization_sweep();
    let panels = fig4_panels();
    let mut results = Vec::new();
    eprintln!(
        "fig4: {} panels × {} points × 3 methods × {} sets",
        panels.len(),
        utils.len(),
        args.sets
    );
    for (i, p) in panels.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let r = run_panel(p, &utils, args.sets, args.seed, 0);
        eprintln!(
            "panel {}/{} done in {:.1?}",
            i + 1,
            panels.len(),
            t0.elapsed()
        );
        print!("{}", render_text(&r));
        println!();
        results.push(r);
    }
    if let Some(path) = args.json {
        std::fs::write(&path, render_json(&results)).expect("write JSON");
        eprintln!("wrote {path}");
    }
}

struct Args {
    sets: u32,
    seed: u64,
    json: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            sets: 1000,
            seed: 20260707,
            json: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let mut val = || it.next().expect("flag needs a value");
            match a.as_str() {
                "--sets" => args.sets = val().parse().expect("--sets N"),
                "--seed" => args.seed = val().parse().expect("--seed S"),
                "--json" => args.json = Some(val()),
                other => panic!("unknown flag {other}"),
            }
        }
        args
    }
}
