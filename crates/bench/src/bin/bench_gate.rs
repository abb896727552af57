//! Bench-regression gate for `scripts/check.sh`.
//!
//! ```text
//! bench_gate <baseline.json> <current.json> [max_regression_pct] [--skip <row>]…
//! bench_gate --pair <current.json> <row> <reference_row> [grace_pct]
//! bench_gate --ratio <baseline.json> <current.json> <row> <sibling_row> [grace_pct]
//! ```
//!
//! The two-file form compares two harness JSON dumps (see
//! [`rta_bench::harness::Bench`]) and exits non-zero if any benchmark
//! present in both regressed by more than `max_regression_pct` percent
//! (default 25); on failure it prints a per-row delta table, worst first,
//! so the damage is visible without diffing the dumps by hand. Benchmarks
//! only present on one side are reported but never fail the gate, so
//! adding or renaming benchmarks does not require a baseline dance.
//!
//! The `--pair` form enforces an intra-dump invariant: `row` must not be
//! slower than `reference_row` by more than `grace_pct` percent (default
//! 10, covering run-to-run noise) — a standing claim that one variant of a
//! computation costs no more than another measured in the same run, not a
//! point-in-time measurement. `scripts/check.sh` runs no pair gate today.
//!
//! The `--ratio` form gates a noisy row by its **ratio to a stable sibling
//! row** across baseline → current: fail when
//! `cur[row]/cur[sibling] > base[row]/base[sibling] × (1 + grace/100)`
//! (default grace 25). Dividing by a sibling measured in the same dump
//! cancels machine-wide speed shifts (thermal state, contention), leaving
//! only the row's *relative* movement — the right gate for rows whose
//! absolute nanoseconds swing more than the regression budget. Rows gated
//! this way should be excluded from the absolute comparison with `--skip`.
//!
//! `--skip <row>` (repeatable, two-file form only) removes a row from the
//! absolute comparison on both sides; skipped rows are listed so the gate
//! output still accounts for every row in the dumps.

use std::process::ExitCode;

/// Extract `(name, ns_per_iter)` pairs from a harness JSON dump. The
/// harness writes one benchmark object per line, so a line-oriented scan is
/// exact for its own output (no serde in the offline dependency closure).
fn parse(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(ns) = field_str(line, "\"ns_per_iter\": ") else {
            continue;
        };
        let ns: f64 = ns
            .trim_end_matches(['}', ',', ' '])
            .parse()
            .unwrap_or(f64::NAN);
        if ns.is_finite() {
            out.push((name.to_string(), ns));
        }
    }
    out
}

/// The text after `key` up to the next `"` (for strings) or the rest of
/// the line (for numbers; caller trims trailing punctuation).
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    Some(match rest.find('"') {
        Some(end) if key.ends_with('"') => &rest[..end],
        _ => rest,
    })
}

/// `--pair <current.json> <row> <reference_row> [grace_pct]`: fail when
/// `row` is more than `grace_pct` percent slower than `reference_row`.
fn pair_gate(args: &[String]) -> ExitCode {
    if args.len() < 3 {
        eprintln!("usage: bench_gate --pair <current.json> <row> <reference_row> [grace_pct]");
        return ExitCode::from(2);
    }
    let grace: f64 = match args.get(3) {
        None => 10.0,
        Some(s) => match s.parse() {
            Ok(p) => p,
            Err(_) => {
                eprintln!("bench_gate: grace_pct must be a number, got {s:?}");
                return ExitCode::from(2);
            }
        },
    };
    let rows = match std::fs::read_to_string(&args[0]) {
        Ok(text) => parse(&text),
        Err(e) => {
            eprintln!("bench_gate: cannot read {}: {e}", args[0]);
            return ExitCode::from(2);
        }
    };
    let find = |name: &str| rows.iter().find(|(n, _)| n == name).map(|&(_, ns)| ns);
    let (Some(row_ns), Some(ref_ns)) = (find(&args[1]), find(&args[2])) else {
        eprintln!(
            "bench_gate: pair rows {:?} / {:?} not both present in {}",
            args[1], args[2], args[0]
        );
        return ExitCode::from(2);
    };
    let pct = 100.0 * (row_ns - ref_ns) / ref_ns;
    if row_ns > ref_ns * (1.0 + grace / 100.0) {
        eprintln!(
            "bench_gate: {} ({row_ns:.0} ns) is {pct:+.1}% vs {} ({ref_ns:.0} ns), \
             over the {grace}% grace",
            args[1], args[2]
        );
        return ExitCode::FAILURE;
    }
    println!(
        "  pair ok   {}: {row_ns:.0} ns vs {}: {ref_ns:.0} ns ({pct:+.1}%, grace {grace}%)",
        args[1], args[2]
    );
    ExitCode::SUCCESS
}

/// `--ratio <baseline.json> <current.json> <row> <sibling_row> [grace_pct]`:
/// fail when `row`'s ratio to `sibling_row` grew by more than `grace_pct`
/// percent between the dumps.
fn ratio_gate(args: &[String]) -> ExitCode {
    if args.len() < 4 {
        eprintln!(
            "usage: bench_gate --ratio <baseline.json> <current.json> <row> <sibling_row> \
             [grace_pct]"
        );
        return ExitCode::from(2);
    }
    let grace: f64 = match args.get(4) {
        None => 25.0,
        Some(s) => match s.parse() {
            Ok(p) => p,
            Err(_) => {
                eprintln!("bench_gate: grace_pct must be a number, got {s:?}");
                return ExitCode::from(2);
            }
        },
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(parse(&text)),
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(&args[0]), read(&args[1])) else {
        return ExitCode::from(2);
    };
    let (row, sibling) = (&args[2], &args[3]);
    let find = |rows: &[(String, f64)], name: &str| {
        rows.iter().find(|(n, _)| n == name).map(|&(_, ns)| ns)
    };
    let (Some(b_row), Some(b_sib), Some(c_row), Some(c_sib)) = (
        find(&baseline, row),
        find(&baseline, sibling),
        find(&current, row),
        find(&current, sibling),
    ) else {
        eprintln!(
            "bench_gate: rows {row:?} / {sibling:?} not present in both {} and {}",
            args[0], args[1]
        );
        return ExitCode::from(2);
    };
    let (base_ratio, cur_ratio) = (b_row / b_sib, c_row / c_sib);
    let pct = 100.0 * (cur_ratio - base_ratio) / base_ratio;
    if cur_ratio > base_ratio * (1.0 + grace / 100.0) {
        eprintln!(
            "bench_gate: {row} / {sibling} ratio regressed: {base_ratio:.3} -> {cur_ratio:.3} \
             ({pct:+.1}%, grace {grace}%)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "  ratio ok  {row} / {sibling}: {base_ratio:.3} -> {cur_ratio:.3} \
         ({pct:+.1}%, grace {grace}%)"
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--pair") {
        return pair_gate(&args[2..]);
    }
    if args.get(1).map(String::as_str) == Some("--ratio") {
        return ratio_gate(&args[2..]);
    }
    // Two-file form: positionals [baseline, current, max_pct?] plus any
    // number of `--skip <row>` flags, in any order.
    let mut positional: Vec<&String> = Vec::new();
    let mut skipped: Vec<&String> = Vec::new();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        if a == "--skip" {
            match it.next() {
                Some(row) => skipped.push(row),
                None => {
                    eprintln!("bench_gate: --skip needs a row name");
                    return ExitCode::from(2);
                }
            }
        } else {
            positional.push(a);
        }
    }
    if positional.len() < 2 {
        eprintln!(
            "usage: bench_gate <baseline.json> <current.json> [max_regression_pct] \
             [--skip <row>]…"
        );
        return ExitCode::from(2);
    }
    let max_pct: f64 = match positional.get(2) {
        None => 25.0,
        Some(s) => match s.parse() {
            Ok(p) => p,
            Err(_) => {
                eprintln!("bench_gate: max_regression_pct must be a number, got {s:?}");
                return ExitCode::from(2);
            }
        },
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => Some(parse(&text)),
        Err(e) => {
            eprintln!("bench_gate: cannot read {path}: {e}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (read(positional[0]), read(positional[1])) else {
        return ExitCode::from(2);
    };

    let mut failures = 0u32;
    // (name, base_ns, cur_ns, pct) for every row present on both sides.
    let mut rows: Vec<(&str, f64, f64, f64)> = Vec::new();
    for (name, base_ns) in &baseline {
        if skipped.contains(&name) {
            println!("  (skip)    {name}");
            continue;
        }
        let Some((_, cur_ns)) = current.iter().find(|(n, _)| n == name) else {
            println!("  (gone)    {name}");
            continue;
        };
        let pct = 100.0 * (cur_ns - base_ns) / base_ns;
        rows.push((name, *base_ns, *cur_ns, pct));
        if pct > max_pct {
            println!("  REGRESSED {name}: {base_ns:.0} ns -> {cur_ns:.0} ns ({pct:+.1}%)");
            failures += 1;
        } else {
            println!("  ok        {name}: {base_ns:.0} ns -> {cur_ns:.0} ns ({pct:+.1}%)");
        }
    }
    for (name, _) in &current {
        if !baseline.iter().any(|(n, _)| n == name) && !skipped.contains(&name) {
            println!("  (new)     {name}");
        }
    }
    let compared = rows.len();
    if failures > 0 {
        // Full delta table, worst regression first, so a failing gate
        // shows every row's movement without re-running or diffing JSON.
        let width = rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
        eprintln!("\nbench_gate: {failures}/{compared} benchmarks regressed more than {max_pct}%");
        eprintln!(
            "  {:<width$}  {:>12}  {:>12}  {:>8}",
            "benchmark", "baseline", "current", "delta"
        );
        rows.sort_by(|a, b| b.3.total_cmp(&a.3));
        for (name, base_ns, cur_ns, pct) in &rows {
            let flag = if *pct > max_pct { "  <-- FAIL" } else { "" };
            eprintln!(
                "  {name:<width$}  {:>9.0} ns  {:>9.0} ns  {pct:>+7.1}%{flag}",
                base_ns, cur_ns
            );
        }
        return ExitCode::FAILURE;
    }
    println!("bench_gate: {compared} benchmarks within {max_pct}% of baseline");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::parse;

    #[test]
    fn parses_harness_lines() {
        let json = "{\n  \"suite\": \"x\",\n  \"benchmarks\": [\n    {\"name\": \"a/b\", \"iters\": 3, \"ns_per_iter\": 125.5},\n    {\"name\": \"c\", \"iters\": 1, \"ns_per_iter\": 7.0}\n  ]\n}\n";
        let parsed = parse(json);
        assert_eq!(
            parsed,
            vec![("a/b".to_string(), 125.5), ("c".to_string(), 7.0)]
        );
    }
}
