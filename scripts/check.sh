#!/usr/bin/env bash
# Full local gate: format, lints, tier-1 tests, and a performance snapshot.
#
#   scripts/check.sh           # everything
#   SKIP_BENCH=1 scripts/check.sh   # skip the perf snapshot (CI smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, no deps, -D warnings: no stale or private intra-doc links)"
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> workspace tests"
cargo test --workspace -q

echo "==> policy-kernel gates: conformance + golden equivalence + bounds-driver and fixpoint oracles"
cargo test -p rta-core --test policy_conformance -q
cargo test -p rta-core --test policy_golden -q
cargo test -p rta-core --test bounds_driver -q
cargo test -p rta-core --test fixpoint_oracle -q

echo "==> kernel gates: curve kernels, Theorem 5/6 chain, Theorem 7-9 FCFS and IWRR round-robin bounds vs per-tick oracles"
cargo test -p rta-curves --test proptests -q
cargo test -p rta-core --test proptests -q spnp_chain_matches_per_tick_theorem_5_6_oracle
cargo test -p rta-core --test proptests -q shared_workload_bounds_match_per_tick_formulas

# The sim crate builds in two configurations: trace-off (how `-p rta-sim`
# and the bench binaries see it — the gated hot path) and trace-on (how
# the root package sees it — full trace capture). The workspace clippy and
# test runs above cover trace-on; cover trace-off explicitly, plus the
# event-core gates in both.
echo "==> sim trace-off config: clippy + tests"
cargo clippy -p rta-sim --all-targets -- -D warnings
cargo test -p rta-sim -q

echo "==> sim gates: legacy-oracle equivalence + replay determinism (trace on)"
cargo test -p rta-sim --features trace --test oracle --test determinism --test agreement -q

echo "==> WCDFP gates: pool-merge bit-identity + adaptive consistency + 2k-draw golden smoke (release)"
cargo test -p rta-sim --release --test wcdfp -q

echo "==> admission daemon smoke: canned stream vs golden responses"
scripts/service_smoke.sh

echo "==> service soak + alloc budget gates (alloc_stats, release)"
cargo test -p rta-bench --features alloc_stats --release --test service_soak -q
cargo test -p rta-bench --features alloc_stats --release --test alloc_budget -q
cargo test -p rta-bench --features alloc_stats --release --test alloc_budget_fcfs -q
cargo test -p rta-bench --features alloc_stats --release --test alloc_budget_iwrr -q

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    # Stash the committed baselines before perf_snapshot overwrites them,
    # then gate: fail if any benchmark regressed by more than 25%.
    basedir="$(mktemp -d)"
    trap 'rm -rf "$basedir"' EXIT
    for f in BENCH_curves.json BENCH_incremental.json BENCH_sim.json BENCH_service.json \
             BENCH_wcdfp.json; do
        [[ -f "$f" ]] && cp "$f" "$basedir/$f"
    done

    echo "==> perf snapshot (writes BENCH_curves.json, BENCH_incremental.json)"
    cargo run -p rta-bench --release --bin perf_snapshot

    echo "==> sim snapshot (writes BENCH_sim.json)"
    cargo run -p rta-bench --release --bin sim_snapshot

    echo "==> WCDFP snapshot (writes BENCH_wcdfp.json; asserts <= 10 us/draw verdict-only)"
    cargo run -p rta-bench --release --bin wcdfp_snapshot

    echo "==> service load generator (writes BENCH_service.json; floor 10k req/s)"
    cargo run --release --bin load_gen

    # Every gate runs and reports; the failures are summarized once at
    # the end, so one slow suite cannot hide the verdicts of the others.
    failed=()
    gate() {
        local name="$1"
        shift
        echo "==> bench gate: $name"
        if ! cargo run -p rta-bench --release --bin bench_gate -- "$@"; then
            failed+=("$name")
        fi
    }

    # The 1024-point inverse-sweep rows swing with machine-wide speed
    # shifts well beyond the 25% budget; they are gated on their *ratio*
    # to the stable same-kernel 128-point siblings below instead, and
    # skipped in the absolute comparison.
    for f in BENCH_curves.json BENCH_incremental.json BENCH_sim.json BENCH_service.json \
             BENCH_wcdfp.json; do
        if [[ -f "$basedir/$f" ]]; then
            skips=()
            if [[ "$f" == BENCH_curves.json ]]; then
                skips=(--skip inverse_sweep/rescan/1024 --skip inverse_sweep/cursor/1024)
            fi
            gate "$f vs committed baseline (max +25%)" "$basedir/$f" "$f" 25 "${skips[@]}"
        fi
    done

    if [[ -f "$basedir/BENCH_curves.json" ]]; then
        for kernel in rescan cursor; do
            gate "inverse_sweep/$kernel 1024-point row vs 128-point sibling (ratio)" \
                --ratio "$basedir/BENCH_curves.json" BENCH_curves.json \
                "inverse_sweep/$kernel/1024" "inverse_sweep/$kernel/128" 25
        done
    fi

    if (( ${#failed[@]} )); then
        echo "==> ${#failed[@]} bench gate(s) failed:"
        printf '    %s\n' "${failed[@]}"
        exit 1
    fi
fi

echo "OK"
