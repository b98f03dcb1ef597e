#!/usr/bin/env bash
# Full CI gate for the MobiQuery reproduction workspace. Every check here is
# required; run it locally before pushing, and the hosted workflow runs this
# same script. Takes a few minutes cold.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*" >&2
    "$@"
}

run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace

# The bench-schema gate itself is unit-tested: every assertion in
# scripts/check_bench.py must fire in both directions.
run python3 -m unittest discover -s scripts

# Tier-1 verify: release build + the facade's test suite (integration, doc).
run cargo build --release
run cargo test -q

# Every other member's unit/property/doc tests (the facade just ran).
run cargo test -q --workspace --exclude mobiquery-repro

# The benchmark is a package of its own that nothing else compiles: build
# and test it here, so an API change it depends on breaks CI rather than the
# benchmark run. Its own target directory keeps it from rebuilding the
# workspace's artifacts.
run env CARGO_TARGET_DIR=target/mqbench cargo test -q --offline \
    --manifest-path mqbench/Cargo.toml

# The equivalence proptests get 8x the shim's default 128 cases: the
# incremental backbone repair against a full re-election, the raster
# election (16-bit coverage counts) against the per-point reference, the
# patched neighbour table against a rebuild, the spatial grid and the
# calendar event queue against their BTreeMap models (each one's only
# reference check), and the service's client API against its reference
# model and a batch replay.
run env PROPTEST_CASES=1024 cargo test -q -p wsn-power --test repair_equivalence
run env PROPTEST_CASES=1024 cargo test -q -p wsn-power --test ccp_equivalence
run env PROPTEST_CASES=1024 cargo test -q -p wsn-net --test neighbor_patch_equivalence
run env PROPTEST_CASES=1024 cargo test -q -p wsn-geom --test properties
run env PROPTEST_CASES=1024 cargo test -q -p wsn-sim --test properties
run env PROPTEST_CASES=1024 cargo test -q -p mobiquery-service --test model

# The examples must stay runnable, not just compilable.
for ex in quickstart firefighter rescue_robot duty_cycle_tuning density_sweep; do
    run cargo run --release -q --example "$ex" >/dev/null
done

# Cross-process reruns: each run is a fresh process with a fresh hash seed,
# so a pair that differs means hash iteration order leaked into the output.
# fig7 runs the predictor path, where a newer prefetch generation replaces
# standing query trees while the old trees' events are still in flight.
run cargo run --release -q --bin repro -- --quick --format json \
    --out target/repro-fig7-run1.json fig7
run cargo run --release -q --bin repro -- --quick --format json \
    --out target/repro-fig7-run2.json fig7
run cmp target/repro-fig7-run1.json target/repro-fig7-run2.json

# Churn: a 20k-node deployment losing (and regaining) 5% of its nodes at
# every period boundary, repaired incrementally. The run itself proves
# repair ≡ re-election twice over — the engine cross-checks EVERY batch
# against a full priority election (nodes ≤ 200000 always verify) and the
# experiment asserts the final backbone equals a from-scratch election.
run cargo run --release -q --bin repro -- --quick --scale 20000 \
    --churn-rate 0.05 --format json --out target/churn-run1.json churn
run cargo run --release -q --bin repro -- --quick --scale 20000 \
    --churn-rate 0.05 --format json --out target/churn-run2.json churn
run cmp target/churn-run1.json target/churn-run2.json

# The service: the faulted load carries the most per-boundary state: the
# fault plan, install retries and their backoff.
run cargo run --release -q --bin repro -- serve --periods 8 --quick \
    --out target/serve-run1.json
run cargo run --release -q --bin repro -- serve --periods 8 --quick \
    --out target/serve-run2.json
run cmp target/serve-run1.json target/serve-run2.json
run cargo run --release -q --bin repro -- load --qps 4 --duration 40 \
    --nodes 1000 --out target/load-run1.json
run cargo run --release -q --bin repro -- load --qps 4 --duration 40 \
    --nodes 1000 --out target/load-run2.json
run cmp target/load-run1.json target/load-run2.json
run cargo run --release -q --bin repro -- load --qps 4 --duration 40 \
    --nodes 1000 --fault-loss 0.2 --out target/load-faulted-run1.json
run cargo run --release -q --bin repro -- load --qps 4 --duration 40 \
    --nodes 1000 --fault-loss 0.2 --out target/load-faulted-run2.json
run cmp target/load-faulted-run1.json target/load-faulted-run2.json

# Bench trajectory: quick-mode per-target wall clock, a small --scale smoke
# sweep (the committed snapshot carries the full 1k-100k sweep), and the
# multiuser and churn sections at the largest scale and the resilience
# section at 1000 nodes. Those three run the same sweeps as the targets of
# the same name: each entry is the point's --format json object plus the
# section's timing keys. Writes under target/ so a green run leaves the tree
# clean; copy it over the committed snapshot when a PR deliberately updates
# the perf trajectory:
#   cargo run --release -q --bin repro -- --quick --users 250 \
#       --bench BENCH_repro.json --scale 1000,2000,5000,10000,20000,100000 all
run cargo run --release -q --bin repro -- --quick --users 100 \
    --bench target/BENCH_repro.json --scale 1000,2000 all

# bench/v11 sanity: schema, host metadata, per-phase setup breakdown, the
# raster-election regression bound, the event loop (events/sec throughput,
# and on the committed full sweep the multiuser serial hot loop and 20k run
# beating the bench/v6 snapshot), the multi-user tree economy (shared cache
# strictly beating one-tree-per-user at 100+ user fleets), the churn section
# (incremental repair beating full re-election at scale under light churn),
# the service load section and the resilience ladder (recovery-on strictly
# beating recovery-off on mean delivery at every nonzero loss) — on both the
# fresh run and the committed snapshot. Both render as markdown tables into
# the hosted job summary when $GITHUB_STEP_SUMMARY is set.
run python3 scripts/check_bench.py target/BENCH_repro.json
run python3 scripts/check_bench.py BENCH_repro.json
run python3 scripts/bench_summary.py "fresh quick run" target/BENCH_repro.json \
    >>"${GITHUB_STEP_SUMMARY:-/dev/null}"
run python3 scripts/bench_summary.py "committed snapshot" BENCH_repro.json \
    >>"${GITHUB_STEP_SUMMARY:-/dev/null}"

echo "==> CI green"
