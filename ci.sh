#!/usr/bin/env bash
# Full CI gate for the MobiQuery reproduction workspace. Every check here is
# required; run it locally before pushing. Takes a few minutes cold.
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

# The equivalence proptests get 8x the shim's default 128 cases: the
# incremental backbone repair against a full re-election, the patched
# neighbour table against a rebuild, and the calendar event queue against
# its BTreeMap model (the queue's only reference check).
run env PROPTEST_CASES=1024 cargo test -q -p wsn-power --test repair_equivalence
run env PROPTEST_CASES=1024 cargo test -q -p wsn-net --test neighbor_patch_equivalence
run env PROPTEST_CASES=1024 cargo test -q -p wsn-sim --test properties

# The examples and the CLI must stay runnable, not just compilable.
for ex in quickstart firefighter rescue_robot duty_cycle_tuning parallel_sweep; do
    run cargo run --release -q --example "$ex" >/dev/null
done
run cargo run --release -q --bin repro -- --quick fig4 >/dev/null
run cargo run --release -q --bin repro -- --help >/dev/null

# Determinism gate: the cross-trial fan-out must not change results — the
# JSON output has to be byte-identical whatever the worker count.
run cargo run --release -q --bin repro -- --quick --format json --jobs 1 \
    --out target/repro-jobs1.json fig4
run cargo run --release -q --bin repro -- --quick --format json --jobs 4 \
    --out target/repro-jobs4.json fig4
run cmp target/repro-jobs1.json target/repro-jobs4.json
# fig7 runs the predictor path, where a newer prefetch generation replaces
# standing query trees while the old trees' events are still in flight.
run cargo run --release -q --bin repro -- --quick --format json --jobs 1 \
    --out target/repro-fig7-jobs1.json fig7
run cargo run --release -q --bin repro -- --quick --format json --jobs 4 \
    --out target/repro-fig7-jobs4.json fig7
run cmp target/repro-fig7-jobs1.json target/repro-fig7-jobs4.json

# Same gate for the multi-user multiplexing path at a 64-user fleet: every
# trial already cross-checks shared trees against the naive one-tree-per-user
# reference, and the emitted bytes must not depend on the worker count.
run cargo run --release -q --bin repro -- --quick --users 64 --format json \
    --jobs 1 --out target/repro-mu-jobs1.json multiuser
run cargo run --release -q --bin repro -- --quick --users 64 --format json \
    --jobs 4 --out target/repro-mu-jobs4.json multiuser
run cmp target/repro-mu-jobs1.json target/repro-mu-jobs4.json

# Churn gate: a 20k-node deployment losing (and regaining) 5% of its nodes
# at every period boundary, repaired incrementally. The run itself proves
# repair ≡ re-election twice over — the engine cross-checks EVERY batch
# against a full priority election (nodes ≤ 200000 always verify) and the
# experiment asserts the final backbone equals a from-scratch election —
# and the cmp proves the deterministic output is byte-identical whatever
# the worker count.
run cargo run --release -q --bin repro -- --quick --scale 20000 \
    --churn-rate 0.05 --format json --jobs 1 --out target/churn-jobs1.json churn
run cargo run --release -q --bin repro -- --quick --scale 20000 \
    --churn-rate 0.05 --format json --jobs 4 --out target/churn-jobs4.json churn
run cmp target/churn-jobs1.json target/churn-jobs4.json

# Chaos gate: the fault schedule (bursty loss, crashes) and every recovery
# decision (retries, backoff, tree rebuilds) must be pure functions of the
# seed — the faulted sweep's JSON is byte-identical whatever the worker
# count, and tests/golden/resilience_quick.json pins the same bytes against
# the committed snapshot.
run cargo run --release -q --bin repro -- --quick --scale 2000 \
    --fault-loss 0.2 --format json --jobs 1 --out target/resilience-jobs1.json resilience
run cargo run --release -q --bin repro -- --quick --scale 2000 \
    --fault-loss 0.2 --format json --jobs 4 --out target/resilience-jobs4.json resilience
run cmp target/resilience-jobs1.json target/resilience-jobs4.json
run cmp target/resilience-jobs1.json tests/golden/resilience_quick.json

# Service smoke: a fixed seed yields byte-identical JSON from run to run.
# Each run is a fresh process with a fresh hash seed, so a pair that
# differs means hash iteration order leaked into the output.
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

# Bench trajectory: quick-mode per-figure wall clock (serial vs parallel)
# plus a small --scale smoke sweep (the committed snapshot carries the full
# 1k-20k sweep). Writes under target/ so a green run leaves the tree clean;
# copy it over the committed snapshot when a PR deliberately updates the
# perf trajectory:
#   cargo run --release -q --bin repro -- --quick --users 250 \
#       --bench BENCH_repro.json --scale 1000,2000,5000,10000,20000,100000 all
run cargo run --release -q --bin repro -- --quick --users 100 \
    --bench target/BENCH_repro.json --scale 1000,2000 all

# bench/v10 sanity: schema, host metadata, per-phase setup breakdown, the
# raster-election regression bound, the event loop (events/sec throughput,
# steady_allocs_per_period == 0, and on the committed full sweep the
# multiuser serial hot loop and 20k run beating the bench/v6 snapshot),
# the multi-user tree economy (shared cache strictly beating one-tree-per-
# user at 100+ user fleets), the churn section (incremental repair beating
# full re-election at scale under light churn), the service load section
# and the resilience ladder (recovery-on strictly beating recovery-off on
# mean delivery at every nonzero loss), enforced by the script shared with
# the hosted workflow — on both the fresh run and the committed snapshot.
# The markdown renderer the workflow feeds $GITHUB_STEP_SUMMARY with must
# keep accepting both documents too.
run python3 scripts/check_bench.py target/BENCH_repro.json
run python3 scripts/check_bench.py BENCH_repro.json
run python3 scripts/bench_summary.py "fresh quick run" target/BENCH_repro.json >/dev/null
run python3 scripts/bench_summary.py "committed snapshot" BENCH_repro.json >/dev/null

echo "==> CI green"
