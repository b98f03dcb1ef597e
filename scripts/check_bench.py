#!/usr/bin/env python3
"""Sanity-check a mobiquery-repro/bench/v10 document.

Shared by ci.sh and .github/workflows/ci.yml so the schema contract and the
committed baseline figures live in exactly one place. Asserts:

* header metadata (schema, host cores, the --users fleet ceiling);
* the per-phase setup breakdown of every scale entry, with the
  coverage-raster election's `ccp_ms` bounded by the *whole* pre-raster
  setup figure committed for the same deployment size (bench/v2 values;
  generous by an order of magnitude on a quiet machine, so this only fires
  on a real regression);
* the multi-user section: per-entry fleet/tree/success fields, the naive
  baseline building one tree per install, and — when the --users ceiling
  admits fleets of 100+ users — the shared cache building strictly fewer
  trees than the naive one-tree-per-user reference (smaller ceilings
  legitimately truncate the ladder, so the assertion is conditional);
* the service section (v5): the fixed reference load served by the
  stepped engine, with success ratios in [0, 1] and p50 <= p99 <= max
  latency;
* the churn section (v6): per-rate incremental-repair entries with
  every batch verified against a full re-election at verifiable scales,
  and — at large deployments under light churn, where repair is the whole
  point — a mean per-batch repair cost at least REPAIR_ADVANTAGE times
  below one full election;
* the event loop (v7): `steady_allocs_per_period` exactly zero (the
  counting-allocator figure the zero_alloc test enforces), the
  `events_per_sec` throughput fields, and — when a document carries the
  full committed sweep (250-user fleet / 20k-node entry) — the multiuser
  serial hot loop and the 20k run no slower than the last bench/v6
  snapshot's committed values;
* the resilience section (new in v8): the fault-injection ladder run
  with recovery on and off over the identical seeded schedule, paired
  per loss rate, with recovery-off paying zero retries, recovery-on
  actually retrying at every nonzero loss, and — the reason the section
  exists — recovery-on retaining *strictly* higher mean delivery than
  recovery-off at every nonzero loss rate.

Unit-tested by scripts/test_check_bench.py (python3 -m unittest, run in the
CI lint job).
"""

import json
import sys

# Whole-setup wall-clock (ms) committed in the last bench/v2 snapshot, i.e.
# before the coverage raster, per deployment size (max of jit/np).
OLD_WHOLE_SETUP_MS = {
    1000: 19.05,
    2000: 38.0,
    5000: 100.97,
    10000: 182.3,
    20000: 389.54,
}

# The repair-vs-full-election bar: at REPAIR_ADVANTAGE_MIN_NODES nodes and
# a per-boundary rate of at most REPAIR_ADVANTAGE_MAX_RATE, the mean
# incremental repair must cost at least REPAIR_ADVANTAGE times less than
# one full re-election. Heavier churn legitimately erodes the advantage
# (more of the field goes dirty), so the bar only applies to light churn.
REPAIR_ADVANTAGE = 4.0
REPAIR_ADVANTAGE_MIN_NODES = 50_000
REPAIR_ADVANTAGE_MAX_RATE = 0.002

# Deployments at or below this size verify EVERY batch in-engine (mirrors
# VERIFY_MAX_NODES in crates/experiments/src/churn.rs).
VERIFY_MAX_NODES = 200_000

# Event-loop trajectory: the last bench/v6 snapshot's committed values for
# the multiuser serial hot loop (250-user fleet, shared cache) and the
# 20k-node single-user run. A v7 document carrying those entries must beat
# them — the event-loop PR's whole point. Only the committed snapshot
# carries them (the fresh CI smoke run sweeps a smaller grid), so these
# bounds compare one committed artifact against another, not a live run
# against a fixed wall clock.
V6_MULTIUSER_250_SHARED_MS = 859.1
V6_SCALE_20K_RUN_MS = 4.84

CHURN_FIELDS = (
    "nodes",
    "rate",
    "batches",
    "deaths",
    "evaluated",
    "promoted",
    "demoted",
    "backbone_count",
    "backbone_digest",
    "per_batch_verified",
    "repair_ms",
    "mean_repair_ms",
    "apply_ms",
    "full_ccp_ms",
)

RESILIENCE_FIELDS = (
    "nodes",
    "loss",
    "recovery",
    "retries",
    "install_failures",
    "retries_per_delivered",
    "mean_outage_periods",
    "mean_success_ratio",
    "mean_fidelity",
    "mean_delivery_ratio",
)

MULTIUSER_FIELDS = (
    "users",
    "installs",
    "trees_built_shared",
    "trees_built_naive",
    "sharing_ratio",
    "mean_success_ratio",
    "min_success_ratio",
    "mean_fidelity",
    "node_wake_seconds_shared",
    "node_wake_seconds_naive",
)


def check_scale(doc):
    for entry in doc["scale"]:
        nodes = entry["nodes"]
        for scheme in ("jit", "np"):
            run = entry[scheme]
            setup = run["setup"]
            for field in ("neighbor_ms", "ccp_ms", "plan_ms"):
                assert field in setup, f"{nodes}/{scheme}: missing setup.{field}"
            bound = OLD_WHOLE_SETUP_MS.get(nodes)
            if bound is not None:
                assert setup["ccp_ms"] <= bound, (
                    f"{nodes}/{scheme}: ccp_ms {setup['ccp_ms']} exceeds the "
                    f"pre-raster whole-setup figure {bound} ms"
                )
            assert run.get("events_per_sec", 0) > 0, (
                f"{nodes}/{scheme}: events_per_sec missing or non-positive"
            )
            if nodes == 20_000:
                assert run["run_ms"] < V6_SCALE_20K_RUN_MS, (
                    f"{nodes}/{scheme}: run_ms {run['run_ms']} regressed past "
                    f"the committed bench/v6 value {V6_SCALE_20K_RUN_MS} ms"
                )


def check_multiuser(doc):
    entries = doc["multiuser"]
    if doc["scale"]:
        assert entries, "a --scale bench must carry the multiuser sweep"
    for entry in entries:
        users = entry.get("users", 0)
        for field in MULTIUSER_FIELDS:
            assert field in entry, f"multiuser/{users}: missing {field}"
        assert entry["trees_built_naive"] == entry["installs"], (
            f"multiuser/{users}: the naive reference must build one tree per "
            f"install, got {entry['trees_built_naive']} for {entry['installs']}"
        )
        assert (
            entry["trees_built_shared"] <= entry["trees_built_naive"]
        ), f"multiuser/{users}: shared cache built MORE trees than naive"
        assert 0.0 <= entry["min_success_ratio"] <= entry["mean_success_ratio"] <= 1.0
        assert entry.get("events_per_sec", 0) > 0, (
            f"multiuser/{users}: events_per_sec missing or non-positive"
        )
        if users >= 250:
            assert entry["shared_ms"] < V6_MULTIUSER_250_SHARED_MS, (
                f"multiuser/{users}: serial hot loop {entry['shared_ms']} ms "
                f"regressed past the committed bench/v6 value "
                f"{V6_MULTIUSER_250_SHARED_MS} ms"
            )
    # The 100+-fleet sharing assertion only applies when the --users ceiling
    # allows such a fleet in the ladder at all (`--bench --users 8` now
    # honestly simulates at most 8 users).
    if entries and doc.get("users", 0) >= 100:
        big = [e for e in entries if e["users"] >= 100]
        assert big, "multiuser sweep must include a fleet of 100+ users"
        for entry in big:
            assert entry["trees_built_shared"] < entry["trees_built_naive"], (
                f"multiuser/{entry['users']}: at 100+ users the shared cache "
                f"must build strictly fewer trees than one-per-user "
                f"({entry['trees_built_shared']} vs {entry['trees_built_naive']})"
            )


def check_churn(doc):
    entries = doc["churn"]
    if doc["scale"]:
        assert entries, "a --scale bench must carry the churn sweep"
    for entry in entries:
        nodes = entry.get("nodes", 0)
        rate = entry.get("rate", 0.0)
        label = f"churn/{nodes}@{rate}"
        for field in CHURN_FIELDS:
            assert field in entry, f"{label}: missing {field}"
        assert entry["batches"] >= 1, f"{label}: a churn run must have batches"
        assert entry["deaths"] >= 1, f"{label}: the schedule must actually churn"
        assert entry["backbone_count"] >= 1, f"{label}: repaired backbone is empty"
        assert len(entry["backbone_digest"]) == 16, f"{label}: malformed digest"
        if nodes <= VERIFY_MAX_NODES:
            assert entry["per_batch_verified"], (
                f"{label}: every batch must be verified against a full "
                f"re-election at verifiable scales"
            )
        assert entry["mean_repair_ms"] >= 0.0, f"{label}: negative repair time"
        assert entry["full_ccp_ms"] > 0.0, f"{label}: full election not timed"
        if nodes >= REPAIR_ADVANTAGE_MIN_NODES and rate <= REPAIR_ADVANTAGE_MAX_RATE:
            assert (
                entry["mean_repair_ms"] * REPAIR_ADVANTAGE < entry["full_ccp_ms"]
            ), (
                f"{label}: incremental repair ({entry['mean_repair_ms']} ms/batch) "
                f"is not at least {REPAIR_ADVANTAGE}x cheaper than full "
                f"re-election ({entry['full_ccp_ms']} ms)"
            )


def check_service(doc):
    service = doc["service"]
    for field in (
        "qps",
        "duration_periods",
        "sharing",
        "submitted",
        "rejected",
        "starved",
        "mean_success_ratio",
        "min_success_ratio",
        "latency",
        "installs",
        "trees_built",
        "sharing_ratio",
    ):
        assert field in service, f"service: missing {field}"
    assert service["submitted"] >= 1, "the reference load admitted no query"
    assert (
        0.0 <= service["min_success_ratio"] <= service["mean_success_ratio"] <= 1.0
    ), "service success ratios out of [0, 1]"
    latency = service["latency"]
    assert latency["count"] + service["starved"] == service["submitted"], (
        "every admitted query must be served or starved"
    )
    if latency["count"] > 0:
        p50, p99 = latency["p50_periods"], latency["p99_periods"]
        assert 0.0 <= p50 <= p99 <= latency["max_periods"], (
            f"service latency percentiles disordered: p50 {p50}, p99 {p99}"
        )
    assert service["trees_built"] <= service["installs"]


def check_event_loop(doc):
    allocs = doc.get("steady_allocs_per_period")
    assert allocs == 0, (
        f"steady state allocated {allocs} times per period; the warm loop "
        f"must allocate exactly zero"
    )


def check_resilience(doc):
    entries = doc.get("resilience")
    assert entries, "the resilience ladder is missing"
    pairs = {}
    for entry in entries:
        loss = entry.get("loss", -1.0)
        label = f"resilience/loss={loss}:{'on' if entry.get('recovery') else 'off'}"
        for field in RESILIENCE_FIELDS:
            assert field in entry, f"{label}: missing {field}"
        assert 0.0 <= loss < 1.0, f"{label}: loss rate out of [0, 1)"
        assert 0.0 <= entry["mean_delivery_ratio"] <= 1.0, (
            f"{label}: mean_delivery_ratio out of [0, 1]"
        )
        assert 0.0 <= entry["mean_success_ratio"] <= 1.0, (
            f"{label}: mean_success_ratio out of [0, 1]"
        )
        if not entry["recovery"]:
            assert entry["retries"] == 0, (
                f"{label}: recovery-off must never retransmit, "
                f"got {entry['retries']} retries"
            )
        key = (entry["nodes"], loss)
        arm = pairs.setdefault(key, {})
        assert entry["recovery"] not in arm, f"{label}: duplicate arm"
        arm[entry["recovery"]] = entry
    for (nodes, loss), arm in sorted(pairs.items()):
        label = f"resilience/{nodes}@{loss}"
        assert set(arm) == {True, False}, (
            f"{label}: every loss rate needs a recovery-on AND a recovery-off "
            f"arm over the identical fault schedule"
        )
        if loss > 0.0:
            on, off = arm[True], arm[False]
            assert on["retries"] > 0, (
                f"{label}: recovery-on never retried under nonzero loss — "
                f"the retry path did not run"
            )
            assert on["mean_delivery_ratio"] > off["mean_delivery_ratio"], (
                f"{label}: recovery-on must retain strictly higher mean query "
                f"delivery than recovery-off ({on['mean_delivery_ratio']} vs "
                f"{off['mean_delivery_ratio']})"
            )


def check_doc(doc):
    assert doc["schema"] == "mobiquery-repro/bench/v10", doc["schema"]
    assert doc.get("host_cores", 0) >= 1, "host_cores missing from bench header"
    assert doc.get("users", 0) >= 1, "users missing from bench header"
    check_event_loop(doc)
    check_scale(doc)
    check_multiuser(doc)
    check_churn(doc)
    check_service(doc)
    check_resilience(doc)


def main(path):
    with open(path) as f:
        doc = json.load(f)
    check_doc(doc)
    print(
        "bench/v10 setup breakdown + event loop + multiuser tree economy + "
        "churn repair + service load + resilience recovery dominance OK"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "BENCH_repro.json")
