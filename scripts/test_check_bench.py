#!/usr/bin/env python3
"""Unit tests for check_bench.py, the bench/v10 schema gate.

Run from the repository root (the CI lint job does exactly this):

    python3 -m unittest discover -s scripts

Each test builds a minimal valid document and mutates one thing, so every
assertion in the checker is exercised in both directions.
"""

import copy
import unittest

import check_bench


def valid_doc():
    """The smallest document every check in check_bench.py accepts."""
    return {
        "schema": "mobiquery-repro/bench/v10",
        "host_cores": 4,
        "users": 8,
        "steady_allocs_per_period": 0,
        "scale": [
            {
                "nodes": 1000,
                "jit": {
                    "setup": {"neighbor_ms": 1.0, "ccp_ms": 2.0, "plan_ms": 0.1},
                    "run_ms": 2.0,
                    "events_per_sec": 2.5e6,
                },
                "np": {
                    "setup": {"neighbor_ms": 1.0, "ccp_ms": 2.0, "plan_ms": 0.1},
                    "run_ms": 2.0,
                    "events_per_sec": 2.5e6,
                },
            }
        ],
        "multiuser": [
            {
                "users": 4,
                "installs": 40,
                "trees_built_shared": 30,
                "trees_built_naive": 40,
                "sharing_ratio": 0.75,
                "mean_success_ratio": 0.9,
                "min_success_ratio": 0.8,
                "mean_fidelity": 0.95,
                "node_wake_seconds_shared": 10.0,
                "node_wake_seconds_naive": 12.0,
                "shared_ms": 100.0,
                "events_per_sec": 5000.0,
            }
        ],
        "churn": [
            {
                "nodes": 1000,
                "rate": 0.01,
                "batches": 29,
                "deaths": 290,
                "evaluated": 5000,
                "promoted": 200,
                "demoted": 150,
                "backbone_count": 260,
                "backbone_digest": "f79285a53efd2296",
                "per_batch_verified": True,
                "repair_ms": 29.0,
                "mean_repair_ms": 1.0,
                "apply_ms": 10.0,
                "full_ccp_ms": 20.0,
            }
        ],
        "resilience": [
            {
                "nodes": 1000,
                "loss": 0.1,
                "recovery": True,
                "retries": 20,
                "install_failures": 5,
                "retries_per_delivered": 0.2,
                "mean_outage_periods": 1.5,
                "mean_success_ratio": 0.01,
                "mean_fidelity": 0.35,
                "mean_delivery_ratio": 0.95,
                "elapsed_ms": 4.0,
            },
            {
                "nodes": 1000,
                "loss": 0.1,
                "recovery": False,
                "retries": 0,
                "install_failures": 9,
                "retries_per_delivered": 0,
                "mean_outage_periods": 1.5,
                "mean_success_ratio": 0.01,
                "mean_fidelity": 0.34,
                "mean_delivery_ratio": 0.90,
                "elapsed_ms": 4.0,
            },
        ],
        "service": {
            "qps": 4.0,
            "duration_periods": 40,
            "sharing": "shared",
            "submitted": 100,
            "rejected": 0,
            "starved": 5,
            "mean_success_ratio": 0.9,
            "min_success_ratio": 0.7,
            "latency": {
                "count": 95,
                "p50_periods": 1.0,
                "p99_periods": 3.0,
                "max_periods": 5.0,
            },
            "installs": 200,
            "trees_built": 150,
            "sharing_ratio": 0.75,
        },
    }


class CheckDocTest(unittest.TestCase):
    def mutated(self, mutate):
        doc = copy.deepcopy(valid_doc())
        mutate(doc)
        return doc

    def assert_rejected(self, mutate, fragment=""):
        with self.assertRaises(AssertionError) as ctx:
            check_bench.check_doc(self.mutated(mutate))
        if fragment:
            self.assertIn(fragment, str(ctx.exception))

    def test_valid_document_passes(self):
        check_bench.check_doc(valid_doc())

    def test_wrong_schema_rejected(self):
        self.assert_rejected(
            lambda d: d.update(schema="mobiquery-repro/bench/v9"), "v9"
        )

    def test_missing_header_fields_rejected(self):
        self.assert_rejected(lambda d: d.pop("host_cores"), "host_cores")
        self.assert_rejected(lambda d: d.update(users=0), "users")


class CheckEventLoopTest(CheckDocTest):
    def test_nonzero_steady_allocations_rejected(self):
        # The whole point of the zero-alloc PR: "small" is not zero.
        self.assert_rejected(
            lambda d: d.update(steady_allocs_per_period=1), "allocated 1"
        )
        self.assert_rejected(
            lambda d: d.pop("steady_allocs_per_period"), "allocated"
        )


class CheckScaleTest(CheckDocTest):
    def test_missing_events_per_sec_rejected(self):
        self.assert_rejected(
            lambda d: d["scale"][0]["jit"].pop("events_per_sec"), "events_per_sec"
        )
        self.assert_rejected(
            lambda d: d["multiuser"][0].update(events_per_sec=0.0),
            "events_per_sec",
        )

    def test_20k_run_regression_rejected(self):
        # A committed sweep carrying the 20k entry must beat the bench/v6
        # run_ms; other sizes carry no event-loop bound.
        self.assert_rejected(
            lambda d: (
                d["scale"][0].update(nodes=20000),
                d["scale"][0]["jit"].update(run_ms=6.0),
            ),
            "regressed past the committed bench/v6",
        )
        ok = self.mutated(
            lambda d: (
                d["scale"][0].update(nodes=20000),
                d["scale"][0]["jit"].update(run_ms=4.0),
                d["scale"][0]["np"].update(run_ms=4.5),
            )
        )
        check_bench.check_doc(ok)

    def test_multiuser_serial_regression_rejected(self):
        # shared_ms 100.0 at 4 users is unbounded; at 250+ it races the
        # committed bench/v6 serial hot loop.
        self.assert_rejected(
            lambda d: d["multiuser"][0].update(
                users=250,
                installs=2500,
                trees_built_naive=2500,
                trees_built_shared=249,
                shared_ms=2000.0,
            ),
            "regressed past the committed bench/v6",
        )
        ok = self.mutated(
            lambda d: d["multiuser"][0].update(
                users=250,
                installs=2500,
                trees_built_naive=2500,
                trees_built_shared=249,
                shared_ms=700.0,
            )
        )
        check_bench.check_doc(ok)

    def test_missing_setup_phase_rejected(self):
        self.assert_rejected(
            lambda d: d["scale"][0]["jit"]["setup"].pop("ccp_ms"), "ccp_ms"
        )

    def test_ccp_regression_rejected(self):
        # 1000 nodes has a committed pre-raster bound of 19.05 ms.
        self.assert_rejected(
            lambda d: d["scale"][0]["jit"]["setup"].update(ccp_ms=1000.0),
            "exceeds the",
        )

    def test_unknown_scale_has_no_bound(self):
        doc = self.mutated(
            lambda d: (
                d["scale"][0].update(nodes=123456),
                d["scale"][0]["jit"]["setup"].update(ccp_ms=1e6),
            )
        )
        check_bench.check_doc(doc)


class CheckMultiuserTest(CheckDocTest):
    def test_scale_bench_requires_multiuser_sweep(self):
        self.assert_rejected(lambda d: d.update(multiuser=[]), "multiuser")

    def test_naive_tree_count_must_equal_installs(self):
        self.assert_rejected(
            lambda d: d["multiuser"][0].update(trees_built_naive=39),
            "one tree per install",
        )

    def test_shared_may_not_exceed_naive(self):
        self.assert_rejected(
            lambda d: d["multiuser"][0].update(trees_built_shared=41),
            "MORE trees",
        )

    def test_big_fleet_must_share(self):
        def grow(d):
            d["users"] = 128
            d["multiuser"][0].update(
                users=128, trees_built_shared=40, trees_built_naive=40
            )

        self.assert_rejected(grow, "strictly fewer")


class CheckChurnTest(CheckDocTest):
    def test_scale_bench_requires_churn_sweep(self):
        self.assert_rejected(lambda d: d.update(churn=[]), "churn")

    def test_missing_field_rejected(self):
        self.assert_rejected(
            lambda d: d["churn"][0].pop("backbone_digest"), "backbone_digest"
        )

    def test_unverified_batches_rejected_at_verifiable_scale(self):
        self.assert_rejected(
            lambda d: d["churn"][0].update(per_batch_verified=False), "verified"
        )

    def test_unverified_batches_allowed_above_the_cap(self):
        doc = self.mutated(
            lambda d: d["churn"][0].update(
                nodes=1_000_000, per_batch_verified=False
            )
        )
        check_bench.check_doc(doc)

    def test_repair_advantage_enforced_at_scale_under_light_churn(self):
        def slow_repair(d):
            d["churn"][0].update(
                nodes=100_000, rate=0.001, mean_repair_ms=10.0, full_ccp_ms=20.0
            )

        self.assert_rejected(slow_repair, "cheaper than full")

    def test_repair_advantage_waived_under_heavy_churn(self):
        doc = self.mutated(
            lambda d: d["churn"][0].update(
                nodes=100_000, rate=0.05, mean_repair_ms=10.0, full_ccp_ms=20.0
            )
        )
        check_bench.check_doc(doc)

    def test_empty_backbone_rejected(self):
        self.assert_rejected(
            lambda d: d["churn"][0].update(backbone_count=0), "backbone"
        )

    def test_malformed_digest_rejected(self):
        self.assert_rejected(
            lambda d: d["churn"][0].update(backbone_digest="abc"), "digest"
        )


class CheckResilienceTest(CheckDocTest):
    def test_missing_section_rejected(self):
        self.assert_rejected(lambda d: d.pop("resilience"), "resilience")
        self.assert_rejected(lambda d: d.update(resilience=[]), "resilience")

    def test_missing_field_rejected(self):
        self.assert_rejected(
            lambda d: d["resilience"][0].pop("mean_delivery_ratio"),
            "mean_delivery_ratio",
        )

    def test_unpaired_arm_rejected(self):
        # Dropping the recovery-off arm leaves no baseline to dominate.
        self.assert_rejected(lambda d: d["resilience"].pop(1), "recovery-off")

    def test_duplicate_arm_rejected(self):
        self.assert_rejected(
            lambda d: d["resilience"][1].update(recovery=True), "duplicate arm"
        )

    def test_recovery_off_may_not_retry(self):
        self.assert_rejected(
            lambda d: d["resilience"][1].update(retries=3), "never retransmit"
        )

    def test_idle_retry_path_rejected(self):
        self.assert_rejected(
            lambda d: d["resilience"][0].update(retries=0), "retry path"
        )

    def test_recovery_must_strictly_beat_the_baseline(self):
        # The headline gate: equal delivery is a failure, not a tie.
        self.assert_rejected(
            lambda d: d["resilience"][0].update(mean_delivery_ratio=0.90),
            "strictly higher",
        )
        self.assert_rejected(
            lambda d: d["resilience"][0].update(mean_delivery_ratio=0.85),
            "strictly higher",
        )

    def test_zero_loss_pair_carries_no_dominance_bar(self):
        # A rate-0 pair is legal (it proves inertness) and recovery buys
        # nothing there, so the strict bar only applies to nonzero rungs.
        def zero_loss(d):
            for entry in d["resilience"]:
                entry.update(loss=0.0, retries=0, mean_delivery_ratio=1.0)

        check_bench.check_doc(self.mutated(zero_loss))

    def test_out_of_range_ratios_rejected(self):
        self.assert_rejected(
            lambda d: d["resilience"][0].update(mean_delivery_ratio=1.2),
            "out of [0, 1]",
        )
        self.assert_rejected(
            lambda d: d["resilience"][0].update(loss=1.0), "out of [0, 1)"
        )


class CheckServiceTest(CheckDocTest):
    def test_served_plus_starved_must_cover_submitted(self):
        self.assert_rejected(
            lambda d: d["service"].update(starved=0), "served or starved"
        )

    def test_disordered_percentiles_rejected(self):
        self.assert_rejected(
            lambda d: d["service"]["latency"].update(p50_periods=4.0),
            "percentiles disordered",
        )

    def test_trees_bounded_by_installs(self):
        self.assert_rejected(lambda d: d["service"].update(trees_built=201))


if __name__ == "__main__":
    unittest.main()
