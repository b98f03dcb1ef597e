#!/usr/bin/env python3
"""Render a mobiquery-repro/bench/v10 document as GitHub-flavored markdown.

Used by .github/workflows/ci.yml to append both the fresh bench run and the
committed BENCH_repro.json trajectory to $GITHUB_STEP_SUMMARY:

    python3 scripts/bench_summary.py "fresh run" bench.json >> "$GITHUB_STEP_SUMMARY"

Pure formatting — the schema assertions live in check_bench.py. Sections the
document does not carry (e.g. an empty scale sweep in the smoke bench) are
skipped rather than rendered empty.
"""

import json
import sys


def table(headers, rows):
    """A GitHub markdown table; returns "" when there are no rows."""
    if not rows:
        return ""
    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for _ in headers) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(v) for v in row) + " |")
    return "\n".join(lines) + "\n"


def section(title, body):
    return f"### {title}\n\n{body}\n" if body else ""


def figures_table(doc):
    rows = [
        [f["name"], f["serial_ms"], f["parallel_ms"], f["speedup"]]
        for f in doc.get("figures", [])
    ]
    return table(["target", "serial ms", "parallel ms", "speedup"], rows)


def steady_allocs_line(doc):
    if "steady_allocs_per_period" not in doc:
        return ""
    return (
        f"Steady-state heap allocations per period: "
        f"**{doc['steady_allocs_per_period']}**\n"
    )


def scale_table(doc):
    rows = []
    for e in doc.get("scale", []):
        jit, np = e["jit"], e["np"]
        rows.append(
            [
                e["nodes"],
                jit["setup_ms"],
                jit["setup"]["ccp_ms"],
                jit["run_ms"],
                f"{jit.get('events_per_sec', 0) / 1e6:.2f}M",
                np["run_ms"],
            ]
        )
    return table(
        [
            "nodes",
            "jit setup ms",
            "ccp ms",
            "jit run ms",
            "events/s",
            "np run ms",
        ],
        rows,
    )


def multiuser_table(doc):
    rows = [
        [
            e["users"],
            e["trees_built_shared"],
            e["trees_built_naive"],
            e["sharing_ratio"],
            f"{e['mean_success_ratio']:.3f}",
            e.get("shared_ms", "-"),
            e.get("events_per_sec", "-"),
        ]
        for e in doc.get("multiuser", [])
    ]
    return table(
        [
            "users",
            "trees shared",
            "trees naive",
            "sharing ratio",
            "mean success",
            "serial ms",
            "resolves/s",
        ],
        rows,
    )


def churn_table(doc):
    rows = [
        [
            e["nodes"],
            e["rate"],
            e["batches"],
            e["deaths"],
            e["mean_repair_ms"],
            e["full_ccp_ms"],
            e["speedup_vs_full"],
            "yes" if e["per_batch_verified"] else "final-only",
        ]
        for e in doc.get("churn", [])
    ]
    return table(
        [
            "nodes",
            "rate",
            "batches",
            "deaths",
            "repair ms/batch",
            "full election ms",
            "speedup",
            "verified",
        ],
        rows,
    )


def service_table(doc):
    s = doc.get("service")
    if not s:
        return ""
    latency = s["latency"]
    rows = [
        [
            s["qps"],
            s["duration_periods"],
            s["submitted"],
            s["starved"],
            s.get("deadline_misses", "-"),
            s.get("retries", "-"),
            s.get("degraded", "-"),
            f"{s['mean_success_ratio']:.3f}",
            latency.get("p50_periods", "-"),
            latency.get("p99_periods", "-"),
        ]
    ]
    return table(
        [
            "qps",
            "periods",
            "submitted",
            "starved",
            "misses",
            "retries",
            "degraded",
            "mean success",
            "p50",
            "p99",
        ],
        rows,
    )


def resilience_table(doc):
    # The entries carry full-precision ratios: show them at 4 decimals, and
    # delivery and fidelity at 3 of those 4.
    rows = [
        [
            e["nodes"],
            e["loss"],
            "on" if e["recovery"] else "off",
            e["retries"],
            e["install_failures"],
            round(e["retries_per_delivered"], 4),
            round(e["mean_outage_periods"], 4),
            f"{round(e['mean_delivery_ratio'], 4):.3f}",
            f"{round(e['mean_fidelity'], 4):.3f}",
        ]
        for e in doc.get("resilience", [])
    ]
    return table(
        [
            "nodes",
            "loss",
            "recovery",
            "retries",
            "failures",
            "retries/delivered",
            "outage periods",
            "mean delivery",
            "mean fidelity",
        ],
        rows,
    )


def render(title, doc):
    out = [
        f"## Bench: {title}\n",
        f"`{doc.get('schema', '?')}` — mode {doc.get('mode', '?')}, "
        f"{doc.get('host_cores', '?')} host cores, "
        f"{doc.get('parallel_jobs', '?')} parallel jobs\n",
        steady_allocs_line(doc),
        section("Per-target serial vs parallel", figures_table(doc)),
        section("Scale sweep", scale_table(doc)),
        section("Multi-user tree economy", multiuser_table(doc)),
        section("Churn: incremental repair vs full re-election", churn_table(doc)),
        section("Reference service load", service_table(doc)),
        section("Resilience: recovery on vs off under faults", resilience_table(doc)),
    ]
    return "\n".join(part for part in out if part)


def main(argv):
    if len(argv) != 3:
        print(
            "usage: bench_summary.py <title> <bench.json>",
            file=sys.stderr,
        )
        return 2
    with open(argv[2]) as f:
        doc = json.load(f)
    print(render(argv[1], doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
