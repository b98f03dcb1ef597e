//! Golden-snapshot gate for the churn target: `repro --quick --scale 2000
//! --churn-rate 0.05 --format json churn` must keep producing byte-identical
//! output.
//!
//! This pins the whole churn stack — the seed-derived death/join schedule,
//! the slot-recycling node store, the priority election and the incremental
//! backbone repair — against a committed snapshot. Every trial internally
//! verifies each batch against a full re-election (2000 nodes is far below
//! the per-batch verification cap) and asserts the final backbone equals a
//! from-scratch election, so these bytes also certify that repair ≡
//! re-election held for the pinned schedule.
//!
//! One column is a work counter, not an outcome: `evaluated` counts the
//! repair's worklist pops, so a change to how narrowly the repair seeds its
//! worklist moves it while the roles, flips, backbone digest and success
//! stay put.
//!
//! To update the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! cargo run --release --bin repro -- --quick --scale 2000 \
//!     --churn-rate 0.05 --format json \
//!     --out tests/golden/churn_quick.json churn
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/churn_quick.json");
const ARGS: [&str; 7] = [
    "--quick",
    "--scale",
    "2000",
    "--churn-rate",
    "0.05",
    "--format",
    "json",
];

#[test]
fn repro_quick_churn_json_matches_golden_snapshot() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(ARGS)
        .arg("churn")
        .output()
        .expect("repro binary runs");
    assert!(
        output.status.success(),
        "repro exited with {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let got = String::from_utf8(output.stdout).expect("repro emits UTF-8 JSON");
    if got != GOLDEN {
        let line = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .map(|i| i + 1)
            .unwrap_or_else(|| got.lines().count().min(GOLDEN.lines().count()) + 1);
        panic!(
            "churn quick JSON diverged from tests/golden/churn_quick.json at line {line}.\n\
             The churn schedule and repaired backbone are pure functions of the seed; if \
             this change is deliberate, regenerate the snapshot (see this test's module \
             docs)."
        );
    }
}

#[test]
fn repro_quick_churn_is_jobs_invariant() {
    let run = |jobs: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(ARGS)
            .args(["--jobs", jobs, "churn"])
            .output()
            .expect("repro binary runs");
        assert!(output.status.success());
        output.stdout
    };
    assert_eq!(run("1"), run("3"), "--jobs must never change churn results");
}
