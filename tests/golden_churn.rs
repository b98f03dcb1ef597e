//! Golden-snapshot gate for the churn target: `repro --quick --scale 2000
//! --churn-rate 0.05 --format json churn` must keep producing byte-identical
//! output.
//!
//! This pins the whole churn stack — the seed-derived death/join schedule,
//! the joins that refill the slots each batch's deaths free, the priority
//! election and the incremental backbone repair — against a committed
//! snapshot. Every trial internally verifies each batch against a full
//! re-election (2000 nodes is far below the per-batch verification cap) and
//! asserts the final backbone equals a from-scratch election, so these bytes
//! also certify that repair ≡ re-election held for the pinned schedule.
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

mod cli_golden;

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
    cli_golden::check_golden(
        &ARGS,
        "churn",
        GOLDEN,
        "The churn schedule and repaired backbone are pure functions of the seed",
    );
}
