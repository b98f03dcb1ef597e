//! Golden-snapshot gate for the resilience target: `repro --quick --scale
//! 2000 --fault-loss 0.2 --format json resilience` must keep producing
//! byte-identical output.
//!
//! This pins the whole fault-injection stack — the seed-derived
//! Gilbert–Elliott loss schedule, install retries with exponential backoff,
//! crash-triggered tree repair and the recovery-on/off pairing over the
//! identical schedule — against a committed snapshot. The JSON carries no
//! wall-clock fields, so the bytes are a pure function of the seed.
//!
//! To update the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! cargo run --release --bin repro -- --quick --scale 2000 \
//!     --fault-loss 0.2 --format json \
//!     --out tests/golden/resilience_quick.json resilience
//! ```

mod cli_golden;

const GOLDEN: &str = include_str!("golden/resilience_quick.json");
const ARGS: [&str; 7] = [
    "--quick",
    "--scale",
    "2000",
    "--fault-loss",
    "0.2",
    "--format",
    "json",
];

#[test]
fn repro_quick_resilience_json_matches_golden_snapshot() {
    cli_golden::check_golden(
        &ARGS,
        "resilience",
        GOLDEN,
        "The fault schedule and every recovery decision are pure functions of the seed",
    );
}
