//! Golden-snapshot gate: `repro --quick --format json fig4` must keep
//! producing byte-identical output.
//!
//! The spatial-index work (and any future performance work) is only allowed
//! to change *speed*, never *results* — the simulation is a pure function of
//! its scenario. This test pins the full CLI path (argument parsing, the
//! trial planner, JSON rendering) against a committed snapshot so a hot-path
//! "optimization" that perturbs tie-breaks, RNG draw order or float
//! evaluation order fails CI instead of silently shifting every figure.
//!
//! To update the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! cargo run --release --bin repro -- --quick --format json \
//!     --out tests/golden/fig4_quick.json fig4
//! ```

mod cli_golden;

const GOLDEN: &str = include_str!("golden/fig4_quick.json");
const ARGS: [&str; 3] = ["--quick", "--format", "json"];

#[test]
fn repro_quick_fig4_json_matches_golden_snapshot() {
    cli_golden::check_golden(
        &ARGS,
        "fig4",
        GOLDEN,
        "Performance work must not change simulation results",
    );
}
