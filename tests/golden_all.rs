//! Golden-snapshot gate for text mode: `repro --quick all` must keep
//! printing byte-identical tables.
//!
//! The JSON goldens pin the numbers; this pins what a reader of the default
//! output sees — every figure's table, the analysis tables' formatted cells
//! (the warm-up bound prints `0.0`, never `-0.0`) and the multi-user table —
//! in every build profile.
//!
//! To update the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! cargo run --release --bin repro -- --quick --out tests/golden/all_quick.txt all
//! ```

mod cli_golden;

const GOLDEN: &str = include_str!("golden/all_quick.txt");
const ARGS: [&str; 1] = ["--quick"];

#[test]
fn repro_quick_all_text_matches_golden_snapshot() {
    cli_golden::check_golden(
        &ARGS,
        "all",
        GOLDEN,
        "The text tables must not move unless the results do",
    );
}

#[test]
fn repro_quick_all_text_is_jobs_invariant() {
    cli_golden::check_jobs_invariant(&ARGS, "all", "--jobs must never change the text");
}
