//! Golden-snapshot gates for the `all` target.
//!
//! `repro --quick all` must keep printing byte-identical tables. The JSON
//! goldens pin the numbers; this pins what a reader of the default output
//! sees — every figure's table, the analysis tables' formatted cells (the
//! warm-up bound prints `0.0`, never `-0.0`) and the multi-user table — in
//! every build profile.
//!
//! `repro --quick --runs 2 --format json all` must keep producing
//! byte-identical JSON. Every other golden runs one replicate per point, so
//! this is the one that pins the seeds of replicates past the first, how
//! each sweep numbers its points (Figure 8's late and early profiles, the
//! multi-user ladder) and Figure 5's one trial per scheme whatever `--runs`
//! says.
//!
//! To update the snapshots after a *deliberate* behaviour change:
//!
//! ```text
//! cargo run --release --bin repro -- --quick --out tests/golden/all_quick.txt all
//! cargo run --release --bin repro -- --quick --runs 2 --format json \
//!     --out tests/golden/all_quick_runs2.json all
//! ```

mod cli_golden;

#[test]
fn repro_quick_all_text_matches_golden_snapshot() {
    cli_golden::check_golden(
        &["--quick", "all"],
        "all_quick.txt",
        "The text tables must not move unless the results do",
    );
}

#[test]
fn repro_quick_all_json_with_two_runs_matches_golden_snapshot() {
    cli_golden::check_golden(
        &["--quick", "--runs", "2", "--format", "json", "all"],
        "all_quick_runs2.json",
        "Each replicate's seed is a pure function of its point and replicate numbers",
    );
}
