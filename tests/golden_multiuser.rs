//! Golden-snapshot gate for the multi-user target: `repro --quick --format
//! json multiuser` must keep producing byte-identical output.
//!
//! This pins the whole multiplexing stack — fleet generation, staggered
//! lifetimes, the quantised pickup lattice, the shared tree cache and the
//! per-query scoring streams — against a committed snapshot, exactly as
//! `golden_fig4.rs` pins the single-user path. Every sweep trial internally
//! cross-checks the shared cache against the naive one-tree-per-user
//! reference, so these bytes also certify that equivalence held.
//!
//! To update the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! cargo run --release --bin repro -- --quick --format json \
//!     --out tests/golden/multiuser_quick.json multiuser
//! ```

mod cli_golden;

const ARGS: [&str; 4] = ["--quick", "--format", "json", "multiuser"];

#[test]
fn repro_quick_multiuser_json_matches_golden_snapshot() {
    cli_golden::check_golden(
        &ARGS,
        "multiuser_quick.json",
        "Tree sharing must not change per-user results",
    );
}
