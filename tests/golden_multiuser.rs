//! Golden-snapshot gate for the multi-user target: `repro --quick --format
//! json multiuser` must keep producing byte-identical output.
//!
//! This pins the whole multiplexing stack — fleet generation, staggered
//! lifetimes, the quantised pickup lattice, the shared tree cache and the
//! per-query scoring streams — against a committed snapshot, exactly as
//! `golden_fig4.rs` pins the single-user path. Every sweep trial internally
//! cross-checks the shared cache against the naive one-tree-per-user
//! reference, so these bytes also certify that equivalence held. The bytes
//! must not depend on the worker count, at the default fleet and at 64
//! users.
//!
//! To update the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! cargo run --release --bin repro -- --quick --format json \
//!     --out tests/golden/multiuser_quick.json multiuser
//! ```

mod cli_golden;

const GOLDEN: &str = include_str!("golden/multiuser_quick.json");
const ARGS: [&str; 3] = ["--quick", "--format", "json"];

#[test]
fn repro_quick_multiuser_json_matches_golden_snapshot() {
    cli_golden::check_golden(
        &ARGS,
        "multiuser",
        GOLDEN,
        "Tree sharing must not change per-user results",
    );
}

#[test]
fn repro_quick_multiuser_is_jobs_invariant() {
    cli_golden::check_jobs_invariant(&ARGS, "multiuser", "--jobs must never change results");
}

#[test]
fn repro_quick_multiuser_is_jobs_invariant_at_64_users() {
    // ci.sh's 64-user gate, pinned so `cargo test` alone exercises it.
    cli_golden::check_jobs_invariant(
        &["--quick", "--users", "64", "--format", "json"],
        "multiuser",
        "--jobs must never change results",
    );
}
