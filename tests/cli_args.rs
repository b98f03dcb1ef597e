//! CLI argument handling of the `repro` binary.
//!
//! A daemon-shaped CLI gets scripted against, so malformed invocations must
//! fail loudly: every bad flag exits non-zero with a usage message on
//! stderr, and `--help` keeps exiting zero. These run the real binary via
//! `CARGO_BIN_EXE_repro` — no argv mocking.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_usage_failure(args: &[&str]) {
    let out = repro(args);
    assert!(
        !out.status.success(),
        "`repro {}` should exit non-zero",
        args.join(" ")
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: repro"),
        "`repro {}` should print usage on stderr, got:\n{stderr}",
        args.join(" ")
    );
}

#[test]
fn help_exits_zero_with_usage_on_stdout() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["serve", "--help"],
        &["load", "-h"],
    ] {
        let out = repro(args);
        assert!(out.status.success(), "`repro {}` exits 0", args.join(" "));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage: repro"));
    }
}

#[test]
fn no_target_is_a_usage_error() {
    assert_usage_failure(&[]);
    assert_usage_failure(&["--quick"]);
}

#[test]
fn zero_users_is_a_usage_error() {
    assert_usage_failure(&["--users", "0", "multiuser"]);
    assert_usage_failure(&["--users", "-3", "multiuser"]);
    assert_usage_failure(&["--users", "many", "multiuser"]);
    assert_usage_failure(&["--users"]);
}

#[test]
fn zero_runs_is_a_usage_error() {
    // Zero replicates per data point is not one replicate, it is a typo.
    assert_usage_failure(&["--runs", "0", "fig4"]);
}

#[test]
fn malformed_jobs_are_usage_errors() {
    // Every run is serial, so there is no worker count to set: `--jobs` is
    // an unknown option whatever its value, in batch mode and in the service
    // subcommands alike.
    assert_usage_failure(&["--jobs", "0", "fig4"]);
    assert_usage_failure(&["--jobs", "-1", "fig4"]);
    assert_usage_failure(&["--jobs", "many", "fig4"]);
    assert_usage_failure(&["--jobs", "1.5", "fig4"]);
    assert_usage_failure(&["--jobs", "2", "fig4"]);
    assert_usage_failure(&["--jobs"]);
    assert_usage_failure(&["serve", "--periods", "5", "--jobs", "2"]);
    assert_usage_failure(&["load", "--qps", "4", "--duration", "10", "--jobs", "2"]);
}

#[test]
fn malformed_scale_lists_are_usage_errors() {
    assert_usage_failure(&["--bench", "/dev/null", "--scale", "", "fig4"]);
    assert_usage_failure(&["--bench", "/dev/null", "--scale", "1000,,2000", "fig4"]);
    assert_usage_failure(&["--bench", "/dev/null", "--scale", "1000,0", "fig4"]);
    assert_usage_failure(&["--bench", "/dev/null", "--scale", "abc", "fig4"]);
    assert_usage_failure(&["--bench", "/dev/null", "--scale"]);
}

#[test]
fn unknown_flags_and_targets_are_usage_errors() {
    assert_usage_failure(&["--frobnicate", "fig4"]);
    assert_usage_failure(&["fig9"]);
    // An unknown name is an error wherever it stands, `all` or not.
    assert_usage_failure(&["--quick", "all", "fig9"]);
    assert_usage_failure(&["--format", "xml", "fig4"]);
}

#[test]
fn all_expands_in_place_beside_named_targets() {
    // `all churn` runs the `all` targets and then churn; naming churn also
    // lets `--scale` size it.
    let out = repro(&[
        "--quick",
        "--churn-rate",
        "0.01",
        "--scale",
        "2000",
        "--format",
        "json",
        "all",
        "churn",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"multiuser\": {"));
    assert!(stdout.contains("\"churn\": {"), "`all churn` dropped churn");
}

#[test]
fn a_target_named_twice_runs_once() {
    let out = repro(&["--quick", "--format", "json", "fig4", "fig4"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("\"fig4\"").count(), 1, "{stdout}");
}

#[test]
fn malformed_churn_rates_are_usage_errors() {
    // A rate must be a finite fraction strictly between 0 and 1.
    assert_usage_failure(&["--churn-rate", "0", "churn"]);
    assert_usage_failure(&["--churn-rate", "-1", "churn"]);
    assert_usage_failure(&["--churn-rate", "-0.05", "churn"]);
    assert_usage_failure(&["--churn-rate", "1", "churn"]);
    assert_usage_failure(&["--churn-rate", "1.5", "churn"]);
    assert_usage_failure(&["--churn-rate", "nan", "churn"]);
    assert_usage_failure(&["--churn-rate", "inf", "churn"]);
    assert_usage_failure(&["--churn-rate", "abc", "churn"]);
    assert_usage_failure(&["--churn-rate"]);
}

#[test]
fn churn_target_requires_a_rate() {
    assert_usage_failure(&["churn"]);
    assert_usage_failure(&["--quick", "churn"]);
    let out = repro(&["--quick", "churn"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--churn-rate"),
        "the error must name the missing flag, got:\n{stderr}"
    );
}

#[test]
fn churn_scale_lists_are_validated_like_bench_ones() {
    assert_usage_failure(&["--churn-rate", "0.05", "--scale", "10,abc", "churn"]);
    assert_usage_failure(&["--churn-rate", "0.05", "--scale", "0", "churn"]);
    assert_usage_failure(&["--churn-rate", "0.05", "--scale", "", "churn"]);
    // --scale without --bench still needs the churn target to make sense.
    assert_usage_failure(&["--scale", "1000", "fig4"]);
}

#[test]
fn all_does_not_include_the_churn_target() {
    // `all` reproduces the paper's static figures; churn must stay an
    // explicit opt-in, so `repro all` must not fail for lack of a rate.
    let out = repro(&["--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("--churn-rate R churn"));
}

#[test]
fn churn_target_succeeds_on_valid_arguments() {
    let out = repro(&[
        "--quick",
        "--scale",
        "300",
        "--churn-rate",
        "0.1",
        "--format",
        "json",
        "churn",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"churn\""));
    assert!(stdout.contains("\"backbone_digest\""));
    assert!(stdout.contains("\"per_batch_verified\": true"));
    assert!(
        !stdout.contains("_ms"),
        "deterministic churn JSON must not leak wall-clock fields"
    );
}

#[test]
fn malformed_fault_losses_are_usage_errors() {
    // A loss rate is a probability below 1: the batch sweep path...
    assert_usage_failure(&["--fault-loss", "-0.1", "resilience"]);
    assert_usage_failure(&["--fault-loss", "-1", "resilience"]);
    assert_usage_failure(&["--fault-loss", "1", "resilience"]);
    assert_usage_failure(&["--fault-loss", "1.5", "resilience"]);
    assert_usage_failure(&["--fault-loss", "nan", "resilience"]);
    assert_usage_failure(&["--fault-loss", "inf", "resilience"]);
    assert_usage_failure(&["--fault-loss", "lossy", "resilience"]);
    assert_usage_failure(&["--fault-loss"]);
    // ...and the service path enforce the same contract.
    assert_usage_failure(&[
        "load",
        "--qps",
        "2",
        "--duration",
        "4",
        "--fault-loss",
        "-0.2",
    ]);
    assert_usage_failure(&[
        "load",
        "--qps",
        "2",
        "--duration",
        "4",
        "--fault-loss",
        "1.2",
    ]);
    assert_usage_failure(&[
        "load",
        "--qps",
        "2",
        "--duration",
        "4",
        "--fault-loss",
        "abc",
    ]);
    assert_usage_failure(&["load", "--qps", "2", "--duration", "4", "--fault-loss"]);
    assert_usage_failure(&["serve", "--periods", "4", "--fault-loss", "2"]);
    assert_usage_failure(&["serve", "--periods", "4", "--fault-loss", "nan"]);
}

#[test]
fn resilience_target_requires_a_loss_rate() {
    assert_usage_failure(&["resilience"]);
    assert_usage_failure(&["--quick", "resilience"]);
    let out = repro(&["--quick", "resilience"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--fault-loss"),
        "the error must name the missing flag, got:\n{stderr}"
    );
}

#[test]
fn dependent_fault_flags_need_the_loss_rate() {
    // --fault-burst and --no-recovery modify a fault profile that only
    // exists once --fault-loss is given.
    assert_usage_failure(&["--fault-burst", "4", "resilience"]);
    assert_usage_failure(&[
        "load",
        "--qps",
        "2",
        "--duration",
        "4",
        "--fault-burst",
        "4",
    ]);
    assert_usage_failure(&["load", "--qps", "2", "--duration", "4", "--no-recovery"]);
    assert_usage_failure(&["serve", "--periods", "4", "--no-recovery"]);
    // A burst is a mean dwell in periods, so it must be at least one.
    assert_usage_failure(&["--fault-loss", "0.1", "--fault-burst", "0.5", "resilience"]);
    assert_usage_failure(&["--fault-loss", "0.1", "--fault-burst", "0", "resilience"]);
    assert_usage_failure(&["--fault-loss", "0.1", "--fault-burst", "abc", "resilience"]);
    // --no-recovery is a service-side baseline switch, not a batch flag:
    // the batch sweep always runs both arms itself.
    assert_usage_failure(&["--fault-loss", "0.1", "--no-recovery", "resilience"]);
}

#[test]
fn resilience_target_succeeds_on_valid_arguments() {
    let out = repro(&[
        "--quick",
        "--scale",
        "200",
        "--fault-loss",
        "0.2",
        "--format",
        "json",
        "resilience",
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"resilience\""));
    assert!(stdout.contains("\"recovery\""));
    assert!(stdout.contains("\"mean_delivery_ratio\""));
    assert!(
        !stdout.contains("_ms"),
        "deterministic resilience JSON must not leak wall-clock fields"
    );
}

#[test]
fn serve_argument_errors_exit_nonzero_with_usage() {
    // Missing required --periods.
    assert_usage_failure(&["serve"]);
    // Malformed values.
    assert_usage_failure(&["serve", "--periods", "0"]);
    assert_usage_failure(&["serve", "--periods", "soon"]);
    assert_usage_failure(&["serve", "--periods"]);
    assert_usage_failure(&["serve", "--periods", "5", "--nodes", "0"]);
    // Flags of the other subcommand / unknown flags.
    assert_usage_failure(&["serve", "--periods", "5", "--qps", "2"]);
    assert_usage_failure(&["serve", "--periods", "5", "--frobnicate"]);
    // The service always shares trees: there is no sharing knob.
    assert_usage_failure(&["serve", "--periods", "5", "--naive"]);
}

#[test]
fn load_argument_errors_exit_nonzero_with_usage() {
    assert_usage_failure(&["load"]);
    assert_usage_failure(&["load", "--qps", "4"]);
    assert_usage_failure(&["load", "--duration", "10"]);
    assert_usage_failure(&["load", "--qps", "0", "--duration", "10"]);
    assert_usage_failure(&["load", "--qps", "nan", "--duration", "10"]);
    assert_usage_failure(&["load", "--qps", "4", "--duration", "0"]);
    assert_usage_failure(&["load", "--qps", "4", "--duration", "10", "--periods", "5"]);
}

#[test]
fn service_subcommands_succeed_on_valid_arguments() {
    let out = repro(&["serve", "--periods", "2", "--quick"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\": \"mobiquery-repro/service/v1\""));
    assert!(stdout.contains("\"serve\""));

    let out = repro(&["load", "--qps", "2", "--duration", "4", "--quick"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"load\""));
    assert!(stdout.contains("\"latency\""));
}
