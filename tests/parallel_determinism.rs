//! Parallel trial execution must be invisible in the results: any figure
//! computed with `jobs = N` has to be bit-identical to the serial run. This
//! is what lets `repro --jobs N` default to every core while CI diffs its
//! JSON output byte-for-byte against `--jobs 1`.

use mobiquery_repro::experiments::runner::trial_seed;
use mobiquery_repro::experiments::{fig4, fig8, multiuser, ExperimentConfig};
use mobiquery_repro::sim::pool;

#[test]
fn fig4_points_are_identical_serial_and_parallel() {
    let serial = fig4::run_points(&ExperimentConfig::quick().with_jobs(1));
    let parallel = fig4::run_points(&ExperimentConfig::quick().with_jobs(4));
    // Bit-identical, not approximately equal: the seeds are a pure function
    // of the plan coordinates, so no float may differ.
    assert_eq!(serial, parallel);
}

#[test]
fn fig8_json_is_identical_serial_and_parallel() {
    // fig8 exercises the multi-metric run_map path (power + baseline from
    // one trial); compare all the way down to the rendered bytes.
    let serial = fig8::run(&ExperimentConfig::quick().with_jobs(1));
    let parallel = fig8::run(&ExperimentConfig::quick().with_jobs(3));
    assert_eq!(
        serial.json.to_pretty_string(),
        parallel.json.to_pretty_string()
    );
    assert_eq!(serial.text, parallel.text);
}

#[test]
fn multiuser_points_are_identical_serial_and_parallel() {
    // The multi-user sweep runs shared and naive modes per trial and asserts
    // them equal internally; here we pin that the *fan-out* is also invisible.
    let config = ExperimentConfig::quick().with_users(4);
    let serial = multiuser::run_points(&config.with_jobs(1));
    let parallel = multiuser::run_points(&config.with_jobs(4));
    assert_eq!(serial, parallel);
}

#[test]
fn trial_seeds_are_stable_across_releases() {
    // The committed BENCH/results artifacts depend on the seed derivation;
    // pin a few values so an accidental change to the mixer is caught here
    // rather than as a mysterious CI diff.
    assert_eq!(trial_seed(42, 0, 0), 13675133952202209295);
    assert_eq!(trial_seed(42, 3, 1), 1535636025250397661);
    assert_ne!(trial_seed(42, 0, 1), trial_seed(42, 1, 0));
    assert_ne!(trial_seed(42, 2, 0), trial_seed(43, 2, 0));
}

#[test]
fn pool_overlaps_independent_tasks() {
    use std::time::{Duration, Instant};
    // Eight 50 ms sleeps on eight workers must overlap even on one core
    // (sleeping threads hold no CPU); serial execution would take 400 ms.
    let start = Instant::now();
    pool::run_indexed(8, vec![(); 8], |_, ()| {
        std::thread::sleep(Duration::from_millis(50));
    });
    assert!(
        start.elapsed() < Duration::from_millis(300),
        "workers did not run concurrently: {:?}",
        start.elapsed()
    );
}
