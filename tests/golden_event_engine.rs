//! Golden values for the event-driven engine behind the paper's figures.
//!
//! Six runs of `Simulation` at the paper's 200 nodes for 120 s, with the
//! user at Figure 4's middle speed range (6–10 m/s): MQ-JIT, MQ-GP and NP,
//! each once with oracle motion profiles and once with the history-based
//! predictor (`with_predictor(8.0, 5.0)`) and a motion change every 20 s.
//! The predictor runs deliver a new profile every few seconds, so a newer
//! prefetch generation replaces trees that are already standing while the
//! old tree's setup and collection events are still in flight. That
//! replaced-generation path is what this file pins: the fig4 golden covers
//! only oracle success ratios to four decimals.
//!
//! The seed is chosen so that the MQ-JIT predictor run also meets the rarest
//! case of that path: a replaced tree's setup message reaching a node outside
//! the tree that replaced it (twice in that run; of seeds 1–150, only this
//! one has it under MQ-JIT). The engine must still relay and time out such
//! a node once, as it does for a member.
//!
//! Each run pins its event, frame and tree counts, the largest prefetch
//! length, the exact bits of the mean sleeping-node power and an FNV-1a
//! digest of the whole query log. Performance work on the engine must leave
//! every value as it is.
//!
//! To regenerate the snapshot after a *deliberate* behaviour change:
//!
//! ```text
//! MOBIQUERY_BLESS=1 cargo test --release --test golden_event_engine
//! ```

use mobiquery_repro::metrics::{JsonValue, QueryLog};
use mobiquery_repro::mobility::ProfileSource;
use mobiquery_repro::mobiquery::config::{Scenario, Scheme};
use mobiquery_repro::mobiquery::sim::{Simulation, SimulationOutput};

const GOLDEN: &str = include_str!("golden/event_engine.json");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/event_engine.json"
);

const SEED: u64 = 26;
const DURATION_S: f64 = 120.0;
const SCHEMES: [Scheme; 3] = [Scheme::JustInTime, Scheme::Greedy, Scheme::None];

fn scenario(scheme: Scheme, predictor: bool) -> Scenario {
    let s = Scenario::paper_default()
        .with_duration_secs(DURATION_S)
        .with_speed_range(6.0, 10.0)
        .with_scheme(scheme)
        .with_seed(SEED);
    if predictor {
        s.with_predictor(8.0, 5.0).with_motion_change_interval(20.0)
    } else {
        s.with_profile_source(ProfileSource::Oracle)
    }
}

/// 64-bit FNV-1a over every field of every record, in log order.
fn log_digest(log: &QueryLog) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for r in log.records() {
        for v in [
            r.seq,
            r.deadline.as_micros(),
            r.delivered_at.map_or(u64::MAX, |t| t.as_micros()),
            r.contributing_nodes as u64,
            r.nodes_in_area as u64,
        ] {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0100_0000_01B3);
            }
        }
    }
    h
}

fn run_json(scheme: Scheme, predictor: bool, out: &SimulationOutput) -> JsonValue {
    JsonValue::object()
        .with("scheme", scheme.label())
        .with("profiles", if predictor { "predictor" } else { "oracle" })
        .with("events_processed", out.events_processed)
        .with("frames_sent", out.frames_sent)
        .with("frames_lost", out.frames_lost)
        .with("trees_built", out.trees_built)
        .with("max_prefetch_length", out.max_prefetch_length)
        .with(
            "mean_sleeping_power_w_bits",
            out.mean_sleeping_power_w.to_bits(),
        )
        .with("query_log_fnv1a", log_digest(&out.query_log))
}

#[test]
fn event_engine_matches_golden_values() {
    let mut runs = Vec::new();
    for predictor in [false, true] {
        for scheme in SCHEMES {
            let out = Simulation::new(scenario(scheme, predictor))
                .expect("the golden scenarios are valid")
                .run();
            if predictor && scheme.uses_prefetching() {
                // More installs than pickup points: some generation replaced
                // a tree that was still standing, so the pinned values cover
                // the stale tree's in-flight events.
                assert!(
                    out.trees_built > out.query_log.len() as u64,
                    "{scheme} with the predictor built {} trees for {} queries: \
                     no standing tree was replaced",
                    out.trees_built,
                    out.query_log.len()
                );
            }
            runs.push(run_json(scheme, predictor, &out));
        }
    }
    let got = JsonValue::object()
        .with("seed", SEED)
        .with("duration_s", DURATION_S)
        .with("runs", runs)
        .to_pretty_string();
    if std::env::var_os("MOBIQUERY_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("the golden file is writable");
        return;
    }
    assert!(
        got == GOLDEN,
        "event-engine values diverged from tests/golden/event_engine.json.\n\
         got:\n{got}\n\
         Performance work must not change simulation results; if this change \
         is deliberate, regenerate the snapshot (see this test's module docs)."
    );
}
