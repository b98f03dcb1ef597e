//! `figures_event`: the single-user event-driven engine behind the paper's
//! figures.
//!
//! The Figure 4 grid (speed range × sleep period × scheme) over a few
//! topologies, once with oracle motion profiles and once with the
//! history-based predictor and more frequent motion changes, which adds
//! profile-delivery events and re-prefetching. A pass builds every
//! simulation of the grid first, then runs them one by one.

use crate::bench::{Layers, Pass, PassCtx, Tally, Workload};
use crate::load::SplitMix64;
use crate::stats::Digest;
use crate::trace::Tracer;
use mobiquery_repro::mobility::ProfileSource;
use mobiquery_repro::mobiquery::config::{Scenario, Scheme};
use mobiquery_repro::mobiquery::error::ConfigError;
use mobiquery_repro::mobiquery::{SetupBreakdown, Simulation};
use std::time::Instant;

/// Tag mixed into the seed for the topology seeds.
const TOPOLOGY_TAG: u64 = 0x6669_6775_7265_7301;

const SCHEMES: [Scheme; 3] = [Scheme::JustInTime, Scheme::Greedy, Scheme::None];
/// Figure 4's user speed ranges, in m/s.
const SPEEDS: [(f64, f64); 3] = [(3.0, 5.0), (6.0, 10.0), (16.0, 20.0)];
/// Deployments per grid point.
const TOPOLOGIES: usize = 3;

pub struct Figures {
    /// Every simulation of a pass; the first half uses oracle profiles.
    scenarios: Vec<Scenario>,
}

impl Figures {
    /// The grid over `sleeps` (sleep periods in s), each simulation lasting
    /// `duration_s`.
    pub fn new(seed: u64, sleeps: &[f64], duration_s: f64) -> Self {
        let mut rng = SplitMix64::new(seed ^ TOPOLOGY_TAG);
        let seeds: Vec<u64> = (0..TOPOLOGIES).map(|_| rng.next_u64()).collect();
        let mut scenarios = Vec::new();
        for predictor in [false, true] {
            for &topology in &seeds {
                for (lo, hi) in SPEEDS {
                    for &sleep in sleeps {
                        for scheme in SCHEMES {
                            let s = Scenario::paper_default()
                                .with_duration_secs(duration_s)
                                .with_sleep_period_secs(sleep)
                                .with_speed_range(lo, hi)
                                .with_scheme(scheme)
                                .with_seed(topology);
                            scenarios.push(if predictor {
                                s.with_predictor(8.0, 5.0).with_motion_change_interval(20.0)
                            } else {
                                s.with_profile_source(ProfileSource::Oracle)
                            });
                        }
                    }
                }
            }
        }
        Figures { scenarios }
    }

    /// Builds every simulation of the grid, each call a span under `parent`.
    fn build(&self, tracer: &mut Tracer, parent: u32) -> Vec<Result<Simulation, ConfigError>> {
        self.scenarios
            .iter()
            .enumerate()
            .map(|(i, s)| {
                tracer.call("Simulation::new", parent, i as u64, || {
                    Simulation::new(s.clone())
                })
            })
            .collect()
    }
}

impl Workload for Figures {
    fn name(&self) -> &'static str {
        "figures_event"
    }

    fn op(&self) -> &'static str {
        "one event-driven simulation, Simulation::run"
    }

    fn setup_only(&self, tally: &mut Tally) -> Result<f64, String> {
        let start = Instant::now();
        let built = self.build(&mut Tracer::new(), 0);
        let secs = start.elapsed().as_secs_f64();
        for b in built {
            tally.call("Simulation::new", b)?;
        }
        Ok(secs)
    }

    fn breakdown(&self, tally: &mut Tally) -> Result<SetupBreakdown, String> {
        let mut sum = SetupBreakdown::default();
        for s in &self.scenarios {
            let b = tally
                .call("Simulation::new", Simulation::new(s.clone()))?
                .setup_breakdown();
            sum.neighbor_ms += b.neighbor_ms;
            sum.ccp_ms += b.ccp_ms;
            sum.plan_ms += b.plan_ms;
        }
        Ok(sum)
    }

    fn pass(&self, ctx: &mut PassCtx) -> Result<Pass, String> {
        let (tracer, tally, root, pass) = (&mut *ctx.tracer, &mut *ctx.tally, ctx.root, ctx.pass);

        let setup = tracer.open("setup", root, pass);
        let start = Instant::now();
        let built = self.build(tracer, setup);
        let setup_s = start.elapsed().as_secs_f64();
        tracer.close(setup);
        let sims = built
            .into_iter()
            .map(|b| tally.call("Simulation::new", b))
            .collect::<Result<Vec<_>, _>>()?;

        let run = tracer.open("run", root, pass);
        let mut run_s = 0.0;
        let mut op_ms = Vec::with_capacity(sims.len());
        let mut layers = Layers::default();
        let mut digest = Digest::default();
        // Mean fidelity per scheme over the oracle half.
        let mut fidelity = [0.0; SCHEMES.len()];
        let oracle = sims.len() / 2;
        for (i, (sim, s)) in sims.into_iter().zip(&self.scenarios).enumerate() {
            let t0 = Instant::now();
            let out = sim.run();
            let t1 = Instant::now();
            tracer.record("Simulation::run", run, i as u64, t0, t1);
            tally.attempted += 1;
            let ms = (t1 - t0).as_secs_f64() * 1e3;
            op_ms.push(ms);
            run_s += ms / 1e3;

            layers.events += out.events_processed;
            layers.frames_sent += out.frames_sent;
            layers.frames_lost += out.frames_lost;
            layers.sim_trees_built += out.trees_built;
            if i < oracle {
                let scheme = SCHEMES
                    .iter()
                    .position(|&x| x == s.scheme)
                    .expect("grid scheme");
                fidelity[scheme] += out.mean_fidelity;
            }
            for r in out.query_log.records() {
                digest.u64(r.seq);
                digest.u64(r.delivered_at.map_or(u64::MAX, |t| t.as_micros()));
                digest.u64(r.contributing_nodes as u64);
                digest.u64(r.nodes_in_area as u64);
            }
            for v in [
                out.events_processed,
                out.frames_sent,
                out.frames_lost,
                out.trees_built,
                out.max_prefetch_length as u64,
                out.backbone_count as u64,
            ] {
                digest.u64(v);
            }
            digest.f64(out.mean_sleeping_power_w);
        }
        tracer.close(run);

        let check = tracer.open("check", root, pass);
        let (jit, np) = (fidelity[0], fidelity[2]);
        tally.check(jit > np, || {
            format!(
                "figures_event: MQ-JIT fidelity sum {jit} not above NP's {np} with oracle profiles"
            )
        });
        tracer.close(check);

        Ok(Pass {
            setup_s,
            run_s,
            op_ms,
            digest,
            layers,
        })
    }
}
