//! `churn_100k`: node churn with incremental backbone repair at scale.
//!
//! Every boundary kills and re-joins a share of the nodes and repairs the
//! backbone; a few users keep querying so the stepped engine's query path
//! runs too, but topology maintenance dominates. Per-batch verification is
//! off while timed; the final backbone is compared against a full
//! re-election afterwards.

use crate::bench::{self, Layers, Pass, PassCtx, Tally, Workload};
use crate::stats::Digest;
use mobiquery_repro::mobiquery::config::Scenario;
use mobiquery_repro::mobiquery::error::ConfigError;
use mobiquery_repro::mobiquery::sim::{ChurnConfig, QuerySet, SteppedSim, TreeSharing};
use mobiquery_repro::mobiquery::{SetupBreakdown, Simulation};
use std::time::Instant;

/// Share of the nodes that die, and as many that join, at every boundary.
const RATE: f64 = 0.005;
/// Users querying while the topology churns.
const USERS: usize = 16;

pub struct Churn {
    pub nodes: usize,
    pub periods: u64,
    pub seed: u64,
}

impl Churn {
    fn scenario(&self) -> Scenario {
        bench::scenario(self.nodes, self.periods, self.seed)
    }

    fn build(&self) -> Result<SteppedSim, ConfigError> {
        let scenario = self.scenario();
        let users = QuerySet::generate(&scenario, USERS);
        let churn = ChurnConfig {
            rate: RATE,
            verify: false,
        };
        SteppedSim::with_churn(scenario, users, TreeSharing::Shared, churn)
    }
}

impl Workload for Churn {
    fn name(&self) -> &'static str {
        "churn_100k"
    }

    fn op(&self) -> &'static str {
        "one period boundary, SteppedSim::step_period with a churn batch"
    }

    fn setup_only(&self, tally: &mut Tally) -> Result<f64, String> {
        let start = Instant::now();
        let built = self.build();
        let secs = start.elapsed().as_secs_f64();
        tally.call("SteppedSim::with_churn", built)?;
        Ok(secs)
    }

    fn breakdown(&self, tally: &mut Tally) -> Result<SetupBreakdown, String> {
        let sim = tally.call("Simulation::new", Simulation::new(self.scenario()))?;
        Ok(sim.setup_breakdown())
    }

    fn pass(&self, ctx: &mut PassCtx) -> Result<Pass, String> {
        let (tracer, tally, root, pass) = (&mut *ctx.tracer, &mut *ctx.tally, ctx.root, ctx.pass);

        let setup = tracer.open("setup", root, pass);
        let start = Instant::now();
        let built = tracer.call("SteppedSim::with_churn", setup, pass, || self.build());
        let setup_s = start.elapsed().as_secs_f64();
        tracer.close(setup);
        let mut sim = tally.call("SteppedSim::with_churn", built)?;

        let run = tracer.open("run", root, pass);
        let start = Instant::now();
        let mut op_ms = Vec::with_capacity(self.periods as usize + 1);
        let mut layers = Layers::default();
        let mut results = 0;
        while !sim.is_finished() {
            let b = sim.next_boundary();
            let batches = sim.churn_log().len();
            let t0 = Instant::now();
            let stepped = sim.step_period();
            let t1 = Instant::now();
            tracer.record("SteppedSim::step_period", run, b, t0, t1);
            tally.call("SteppedSim::step_period", stepped)?;
            let step_ms = (t1 - t0).as_secs_f64() * 1e3;
            op_ms.push(step_ms);
            let churn_ms: f64 = sim.churn_log()[batches..]
                .iter()
                .map(|c| c.repair_ms + c.apply_ms)
                .sum();
            let now: u64 = sim.logs().iter().map(|l| l.len() as u64).sum();
            layers.boundaries.push((step_ms - churn_ms, now - results));
            layers.standing_peak = layers.standing_peak.max(now - results);
            results = now;
        }
        let run_s = start.elapsed().as_secs_f64();
        tracer.close(run);

        let check = tracer.open("check", root, pass);
        let mut digest = Digest::default();
        let backbone = sim.backbone_slots();
        let t0 = Instant::now();
        let reference = tracer.call("SteppedSim::reference_reelection", check, pass, || {
            sim.reference_reelection()
        });
        layers.full_election_ms = t0.elapsed().as_secs_f64() * 1e3;
        tally.check(backbone == reference, || {
            format!(
                "churn_100k: repaired backbone ({} nodes) differs from a full re-election ({} nodes)",
                backbone.len(),
                reference.len()
            )
        });
        for &slot in &backbone {
            digest.u64(u64::from(slot));
        }
        for c in sim.churn_log() {
            layers.repair_ms += c.repair_ms;
            layers.churn_apply_ms += c.apply_ms;
            layers.churn_batches += 1;
            layers.evaluated += c.evaluated as u64;
            layers.flips += (c.promoted + c.demoted) as u64;
            layers.dirty_cells += c.dirty_cells as u64;
            for v in [
                c.boundary,
                c.deaths as u64,
                c.joins as u64,
                c.candidates as u64,
                c.evaluated as u64,
                c.promoted as u64,
                c.demoted as u64,
                c.dirty_cells as u64,
            ] {
                digest.u64(v);
            }
        }
        let out = tracer.call("SteppedSim::finish", check, pass, || sim.finish());
        tally.attempted += 1;
        for log in &out.logs {
            for r in log.records() {
                digest.u64(r.seq);
                digest.u64(r.delivered_at.map_or(u64::MAX, |t| t.as_micros()));
                digest.u64(r.contributing_nodes as u64);
                digest.u64(r.nodes_in_area as u64);
            }
        }
        layers.resolves = results;
        layers.installs = out.installs;
        layers.trees_built = out.trees_built;
        layers.shared_hits = out.shared_hits;
        layers.peak_live_trees = out.peak_live_trees as u64;
        tally.check(results == out.installs, || {
            format!(
                "churn_100k: {results} results for {} installs",
                out.installs
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
