//! `service_shared` and `service_faults`: an open-loop client population
//! driving `ServiceSim` through its public API.
//!
//! Clients arrive by the benchmark's own Poisson process, submit at the next
//! boundary, and after every boundary each standing client polls once; a
//! client is dropped after its last result. One client in eight retires at
//! half its lifetime.

use crate::bench::{self, Layers, Pass, PassCtx, Tally, Workload};
use crate::load::{self, Arrival, LoadShape};
use crate::stats::Digest;
use mobiquery_repro::mobiquery::config::Scenario;
use mobiquery_repro::mobiquery::sim::{FaultConfig, TreeSharing};
use mobiquery_repro::mobiquery::{SetupBreakdown, Simulation};
use mobiquery_repro::service::{QueryId, ServiceError, ServiceSim};
use std::time::Instant;

pub struct Service {
    name: &'static str,
    nodes: usize,
    shape: LoadShape,
    faults: Option<FaultConfig>,
    seed: u64,
    arrivals: Vec<Arrival>,
}

/// What the benchmark expects one client to receive.
struct Client {
    id: QueryId,
    first_k: u64,
    last_k: u64,
    /// The next period the client should be handed.
    next_k: u64,
    /// Every result so far came in consecutive period order, inside the
    /// window, and any retirement stayed inside the window.
    in_order: bool,
}

/// Service horizon in periods.
const PERIODS: u64 = 120;

impl Service {
    /// Clients arrive at `qps` with lifetimes uniform in `1..=max_lifetime`
    /// periods; the period is the paper's.
    pub fn new(
        name: &'static str,
        nodes: usize,
        qps: f64,
        max_lifetime: u64,
        faults: Option<FaultConfig>,
        seed: u64,
    ) -> Self {
        let shape = LoadShape {
            qps,
            periods: PERIODS,
            period_s: bench::period_s(),
            max_lifetime,
        };
        Service {
            name,
            nodes,
            shape,
            faults,
            seed,
            arrivals: load::arrivals(seed, &shape),
        }
    }

    fn scenario(&self) -> Scenario {
        bench::scenario(self.nodes, self.shape.periods, self.seed)
    }

    fn ctor(&self) -> &'static str {
        if self.faults.is_some() {
            "ServiceSim::with_faults"
        } else {
            "ServiceSim::new"
        }
    }

    fn build(&self) -> Result<ServiceSim, ServiceError> {
        match self.faults {
            Some(f) => ServiceSim::with_faults(self.scenario(), TreeSharing::Shared, f),
            None => ServiceSim::new(self.scenario(), TreeSharing::Shared),
        }
    }
}

impl Workload for Service {
    fn name(&self) -> &'static str {
        self.name
    }

    fn op(&self) -> &'static str {
        "one period boundary, ServiceSim::step_period"
    }

    fn setup_only(&self, tally: &mut Tally) -> Result<f64, String> {
        let start = Instant::now();
        let built = self.build();
        let secs = start.elapsed().as_secs_f64();
        tally.call(self.ctor(), built)?;
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
        let built = tracer.call(self.ctor(), setup, pass, || self.build());
        let setup_s = start.elapsed().as_secs_f64();
        tracer.close(setup);
        let mut svc = tally.call(self.ctor(), built)?;

        let run = tracer.open("run", root, pass);
        let start = Instant::now();
        let period_s = self.shape.period_s;
        let max_k = svc.max_k();
        let mut spec = svc.scenario().query.clone();
        let mut clients: Vec<Client> = Vec::with_capacity(self.arrivals.len());
        let mut standing: Vec<usize> = Vec::new();
        let mut retire_at: Vec<Vec<usize>> = vec![Vec::new(); max_k as usize + 1];
        let mut arrivals = self.arrivals.iter().peekable();
        let mut op_ms = Vec::with_capacity(max_k as usize + 1);
        let mut layers = Layers::default();
        let mut digest = Digest::default();
        while !svc.is_finished() {
            let b = svc.next_boundary();
            while let Some(a) = arrivals.next_if(|a| a.boundary(period_s) <= b) {
                spec.lifetime = spec.period * a.lifetime_periods;
                let req = clients.len() as u64;
                let submitted = tracer.call("ServiceSim::submit", run, req, || svc.submit(&spec));
                let id = tally.call("ServiceSim::submit", submitted)?;
                layers.service_calls += 1;
                let first_k = b + 1;
                if a.retires_early && a.lifetime_periods >= 2 {
                    if let Some(due) = retire_at.get_mut((b + a.lifetime_periods / 2) as usize) {
                        due.push(clients.len());
                    }
                }
                standing.push(clients.len());
                clients.push(Client {
                    id,
                    first_k,
                    last_k: (first_k + a.lifetime_periods - 1).min(max_k),
                    next_k: first_k,
                    in_order: true,
                });
            }
            for &c in &retire_at[b as usize] {
                let client = &mut clients[c];
                let retired = tracer.call("ServiceSim::retire", run, client.id.index(), || {
                    svc.retire(client.id)
                });
                let last = tally.call("ServiceSim::retire", retired)?;
                layers.service_calls += 1;
                client.in_order &= client.first_k <= last && last <= client.last_k;
                client.last_k = last;
            }
            layers.standing_peak = layers.standing_peak.max(standing.len() as u64);

            let t0 = Instant::now();
            let stepped = svc.step_period();
            let t1 = Instant::now();
            tracer.record("ServiceSim::step_period", run, b, t0, t1);
            tally.call("ServiceSim::step_period", stepped)?;
            let step_ms = (t1 - t0).as_secs_f64() * 1e3;
            op_ms.push(step_ms);

            let mut resolved = 0;
            let mut kept = 0;
            for i in 0..standing.len() {
                let client = &mut clients[standing[i]];
                let polled = tracer.call("ServiceSim::poll", run, client.id.index(), || {
                    svc.poll(client.id)
                });
                layers.service_calls += 1;
                for r in tally.call("ServiceSim::poll", polled)? {
                    client.in_order &= r.period == client.next_k && r.period <= client.last_k;
                    client.next_k += 1;
                    resolved += 1;
                    digest.u64(client.id.index());
                    digest.u64(r.period);
                    digest.u64(u64::from(r.delivered) | u64::from(r.succeeded) << 1);
                    digest.f64(r.fidelity);
                    digest.u64(r.contributing as u64);
                    digest.u64(r.nodes_in_area as u64);
                }
                if client.next_k <= client.last_k {
                    standing[kept] = standing[i];
                    kept += 1;
                }
            }
            standing.truncate(kept);
            layers.boundaries.push((step_ms, resolved));
            layers.resolves += resolved;
        }
        for f in svc.fault_log() {
            layers.retries += f.retries;
            layers.install_failures += f.install_failures;
            layers.trees_rebuilt += f.trees_rebuilt;
            layers.naive_fallbacks += f.naive_fallbacks;
            digest.u64(f.link_bad as u64);
            digest.u64(f.crashes as u64);
            digest.u64(f.install_attempts);
        }
        // `finish` panics on a leaked tree; the harness counts a panic as a
        // failed call.
        let out = tracer.call("ServiceSim::finish", run, pass, || svc.finish());
        tally.attempted += 1;
        layers.service_calls += 1;
        let run_s = start.elapsed().as_secs_f64();
        tracer.close(run);

        let check = tracer.open("check", root, pass);
        tally.check(arrivals.next().is_none(), || {
            format!("{}: arrivals left unsubmitted", self.name)
        });
        for c in &clients {
            tally.check(c.in_order && c.next_k == c.last_k + 1, || {
                format!(
                    "{}: {} got periods {}..{} out of order or incomplete, window {}..={}",
                    self.name, c.id, c.first_k, c.next_k, c.first_k, c.last_k
                )
            });
        }
        if self.faults.is_none() {
            tally.check(layers.resolves == out.installs, || {
                format!(
                    "{}: {} results for {} installs",
                    self.name, layers.resolves, out.installs
                )
            });
        }
        layers.installs = out.installs;
        layers.trees_built = out.trees_built;
        layers.shared_hits = out.shared_hits;
        layers.peak_live_trees = out.peak_live_trees as u64;
        for v in [
            out.installs,
            out.trees_built,
            out.shared_hits,
            out.peak_live_trees as u64,
        ] {
            digest.u64(v);
        }
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
