//! The latency ladder: the same specs, one at a time, through
//! `Runner::execute` → `LocalExecutor` → `RemoteExecutor` (1 backend) →
//! `FleetExecutor` (2 backends).  Each rung's added cost is its latency
//! minus the rung below's; every outcome must equal the in-process one
//! (`Fleet == Remote == Local == Runner`).

use crate::layers::Layers;
use crate::stack::{parse_label, Backends};
use crate::trace::{Ctx, Tracer};
use crate::workloads::{add_routed, roundtrip, secs_since, Tally, BACKENDS};
use ctori_engine::telemetry::monotonic_nanos;
use ctori_engine::{JobTrace, LocalExecutor, LocalExecutorConfig, RunOutcome, RunSpec, Runner};
use ctori_fleet::{FleetConfig, FleetExecutor};
use ctori_service::RemoteExecutor;

/// Timed sends of each hot spec per rung.
const HOT_REPEATS: usize = 5;

/// The ladder's inputs: a cold subset (each spec new to every rung) and
/// a hot set (sent once untimed, then [`HOT_REPEATS`] times timed).
pub struct Ladder<'a> {
    pub cold: &'a [RunSpec],
    pub cold_refs: &'a [RunOutcome],
    pub hot: &'a [RunSpec],
    pub hot_refs: &'a [RunOutcome],
}

/// Where a job's outcome came from, for server-side span lookup.
enum Rung<'a> {
    Runner(&'a Runner),
    Local(&'a LocalExecutor),
    Remote(&'a RemoteExecutor, &'a mut Backends),
    Fleet(&'a FleetExecutor, &'a mut Backends),
}

impl Ladder<'_> {
    pub fn run(&self, tracer: &Tracer, layers: &mut Layers) -> Result<Tally, String> {
        let mut checked = Tally::default();
        for spec in self.cold {
            let start = monotonic_nanos();
            let _ = std::hint::black_box(spec.topology.build());
            layers.topology_build_ms.push(secs_since(start) * 1e3);
            let start = monotonic_nanos();
            let _ = std::hint::black_box(spec.initial_coloring());
            layers.seed_materialize_ms.push(secs_since(start) * 1e3);
        }

        let runner = Runner::new();
        self.climb(0, &mut Rung::Runner(&runner), tracer, layers, &mut checked)?;

        let local = LocalExecutor::start(LocalExecutorConfig {
            workers: 1,
            ..LocalExecutorConfig::default()
        });
        self.climb(1, &mut Rung::Local(&local), tracer, layers, &mut checked)?;
        local.shutdown();

        let mut single = Backends::start(1).map_err(|e| format!("bind: {e}"))?;
        let remote = RemoteExecutor::connect(single.addrs()[0].as_str())
            .map_err(|e| format!("remote connect: {e}"))?;
        let before = single.counters().map_err(|e| e.to_string())?;
        self.climb(
            2,
            &mut Rung::Remote(&remote, &mut single),
            tracer,
            layers,
            &mut checked,
        )?;
        layers
            .service
            .add(single.counters().map_err(|e| e.to_string())?.since(before));
        drop(remote);
        single.stop()?;

        let mut pair = Backends::start(BACKENDS).map_err(|e| format!("bind: {e}"))?;
        let fleet = FleetExecutor::connect(FleetConfig::new(pair.addrs()))
            .map_err(|e| format!("fleet connect: {e}"))?;
        let before = pair.counters().map_err(|e| e.to_string())?;
        self.climb(
            3,
            &mut Rung::Fleet(&fleet, &mut pair),
            tracer,
            layers,
            &mut checked,
        )?;
        layers
            .service
            .add(pair.counters().map_err(|e| e.to_string())?.since(before));
        let routed = fleet.local();
        add_routed(
            layers,
            &routed.jobs_routed,
            &vec![0; routed.jobs_routed.len()],
        );
        layers.reroutes_steals += routed.reroutes + routed.steals;
        drop(fleet);
        pair.stop()?;
        Ok(checked)
    }

    /// Sends the cold subset, then the hot set, through one rung.
    fn climb(
        &self,
        index: usize,
        rung: &mut Rung<'_>,
        tracer: &Tracer,
        layers: &mut Layers,
        checked: &mut Tally,
    ) -> Result<(), String> {
        let served = matches!(rung, Rung::Remote(..) | Rung::Fleet(..));
        for (spec, reference) in self.cold.iter().zip(self.cold_refs) {
            let (us, ok) = self.send(rung, spec, reference, false, tracer, layers)?;
            layers.rung_us[index].push(us);
            checked.check(ok);
        }
        if served {
            // Warm the backends' caches; the timed sends below are hits.
            for (spec, reference) in self.hot.iter().zip(self.hot_refs) {
                let (_, ok) = self.send(rung, spec, reference, false, tracer, layers)?;
                checked.check(ok);
            }
        }
        for _ in 0..HOT_REPEATS {
            for (spec, reference) in self.hot.iter().zip(self.hot_refs) {
                let (us, ok) = self.send(rung, spec, reference, served, tracer, layers)?;
                layers.hot_rung_us[index].push(us);
                checked.check(ok);
            }
        }
        if served {
            layers.service_jobs += (self.cold.len() + self.hot.len() * (1 + HOT_REPEATS)) as u64;
        }
        Ok(())
    }

    /// One timed job: microseconds from submit to outcome in hand, and
    /// whether the outcome equals the reference.  `hit` marks a send
    /// expected to be served from cache.
    fn send(
        &self,
        rung: &mut Rung<'_>,
        spec: &RunSpec,
        reference: &RunOutcome,
        hit: bool,
        tracer: &Tracer,
        layers: &mut Layers,
    ) -> Result<(f64, bool), String> {
        let root = tracer.root();
        let start = monotonic_nanos();
        let (label, ok) = tracer.span(root, "ladder-job", |at| match rung {
            Rung::Runner(runner) => {
                let outcome = tracer.span(at, "execute", |at| {
                    let outcome = runner.execute(spec);
                    crate::workloads::step_spans(tracer, at, &outcome);
                    outcome
                });
                if let Some(stats) = outcome.round_stats {
                    let wall_ms = secs_since(start) * 1e3;
                    layers
                        .runner_build_ms
                        .push(wall_ms - stats.nanos as f64 / 1e6);
                }
                layers.kernel.add(&outcome);
                Ok((String::new(), outcome == *reference))
            }
            Rung::Local(local) => roundtrip(*local, spec, tracer, at)
                .map(|(label, outcome)| (label, *outcome == *reference)),
            Rung::Remote(remote, _) => roundtrip(*remote, spec, tracer, at)
                .map(|(label, outcome)| (label, *outcome == *reference)),
            Rung::Fleet(fleet, _) => roundtrip(*fleet, spec, tracer, at)
                .map(|(label, outcome)| (label, *outcome == *reference)),
        })?;
        let us = secs_since(start) * 1e6;
        // Server-side and pool-side splits, read after the timed window.
        match rung {
            Rung::Runner(_) => {}
            Rung::Local(local) => {
                let (_, id) = parse_label(&label).ok_or("bad local label")?;
                let trace = local.job_trace(id).map_err(|e| e.to_string())?;
                if let Some(wait) = trace.queue_wait_nanos() {
                    layers.queue_wait_us.push(wait as f64 / 1e3);
                }
            }
            Rung::Remote(_, backends) | Rung::Fleet(_, backends) => {
                let (backend, id) = parse_label(&label).ok_or("bad remote label")?;
                let trace = backends
                    .trace(backend.unwrap_or(0), id)
                    .map_err(|e| e.to_string())?;
                server_spans(tracer, root, &trace);
                let (queue, run) = (trace.queue_wait_nanos(), trace.run_nanos());
                if let (Some(queue), Some(run)) = (queue, run) {
                    layers.server_queue_us.push(queue as f64 / 1e3);
                    layers.server_run_us.push(run as f64 / 1e3);
                    if hit {
                        layers.hit_service_us.push((queue + run) as f64 / 1e3);
                    }
                }
            }
        }
        Ok((us, ok))
    }
}

/// Records a server job's queue wait and run as spans of the request.
fn server_spans(tracer: &Tracer, at: Ctx, trace: &JobTrace) {
    use ctori_engine::SpanKind;
    let first = |kind: SpanKind| {
        trace
            .spans()
            .iter()
            .find(|s| s.kind == kind)
            .map(|s| s.at_nanos)
    };
    let terminal = trace.terminal().map(|s| s.at_nanos);
    if let (Some(queued), Some(claimed)) = (first(SpanKind::Queued), first(SpanKind::Claimed)) {
        tracer.add(at, "server-queue", queued, claimed);
    }
    if let (Some(running), Some(end)) = (first(SpanKind::Running), terminal) {
        tracer.add(at, "server-run", running, end);
    }
}
