//! The four workloads.  Each runs a fixed job list per *pass*; a run
//! repeats passes for its measuring window and reports medians.

use crate::gen::{self, Stream};
use crate::layers::{Kernel, Layers};
use crate::stack::Backends;
use crate::trace::{Ctx, Tracer};
use ctori_coloring::{Color, Coloring, Palette};
use ctori_core::construct::minimum_dynamo;
use ctori_core::search::verify_lower_bound;
use ctori_core::{lower_bound, verify_dynamo};
use ctori_engine::telemetry::monotonic_nanos;
use ctori_engine::TopologySpec;
use ctori_engine::{Executor, RuleSpec, RunOutcome, RunSpec, Runner, SeedSpec, SubmitOptions};
use ctori_fleet::{FleetConfig, FleetExecutor};
use ctori_topology::{Torus, TorusKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Seconds since `start` (a [`monotonic_nanos`] reading).
pub fn secs_since(start: u64) -> f64 {
    (monotonic_nanos() - start) as f64 / 1e9
}

/// Outputs checked, and how many were wrong.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Set-up seconds, when the pass set its stack up.
    pub setup_s: Option<f64>,
    pub makespan_s: f64,
    pub latencies_ms: Vec<f64>,
    pub tally: Tally,
    /// Property shares of the pass, as `(name, value)`.
    pub shares: Vec<(String, f64)>,
}

/// A grid job: torus kind and dimensions.
pub type Grid = (TorusKind, usize, usize);

/// The target colour of a seed's dynamo and search instances.
pub fn target_color(seed: u64) -> Color {
    Color::new(1 + gen::rng(seed, Stream::Core).below(4) as u16)
}

fn smp() -> RuleSpec {
    RuleSpec::parse("smp").expect("registry rule")
}

// ---------------------------------------------------------------------------
// dynamo-verify
// ---------------------------------------------------------------------------

/// Theorem 2/4/6 constructions verified by `Runner::execute`.
pub struct Dynamo {
    pub jobs: Vec<Grid>,
    pub k: Color,
}

/// The spec verifying a constructed dynamo.
pub fn dynamo_spec((kind, m, n): Grid, seed: SeedSpec, k: Color) -> RunSpec {
    RunSpec::new(TopologySpec::torus(kind, m, n), smp(), seed).for_dynamo(k)
}

/// The warm-up job of `dynamo-verify`'s set-up.
const WARMUP_DYNAMO: Grid = (TorusKind::ToroidalMesh, 64, 64);

impl Dynamo {
    /// Resolves the runner's thread budget and runs one small dynamo
    /// through it, so the timed jobs find code and allocator warm.
    pub fn setup(&self) -> (f64, Runner) {
        let start = monotonic_nanos();
        let runner = Runner::new();
        let (kind, m, n) = WARMUP_DYNAMO;
        if let Ok(built) = minimum_dynamo(kind, m, n, self.k) {
            let seed = SeedSpec::Explicit(built.coloring().clone());
            std::hint::black_box(runner.execute(&dynamo_spec(WARMUP_DYNAMO, seed, self.k)));
        }
        (secs_since(start), runner)
    }

    pub fn pass(&self, tracer: &Tracer, layers: &mut Layers) -> Pass {
        let (setup_s, runner) = self.setup();
        let mut pass = Pass {
            setup_s: Some(setup_s),
            ..Pass::default()
        };
        let mut construct_ms = 0.0;
        let start = monotonic_nanos();
        for &(kind, m, n) in &self.jobs {
            let root = tracer.root();
            tracer.span(root, "dynamo-job", |at| {
                let job_start = monotonic_nanos();
                let built = tracer.span(at, "construct", |_| minimum_dynamo(kind, m, n, self.k));
                construct_ms += secs_since(job_start) * 1e3;
                let Ok(built) = built else {
                    pass.tally.check(false);
                    return;
                };
                let seed = SeedSpec::Explicit(built.coloring().clone());
                let spec = dynamo_spec((kind, m, n), seed, self.k);
                let outcome = tracer.span(at, "execute", |at| {
                    let outcome = runner.execute(&spec);
                    step_spans(tracer, at, &outcome);
                    outcome
                });
                pass.latencies_ms.push(secs_since(job_start) * 1e3);
                let ok = tracer.span(at, "verify", |_| {
                    outcome.reached_monochromatic(self.k)
                        && outcome.monotone == Some(true)
                        && built.seed_size() == lower_bound(kind, m, n)
                });
                pass.tally.check(ok);
                layers.kernel.add(&outcome);
                if let Some(stats) = outcome.round_stats {
                    let name = short_name(kind);
                    pass.shares.push((
                        format!("active_cells_per_round.{name}"),
                        stats.cells_evaluated as f64 / stats.rounds.max(1) as f64,
                    ));
                    pass.shares
                        .push((format!("step_threads.{name}"), stats.threads as f64));
                }
            });
        }
        pass.makespan_s = secs_since(start);
        layers.construct_ms.push(construct_ms);
        pass
    }
}

fn short_name(kind: TorusKind) -> &'static str {
    match kind {
        TorusKind::ToroidalMesh => "mesh",
        TorusKind::TorusCordalis => "cordalis",
        _ => "serpentinus",
    }
}

/// Adds the `step` child of a just-finished `execute` span: the run's
/// `RoundStats.nanos`, ending now.  The rest of the span is build time.
pub fn step_spans(tracer: &Tracer, at: Ctx, outcome: &RunOutcome) {
    if let (true, Some(stats)) = (tracer.enabled(), outcome.round_stats) {
        let end = monotonic_nanos();
        let step_start = end.saturating_sub(stats.nanos);
        tracer.add(at, "step", step_start, end);
    }
}

// ---------------------------------------------------------------------------
// lower-bound-search
// ---------------------------------------------------------------------------

/// `verify_lower_bound` on small tori, palette 4.
pub struct Search {
    pub instances: Vec<Grid>,
    pub k: Color,
}

pub const SEARCH_PALETTE: u16 = 4;

/// The warm-up instances of `lower-bound-search`'s set-up.
const WARMUP_SEARCH: [Grid; 3] = [
    (TorusKind::ToroidalMesh, 3, 3),
    (TorusKind::TorusCordalis, 3, 3),
    (TorusKind::TorusSerpentinus, 3, 3),
];

impl Search {
    /// Builds the tori the search takes and searches the 3×3 tori once,
    /// so the timed instances find code and allocator warm.
    pub fn setup(&self) -> (f64, Vec<Torus>) {
        let start = monotonic_nanos();
        let tori = self
            .instances
            .iter()
            .map(|&(kind, m, n)| Torus::new(kind, m, n))
            .collect();
        for (kind, m, n) in WARMUP_SEARCH {
            let torus = Torus::new(kind, m, n);
            let bound = lower_bound(kind, m, n);
            std::hint::black_box(verify_lower_bound(
                &torus,
                self.k,
                Palette::new(SEARCH_PALETTE),
                bound,
            ));
        }
        (secs_since(start), tori)
    }

    pub fn pass(&self, tracer: &Tracer, layers: &mut Layers) -> Pass {
        let (setup_s, tori) = self.setup();
        let mut pass = Pass {
            setup_s: Some(setup_s),
            ..Pass::default()
        };
        let start = monotonic_nanos();
        for (&(kind, m, n), torus) in self.instances.iter().zip(&tori) {
            let bound = lower_bound(kind, m, n);
            let job_start = monotonic_nanos();
            let ok = tracer.span(tracer.root(), "search", |_| {
                verify_lower_bound(torus, self.k, Palette::new(SEARCH_PALETTE), bound)
            });
            let seconds = secs_since(job_start);
            pass.latencies_ms.push(seconds * 1e3);
            layers.search_instance_s.push(seconds);
            pass.tally.check(ok);
        }
        pass.makespan_s = secs_since(start);
        pass
    }

    /// Times `verify_dynamo` on `per_torus` seeded random configurations
    /// of each search torus.
    pub fn time_verify(&self, seed: u64, per_torus: usize, tracer: &Tracer, layers: &mut Layers) {
        let mut rng = gen::rng(seed, Stream::Core);
        for &(kind, m, n) in &self.instances {
            let torus = Torus::new(kind, m, n);
            for _ in 0..per_torus {
                let cells = (0..m * n)
                    .map(|_| Color::new(1 + rng.below(SEARCH_PALETTE as usize) as u16))
                    .collect();
                let coloring = Coloring::from_cells(m, n, cells);
                let start = monotonic_nanos();
                tracer.span(tracer.root(), "verify-dynamo", |_| {
                    std::hint::black_box(verify_dynamo(&torus, &coloring, self.k))
                });
                layers.verify_us.push(secs_since(start) * 1e6);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// density-sweep-cold and resubmit-hot
// ---------------------------------------------------------------------------

/// Closed-loop clients sending specs through a 2-backend fleet.
pub struct Service {
    pub specs: Vec<RunSpec>,
    /// In-process `Runner::execute` outcome of each spec.
    pub refs: Vec<RunOutcome>,
    /// Request order, as indices into `specs`.
    pub order: Vec<usize>,
    /// Send every spec once, untimed, before the first timed requests,
    /// and keep the warmed stack for the next pass.  Without it, every
    /// pass runs on a freshly set-up stack with empty caches.
    pub warm: bool,
    pub stack: Mutex<Option<Stack>>,
}

/// A set-up service stack: the backends and the fleet over them.
pub struct Stack {
    backends: Backends,
    fleet: FleetExecutor,
}

pub const BACKENDS: usize = 2;

/// Latency at and above which a request waited out at least one of the
/// fleet handle's 10 ms result polls (its share is a pass property).
const SLOW_MS: f64 = 5.0;

/// Submits one spec and waits for its outcome, inside spans.
pub fn roundtrip(
    executor: &dyn Executor,
    spec: &RunSpec,
    tracer: &Tracer,
    at: Ctx,
) -> Result<(String, std::sync::Arc<RunOutcome>), String> {
    let mut handle = tracer
        .span(at, "submit", |_| {
            executor.submit(spec, SubmitOptions::default())
        })
        .map_err(|e| e.to_string())?;
    let outcome = tracer
        .span(at, "wait", |_| handle.wait())
        .map_err(|e| e.to_string())?;
    Ok((handle.label(), outcome))
}

impl Service {
    pub fn setup(&self) -> Result<(f64, Backends, FleetExecutor), String> {
        let start = monotonic_nanos();
        let backends = Backends::start(BACKENDS).map_err(|e| format!("bind: {e}"))?;
        let fleet = FleetExecutor::connect(FleetConfig::new(backends.addrs()))
            .map_err(|e| format!("fleet connect: {e}"))?;
        Ok((secs_since(start), backends, fleet))
    }

    pub fn teardown(backends: Backends, fleet: FleetExecutor) -> Result<(), String> {
        drop(fleet);
        backends.stop()
    }

    /// Tears down a stack kept by a warm workload.
    pub fn finish(&self) -> Result<(), String> {
        match self.stack.lock().expect("stack poisoned").take() {
            Some(stack) => Service::teardown(stack.backends, stack.fleet),
            None => Ok(()),
        }
    }

    pub fn pass(&self, tracer: &Tracer, layers: &mut Layers) -> Result<Pass, String> {
        let mut slot = self.stack.lock().expect("stack poisoned");
        let mut pass = Pass::default();
        if slot.is_none() {
            let (setup_s, backends, fleet) = self.setup()?;
            pass.setup_s = Some(setup_s);
            if self.warm {
                let untraced = Tracer::new(false);
                for (spec, reference) in self.specs.iter().zip(&self.refs) {
                    let ok = roundtrip(&fleet, spec, &untraced, untraced.root())
                        .is_ok_and(|(_, outcome)| *outcome == *reference);
                    pass.tally.check(ok);
                }
            }
            *slot = Some(Stack { backends, fleet });
        }
        let Stack { backends, fleet } = slot.as_mut().expect("stack set up");
        let routed_before = fleet.local().jobs_routed;
        let before = backends.counters().map_err(|e| e.to_string())?;

        let next = AtomicUsize::new(0);
        let kernel = Mutex::new(Kernel::default());
        let start = monotonic_nanos();
        let per_client: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            // One closed-loop client per core.
            let workers: Vec<_> = (0..ctori_engine::default_threads())
                .map(|_| {
                    scope.spawn(|| {
                        let (mut latencies, mut failed) = (Vec::new(), 0);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&index) = self.order.get(i) else {
                                break;
                            };
                            let job_start = monotonic_nanos();
                            let result = tracer.span(tracer.root(), "job", |at| {
                                roundtrip(&*fleet, &self.specs[index], tracer, at)
                            });
                            let latency_ms = secs_since(job_start) * 1e3;
                            match result {
                                Ok((_, outcome)) if *outcome == self.refs[index] => {
                                    latencies.push(latency_ms);
                                    if !self.warm {
                                        kernel.lock().expect("kernel poisoned").add(&outcome);
                                    }
                                }
                                _ => failed += 1,
                            }
                        }
                        (latencies, failed)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect()
        });
        pass.makespan_s = secs_since(start);
        pass.tally.attempted += self.order.len() as u64;
        for (latencies, failed) in per_client {
            pass.latencies_ms.extend(latencies);
            pass.tally.failed += failed;
        }

        let delta = backends
            .counters()
            .map_err(|e| e.to_string())?
            .since(before);
        pass.shares
            .push(("cache_hit_frac".into(), delta.hit_frac()));
        let slow = pass
            .latencies_ms
            .iter()
            .filter(|&&ms| ms >= SLOW_MS)
            .count();
        pass.shares.push((
            "slow_frac".into(),
            slow as f64 / pass.latencies_ms.len().max(1) as f64,
        ));
        pass.shares
            .push(("cache_evictions".into(), delta.evictions as f64));
        layers.service.add(delta);
        layers.service_jobs += self.order.len() as u64;
        let local = fleet.local();
        add_routed(layers, &local.jobs_routed, &routed_before);
        layers.reroutes_steals += local.reroutes + local.steals;
        layers
            .kernel
            .merge(&kernel.into_inner().expect("kernel poisoned"));
        if !self.warm {
            drop(slot);
            self.finish()?;
        }
        Ok(pass)
    }
}

/// Adds a fleet's per-backend routing counts (minus `before`).
pub fn add_routed(layers: &mut Layers, routed: &[u64], before: &[u64]) {
    layers
        .routed
        .resize(layers.routed.len().max(routed.len()), 0);
    for (index, (now, then)) in routed.iter().zip(before).enumerate() {
        layers.routed[index] += now - then;
    }
}
