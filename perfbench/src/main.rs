//! The repository benchmark: four paper workloads timed end to end, and a
//! traced run that breaks the time down per layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (all inputs derive from `--seed`):
//!
//! - `dynamo-verify`: `Runner::execute` of the Theorem 2/4/6 minimum
//!   dynamos under `smp` with `for_dynamo(k)` on 510² tori of all three
//!   kinds.  The cordalis and serpentinus runs last ~1.3·10⁵ rounds with
//!   ~900 active cells a round, so per-round fixed cost dominates.  The
//!   service stack does nothing.
//! - `density-sweep-cold`: 1000 distinct random density specs through a
//!   `FleetExecutor` over 2 embedded single-worker servers, by `nproc`
//!   closed-loop clients.  Every layer works on every job, and each
//!   backend sees more keys than its 256-entry cache holds.
//! - `resubmit-hot`: the same loop over a warmed 24-spec working set in a
//!   Zipf order: almost every request is a cache hit, so routing,
//!   protocol, server and cache reads set the latency.
//! - `lower-bound-search`: `verify_lower_bound` on a 5×5 mesh and 6×6
//!   cordalis and serpentinus tori, palette 4: millions of tiny
//!   simulations through the sweep path.
//!
//! `BENCHMARK.json` gates changes on `density-sweep-cold` and
//! `lower-bound-search` only; the package README says why.
//!
//! A run repeats its workload's fixed job list (a *pass*; every pass sets
//! its stack up afresh except `resubmit-hot`'s, which stays warm) until
//! `--seconds` have passed, checks every output, and prints the
//! end-to-end metrics as the last line.  With `--trace 1` it
//! runs one untraced and one traced pass, the latency ladder and the core
//! probes instead, prints the per-layer metrics, and writes every span to
//! `perfbench/out/`.  The line before the result holds the host block,
//! the tail percentiles with their sample counts and the property shares.

#![deny(unsafe_code)]

mod gen;
mod host;
mod json;
mod ladder;
mod layers;
mod stack;
mod stats;
mod trace;
mod workloads;

use gen::Stream;
use json::Json;
use layers::{Layers, PER_LAYER};
use stats::{median, p99_or_tail};
use trace::Tracer;
use workloads::{
    dynamo_spec, secs_since, target_color, Dynamo, Grid, Pass, Search, Service, Tally,
};

use ctori_coloring::Color;
use ctori_engine::telemetry::monotonic_nanos;
use ctori_engine::{RunOutcome, RunSpec, Runner, SeedSpec};
use ctori_topology::TorusKind::{ToroidalMesh, TorusCordalis, TorusSerpentinus};
use std::sync::Mutex;

const WORKLOADS: [&str; 4] = [
    "dynamo-verify",
    "density-sweep-cold",
    "resubmit-hot",
    "lower-bound-search",
];

/// `(name, unit)` of every end-to-end metric, in output order.
const END_TO_END: [(&str, &str); 5] = [
    ("makespan_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The largest grids `threads=auto` steps on one core.  From 2¹⁸ cells
/// up it steps on every core and spawns band threads each round; on a
/// shared 2-vCPU host those runs varied too much from run to run to gate
/// a change on.
const DYNAMO_JOBS: [Grid; 3] = [
    (ToroidalMesh, 510, 510),
    (TorusCordalis, 510, 510),
    (TorusSerpentinus, 510, 510),
];
const SEARCH_INSTANCES: [Grid; 3] = [
    (ToroidalMesh, 5, 5),
    (TorusCordalis, 6, 6),
    (TorusSerpentinus, 6, 6),
];
const COLD_SPECS: usize = 1000;
const HOT_SET: usize = 24;
const HOT_REQUESTS: usize = 1500;

/// The core layers, measured on small tori by traced runs of workloads
/// that do not reach them at full size.
const PROBE_DYNAMO: [Grid; 3] = [
    (ToroidalMesh, 96, 96),
    (TorusCordalis, 96, 96),
    (TorusSerpentinus, 96, 96),
];
const PROBE_SEARCH: [Grid; 3] = [
    (ToroidalMesh, 4, 4),
    (TorusCordalis, 4, 4),
    (TorusSerpentinus, 4, 4),
];
const VERIFY_PER_TORUS: usize = 64;
const LADDER_COLD: usize = 100;

/// Set-ups timed per run: one per pass, and extra ones up to this.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {WORKLOADS:?}")
                    })?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| *s <= gen::MAX_SEED)
                        .ok_or_else(bad)?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A prepared workload: inputs generated, references computed.
enum Work {
    Dynamo(Dynamo),
    Search(Search),
    Service(Service),
}

/// In-process reference outcomes, computed outside any timed window.
fn references(specs: &[RunSpec]) -> Vec<RunOutcome> {
    Runner::new().sweep_refs(specs)
}

fn prepare(workload: &str, seed: u64) -> Work {
    let k = target_color(seed);
    match workload {
        "dynamo-verify" => Work::Dynamo(Dynamo {
            jobs: DYNAMO_JOBS.to_vec(),
            k,
        }),
        "lower-bound-search" => Work::Search(Search {
            instances: SEARCH_INSTANCES.to_vec(),
            k,
        }),
        "density-sweep-cold" => {
            let specs = gen::density_specs(seed, Stream::Cold, COLD_SPECS, gen::cold_side);
            Work::Service(Service {
                refs: references(&specs),
                order: (0..specs.len()).collect(),
                specs,
                warm: false,
                stack: Mutex::new(None),
            })
        }
        _ => {
            let specs = gen::density_specs(seed, Stream::Hot, HOT_SET, gen::hot_side);
            Work::Service(Service {
                refs: references(&specs),
                order: gen::zipf_order(seed, HOT_SET, HOT_REQUESTS),
                specs,
                warm: true,
                stack: Mutex::new(None),
            })
        }
    }
}

impl Work {
    fn pass(&self, tracer: &Tracer, layers: &mut Layers) -> Result<Pass, String> {
        match self {
            Work::Dynamo(dynamo) => Ok(dynamo.pass(tracer, layers)),
            Work::Search(search) => Ok(search.pass(tracer, layers)),
            Work::Service(service) => service.pass(tracer, layers),
        }
    }

    /// Tears down whatever stack the passes kept.
    fn finish(&self) -> Result<(), String> {
        match self {
            Work::Service(service) => service.finish(),
            _ => Ok(()),
        }
    }

    /// Sets the workload's stack up (and tears it down again); returns
    /// the set-up seconds.
    fn setup_once(&self) -> Result<f64, String> {
        match self {
            Work::Dynamo(dynamo) => Ok(dynamo.setup().0),
            Work::Search(search) => Ok(search.setup().0),
            Work::Service(service) => {
                let (seconds, backends, fleet) = service.setup()?;
                Service::teardown(backends, fleet)?;
                Ok(seconds)
            }
        }
    }
}

/// What `threads=auto` resolves to on the largest `dynamo-verify` grid:
/// an immediately converged (uniform) run of that grid reports it.
fn auto_step_threads(k: Color) -> u64 {
    let largest = *DYNAMO_JOBS
        .iter()
        .max_by_key(|(_, m, n)| m * n)
        .expect("dynamo jobs");
    let outcome = Runner::new().execute(&dynamo_spec(largest, SeedSpec::uniform(k), k));
    outcome.round_stats.map_or(0, |stats| stats.threads)
}

/// Median of each share over the passes that reported it.
fn share_medians(passes: &[Pass]) -> Json {
    let mut names: Vec<&str> = Vec::new();
    for pass in passes {
        for (name, _) in &pass.shares {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
    }
    Json::obj(names.into_iter().map(|name| {
        let values: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.shares.iter().filter(|(n, _)| n == name).map(|(_, v)| *v))
            .collect();
        (name, Json::Num(median(&values)))
    }))
}

/// End-to-end run: passes until the window closes.
fn measure(work: &Work, args: &Args, tally: &mut Tally) -> Result<(Vec<f64>, Json), String> {
    let tracer = Tracer::new(false);
    let mut layers = Layers::default();
    let mut passes = Vec::new();
    let start = monotonic_nanos();
    loop {
        let pass = work.pass(&tracer, &mut layers)?;
        tally.add(pass.tally);
        passes.push(pass);
        if secs_since(start) >= args.seconds {
            break;
        }
    }
    work.finish()?;
    let mut setups: Vec<f64> = passes.iter().filter_map(|p| p.setup_s).collect();
    while setups.len() < SETUP_SAMPLES {
        setups.push(work.setup_once()?);
    }
    let makespans: Vec<f64> = passes.iter().map(|p| p.makespan_s).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    let tail = p99_or_tail(&latencies);
    // The mean pass: a pass caught in one of the host's slow spells moves
    // it in proportion, where the median jumps from one speed to the other.
    let values = vec![
        makespans.iter().sum::<f64>() / makespans.len() as f64,
        median(&latencies),
        tail.value,
        median(&setups),
        host::peak_rss_mb(),
    ];
    let info = Json::obj([
        ("passes", Json::Int(passes.len() as u64)),
        (
            "makespans_s",
            Json::Arr(makespans.into_iter().map(Json::Num).collect()),
        ),
        ("setup_samples", Json::Int(setups.len() as u64)),
        (
            "latency_tail",
            Json::obj([
                ("percentile", Json::Num(tail.percentile)),
                ("samples", Json::Int(tail.samples as u64)),
            ]),
        ),
        ("shares", share_medians(&passes)),
    ]);
    Ok((values, info))
}

/// Traced run: one untraced and one traced pass, the ladder, and the
/// core probes the workload does not cover itself.
fn trace_layers(work: &Work, args: &Args, tally: &mut Tally) -> Result<(Vec<f64>, Json), String> {
    let untraced = work.pass(&Tracer::new(false), &mut Layers::default())?;
    tally.add(untraced.tally);
    let tracer = Tracer::new(true);
    let mut layers = Layers::default();
    let traced = work.pass(&tracer, &mut layers)?;
    tally.add(traced.tally);
    work.finish()?;
    layers.untraced_makespan_s = untraced.makespan_s;
    layers.traced_makespan_s = traced.makespan_s;

    let cold = gen::density_specs(args.seed, Stream::Cold, LADDER_COLD, gen::cold_side);
    let hot = gen::density_specs(args.seed, Stream::Hot, HOT_SET, gen::hot_side);
    let (cold_refs, hot_refs) = (references(&cold), references(&hot));
    let checked = ladder::Ladder {
        cold: &cold,
        cold_refs: &cold_refs,
        hot: &hot,
        hot_refs: &hot_refs,
    }
    .run(&tracer, &mut layers)?;
    tally.add(checked);

    let k = target_color(args.seed);
    if !matches!(work, Work::Dynamo(_)) {
        let mut scratch = Layers::default();
        let probe = Dynamo {
            jobs: PROBE_DYNAMO.to_vec(),
            k,
        }
        .pass(&tracer, &mut scratch);
        tally.add(probe.tally);
        layers.construct_ms = scratch.construct_ms;
    }
    let search = match work {
        Work::Search(search) => search,
        _ => &Search {
            instances: PROBE_SEARCH.to_vec(),
            k,
        },
    };
    if !matches!(work, Work::Search(_)) {
        let probe = search.pass(&tracer, &mut layers);
        tally.add(probe.tally);
    }
    search.time_verify(args.seed, VERIFY_PER_TORUS, &tracer, &mut layers);

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        .map_err(|e| format!("write {path}: {e}"))?;

    let rung = |samples: &[Vec<f64>; 4]| {
        Json::obj(layers::RUNGS.iter().zip(samples).map(|(name, us)| {
            let tail = p99_or_tail(us);
            (
                *name,
                Json::obj([
                    ("p50_us", Json::Num(median(us))),
                    ("tail_us", Json::Num(tail.value)),
                    ("tail_percentile", Json::Num(tail.percentile)),
                    ("samples", Json::Int(tail.samples as u64)),
                ]),
            )
        }))
    };
    let info = Json::obj([
        ("spans", Json::str(path)),
        ("ladder_cold", rung(&layers.rung_us)),
        ("ladder_hot", rung(&layers.hot_rung_us)),
        (
            "server_queue_us_p50",
            Json::Num(median(&layers.server_queue_us)),
        ),
        (
            "server_run_us_p50",
            Json::Num(median(&layers.server_run_us)),
        ),
        ("shares", share_medians(&[traced])),
    ]);
    Ok((layers.values(), info))
}

fn run(args: &Args) -> Result<bool, String> {
    let work = prepare(args.workload, args.seed);
    let k = target_color(args.seed);
    let host = host::block(auto_step_threads(k));
    let mut tally = Tally::default();
    let (names, (values, info)): (Vec<(&str, &str)>, _) = if args.trace {
        let names = PER_LAYER
            .iter()
            .map(|(name, unit, _)| (*name, *unit))
            .collect();
        (names, trace_layers(&work, args, &mut tally)?)
    } else {
        (END_TO_END.to_vec(), measure(&work, args, &mut tally)?)
    };
    // A metric that could not be computed (NaN) is a failed run too.
    let correct = tally.failed == 0 && values.iter().all(|v| v.is_finite());
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{}",
        Json::obj([
            ("workload", Json::str(args.workload)),
            ("seed", Json::Int(args.seed)),
            ("host", host),
            ("failed_frac", Json::Num(failed_frac)),
            ("detail", info),
        ])
    );
    let metrics = names.iter().zip(&values).map(|((name, unit), value)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    });
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(tally.attempted)),
            ("failed", Json::Int(tally.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    Ok(correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics this program prints,
    /// and only workloads it runs.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        let metrics = END_TO_END
            .iter()
            .copied()
            .chain(PER_LAYER.iter().map(|&(name, unit, _)| (name, unit)));
        for (name, unit) in metrics {
            let entry = format!(r#""name":"{name}","unit":"{unit}""#);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            compact.matches(r#""unit":"#).count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        let gated = WORKLOADS
            .iter()
            .filter(|workload| compact.contains(&format!(r#""name":"{workload}","why""#)))
            .count();
        assert!(gated >= 2);
        assert_eq!(compact.matches(r#""why":"#).count(), gated);
    }
}
