//! End-to-end fleet behaviour over real loopback backends: the
//! acceptance criteria of the fleet layer.
//!
//! - **Cache-preserving routing**: identical specs resubmitted under
//!   stable membership land on the same backend and are served from its
//!   result cache (asserted via the aggregated STATS hit counters).
//! - **Failure survival**: one of three backends killed mid-sweep, the
//!   sweep still completes with outcomes equal to a single-threaded
//!   reference run, and the fleet metrics record the eviction and the
//!   reroutes.
//! - **Work stealing**: a sweep job queued behind a long run on a busy
//!   backend is re-dispatched to an idle one.
//! - **Server-side waits**: a handle waiting on a running job issues a
//!   couple of `RESULT` requests, not one per poll interval.

use ctori_coloring::Color;
use ctori_engine::{Executor, RuleSpec, RunSpec, Runner, SeedSpec, SubmitOptions, TopologySpec};
use ctori_fleet::{FleetConfig, FleetExecutor};
use ctori_service::{SchedulerConfig, Server, ServiceClient, ServiceConfig, ServiceStats};
use std::time::Duration;

type ServerHandle = std::thread::JoinHandle<std::io::Result<ServiceStats>>;

fn start_server(workers: usize) -> (String, ServerHandle) {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        scheduler: SchedulerConfig {
            workers,
            queue_capacity: 128,
            cache_capacity: 64,
            ..SchedulerConfig::default()
        },
    })
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr().expect("local addr").to_string();
    #[allow(clippy::disallowed_methods)]
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

/// A quick deterministic spec, distinct per `salt`.
fn quick_spec(salt: u64) -> RunSpec {
    RunSpec::new(
        TopologySpec::toroidal_mesh(12, 12),
        RuleSpec::parse("smp").expect("registry rule"),
        SeedSpec::Density {
            color: Color::new(1),
            palette: 3,
            fraction: 0.4,
            rng_seed: salt,
        },
    )
}

/// A long-running spec: threshold-1 growth floods the torus row by row,
/// so the run spans ~2·n rounds of genuine work.
fn slow_spec(n: usize) -> RunSpec {
    RunSpec::new(
        TopologySpec::toroidal_mesh(n, n),
        RuleSpec::parse("threshold(2,1)").expect("registry rule"),
        SeedSpec::nodes(Color::new(2), Color::new(1), [0usize]),
    )
}

#[test]
fn identical_specs_route_to_the_same_backend_and_hit_its_cache() {
    let (addrs, servers): (Vec<String>, Vec<ServerHandle>) =
        (0..3).map(|_| start_server(2)).unzip();
    let fleet = FleetExecutor::connect(FleetConfig::new(addrs.iter().cloned())).expect("fleet");

    let spec = quick_spec(42);
    let reference = Runner::with_threads(1).execute(&spec);
    let mut first = fleet
        .submit(&spec, SubmitOptions::default())
        .expect("submit");
    assert_eq!(*first.wait().expect("first run"), reference);
    let mut second = fleet
        .submit(&spec, SubmitOptions::default())
        .expect("resubmit");
    assert_eq!(*second.wait().expect("second run"), reference);

    let stats = fleet.stats();
    // Consistent hashing sent both submissions to one backend…
    let loaded: Vec<&u64> = stats.local.jobs_routed.iter().filter(|&&n| n > 0).collect();
    assert_eq!(loaded, vec![&2], "both submissions routed to one backend");
    // …and the second was served from that backend's result cache.
    assert_eq!(stats.aggregate.cache.misses, 1, "{:?}", stats.local);
    assert_eq!(stats.aggregate.cache.hits, 1, "{:?}", stats.local);
    assert_eq!(stats.aggregate.done, 2);

    fleet.drain();
    for (addr, server) in addrs.iter().zip(servers) {
        ServiceClient::connect(addr.as_str())
            .expect("connect for shutdown")
            .shutdown()
            .expect("shutdown");
        server.join().expect("server thread").expect("serve");
    }
}

#[test]
fn waiting_blocks_on_the_server_instead_of_polling() {
    let (addr, server) = start_server(1);
    let fleet = FleetExecutor::connect(FleetConfig::new([addr.clone()])).expect("fleet");
    let mut admin = ServiceClient::connect(addr.as_str()).expect("admin connection");
    let mut result_requests = || {
        admin
            .metrics()
            .expect("metrics")
            .counter("server.requests.RESULT")
            .unwrap_or(0)
    };

    // Tens of milliseconds of work even in an optimised build, hundreds
    // in a debug one: a 10 ms poll would send several RESULTs.
    let spec = slow_spec(512);
    let before = result_requests();
    let mut handle = fleet
        .submit(&spec, SubmitOptions::default())
        .expect("submit");
    assert_eq!(
        *handle.wait().expect("job finishes"),
        Runner::with_threads(1).execute(&spec)
    );
    let requests = result_requests() - before;
    assert!(
        requests <= 2,
        "{requests} RESULT requests for one wait: the handle polled"
    );

    fleet.drain();
    ServiceClient::connect(addr.as_str())
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown");
    server.join().expect("server thread").expect("serve");
}

#[test]
fn killing_one_of_three_backends_mid_sweep_is_survived() {
    let (addrs, servers): (Vec<String>, Vec<ServerHandle>) =
        (0..3).map(|_| start_server(1)).unzip();
    let mut config = FleetConfig::new(addrs.iter().cloned());
    // Aggressive detection so the test converges quickly.
    config.probe_interval = Duration::from_millis(50);
    config.probe_timeout = Duration::from_millis(250);
    config.failure_threshold = 1;
    config.request_timeout = Duration::from_millis(500);
    // Stealing is exercised by its own test; keep it quiet here.
    config.steal_patience = Duration::from_secs(30);
    let fleet = FleetExecutor::connect(config).expect("fleet");

    let grid: Vec<RunSpec> = (0..9).map(quick_spec).collect();
    let reference: Vec<_> = grid
        .iter()
        .map(|s| Runner::with_threads(1).execute(s))
        .collect();
    let handles = fleet
        .submit_sweep(&grid, SubmitOptions::default())
        .expect("sweep admitted");

    // Kill the middle backend before any result is fetched: its chunk's
    // results become unreachable, so those handles must re-route.
    ServiceClient::connect(addrs[1].as_str())
        .expect("connect for kill")
        .shutdown()
        .expect("shutdown");

    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|mut h| (*h.wait().expect("job survives the kill")).clone())
        .collect();
    assert_eq!(
        outcomes, reference,
        "every grid point completes with the single-backend reference outcome"
    );

    let local = fleet.local();
    assert!(local.evictions >= 1, "the kill was recorded: {local:?}");
    assert!(local.reroutes >= 1, "orphaned jobs re-routed: {local:?}");
    assert!(
        local.jobs_routed[0] + local.jobs_routed[2] >= local.reroutes,
        "re-routed work landed on the survivors: {local:?}"
    );
    assert_eq!(fleet.healthy_backends(), 2, "{local:?}");

    // The merged telemetry exposes the same counters.
    let metrics = fleet.metrics();
    assert!(metrics.counter("fleet.evictions").unwrap_or(0) >= 1);
    assert!(metrics.counter("fleet.reroutes").unwrap_or(0) >= 1);
    assert_eq!(metrics.gauge("fleet.backends.healthy"), Some(2));

    fleet.drain();
    for (index, (addr, server)) in addrs.iter().zip(servers).enumerate() {
        if index != 1 {
            ServiceClient::connect(addr.as_str())
                .expect("connect for shutdown")
                .shutdown()
                .expect("shutdown");
        }
        server.join().expect("server thread").expect("serve");
    }
}

#[test]
fn a_lagging_backend_is_stolen_from() {
    let (addrs, servers): (Vec<String>, Vec<ServerHandle>) =
        (0..2).map(|_| start_server(1)).unzip();
    let mut config = FleetConfig::new(addrs.iter().cloned());
    config.steal_patience = Duration::from_millis(10);
    let fleet = FleetExecutor::connect(config).expect("fleet");

    // Equal idle hints split 3 specs [2, 1]: the first backend gets two
    // long runs back to back, the second one quick run.  The long runs
    // take hundreds of milliseconds each (threshold growth sweeps the
    // whole torus once per round), so the second sits queued far longer
    // than the steal patience.
    let grid = vec![slow_spec(512), slow_spec(576), quick_spec(7)];
    let reference: Vec<_> = grid
        .iter()
        .map(|s| Runner::with_threads(1).execute(s))
        .collect();
    let mut handles = fleet
        .submit_sweep(&grid, SubmitOptions::default())
        .expect("sweep admitted");

    // Finish the idle backend's share first so its pending count drops
    // to zero — that is what makes it a legal steal target.
    let quick = handles.pop().expect("three handles");
    let mut outcomes = vec![None, None, None];
    let mut wait = |index: usize, mut handle: ctori_engine::JobHandle| {
        outcomes[index] = Some((*handle.wait().expect("job finishes")).clone());
    };
    wait(2, quick);
    // The second slow run is queued behind the first on the busy
    // backend; after the patience window its handle re-dispatches it to
    // the now-idle backend.
    for (index, handle) in handles.into_iter().enumerate().rev() {
        wait(index, handle);
    }
    let outcomes: Vec<_> = outcomes
        .into_iter()
        .map(|o| o.expect("all waited"))
        .collect();
    assert_eq!(outcomes, reference, "stolen runs still agree");

    let local = fleet.local();
    assert!(local.steals >= 1, "the lagging tail was stolen: {local:?}");

    fleet.drain();
    for (addr, server) in addrs.iter().zip(servers) {
        ServiceClient::connect(addr.as_str())
            .expect("connect for shutdown")
            .shutdown()
            .expect("shutdown");
        server.join().expect("server thread").expect("serve");
    }
}
