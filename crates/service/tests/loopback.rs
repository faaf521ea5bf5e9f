//! End-to-end service tests over real loopback TCP.
//!
//! Every test binds its own server on an ephemeral port (`127.0.0.1:0`),
//! so tests run in parallel without port coordination and CI never needs
//! the network beyond loopback.
//!
//! The headline contract (the PR's acceptance criterion) is
//! [`duplicate_submit_is_served_from_cache`]: a `SUBMIT` of a PR-3 spec
//! text returns a parseable outcome, and a second identical submit is
//! served from the content-addressed cache — observed *through the
//! protocol* via the `STATS` hit counter and the `STATUS … cached`
//! marker, with byte-identical outcomes.

use ctori_coloring::Color;
use ctori_engine::{Executor, SubmitOptions};
use ctori_engine::{
    MetricsSnapshot, RuleSpec, RunEvent, RunSpec, Runner, SeedSpec, SpanKind, TopologySpec,
};
use ctori_service::{
    JobId, JobState, Priority, RemoteExecutor, SchedulerConfig, Server, ServiceClient,
    ServiceConfig, ServiceError, ServiceStats,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::Duration;

type ServerHandle = JoinHandle<std::io::Result<ServiceStats>>;

fn start_server(scheduler: SchedulerConfig) -> (String, ServerHandle) {
    let server = Server::bind(ServiceConfig {
        addr: "127.0.0.1:0".into(),
        scheduler,
    })
    .expect("bind ephemeral loopback port");
    let addr = server.local_addr().expect("local addr").to_string();
    // Deliberate spawn: the test joins the handle after SHUTDOWN.
    #[allow(clippy::disallowed_methods)]
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

fn default_server() -> (String, ServerHandle) {
    start_server(SchedulerConfig {
        workers: 2,
        queue_capacity: 256,
        cache_capacity: 64,
        ..SchedulerConfig::default()
    })
}

fn spec(size: usize, node: usize) -> RunSpec {
    RunSpec::new(
        TopologySpec::toroidal_mesh(size, size),
        RuleSpec::parse("smp").unwrap(),
        SeedSpec::nodes(Color::new(1), Color::new(2), [node]),
    )
}

#[test]
fn duplicate_submit_is_served_from_cache() {
    let (addr, server) = default_server();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();

    // SUBMIT a spec *text* (the PR-3 wire form) and get a parseable
    // outcome back.
    let spec = spec(12, 5);
    let first_id = client.submit(&spec).unwrap();
    let first = client.result(first_id).unwrap();
    assert_eq!(first.rule, "smp");
    assert_eq!(first.final_coloring.rows(), 12);

    // The identical spec again: byte-identical memoized outcome.
    let second_id = client.submit(&spec).unwrap();
    let second = client.result(second_id).unwrap();
    assert_eq!(second, first);
    assert!(client.status(second_id).unwrap().from_cache);
    assert!(!client.status(first_id).unwrap().from_cache);

    // The cache hit is observable through STATS.
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache.hits, 1, "exactly the duplicate hit");
    assert_eq!(stats.cache.misses, 1, "exactly the first execution missed");
    assert_eq!(stats.done, 2);
    assert_eq!(stats.failed, 0);

    // The outcome matches an in-process execution of the same spec.
    assert_eq!(first, Runner::with_threads(1).execute(&spec));

    client.shutdown().unwrap();
    let final_stats = server.join().unwrap().unwrap();
    assert_eq!(final_stats.queued, 0);
}

#[test]
fn sweep_returns_ordered_ids_and_correct_outcomes() {
    let (addr, server) = default_server();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();

    let grid: Vec<RunSpec> = (0..5).map(|n| spec(8, n)).collect();
    let ids = client.sweep(&grid).unwrap();
    assert_eq!(ids.len(), grid.len());
    for (s, id) in grid.iter().zip(&ids) {
        let outcome = client.result(*id).unwrap();
        assert_eq!(outcome, Runner::with_threads(1).execute(s), "job {id}");
    }
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn two_clients_share_one_cache() {
    let (addr, server) = default_server();
    let mut alice = ServiceClient::connect(addr.as_str()).unwrap();
    let mut bob = ServiceClient::connect(addr.as_str()).unwrap();

    let shared = spec(10, 7);
    let a = alice.submit(&shared).unwrap();
    let first = alice.result(a).unwrap();
    let b = bob.submit(&shared).unwrap();
    let second = bob.result(b).unwrap();
    assert_eq!(first, second, "cross-client memoization");
    assert!(bob.status(b).unwrap().from_cache);

    bob.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn wire_errors_carry_codes() {
    let (addr, server) = default_server();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();

    // Unknown job.
    let missing = "999".parse().unwrap();
    match client.status(missing) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, "unknown-job"),
        other => panic!("expected unknown-job, got {other:?}"),
    }

    // A structurally invalid spec (1×1 torus) is rejected at the door,
    // not executed.
    let mut invalid =
        RunSpec::from_text("topology: toroidal-mesh 4x4\nrule: smp\nseed: uniform 1\n").unwrap();
    invalid.topology = TopologySpec::toroidal_mesh(1, 1);
    match client.submit(&invalid) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, "bad-spec"),
        other => panic!("expected bad-spec, got {other:?}"),
    }

    // Terminal jobs are not cancellable.
    let id = client.submit(&spec(6, 1)).unwrap();
    client.result(id).unwrap();
    match client.cancel(id) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, "not-cancellable"),
        other => panic!("expected not-cancellable, got {other:?}"),
    }

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn oversize_topology_is_rejected_and_the_connection_survives() {
    let (addr, server) = default_server();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    // 4·10¹⁰ cells would abort the server on allocation if admitted.
    let oversize = RunSpec::new(
        TopologySpec::toroidal_mesh(200_000, 200_000),
        RuleSpec::parse("smp").unwrap(),
        SeedSpec::uniform(Color::new(1)),
    );
    match client.submit(&oversize) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, "bad-spec"),
        other => panic!("expected bad-spec, got {other:?}"),
    }
    // The same connection keeps answering.
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_submitted, 0, "nothing was admitted");
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn try_result_polls_until_done() {
    let (addr, server) = default_server();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    let id = client.submit(&spec(16, 3)).unwrap();
    // Poll (an impatient client): None while pending, Some when done.
    let outcome = loop {
        if let Some(outcome) = client.try_result(id).unwrap() {
            break outcome;
        }
        std::thread::yield_now();
    };
    assert_eq!(client.status(id).unwrap().state, JobState::Done);
    assert_eq!(outcome, Runner::with_threads(1).execute(&spec(16, 3)));
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn watch_streams_monotone_rounds_ending_terminal() {
    let (addr, server) = default_server();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();

    // A long-running job: threshold-1 growth floods a 48x48 torus in ~70
    // rounds, so WATCH polls genuinely overlap the in-flight run.
    let growth = RunSpec::new(
        TopologySpec::toroidal_mesh(48, 48),
        RuleSpec::parse("threshold(2,1)").unwrap(),
        SeedSpec::nodes(Color::new(2), Color::new(1), [0usize]),
    );
    let id = client.submit(&growth).unwrap();

    // The WATCH polling loop a streaming client runs: everything first,
    // then only progress beyond the last seen round.
    let mut since = None;
    let mut rounds = Vec::new();
    let mut started = 0usize;
    let terminal = loop {
        let events = client.watch(id, since).unwrap();
        // A first poll may land before any round completed and return
        // only the started event; advance the cursor past "everything"
        // so that event is not replayed (RemoteHandle does the same).
        if since.is_none() && events.iter().any(|e| !e.is_terminal()) {
            since = Some(0);
        }
        let mut done = None;
        for event in &events {
            match event {
                RunEvent::Started { nodes } => {
                    assert_eq!(*nodes, 48 * 48);
                    started += 1;
                }
                RunEvent::Progress {
                    round, histogram, ..
                } => {
                    rounds.push(*round);
                    since = Some(*round);
                    assert_eq!(histogram.total(), 48 * 48, "histogram covers the torus");
                }
                terminal => done = Some(terminal.clone()),
            }
        }
        if let Some(terminal) = done {
            break terminal;
        }
        std::thread::yield_now();
    };

    // The acceptance contract: strictly increasing rounds, a terminal
    // close, and the started event exactly once (the since-round cursor
    // never replays it).
    assert!(rounds.len() >= 2, "saw rounds {rounds:?}");
    assert!(
        rounds.windows(2).all(|w| w[0] < w[1]),
        "rounds must be strictly increasing: {rounds:?}"
    );
    assert!(started <= 1, "started must not be replayed");
    match terminal {
        RunEvent::Finished { rounds: total, .. } => {
            assert_eq!(total, *rounds.last().unwrap(), "auto stride samples all");
        }
        other => panic!("expected Finished, got {other:?}"),
    }

    // After termination a fresh watcher still gets the full stream, and
    // an unknown job is an unknown-job error.
    let replay = client.watch(id, None).unwrap();
    assert!(matches!(replay.first(), Some(RunEvent::Started { .. })));
    assert!(matches!(replay.last(), Some(RunEvent::Finished { .. })));
    match client.watch("999".parse().unwrap(), None) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, "unknown-job"),
        other => panic!("expected unknown-job, got {other:?}"),
    }

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn read_timeout_surfaces_instead_of_blocking_forever() {
    let (addr, server) = start_server(SchedulerConfig {
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 0,
        ..SchedulerConfig::default()
    });
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    // Head occupies the single worker; the tail's RESULT(wait) would
    // block far beyond the client's read deadline.
    let head = client.submit(&spec(32, 0)).unwrap();
    let tail = client.submit(&spec(32, 1)).unwrap();
    client
        .set_read_timeout(Some(Duration::from_millis(30)))
        .unwrap();
    match client.result(tail) {
        Err(ServiceError::TimedOut) => {}
        Ok(_) => {} // absurdly fast machine; still correct
        other => panic!("expected TimedOut, got {other:?}"),
    }
    // A timed-out connection may hold a half-read reply: reconnect, as
    // the docs instruct, and finish the work on a fresh client.
    let mut fresh = ServiceClient::connect(addr.as_str()).unwrap();
    fresh.result(head).unwrap();
    fresh.result(tail).unwrap();
    // connect_timeout also works against a live server.
    let probe = ServiceClient::connect_timeout(addr.as_str(), Duration::from_secs(5)).unwrap();
    probe.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

/// A long-running job: threshold-1 growth floods an `n`×`n` torus in
/// about `n` rounds of genuine work.
fn growth(n: usize) -> RunSpec {
    RunSpec::new(
        TopologySpec::toroidal_mesh(n, n),
        RuleSpec::parse("threshold(2,1)").unwrap(),
        SeedSpec::nodes(Color::new(2), Color::new(1), [0usize]),
    )
}

#[test]
fn bounded_result_wait_runs_out_as_not_done_and_keeps_the_connection() {
    let (addr, server) = start_server(SchedulerConfig {
        workers: 1,
        queue_capacity: 64,
        cache_capacity: 0,
        ..SchedulerConfig::default()
    });
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    // The tail queues behind a long head on the single worker (tens of
    // milliseconds even in an optimised build), so a short server-side
    // wait on it runs out.
    let head = client.submit(&growth(768)).unwrap();
    let tail = client.submit(&spec(8, 1)).unwrap();

    let mut stream = TcpStream::connect(addr.as_str()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    stream
        .write_all(format!("RESULT {tail} wait 5\n").as_bytes())
        .unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR not-done"), "{line}");
    // The same connection answers the next request.
    line.clear();
    stream
        .write_all(format!("STATUS {tail}\n").as_bytes())
        .unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK status"), "{line}");

    // Through the client: `None` while pending, then the outcome.
    assert_eq!(
        client
            .result_within(tail, Duration::from_millis(5))
            .unwrap(),
        None
    );
    let outcome = loop {
        if let Some(outcome) = client.result_within(tail, Duration::from_secs(1)).unwrap() {
            break outcome;
        }
    };
    assert_eq!(outcome, Runner::with_threads(1).execute(&spec(8, 1)));
    assert_eq!(client.status(head).unwrap().state, JobState::Done);
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn a_blocked_remote_wait_does_not_starve_its_siblings() {
    let (addr, server) = default_server();
    let remote = RemoteExecutor::connect(addr.as_str()).unwrap();
    let mut admin = ServiceClient::connect(addr.as_str()).unwrap();
    let result_requests = |admin: &mut ServiceClient| {
        admin
            .metrics()
            .unwrap()
            .counter("server.requests.RESULT")
            .unwrap_or(0)
    };

    let long_spec = growth(512);
    let mut long = remote.submit(&long_spec, SubmitOptions::default()).unwrap();
    let long_id: JobId = long
        .label()
        .strip_prefix("remote:")
        .and_then(|id| id.parse().ok())
        .expect("remote handle label carries the job id");
    let before = result_requests(&mut admin);
    std::thread::scope(|scope| {
        let waiter = scope.spawn(move || long.wait().unwrap());
        // Handle A is now parked in a server-side wait …
        while result_requests(&mut admin) == before {
            std::thread::yield_now();
        }
        // … and handle B, on the same executor, still submits and waits.
        let short_spec = spec(8, 2);
        let mut short = remote
            .submit(&short_spec, SubmitOptions::default())
            .unwrap();
        let outcome = short.wait().unwrap();
        assert_eq!(*outcome, Runner::with_threads(1).execute(&short_spec));
        let state = admin.status(long_id).unwrap().state;
        assert!(
            !state.is_terminal(),
            "B finished while A's job was still {state:?}"
        );
        assert_eq!(
            *waiter.join().unwrap(),
            Runner::with_threads(1).execute(&long_spec)
        );
    });
    admin.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn raw_socket_gets_err_for_garbage() {
    let (addr, server) = default_server();
    let mut stream = TcpStream::connect(addr.as_str()).unwrap();
    stream.write_all(b"TELEPORT 9\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR bad-request"), "{line}");
    // The connection survives a bad request.
    stream.write_all(b"STATS\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK stats"), "{line}");
    // Drain the stats block, then shut the server down politely.
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "." {
            break;
        }
    }
    stream.write_all(b"SHUTDOWN\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "OK bye");
    server.join().unwrap().unwrap();
}

#[test]
fn unterminated_oversized_line_is_bounded() {
    let (addr, server) = default_server();
    let mut stream = TcpStream::connect(addr.as_str()).unwrap();
    // Stream past the 1 MiB line bound without ever sending `\n`.  The
    // server must stop buffering, reply `ERR bad-request` and close the
    // connection instead of growing memory without limit.
    let chunk = vec![b'a'; 64 * 1024];
    let mut sent = 0usize;
    while sent <= (1 << 20) + chunk.len() {
        // The server may already have closed on us mid-write.
        if stream.write_all(&chunk).is_err() {
            break;
        }
        sent += chunk.len();
    }
    // The server drains our leftover bytes before closing, so the reply
    // arrives intact (a clean FIN, not an abortive reset) and names the
    // bound that tripped.
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR bad-request"), "{line}");
    assert!(line.contains("line exceeds"), "{line}");
    // The server survives and keeps serving other clients.
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    let id = client.submit(&spec(6, 2)).unwrap();
    client.result(id).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn invalid_utf8_line_gets_bad_request() {
    let (addr, server) = default_server();
    let mut stream = TcpStream::connect(addr.as_str()).unwrap();
    stream.write_all(b"STATS \xff\xfe\n").unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR bad-request"), "{line}");
    assert!(line.contains("utf-8"), "{line}");
    // The connection is closed after the reply...
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0);
    // ...and the server keeps serving everyone else.
    let client = ServiceClient::connect(addr.as_str()).unwrap();
    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn metrics_expose_wire_and_executor_instruments() {
    let (addr, server) = default_server();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();

    // Generate traffic: one executed job plus a STATS round trip.
    let id = client.submit(&spec(12, 4)).unwrap();
    client.result(id).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.jobs_submitted, 1);
    assert!(stats.queue_depth_hwm >= 1, "{stats:?}");

    // A raw socket feeding invalid UTF-8 trips the framing counter (and
    // its reply happens-before our next request is served).
    {
        let mut stream = TcpStream::connect(addr.as_str()).unwrap();
        stream.write_all(b"STATS \xff\xfe\n").unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR bad-request"), "{line}");
    }

    let snapshot = client.metrics().unwrap();
    // Per-verb counters: this connection issued SUBMIT, RESULT, STATS
    // and the METRICS request itself (counted before dispatch, so the
    // exposition includes its own request).
    assert_eq!(snapshot.counter("server.requests.SUBMIT"), Some(1));
    assert_eq!(snapshot.counter("server.requests.RESULT"), Some(1));
    assert_eq!(snapshot.counter("server.requests.STATS"), Some(1));
    assert_eq!(snapshot.counter("server.requests.METRICS"), Some(1));
    // Wire-layer counters observed real bytes and connections.
    assert!(snapshot.counter("server.bytes.in").unwrap() > 0);
    assert!(snapshot.counter("server.bytes.out").unwrap() > 0);
    assert!(snapshot.counter("server.connections").unwrap() >= 2);
    assert!(snapshot.counter("server.framing-errors").unwrap() >= 1);
    // Executor instruments: the job's queue wait and run time landed in
    // the latency histograms.
    assert_eq!(snapshot.counter("exec.jobs.submitted"), Some(1));
    let run = snapshot.histogram("exec.job.run-us").unwrap();
    assert_eq!(run.count, 1);
    assert!(run.quantile(0.99) >= run.quantile(0.5));
    assert_eq!(snapshot.histogram("exec.queue.wait-us").unwrap().count, 1);
    // The exposition is the canonical text form: it reparses losslessly.
    let reparsed = MetricsSnapshot::from_text(&snapshot.to_text()).unwrap();
    assert_eq!(reparsed, snapshot);

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn trace_returns_a_monotone_span_ring_for_a_finished_job() {
    let (addr, server) = default_server();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();

    let id = client.submit(&spec(16, 2)).unwrap();
    client.result(id).unwrap();

    let trace = client.trace(id).unwrap();
    assert!(trace.is_monotone(), "{trace:?}");
    let kinds: Vec<SpanKind> = trace.spans().iter().map(|s| s.kind).collect();
    assert_eq!(
        &kinds[..4],
        [
            SpanKind::Submitted,
            SpanKind::Queued,
            SpanKind::Claimed,
            SpanKind::Running,
        ],
        "lifecycle prefix"
    );
    assert_eq!(trace.terminal().map(|s| s.kind), Some(SpanKind::Done));
    // Both durations derive from the ring.
    assert!(trace.queue_wait_nanos().is_some());
    assert!(trace.run_nanos().is_some());

    // An unknown job surfaces the usual wire error.
    match client.trace("999".parse().unwrap()) {
        Err(ServiceError::Remote { code, .. }) => assert_eq!(code, "unknown-job"),
        other => panic!("expected unknown-job, got {other:?}"),
    }

    client.shutdown().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_admitted_jobs() {
    let (addr, server) = start_server(SchedulerConfig {
        workers: 1,
        queue_capacity: 256,
        cache_capacity: 0,
        ..SchedulerConfig::default()
    });
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    let ids: Vec<_> = (0..6)
        .map(|n| {
            client
                .submit_with_priority(&spec(16, n), Priority::Low)
                .unwrap()
        })
        .collect();
    client.shutdown().unwrap();
    let final_stats = server.join().unwrap().unwrap();
    assert_eq!(final_stats.queued, 0, "drain leaves nothing queued");
    assert_eq!(final_stats.running, 0);
    assert_eq!(final_stats.done, ids.len() as u64, "every admitted job ran");
}
