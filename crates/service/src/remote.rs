//! The TCP backend of the engine's execution API.
//!
//! [`RemoteExecutor`] implements [`ctori_engine::Executor`] over
//! [`ServiceClient`] connections, so the *same* caller code that drives a
//! [`ctori_engine::LocalExecutor`] drives a `ctori-serve` process
//! instead — submit returns a [`ctori_engine::JobHandle`] whose
//! `status`/`wait`/`try_outcome`/`cancel` map onto the protocol verbs
//! and whose polled event stream is fed by `WATCH <id> [since-round]`.
//!
//! Connections come from a small free-list to the same server: each
//! operation takes an idle connection (or dials a new one with the
//! first connection's peer and read timeout), makes its round trip and
//! puts the connection back.  No lock is held across a round trip, so a
//! handle blocked in a server-side wait never holds up a sibling's
//! `SUBMIT` or `STATUS`.  A bounded wait is a loop of
//! `RESULT <id> wait <ms>` slices, each shorter than the read timeout,
//! so the server answers as soon as the job terminates and a slice that
//! runs out is a `not-done` reply, not a client-side timeout.
//!
//! ```no_run
//! use ctori_engine::{Executor, SubmitOptions};
//! use ctori_service::RemoteExecutor;
//! use ctori_engine::RunSpec;
//!
//! let remote = RemoteExecutor::connect("127.0.0.1:7171").unwrap();
//! let spec = RunSpec::from_text(
//!     "topology: toroidal-mesh 64x64\nrule: smp\nseed: checkerboard 1 2\n",
//! )
//! .unwrap();
//! let mut handle = remote.submit(&spec, SubmitOptions::default()).unwrap();
//! let outcome = handle
//!     .wait_observed(|event| println!("{}", event.to_text()))
//!     .unwrap();
//! println!("{} rounds", outcome.rounds);
//! ```

use crate::client::ServiceClient;
use crate::error::ServiceError;
use crate::job::JobId;
use crate::stats::ServiceStats;
use ctori_engine::exec::{
    ExecError, Executor, JobControl, JobHandle, JobStatus, RunEvent, SubmitOptions,
};
use ctori_engine::{JobTrace, MetricsSnapshot, RunOutcome, RunSpec};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Idle connections kept per server; a connection returned beyond this
/// is closed.  The free-list only grows to the number of operations in
/// flight at once, so this bounds a burst, not the steady state.
const MAX_IDLE: usize = 8;

/// A [`ctori_engine::Executor`] backed by a simulation server over TCP.
pub struct RemoteExecutor {
    pool: Arc<ClientPool>,
}

impl RemoteExecutor {
    /// Connects to a server.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> Result<Self, ServiceError> {
        Ok(RemoteExecutor::new(ServiceClient::connect(addr)?))
    }

    /// Connects with a deadline (see [`ServiceClient::connect_timeout`]).
    pub fn connect_timeout(
        addr: impl std::net::ToSocketAddrs,
        timeout: Duration,
    ) -> Result<Self, ServiceError> {
        Ok(RemoteExecutor::new(ServiceClient::connect_timeout(
            addr, timeout,
        )?))
    }

    /// Wraps an already-connected client.  Further connections to the
    /// same server are dialed on demand with its peer address and read
    /// timeout.
    pub fn new(client: ServiceClient) -> Self {
        RemoteExecutor {
            pool: Arc::new(ClientPool::new(client)),
        }
    }

    /// The service counters (cache hits, queue depth, …) — the remote
    /// analogue of the local pool's stats snapshot.
    pub fn stats(&self) -> Result<ServiceStats, ServiceError> {
        self.pool.run(|client| client.stats())
    }

    /// The server's full telemetry exposition — the remote analogue of
    /// [`ctori_engine::LocalExecutor::telemetry`], fetched as one
    /// [`MetricsSnapshot`] rather than live instrument handles.
    pub fn metrics(&self) -> Result<MetricsSnapshot, ServiceError> {
        self.pool.run(|client| client.metrics())
    }

    /// A job's lifecycle span ring, fetched from the server — the
    /// remote analogue of [`ctori_engine::LocalExecutor::job_trace`].
    pub fn trace(&self, id: JobId) -> Result<JobTrace, ServiceError> {
        self.pool.run(|client| client.trace(id))
    }

    /// Asks the server to drain and exit (`SHUTDOWN`).  This is
    /// deliberately **not** what [`Executor::drain`] does: a remote
    /// server is shared infrastructure, so killing it must be an
    /// explicit, named act — backend-agnostic caller code that drains
    /// its executor must stay safe to point at a server other clients
    /// are using.
    pub fn shutdown_server(&self) -> Result<(), ServiceError> {
        // The connection is spent, not returned to the free-list.
        self.pool.take()?.shutdown()
    }
}

impl Executor for RemoteExecutor {
    fn submit(&self, spec: &RunSpec, options: SubmitOptions) -> Result<JobHandle, ExecError> {
        // A retried SUBMIT may land twice when the reply (not the request)
        // was lost; that is safe — jobs are content-addressed by
        // `RunSpec::canonical_key()`, so the duplicate is a cache hit.
        let id = self
            .pool
            .run(|client| client.submit_with_priority(spec, options.priority))
            .map_err(lower)?;
        Ok(remote_handle(&self.pool, id))
    }

    fn submit_sweep(
        &self,
        specs: &[RunSpec],
        options: SubmitOptions,
    ) -> Result<Vec<JobHandle>, ExecError> {
        let ids = self
            .pool
            .run(|client| client.sweep_with_priority(specs, options.priority))
            .map_err(lower)?;
        Ok(ids
            .into_iter()
            .map(|id| remote_handle(&self.pool, id))
            .collect())
    }

    fn drain(&self) {
        // A client-side detach only.  Every job this executor submitted
        // is already admitted server-side and will run to completion
        // (the server drains its own queue on shutdown), so the local
        // half of the drain contract holds with no action; the remote
        // half belongs to the server's owner via
        // [`RemoteExecutor::shutdown_server`] — portable caller code
        // calling `drain()` must never kill a shared server.
    }
}

fn remote_handle(pool: &Arc<ClientPool>, id: JobId) -> JobHandle {
    JobHandle::new(Box::new(RemoteHandle {
        pool: Arc::clone(pool),
        id,
        last_round: None,
        stream_closed: false,
    }))
}

/// The free-list of connections to one server, shared by an executor
/// and all of its handles.  The mutex guards only the push and pop.
struct ClientPool {
    idle: Mutex<Vec<ServiceClient>>,
    peer: SocketAddr,
    read_timeout: Option<Duration>,
}

impl ClientPool {
    fn new(client: ServiceClient) -> ClientPool {
        ClientPool {
            peer: client.peer_addr(),
            read_timeout: client.read_timeout(),
            idle: Mutex::new(vec![client]),
        }
    }

    /// An idle connection, or a new one.  The server answered when this
    /// executor connected, so a failed dial surfaces as
    /// [`ServiceError::ConnectionLost`].
    fn take(&self) -> Result<ServiceClient, ServiceError> {
        let idle = self.idle.lock().expect("remote pool poisoned").pop();
        match idle {
            Some(client) => Ok(client),
            None => self.dial(),
        }
    }

    fn dial(&self) -> Result<ServiceClient, ServiceError> {
        ServiceClient::dial(self.peer, self.read_timeout).map_err(|_| ServiceError::ConnectionLost)
    }

    fn put(&self, client: ServiceClient) {
        let mut idle = self.idle.lock().expect("remote pool poisoned");
        if idle.len() < MAX_IDLE {
            idle.push(client);
        }
    }

    /// The longest server-side wait one round trip may ask for: half the
    /// read timeout, so the reply always beats the client's deadline.
    /// `None` when reads are uncapped.
    fn wait_slice(&self) -> Option<Duration> {
        self.read_timeout.map(|timeout| timeout / 2)
    }

    /// Runs one client operation on a pooled connection, retrying
    /// **exactly once** on a freshly dialed connection when the transport
    /// dropped ([`ServiceError::ConnectionLost`]) or a read deadline fired
    /// mid-request ([`ServiceError::TimedOut`] — the connection may hold
    /// a half-read reply, so a fresh dial is the only safe recovery either
    /// way).  If the redial itself fails the *original* error is returned,
    /// so a dead server still surfaces as `ConnectionLost` rather than a
    /// connect failure.  A connection goes back to the free-list only
    /// after a complete reply; a failed one is dropped.
    fn run<T>(
        &self,
        mut op: impl FnMut(&mut ServiceClient) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let mut client = self.take()?;
        let result = match op(&mut client) {
            Err(first @ (ServiceError::ConnectionLost | ServiceError::TimedOut)) => {
                let Ok(fresh) = self.dial() else {
                    return Err(first);
                };
                client = fresh;
                op(&mut client)
            }
            other => other,
        };
        if matches!(result, Ok(_) | Err(ServiceError::Remote { .. })) {
            self.put(client);
        }
        result
    }
}

/// Translates a wire-level failure into the backend-agnostic error the
/// execution API speaks.  Remote errors lose the context a local pool
/// has (job states, the queue bound), so the nearest variant is used.
fn lower(error: ServiceError) -> ExecError {
    match error {
        ServiceError::QueueFull { capacity } => ExecError::QueueFull { capacity },
        ServiceError::ShuttingDown => ExecError::ShuttingDown,
        ServiceError::UnknownJob(_) => ExecError::UnknownJob,
        ServiceError::NotFinished { .. } => ExecError::NotFinished,
        ServiceError::NotCancellable { .. } => ExecError::NotCancellable,
        ServiceError::JobFailed { message, .. } => ExecError::Failed { message },
        ServiceError::JobCancelled(_) => ExecError::Cancelled,
        ServiceError::TimedOut => ExecError::TimedOut,
        ServiceError::ConnectionLost => {
            ExecError::BackendLost(ServiceError::ConnectionLost.to_string())
        }
        ServiceError::Remote { code, message } => match code.as_str() {
            "queue-full" => ExecError::QueueFull { capacity: 0 },
            "shutting-down" => ExecError::ShuttingDown,
            "unknown-job" => ExecError::UnknownJob,
            "not-done" => ExecError::NotFinished,
            "not-cancellable" => ExecError::NotCancellable,
            "job-failed" => ExecError::Failed { message },
            "job-cancelled" => ExecError::Cancelled,
            "timed-out" => ExecError::TimedOut,
            _ => ExecError::Backend(format!("[{code}] {message}")),
        },
        other => ExecError::Backend(other.to_string()),
    }
}

/// The remote [`JobControl`]: one protocol round trip per operation
/// (a bounded wait is a sequence of them).
struct RemoteHandle {
    pool: Arc<ClientPool>,
    id: JobId,
    /// The highest progress round already delivered through
    /// [`JobControl::poll_events`]; the next `WATCH` resumes after it.
    last_round: Option<usize>,
    /// Whether a terminal event was already delivered (later polls
    /// return nothing, mirroring the local cursor semantics).
    stream_closed: bool,
}

impl JobControl for RemoteHandle {
    fn label(&self) -> String {
        format!("remote:{}", self.id)
    }

    fn status(&mut self) -> Result<JobStatus, ExecError> {
        let id = self.id;
        self.pool.run(|client| client.status(id)).map_err(lower)
    }

    // Deliberate timing code: a bounded wait runs against a deadline.
    #[allow(clippy::disallowed_methods)]
    fn wait(&mut self, timeout: Option<Duration>) -> Result<Arc<RunOutcome>, ExecError> {
        let id = self.id;
        // A timeout too large to represent is no deadline at all.
        let deadline = timeout.and_then(|timeout| Instant::now().checked_add(timeout));
        loop {
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let slice = match (remaining, self.pool.wait_slice()) {
                // No deadline on either side: one server-side wait until
                // the job is terminal.
                (None, None) => {
                    return self
                        .pool
                        .run(|client| client.result(id))
                        .map(Arc::new)
                        .map_err(lower)
                }
                (Some(left), Some(cap)) => left.min(cap),
                (Some(slice), None) | (None, Some(slice)) => slice,
            };
            let outcome = self
                .pool
                .run(|client| client.result_within(id, slice))
                .map_err(lower)?;
            if let Some(outcome) = outcome {
                return Ok(Arc::new(outcome));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(ExecError::NotFinished);
            }
        }
    }

    fn try_outcome(&mut self) -> Result<Option<Arc<RunOutcome>>, ExecError> {
        let id = self.id;
        self.pool
            .run(|client| client.try_result(id))
            .map(|outcome| outcome.map(Arc::new))
            .map_err(lower)
    }

    fn cancel(&mut self) -> Result<(), ExecError> {
        let id = self.id;
        self.pool.run(|client| client.cancel(id)).map_err(lower)
    }

    fn poll_events(&mut self) -> Result<Vec<RunEvent>, ExecError> {
        if self.stream_closed {
            return Ok(Vec::new());
        }
        let (id, since) = (self.id, self.last_round);
        let events = self
            .pool
            .run(|client| client.watch(id, since))
            .map_err(lower)?;
        if let Some(round) = events.iter().filter_map(RunEvent::progress_round).max() {
            self.last_round = Some(round);
        } else if self.last_round.is_none() && events.iter().any(|e| !e.is_terminal()) {
            // A first poll that saw only the started event: later polls
            // must not replay it, so advance past "everything".
            self.last_round = Some(0);
        }
        if events.iter().any(RunEvent::is_terminal) {
            self.stream_closed = true;
        }
        Ok(events)
    }
}
