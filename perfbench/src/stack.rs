//! Embedded loopback servers, and the counters read from them.

use ctori_engine::JobTrace;
use ctori_service::{
    JobId, SchedulerConfig, Server, ServiceClient, ServiceConfig, ServiceError, ServiceStats,
};
use std::thread::JoinHandle;

/// Protocol verbs that act on jobs (the rest are probes and admin).
const JOB_VERBS: [&str; 6] = ["SUBMIT", "SWEEP", "STATUS", "RESULT", "WATCH", "CANCEL"];

struct Backend {
    addr: String,
    serve: JoinHandle<std::io::Result<ServiceStats>>,
}

/// The first backend's loopback port: the service's documented default.
const BASE_PORT: u16 = 7171;

/// `n` single-worker servers on fixed loopback ports, each with the
/// default 256-entry result cache.
///
/// The fleet's hash ring places each backend by its address, so the
/// ports decide how keys split across backends; fixed ports keep that
/// split the same from run to run (ephemeral ones would make it random).
pub struct Backends {
    backends: Vec<Backend>,
    /// One admin connection per backend, for STATS/METRICS/TRACE reads
    /// that stay off the connections under test.
    admin: Vec<ServiceClient>,
}

/// Service counters summed over backends.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: u64,
    pub job_requests: u64,
}

impl Counters {
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            bytes: self.bytes - before.bytes,
            job_requests: self.job_requests - before.job_requests,
        }
    }

    pub fn add(&mut self, other: Counters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.bytes += other.bytes;
        self.job_requests += other.job_requests;
    }

    /// Cache hits over cache probes; NaN when nothing was probed.
    pub fn hit_frac(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

impl Backends {
    /// Binds and starts the servers.  This is the program-side set-up the
    /// service workloads time (with the fleet connect).
    pub fn start(n: usize) -> std::io::Result<Backends> {
        let mut backends = Vec::with_capacity(n);
        for i in 0..n as u16 {
            let server = bind(BASE_PORT + i)?;
            let addr = server.local_addr()?.to_string();
            // Deliberate thread: `stop` drains the server and joins it.
            #[allow(clippy::disallowed_methods)]
            let serve = std::thread::spawn(move || server.serve());
            backends.push(Backend { addr, serve });
        }
        Ok(Backends {
            backends,
            admin: Vec::new(),
        })
    }

    pub fn addrs(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.addr.clone()).collect()
    }

    fn admin(&mut self, backend: usize) -> Result<&mut ServiceClient, ServiceError> {
        while self.admin.len() < self.backends.len() {
            let addr = &self.backends[self.admin.len()].addr;
            self.admin.push(ServiceClient::connect(addr.as_str())?);
        }
        Ok(&mut self.admin[backend])
    }

    /// Current counters, summed over every backend.
    pub fn counters(&mut self) -> Result<Counters, ServiceError> {
        let mut sum = Counters::default();
        for backend in 0..self.backends.len() {
            let client = self.admin(backend)?;
            let cache = client.stats()?.cache;
            let metrics = client.metrics()?;
            let counter = |name: &str| metrics.counter(name).unwrap_or(0);
            sum.add(Counters {
                hits: cache.hits,
                misses: cache.misses,
                evictions: cache.evictions,
                bytes: counter("server.bytes.in") + counter("server.bytes.out"),
                job_requests: JOB_VERBS
                    .iter()
                    .map(|verb| counter(&format!("server.requests.{verb}")))
                    .sum(),
            });
        }
        Ok(sum)
    }

    /// A job's server-side span ring.
    pub fn trace(&mut self, backend: usize, id: u64) -> Result<JobTrace, ServiceError> {
        let id: JobId = id.to_string().parse()?;
        self.admin(backend)?.trace(id)
    }

    /// Drains every server and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.admin.clear();
        let mut result = Ok(());
        for backend in self.backends {
            let shutdown = ServiceClient::connect(backend.addr.as_str())
                .and_then(ServiceClient::shutdown)
                .map_err(|e| format!("shutdown {}: {e}", backend.addr));
            let served = match backend.serve.join() {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(format!("server {}: {e}", backend.addr)),
                Err(_) => Err(format!("server {} panicked", backend.addr)),
            };
            result = result.and(shutdown).and(served);
        }
        result
    }
}

/// Binds a single-worker server at `port`, or, when that port is taken,
/// at the first free one of a fixed sequence above it.
fn bind(port: u16) -> std::io::Result<Server> {
    let mut last = None;
    for attempt in 0..8 {
        let config = ServiceConfig {
            addr: format!("127.0.0.1:{}", port + 100 * attempt),
            scheduler: SchedulerConfig {
                workers: 1,
                ..SchedulerConfig::default()
            },
        };
        match Server::bind(config) {
            Ok(server) => return Ok(server),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("at least one attempt"))
}

/// The job id in a handle label (`local:7`, `remote:7`,
/// `fleet[1]:remote:7`), with the fleet backend index when there is one.
pub fn parse_label(label: &str) -> Option<(Option<usize>, u64)> {
    let backend = label
        .strip_prefix("fleet[")
        .and_then(|rest| rest.split_once(']'))
        .and_then(|(index, _)| index.parse().ok());
    let id = label.rsplit(':').next()?.parse().ok()?;
    Some((backend, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse() {
        assert_eq!(parse_label("local:7"), Some((None, 7)));
        assert_eq!(parse_label("remote:12"), Some((None, 12)));
        assert_eq!(parse_label("fleet[1]:remote:3"), Some((Some(1), 3)));
        assert_eq!(parse_label("fleet"), None);
    }
}
