//! Per-layer figures gathered by a traced run, and their metric table.

use crate::stack::Counters;
use crate::stats::{median, p99_or_tail};
use ctori_engine::RunOutcome;

/// Kernel figures summed over the `RoundStats` of fresh executions.
#[derive(Default)]
pub struct Kernel {
    /// Cells and step nanoseconds per lane: planes, packed, generic.
    lane_cells: [u64; 3],
    lane_nanos: [u64; 3],
    rounds: u64,
    nanos: u64,
    thread_rounds: u64,
    dense_bands: u64,
    sparse_bands: u64,
}

impl Kernel {
    pub fn add(&mut self, outcome: &RunOutcome) {
        let Some(stats) = outcome.round_stats else {
            return;
        };
        let lane = if outcome.used_plane_lane {
            0
        } else if outcome.used_packed_lane {
            1
        } else {
            2
        };
        self.lane_cells[lane] += stats.cells_evaluated;
        self.lane_nanos[lane] += stats.nanos;
        self.rounds += stats.rounds;
        self.nanos += stats.nanos;
        self.thread_rounds += stats.threads * stats.rounds;
        self.dense_bands += stats.dense_bands;
        self.sparse_bands += stats.sparse_bands;
    }

    pub fn merge(&mut self, other: &Kernel) {
        for lane in 0..3 {
            self.lane_cells[lane] += other.lane_cells[lane];
            self.lane_nanos[lane] += other.lane_nanos[lane];
        }
        self.rounds += other.rounds;
        self.nanos += other.nanos;
        self.thread_rounds += other.thread_rounds;
        self.dense_bands += other.dense_bands;
        self.sparse_bands += other.sparse_bands;
    }

    fn ns_per_cell(&self, lane: usize) -> f64 {
        self.lane_nanos[lane] as f64 / self.lane_cells[lane] as f64
    }

    pub fn cells(&self) -> u64 {
        self.lane_cells.iter().sum()
    }
}

/// Ladder rungs, bottom up.
pub const RUNGS: [&str; 4] = ["runner", "local", "remote", "fleet"];

/// Everything a traced run measures below the end-to-end level.
#[derive(Default)]
pub struct Layers {
    pub kernel: Kernel,
    /// `Runner::execute` wall time minus `RoundStats.nanos`.
    pub runner_build_ms: Vec<f64>,
    pub topology_build_ms: Vec<f64>,
    pub seed_materialize_ms: Vec<f64>,
    /// Submit → outcome per ladder rung, cold subset, microseconds.
    pub rung_us: [Vec<f64>; 4],
    /// The same for the warmed hot set.
    pub hot_rung_us: [Vec<f64>; 4],
    /// `LocalExecutor` Queued → Claimed, from `JobTrace`.
    pub queue_wait_us: Vec<f64>,
    /// Server-side queue wait and run of ladder jobs, from `TRACE`.
    pub server_queue_us: Vec<f64>,
    pub server_run_us: Vec<f64>,
    /// Server-side queue wait + run of cache hits, from `TRACE`.
    pub hit_service_us: Vec<f64>,
    /// Server counter deltas and the jobs sent while they were taken.
    pub service: Counters,
    pub service_jobs: u64,
    /// Jobs routed per fleet backend index, summed over fleets.
    pub routed: Vec<u64>,
    pub reroutes_steals: u64,
    /// `minimum_dynamo` milliseconds per pass.
    pub construct_ms: Vec<f64>,
    pub search_instance_s: Vec<f64>,
    pub verify_us: Vec<f64>,
    pub untraced_makespan_s: f64,
    pub traced_makespan_s: f64,
}

/// `(name, unit, better)` of every per-layer metric, in output order.
pub const PER_LAYER: [(&str, &str, &str); 28] = [
    ("kernel.planes.ns_per_cell", "ns", "lower"),
    ("kernel.packed.ns_per_cell", "ns", "lower"),
    ("kernel.generic.ns_per_cell", "ns", "lower"),
    ("kernel.us_per_round", "us", "lower"),
    ("kernel.step_threads", "count", "lower"),
    ("kernel.dense_band_frac", "1", "lower"),
    ("kernel.cells_evaluated", "count", "lower"),
    ("runner.build_ms_p50", "ms", "lower"),
    ("spec.topology_build_ms", "ms", "lower"),
    ("spec.seed_materialize_ms", "ms", "lower"),
    ("exec.added_us_p50", "us", "lower"),
    ("exec.added_us_p99", "us", "lower"),
    ("exec.queue_wait_us_p50", "us", "lower"),
    ("remote.added_us_p50", "us", "lower"),
    ("remote.added_us_p99", "us", "lower"),
    ("wire.bytes_per_job", "B", "lower"),
    ("wire.requests_per_job", "count", "lower"),
    ("cache.hit_frac", "1", "higher"),
    ("cache.hit_service_us_p50", "us", "lower"),
    ("cache.evictions", "count", "lower"),
    ("fleet.added_us_p50", "us", "lower"),
    ("fleet.added_us_p99", "us", "lower"),
    ("fleet.backend_skew", "1", "lower"),
    ("fleet.reroutes_steals", "count", "lower"),
    ("construct.ms", "ms", "lower"),
    ("search.instance_s", "s", "lower"),
    ("dynamo.verify_us_p50", "us", "lower"),
    ("trace.overhead_frac", "1", "lower"),
];

impl Layers {
    /// A rung's p50 and tail latency minus the rung below's.
    fn added(&self, rung: usize) -> (f64, f64) {
        let (upper, lower) = (&self.rung_us[rung], &self.rung_us[rung - 1]);
        (
            median(upper) - median(lower),
            p99_or_tail(upper).value - p99_or_tail(lower).value,
        )
    }

    /// Every per-layer metric value, in [`PER_LAYER`] order.
    pub fn values(&self) -> Vec<f64> {
        let k = &self.kernel;
        let (exec_p50, exec_p99) = self.added(1);
        let (remote_p50, remote_p99) = self.added(2);
        let (fleet_p50, fleet_p99) = self.added(3);
        let routed_max = self.routed.iter().copied().max().unwrap_or(0) as f64;
        let routed_mean = self.routed.iter().sum::<u64>() as f64 / self.routed.len() as f64;
        vec![
            k.ns_per_cell(0),
            k.ns_per_cell(1),
            k.ns_per_cell(2),
            k.nanos as f64 / k.rounds as f64 / 1e3,
            k.thread_rounds as f64 / k.rounds as f64,
            k.dense_bands as f64 / (k.dense_bands + k.sparse_bands) as f64,
            k.cells() as f64,
            median(&self.runner_build_ms),
            median(&self.topology_build_ms),
            median(&self.seed_materialize_ms),
            exec_p50,
            exec_p99,
            median(&self.queue_wait_us),
            remote_p50,
            remote_p99,
            self.service.bytes as f64 / self.service_jobs as f64,
            self.service.job_requests as f64 / self.service_jobs as f64,
            self.service.hit_frac(),
            median(&self.hit_service_us),
            self.service.evictions as f64,
            fleet_p50,
            fleet_p99,
            routed_max / routed_mean,
            self.reroutes_steals as f64,
            median(&self.construct_ms),
            median(&self.search_instance_s),
            median(&self.verify_us),
            self.traced_makespan_s / self.untraced_makespan_s - 1.0,
        ]
    }
}
