//! The incremental frontier scheduler and the bit-packed two-colour lane.
//!
//! Every local rule (see [`ctori_protocols::LocalRule::is_local`]) has the
//! property that a vertex can only change colour in round `t + 1` if it or
//! one of its neighbours changed in round `t`.  The simulator exploits this
//! by evaluating, after the first full round, **only the candidate set**
//! — last round's changed vertices and their out-neighbours — instead of
//! all `|V|` vertices.  On the paper's workloads (small seed sets spreading
//! through a large torus) the candidate set is a thin moving frontier, so
//! the per-round cost drops from `O(|V|)` to `O(|frontier| · Δ)`.
//!
//! Two pieces live here:
//!
//! * `Worklist` (crate-private) — the round-stamped candidate dedup shared by both state
//!   backends.  Deduplication uses a `Vec<u32>` of round tags instead of a
//!   hash set: marking a vertex is one array compare-and-write, and
//!   clearing between rounds is a single counter increment.
//! * [`PackedFrontier`] — the two-colour fast lane: state as one bit per
//!   vertex in `u64` words, per-vertex up/down flip thresholds, and a
//!   candidate evaluator that counts neighbour bits straight out of the
//!   packed words.  It is the shared substrate of the engine's packed
//!   simulator backend **and** of `ctori_tss::diffusion::spread_on`, which
//!   is a thin wrapper over it.

use ctori_topology::Adjacency;

/// A round-stamped worklist of candidate vertices.
///
/// `mark` is idempotent within a round: a vertex is pushed at most once
/// because its stamp records the round tag of its last insertion.  The
/// first round after construction is always a **full sweep** (every vertex
/// is a candidate — nothing has been evaluated yet); callers may also pin
/// the worklist to full sweeps permanently with [`Worklist::set_always_full`],
/// which is the engine's fallback for non-local rules and the baseline mode
/// of the frontier benchmarks.
#[derive(Clone, Debug)]
pub(crate) struct Worklist {
    current: Vec<u32>,
    next: Vec<u32>,
    stamp: Vec<u32>,
    tag: u32,
    full_pending: bool,
    always_full: bool,
}

impl Worklist {
    pub(crate) fn new(node_count: usize) -> Self {
        Worklist {
            current: Vec::new(),
            next: Vec::new(),
            stamp: vec![0; node_count],
            tag: 0,
            full_pending: true,
            always_full: false,
        }
    }

    /// Pins every future round to a full sweep.
    pub(crate) fn set_always_full(&mut self) {
        self.always_full = true;
    }

    pub(crate) fn always_full(&self) -> bool {
        self.always_full
    }

    /// Whether the round about to be evaluated must visit every vertex.
    pub(crate) fn is_full_round(&self) -> bool {
        self.always_full || self.full_pending
    }

    /// The candidate vertices of the round about to be evaluated (only
    /// meaningful when [`Worklist::is_full_round`] is `false`).
    pub(crate) fn candidates(&self) -> &[u32] {
        &self.current
    }

    /// Opens the collection of next round's candidates.
    pub(crate) fn begin_next(&mut self) {
        self.next.clear();
        // The tag increments once per round; on the (astronomically
        // unlikely) wrap the stamps are reset so no stale tag can collide.
        self.tag = self.tag.wrapping_add(1);
        if self.tag == 0 {
            self.stamp.fill(0);
            self.tag = 1;
        }
    }

    /// Adds `v` to next round's candidates (no-op if already added this
    /// round).
    #[inline]
    pub(crate) fn mark(&mut self, v: u32) {
        let stamp = &mut self.stamp[v as usize];
        if *stamp != self.tag {
            *stamp = self.tag;
            self.next.push(v);
        }
    }

    /// Closes the round: next round's candidates become current.
    pub(crate) fn finish_round(&mut self) {
        std::mem::swap(&mut self.current, &mut self.next);
        self.full_pending = false;
    }
}

/// The bit-packed two-colour frontier stepper.
///
/// State is one bit per vertex ("one" = 1, "zero" = 0) packed into `u64`
/// words; the engine maps a concrete colour pair onto the bits.  Each
/// vertex carries two flip thresholds resolved once at construction (see
/// [`ctori_protocols::TwoStateThreshold::flip_thresholds`]):
///
/// * a zero vertex flips to one when at least `up[v]` of its neighbours
///   are one;
/// * a one vertex flips to zero when at least `down[v]` of its neighbours
///   are zero.
///
/// `u32::MAX` disables a direction (monotone processes).  Stepping is
/// synchronous and incremental: candidates are evaluated against the
/// pre-round state by popcount-style bit gathering over the CSR, flips are
/// applied afterwards, and the flipped vertices plus their out-neighbours
/// become the next candidates.  The adjacency is passed to
/// [`PackedFrontier::step`] rather than owned, so one CSR can serve many
/// concurrent lanes.
#[derive(Clone, Debug)]
pub struct PackedFrontier {
    words: Vec<u64>,
    len: usize,
    up: Vec<u32>,
    down: Vec<u32>,
    worklist: Worklist,
    flips: Vec<u32>,
    ones: usize,
    /// Whether the last step ran the full sweep rather than walking the
    /// candidate list.
    last_full: bool,
    /// Vertices evaluated by the last step.
    last_cells_evaluated: u64,
}

impl PackedFrontier {
    /// Creates an all-zero lane with the given per-vertex flip thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the threshold vectors do not have one entry per vertex.
    pub fn new(node_count: usize, up: Vec<u32>, down: Vec<u32>) -> Self {
        assert_eq!(up.len(), node_count, "one up-threshold per vertex");
        assert_eq!(down.len(), node_count, "one down-threshold per vertex");
        PackedFrontier {
            words: vec![0u64; node_count.div_ceil(64)],
            len: node_count,
            up,
            down,
            worklist: Worklist::new(node_count),
            flips: Vec::new(),
            ones: 0,
            last_full: false,
            last_cells_evaluated: 0,
        }
    }

    /// `(dense rounds, sparse rounds, cells evaluated)` of the last step:
    /// exactly one of the first two is 1.
    pub(crate) fn last_step_profile(&self) -> (u32, u32, u64) {
        let full = u32::from(self.last_full);
        (full, 1 - full, self.last_cells_evaluated)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the lane has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets vertex `v` to one (seeding; call before the first step).
    pub fn set_one(&mut self, v: usize) {
        assert!(v < self.len, "vertex out of range");
        let mask = 1u64 << (v & 63);
        let word = &mut self.words[v >> 6];
        if *word & mask == 0 {
            *word |= mask;
            self.ones += 1;
        }
    }

    /// Whether vertex `v` is currently one.
    #[inline]
    pub fn is_one(&self, v: usize) -> bool {
        (self.words[v >> 6] >> (v & 63)) & 1 == 1
    }

    /// Number of one-valued vertices.
    pub fn ones(&self) -> usize {
        self.ones
    }

    /// The vertices flipped by the last [`PackedFrontier::step`] call.
    pub fn flips(&self) -> &[u32] {
        &self.flips
    }

    /// Pins every future round to a full sweep (the benchmark baseline and
    /// the fallback for non-local rules).
    pub fn set_always_full(&mut self) {
        self.worklist.set_always_full();
    }

    /// The packed state words (bit `v & 63` of word `v >> 6` is vertex
    /// `v`); trailing bits beyond `len` are zero.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    #[inline]
    fn bit(words: &[u64], v: u32) -> u32 {
        ((words[(v >> 6) as usize] >> (v & 63)) & 1) as u32
    }

    /// Decides whether candidate `v` flips, evaluating against the
    /// pre-round words.
    #[inline]
    fn evaluate(&self, adjacency: &Adjacency, v: u32) -> bool {
        let neighbors = adjacency.neighbors_raw(v as usize);
        // Gather the neighbour bits into a word and popcount it: for the
        // paper's degree-4 tori this is four shifts, an OR-accumulate and
        // one count_ones, with no colour comparisons at all.
        let ones = if neighbors.len() <= 64 {
            let mut gathered = 0u64;
            for (i, &u) in neighbors.iter().enumerate() {
                gathered |= u64::from(Self::bit(&self.words, u)) << i;
            }
            gathered.count_ones()
        } else {
            // Hubs beyond 64 neighbours (general TSS graphs) fall back to
            // an additive count.
            neighbors
                .iter()
                .map(|&u| Self::bit(&self.words, u))
                .sum::<u32>()
        };
        if Self::bit(&self.words, v) == 0 {
            ones >= self.up[v as usize]
        } else {
            let zeros = neighbors.len() as u32 - ones;
            zeros >= self.down[v as usize]
        }
    }

    /// Executes one synchronous round and returns the number of flips.
    ///
    /// The first round after construction evaluates every vertex; later
    /// rounds evaluate only the frontier candidates.  The flipped vertices
    /// are available through [`PackedFrontier::flips`] until the next step.
    pub fn step(&mut self, adjacency: &Adjacency) -> usize {
        assert_eq!(
            adjacency.node_count(),
            self.len,
            "adjacency does not match the lane"
        );
        self.flips.clear();
        let full = self.worklist.is_full_round();
        self.last_cells_evaluated = if full {
            self.len as u64
        } else {
            self.worklist.candidates().len() as u64
        };
        self.last_full = full;
        // The worklist's candidate list is read while `evaluate` only
        // touches the packed words, so iterate by index to keep the
        // borrows disjoint.
        if full {
            for v in 0..self.len as u32 {
                if self.evaluate(adjacency, v) {
                    self.flips.push(v);
                }
            }
        } else {
            for i in 0..self.worklist.candidates().len() {
                let v = self.worklist.candidates()[i];
                if self.evaluate(adjacency, v) {
                    self.flips.push(v);
                }
            }
        }
        // Apply after evaluating everything: synchronous semantics.
        for &v in &self.flips {
            let mask = 1u64 << (v & 63);
            let word = &mut self.words[(v >> 6) as usize];
            if *word & mask == 0 {
                self.ones += 1;
            } else {
                self.ones -= 1;
            }
            *word ^= mask;
        }
        self.worklist.begin_next();
        if !self.worklist.always_full() {
            for i in 0..self.flips.len() {
                let v = self.flips[i];
                self.worklist.mark(v);
                for &u in adjacency.neighbors_raw(v as usize) {
                    self.worklist.mark(u);
                }
            }
        }
        self.worklist.finish_round();
        self.flips.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_topology::{toroidal_mesh, Graph, NodeId};

    const NEVER: u32 = u32::MAX;

    #[test]
    fn threshold_one_sweeps_a_path() {
        let mut g = Graph::with_nodes(5);
        for i in 0..4 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1));
        }
        let adjacency = Adjacency::build(&g);
        let mut lane = PackedFrontier::new(5, vec![1; 5], vec![NEVER; 5]);
        lane.set_one(0);
        let mut rounds = 0;
        while lane.step(&adjacency) > 0 {
            rounds += 1;
            assert_eq!(lane.flips().len(), 1, "one vertex activates per round");
        }
        assert_eq!(rounds, 4);
        assert_eq!(lane.ones(), 5);
        assert!((0..5).all(|v| lane.is_one(v)));
    }

    #[test]
    fn frontier_and_full_sweep_agree() {
        let t = toroidal_mesh(8, 9);
        let adjacency = Adjacency::from_torus(&t);
        let n = adjacency.node_count();
        // Strict-majority flip thresholds in both directions (two-colour
        // SMP): seed a 3x3 block and step both schedulers in lockstep.
        let build = |always_full: bool| {
            let mut lane = PackedFrontier::new(n, vec![3; n], vec![3; n]);
            for r in 2..5 {
                for c in 2..5 {
                    lane.set_one(r * 9 + c);
                }
            }
            if always_full {
                lane.set_always_full();
            }
            lane
        };
        let mut frontier = build(false);
        let mut full = build(true);
        for round in 0..20 {
            let a = frontier.step(&adjacency);
            let b = full.step(&adjacency);
            assert_eq!(a, b, "flip counts diverge at round {round}");
            assert_eq!(
                frontier.words(),
                full.words(),
                "states diverge at round {round}"
            );
        }
    }

    #[test]
    fn zero_threshold_fires_on_the_first_full_round() {
        let g = Graph::with_nodes(3);
        let adjacency = Adjacency::build(&g);
        let mut lane = PackedFrontier::new(3, vec![0; 3], vec![NEVER; 3]);
        assert_eq!(lane.step(&adjacency), 3, "everything self-activates");
        assert_eq!(lane.step(&adjacency), 0);
    }

    #[test]
    fn down_thresholds_erode_isolated_ones() {
        let t = toroidal_mesh(6, 6);
        let adjacency = Adjacency::from_torus(&t);
        let n = adjacency.node_count();
        let mut lane = PackedFrontier::new(n, vec![3; n], vec![3; n]);
        lane.set_one(14); // a lone one: 4 zero neighbours >= 3, it flips back
        assert_eq!(lane.step(&adjacency), 1);
        assert_eq!(lane.ones(), 0);
        assert_eq!(lane.flips(), &[14]);
        // Nothing left to do: the frontier drains.
        assert_eq!(lane.step(&adjacency), 0);
    }
}
