//! Exhaustive search for minimum monotone dynamos on small tori.
//!
//! The lower bounds of Theorems 1, 3 and 5 state that *no* initial
//! configuration with fewer than the bound's number of `k`-coloured
//! vertices can be a monotone dynamo — over all placements of the seed
//! *and* all colourings of the remaining vertices.  On small tori this is
//! directly checkable: enumerate seed placements, enumerate fillers over
//! `C \ {k}`, and simulate.  Two seed conditions prune the enumeration
//! drastically:
//!
//! * Lemma 1 — the bounding rectangle of a dynamo must span at least
//!   `(m−1) × (n−1)`;
//! * the block condition — the seed is a union of `k`-blocks (every seed
//!   vertex has at least two seed neighbours).  This is *sufficient* for
//!   the seed to keep colour `k` under SMP, but it is **not necessary**
//!   for a monotone dynamo: on the 3×4 toroidal mesh the 5-vertex
//!   Theorem-2 seed is a monotone dynamo although vertex (0,2) has one
//!   seed neighbour (its three other neighbours carry pairwise distinct
//!   colours, so no colour outvotes `k`).  Pruning with it
//!   (`prune_blocks`) can therefore miss dynamos, and every "no dynamo
//!   below the bound" answer of [`verify_lower_bound`] rests on it.  It is
//!   kept because without it every seed needs `(|C|−1)^{mn−s}` fillers.
//!
//! Seeds are streamed in lexicographic order: the search fans out once
//! over the sweep pool, one unit per first seed member, and each unit
//! walks its subsets with incrementally maintained row/column
//! occupancy and seed-neighbour counts, so both conditions cost O(1) per
//! subset and the walk allocates nothing per subset.  Only seeds passing
//! them reach filler enumeration and simulation.  The witness returned is
//! the first dynamo in lexicographic seed order, then filler order.
//!
//! The searches stay exponential, of course; they are meant for the
//! `3×3 … 6×6`-scale instances used by the `thm1`/`thm3`/`thm5`/`prop3`
//! experiments and the corresponding benches.

use crate::dynamo::verify_dynamo;
use ctori_coloring::{Color, Coloring, Palette};
use ctori_engine::parallel_runs;
use ctori_topology::{NodeId, Topology, Torus};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options controlling the exhaustive search.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// The colour set `C` (the target colour `k` must belong to it).
    pub palette: Palette,
    /// Require the dynamo to be monotone (the paper's setting).  When
    /// `false`, any dynamo is accepted.
    pub require_monotone: bool,
    /// Apply the Lemma-1 bounding-rectangle pruning.
    pub prune_rectangle: bool,
    /// Apply the union-of-`k`-blocks pruning (only applied when
    /// `require_monotone` is set).  Not a necessary condition for a
    /// monotone dynamo — see the module documentation.
    pub prune_blocks: bool,
}

impl SearchConfig {
    /// The default configuration used by the experiments: monotone dynamos
    /// with both prunings enabled.
    pub fn monotone(palette: Palette) -> Self {
        SearchConfig {
            palette,
            require_monotone: true,
            prune_rectangle: true,
            prune_blocks: true,
        }
    }
}

/// Result of an exhaustive search over seeds of a fixed size.
#[derive(Clone, Debug)]
pub enum SearchOutcome {
    /// A dynamo of the given seed size exists; an example configuration
    /// and its convergence time are returned.
    Found {
        /// Seed size of the example.
        size: usize,
        /// The witnessing initial configuration.
        example: Coloring,
        /// Rounds it needed to become monochromatic.
        rounds: usize,
    },
    /// No dynamo with a seed of the given size exists (for the given
    /// palette).
    NoneOfSize(usize),
}

impl SearchOutcome {
    /// Whether a dynamo was found.
    pub fn found(&self) -> bool {
        matches!(self, SearchOutcome::Found { .. })
    }
}

/// Lexicographic walk over the `size`-subsets of `0..n` whose leading
/// members are a fixed prefix.
struct SubsetWalk {
    members: Vec<usize>,
    n: usize,
    fixed: usize,
}

impl SubsetWalk {
    /// The first `size`-subset of `0..n` starting with `prefix` (strictly
    /// increasing), or `None` if there is none.
    fn starting_with(n: usize, size: usize, prefix: &[usize]) -> Option<Self> {
        if prefix.len() > size || size > n {
            return None;
        }
        let mut members = Vec::with_capacity(size);
        members.extend_from_slice(prefix);
        let mut next = prefix.last().map_or(0, |&last| last + 1);
        while members.len() < size {
            members.push(next);
            next += 1;
        }
        members
            .last()
            .is_none_or(|&last| last < n)
            .then_some(SubsetWalk {
                members,
                n,
                fixed: prefix.len(),
            })
    }

    /// The current subset, in increasing order.
    fn members(&self) -> &[usize] {
        &self.members
    }

    /// Position of the member the next step increments, or `None` after
    /// the last subset with this prefix.
    fn pivot(&self) -> Option<usize> {
        let size = self.members.len();
        (self.fixed..size)
            .rev()
            .find(|&i| self.members[i] < i + self.n - size)
    }

    /// Steps to the next subset: increments member `pivot` and resets the
    /// members after it to their smallest values.
    fn bump(&mut self, pivot: usize) {
        self.members[pivot] += 1;
        for j in pivot + 1..self.members.len() {
            self.members[j] = self.members[j - 1] + 1;
        }
    }
}

/// Per-vertex data the seed conditions read, taken once per search.
struct SeedGraph {
    row_of: Vec<usize>,
    col_of: Vec<usize>,
    rows: usize,
    cols: usize,
    /// `watchers[watch_start[u]..watch_start[u + 1]]` are the vertices
    /// whose neighbour list contains `u`, once per occurrence.
    watch_start: Vec<usize>,
    watchers: Vec<usize>,
}

impl SeedGraph {
    fn new(torus: &Torus) -> Self {
        let total = torus.node_count();
        let (row_of, col_of) = (0..total)
            .map(|v| {
                let c = torus.coord(NodeId::new(v));
                (c.row, c.col)
            })
            .unzip();
        let mut watch_start = vec![0usize; total + 1];
        for v in 0..total {
            torus.for_each_neighbor(NodeId::new(v), &mut |u| watch_start[u.index() + 1] += 1);
        }
        for u in 0..total {
            watch_start[u + 1] += watch_start[u];
        }
        let mut fill = watch_start.clone();
        let mut watchers = vec![0usize; watch_start[total]];
        for v in 0..total {
            torus.for_each_neighbor(NodeId::new(v), &mut |u| {
                watchers[fill[u.index()]] = v;
                fill[u.index()] += 1;
            });
        }
        SeedGraph {
            row_of,
            col_of,
            rows: torus.rows(),
            cols: torus.cols(),
            watch_start,
            watchers,
        }
    }

    fn watchers_of(&self, u: usize) -> &[usize] {
        &self.watchers[self.watch_start[u]..self.watch_start[u + 1]]
    }
}

/// Occupancy of the lines (rows or columns) of one torus dimension.
struct LineOccupancy {
    count: Vec<usize>,
    /// Cyclically adjacent pairs `(i, i + 1)` of empty lines.
    empty_pairs: usize,
}

impl LineOccupancy {
    fn new(len: usize) -> Self {
        LineOccupancy {
            count: vec![0; len],
            empty_pairs: len,
        }
    }

    /// Empty lines among the two cyclic neighbours of `line` (the same
    /// line twice when the cycle has length 2).
    fn empty_beside(&self, line: usize) -> usize {
        let last = self.count.len() - 1;
        let before = if line == 0 { last } else { line - 1 };
        let after = if line == last { 0 } else { line + 1 };
        usize::from(self.count[before] == 0) + usize::from(self.count[after] == 0)
    }

    fn add(&mut self, line: usize) {
        if self.count[line] == 0 {
            self.empty_pairs -= self.empty_beside(line);
        }
        self.count[line] += 1;
    }

    fn remove(&mut self, line: usize) {
        self.count[line] -= 1;
        if self.count[line] == 0 {
            self.empty_pairs += self.empty_beside(line);
        }
    }

    /// Whether the minimal cyclic cover spans at least `len − 1` lines,
    /// i.e. no two cyclically adjacent lines are empty — the
    /// largest-empty-gap rule of [`ctori_topology::bounding_rectangle`].
    fn spans_all_but_one(&self) -> bool {
        self.empty_pairs == 0
    }
}

/// A seed under construction, with the counts both seed conditions read
/// maintained incrementally.
struct SeedState<'g> {
    graph: &'g SeedGraph,
    member: Vec<bool>,
    /// Per vertex: entries of its neighbour list that are seed vertices.
    seed_neighbors: Vec<u32>,
    /// Seed vertices with fewer than two seed neighbours.
    lonely: usize,
    size: usize,
    rows: LineOccupancy,
    cols: LineOccupancy,
}

impl<'g> SeedState<'g> {
    fn new(graph: &'g SeedGraph) -> Self {
        let total = graph.row_of.len();
        SeedState {
            graph,
            member: vec![false; total],
            seed_neighbors: vec![0; total],
            lonely: 0,
            size: 0,
            rows: LineOccupancy::new(graph.rows),
            cols: LineOccupancy::new(graph.cols),
        }
    }

    fn insert(&mut self, v: usize) {
        self.member[v] = true;
        self.size += 1;
        self.lonely += usize::from(self.seed_neighbors[v] < 2);
        for &w in self.graph.watchers_of(v) {
            self.seed_neighbors[w] += 1;
            if self.member[w] && self.seed_neighbors[w] == 2 {
                self.lonely -= 1;
            }
        }
        self.rows.add(self.graph.row_of[v]);
        self.cols.add(self.graph.col_of[v]);
    }

    fn remove(&mut self, v: usize) {
        for &w in self.graph.watchers_of(v) {
            if self.member[w] && self.seed_neighbors[w] == 2 {
                self.lonely += 1;
            }
            self.seed_neighbors[w] -= 1;
        }
        self.lonely -= usize::from(self.seed_neighbors[v] < 2);
        self.size -= 1;
        self.member[v] = false;
        self.rows.remove(self.graph.row_of[v]);
        self.cols.remove(self.graph.col_of[v]);
    }

    /// Lemma 1: the bounding rectangle spans at least `(m−1) × (n−1)`.
    fn spans_lemma1_rectangle(&self) -> bool {
        self.rows.spans_all_but_one() && self.cols.spans_all_but_one()
    }

    /// The block condition: the seed is non-empty and every seed vertex
    /// has at least two seed neighbours, counted with multiplicity — the
    /// same answer as [`crate::blocks::seed_is_union_of_k_blocks`] on the
    /// seed coloured `k` against one other colour.
    fn is_union_of_k_blocks(&self) -> bool {
        self.size > 0 && self.lonely == 0
    }
}

/// The fan-out units of a `size`-seed search over `total` vertices: the
/// possible first members as one-member prefixes, in increasing order (the
/// empty prefix alone for the empty seed).  The units are uneven — the
/// first holds `size/total` of all subsets — but the sweep pool hands them
/// out in this order, largest first.
fn seed_prefixes(total: usize, size: usize) -> Vec<Vec<usize>> {
    match (size, total.checked_sub(size)) {
        (_, None) => Vec::new(),
        (0, Some(_)) => vec![Vec::new()],
        (_, Some(spare)) => (0..=spare).map(|first| vec![first]).collect(),
    }
}

/// Enumerates every filler of the `free` cells over `colors`, invoking the
/// callback until it returns `true` ("stop, found").  Returns the
/// configuration for which the callback stopped, if any.
fn enumerate_fillers(
    base: &Coloring,
    free: &[NodeId],
    colors: &[Color],
    mut callback: impl FnMut(&Coloring) -> bool,
) -> Option<Coloring> {
    if colors.is_empty() {
        // Nothing to fill with: only valid if there is nothing to fill.
        if free.is_empty() {
            let candidate = base.clone();
            return callback(&candidate).then_some(candidate);
        }
        return None;
    }
    let mut digits = vec![0usize; free.len()];
    let mut candidate = base.clone();
    loop {
        for (slot, &v) in free.iter().enumerate() {
            candidate.set(v, colors[digits[slot]]);
        }
        if callback(&candidate) {
            return Some(candidate);
        }
        // increment mixed-radix counter
        let mut pos = 0;
        loop {
            if pos == digits.len() {
                return None;
            }
            digits[pos] += 1;
            if digits[pos] < colors.len() {
                break;
            }
            digits[pos] = 0;
            pos += 1;
        }
    }
}

/// Searches for a (monotone) dynamo with exactly `seed_size` `k`-coloured
/// vertices.
pub fn search_dynamo_of_size(
    torus: &Torus,
    k: Color,
    seed_size: usize,
    config: &SearchConfig,
) -> SearchOutcome {
    assert!(config.palette.contains(k), "palette must contain k");
    let total = torus.node_count();
    let non_k: Vec<Color> = config.palette.colors_except(k).collect();

    if seed_size > total {
        return SearchOutcome::NoneOfSize(seed_size);
    }
    let check_rectangle = config.prune_rectangle;
    // With no colour besides `k` the block probe is all `k`, which always
    // passes.
    let check_blocks = config.prune_blocks && config.require_monotone && !non_k.is_empty();
    let graph = SeedGraph::new(torus);
    let units: Vec<(usize, Vec<usize>)> = seed_prefixes(total, seed_size)
        .into_iter()
        .enumerate()
        .collect();
    // Lowest unit holding a witness so far: later units cannot supply the
    // first one in seed order, so they stop early.  `Relaxed` suffices: it
    // is only a skip hint, and results come back through the pool's join.
    let first_hit = AtomicUsize::new(usize::MAX);

    let results: Vec<Option<(Coloring, usize)>> = parallel_runs(units, |(unit, prefix)| {
        let mut walk = SubsetWalk::starting_with(total, seed_size, prefix)?;
        let mut seed = SeedState::new(&graph);
        for &v in walk.members() {
            seed.insert(v);
        }
        loop {
            if first_hit.load(Ordering::Relaxed) < *unit {
                return None;
            }
            if (!check_rectangle || seed.spans_lemma1_rectangle())
                && (!check_blocks || seed.is_union_of_k_blocks())
            {
                if let Some(found) = search_fillers(torus, k, walk.members(), &non_k, config) {
                    first_hit.fetch_min(*unit, Ordering::Relaxed);
                    return Some(found);
                }
            }
            let pivot = walk.pivot()?;
            for &v in &walk.members()[pivot..] {
                seed.remove(v);
            }
            walk.bump(pivot);
            for &v in &walk.members()[pivot..] {
                seed.insert(v);
            }
        }
    });

    if let Some((example, rounds)) = results.into_iter().flatten().next() {
        return SearchOutcome::Found {
            size: seed_size,
            example,
            rounds,
        };
    }
    SearchOutcome::NoneOfSize(seed_size)
}

/// Tries every filler of the vertices outside `seed` and returns the first
/// (monotone) dynamo with its round count.
fn search_fillers(
    torus: &Torus,
    k: Color,
    seed: &[usize],
    non_k: &[Color],
    config: &SearchConfig,
) -> Option<(Coloring, usize)> {
    // Base configuration: seed cells are k, the rest unset.
    let mut base = Coloring::uniform_dims(torus.rows(), torus.cols(), Color::UNSET);
    for &i in seed {
        base.set(NodeId::new(i), k);
    }
    let free: Vec<NodeId> = (0..torus.node_count())
        .map(NodeId::new)
        .filter(|&v| base.get(v).is_unset())
        .collect();
    let mut witness_rounds = 0usize;
    let witness = enumerate_fillers(&base, &free, non_k, |candidate| {
        let report = verify_dynamo(torus, candidate, k);
        let ok = if config.require_monotone {
            report.is_monotone_dynamo()
        } else {
            report.is_dynamo()
        };
        if ok {
            witness_rounds = report.rounds;
        }
        ok
    });
    witness.map(|w| (w, witness_rounds))
}

/// Searches seed sizes `1..=max_size` in increasing order and returns the
/// first size admitting a (monotone) dynamo, together with a witness.
pub fn search_minimum_monotone_dynamo(
    torus: &Torus,
    k: Color,
    config: &SearchConfig,
    max_size: usize,
) -> SearchOutcome {
    for size in 1..=max_size {
        let outcome = search_dynamo_of_size(torus, k, size, config);
        if outcome.found() {
            return outcome;
        }
    }
    SearchOutcome::NoneOfSize(max_size)
}

/// Convenience used by the lower-bound experiments: verifies that no
/// monotone dynamo with fewer than `bound` seed vertices exists, as far as
/// the search of [`SearchConfig::monotone`] can see — its block pruning is
/// not a necessary condition (see the module documentation).
pub fn verify_lower_bound(torus: &Torus, k: Color, palette: Palette, bound: usize) -> bool {
    if bound <= 1 {
        return true;
    }
    let config = SearchConfig::monotone(palette);
    !search_minimum_monotone_dynamo(torus, k, &config, bound - 1).found()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::seed_is_union_of_k_blocks;
    use crate::bounds;
    use crate::construct::minimum_dynamo;
    use ctori_topology::{
        bounding_rectangle, toroidal_mesh, torus_cordalis, Coord, NodeSet, TorusKind,
    };
    use proptest::prelude::*;

    const KINDS: [TorusKind; 3] = [
        TorusKind::ToroidalMesh,
        TorusKind::TorusCordalis,
        TorusKind::TorusSerpentinus,
    ];

    fn k() -> Color {
        Color::new(1)
    }

    /// All `size`-subsets of `0..n` in lexicographic order, materialised
    /// by a separate counter: the reference for [`SubsetWalk`].
    fn combinations(n: usize, size: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        if size > n {
            return out;
        }
        let mut idx: Vec<usize> = (0..size).collect();
        loop {
            out.push(idx.clone());
            let mut i = size;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if idx[i] != i + n - size {
                    break;
                }
                if i == 0 {
                    return out;
                }
            }
            idx[i] += 1;
            for j in i + 1..size {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }

    fn walk_all(n: usize, size: usize, prefix: &[usize]) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let Some(mut walk) = SubsetWalk::starting_with(n, size, prefix) else {
            return out;
        };
        loop {
            out.push(walk.members().to_vec());
            let Some(pivot) = walk.pivot() else {
                return out;
            };
            walk.bump(pivot);
        }
    }

    fn binomial(n: usize, r: usize) -> usize {
        if r > n {
            return 0;
        }
        (0..r).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    /// Lemma 1 through `bounding_rectangle`: the reference for the
    /// incremental line occupancy.
    fn reference_lemma1(torus: &Torus, seed: &[usize]) -> bool {
        let set = NodeSet::from_iter(torus.node_count(), seed.iter().map(|&i| NodeId::new(i)));
        let rect = bounding_rectangle(torus, &set);
        rect.m_f() + 1 >= torus.rows() && rect.n_f() + 1 >= torus.cols()
    }

    /// The block condition through a peeled probe colouring (the seed
    /// coloured `k`, everything else one other colour): the reference for
    /// the incremental seed-neighbour counts.
    fn reference_blocks(torus: &Torus, seed: &[usize]) -> bool {
        let mut probe = Coloring::uniform_dims(torus.rows(), torus.cols(), Color::new(2));
        for &i in seed {
            probe.set(NodeId::new(i), k());
        }
        seed_is_union_of_k_blocks(torus, &probe, k())
    }

    fn assert_conditions_match(torus: &Torus, state: &SeedState<'_>, seed: &[usize]) {
        assert_eq!(
            state.spans_lemma1_rectangle(),
            reference_lemma1(torus, seed),
            "Lemma 1 on {torus}, seed {seed:?}"
        );
        assert_eq!(
            state.is_union_of_k_blocks(),
            reference_blocks(torus, seed),
            "block condition on {torus}, seed {seed:?}"
        );
    }

    #[test]
    fn subset_walk_matches_the_combinations_oracle() {
        for n in 0..=12 {
            for size in 0..=n + 1 {
                let walked = walk_all(n, size, &[]);
                assert_eq!(walked.len(), binomial(n, size), "C({n}, {size})");
                assert_eq!(walked, combinations(n, size), "order of C({n}, {size})");
            }
        }
        assert!(SubsetWalk::starting_with(5, 2, &[4]).is_none());
        assert!(SubsetWalk::starting_with(5, 1, &[0, 1]).is_none());
    }

    #[test]
    fn fan_out_units_partition_the_walk() {
        for (n, sizes) in [(9, 0..=9), (12, 0..=6), (40, 0..=3)] {
            for size in sizes {
                let units: Vec<Vec<usize>> = seed_prefixes(n, size)
                    .iter()
                    .flat_map(|prefix| {
                        let part = walk_all(n, size, prefix);
                        assert!(!part.is_empty(), "empty unit {prefix:?} of C({n}, {size})");
                        part
                    })
                    .collect();
                assert_eq!(units, walk_all(n, size, &[]), "units of C({n}, {size})");
            }
        }
        assert!(seed_prefixes(4, 5).is_empty());
    }

    #[test]
    fn seed_conditions_match_the_reference_on_every_small_seed() {
        for kind in KINDS {
            // Two-line tori repeat neighbours, so multiplicities are
            // exercised too.
            for (m, n) in [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3)] {
                let torus = Torus::new(kind, m, n);
                let graph = SeedGraph::new(&torus);
                for size in 0..=5.min(m * n) {
                    // Drive the walk exactly as the search does, so the
                    // incremental removals are checked too.
                    let mut walk = SubsetWalk::starting_with(m * n, size, &[]).unwrap();
                    let mut state = SeedState::new(&graph);
                    for &v in walk.members() {
                        state.insert(v);
                    }
                    loop {
                        assert_conditions_match(&torus, &state, walk.members());
                        let Some(pivot) = walk.pivot() else { break };
                        for &v in &walk.members()[pivot..] {
                            state.remove(v);
                        }
                        walk.bump(pivot);
                        for &v in &walk.members()[pivot..] {
                            state.insert(v);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]
        #[test]
        fn seed_conditions_match_the_reference_on_random_seeds(
            kind in 0usize..3,
            dims in 0usize..3,
            density in 1u64..9,
            picks in prop::collection::vec(0u64..16, 36),
            drops in prop::collection::vec(0u64..16, 36),
        ) {
            let (m, n) = [(5, 5), (6, 6), (7, 5)][dims];
            let torus = Torus::new(KINDS[kind], m, n);
            let graph = SeedGraph::new(&torus);
            let mut state = SeedState::new(&graph);
            let mut seed: Vec<usize> = (0..m * n).filter(|&v| picks[v] < density).collect();
            for &v in &seed {
                state.insert(v);
            }
            assert_conditions_match(&torus, &state, &seed);
            // Remove a few again, out of insertion order.
            for &v in seed.iter().rev().filter(|&&v| drops[v] < 3) {
                state.remove(v);
            }
            seed.retain(|&v| drops[v] >= 3);
            assert_conditions_match(&torus, &state, &seed);
        }
    }

    /// The block condition is not necessary for a monotone dynamo: the
    /// Theorem-2 seed on the 3×4 mesh has a vertex with one seed neighbour
    /// and three pairwise distinct non-`k` neighbours, which never sees a
    /// colour outvote `k`.
    #[test]
    fn block_condition_rejects_a_minimum_dynamo_on_the_3x4_mesh() {
        let (m, n) = (3, 4);
        let torus = toroidal_mesh(m, n);
        for c in 1..=4 {
            let k = Color::new(c);
            let built = minimum_dynamo(TorusKind::ToroidalMesh, m, n, k).unwrap();
            assert_eq!(built.seed_size(), m + n - 2);
            assert!(verify_dynamo(&torus, built.coloring(), k).is_monotone_dynamo());
            assert!(!seed_is_union_of_k_blocks(&torus, built.coloring(), k));
            let lonely = Coord::new(0, 2);
            assert_eq!(built.coloring().get_coord(&torus, lonely), k);
            let seed_neighbors = torus
                .neighbor_coords(lonely)
                .iter()
                .filter(|&&c| built.coloring().get_coord(&torus, c) == k)
                .count();
            assert_eq!(seed_neighbors, 1);
        }
    }

    /// The six searches of the `minimum_dynamo_search` example, with the
    /// size, witness and round count the materialising search returned.
    #[test]
    fn minimum_searches_return_the_recorded_witnesses() {
        let golden = [
            (TorusKind::ToroidalMesh, 3, 3, 4, 3, "113112322"),
            (TorusKind::ToroidalMesh, 3, 4, 6, 2, "111111323222"),
            (TorusKind::TorusCordalis, 3, 3, 4, 2, "111123222"),
            (TorusKind::TorusCordalis, 3, 4, 5, 3, "111113232222"),
            (TorusKind::TorusSerpentinus, 4, 3, 4, 4, "331131123222"),
            (TorusKind::TorusSerpentinus, 3, 3, 3, 4, "114322321"),
        ];
        let config = SearchConfig::monotone(Palette::new(4));
        for (kind, m, n, want_size, want_rounds, cells) in golden {
            let torus = Torus::new(kind, m, n);
            let bound = bounds::lower_bound(kind, m, n);
            match search_minimum_monotone_dynamo(&torus, k(), &config, bound + 1) {
                SearchOutcome::Found {
                    size,
                    example,
                    rounds,
                } => {
                    let got: String = example
                        .cells()
                        .iter()
                        .map(|c| c.index().to_string())
                        .collect();
                    assert_eq!((size, rounds), (want_size, want_rounds), "{torus}");
                    assert_eq!(got, cells, "{torus}");
                }
                SearchOutcome::NoneOfSize(max) => panic!("{torus}: none up to {max}"),
            }
        }
    }

    #[test]
    fn degenerate_seed_sizes_do_not_panic() {
        let torus = toroidal_mesh(3, 3);
        let config = SearchConfig::monotone(Palette::new(4));
        for size in [0, 10, 100] {
            assert!(!search_dynamo_of_size(&torus, k(), size, &config).found());
        }
        // The whole torus as seed is trivially a dynamo.
        assert!(search_dynamo_of_size(&torus, k(), 9, &config).found());
        // With `k` the only colour the block probe always passes, so only a
        // full seed can be completed.
        let lone = SearchConfig::monotone(Palette::new(1));
        assert!(!search_dynamo_of_size(&torus, k(), 8, &lone).found());
        assert!(search_dynamo_of_size(&torus, k(), 9, &lone).found());
    }

    #[test]
    fn no_monotone_dynamo_below_theorem1_bound_on_3x3() {
        // Theorem 1: the bound for a 3x3 toroidal mesh is 3 + 3 - 2 = 4.
        let t = toroidal_mesh(3, 3);
        let palette = Palette::new(4);
        assert!(
            verify_lower_bound(&t, k(), palette, bounds::toroidal_mesh_lower_bound(3, 3)),
            "no monotone dynamo of size < 4 may exist on the 3x3 mesh"
        );
    }

    #[test]
    fn a_dynamo_of_the_bound_size_exists_on_3x3() {
        let t = toroidal_mesh(3, 3);
        let config = SearchConfig::monotone(Palette::new(4));
        let outcome = search_dynamo_of_size(&t, k(), 4, &config);
        assert!(outcome.found(), "a monotone dynamo of size 4 exists on 3x3");
        if let SearchOutcome::Found {
            example, rounds, ..
        } = outcome
        {
            assert_eq!(example.count(k()), 4);
            assert!(rounds >= 1);
            let report = verify_dynamo(&t, &example, k());
            assert!(report.is_monotone_dynamo());
        }
    }

    #[test]
    fn cordalis_bound_is_tight_on_3x3() {
        // Theorem 3: bound n + 1 = 4 on a 3x3 cordalis.
        let t = torus_cordalis(3, 3);
        let palette = Palette::new(4);
        assert!(verify_lower_bound(
            &t,
            k(),
            palette,
            bounds::lower_bound(TorusKind::TorusCordalis, 3, 3)
        ));
        let config = SearchConfig::monotone(Palette::new(4));
        assert!(search_dynamo_of_size(&t, k(), 4, &config).found());
    }

    #[test]
    fn two_colors_admit_no_small_monotone_dynamo_on_3x3() {
        // Proposition 3 / Remark 1: with only two colours the minimum-size
        // dynamo of size m+n-2 cannot exist (three colours are needed when
        // min(m,n) = 3).
        let t = toroidal_mesh(3, 3);
        let config = SearchConfig::monotone(Palette::bicolor());
        let outcome = search_minimum_monotone_dynamo(&t, Color::new(2), &config, 4);
        assert!(
            !outcome.found(),
            "two colours cannot produce a monotone dynamo of size <= 4 on 3x3"
        );
    }

    #[test]
    fn search_outcome_accessors() {
        let o = SearchOutcome::NoneOfSize(3);
        assert!(!o.found());
    }
}
