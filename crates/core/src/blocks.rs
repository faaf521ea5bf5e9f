//! `k`-blocks and non-`k`-blocks (Definitions 4 and 5 of the paper).
//!
//! * A **`k`-block** `B^k` is a connected set of `k`-coloured vertices each
//!   of which has at least two neighbours inside the block.  Under the
//!   SMP-Protocol such vertices can never change colour: at worst they see
//!   a 2–2 tie, which leaves them unchanged.
//! * A **non-`k`-block** `NB^k` is a connected set of vertices coloured
//!   from `C \ {k}`, each of which has at least three neighbours inside the
//!   set.  Such vertices have at most one `k`-coloured neighbour, so they
//!   can never adopt `k`; the existence of a non-`k`-block therefore rules
//!   out convergence to the `k`-monochromatic configuration.
//!
//! The maximal blocks are found by the standard core-peeling argument:
//! repeatedly delete vertices with fewer than the required number of
//! neighbours still in the candidate set; the connected components of what
//! remains are the maximal blocks, and every block (maximal or not) is a
//! subset of one of them.

use ctori_coloring::{Color, Coloring};
use ctori_topology::{induced_components, NodeId, NodeSet, Topology, Torus};

/// Peels `candidates` down to its maximal subset in which every vertex has
/// at least `min_internal` neighbours inside the subset.
fn peel_to_core<T: Topology + ?Sized>(
    topology: &T,
    candidates: &NodeSet,
    min_internal: usize,
) -> NodeSet {
    let mut core = candidates.clone();
    let mut queue: Vec<NodeId> = core.iter().collect();
    while let Some(v) = queue.pop() {
        if !core.contains(v) {
            continue;
        }
        let mut internal = 0usize;
        topology.for_each_neighbor(v, &mut |u| {
            if core.contains(u) {
                internal += 1;
            }
        });
        if internal < min_internal {
            core.remove(v);
            // Removing v may invalidate its neighbours.
            topology.for_each_neighbor(v, &mut |u| {
                if core.contains(u) {
                    queue.push(u);
                }
            });
        }
    }
    core
}

/// Splits a peeled core into its connected components (the maximal blocks).
fn core_components<T: Topology + ?Sized>(topology: &T, core: &NodeSet) -> Vec<NodeSet> {
    let comps = induced_components(topology, core);
    let mut blocks: Vec<NodeSet> = (0..comps.count)
        .map(|_| NodeSet::new(topology.node_count()))
        .collect();
    for v in core.iter() {
        if let Some(c) = comps.component_of(v) {
            blocks[c].insert(v);
        }
    }
    blocks
}

/// All maximal `k`-blocks of the colouring (Definition 4).
pub fn find_k_blocks(torus: &Torus, coloring: &Coloring, k: Color) -> Vec<NodeSet> {
    let candidates = ctori_coloring::color_class(coloring, k);
    let core = peel_to_core(torus, &candidates, 2);
    core_components(torus, &core)
}

/// All maximal non-`k`-blocks of the colouring (Definition 5).
pub fn find_non_k_blocks(torus: &Torus, coloring: &Coloring, k: Color) -> Vec<NodeSet> {
    let candidates = ctori_coloring::classes::non_color_class(coloring, k);
    let core = peel_to_core(torus, &candidates, 3);
    core_components(torus, &core)
}

/// Whether the colouring contains at least one non-`k`-block.
///
/// This is the obstruction used throughout Section III: if `T − S^k`
/// contains a non-`k`-block, no `k`-monochromatic configuration can ever
/// be reached, so `S^k` is not a dynamo (Lemma 2).
pub fn has_non_k_block(torus: &Torus, coloring: &Coloring, k: Color) -> bool {
    let candidates = ctori_coloring::classes::non_color_class(coloring, k);
    !peel_to_core(torus, &candidates, 3).is_empty()
}

/// Whether the colouring contains at least one `k`-block.
pub fn has_k_block(torus: &Torus, coloring: &Coloring, k: Color) -> bool {
    let candidates = ctori_coloring::color_class(coloring, k);
    !peel_to_core(torus, &candidates, 2).is_empty()
}

/// Checks whether an explicit vertex set is a `k`-block of the colouring:
/// connected, entirely `k`-coloured, and every member has at least two
/// neighbours in the set.
pub fn is_k_block(torus: &Torus, coloring: &Coloring, k: Color, set: &NodeSet) -> bool {
    if set.is_empty() {
        return false;
    }
    for v in set.iter() {
        if coloring.get(v) != k {
            return false;
        }
        let internal = torus
            .neighbor_ids(v)
            .into_iter()
            .filter(|u| set.contains(*u))
            .count();
        if internal < 2 {
            return false;
        }
    }
    induced_components(torus, set).count == 1
}

/// Checks whether the set of *all* `k`-coloured vertices is a union of
/// `k`-blocks, i.e. every `k` vertex has at least two `k` neighbours.
///
/// This is *sufficient* for the seed to keep colour `k` under SMP (at
/// worst a 2–2 tie), but it is **not** a necessary condition for a
/// monotone dynamo: a `k` vertex with one `k` neighbour and three pairwise
/// distinct non-`k` neighbours sees no colour outvote `k` either.  The
/// 5-vertex Theorem-2 dynamo on the 3×4 toroidal mesh has such a vertex at
/// (0,2), so this check rejects it.
pub fn seed_is_union_of_k_blocks(torus: &Torus, coloring: &Coloring, k: Color) -> bool {
    let candidates = ctori_coloring::color_class(coloring, k);
    if candidates.is_empty() {
        return false;
    }
    let core = peel_to_core(torus, &candidates, 2);
    // Every k vertex must survive the peeling, i.e. belong to some block.
    core == candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_coloring::ColoringBuilder;
    use ctori_topology::{toroidal_mesh, torus_cordalis, torus_serpentinus, Coord};

    fn k() -> Color {
        Color::new(2)
    }

    fn other() -> Color {
        Color::new(1)
    }

    #[test]
    fn single_column_is_a_block_in_mesh_and_cordalis_but_not_serpentinus() {
        // This is the example discussed right after Definition 4 in the
        // paper: a single column of k-coloured vertices is a k-block in a
        // toroidal mesh and in a torus cordalis but not in a torus
        // serpentinus.
        for (make, expect_block) in [
            (toroidal_mesh as fn(usize, usize) -> Torus, true),
            (torus_cordalis as fn(usize, usize) -> Torus, true),
            (torus_serpentinus as fn(usize, usize) -> Torus, false),
        ] {
            let t = make(5, 5);
            let coloring = ColoringBuilder::filled(&t, other()).column(2, k()).build();
            let blocks = find_k_blocks(&t, &coloring, k());
            assert_eq!(
                !blocks.is_empty(),
                expect_block,
                "column block mismatch on {}",
                t
            );
            if expect_block {
                assert_eq!(blocks.len(), 1);
                assert_eq!(blocks[0].count(), 5);
            }
        }
    }

    #[test]
    fn single_row_is_a_block_only_in_the_toroidal_mesh() {
        // Also from the paper: a single row is a k-block in a toroidal mesh
        // but not in a torus cordalis or serpentinus.
        for (make, expect_block) in [
            (toroidal_mesh as fn(usize, usize) -> Torus, true),
            (torus_cordalis as fn(usize, usize) -> Torus, false),
            (torus_serpentinus as fn(usize, usize) -> Torus, false),
        ] {
            let t = make(5, 5);
            let coloring = ColoringBuilder::filled(&t, other()).row(2, k()).build();
            assert_eq!(
                has_k_block(&t, &coloring, k()),
                expect_block,
                "row block mismatch on {}",
                t
            );
        }
    }

    #[test]
    fn two_consecutive_rows_are_a_block_in_all_tori() {
        // "two consecutive rows of k-colored vertices constitute a k-block
        // in all the tori"
        for make in [
            toroidal_mesh as fn(usize, usize) -> Torus,
            torus_cordalis,
            torus_serpentinus,
        ] {
            let t = make(5, 6);
            let coloring = ColoringBuilder::filled(&t, other())
                .row(1, k())
                .row(2, k())
                .build();
            let blocks = find_k_blocks(&t, &coloring, k());
            assert_eq!(blocks.len(), 1, "two rows must form one block on {}", t);
            assert_eq!(blocks[0].count(), 12);
        }
    }

    #[test]
    fn two_consecutive_columns_are_a_block_in_all_tori() {
        for make in [
            toroidal_mesh as fn(usize, usize) -> Torus,
            torus_cordalis,
            torus_serpentinus,
        ] {
            let t = make(6, 5);
            let coloring = ColoringBuilder::filled(&t, other())
                .column(1, k())
                .column(2, k())
                .build();
            assert!(has_k_block(&t, &coloring, k()), "two columns on {}", t);
        }
    }

    #[test]
    fn non_k_block_from_two_rows_on_the_toroidal_mesh() {
        // Two consecutive rows of non-k colours wrap around on the toroidal
        // mesh, so every member has at least three neighbours in the band:
        // a non-k-block (the example following Definition 5).
        let t = toroidal_mesh(5, 6);
        let coloring = ColoringBuilder::filled(&t, k())
            .row(1, Color::new(3))
            .row(2, Color::new(4))
            .build();
        let nblocks = find_non_k_blocks(&t, &coloring, k());
        assert_eq!(nblocks.len(), 1);
        assert_eq!(nblocks[0].count(), 12);
        assert!(has_non_k_block(&t, &coloring, k()));
    }

    #[test]
    fn non_k_band_orientation_depends_on_the_chaining() {
        // In the torus cordalis the row wrap-around is chained away, so a
        // 2-row band has two weak end vertices and erodes entirely under
        // Definition 5 peeling; a 2-column band (columns still wrap) is a
        // genuine non-k-block.  In the torus serpentinus both wraps are
        // chained and neither thin band survives.
        let band_rows = |t: &Torus| {
            ColoringBuilder::filled(t, k())
                .row(1, Color::new(3))
                .row(2, Color::new(4))
                .build()
        };
        let band_cols = |t: &Torus| {
            ColoringBuilder::filled(t, k())
                .column(1, Color::new(3))
                .column(2, Color::new(4))
                .build()
        };

        let cord = torus_cordalis(5, 6);
        assert!(!has_non_k_block(&cord, &band_rows(&cord), k()));
        assert!(has_non_k_block(&cord, &band_cols(&cord), k()));

        let serp = torus_serpentinus(5, 6);
        assert!(!has_non_k_block(&serp, &band_rows(&serp), k()));
        assert!(!has_non_k_block(&serp, &band_cols(&serp), k()));

        // A configuration with no k vertex at all is trivially one big
        // non-k-block on every topology.
        let all_other = ColoringBuilder::filled(&serp, Color::new(3)).build();
        let blocks = find_non_k_blocks(&serp, &all_other, k());
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].count(), 30);
    }

    #[test]
    fn isolated_vertices_form_no_blocks() {
        let t = toroidal_mesh(5, 5);
        let coloring = ColoringBuilder::filled(&t, other())
            .cell(1, 1, k())
            .cell(3, 3, k())
            .build();
        assert!(find_k_blocks(&t, &coloring, k()).is_empty());
        assert!(!has_k_block(&t, &coloring, k()));
        assert!(!seed_is_union_of_k_blocks(&t, &coloring, k()));
    }

    #[test]
    fn l_shape_is_partially_peeled() {
        // An L of k vertices: the corner cell has 2 k-neighbours, but the
        // two arm tips have only one, so peeling removes the arms from the
        // outside in; a 1-wide L ultimately has no 2-core at all.
        let t = toroidal_mesh(6, 6);
        let mut b = ColoringBuilder::filled(&t, other());
        for i in 0..4 {
            b = b.cell(i, 0, k());
        }
        for j in 1..4 {
            b = b.cell(3, j, k());
        }
        let coloring = b.build();
        assert!(!has_k_block(&t, &coloring, k()), "a 1-wide L has no 2-core");
    }

    #[test]
    fn explicit_block_check() {
        let t = toroidal_mesh(5, 5);
        let coloring = ColoringBuilder::filled(&t, other())
            .rect(1..=2, 1..=2, k())
            .build();
        let square: NodeSet = NodeSet::from_iter(
            t.node_count(),
            [(1, 1), (1, 2), (2, 1), (2, 2)]
                .into_iter()
                .map(|(r, c)| t.id(Coord::new(r, c))),
        );
        assert!(is_k_block(&t, &coloring, k(), &square));
        // A 2x2 square is detected by the maximal-block finder as well.
        let blocks = find_k_blocks(&t, &coloring, k());
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0], square);
        // Wrong colour or broken connectivity fail the explicit check.
        assert!(!is_k_block(&t, &coloring, Color::new(3), &square));
        let disconnected = NodeSet::from_iter(
            t.node_count(),
            [(1, 1), (3, 3)]
                .into_iter()
                .map(|(r, c)| t.id(Coord::new(r, c))),
        );
        assert!(!is_k_block(&t, &coloring, k(), &disconnected));
        let empty = NodeSet::new(t.node_count());
        assert!(!is_k_block(&t, &coloring, k(), &empty));
    }

    #[test]
    fn seed_union_of_blocks_detects_theorem2_shape() {
        // Full column 0 + row 0 missing its last vertex: the column is a
        // block; the row-0 tail cells have 2 k-neighbours each except the
        // one next to the gap... the whole seed survives peeling only in
        // the toroidal mesh if it forms blocks. Check the simplest valid
        // case: full column + full row (both are blocks in the mesh).
        let t = toroidal_mesh(5, 5);
        let coloring = ColoringBuilder::filled(&t, other())
            .column(0, k())
            .row(0, k())
            .build();
        assert!(seed_is_union_of_k_blocks(&t, &coloring, k()));
    }

    #[test]
    fn whole_torus_is_one_giant_block() {
        let t = torus_cordalis(4, 4);
        let coloring = Coloring::uniform(&t, k());
        let blocks = find_k_blocks(&t, &coloring, k());
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].count(), 16);
        assert!(find_non_k_blocks(&t, &coloring, k()).is_empty());
    }
}
