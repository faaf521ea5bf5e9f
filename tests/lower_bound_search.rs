//! The lower bounds of Theorems 1, 3 and 5, checked by exhaustive search
//! on the instances the repository benchmark times.

use colored_tori::dynamo::search::verify_lower_bound;
use colored_tori::prelude::*;

/// No seed below the bound passes the search on the 5×5 mesh, the 6×6
/// torus cordalis and the 6×6 torus serpentinus (palette of 4 colours).
///
/// The check is only as strong as the search's seed pruning: every seed
/// below these bounds is rejected by the union-of-`k`-blocks seed check
/// (`SearchConfig::prune_blocks`) before any filler is simulated, and that
/// check is not a necessary condition for a monotone dynamo (it rejects
/// the Theorem-2 dynamo on the 3×4 mesh).  This pins what the search
/// reports, not the theorems.
#[test]
fn benchmark_instances_have_no_seed_below_the_bound() {
    let k = Color::new(1);
    for (kind, m, n) in [
        (TorusKind::ToroidalMesh, 5, 5),
        (TorusKind::TorusCordalis, 6, 6),
        (TorusKind::TorusSerpentinus, 6, 6),
    ] {
        let torus = Torus::new(kind, m, n);
        assert!(
            verify_lower_bound(&torus, k, Palette::new(4), lower_bound(kind, m, n)),
            "{torus}: the search found a monotone dynamo below the bound"
        );
    }
}
