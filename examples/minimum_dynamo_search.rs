//! Exhaustive minimum-dynamo search on small tori.
//!
//! For each small torus the example searches every seed placement and every
//! colouring of the remaining vertices (pruned by Lemma 1 and the
//! union-of-`k`-blocks condition) for the smallest monotone dynamo, and
//! compares the result with the paper's lower bounds — including the 3x3
//! serpentinus anomaly where the chained wrap-around creates triangles and a
//! dynamo one below the bound exists, and the 3x4 mesh where the block
//! pruning hides the bound-size dynamo.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example minimum_dynamo_search
//! ```

use colored_tori::coloring::render_coloring;
use colored_tori::dynamo::search::{search_minimum_monotone_dynamo, SearchConfig, SearchOutcome};
use colored_tori::prelude::*;

fn main() {
    let k = Color::new(1);
    let palette = Palette::new(4);

    println!("exhaustive search for minimum monotone dynamos (palette of 4 colours)\n");
    println!(
        "{:<26} {:>12} {:>14} {:>10}",
        "torus", "paper bound", "search result", "agrees"
    );

    let cases = [
        (TorusKind::ToroidalMesh, 3usize, 3usize),
        (TorusKind::ToroidalMesh, 3, 4),
        (TorusKind::TorusCordalis, 3, 3),
        (TorusKind::TorusCordalis, 3, 4),
        (TorusKind::TorusSerpentinus, 4, 3),
        (TorusKind::TorusSerpentinus, 3, 3),
    ];

    let mut witnesses: Vec<(String, Coloring)> = Vec::new();
    for (kind, m, n) in cases {
        let torus = Torus::new(kind, m, n);
        let bound = lower_bound(kind, m, n);
        let config = SearchConfig::monotone(palette);
        let outcome = search_minimum_monotone_dynamo(&torus, k, &config, bound + 1);
        let (result, agrees) = match &outcome {
            SearchOutcome::Found { size, example, .. } => {
                witnesses.push((format!("{kind} {m}x{n} (size {size})"), example.clone()));
                (size.to_string(), *size == bound)
            }
            SearchOutcome::NoneOfSize(max) => (format!("none <= {max}"), false),
        };
        println!(
            "{:<26} {:>12} {:>14} {:>10}",
            format!("{kind} {m}x{n}"),
            bound,
            result,
            agrees
        );
    }

    println!("\nwitness configurations found by the search:\n");
    for (label, coloring) in witnesses {
        println!("{label}:");
        for line in render_coloring(&coloring).lines() {
            println!("    {line}");
        }
        println!();
    }

    println!(
        "Note the 3x3 torus serpentinus: its chained wrap-around edges form triangles, so a \
         monotone dynamo of size 3 exists — one below the min(m, n) + 1 bound, which holds from \
         triangle-free sizes (m >= 4) onwards."
    );
    println!(
        "\nNote the 3x4 toroidal mesh: the search reports 6, but the Theorem-2 seed of size \
         m + n - 2 = 5 is a monotone dynamo.  The search prunes seeds that are not a union of \
         k-blocks, and that seed is not one: vertex (0,2) has one seed neighbour and three \
         pairwise distinct other colours, so nothing outvotes k there.  The block condition is \
         sufficient for a seed vertex to keep k, not necessary."
    );
}
