//! Experiments `thm1`, `thm3`, `thm5`, `prop3`: the lower bounds.
//!
//! Each lower bound is checked two ways:
//!
//! * **exhaustively** on small tori — no monotone dynamo below the bound
//!   exists, over all seed placements and all colourings of the remaining
//!   vertices (Section III's claim made computational);
//! * **constructively** across a sweep of sizes — the matching construction
//!   of Theorem 2/4/6 achieves the bound exactly (tightness).

use crate::experiment::{Experiment, ExperimentRecord, Mode};
use crate::table::Table;
use ctori_coloring::{Color, Palette};
use ctori_core::bounds;
use ctori_core::construct::minimum_dynamo;
use ctori_core::search::{search_dynamo_of_size, verify_lower_bound, SearchConfig};
use ctori_topology::{Torus, TorusKind};

fn k() -> Color {
    Color::new(1)
}

fn exhaustive_sizes(kind: TorusKind, mode: Mode) -> Vec<(usize, usize)> {
    match (kind, mode) {
        // The 3x3 serpentinus contains triangles (three mutually adjacent
        // vertices), which admit a monotone dynamo of size 3 — one below
        // the Theorem-5 bound.  The exhaustive check therefore uses a
        // triangle-free size; the anomaly is reported as an observation.
        (TorusKind::TorusSerpentinus, Mode::Quick) => vec![(4, 3)],
        (TorusKind::TorusSerpentinus, Mode::Full) => vec![(4, 3)],
        (_, Mode::Quick) => vec![(3, 3)],
        (_, Mode::Full) => vec![(3, 3), (3, 4)],
    }
}

fn bound_experiment(
    id: &'static str,
    title: &'static str,
    kind: TorusKind,
    claim: String,
    mode: Mode,
) -> ExperimentRecord {
    let mut table = Table::new(vec![
        "torus",
        "bound",
        "exhaustive: none below bound",
        "construction size",
        "tight",
    ]);
    let mut passed = true;
    let mut observations = vec![
        "exhaustive verification enumerates every seed placement; seeds passing Lemma 1 and \
         the union-of-k-blocks condition get every colouring of the remaining vertices over a \
         4-colour palette.  The block condition is not necessary for a monotone dynamo (it \
         rejects the Theorem-2 dynamo on the 3x4 mesh), so \"none below bound\" holds \
         relative to it."
            .into(),
    ];
    if kind == TorusKind::TorusSerpentinus {
        observations.push(
            "reproduction note: on the 3x3 torus serpentinus the chained wrap-around edges create \
             triangles, and an exhaustive search finds a monotone dynamo of size 3 — one below \
             the min(m,n)+1 bound.  The bound holds from triangle-free sizes (m >= 4) onwards, \
             which is what the table verifies."
                .into(),
        );
    }

    for (m, n) in exhaustive_sizes(kind, mode) {
        let torus = Torus::new(kind, m, n);
        let bound = bounds::lower_bound(kind, m, n);
        let palette = Palette::new(4);
        let none_below = verify_lower_bound(&torus, k(), palette, bound);
        let at_bound = match minimum_dynamo(kind, m, n, k()) {
            Ok(built) => built.seed_size() == bound,
            Err(_) => {
                search_dynamo_of_size(&torus, k(), bound, &SearchConfig::monotone(Palette::new(4)))
                    .found()
            }
        };
        passed &= none_below && at_bound;
        table.add_row(vec![
            format!("{kind} {m}x{n}"),
            bound.to_string(),
            none_below.to_string(),
            if at_bound {
                format!("{bound} (witness)")
            } else {
                "not found".to_string()
            },
            (none_below && at_bound).to_string(),
        ]);
    }

    // Constructive tightness on larger sizes.
    let sweep: Vec<(usize, usize)> = match mode {
        Mode::Quick => vec![(6, 6)],
        Mode::Full => vec![(6, 6), (9, 9), (12, 9), (9, 12), (15, 15)],
    };
    for (m, n) in sweep {
        let bound = bounds::lower_bound(kind, m, n);
        match minimum_dynamo(kind, m, n, k()) {
            Ok(built) => {
                let tight = built.seed_size() == bound;
                passed &= tight;
                table.add_row(vec![
                    format!("{kind} {m}x{n}"),
                    bound.to_string(),
                    "(not exhaustively checked)".to_string(),
                    built.seed_size().to_string(),
                    tight.to_string(),
                ]);
            }
            Err(e) => {
                passed = false;
                table.add_row(vec![
                    format!("{kind} {m}x{n}"),
                    bound.to_string(),
                    "-".to_string(),
                    format!("construction failed: {e}"),
                    "false".to_string(),
                ]);
            }
        }
    }

    ExperimentRecord {
        id,
        title,
        paper_claim: claim,
        table,
        observations,
        passed,
    }
}

/// `thm1`: toroidal-mesh lower bound `m + n − 2`.
pub struct Theorem1;

impl Experiment for Theorem1 {
    fn id(&self) -> &'static str {
        "thm1"
    }
    fn title(&self) -> &'static str {
        "Theorem 1: |Sk| >= m + n - 2 on the toroidal mesh"
    }
    fn run(&self, mode: Mode) -> ExperimentRecord {
        bound_experiment(
            self.id(),
            self.title(),
            TorusKind::ToroidalMesh,
            "A monotone dynamo of a coloured m x n toroidal mesh has at least m + n − 2 vertices, \
             and the bound is tight."
                .into(),
            mode,
        )
    }
}

/// `thm3`: torus-cordalis lower bound `n + 1`.
pub struct Theorem3;

impl Experiment for Theorem3 {
    fn id(&self) -> &'static str {
        "thm3"
    }
    fn title(&self) -> &'static str {
        "Theorem 3: |Sk| >= n + 1 on the torus cordalis"
    }
    fn run(&self, mode: Mode) -> ExperimentRecord {
        bound_experiment(
            self.id(),
            self.title(),
            TorusKind::TorusCordalis,
            "A monotone dynamo of a coloured m x n torus cordalis has at least n + 1 vertices, \
             and the bound is tight."
                .into(),
            mode,
        )
    }
}

/// `thm5`: torus-serpentinus lower bound `min(m, n) + 1`.
pub struct Theorem5;

impl Experiment for Theorem5 {
    fn id(&self) -> &'static str {
        "thm5"
    }
    fn title(&self) -> &'static str {
        "Theorem 5: |Sk| >= min(m, n) + 1 on the torus serpentinus"
    }
    fn run(&self, mode: Mode) -> ExperimentRecord {
        bound_experiment(
            self.id(),
            self.title(),
            TorusKind::TorusSerpentinus,
            "A monotone dynamo of a coloured m x n torus serpentinus has at least min(m, n) + 1 \
             vertices, and the bound is tight."
                .into(),
            mode,
        )
    }
}

/// `prop3`: colour-count necessity for minimum-size dynamos.
pub struct Proposition3;

impl Experiment for Proposition3 {
    fn id(&self) -> &'static str {
        "prop3"
    }
    fn title(&self) -> &'static str {
        "Proposition 3: minimum-size dynamos need |C| >= min(m, n) colours (for min(m,n) <= 3)"
    }
    fn run(&self, mode: Mode) -> ExperimentRecord {
        let mut table = Table::new(vec![
            "torus",
            "seed budget (m + n - 2)",
            "colours",
            "monotone dynamo exists",
        ]);
        let mut passed = true;

        // N = 3 case: with two colours no minimum-size monotone dynamo
        // exists, with three (or more) it does.
        let cases: Vec<(usize, usize, u16, bool)> = match mode {
            Mode::Quick => vec![(3, 3, 2, false), (3, 3, 4, true)],
            Mode::Full => vec![
                (3, 3, 2, false),
                (3, 3, 3, true),
                (3, 3, 4, true),
                (3, 4, 2, false),
            ],
        };
        for (m, n, colors, expected) in cases {
            let torus = ctori_topology::toroidal_mesh(m, n);
            let budget = bounds::toroidal_mesh_lower_bound(m, n);
            let config = SearchConfig::monotone(Palette::new(colors));
            let mut found = false;
            for size in 1..=budget {
                if search_dynamo_of_size(&torus, Color::new(colors), size, &config).found() {
                    found = true;
                    break;
                }
            }
            passed &= found == expected;
            table.add_row(vec![
                format!("toroidal mesh {m}x{n}"),
                budget.to_string(),
                colors.to_string(),
                found.to_string(),
            ]);
        }

        // The formula itself.
        let mut formula = String::from("required colours by Prop. 3: ");
        for nmin in 2..=4 {
            formula.push_str(&format!(
                "min(m,n)={} -> {}; ",
                nmin,
                bounds::prop3_minimum_colors(nmin, nmin)
            ));
        }

        ExperimentRecord {
            id: self.id(),
            title: self.title(),
            paper_claim: "If a minimum-size dynamo exists then |C| >= N for 1 < N <= 3, where \
                          N = min(m, n); two colours are not enough when N = 3."
                .into(),
            table,
            observations: vec![formula],
            passed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_quick_reproduces() {
        let record = Theorem1.run(Mode::Quick);
        assert!(record.passed, "{}", record.render());
    }

    #[test]
    fn theorem3_quick_reproduces() {
        let record = Theorem3.run(Mode::Quick);
        assert!(record.passed, "{}", record.render());
    }

    #[test]
    fn theorem5_quick_reproduces() {
        let record = Theorem5.run(Mode::Quick);
        assert!(record.passed, "{}", record.render());
    }

    #[test]
    fn proposition3_quick_reproduces() {
        let record = Proposition3.run(Mode::Quick);
        assert!(record.passed, "{}", record.render());
    }
}
