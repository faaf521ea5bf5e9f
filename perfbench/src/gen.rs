//! Seeded inputs.  Every spec list and request order of a run derives
//! from the workload seed, and nothing else, so the same seed gives the
//! same inputs and the program only ever sees the generated specs.

use ctori_coloring::Color;
use ctori_engine::{RuleSpec, RunSpec, SeedSpec, TopologySpec};

/// Seeds must leave room for the per-spec index packed below them.
pub const MAX_SEED: u64 = (1 << 40) - 1;

/// Palettes of the density specs: 2 colours run on the packed lane,
/// 4 and 8 on the bit-plane lane, 24 (over the plane lane's 16-colour
/// limit) on the generic frontier.
pub const PALETTES: [u16; 4] = [2, 4, 8, 24];

/// SplitMix64: small, fast and fully determined by its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x243f_6a88_85a3_08d3)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Independent input streams of one seed.
#[derive(Clone, Copy)]
pub enum Stream {
    Cold = 0,
    Hot = 1,
    Core = 2,
}

/// A generator for one stream of one seed.
pub fn rng(seed: u64, stream: Stream) -> Rng {
    Rng::new(seed.wrapping_mul(4).wrapping_add(stream as u64))
}

/// `count` distinct random density specs for `stream`.
///
/// Spec `i` has palette `PALETTES[i % 4]` (every four consecutive specs
/// cover all three kernel lanes), rule `smp` or `threshold(1,T)` by
/// `i / 4`, and side `side(i)`; the seed draws the seeded fraction and
/// the density RNG.  Holding the palette, rule and size mix fixed keeps
/// one seed's job list as costly as another's.
///
/// The density RNG seed of spec `i` is `seed · 2²⁰ + stream · 2¹⁸ + i`,
/// so spec texts of two seeds, or of two streams, never coincide and a
/// held-out seed never hits a cache warmed by another.
pub fn density_specs(
    seed: u64,
    stream: Stream,
    count: usize,
    side: impl Fn(usize) -> usize,
) -> Vec<RunSpec> {
    assert!(
        seed <= MAX_SEED && count < 1 << 18,
        "seed or count out of range"
    );
    let mut rng = rng(seed, stream);
    (0..count)
        .map(|i| {
            let rule = match i / 4 % 4 {
                0 | 1 => "smp".to_string(),
                t => format!("threshold(1,{t})"),
            };
            let fraction = (5 + rng.below(46)) as f64 / 100.0;
            RunSpec::new(
                TopologySpec::toroidal_mesh(side(i), side(i)),
                RuleSpec::parse(&rule).expect("registry rule"),
                SeedSpec::Density {
                    color: Color::new(1),
                    palette: PALETTES[i % PALETTES.len()],
                    fraction,
                    rng_seed: (seed << 20) | ((stream as u64) << 18) | i as u64,
                },
            )
        })
        .collect()
}

/// Sides 48..=192, each about equally often, in a scrambled order.
pub fn cold_side(i: usize) -> usize {
    48 + i * 97 % 145
}

/// The hot working set's side: one size, so the cost of serving a hit
/// does not depend on which specs the seed made hot.
pub fn hot_side(_: usize) -> usize {
    64
}

/// A skewed request order over a working set of `set` specs: index `r`
/// of a seeded permutation is drawn with weight `1 / (r + 1)` (Zipf,
/// exponent 1), and every spec appears at least once.
pub fn zipf_order(seed: u64, set: usize, requests: usize) -> Vec<usize> {
    let mut rng = rng(seed, Stream::Hot);
    let mut rank: Vec<usize> = (0..set).collect();
    for i in (1..set).rev() {
        rank.swap(i, rng.below(i + 1));
    }
    let cumulative: Vec<f64> = (1..=set)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / r as f64;
            Some(*acc)
        })
        .collect();
    let total = cumulative[set - 1];
    let mut order: Vec<usize> = rank.clone();
    while order.len() < requests {
        let u = rng.unit() * total;
        let r = cumulative.partition_point(|&c| c <= u).min(set - 1);
        order.push(rank[r]);
    }
    // The seeded permutation is a prefix: shuffle it into the stream so
    // the first requests are as skewed as the rest.
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn texts(seed: u64, stream: Stream) -> Vec<String> {
        density_specs(seed, stream, 300, cold_side)
            .iter()
            .map(RunSpec::to_text)
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_spec_texts() {
        assert_eq!(texts(7, Stream::Cold), texts(7, Stream::Cold));
        assert_eq!(texts(7, Stream::Hot), texts(7, Stream::Hot));
        assert_eq!(zipf_order(7, 24, 500), zipf_order(7, 24, 500));
    }

    #[test]
    fn two_seeds_give_disjoint_spec_keys() {
        let keys = |seed, stream| -> HashSet<_> {
            density_specs(seed, stream, 300, cold_side)
                .iter()
                .map(RunSpec::canonical_key)
                .collect()
        };
        let a = keys(1, Stream::Cold);
        assert_eq!(a.len(), 300, "specs of one seed are distinct");
        for (seed, stream) in [(2, Stream::Cold), (1, Stream::Hot), (MAX_SEED, Stream::Hot)] {
            assert!(a.is_disjoint(&keys(seed, stream)));
        }
    }

    #[test]
    fn specs_parse_back_and_cover_every_palette() {
        let specs = density_specs(3, Stream::Cold, 8, cold_side);
        for spec in &specs {
            assert_eq!(&RunSpec::from_text(&spec.to_text()).unwrap(), spec);
        }
        let palettes: HashSet<u16> = specs
            .iter()
            .map(|spec| match spec.seed {
                SeedSpec::Density { palette, .. } => palette,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(palettes.len(), PALETTES.len());
    }

    #[test]
    fn zipf_order_is_skewed_and_covers_the_set() {
        let order = zipf_order(5, 16, 4000);
        let mut counts = [0usize; 16];
        for &i in &order {
            counts[i] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0));
        counts.sort_unstable();
        assert!(counts[15] > 4 * counts[0], "{counts:?}");
    }
}
