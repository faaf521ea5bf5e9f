//! The k-colour bit-plane lane.
//!
//! The packed lane of [`crate::frontier`] collapses a **two**-colour run to
//! one bit per vertex; this module generalises it to any palette of up to
//! 16 colours by *bit-plane slicing*: the palette is sorted and each colour
//! mapped to a dense code `0..k`, and the configuration is stored as
//! `⌈log₂ k⌉` parallel `u64` bit arrays ("planes") — bit `v` of plane `p`
//! is bit `p` of vertex `v`'s code.  Sixty-four vertices then share a word
//! in every plane, and a whole word's rule evaluation becomes a short
//! branch-free sequence of word ops:
//!
//! 1. **Gather** each of the four torus directions as one word per plane
//!    (a funnel shift over two adjacent words — no per-vertex indexing).
//! 2. **Decode** per-colour indicator words: `ind_c = ∧_p (nb_p` or
//!    `!nb_p)` depending on bit `p` of code `c`.
//! 3. **Count** the four direction indicators per colour with a half-adder
//!    tree into 64 parallel 3-bit counters, and apply the rule's
//!    comparators (`≥2`, `≥3`, `=4`, unique-plurality masks) to get a
//!    per-colour *adopt* word.
//! 4. **Merge** the adopted codes back into the planes with two masks.
//!
//! The per-vertex cost is a few ALU ops instead of a rule dispatch plus a
//! colour multiset scan.  Which rules qualify is declared by the rules
//! themselves through [`ctori_protocols::LocalRule::as_color_count_rule`],
//! the multi-colour sibling of `as_two_state_threshold`.
//!
//! # Frontier words and wrap handling
//!
//! Scheduling is *word-granular*: the dirty-tracking worklist (the same
//! round-stamped structure the per-vertex frontier uses) holds
//! word indices, and a word is re-evaluated when any of its 64 vertices or
//! their neighbours changed last round (dirty propagation is word-level
//! too, through a per-word neighbour-word table built at construction —
//! no per-flip CSR walks).  Words are classified once at construction:
//!
//! * **fast** — the word is full and every vertex `v` in it has the CSR
//!   neighbour pattern `[v-cols, v+cols, v-1, v+1]`, the interior pattern
//!   shared by all three [`ctori_topology::TorusKind`]s (on the chordal
//!   tori even the row-wrap columns match it, because their west/east
//!   wraps are literally `v∓1` in row-major order);
//! * **wrap** — as fast, except that at most one lane's west and one
//!   lane's east neighbour differ (a toroidal-mesh row-wrap column): the
//!   word goes through the same vector kernel with those lanes patched
//!   from their true CSR source after the horizontal gathers;
//! * **slow** — everything else (the two vertical-wrap boundary rows, the
//!   partial tail word, non-torus structure): exact per-vertex CSR
//!   evaluation.
//!
//! Explicit wrap handling therefore costs two patched bits on O(rows)
//! words and the scalar path only O(cols) vertices, while the O(rows ·
//! cols) interior streams through the vector kernel.
//!
//! # Cache-tiled traversal
//!
//! Full sweeps over large tori walk the words in L1-sized 2D tiles
//! (16 rows × 32 words ≈ 16 KiB of plane data for a 4-plane palette, plus
//! the two neighbouring rows each gather touches) instead of row-major
//! order, so a 4096² torus streams each cache line once per round instead
//! of thrashing between distant rows.  Evaluation is strictly
//! read-old/write-new (patches are applied after the whole round is
//! evaluated), so traversal order never affects results.

use crate::frontier::Worklist;
use ctori_coloring::Color;
use ctori_protocols::{ColorCountForm, ColorCountRule};
use ctori_topology::Adjacency;

/// Planes needed for the largest supported palette (16 colours → 4 bits).
const MAX_PLANES: usize = 4;
/// Largest palette the lane accepts.
const MAX_PALETTE: usize = 1 << MAX_PLANES;
/// Tile height of the cache-tiled full sweep, in torus rows.
const TILE_ROWS: usize = 16;
/// Tile width of the cache-tiled full sweep, in 64-vertex words.
const TILE_WORD_COLS: usize = 32;

/// The rule, compiled to palette codes at construction.
#[derive(Clone, Copy, Debug)]
enum Decision {
    /// Adopt the unique strict plurality colour if it has at least
    /// `min_pair` holders.
    Plurality { min_pair: u32 },
    /// Adopt the colour of code `code` at `threshold` holders; `None` if
    /// the activation colour is not in the palette (the lane is inert).
    Activation { code: Option<u8>, threshold: u32 },
}

/// How one 64-vertex word is evaluated (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WordClass {
    /// Full word, interior CSR pattern in all four directions.
    Fast,
    /// Full word, interior pattern vertically; the horizontal gathers
    /// need at most one lane each patched from its true wrap source
    /// (`(lane, source vertex)` — a toroidal-mesh row-wrap column).
    Wrap {
        west: Option<(u8, u32)>,
        east: Option<(u8, u32)>,
    },
    /// Anything else: exact per-vertex CSR evaluation.
    Slow,
}

/// One word's pending rewrite, evaluated against the pre-round planes.
///
/// Keeping the old plane words alongside the new makes the patch a full
/// record of the round's changes, so per-flip data (`(vertex, old, new)`
/// tuples for observers and hashing) can be derived lazily instead of
/// materialised inside the hot apply loop.
#[derive(Clone, Copy, Debug)]
struct Patch {
    word: u32,
    /// Lanes whose vertex changes code this round.
    changed: u64,
    /// The word's pre-round value in every plane.
    old: [u64; MAX_PLANES],
    /// The word's full new value in every plane.
    new: [u64; MAX_PLANES],
}

/// The running summary of a round's patches, computed while the patch
/// words are still in registers so the apply phase has nothing left to
/// count (see [`PlaneLane::step`]).
#[derive(Clone, Copy, Debug, Default)]
struct RoundDelta {
    /// Vertices changed this round.
    flips: usize,
    /// Signed per-code census movement (codes partition the changed
    /// bits, so indicator popcounts over old/new words are exact).
    census: [i64; MAX_PALETTE],
}

impl RoundDelta {
    /// Folds one patch into the summary.
    #[inline]
    fn account(&mut self, patch: &Patch, plane_count: usize, k: usize) {
        self.flips += patch.changed.count_ones() as usize;
        for (code, slot) in self.census.iter_mut().enumerate().take(k) {
            let gained = indicator(&patch.new, plane_count, code) & patch.changed;
            let lost = indicator(&patch.old, plane_count, code) & patch.changed;
            *slot += i64::from(gained.count_ones()) - i64::from(lost.count_ones());
        }
    }
}

/// Reads the 64 bits starting at bit `base` of a packed bit array.
///
/// Callers guarantee `base + 63` is a valid bit index (fast-word
/// classification does: every gathered position is a CSR neighbour of an
/// in-range vertex), which bounds both word accesses.
#[inline(always)]
fn gather(plane: &[u64], base: usize) -> u64 {
    let q = base >> 6;
    let r = base & 63;
    if r == 0 {
        plane[q]
    } else {
        (plane[q] >> r) | (plane[q + 1] << (64 - r))
    }
}

/// The per-colour indicator of one gathered (or own) word set: lane `v` is
/// set iff vertex `v`'s code equals `code`.
#[inline(always)]
fn indicator(words: &[u64; MAX_PLANES], plane_count: usize, code: usize) -> u64 {
    let mut ind = !0u64;
    for (p, &plane) in words.iter().enumerate().take(plane_count) {
        ind &= if (code >> p) & 1 == 1 { plane } else { !plane };
    }
    ind
}

/// 64 parallel 3-bit counters over four indicator words: lane `v` of the
/// result `(hi, mid, low)` encodes `a + b + c + d` at that lane as
/// `4·hi + 2·mid + low` (a classic half-adder tree, exact for degree 4).
#[inline(always)]
fn count4(a: u64, b: u64, c: u64, d: u64) -> (u64, u64, u64) {
    let s0 = a ^ b;
    let c0 = a & b;
    let s1 = c ^ d;
    let c1 = c & d;
    let low = s0 ^ s1;
    let carry = s0 & s1;
    let mid = c0 ^ c1 ^ carry;
    let hi = (c0 & c1) | (carry & (c0 ^ c1));
    (hi, mid, low)
}

/// The multi-colour bit-plane frontier stepper.
///
/// Construction compiles a [`ColorCountRule`] and an initial configuration
/// of at most 16 distinct colours down to palette codes; stepping then
/// evaluates 64 vertices per word against the pre-round planes (see the
/// [module docs](crate::planes) for the kernel).  Like
/// [`crate::PackedFrontier`], the adjacency is passed to
/// [`PlaneLane::step`] rather than owned, so one CSR can serve many lanes.
#[derive(Clone, Debug)]
pub struct PlaneLane {
    /// `planes[p]` holds bit `p` of every vertex code; tail bits past
    /// `len` stay zero.
    planes: Vec<Vec<u64>>,
    plane_count: usize,
    len: usize,
    words: usize,
    cols: usize,
    /// Distinct colours of the initial configuration in ascending order;
    /// a vertex's code is its colour's position here.
    palette: Vec<Color>,
    /// Vertices currently holding each code (incremental census).
    census: Vec<usize>,
    /// Per-word evaluation class (vector kernel, patched vector kernel,
    /// or exact per-vertex fallback).
    class: Vec<WordClass>,
    /// Word-granular dirty propagation: `mark_words[mark_offsets[w]..
    /// mark_offsets[w + 1]]` are the *other* words holding a neighbour of
    /// some vertex of word `w`, so a changed word marks a handful of words
    /// instead of walking the CSR per flip.
    mark_offsets: Vec<u32>,
    mark_words: Vec<u32>,
    /// Tile geometry `(rows, words_per_row)` when the torus rows are
    /// word-aligned; `None` keeps full sweeps in linear word order.
    tile_geometry: Option<(usize, usize)>,
    decision: Decision,
    locked_code: Option<u8>,
    worklist: Worklist,
    /// The last step's patches, at most one per word.
    patches: Vec<Patch>,
    /// Whether the last step ran the full tiled sweep rather than the
    /// worklist path.
    last_dense: bool,
    /// Vertices examined last step (64 per evaluated word).
    last_cells_evaluated: u64,
    /// Number of vertices changed by the last step.
    flipped: usize,
}

impl PlaneLane {
    /// Compiles a configuration and rule into a plane lane.
    ///
    /// `cols` is the torus row stride used to recognise interior words
    /// (pass the column count of the grid; any value is *safe* — words
    /// not matching the interior pattern just take the exact per-vertex
    /// path).  Returns `None` when the configuration has no vertices or
    /// more than 16 distinct colours, or when the rule could introduce a
    /// colour outside the initial palette (an absent activation colour
    /// with a zero threshold), in which cases the caller should stay on
    /// the generic backend.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency and configuration lengths differ.
    pub fn from_colors(
        adjacency: &Adjacency,
        cols: usize,
        colors: &[Color],
        rule: &ColorCountRule,
    ) -> Option<PlaneLane> {
        let len = colors.len();
        assert_eq!(
            adjacency.node_count(),
            len,
            "adjacency does not match the configuration"
        );
        let mut palette: Vec<Color> = colors.to_vec();
        palette.sort_unstable();
        palette.dedup();
        if palette.is_empty() || palette.len() > MAX_PALETTE {
            return None;
        }
        let code_of_color = |c: Color| palette.binary_search(&c).ok().map(|i| i as u8);
        let decision = match rule.form() {
            ColorCountForm::Plurality { min_pair } => Decision::Plurality { min_pair },
            ColorCountForm::Activation { active, threshold } => {
                let code = code_of_color(active);
                if code.is_none() && threshold == 0 {
                    // Would recolour everything to a colour outside the
                    // palette in round one — not representable in codes.
                    return None;
                }
                Decision::Activation { code, threshold }
            }
            // Future plane-evaluable forms fall back to the generic lane.
            _ => return None,
        };
        // A locked colour nobody holds can never matter.
        let locked_code = rule.locked().and_then(code_of_color);

        let k = palette.len();
        let plane_count = if k <= 2 {
            1
        } else {
            (usize::BITS - (k - 1).leading_zeros()) as usize
        };
        let words = len.div_ceil(64);
        let mut planes = vec![vec![0u64; words]; plane_count];
        let mut census = vec![0usize; k];
        for (v, &c) in colors.iter().enumerate() {
            let code = code_of_color(c).expect("every colour is in the palette");
            census[code as usize] += 1;
            for (p, plane) in planes.iter_mut().enumerate() {
                if (code >> p) & 1 == 1 {
                    plane[v >> 6] |= 1u64 << (v & 63);
                }
            }
        }

        // Classify words against the shared interior CSR pattern
        // [v-cols, v+cols, v-1, v+1].  Computed in i64 so grid-edge
        // vertices (whose wrapped neighbours differ per torus kind) can
        // never match accidentally.  A full word whose only deviations are
        // one west and/or one east lane (a row-wrap column) still takes
        // the vector kernel with those lanes patched; the matching
        // vertical pattern guarantees every gather it performs stays in
        // bounds (base >= cols and base + 64 <= len - cols).
        let mut class = vec![WordClass::Slow; words];
        if cols > 0 {
            let stride = cols as i64;
            'words: for (w, slot) in class.iter_mut().enumerate() {
                let start = w * 64;
                if start + 64 > len {
                    continue;
                }
                let mut west_fix: Option<(u8, u32)> = None;
                let mut east_fix: Option<(u8, u32)> = None;
                for v in start..start + 64 {
                    let nbrs = adjacency.neighbors_raw(v);
                    let vi = v as i64;
                    if nbrs.len() != 4
                        || i64::from(nbrs[0]) != vi - stride
                        || i64::from(nbrs[1]) != vi + stride
                    {
                        continue 'words;
                    }
                    let lane = (v - start) as u8;
                    if i64::from(nbrs[2]) != vi - 1 {
                        if west_fix.is_some() {
                            continue 'words;
                        }
                        west_fix = Some((lane, nbrs[2]));
                    }
                    if i64::from(nbrs[3]) != vi + 1 {
                        if east_fix.is_some() {
                            continue 'words;
                        }
                        east_fix = Some((lane, nbrs[3]));
                    }
                }
                *slot = match (west_fix, east_fix) {
                    (None, None) => WordClass::Fast,
                    (west, east) => WordClass::Wrap { west, east },
                };
            }
        }

        // The word-granular dirty table: which other words hold a
        // neighbour of some vertex of each word.
        let mut mark_offsets = vec![0u32; words + 1];
        let mut mark_words: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        for w in 0..words {
            scratch.clear();
            let start = w * 64;
            for v in start..(start + 64).min(len) {
                for &u in adjacency.neighbors_raw(v) {
                    let uw = u >> 6;
                    if uw as usize != w && !scratch.contains(&uw) {
                        scratch.push(uw);
                    }
                }
            }
            mark_words.extend_from_slice(&scratch);
            mark_offsets[w + 1] = mark_words.len() as u32;
        }
        let tile_geometry = if cols >= 64 && cols.is_multiple_of(64) && len.is_multiple_of(cols) {
            Some((len / cols, cols / 64))
        } else {
            None
        };

        Some(PlaneLane {
            planes,
            plane_count,
            len,
            words,
            cols,
            palette,
            census,
            class,
            mark_offsets,
            mark_words,
            tile_geometry,
            decision,
            locked_code,
            worklist: Worklist::new(words),
            patches: Vec::new(),
            last_dense: false,
            last_cells_evaluated: 0,
            flipped: 0,
        })
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the lane has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distinct colours of the initial configuration, ascending.  The
    /// palette is closed under the compiled rule, so it never changes.
    pub fn palette(&self) -> &[Color] {
        &self.palette
    }

    /// Number of bit planes in use (`⌈log₂ |palette|⌉`, at least 1).
    pub fn plane_count(&self) -> usize {
        self.plane_count
    }

    /// The current colour of vertex `v`.
    #[inline]
    pub fn color_at(&self, v: usize) -> Color {
        self.palette[self.code_of(v) as usize]
    }

    /// Number of vertices currently holding `k` (O(log palette)).
    pub fn count_of(&self, k: Color) -> usize {
        match self.palette.binary_search(&k) {
            Ok(code) => self.census[code],
            Err(_) => 0,
        }
    }

    /// The `(colour, count)` pairs of every colour currently present, in
    /// ascending colour order — O(palette), straight off the census.
    pub fn histogram(&self) -> Vec<(Color, usize)> {
        self.palette
            .iter()
            .zip(&self.census)
            .filter(|&(_, &n)| n > 0)
            .map(|(&c, &n)| (c, n))
            .collect()
    }

    /// The monochromatic colour, if every vertex holds the same one
    /// (O(palette)).
    pub fn monochromatic(&self) -> Option<Color> {
        if self.is_empty() {
            return None;
        }
        self.census
            .iter()
            .position(|&n| n == self.len)
            .map(|code| self.palette[code])
    }

    /// Materialises the configuration as one colour per vertex.
    pub fn snapshot(&self) -> Vec<Color> {
        (0..self.len).map(|v| self.color_at(v)).collect()
    }

    /// The `(vertex, old colour, new colour)` changes of the last
    /// [`PlaneLane::step`] call, derived lazily from the retained patches
    /// so the hot apply loop never materialises per-flip tuples.
    pub fn flips(&self) -> impl Iterator<Item = (u32, Color, Color)> + '_ {
        let pc = self.plane_count;
        self.patches.iter().flat_map(move |patch| {
            let base = patch.word as usize * 64;
            let mut mask = patch.changed;
            std::iter::from_fn(move || {
                if mask == 0 {
                    return None;
                }
                let bit = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (mut old, mut new) = (0u8, 0u8);
                for p in 0..pc {
                    old |= (((patch.old[p] >> bit) & 1) as u8) << p;
                    new |= (((patch.new[p] >> bit) & 1) as u8) << p;
                }
                Some((
                    (base + bit) as u32,
                    self.palette[old as usize],
                    self.palette[new as usize],
                ))
            })
        })
    }

    /// Number of vertices changed by the last [`PlaneLane::step`] call.
    pub fn flip_count(&self) -> usize {
        self.flipped
    }

    /// Pins every future round to a full sweep (the benchmark baseline
    /// and the fallback for non-local rules).
    pub fn set_always_full(&mut self) {
        self.worklist.set_always_full();
    }

    /// `(dense rounds, sparse rounds, cells evaluated)` of the last step —
    /// the hybrid crossover's per-round decision record: exactly one of
    /// the first two is 1.
    pub(crate) fn last_step_profile(&self) -> (u32, u32, u64) {
        let dense = u32::from(self.last_dense);
        (dense, 1 - dense, self.last_cells_evaluated)
    }

    /// The current code of vertex `v` (its colour's palette position).
    #[inline]
    fn code_of(&self, v: usize) -> u8 {
        let (w, b) = (v >> 6, v & 63);
        let mut code = 0u8;
        for (p, plane) in self.planes.iter().enumerate() {
            code |= (((plane[w] >> b) & 1) as u8) << p;
        }
        code
    }

    /// Evaluates one word against the pre-round planes.
    fn eval_word(&self, adjacency: &Adjacency, w: u32) -> Option<Patch> {
        match self.class[w as usize] {
            WordClass::Fast => self.eval_vector(w, None, None),
            WordClass::Wrap { west, east } => self.eval_vector(w, west, east),
            WordClass::Slow => self.eval_slow(adjacency, w),
        }
    }

    /// Replaces one lane of a gathered word set with the bit of its true
    /// source vertex (the explicit wrap handling of row-wrap columns).
    #[inline(always)]
    fn patch_lane(planes: &[Vec<u64>], words: &mut [u64; MAX_PLANES], lane: u8, src: u32) {
        let (q, r) = ((src >> 6) as usize, src & 63);
        let mask = 1u64 << lane;
        for (p, plane) in planes.iter().enumerate() {
            let bit = (plane[q] >> r) & 1;
            words[p] = (words[p] & !mask) | (bit << lane);
        }
    }

    /// The vectorised kernel: 64 vertices in one pass of word ops, valid
    /// because fast and wrap words are full and share the interior
    /// neighbour pattern (degree exactly 4) up to the patched lanes.
    fn eval_vector(
        &self,
        w: u32,
        west: Option<(u8, u32)>,
        east: Option<(u8, u32)>,
    ) -> Option<Patch> {
        let wi = w as usize;
        let base = wi * 64;
        let pc = self.plane_count;
        let k = self.palette.len();

        let mut own = [0u64; MAX_PLANES];
        for (p, plane) in self.planes.iter().enumerate() {
            own[p] = plane[wi];
        }
        // One gathered word set per direction.  Classification guarantees
        // base >= cols and base >= 1, and that every gathered bit index is
        // a valid vertex, so the funnel shifts stay in bounds.
        let bases = [base - self.cols, base + self.cols, base - 1, base + 1];
        let mut nb = [[0u64; MAX_PLANES]; 4];
        for (d, &b) in bases.iter().enumerate() {
            for (p, plane) in self.planes.iter().enumerate() {
                nb[d][p] = gather(plane, b);
            }
        }
        if let Some((lane, src)) = west {
            Self::patch_lane(&self.planes, &mut nb[2], lane, src);
        }
        if let Some((lane, src)) = east {
            Self::patch_lane(&self.planes, &mut nb[3], lane, src);
        }

        let mut changed = 0u64;
        let mut adopted = [0u64; MAX_PLANES];
        let mut adopt_code = |code: usize, adopt: u64, changed: &mut u64| {
            let effective = adopt & !indicator(&own, pc, code);
            if effective != 0 {
                *changed |= effective;
                for (p, slot) in adopted.iter_mut().enumerate().take(pc) {
                    if (code >> p) & 1 == 1 {
                        *slot |= effective;
                    }
                }
            }
        };

        match self.decision {
            Decision::Plurality { min_pair } if min_pair <= 2 => {
                // On degree 4 a unique plurality of one is impossible
                // (four singletons tie), so min_pair <= 2 all behave as 2:
                // adopt on counts 4, 3-1 and 2-1-1; keep on 2-2 ties.
                let mut ge2 = [0u64; MAX_PALETTE];
                let mut ge3 = [0u64; MAX_PALETTE];
                let mut any2 = 0u64;
                let mut dup2 = 0u64;
                for code in 0..k {
                    let (hi, mid, low) = count4(
                        indicator(&nb[0], pc, code),
                        indicator(&nb[1], pc, code),
                        indicator(&nb[2], pc, code),
                        indicator(&nb[3], pc, code),
                    );
                    let g2 = hi | mid;
                    ge2[code] = g2;
                    ge3[code] = hi | (mid & low);
                    dup2 |= any2 & g2;
                    any2 |= g2;
                }
                for code in 0..k {
                    // A pair is the unique plurality iff no *other* colour
                    // also reaches two: either two colours reached two
                    // (dup2) or some colour did and it is not this one.
                    let other_pair = dup2 | (any2 & !ge2[code]);
                    let adopt = ge3[code] | (ge2[code] & !ge3[code] & !other_pair);
                    adopt_code(code, adopt, &mut changed);
                }
            }
            Decision::Plurality { min_pair } => {
                // min_pair 3 or 4 of four neighbours is automatically a
                // unique plurality; 5+ can never fire on degree 4.
                if (3..=4).contains(&min_pair) {
                    for code in 0..k {
                        let (hi, mid, low) = count4(
                            indicator(&nb[0], pc, code),
                            indicator(&nb[1], pc, code),
                            indicator(&nb[2], pc, code),
                            indicator(&nb[3], pc, code),
                        );
                        let adopt = if min_pair == 3 { hi | (mid & low) } else { hi };
                        adopt_code(code, adopt, &mut changed);
                    }
                }
            }
            Decision::Activation {
                code: Some(active),
                threshold,
            } => {
                let code = active as usize;
                let (hi, mid, low) = count4(
                    indicator(&nb[0], pc, code),
                    indicator(&nb[1], pc, code),
                    indicator(&nb[2], pc, code),
                    indicator(&nb[3], pc, code),
                );
                let reached = match threshold {
                    0 => !0u64,
                    1 => hi | mid | low,
                    2 => hi | mid,
                    3 => hi | (mid & low),
                    4 => hi,
                    _ => 0,
                };
                adopt_code(code, reached, &mut changed);
            }
            // Activation colour absent with a positive threshold: inert.
            Decision::Activation { code: None, .. } => {}
        }

        if let Some(locked) = self.locked_code {
            changed &= !indicator(&own, pc, locked as usize);
        }
        if changed == 0 {
            return None;
        }
        let mut new = [0u64; MAX_PLANES];
        for p in 0..pc {
            new[p] = (own[p] & !changed) | (adopted[p] & changed);
        }
        Some(Patch {
            word: w,
            changed,
            old: own,
            new,
        })
    }

    /// The exact per-vertex path for boundary words, the partial tail
    /// word and non-torus structure: counts neighbour codes straight off
    /// the CSR, at any degree.
    fn eval_slow(&self, adjacency: &Adjacency, w: u32) -> Option<Patch> {
        let wi = w as usize;
        let start = wi * 64;
        let end = (start + 64).min(self.len);
        let mut changed = 0u64;
        let mut old = [0u64; MAX_PLANES];
        for (p, plane) in self.planes.iter().enumerate() {
            old[p] = plane[wi];
        }
        let mut new = old;
        for v in start..end {
            let own = self.code_of(v);
            let mut counts = [0u32; MAX_PALETTE];
            for &u in adjacency.neighbors_raw(v) {
                counts[self.code_of(u as usize) as usize] += 1;
            }
            let next = self.decide_one(own, &counts);
            if next != own {
                let bit = 1u64 << (v - start);
                changed |= bit;
                for (p, slot) in new.iter_mut().enumerate().take(self.plane_count) {
                    if (next >> p) & 1 == 1 {
                        *slot |= bit;
                    } else {
                        *slot &= !bit;
                    }
                }
            }
        }
        (changed != 0).then_some(Patch {
            word: w,
            changed,
            old,
            new,
        })
    }

    /// The compiled rule on one vertex's per-code neighbour counts —
    /// the reference [`ColorCountRule::next_color`] in code space.
    fn decide_one(&self, own: u8, counts: &[u32; MAX_PALETTE]) -> u8 {
        if self.locked_code == Some(own) {
            return own;
        }
        match self.decision {
            Decision::Plurality { min_pair } => {
                let mut best: Option<(u8, u32)> = None;
                let mut tied = false;
                for (code, &n) in counts.iter().enumerate().take(self.palette.len()) {
                    if n == 0 {
                        continue;
                    }
                    match best {
                        Some((_, b)) if n > b => {
                            best = Some((code as u8, n));
                            tied = false;
                        }
                        Some((_, b)) if n == b => tied = true,
                        None => best = Some((code as u8, n)),
                        _ => {}
                    }
                }
                match best {
                    Some((code, n)) if !tied && n >= min_pair => code,
                    _ => own,
                }
            }
            Decision::Activation {
                code: Some(active),
                threshold,
            } => {
                if own == active || counts[active as usize] < threshold {
                    own
                } else {
                    active
                }
            }
            Decision::Activation { code: None, .. } => own,
        }
    }

    /// The full sweep over every word, in cache tiles when the torus rows
    /// are word-aligned and in linear word order otherwise.
    fn eval_dense(&self, adjacency: &Adjacency, out: &mut Vec<Patch>, delta: &mut RoundDelta) {
        let pc = self.plane_count;
        let k = self.palette.len();
        match self.tile_geometry {
            Some((rows, words_per_row)) => {
                for tile_row in (0..rows).step_by(TILE_ROWS) {
                    for tile_col in (0..words_per_row).step_by(TILE_WORD_COLS) {
                        for r in tile_row..(tile_row + TILE_ROWS).min(rows) {
                            for wc in tile_col..(tile_col + TILE_WORD_COLS).min(words_per_row) {
                                let w = (r * words_per_row + wc) as u32;
                                if let Some(p) = self.eval_word(adjacency, w) {
                                    delta.account(&p, pc, k);
                                    out.push(p);
                                }
                            }
                        }
                    }
                }
            }
            None => {
                for w in 0..self.words as u32 {
                    if let Some(p) = self.eval_word(adjacency, w) {
                        delta.account(&p, pc, k);
                        out.push(p);
                    }
                }
            }
        }
    }

    /// The worklist path over the round's candidate words.
    fn eval_candidates(&self, adjacency: &Adjacency, out: &mut Vec<Patch>, delta: &mut RoundDelta) {
        let pc = self.plane_count;
        let k = self.palette.len();
        for &w in self.worklist.candidates() {
            if let Some(p) = self.eval_word(adjacency, w) {
                delta.account(&p, pc, k);
                out.push(p);
            }
        }
    }

    /// Executes one synchronous round and returns the number of changed
    /// vertices.
    ///
    /// The first round after construction evaluates every word; later
    /// rounds evaluate only the dirty words (words holding last round's
    /// flips or their neighbours).  Each round chooses dense or sparse
    /// execution: once the candidate list covers ≳62.5 % of the words,
    /// the round re-runs the full tiled sweep instead of chasing the
    /// worklist, which is exact because a word absent from the worklist
    /// cannot change (its evaluation is a no-op), so the dense superset
    /// yields the identical patch set.  Changes are available through
    /// [`PlaneLane::flips`] until the next step.
    pub fn step(&mut self, adjacency: &Adjacency) -> usize {
        assert_eq!(
            adjacency.node_count(),
            self.len,
            "adjacency does not match the lane"
        );
        let candidates = self.worklist.candidates().len();
        // The hybrid dense/sparse crossover: the worklist path costs
        // roughly a per-candidate dispatch that the tiled sweep amortises
        // away, so once the candidates pass ~5/8 of the words the full
        // sweep is cheaper (calibrated on the BENCH_6 scatter workloads,
        // where near-full candidate lists made sparse k=8 rounds pay the
        // 3-plane gather tax word by word).
        let dense = self.worklist.is_full_round() || candidates * 8 >= self.words * 5;

        // Evaluate against the frozen pre-round planes.
        let mut patches = std::mem::take(&mut self.patches);
        patches.clear();
        let mut delta = RoundDelta::default();
        if dense {
            self.eval_dense(adjacency, &mut patches, &mut delta);
        } else {
            self.eval_candidates(adjacency, &mut patches, &mut delta);
        }

        // Apply: flips and census movement are already counted, so only
        // the new plane words are written (each word has at most one
        // patch, so order is irrelevant).
        self.flipped = delta.flips;
        for (slot, &moved) in self.census.iter_mut().zip(&delta.census) {
            *slot = (*slot as i64 + moved) as usize;
        }
        for patch in &patches {
            let wi = patch.word as usize;
            for (p, plane) in self.planes.iter_mut().enumerate() {
                plane[wi] = patch.new[p];
            }
        }
        self.last_dense = dense;
        self.last_cells_evaluated = if dense { self.words } else { candidates } as u64 * 64;
        self.patches = patches;

        self.worklist.begin_next();
        if !self.worklist.always_full() {
            // Word-granular propagation: a changed word dirties itself and
            // the handful of words holding neighbours of its vertices
            // (a safe superset of the per-flip marks, with no CSR walk).
            for patch in &self.patches {
                let w = patch.word;
                self.worklist.mark(w);
                let from = self.mark_offsets[w as usize] as usize;
                let to = self.mark_offsets[w as usize + 1] as usize;
                for &u in &self.mark_words[from..to] {
                    self.worklist.mark(u);
                }
            }
        }
        self.worklist.finish_round();
        self.flipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_topology::{Torus, TorusKind};

    fn c(i: u16) -> Color {
        Color::new(i)
    }

    /// A deterministic pseudo-random colouring over `palette` colours.
    fn scatter_colors(n: usize, palette: u16, seed: u64) -> Vec<Color> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                // xorshift64
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                c(1 + (x % u64::from(palette)) as u16)
            })
            .collect()
    }

    /// Reference: one synchronous full-sweep round through the compiled
    /// rule's scalar evaluator.
    fn reference_round(
        adjacency: &Adjacency,
        rule: &ColorCountRule,
        colors: &[Color],
    ) -> Vec<Color> {
        (0..colors.len())
            .map(|v| {
                let counts: Vec<(Color, u32)> = {
                    let mut acc: Vec<(Color, u32)> = Vec::new();
                    for &u in adjacency.neighbors_raw(v) {
                        let cu = colors[u as usize];
                        match acc.iter_mut().find(|(cc, _)| *cc == cu) {
                            Some((_, n)) => *n += 1,
                            None => acc.push((cu, 1)),
                        }
                    }
                    acc
                };
                rule.next_color(colors[v], &counts)
            })
            .collect()
    }

    fn check_lane_matches_reference(
        kind: TorusKind,
        m: usize,
        n: usize,
        palette: u16,
        rule: ColorCountRule,
    ) {
        let torus = Torus::new(kind, m, n);
        let adjacency = Adjacency::from_torus(&torus);
        let mut colors = scatter_colors(m * n, palette, 0x5EED ^ (m * 31 + n) as u64);
        let mut lane =
            PlaneLane::from_colors(&adjacency, n, &colors, &rule).expect("palette fits the lane");
        for round in 0..12 {
            let expected = reference_round(&adjacency, &rule, &colors);
            let flips = lane.step(&adjacency);
            let changed = expected.iter().zip(&colors).filter(|(a, b)| a != b).count();
            assert_eq!(flips, changed, "flip count diverges at round {round}");
            assert_eq!(lane.snapshot(), expected, "state diverges at round {round}");
            colors = expected;
        }
    }

    #[test]
    fn plurality_matches_scalar_reference_on_all_kinds() {
        for kind in TorusKind::ALL {
            // 65 columns: every word contains a wrap column, so the whole
            // torus takes the exact per-vertex path.
            check_lane_matches_reference(kind, 8, 65, 5, ColorCountRule::plurality(2));
            // 256 columns: interior rows hold genuinely fast words, so the
            // vectorised kernel and the boundary path are checked against
            // each other through the shared reference.
            check_lane_matches_reference(kind, 8, 256, 5, ColorCountRule::plurality(2));
            check_lane_matches_reference(kind, 6, 9, 3, ColorCountRule::plurality(2));
        }
    }

    #[test]
    fn activation_matches_scalar_reference() {
        for kind in TorusKind::ALL {
            check_lane_matches_reference(kind, 7, 64, 4, ColorCountRule::activation(c(1), 2));
        }
    }

    #[test]
    fn locked_colors_freeze_their_holders() {
        check_lane_matches_reference(
            TorusKind::ToroidalMesh,
            6,
            66,
            4,
            ColorCountRule::plurality(2).with_locked(c(2)),
        );
    }

    #[test]
    fn higher_min_pair_forms_match() {
        for min_pair in [3, 4, 5] {
            check_lane_matches_reference(
                TorusKind::TorusCordalis,
                5,
                70,
                6,
                ColorCountRule::plurality(min_pair),
            );
        }
    }

    #[test]
    fn census_and_histogram_stay_consistent() {
        let torus = Torus::new(TorusKind::ToroidalMesh, 8, 64);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(8 * 64, 7, 99);
        let rule = ColorCountRule::plurality(2);
        let mut lane = PlaneLane::from_colors(&adjacency, 64, &colors, &rule).unwrap();
        for _ in 0..8 {
            lane.step(&adjacency);
            let snapshot = lane.snapshot();
            for &color in lane.palette() {
                let expected = snapshot.iter().filter(|&&x| x == color).count();
                assert_eq!(lane.count_of(color), expected);
            }
            let histogram = lane.histogram();
            assert!(histogram.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(histogram.iter().map(|&(_, n)| n).sum::<usize>(), lane.len());
        }
        assert_eq!(lane.count_of(c(200)), 0);
    }

    #[test]
    fn frontier_and_full_sweep_agree() {
        let torus = Torus::new(TorusKind::TorusSerpentinus, 9, 67);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(9 * 67, 4, 7);
        let rule = ColorCountRule::plurality(2);
        let mut frontier = PlaneLane::from_colors(&adjacency, 67, &colors, &rule).unwrap();
        let mut full = PlaneLane::from_colors(&adjacency, 67, &colors, &rule).unwrap();
        full.set_always_full();
        for round in 0..20 {
            let a = frontier.step(&adjacency);
            let b = full.step(&adjacency);
            assert_eq!(a, b, "flip counts diverge at round {round}");
            assert_eq!(
                frontier.snapshot(),
                full.snapshot(),
                "states diverge at round {round}"
            );
        }
    }

    #[test]
    fn hybrid_dense_rounds_match_the_sparse_path() {
        // A quiescing pattern: one active block in a monochrome sea.  The
        // first frontier rounds are near-full (dense crossover fires),
        // later rounds go sparse; an always-full lane pins the reference.
        let torus = Torus::new(TorusKind::ToroidalMesh, 16, 64);
        let adjacency = Adjacency::from_torus(&torus);
        let mut colors = vec![c(1); 16 * 64];
        for (i, slot) in colors.iter_mut().enumerate().take(6 * 64).skip(4 * 64) {
            if i % 3 == 0 {
                *slot = c(2);
            }
        }
        let rule = ColorCountRule::plurality(2);
        let mut hybrid = PlaneLane::from_colors(&adjacency, 64, &colors, &rule).unwrap();
        let mut full = PlaneLane::from_colors(&adjacency, 64, &colors, &rule).unwrap();
        full.set_always_full();
        let mut saw_dense = false;
        let mut saw_sparse = false;
        for round in 0..24 {
            let a = hybrid.step(&adjacency);
            let b = full.step(&adjacency);
            assert_eq!(a, b, "flip counts diverge at round {round}");
            assert_eq!(hybrid.snapshot(), full.snapshot());
            let (dense, sparse, cells) = hybrid.last_step_profile();
            assert_eq!(dense + sparse, 1, "one decision per round");
            assert!(cells <= (hybrid.words as u64) * 64);
            saw_dense |= dense > 0;
            saw_sparse |= sparse > 0;
        }
        assert!(saw_dense, "the dense crossover never fired");
        assert!(saw_sparse, "the sparse path never ran");
    }

    #[test]
    fn oversized_palettes_are_rejected() {
        let torus = Torus::new(TorusKind::ToroidalMesh, 5, 5);
        let adjacency = Adjacency::from_torus(&torus);
        let colors: Vec<Color> = (0..25).map(|v| c(1 + (v % 17) as u16)).collect();
        assert!(
            PlaneLane::from_colors(&adjacency, 5, &colors, &ColorCountRule::plurality(2)).is_none()
        );
    }

    #[test]
    fn absent_zero_threshold_activation_is_rejected() {
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 4);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = vec![c(1); 16];
        // Active colour 9 is absent; threshold 0 would recolour everything
        // to it — outside the palette, so the lane must refuse.
        assert!(PlaneLane::from_colors(
            &adjacency,
            4,
            &colors,
            &ColorCountRule::activation(c(9), 0)
        )
        .is_none());
        // With a positive threshold the lane is simply inert.
        let mut lane =
            PlaneLane::from_colors(&adjacency, 4, &colors, &ColorCountRule::activation(c(9), 1))
                .unwrap();
        assert_eq!(lane.step(&adjacency), 0);
        assert_eq!(lane.monochromatic(), Some(c(1)));
    }

    #[test]
    fn interior_words_are_classified_on_all_kinds() {
        // On a 8x256 torus rows are four words wide and rows 1..=6 avoid
        // the vertical wrap.  On the toroidal mesh the row wrap breaks the
        // linear pattern at columns 0 and 255, so the two middle words of
        // each interior row are fast and the two edge words take the
        // vector kernel with one patched lane each; on the chordal tori
        // the wrap of (i, 0) is literally vertex v-1 (and of (i, n-1)
        // vertex v+1), so whole interior rows are fast with no patching.
        for (kind, expected_fast, expected_wrap) in [
            (TorusKind::ToroidalMesh, 6 * 2, 6 * 2),
            (TorusKind::TorusCordalis, 6 * 4, 0),
            (TorusKind::TorusSerpentinus, 6 * 4, 0),
        ] {
            let torus = Torus::new(kind, 8, 256);
            let adjacency = Adjacency::from_torus(&torus);
            let colors = scatter_colors(8 * 256, 3, 3);
            let lane =
                PlaneLane::from_colors(&adjacency, 256, &colors, &ColorCountRule::plurality(2))
                    .unwrap();
            let fast_words = lane.class.iter().filter(|&&c| c == WordClass::Fast).count();
            let wrap_words = lane
                .class
                .iter()
                .filter(|&&c| matches!(c, WordClass::Wrap { .. }))
                .count();
            assert_eq!(fast_words, expected_fast, "{kind:?}: fast-word census");
            assert_eq!(wrap_words, expected_wrap, "{kind:?}: wrap-word census");
            // Row 0 and the last row always touch a vertical wrap.
            assert_eq!(lane.class[0], WordClass::Slow);
            assert_eq!(lane.class[lane.words - 1], WordClass::Slow);
        }
    }

    #[test]
    fn mesh_wrap_words_patch_the_wrap_columns() {
        // First word of an interior toroidal-mesh row: lane 0 is column 0,
        // whose west neighbour wraps to (row, n-1); the last word's lane
        // 63 is column n-1, whose east neighbour wraps to (row, 0).
        let torus = Torus::new(TorusKind::ToroidalMesh, 4, 128);
        let adjacency = Adjacency::from_torus(&torus);
        let colors = scatter_colors(4 * 128, 3, 11);
        let lane = PlaneLane::from_colors(&adjacency, 128, &colors, &ColorCountRule::plurality(2))
            .unwrap();
        // Row 1 spans words 2 and 3.
        assert_eq!(
            lane.class[2],
            WordClass::Wrap {
                west: Some((0, 128 + 127)),
                east: None,
            }
        );
        assert_eq!(
            lane.class[3],
            WordClass::Wrap {
                west: None,
                east: Some((63, 128)),
            }
        );
    }
}
