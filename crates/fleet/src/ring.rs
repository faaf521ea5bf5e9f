//! Consistent-hash ring over backend slots.
//!
//! Each healthy backend contributes `virtual_nodes` points to a sorted
//! ring of 64-bit hashes; a spec key routes to the owner of the first
//! point at or clockwise-after the key's folded hash.  Virtual nodes
//! smooth the load split, and — the property the fleet's result caches
//! depend on — removing one backend only re-routes the keys that lived
//! on *its* points: every other key keeps its owner, so the surviving
//! backends' LRU caches stay hot across membership churn.

use ctori_engine::SpecKey;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string, the same family the engine uses for
/// [`SpecKey`] itself (64-bit here — ring points don't need 128 bits).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV64_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV64_PRIME);
    }
    hash
}

/// The SplitMix64 finaliser: every input bit reaches every output bit.
/// FNV-1a alone does not spread a change in the last byte of a label
/// (`…:7171#5` vs `…:7172#5`) into the high bits, so raw FNV points for
/// neighbouring addresses cluster and skew the arc shares.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Folds the engine's 128-bit spec key onto the 64-bit ring space.
fn fold(key: SpecKey) -> u64 {
    let k = key.as_u128();
    mix64((k ^ (k >> 64)) as u64)
}

/// A consistent-hash ring mapping [`SpecKey`]s to backend slot indices.
#[derive(Clone, Debug, Default)]
pub struct HashRing {
    /// Sorted `(point hash, slot index)` pairs.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds a ring from `(slot index, address)` members, each
    /// contributing `virtual_nodes` points derived from its address.
    pub fn build<'a>(
        members: impl IntoIterator<Item = (usize, &'a str)>,
        virtual_nodes: usize,
    ) -> HashRing {
        let mut points = Vec::new();
        for (slot, addr) in members {
            for v in 0..virtual_nodes.max(1) {
                let label = format!("{addr}#{v}");
                points.push((mix64(fnv1a64(label.as_bytes())), slot));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The slot index owning this key, or `None` on an empty ring.
    /// Deterministic: the same key on the same membership always routes
    /// to the same slot.
    pub fn route(&self, key: SpecKey) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let target = fold(key);
        let at = self.points.partition_point(|&(hash, _)| hash < target);
        let at = if at == self.points.len() { 0 } else { at };
        Some(self.points[at].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctori_engine::RunSpec;

    fn keys(n: usize) -> Vec<SpecKey> {
        (0..n)
            .map(|i| {
                RunSpec::from_text(&format!(
                    "topology: toroidal-mesh {}x{}\nrule: smp\nseed: checkerboard 1 2\n",
                    4 + i,
                    4 + i
                ))
                .unwrap()
                .canonical_key()
            })
            .collect()
    }

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:71{i:02}")).collect()
    }

    #[test]
    fn routing_is_deterministic() {
        let addrs = addrs(3);
        let members = || addrs.iter().enumerate().map(|(i, a)| (i, a.as_str()));
        let a = HashRing::build(members(), 64);
        let b = HashRing::build(members(), 64);
        for key in keys(40) {
            assert_eq!(a.route(key), b.route(key));
        }
    }

    #[test]
    fn removal_only_moves_the_departed_backends_keys() {
        let addrs = addrs(3);
        let full = HashRing::build(addrs.iter().enumerate().map(|(i, a)| (i, a.as_str())), 64);
        let without_1 = HashRing::build(
            addrs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != 1)
                .map(|(i, a)| (i, a.as_str())),
            64,
        );
        for key in keys(60) {
            let before = full.route(key).unwrap();
            let after = without_1.route(key).unwrap();
            if before != 1 {
                assert_eq!(before, after, "a surviving backend kept its keys");
            } else {
                assert_ne!(after, 1, "orphaned keys moved to a survivor");
            }
        }
    }

    #[test]
    fn virtual_nodes_spread_the_load() {
        let addrs = addrs(3);
        let ring = HashRing::build(addrs.iter().enumerate().map(|(i, a)| (i, a.as_str())), 64);
        let keys = keys(3000);
        let mut per_slot = [0usize; 3];
        for &key in &keys {
            per_slot[ring.route(key).unwrap()] += 1;
        }
        // A fair split is a third each; neighbouring ports must not
        // cluster their points into a lopsided one.
        for (slot, count) in per_slot.iter().enumerate() {
            let share = *count as f64 / keys.len() as f64;
            assert!(
                (0.20..=0.47).contains(&share),
                "slot {slot} owns {:.1}% of the keys: {per_slot:?}",
                100.0 * share
            );
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let ring = HashRing::default();
        assert!(ring.is_empty());
        assert_eq!(ring.route(keys(1)[0]), None);
    }
}
