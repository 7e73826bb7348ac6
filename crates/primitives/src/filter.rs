//! Blocked Bloom filter for per-level membership pre-tests.
//!
//! The paper's lookup probes every occupied level with a binary search, so a
//! miss pays `O(levels · log n)` random accesses; §VI names per-level
//! filters as the natural remedy it leaves unexplored.  This module provides
//! the GPU-friendly variant: a **blocked** Bloom filter (Putze, Sanders &
//! Singler's "cache-, hash- and space-efficient Bloom filters"), where every
//! key hashes to exactly **one cache-line-sized block** and all of its probe
//! bits live inside that block.  A membership test therefore costs a single
//! 64-byte read — on the modelled GPU, one coalesced memory transaction per
//! warp of queries — instead of `k` scattered ones.
//!
//! Sizing is a parameter of every build (bits per key; `0` builds no
//! filter).  The LSM passes the sizing each structure was configured with,
//! [`DEFAULT_BITS_PER_KEY`] unless its config or `LSM_BLOOM_BITS` says
//! otherwise, so two structures in one process can size their filters
//! differently.  The false-positive rate at the default sizing is pinned
//! below 5 % by a unit test; filters are *conservative by construction* — a
//! negative answer is definitive, a positive answer only means "search the
//! level" — so enabling or disabling them can never change query results,
//! only query cost.

use std::sync::Arc;

/// Words per filter block: 8 × `u64` = 64 bytes = 512 bits, one cache line
/// (and one coalesced transaction on the modelled device).
pub const BLOCK_WORDS: usize = 8;

/// Bytes per filter block.
pub const BLOCK_BYTES: usize = BLOCK_WORDS * 8;

/// Bits per filter block.
const BLOCK_BITS: u32 = (BLOCK_BYTES * 8) as u32;

/// Default filter sizing in bits per key (≈ 3–4 % false positives with the
/// derived probe count; see [`probes_for_bits`]).
pub const DEFAULT_BITS_PER_KEY: u32 = 8;

/// Number of probe bits per key for a given bits-per-key sizing.  Smaller
/// than the information-theoretic optimum (`ln 2 · bits`) on purpose: filter
/// construction rides the insert path's merge pass, and below ~4 probes the
/// marginal false-positive improvement stops paying for the extra hashing.
pub fn probes_for_bits(bits_per_key: u32) -> u32 {
    ((bits_per_key * 35).div_ceil(100)).clamp(1, 6)
}

/// A blocked Bloom filter over 32-bit keys.
///
/// Immutable once built; cloning shares the bit array (levels are cloned
/// whenever the owning structure is, and the filter is read-only after
/// construction).
#[derive(Debug, Clone)]
pub struct BloomFilter {
    blocks: Arc<[u64]>,
    num_blocks: u64,
    probes: u32,
    bits_per_key: u32,
    /// Number of keys hashed into the bit array over the filter's whole
    /// history (build + unions + insertions) — the denominator of
    /// [`BloomFilter::effective_bits_per_key`].
    keys_covered: u64,
}

/// Mix a key into 64 well-distributed bits (splitmix64 finalizer).
#[inline]
fn mix(key: u32) -> u64 {
    let mut h = u64::from(key).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl BloomFilter {
    /// Build a filter sized at `bits_per_key` over `keys`.  Returns `None`
    /// when the sizing is zero (filters disabled) or the key set is empty.
    ///
    /// Construction cost is what the insert path pays, so the per-key work
    /// is kept minimal: one 64-bit mix, one block pick, and the probe bits
    /// sliced straight out of disjoint hash fields (no second hash, no
    /// modulo loop).
    pub fn build(keys: impl ExactSizeIterator<Item = u32>, bits_per_key: u32) -> Option<Self> {
        let n = keys.len();
        if bits_per_key == 0 || n == 0 {
            return None;
        }
        let num_blocks =
            ((n as u64 * u64::from(bits_per_key)).div_ceil(u64::from(BLOCK_BITS))).max(1);
        let probes = probes_for_bits(bits_per_key);
        let mut blocks = vec![0u64; num_blocks as usize * BLOCK_WORDS];
        for key in keys {
            Self::set_bits(&mut blocks, num_blocks, probes, key);
        }
        Some(BloomFilter {
            blocks: blocks.into(),
            num_blocks,
            probes,
            bits_per_key,
            keys_covered: n as u64,
        })
    }

    /// Set one key's probe bits in a mutable block array (the build /
    /// insertion kernel body).
    #[inline]
    fn set_bits(blocks: &mut [u64], num_blocks: u64, probes: u32, key: u32) {
        let h = mix(key);
        let base = Self::block_of(h, num_blocks) * BLOCK_WORDS;
        let block: &mut [u64; BLOCK_WORDS] = (&mut blocks[base..base + BLOCK_WORDS])
            .try_into()
            .expect("block slice has BLOCK_WORDS words");
        for i in 0..probes {
            let bit = Self::probe_bit(h, i);
            block[(bit >> 6) as usize] |= 1u64 << (bit & 63);
        }
    }

    /// Union two filters of **identical geometry** (same block count and
    /// probe count) by OR-ing their bit arrays: the result answers `true`
    /// for every key either input covered — exactly the filter the union
    /// key set would hash to at this size, i.e. still no false negatives.
    ///
    /// Returns `None` when the geometries differ (the bit patterns are not
    /// compatible; callers fall back to a rebuild).  The union's false
    /// positive rate is that of the doubled load: check
    /// [`BloomFilter::effective_bits_per_key`] before accepting it.
    pub fn try_union(&self, other: &Self) -> Option<Self> {
        if self.num_blocks != other.num_blocks || self.probes != other.probes {
            return None;
        }
        let blocks: Vec<u64> = self
            .blocks
            .iter()
            .zip(other.blocks.iter())
            .map(|(&a, &b)| a | b)
            .collect();
        Some(BloomFilter {
            blocks: blocks.into(),
            num_blocks: self.num_blocks,
            probes: self.probes,
            bits_per_key: self.bits_per_key.min(other.bits_per_key),
            keys_covered: self.keys_covered + other.keys_covered,
        })
    }

    /// A copy of this filter with `keys` additionally hashed in (the
    /// one-sided *re-hash* merge: when only one of two merged runs carries
    /// a filter, cloning it and inserting the other run's keys hashes half
    /// the keys a full rebuild would).  Geometry is unchanged, so the load
    /// — and the false-positive rate — grows with every key added; callers
    /// police [`BloomFilter::effective_bits_per_key`].
    pub fn with_keys_inserted(&self, keys: impl ExactSizeIterator<Item = u32>) -> Self {
        let mut blocks: Vec<u64> = self.blocks.to_vec();
        let added = keys.len() as u64;
        for key in keys {
            Self::set_bits(&mut blocks, self.num_blocks, self.probes, key);
        }
        BloomFilter {
            blocks: blocks.into(),
            num_blocks: self.num_blocks,
            probes: self.probes,
            bits_per_key: self.bits_per_key,
            keys_covered: self.keys_covered + added,
        }
    }

    /// Bits of filter memory per covered key — the quantity that actually
    /// governs the false-positive rate after unions and insertions have
    /// raised the load beyond the build-time sizing.
    pub fn effective_bits_per_key(&self) -> f64 {
        let total_bits = (self.blocks.len() * 64) as f64;
        total_bits / self.keys_covered.max(1) as f64
    }

    /// Number of keys hashed into the filter over its whole history.
    pub fn keys_covered(&self) -> u64 {
        self.keys_covered
    }

    /// Fast unbiased-enough range reduction of the hash's high half.
    #[inline]
    fn block_of(h: u64, num_blocks: u64) -> usize {
        (((h >> 32) * num_blocks) >> 32) as usize
    }

    /// The `i`-th probe's bit position within the 512-bit block: disjoint
    /// 9-bit fields of the hash's low half for the first three probes
    /// (independent of the block-selecting high half), then odd-stride
    /// steps off the first field for the rare larger-`k` sizings.
    #[inline]
    fn probe_bit(h: u64, i: u32) -> u32 {
        if i < 3 {
            ((h >> (9 * i)) as u32) & (BLOCK_BITS - 1)
        } else {
            let step = (((h >> 27) as u32) & (BLOCK_BITS - 1)) | 1;
            ((h as u32).wrapping_add(i.wrapping_mul(step))) & (BLOCK_BITS - 1)
        }
    }

    /// Membership test.  `false` is definitive (the key was *not* in the
    /// build set); `true` may be a false positive.
    #[inline]
    pub fn contains(&self, key: u32) -> bool {
        let h = mix(key);
        let base = Self::block_of(h, self.num_blocks) * BLOCK_WORDS;
        let block: &[u64; BLOCK_WORDS] = self.blocks[base..base + BLOCK_WORDS]
            .try_into()
            .expect("block slice has BLOCK_WORDS words");
        for i in 0..self.probes {
            let bit = Self::probe_bit(h, i);
            if block[(bit >> 6) as usize] & (1u64 << (bit & 63)) == 0 {
                return false;
            }
        }
        true
    }

    /// Size of the bit array in bytes.
    pub fn size_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<u64>()
    }

    /// The bits-per-key sizing this filter was built with.
    pub fn bits_per_key(&self) -> u32 {
        self.bits_per_key
    }

    /// Number of probe bits checked per membership test.
    pub fn num_probes(&self) -> u32 {
        self.probes
    }

    /// Number of cache-line blocks in the bit array.
    pub fn num_blocks(&self) -> u64 {
        self.num_blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u32, seed: u32) -> Vec<u32> {
        // Distinct pseudo-random 31-bit keys (odd-multiplier permutation).
        (0..n)
            .map(|i| (i ^ seed).wrapping_mul(2_654_435_761) & 0x7FFF_FFFF)
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let members = keys(10_000, 7);
        let filter = BloomFilter::build(members.iter().copied(), DEFAULT_BITS_PER_KEY).unwrap();
        assert!(members.iter().all(|&k| filter.contains(k)));
    }

    #[test]
    fn false_positive_rate_under_five_percent_at_default_sizing() {
        let members = keys(20_000, 1);
        let member_set: std::collections::HashSet<u32> = members.iter().copied().collect();
        let filter = BloomFilter::build(members.iter().copied(), DEFAULT_BITS_PER_KEY).unwrap();
        let absent: Vec<u32> = keys(60_000, 999)
            .into_iter()
            .filter(|k| !member_set.contains(k))
            .take(40_000)
            .collect();
        let fp = absent.iter().filter(|&&k| filter.contains(k)).count();
        let rate = fp as f64 / absent.len() as f64;
        assert!(
            rate < 0.05,
            "false-positive rate {rate:.4} exceeds 5% at {DEFAULT_BITS_PER_KEY} bits/key"
        );
        // And the filter is not degenerate (everything-positive).
        assert!(rate >= 0.0);
    }

    #[test]
    fn zero_bits_or_empty_keys_build_nothing() {
        assert!(BloomFilter::build([1u32, 2].into_iter(), 0).is_none());
        assert!(BloomFilter::build(std::iter::empty(), 8).is_none());
    }

    #[test]
    fn size_follows_bits_per_key() {
        let members = keys(4_096, 3);
        let small = BloomFilter::build(members.iter().copied(), 4).unwrap();
        let large = BloomFilter::build(members.iter().copied(), 16).unwrap();
        assert!(large.size_bytes() > small.size_bytes());
        assert_eq!(small.size_bytes() % BLOCK_BYTES, 0);
        assert!(large.num_probes() >= small.num_probes());
        assert_eq!(small.bits_per_key(), 4);
    }

    #[test]
    fn probe_count_is_clamped() {
        assert_eq!(probes_for_bits(1), 1);
        assert_eq!(probes_for_bits(8), 3);
        assert!(probes_for_bits(64) <= 6);
    }

    #[test]
    fn union_covers_both_key_sets_and_tracks_load() {
        let a = keys(8_192, 11);
        let b = keys(8_192, 77);
        let fa = BloomFilter::build(a.iter().copied(), DEFAULT_BITS_PER_KEY).unwrap();
        let fb = BloomFilter::build(b.iter().copied(), DEFAULT_BITS_PER_KEY).unwrap();
        let union = fa.try_union(&fb).expect("same geometry");
        assert!(a.iter().chain(b.iter()).all(|&k| union.contains(k)));
        assert_eq!(union.keys_covered(), fa.keys_covered() + fb.keys_covered());
        assert_eq!(union.num_blocks(), fa.num_blocks());
        // The load doubled, so the effective sizing halved.
        assert!(union.effective_bits_per_key() <= fa.effective_bits_per_key() / 2.0 + 0.01);
        // Mismatched geometry is refused, not silently mangled.
        let small = BloomFilter::build(a.iter().take(100).copied(), DEFAULT_BITS_PER_KEY).unwrap();
        assert!(fa.try_union(&small).is_none());
        let other_probes = BloomFilter::build(a.iter().copied(), 16).unwrap();
        assert!(fa.try_union(&other_probes).is_none());
    }

    #[test]
    fn inserting_keys_preserves_membership_of_both_sides() {
        let old = keys(4_096, 5);
        let new = keys(4_096, 123);
        let filter = BloomFilter::build(old.iter().copied(), DEFAULT_BITS_PER_KEY).unwrap();
        let grown = filter.with_keys_inserted(new.iter().copied());
        assert!(old.iter().chain(new.iter()).all(|&k| grown.contains(k)));
        assert_eq!(grown.keys_covered(), 8_192);
        assert_eq!(grown.num_blocks(), filter.num_blocks());
        // The original is untouched (copy-on-write semantics).
        assert_eq!(filter.keys_covered(), 4_096);
    }
}
