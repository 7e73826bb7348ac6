//! Deterministic input generation: a splitmix64 PRNG, a zipf sampler, and
//! the per-workload batch, key and span generators.
//!
//! Every batch and every query call draws from its own stream, derived from
//! `(seed, stream id, index)`, so inputs depend only on the seed and on the
//! position in the run — never on timing or on how many rounds ran before.
//! Nothing here comes from the repository's workload crates: a later change
//! to those crates cannot change what this benchmark feeds the system.

use std::collections::HashSet;

use gpu_lsm::{Key, UpdateBatch, Value};

/// Stream ids: one per kind of input, so no two generators share a stream.
pub mod stream {
    /// Update batches of a workload's writer.
    pub const BATCH: u64 = 1;
    /// Lookup key sets.
    pub const LOOKUP: u64 = 2;
    /// Count/range span sets.
    pub const SPANS: u64 = 3;
    /// Base-table residency (read_bulk).
    pub const BASE: u64 = 4;
}

/// Share of update operations that are deletes, in every workload.
pub const DELETE_FRACTION: f64 = 0.2;

/// One splitmix64 step: the whole PRNG state is one `u64`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless 64-bit mix of two words (stream derivation, residency bits).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut s)
}

/// A splitmix64 generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The generator for item `index` of stream `stream` under `seed`.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Self {
        Rng(mix(mix(seed, stream), index))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by 128-bit multiply-high.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf sampler over ranks `0..n` with exponent `theta`, by inverse CDF
/// over an exact cumulative table (rank 0 is the most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the cumulative table for `n` ranks.
    pub fn new(n: usize, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c <= u) as u64).min(self.cdf.len() as u64 - 1)
    }
}

/// A key domain of `2^slots_log2` slots spread evenly over the 31-bit key
/// space (`key = slot << shift`), so uniform shards split it evenly and a
/// rank-ordered zipf domain puts its hot keys at the low end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    /// log2 of the slot count.
    pub slots_log2: u32,
}

impl Domain {
    /// Number of slots.
    pub fn slots(self) -> u64 {
        1 << self.slots_log2
    }

    /// Distance between adjacent slot keys.
    pub fn shift(self) -> u32 {
        31 - self.slots_log2
    }

    /// The key of a slot.
    pub fn key(self, slot: u64) -> Key {
        (slot << self.shift()) as Key
    }

    /// The slot of a key produced by [`Domain::key`].
    pub fn slot(self, key: Key) -> usize {
        (key >> self.shift()) as usize
    }

    /// The inclusive key span covering slots `lo..lo + width`, clamped to
    /// the domain.
    pub fn span(self, lo: u64, width: u64) -> (Key, Key) {
        let end = (lo + width).min(self.slots());
        (self.key(lo), ((end << self.shift()) - 1) as Key)
    }
}

/// Values carry an 8-bit tag derived from their key plus the sequence
/// number of the batch that wrote them, so a concurrent reader can check
/// that a value belongs to its key and was written by a submitted batch.
pub fn value_for(key: Key, seq: u64) -> Value {
    assert!(
        seq < (1 << 24) - 1,
        "batch sequence exceeds the value encoding"
    );
    ((seq as u32) << 8) | tag(key)
}

/// The key-derived low byte of every value written for `key`.
pub fn tag(key: Key) -> u32 {
    (mix(u64::from(key), 0x7A6) & 0xFF) as u32
}

/// The batch sequence number a value was written by.
pub fn seq_of(value: Value) -> u64 {
    u64::from(value >> 8)
}

/// An update batch of `ops` distinct uniform keys, [`DELETE_FRACTION`]
/// deletes, written by batch `seq` (stream `stream`, item `seq`).
pub fn uniform_batch(seed: u64, stream: u64, seq: u64, ops: usize, domain: Domain) -> UpdateBatch {
    let mut rng = Rng::for_item(seed, stream, seq);
    let mut seen = HashSet::with_capacity(ops);
    let mut batch = UpdateBatch::with_capacity(ops);
    while batch.len() < ops {
        let slot = rng.below(domain.slots());
        if !seen.insert(slot) {
            continue;
        }
        push_op(&mut batch, &mut rng, domain.key(slot), seq);
    }
    batch
}

/// An update batch of `ops` zipf-ranked keys (repeats allowed — under skew
/// one batch hits the same hot key many times), [`DELETE_FRACTION`]
/// deletes.
pub fn zipf_batch(seed: u64, seq: u64, ops: usize, domain: Domain, zipf: &Zipf) -> UpdateBatch {
    let mut rng = Rng::for_item(seed, stream::BATCH, seq);
    let mut batch = UpdateBatch::with_capacity(ops);
    for _ in 0..ops {
        let key = domain.key(zipf.sample(&mut rng));
        push_op(&mut batch, &mut rng, key, seq);
    }
    batch
}

fn push_op(batch: &mut UpdateBatch, rng: &mut Rng, key: Key, seq: u64) {
    if rng.unit() < DELETE_FRACTION {
        batch.delete(key);
    } else {
        batch.insert(key, value_for(key, seq));
    }
}

/// `n` zipf-ranked lookup keys for call `call`.
pub fn zipf_keys(seed: u64, call: u64, n: usize, domain: Domain, zipf: &Zipf) -> Vec<Key> {
    let mut rng = Rng::for_item(seed, stream::LOOKUP, call);
    (0..n).map(|_| domain.key(zipf.sample(&mut rng))).collect()
}

/// `n` spans of `width` slots with uniform low slots.
pub fn uniform_spans(
    seed: u64,
    call: u64,
    n: usize,
    width: u64,
    domain: Domain,
) -> Vec<(Key, Key)> {
    let mut rng = Rng::for_item(seed, stream::SPANS, call);
    (0..n)
        .map(|_| domain.span(rng.below(domain.slots() - width), width))
        .collect()
}

/// The spans that partition the whole key space into `n` equal pieces
/// (`n` a power of two) — a full-state read-back.
pub fn partition_spans(n: u64) -> Vec<(Key, Key)> {
    let width = (1u64 << 31) / n;
    (0..n)
        .map(|i| ((i * width) as Key, ((i + 1) * width - 1) as Key))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let d = Domain { slots_log2: 16 };
        let zipf = Zipf::new(1 << 10, 0.99);
        let zd = Domain { slots_log2: 10 };
        assert_eq!(
            uniform_batch(7, 1, 3, 256, d),
            uniform_batch(7, 1, 3, 256, d)
        );
        assert_ne!(
            uniform_batch(7, 1, 3, 256, d),
            uniform_batch(8, 1, 3, 256, d)
        );
        assert_ne!(
            uniform_batch(7, 1, 3, 256, d),
            uniform_batch(7, 1, 4, 256, d)
        );
        assert_eq!(
            zipf_batch(7, 3, 256, zd, &zipf),
            zipf_batch(7, 3, 256, zd, &zipf)
        );
        assert_ne!(
            zipf_batch(7, 3, 256, zd, &zipf),
            zipf_batch(9, 3, 256, zd, &zipf)
        );
        assert_eq!(
            zipf_keys(7, 2, 64, zd, &zipf),
            zipf_keys(7, 2, 64, zd, &zipf)
        );
        assert_eq!(
            uniform_spans(7, 2, 64, 16, d),
            uniform_spans(7, 2, 64, 16, d)
        );
        assert_ne!(
            uniform_spans(7, 2, 64, 16, d),
            uniform_spans(5, 2, 64, 16, d)
        );
    }

    #[test]
    fn uniform_batches_have_distinct_keys_and_about_a_fifth_deletes() {
        let d = Domain { slots_log2: 20 };
        let batch = uniform_batch(1, stream::BATCH, 1, 4096, d);
        let keys: HashSet<Key> = batch.ops().iter().map(|op| op.key()).collect();
        assert_eq!(keys.len(), 4096);
        let deletes = batch
            .ops()
            .iter()
            .filter(|op| matches!(op, gpu_lsm::Op::Delete(_)))
            .count();
        assert!((600..1050).contains(&deletes), "{deletes} deletes");
    }

    #[test]
    fn zipf_is_skewed_toward_rank_zero() {
        let zipf = Zipf::new(1 << 16, 0.99);
        let mut rng = Rng::for_item(3, 0, 0);
        let draws: Vec<u64> = (0..20_000).map(|_| zipf.sample(&mut rng)).collect();
        let hot = draws.iter().filter(|&&r| r < 16).count();
        let cold = draws.iter().filter(|&&r| r >= 1 << 15).count();
        assert!(hot > 4 * cold, "hot {hot} cold {cold}");
        assert!(draws.iter().all(|&r| r < 1 << 16));
    }

    #[test]
    fn values_round_trip_their_key_tag_and_sequence() {
        let v = value_for(12345, 77);
        assert_eq!(v & 0xFF, tag(12345));
        assert_eq!(seq_of(v), 77);
    }

    #[test]
    fn partition_spans_tile_the_key_space() {
        let spans = partition_spans(8);
        assert_eq!(spans[0].0, 0);
        assert_eq!(spans[7].1, gpu_lsm::MAX_KEY);
        for w in spans.windows(2) {
            assert_eq!(w[0].1 + 1, w[1].0);
        }
    }
}
