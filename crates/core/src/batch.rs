//! Update batches: mixed insertions and deletions presented to the LSM as
//! one unit of size at most `b`.
//!
//! The paper's batch semantics (§III-A) are implemented here and in the
//! insertion path:
//!
//! * rule 3 — across batches the most recent insertion of a key wins;
//! * rule 4 — within a batch, one of several same-key insertions is chosen
//!   (deterministically, the earliest pushed, because the radix sort is
//!   stable and lookups take the first match);
//! * rule 5 — deleting a key tombstones every earlier instance;
//! * rule 6 — a key inserted and deleted in the same batch is deleted,
//!   because the tombstone's zero status bit sorts it before the same-key
//!   regular element.
//!
//! A batch smaller than `b` is padded by duplicating its last element
//! (paper §IV-A), so exactly one of the duplicates stays visible.

use crate::error::{LsmError, Result};
use crate::key::{encode_regular, encode_tombstone, EncodedKey, Key, Value, MAX_KEY};

/// A single update operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert (or replace) `key` with `value`.
    Insert(Key, Value),
    /// Delete `key` (tombstone).
    Delete(Key),
}

impl Op {
    /// The logical key this operation refers to.
    pub fn key(&self) -> Key {
        match self {
            Op::Insert(k, _) => *k,
            Op::Delete(k) => *k,
        }
    }

    /// Encode this operation as an (encoded key, value) pair.
    pub fn encode(&self) -> (EncodedKey, Value) {
        match self {
            Op::Insert(k, v) => (encode_regular(*k), *v),
            Op::Delete(k) => (encode_tombstone(*k), 0),
        }
    }
}

/// A mixed batch of insertions and deletions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    ops: Vec<Op>,
}

impl UpdateBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a batch with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        UpdateBatch {
            ops: Vec::with_capacity(capacity),
        }
    }

    /// Queue an insertion.
    pub fn insert(&mut self, key: Key, value: Value) -> &mut Self {
        self.ops.push(Op::Insert(key, value));
        self
    }

    /// Queue a deletion.
    pub fn delete(&mut self, key: Key) -> &mut Self {
        self.ops.push(Op::Delete(key));
        self
    }

    /// Queue an arbitrary operation.
    pub fn push(&mut self, op: Op) -> &mut Self {
        self.ops.push(op);
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The queued operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Take `ops` as a batch as they are, without copying them (the
    /// admission coalescer moves its accumulator into its output this way).
    pub(crate) fn from_ops(ops: Vec<Op>) -> Self {
        UpdateBatch { ops }
    }

    /// Build a batch of insertions from key–value pairs.
    pub fn from_pairs(pairs: &[(Key, Value)]) -> Self {
        UpdateBatch {
            ops: pairs.iter().map(|&(k, v)| Op::Insert(k, v)).collect(),
        }
    }

    /// Build a batch of deletions from keys.
    pub fn from_deletions(keys: &[Key]) -> Self {
        UpdateBatch {
            ops: keys.iter().map(|&k| Op::Delete(k)).collect(),
        }
    }

    /// Validate the batch against the LSM's fixed batch size and key domain,
    /// then encode it into `(encoded_keys, values)` arrays of exactly
    /// `batch_size` elements, padding with duplicates of the last operation.
    pub fn encode_padded(&self, batch_size: usize) -> Result<(Vec<EncodedKey>, Vec<Value>)> {
        let mut keys = Vec::new();
        let mut values = Vec::new();
        self.encode_padded_into(batch_size, &mut keys, &mut values)?;
        Ok((keys, values))
    }

    /// [`UpdateBatch::encode_padded`] into caller-provided buffers: the
    /// vectors are cleared and refilled, so a submit loop that threads the
    /// same pair of scratch vectors through every batch encodes with zero
    /// steady-state heap allocations.  On error the buffers are left
    /// cleared.
    pub fn encode_padded_into(
        &self,
        batch_size: usize,
        keys: &mut Vec<EncodedKey>,
        values: &mut Vec<Value>,
    ) -> Result<()> {
        keys.clear();
        values.clear();
        let Some(last) = self.ops.last() else {
            return Err(LsmError::EmptyBatch);
        };
        if self.ops.len() > batch_size {
            return Err(LsmError::BatchTooLarge {
                supplied: self.ops.len(),
                batch_size,
            });
        }
        if let Some(op) = self.ops.iter().find(|op| op.key() > MAX_KEY) {
            return Err(LsmError::KeyOutOfRange { key: op.key() });
        }

        keys.reserve(batch_size);
        values.reserve(batch_size);
        for op in &self.ops {
            let (k, v) = op.encode();
            keys.push(k);
            values.push(v);
        }
        // Pad by duplicating the last element (paper §IV-A): duplicates of a
        // regular element are stale copies behind the visible one; duplicates
        // of a tombstone are redundant tombstones.  Either way queries are
        // unaffected.
        let (last_k, last_v) = last.encode();
        keys.resize(batch_size, last_k);
        values.resize(batch_size, last_v);
        Ok(())
    }

    /// Insert-only fast path: validate and encode key–value pairs straight
    /// into `(encoded_keys, values)` arrays without materializing an [`Op`]
    /// vector first.  Semantically identical to
    /// `UpdateBatch::from_pairs(pairs).encode_padded(batch_size)`, minus
    /// one allocation and pass — measurable on small hot batches.
    ///
    /// The returned flag is `true` when the encoded keys came out already
    /// non-decreasing (sorted bulk loads, replayed runs); it is computed
    /// inside the encode loop, where the comparison is free, so the caller
    /// can skip its batch sort without a second pass over the keys.
    pub fn encode_pairs_padded(
        pairs: &[(Key, Value)],
        batch_size: usize,
    ) -> Result<(Vec<EncodedKey>, Vec<Value>, bool)> {
        let Some(&(last_key, last_value)) = pairs.last() else {
            return Err(LsmError::EmptyBatch);
        };
        if pairs.len() > batch_size {
            return Err(LsmError::BatchTooLarge {
                supplied: pairs.len(),
                batch_size,
            });
        }
        if let Some(&(k, _)) = pairs.iter().find(|&&(k, _)| k > MAX_KEY) {
            return Err(LsmError::KeyOutOfRange { key: k });
        }
        let mut keys = Vec::with_capacity(batch_size);
        let mut values = Vec::with_capacity(batch_size);
        let mut sorted = true;
        let mut prev = 0u32;
        for &(k, v) in pairs {
            let enc = encode_regular(k);
            sorted &= prev <= enc;
            prev = enc;
            keys.push(enc);
            values.push(v);
        }
        // Padding duplicates the last element, which keeps a sorted batch
        // sorted.
        keys.resize(batch_size, encode_regular(last_key));
        values.resize(batch_size, last_value);
        Ok((keys, values, sorted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{is_regular, is_tombstone, original_key};

    #[test]
    fn builder_accumulates_ops() {
        let mut batch = UpdateBatch::new();
        batch.insert(1, 10).delete(2).insert(3, 30);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.ops()[1], Op::Delete(2));
        assert!(!batch.is_empty());
    }

    #[test]
    fn from_pairs_and_deletions() {
        let b = UpdateBatch::from_pairs(&[(1, 10), (2, 20)]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.ops()[0], Op::Insert(1, 10));
        let d = UpdateBatch::from_deletions(&[7, 8]);
        assert_eq!(d.ops()[1], Op::Delete(8));
    }

    #[test]
    fn encode_padded_pads_with_last_element() {
        let mut batch = UpdateBatch::new();
        batch.insert(5, 50).insert(6, 60);
        let (keys, values) = batch.encode_padded(4).unwrap();
        assert_eq!(keys.len(), 4);
        assert_eq!(values.len(), 4);
        assert_eq!(original_key(keys[2]), 6);
        assert_eq!(original_key(keys[3]), 6);
        assert_eq!(values[3], 60);
        // The smallest batch the emptiness check lets through: its one
        // element is also the padding, on both encode paths.
        let (keys, _) = UpdateBatch::from_deletions(&[7]).encode_padded(3).unwrap();
        assert_eq!(keys, vec![Op::Delete(7).encode().0; 3]);
        let (keys, values, _) = UpdateBatch::encode_pairs_padded(&[(7, 70)], 3).unwrap();
        assert_eq!(keys, vec![encode_regular(7); 3]);
        assert_eq!(values, vec![70; 3]);
    }

    #[test]
    fn encode_marks_tombstones() {
        let mut batch = UpdateBatch::new();
        batch.insert(1, 10).delete(2);
        let (keys, _) = batch.encode_padded(2).unwrap();
        assert!(is_regular(keys[0]));
        assert!(is_tombstone(keys[1]));
    }

    #[test]
    fn oversized_batch_rejected() {
        let batch = UpdateBatch::from_pairs(&[(1, 1), (2, 2), (3, 3)]);
        assert_eq!(
            batch.encode_padded(2),
            Err(LsmError::BatchTooLarge {
                supplied: 3,
                batch_size: 2
            })
        );
    }

    #[test]
    fn empty_batch_rejected() {
        assert_eq!(
            UpdateBatch::new().encode_padded(4),
            Err(LsmError::EmptyBatch)
        );
        assert_eq!(
            UpdateBatch::encode_pairs_padded(&[], 4),
            Err(LsmError::EmptyBatch)
        );
    }

    #[test]
    fn out_of_range_key_rejected() {
        let batch = UpdateBatch::from_pairs(&[(MAX_KEY + 1, 0)]);
        assert_eq!(
            batch.encode_padded(4),
            Err(LsmError::KeyOutOfRange { key: MAX_KEY + 1 })
        );
    }

    #[test]
    fn op_key_and_encode() {
        assert_eq!(Op::Insert(3, 4).key(), 3);
        assert_eq!(Op::Delete(9).key(), 9);
        let (k, v) = Op::Insert(3, 4).encode();
        assert!(is_regular(k));
        assert_eq!((original_key(k), v), (3, 4));
        let (k, _) = Op::Delete(9).encode();
        assert!(is_tombstone(k));
    }
}
