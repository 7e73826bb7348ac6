//! The reference model: one value slot per key of a workload's domain,
//! driven by the single writer's deterministic stream, and the checks that
//! compare the system's answers against it.

use std::collections::HashMap;

use gpu_lsm::{Key, Op, RangeResult, UpdateBatch, Value};

use crate::gen::Domain;

/// Marks an absent key.  Values never reach it (see `gen::value_for`).
const EMPTY: Value = Value::MAX;

/// The expected state of the dictionary after a prefix of the stream.
#[derive(Debug, Clone)]
pub struct Model {
    domain: Domain,
    slots: Vec<Value>,
}

impl Model {
    /// An empty dictionary over `domain`.
    pub fn new(domain: Domain) -> Self {
        Model {
            domain,
            slots: vec![EMPTY; domain.slots() as usize],
        }
    }

    /// Insert without batch semantics (bulk-built base tables).
    pub fn set(&mut self, key: Key, value: Value) {
        self.slots[self.domain.slot(key)] = value;
    }

    /// Apply one batch with the paper's semantics: per key, a batch that
    /// deletes it deletes it, otherwise its first insertion wins; a later
    /// batch overrides an earlier one.
    pub fn apply(&mut self, batch: &UpdateBatch) {
        let mut decided: HashMap<Key, Option<Value>> = HashMap::with_capacity(batch.len());
        for op in batch.ops() {
            match *op {
                Op::Delete(k) => {
                    decided.insert(k, None);
                }
                Op::Insert(k, v) => {
                    decided.entry(k).or_insert(Some(v));
                }
            }
        }
        for (k, v) in decided {
            self.slots[self.domain.slot(k)] = v.unwrap_or(EMPTY);
        }
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: Key) -> Option<Value> {
        let slot = self.domain.slot(key);
        if self.domain.key(slot as u64) != key {
            return None;
        }
        Some(self.slots[slot]).filter(|&v| v != EMPTY)
    }

    /// Live pairs with keys in `[lo, hi]`, ascending.
    pub fn range(&self, lo: Key, hi: Key) -> impl Iterator<Item = (Key, Value)> + '_ {
        let first =
            self.domain.slot(lo) + usize::from(self.domain.key(self.domain.slot(lo) as u64) < lo);
        let last = self.domain.slot(hi);
        (first..=last.min(self.slots.len() - 1))
            .filter(move |&s| self.slots[s] != EMPTY)
            .map(move |s| (self.domain.key(s as u64), self.slots[s]))
    }

    /// Every live pair, ascending.
    pub fn pairs(&self) -> Vec<(Key, Value)> {
        self.range(0, gpu_lsm::MAX_KEY).collect()
    }
}

/// Lookup answers that disagree with the model.
pub fn lookup_mismatches(model: &Model, keys: &[Key], answers: &[Option<Value>]) -> u64 {
    if keys.len() != answers.len() {
        return keys.len() as u64;
    }
    keys.iter()
        .zip(answers)
        .filter(|(&k, &a)| model.get(k) != a)
        .count() as u64
}

/// Count answers that disagree with the model.
pub fn count_mismatches(model: &Model, spans: &[(Key, Key)], answers: &[u32]) -> u64 {
    if spans.len() != answers.len() {
        return spans.len() as u64;
    }
    spans
        .iter()
        .zip(answers)
        .filter(|(&(lo, hi), &a)| model.range(lo, hi).count() != a as usize)
        .count() as u64
}

/// Range queries whose answer disagrees with the model.
pub fn range_mismatches(model: &Model, spans: &[(Key, Key)], answers: &RangeResult) -> u64 {
    if answers.num_queries() != spans.len() {
        return spans.len() as u64;
    }
    spans
        .iter()
        .enumerate()
        .filter(|&(q, &(lo, hi))| !model.range(lo, hi).eq(answers.iter_query(q)))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_semantics_delete_wins_then_first_insert_wins() {
        let d = Domain { slots_log2: 4 };
        let mut m = Model::new(d);
        let (a, b) = (d.key(1), d.key(2));
        let mut batch = UpdateBatch::new();
        batch
            .insert(a, 1)
            .insert(a, 2)
            .insert(b, 3)
            .delete(b)
            .insert(b, 4);
        m.apply(&batch);
        assert_eq!(m.get(a), Some(1));
        assert_eq!(m.get(b), None);
        let mut later = UpdateBatch::new();
        later.insert(a, 9);
        m.apply(&later);
        assert_eq!(m.get(a), Some(9));
        assert_eq!(m.get(a + 1), None, "keys between slots are absent");
    }

    #[test]
    fn range_covers_exactly_the_slots_inside_the_bounds() {
        let d = Domain { slots_log2: 4 };
        let mut m = Model::new(d);
        for s in 0..16 {
            m.set(d.key(s), s as Value);
        }
        let inside: Vec<_> = m.range(d.key(3) + 1, d.key(5)).collect();
        assert_eq!(inside, vec![(d.key(4), 4), (d.key(5), 5)]);
        assert_eq!(m.pairs().len(), 16);
    }
}
