//! Differential suite for count and range: every answer is checked against
//! a `BTreeMap` model, and every count against the length of the same
//! query's range.  The stores are built to put the newest-first rule under
//! load: deep carry chains whose levels hold in-batch duplicates (rules 4
//! and 6), duplicate-padded short batches, tombstones over older regular
//! elements and regular elements over older tombstones, and user key
//! `MAX_KEY` next to the `MAX_KEY` placebo tombstones that bulk builds and
//! cleanups pad with.

use std::collections::BTreeMap;
use std::sync::Arc;

use gpu_lsm::key::original_key;
use gpu_lsm::{GpuLsm, Op, UpdateBatch, MAX_KEY};
use gpu_sim::{Device, DeviceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn device() -> Arc<Device> {
    Arc::new(Device::new(DeviceConfig::small()))
}

/// The dictionary the structure must agree with.
#[derive(Default)]
struct Model(BTreeMap<u32, u32>);

impl Model {
    /// Apply one batch: a key deleted anywhere in the batch is deleted
    /// (rule 6), otherwise its first insertion wins (rule 4); the batch
    /// overrides everything older.
    fn apply(&mut self, ops: &[Op]) {
        let mut decided: BTreeMap<u32, Option<u32>> = BTreeMap::new();
        for op in ops {
            match *op {
                Op::Insert(k, v) => {
                    decided.entry(k).or_insert(Some(v));
                }
                Op::Delete(k) => {
                    decided.insert(k, None);
                }
            }
        }
        for (k, v) in decided {
            match v {
                Some(v) => self.0.insert(k, v),
                None => self.0.remove(&k),
            };
        }
    }

    fn range(&self, k1: u32, k2: u32) -> Vec<(u32, u32)> {
        if k1 > k2 {
            return Vec::new();
        }
        self.0.range(k1..=k2).map(|(&k, &v)| (k, v)).collect()
    }
}

/// `ops` as one update batch.
fn to_batch(ops: &[Op]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for &op in ops {
        batch.push(op);
    }
    batch
}

/// Check one call of count and one of range over `queries`.
fn check(lsm: &GpuLsm, model: &Model, queries: &[(u32, u32)], context: &str) {
    let counts = lsm.count(queries);
    let ranges = lsm.range(queries);
    assert_eq!(counts.len(), queries.len(), "{context}");
    assert_eq!(ranges.num_queries(), queries.len(), "{context}");
    for (q, &(k1, k2)) in queries.iter().enumerate() {
        let expected = model.range(k1, k2);
        let got: Vec<(u32, u32)> = ranges.iter_query(q).collect();
        assert_eq!(got, expected, "{context}: range of [{k1}, {k2}]");
        assert_eq!(counts[q] as usize, ranges.len(q), "{context}: [{k1}, {k2}]");
    }
}

/// Spans the suites always ask: the whole domain, spans ending at and
/// beyond `MAX_KEY`, spans above the domain, inverted spans and spans
/// that hold no key.
fn fixed_spans() -> Vec<(u32, u32)> {
    vec![
        (0, u32::MAX),
        (0, MAX_KEY),
        (MAX_KEY, MAX_KEY),
        (MAX_KEY - 1, MAX_KEY),
        (MAX_KEY - 2, u32::MAX),
        (40, MAX_KEY),
        (MAX_KEY + 1, u32::MAX),
        (u32::MAX, u32::MAX),
        (5, 3),
        (MAX_KEY, 0),
        (1000, 2000),
    ]
}

/// A key domain small enough for every batch to repeat keys, with its
/// top three keys at the top of the key space.
fn domain() -> Vec<u32> {
    (0..48).chain([MAX_KEY - 2, MAX_KEY - 1, MAX_KEY]).collect()
}

/// A random batch over `keys`: one in three is short (padded by
/// duplicating its last operation), and about a third of the operations
/// are deletions.
fn random_ops(rng: &mut StdRng, b: usize, keys: &[u32]) -> Vec<Op> {
    let len = if rng.gen_bool(0.3) {
        rng.gen_range(1..=b)
    } else {
        b
    };
    (0..len)
        .map(|_| {
            let k = keys[rng.gen_range(0..keys.len())];
            if rng.gen_bool(0.3) {
                Op::Delete(k)
            } else {
                Op::Insert(k, rng.gen())
            }
        })
        .collect()
}

/// Random spans between (and one past) domain keys, some inverted.
fn random_spans(rng: &mut StdRng, keys: &[u32], n: usize) -> Vec<(u32, u32)> {
    (0..n)
        .map(|_| {
            let a = keys[rng.gen_range(0..keys.len())];
            let b = keys[rng.gen_range(0..keys.len())];
            let a = a.saturating_add(rng.gen_range(0..2));
            if rng.gen_bool(0.9) {
                (a.min(b), a.max(b))
            } else {
                (a.max(b), a.min(b))
            }
        })
        .collect()
}

/// Spans whose `k2 + 1` lands 250 to 262 elements past their `k1` bound
/// in one of `lsm`'s levels (to the nearest end of a key's run of
/// copies): widths on both sides of one fence interval (256 elements),
/// which is also a doubling step of the gallop from the `k1` bound to the
/// `k2 + 1` bound.
fn fence_straddling_spans(rng: &mut StdRng, lsm: &GpuLsm, n: usize) -> Vec<(u32, u32)> {
    let levels: Vec<_> = lsm
        .levels()
        .iter_occupied()
        .map(|(_, level)| level)
        .filter(|level| level.len() > 262)
        .collect();
    if levels.is_empty() {
        return Vec::new();
    }
    (0..n)
        .map(|_| {
            let level = levels[rng.gen_range(0..levels.len())];
            let keys = level.keys();
            let k1 = original_key(keys[rng.gen_range(0..keys.len())]);
            let end = (level.lower_bound(k1) + rng.gen_range(250..=262)).min(keys.len() - 1);
            // Half end with that element's key, half just before it.
            let k2 = original_key(keys[end]).saturating_sub(u32::from(rng.gen_bool(0.5)));
            (k1, k2)
        })
        .collect()
}

#[test]
fn deep_carry_built_stores_match_the_model() {
    let keys = domain();
    for b in [1usize, 2, 3, 64] {
        let mut rng = StdRng::seed_from_u64(0xC0DE + b as u64);
        // Start from a bulk build holding `MAX_KEY`, padded with placebos
        // unless the pair count happens to be a multiple of `b`.
        let mut model = Model::default();
        let mut seed_pairs: Vec<(u32, u32)> = Vec::new();
        for &k in keys.iter().filter(|&&k| k < MAX_KEY).chain(&[MAX_KEY]) {
            if k == MAX_KEY || rng.gen_bool(0.5) {
                seed_pairs.push((k, rng.gen()));
            }
        }
        model.apply(
            &seed_pairs
                .iter()
                .map(|&(k, v)| Op::Insert(k, v))
                .collect::<Vec<_>>(),
        );
        let mut lsm = GpuLsm::bulk_build(device(), b, &seed_pairs).unwrap();
        check(&lsm, &model, &fixed_spans(), &format!("b={b} bulk build"));
        for batch in 0..128 {
            let ops = random_ops(&mut rng, b, &keys);
            lsm.update(&to_batch(&ops)).unwrap();
            model.apply(&ops);
            if batch % 37 == 36 {
                lsm.cleanup();
            }
            // Past 64 queries a call spans more than one lane group.
            let mut queries = fixed_spans();
            let n = if batch % 8 == 0 { 96 } else { 16 };
            queries.extend(random_spans(&mut rng, &keys, n));
            let mut span_rng = StdRng::seed_from_u64(batch);
            queries.extend(fence_straddling_spans(&mut span_rng, &lsm, 16));
            check(&lsm, &model, &queries, &format!("b={b} batch {batch}"));
        }
        lsm.check_invariants().unwrap();
    }
}

/// Every span over a small domain, plus the fixed ones.
fn all_spans(max: u32) -> Vec<(u32, u32)> {
    let mut spans = fixed_spans();
    for k1 in 0..=max {
        for k2 in k1..=max {
            spans.push((k1, k2));
        }
    }
    spans
}

#[test]
fn tombstones_and_regular_elements_shadow_each_other_in_both_directions() {
    // Batch size 4; after each batch the carry chain's levels hold:
    //   1: L0 = A                      (regular 0..4)
    //   2: L1 = B·A                    (B's tombstones over A, one level)
    //   3: L0 = C, L1 = B·A            (C's regular over B's tombstones)
    //   4: L2 = D·C·B·A                (D's tombstones over C's regular)
    //   5: L0 = E, L2 = ...            (E's regular and tombstones over all)
    //   6: L1 = F·E, L2 = ...          (F re-deletes, within one batch too)
    let batches: Vec<Vec<Op>> = vec![
        (0..4).map(|k| Op::Insert(k, 100 + k)).collect(),
        vec![Op::Delete(0), Op::Delete(2), Op::Delete(5), Op::Delete(6)],
        vec![
            Op::Insert(2, 300),
            Op::Insert(5, 305),
            Op::Insert(7, 307),
            Op::Insert(0, 300),
        ],
        vec![
            Op::Delete(2),
            Op::Delete(7),
            Op::Insert(1, 401),
            Op::Insert(1, 402),
        ],
        vec![
            Op::Insert(2, 502),
            Op::Delete(1),
            Op::Insert(6, 506),
            Op::Delete(3),
        ],
        vec![
            Op::Insert(6, 606),
            Op::Delete(6),
            Op::Insert(3, 603),
            Op::Delete(5),
        ],
    ];
    let mut lsm = GpuLsm::new(device(), 4).unwrap();
    let mut model = Model::default();
    for (i, ops) in batches.iter().enumerate() {
        lsm.update(&to_batch(ops)).unwrap();
        model.apply(ops);
        check(
            &lsm,
            &model,
            &all_spans(9),
            &format!("after batch {}", i + 1),
        );
    }
    assert_eq!(model.range(0, 9), vec![(0, 300), (2, 502), (3, 603)]);
}

#[test]
fn max_key_survives_placebo_padding_of_bulk_builds_and_cleanups() {
    for b in [1usize, 2, 3, 5, 64] {
        for n in [1u32, 2, 4, 7] {
            // `n` keys at the top of the domain, MAX_KEY the largest: the
            // placebo padding sorts right behind it, in its level or in
            // an older one.
            let pairs: Vec<(u32, u32)> = (0..n).map(|i| (MAX_KEY - i, i)).collect();
            let context = format!("b={b} n={n}");
            let mut model = Model::default();
            model.apply(
                &pairs
                    .iter()
                    .map(|&(k, v)| Op::Insert(k, v))
                    .collect::<Vec<_>>(),
            );
            let mut lsm = GpuLsm::bulk_build(device(), b, &pairs).unwrap();
            let spans = [(MAX_KEY, MAX_KEY), (MAX_KEY - 8, MAX_KEY), (0, u32::MAX)];
            check(&lsm, &model, &spans, &format!("{context} bulk build"));

            // Delete MAX_KEY, then put it back, cleaning up in between.
            let steps: [&[Op]; 3] = [
                &[Op::Delete(MAX_KEY)],
                &[Op::Insert(MAX_KEY, 77), Op::Delete(MAX_KEY - 1)],
                &[Op::Insert(MAX_KEY, 78), Op::Insert(MAX_KEY, 79)],
            ];
            for (i, ops) in steps.iter().enumerate() {
                let ops = &ops[..ops.len().min(b)];
                lsm.update(&to_batch(ops)).unwrap();
                model.apply(ops);
                check(&lsm, &model, &spans, &format!("{context} step {i}"));
                lsm.cleanup();
                check(&lsm, &model, &spans, &format!("{context} step {i} cleaned"));
            }
            lsm.check_invariants().unwrap();
        }
    }
}
