//! Stream compaction: keep the flagged elements of a buffer, preserving
//! their relative order (CUB `DeviceSelect::Flagged` equivalent).
//!
//! The paper's range queries compact each query's validated candidates
//! down to the valid ones (§IV-D stage 5; the host range query books that
//! compaction without running it), and the sorted-array baseline compacts
//! away the elements a delete batch removes.  The implementation is scan +
//! scatter: an exclusive scan of the 0/1 flags yields each surviving
//! element's output position, and a parallel scatter moves them.

use gpu_sim::{AccessPattern, Device};
use rayon::prelude::*;

use crate::scan::exclusive_scan;
use crate::util::SharedSlice;

/// Return the elements of `data` whose flag is `true`, preserving order.
pub fn compact_by_flag<T>(device: &Device, data: &[T], flags: &[bool]) -> Vec<T>
where
    T: Copy + Send + Sync + Default,
{
    assert_eq!(
        data.len(),
        flags.len(),
        "data and flags must have equal length"
    );
    let kernel = "compact";
    device.metrics().record_launch(kernel);
    let bytes = std::mem::size_of_val(data) as u64;
    device
        .metrics()
        .record_read(kernel, bytes, AccessPattern::Coalesced);

    let flags01: Vec<u32> = flags.par_iter().map(|&f| f as u32).collect();
    let (offsets, total) = exclusive_scan(device, &flags01);
    let mut out = vec![T::default(); total as usize];
    device.metrics().record_write(
        kernel,
        (out.len() * std::mem::size_of::<T>()) as u64,
        AccessPattern::Coalesced,
    );
    {
        let shared = SharedSlice::new(&mut out);
        data.par_iter()
            .zip(flags.par_iter())
            .zip(offsets.par_iter())
            .for_each(|((&v, &flag), &dst)| {
                if flag {
                    // SAFETY: output positions of flagged elements are the
                    // exclusive scan of the flags, hence unique.
                    unsafe { shared.write(dst as usize, v) };
                }
            });
    }
    out
}

/// Compact parallel key and value arrays by a shared flag array.
pub fn compact_pairs_by_flag(
    device: &Device,
    keys: &[u32],
    values: &[u32],
    flags: &[bool],
) -> (Vec<u32>, Vec<u32>) {
    assert_eq!(keys.len(), values.len());
    assert_eq!(keys.len(), flags.len());
    let pairs: Vec<(u32, u32)> = keys.iter().copied().zip(values.iter().copied()).collect();
    let kept = compact_by_flag(device, &pairs, flags);
    let mut k = Vec::with_capacity(kept.len());
    let mut v = Vec::with_capacity(kept.len());
    for (a, b) in kept {
        k.push(a);
        v.push(b);
    }
    (k, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use proptest::prelude::*;

    fn device() -> Device {
        Device::new(DeviceConfig::small())
    }

    #[test]
    fn keeps_flagged_elements_in_order() {
        let device = device();
        let data = vec![10u32, 20, 30, 40, 50];
        let flags = vec![true, false, true, false, true];
        assert_eq!(compact_by_flag(&device, &data, &flags), vec![10, 30, 50]);
    }

    #[test]
    fn all_false_gives_empty() {
        let device = device();
        let data = vec![1u32, 2, 3];
        assert!(compact_by_flag(&device, &data, &[false; 3]).is_empty());
    }

    #[test]
    fn all_true_copies_everything() {
        let device = device();
        let data: Vec<u32> = (0..10_000).collect();
        let flags = vec![true; data.len()];
        assert_eq!(compact_by_flag(&device, &data, &flags), data);
    }

    #[test]
    fn empty_input() {
        let device = device();
        let out: Vec<u32> = compact_by_flag(&device, &[], &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn large_compaction_matches_filter() {
        let device = device();
        let data: Vec<u32> = (0..100_000).collect();
        let flags: Vec<bool> = data.iter().map(|&x| x % 7 == 0).collect();
        let expected: Vec<u32> = data.iter().copied().filter(|&x| x % 7 == 0).collect();
        assert_eq!(compact_by_flag(&device, &data, &flags), expected);
    }

    #[test]
    fn pair_compaction_keeps_association() {
        let device = device();
        let keys = vec![1u32, 2, 3, 4];
        let vals = vec![10u32, 20, 30, 40];
        let flags = vec![false, true, true, false];
        let (k, v) = compact_pairs_by_flag(&device, &keys, &vals, &flags);
        assert_eq!(k, vec![2, 3]);
        assert_eq!(v, vec![20, 30]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let device = device();
        let _ = compact_by_flag(&device, &[1u32, 2], &[true]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_compact_equals_filter(
            data in proptest::collection::vec(any::<u32>(), 0..800),
            seed in any::<u64>()
        ) {
            let device = device();
            let flags: Vec<bool> = data
                .iter()
                .enumerate()
                .map(|(i, _)| (seed.wrapping_mul(i as u64 + 1) >> 7) & 1 == 1)
                .collect();
            let expected: Vec<u32> = data
                .iter()
                .zip(flags.iter())
                .filter(|(_, &f)| f)
                .map(|(&v, _)| v)
                .collect();
            prop_assert_eq!(compact_by_flag(&device, &data, &flags), expected);
        }
    }
}
