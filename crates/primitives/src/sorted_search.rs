//! Sorted search (moderngpu `SortedSearch` equivalent): find the lower bound
//! of every element of a *sorted* needle array within a sorted haystack in a
//! single merge-like pass.
//!
//! The paper describes two ways to run a batch of lookups (§IV-B): the
//! *individual* approach (each thread binary-searches on its own — random
//! accesses, no cooperation) and the *bulk* approach (sort all queries, then
//! run a sorted search against each level — streaming accesses, but the
//! query sort must be paid first).  The GPU LSM runs both approaches on
//! one lockstep lane-group search, `GpuLsm::lookup` in the callers' order
//! and `GpuLsm::bulk_get` after a query sort (the `ablation` benchmarks
//! compare the two), so neither calls this merge-style sorted search.
//!
//! The algorithm is the standard merge-path style decomposition: needles are
//! cut into tiles; each tile's first needle is located in the haystack with
//! one binary search, after which the whole tile is resolved with a linear
//! two-pointer walk — so the haystack is read sequentially (coalesced)
//! instead of being probed randomly.

use gpu_sim::{AccessPattern, Device};
use rayon::prelude::*;

/// For each element of the sorted `needles`, the index of the first element
/// of the sorted `haystack` that is not less than it (lower bound).
///
/// `less` must be the ordering both inputs are sorted by.
pub fn sorted_lower_bound<T, F>(
    device: &Device,
    haystack: &[T],
    needles: &[T],
    less: F,
) -> Vec<usize>
where
    T: Sync,
    F: Fn(&T, &T) -> bool + Sync,
{
    let kernel = "sorted_lower_bound";
    device.metrics().record_launch(kernel);
    debug_assert!(
        needles.windows(2).all(|w| !less(&w[1], &w[0])),
        "needles must be sorted"
    );

    if needles.is_empty() {
        return Vec::new();
    }
    let tile = device.preferred_tile(std::mem::size_of::<T>()).max(256);
    // Streaming traffic: every needle read once, haystack read at most once
    // per pass plus one binary search per tile.
    device.metrics().record_read(
        kernel,
        ((needles.len() + haystack.len()) * std::mem::size_of::<T>()) as u64,
        AccessPattern::Coalesced,
    );
    device.metrics().record_scattered_probes(
        kernel,
        (needles.len().div_ceil(tile) as u64)
            * (usize::BITS - haystack.len().leading_zeros()) as u64,
        std::mem::size_of::<T>() as u64,
    );

    let mut out = vec![0usize; needles.len()];
    out.par_chunks_mut(tile)
        .zip(needles.par_chunks(tile))
        .for_each(|(out_chunk, needle_chunk)| {
            // Locate the first needle of the tile with one binary search,
            // then walk forward for the rest of the tile.
            let mut pos = crate::search::lower_bound_by(haystack, &needle_chunk[0], &less);
            for (o, needle) in out_chunk.iter_mut().zip(needle_chunk.iter()) {
                while pos < haystack.len() && less(&haystack[pos], needle) {
                    pos += 1;
                }
                *o = pos;
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use proptest::prelude::*;

    fn device() -> Device {
        Device::new(DeviceConfig::small())
    }

    fn lt(a: &u32, b: &u32) -> bool {
        a < b
    }

    #[test]
    fn matches_per_query_binary_search() {
        let device = device();
        let haystack: Vec<u32> = (0..10_000).map(|i| i * 3).collect();
        let needles: Vec<u32> = (0..5_000).map(|i| i * 7 % 30_000).collect::<Vec<_>>();
        let mut sorted_needles = needles;
        sorted_needles.sort_unstable();
        let got = sorted_lower_bound(&device, &haystack, &sorted_needles, lt);
        for (i, n) in sorted_needles.iter().enumerate() {
            assert_eq!(got[i], haystack.partition_point(|x| x < n));
        }
    }

    #[test]
    fn handles_empty_inputs() {
        let device = device();
        assert!(sorted_lower_bound(&device, &[1u32, 2], &[], lt).is_empty());
        let out = sorted_lower_bound(&device, &[] as &[u32], &[1, 2], lt);
        assert_eq!(out, vec![0, 0]);
    }

    #[test]
    fn needles_beyond_haystack_map_to_len() {
        let device = device();
        let haystack = vec![10u32, 20, 30];
        let needles = vec![0u32, 15, 30, 99];
        let out = sorted_lower_bound(&device, &haystack, &needles, lt);
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_matches_partition_point(
            mut haystack in proptest::collection::vec(0u32..1000, 0..600),
            mut needles in proptest::collection::vec(0u32..1000, 0..300)
        ) {
            let device = device();
            haystack.sort_unstable();
            needles.sort_unstable();
            let got = sorted_lower_bound(&device, &haystack, &needles, lt);
            for (i, n) in needles.iter().enumerate() {
                prop_assert_eq!(got[i], haystack.partition_point(|x| x < n));
            }
        }
    }
}
