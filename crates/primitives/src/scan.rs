//! Device-wide exclusive and inclusive prefix sums (CUB `ExclusiveSum`
//! equivalent).
//!
//! The paper's GPU LSM uses an exclusive scan to turn per-query per-level
//! result estimates into output offsets (§IV-C stage 2; the host count and
//! range book that scan without running it).  The implementation is the
//! classical three-phase decomposition: per-block partial sums in
//! parallel, a scan of the block sums, then a parallel down-sweep that
//! adds each block's offset to its local prefix.

use gpu_sim::Device;
use rayon::prelude::*;

/// Elements that can be prefix-summed.
pub trait ScanElem: Copy + Send + Sync + Default {
    /// Addition for the scan.
    fn add(self, other: Self) -> Self;
}

macro_rules! impl_scan_elem {
    ($($t:ty),*) => {
        $(impl ScanElem for $t {
            #[inline]
            fn add(self, other: Self) -> Self {
                self + other
            }
        })*
    };
}
impl_scan_elem!(u32, u64, usize, i64);

fn record_scan_traffic<T>(device: &Device, kernel: &str, n: usize) {
    crate::util::record_streaming(device, kernel, n, std::mem::size_of::<T>());
}

/// Exclusive prefix sum: `out[i] = sum(input[..i])`.  Returns the scanned
/// vector and the total sum of all elements.
pub fn exclusive_scan<T: ScanElem>(device: &Device, input: &[T]) -> (Vec<T>, T) {
    let mut out = input.to_vec();
    let total = exclusive_scan_in_place(device, &mut out);
    (out, total)
}

/// Below this many elements the three-phase decomposition (two parallel
/// sweeps plus the block-totals round trip) is pure fixed cost; a single
/// sequential sweep touches the data once and stays in cache.
const SEQUENTIAL_SCAN_CUTOFF: usize = 1 << 10;

/// Exclusive prefix sum in place; returns the total sum.
pub fn exclusive_scan_in_place<T: ScanElem>(device: &Device, data: &mut [T]) -> T {
    record_scan_traffic::<T>(device, "exclusive_scan", data.len());
    let n = data.len();
    if n == 0 {
        return T::default();
    }
    if n <= SEQUENTIAL_SCAN_CUTOFF {
        let mut acc = T::default();
        for v in data.iter_mut() {
            let old = *v;
            *v = acc;
            acc = acc.add(old);
        }
        return acc;
    }
    let tile = device.preferred_tile(std::mem::size_of::<T>()).max(1024);

    // Phase 1: per-block inclusive scan, collecting each block's total.
    let block_totals: Vec<T> = data
        .par_chunks_mut(tile)
        .map(|chunk| {
            let mut acc = T::default();
            for v in chunk.iter_mut() {
                let old = *v;
                *v = acc;
                acc = acc.add(old);
            }
            acc
        })
        .collect();

    // Phase 2: scan the block totals sequentially (few blocks).
    let mut block_offsets = Vec::with_capacity(block_totals.len());
    let mut acc = T::default();
    for &t in &block_totals {
        block_offsets.push(acc);
        acc = acc.add(t);
    }
    let total = acc;

    // Phase 3: add each block's offset to its elements.
    data.par_chunks_mut(tile)
        .zip(block_offsets.par_iter())
        .for_each(|(chunk, &offset)| {
            for v in chunk.iter_mut() {
                *v = v.add(offset);
            }
        });

    total
}

/// Inclusive prefix sum: `out[i] = sum(input[..=i])`.
pub fn inclusive_scan<T: ScanElem>(device: &Device, input: &[T]) -> Vec<T> {
    let (mut out, _) = exclusive_scan(device, input);
    out.par_iter_mut()
        .zip(input.par_iter())
        .for_each(|(o, &i)| *o = o.add(i));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;

    fn device() -> Device {
        Device::new(DeviceConfig::small())
    }

    fn reference_exclusive(input: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(input.len());
        let mut acc = 0;
        for &v in input {
            out.push(acc);
            acc += v;
        }
        out
    }

    #[test]
    fn exclusive_scan_matches_reference_small() {
        let device = device();
        let input = vec![3u64, 1, 4, 1, 5, 9, 2, 6];
        let (scanned, total) = exclusive_scan(&device, &input);
        assert_eq!(scanned, reference_exclusive(&input));
        assert_eq!(total, 31);
    }

    #[test]
    fn exclusive_scan_matches_reference_large() {
        let device = device();
        let input: Vec<u64> = (0..100_000).map(|i| (i * 37 + 11) % 101).collect();
        let (scanned, total) = exclusive_scan(&device, &input);
        assert_eq!(scanned, reference_exclusive(&input));
        assert_eq!(total, input.iter().sum::<u64>());
    }

    #[test]
    fn inclusive_scan_last_is_total() {
        let device = device();
        let input: Vec<u32> = (1..=1000).collect();
        let scanned = inclusive_scan(&device, &input);
        assert_eq!(*scanned.last().unwrap(), 500_500);
        assert_eq!(scanned[0], 1);
    }

    #[test]
    fn empty_scan() {
        let device = device();
        let (scanned, total) = exclusive_scan::<u64>(&device, &[]);
        assert!(scanned.is_empty());
        assert_eq!(total, 0);
    }

    #[test]
    fn single_element_scan() {
        let device = device();
        let (scanned, total) = exclusive_scan(&device, &[42u32]);
        assert_eq!(scanned, vec![0]);
        assert_eq!(total, 42);
    }

    #[test]
    fn scan_records_traffic() {
        let device = device();
        let mut data = vec![1u32; 2048];
        let _ = exclusive_scan_in_place(&device, &mut data);
        assert!(device.metrics().snapshot().contains_key("exclusive_scan"));
    }

    #[test]
    fn usize_and_i64_scans_compile_and_work() {
        let device = device();
        let (s, t) = exclusive_scan(&device, &[1usize, 2, 3]);
        assert_eq!((s, t), (vec![0, 1, 3], 6));
        let (s, t) = exclusive_scan(&device, &[-1i64, 5, -2]);
        assert_eq!((s, t), (vec![0, -1, 4], 2));
    }
}
