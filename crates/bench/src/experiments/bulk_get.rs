//! The paper's "PCIe tax" argument, measured: individual `get`s pay a
//! fixed per-call cost (on real hardware, a PCIe round trip and a kernel
//! launch; here, dispatch and per-query descent work), while
//! [`gpu_lsm::GpuLsm::bulk_get`] amortizes it — queries are sorted once
//! and searched through each level in warp-sized lane groups that take
//! their probes in lockstep, neighbours sharing fence windows.
//!
//! Three questions, three measurements:
//!
//! 1. **single-get latency** — amortized µs per query when queries are
//!    issued one call at a time, for the LSM, the sorted array and the
//!    cuckoo hash;
//! 2. **bulk throughput** — M queries/s for one 100k-query `bulk_get`
//!    against the batch lookup paths of both baselines;
//! 3. **break-even batch size** — sweeping batch sizes upward, the
//!    smallest batch at which the LSM's bulk path matches each baseline's
//!    batch-lookup rate at the same size.  Below it, per-call overhead
//!    (and the baselines' flatter memory layouts) win; above it, the
//!    sort and the lockstep lane groups do.

use gpu_baselines::{CuckooHashTable, SortedArray};
use gpu_lsm::GpuLsm;
use lsm_workloads::{existing_lookups, unique_random_pairs};

use super::experiment_device;
use crate::measure::{queries_per_sec_m, time_once};
use crate::report::{fmt_rate, Table};

/// Rates (M queries/s) of one backend across the swept batch sizes.
#[derive(Debug, Clone)]
pub struct BackendSweep {
    /// Backend label as rendered.
    pub name: &'static str,
    /// Amortized single-query latency in µs (one call per query).
    pub single_get_us: f64,
    /// One rate per entry of [`BulkGetResult::batch_sizes`].
    pub rates: Vec<f64>,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct BulkGetResult {
    /// Swept batch sizes (powers of two up to the full query count).
    pub batch_sizes: Vec<usize>,
    /// LSM `bulk_get`, then the sorted-array and cuckoo batch lookups.
    pub backends: Vec<BackendSweep>,
    /// Smallest swept batch size at which the LSM bulk rate reaches the
    /// sorted array's rate at the same size (`None` = never caught up).
    pub break_even_vs_sa: Option<usize>,
    /// Same against the cuckoo hash.
    pub break_even_vs_cuckoo: Option<usize>,
    /// Total resident elements.
    pub total_elements: usize,
}

/// Amortized per-call latency (µs/query) of issuing `probes` single-query
/// calls through `lookup`.
fn single_get_us(probes: &[u32], mut lookup: impl FnMut(&[u32])) -> f64 {
    let (_, elapsed) = time_once(|| {
        for &q in probes {
            lookup(std::slice::from_ref(&q));
        }
    });
    elapsed.as_secs_f64() * 1e6 / probes.len() as f64
}

/// Median-of-3 rate (M queries/s) of `lookup` over each prefix of
/// `queries` named in `batch_sizes`.
fn sweep_rates(queries: &[u32], batch_sizes: &[usize], mut lookup: impl FnMut(&[u32])) -> Vec<f64> {
    batch_sizes
        .iter()
        .map(|&n| {
            let batch = &queries[..n];
            let mut rates: Vec<f64> = (0..3)
                .map(|_| {
                    let (_, elapsed) = time_once(|| lookup(batch));
                    queries_per_sec_m(n, elapsed)
                })
                .collect();
            rates.sort_unstable_by(f64::total_cmp);
            rates[1]
        })
        .collect()
}

/// Smallest swept batch size at which `lsm` reaches `baseline` (both
/// indexed like `batch_sizes`).
fn break_even(batch_sizes: &[usize], lsm: &[f64], baseline: &[f64]) -> Option<usize> {
    batch_sizes
        .iter()
        .zip(lsm.iter().zip(baseline))
        .find(|(_, (l, b))| l >= b)
        .map(|(&n, _)| n)
}

/// Run the experiment: `total_elements` resident pairs, bulk batches swept
/// from 1 to `max_batch` queries (all present keys — the regime where
/// every level must actually be searched).
pub fn run(total_elements: usize, max_batch: usize, seed: u64) -> BulkGetResult {
    let device = experiment_device();
    let pairs = unique_random_pairs(total_elements, seed);
    let resident_keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    // 11 batches of n/11 put elements on levels 0, 1 and 3 — a realistic
    // multi-level occupancy rather than the single-level best case.
    let batch_size = (total_elements / 11).max(1);
    let lsm = GpuLsm::bulk_build(device.clone(), batch_size, &pairs).expect("bulk build");
    let sa = SortedArray::bulk_build(device.clone(), &pairs);
    let cuckoo = CuckooHashTable::bulk_build(device, &pairs);

    let queries = existing_lookups(&resident_keys, max_batch, seed ^ 0xB61);
    let mut batch_sizes: Vec<usize> = std::iter::successors(Some(1usize), |&n| Some(n * 4))
        .take_while(|&n| n < max_batch)
        .collect();
    batch_sizes.push(max_batch);

    // Per-call latency is amortized over a fixed probe count, large enough
    // to swamp timer resolution but far below the sweep sizes.
    let probes = &queries[..queries.len().min(2_000)];
    let backends = vec![
        BackendSweep {
            name: "lsm bulk_get",
            single_get_us: single_get_us(probes, |q| {
                lsm.lookup(q);
            }),
            rates: sweep_rates(&queries, &batch_sizes, |q| {
                lsm.bulk_get(q);
            }),
        },
        BackendSweep {
            name: "sorted array",
            single_get_us: single_get_us(probes, |q| {
                sa.lookup(q);
            }),
            rates: sweep_rates(&queries, &batch_sizes, |q| {
                sa.lookup(q);
            }),
        },
        BackendSweep {
            name: "cuckoo hash",
            single_get_us: single_get_us(probes, |q| {
                cuckoo.lookup(q);
            }),
            rates: sweep_rates(&queries, &batch_sizes, |q| {
                cuckoo.lookup(q);
            }),
        },
    ];

    let break_even_vs_sa = break_even(&batch_sizes, &backends[0].rates, &backends[1].rates);
    let break_even_vs_cuckoo = break_even(&batch_sizes, &backends[0].rates, &backends[2].rates);
    BulkGetResult {
        batch_sizes,
        backends,
        break_even_vs_sa,
        break_even_vs_cuckoo,
        total_elements,
    }
}

/// Render the sweep as one row per backend, one column per batch size.
pub fn render(result: &BulkGetResult) -> Table {
    let mut header: Vec<String> = vec!["backend".into(), "single-get µs".into()];
    header.extend(result.batch_sizes.iter().map(|n| format!("{n}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "Bulk-get amortization: M queries/s by batch size",
        &header_refs,
    );
    for backend in &result.backends {
        let mut row = vec![
            backend.name.to_string(),
            format!("{:.2}", backend.single_get_us),
        ];
        row.extend(backend.rates.iter().map(|&r| fmt_rate(r)));
        table.add_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_sweeps_and_break_even() {
        let result = run(1 << 12, 1 << 10, 7);
        assert_eq!(result.backends.len(), 3);
        assert_eq!(*result.batch_sizes.last().unwrap(), 1 << 10);
        for backend in &result.backends {
            assert_eq!(backend.rates.len(), result.batch_sizes.len());
            assert!(backend.rates.iter().all(|&r| r > 0.0));
            assert!(backend.single_get_us > 0.0);
        }
        let table = render(&result);
        assert_eq!(table.num_rows(), 3);
    }

    #[test]
    fn break_even_finds_first_crossing() {
        let sizes = [1, 4, 16];
        assert_eq!(
            break_even(&sizes, &[1.0, 5.0, 9.0], &[2.0, 4.0, 8.0]),
            Some(4)
        );
        assert_eq!(break_even(&sizes, &[1.0, 1.0, 1.0], &[2.0, 4.0, 8.0]), None);
        assert_eq!(
            break_even(&sizes, &[3.0, 5.0, 9.0], &[2.0, 4.0, 8.0]),
            Some(1)
        );
    }
}
