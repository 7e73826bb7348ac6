//! Table III — lookup rates (M queries/s) in two scenarios: none of the
//! queried keys exist, or all of them exist.
//!
//! For a fixed total element count `n` and each batch size `b`, the paper
//! builds *every* possible GPU LSM with `1 ≤ r ≤ n/b` resident batches, runs
//! as many lookups as there are resident elements, and reports min/max/
//! harmonic-mean rates; the sorted array (one level of the same size) and
//! the cuckoo hash table are measured for comparison.  Here `r` is sampled
//! uniformly (the per-`r` structure is reproduced with a bulk build, which
//! yields the identical level occupancy).

use gpu_baselines::{CuckooHashTable, SortedArray};
use gpu_lsm::GpuLsm;
use lsm_workloads::{existing_lookups, missing_lookups, unique_random_pairs, SweepConfig};

use super::{experiment_device, sample_resident_batches};
use crate::measure::{
    modelled_time_once, queries_per_sec_m, rate_m_from_seconds, time_once, RateStats,
};
use crate::report::{fmt_rate, Table};

/// Lookup-rate statistics for one batch size, both query scenarios.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Batch size `b`.
    pub batch_size: usize,
    /// GPU LSM, none of the queried keys exist.
    pub lsm_none: RateStats,
    /// GPU LSM, none exist, in modelled device time (deterministic).
    pub lsm_none_modelled: RateStats,
    /// GPU LSM, all queried keys exist.
    pub lsm_all: RateStats,
    /// GPU SA (single sorted level of the same resident size), none exist.
    pub sa_none: RateStats,
    /// GPU SA, all exist.
    pub sa_all: RateStats,
}

/// Full Table III result.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// One row per batch size.
    pub rows: Vec<Table3Row>,
    /// Cuckoo hash lookup rate, none of the keys exist (M queries/s).
    pub cuckoo_none: f64,
    /// Cuckoo hash lookup rate, all keys exist.
    pub cuckoo_all: f64,
    /// Number of `r` samples per batch size.
    pub r_samples: usize,
    /// Cap applied to the number of queries per measurement.
    pub max_queries: usize,
}

/// Measure LSM and SA lookup rates for one batch size.
fn row_for_batch_size(
    total_elements: usize,
    batch_size: usize,
    r_samples: usize,
    max_queries: usize,
    seed: u64,
) -> Table3Row {
    let device = experiment_device();
    let pairs = unique_random_pairs(total_elements, seed);
    let resident_keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let max_r = total_elements / batch_size;
    let sampled = sample_resident_batches(max_r, r_samples);

    let mut lsm_none = Vec::new();
    let mut lsm_none_modelled = Vec::new();
    let mut lsm_all = Vec::new();
    let mut sa_none = Vec::new();
    let mut sa_all = Vec::new();
    for &r in &sampled {
        let resident = &pairs[..r * batch_size];
        let resident_key_slice = &resident_keys[..r * batch_size];
        let num_queries = (r * batch_size).min(max_queries);
        let all_queries = existing_lookups(resident_key_slice, num_queries, seed ^ r as u64);
        let none_queries = missing_lookups(resident_key_slice, num_queries, seed ^ (r as u64) << 1);

        let lsm = GpuLsm::bulk_build(device.clone(), batch_size, resident).expect("bulk build");
        let ((_, t), modelled) =
            modelled_time_once(&device, || time_once(|| lsm.lookup(&none_queries)));
        lsm_none.push(queries_per_sec_m(num_queries, t));
        lsm_none_modelled.push(rate_m_from_seconds(num_queries, modelled));
        let (res, t) = time_once(|| lsm.lookup(&all_queries));
        debug_assert!(res.iter().all(|r| r.is_some()));
        lsm_all.push(queries_per_sec_m(num_queries, t));

        let sa = SortedArray::bulk_build(device.clone(), resident);
        let (_, t) = time_once(|| sa.lookup(&none_queries));
        sa_none.push(queries_per_sec_m(num_queries, t));
        let (_, t) = time_once(|| sa.lookup(&all_queries));
        sa_all.push(queries_per_sec_m(num_queries, t));
    }

    Table3Row {
        batch_size,
        lsm_none: RateStats::from_rates(&lsm_none),
        lsm_none_modelled: RateStats::from_rates(&lsm_none_modelled),
        lsm_all: RateStats::from_rates(&lsm_all),
        sa_none: RateStats::from_rates(&sa_none),
        sa_all: RateStats::from_rates(&sa_all),
    }
}

/// Run the full Table III experiment.
pub fn run(config: &SweepConfig, r_samples: usize, max_queries: usize) -> Table3Result {
    let rows: Vec<Table3Row> = config
        .batch_sizes
        .iter()
        .rev()
        .filter(|&&b| b <= config.total_elements)
        .map(|&b| {
            row_for_batch_size(
                config.total_elements,
                b,
                r_samples,
                max_queries,
                config.seed,
            )
        })
        .collect();

    // Cuckoo hash lookups over the full element set.
    let device = experiment_device();
    let pairs = unique_random_pairs(config.total_elements, config.seed);
    let resident_keys: Vec<u32> = pairs.iter().map(|&(k, _)| k).collect();
    let table = CuckooHashTable::bulk_build(device, &pairs);
    let num_queries = config.total_elements.min(max_queries);
    let all_queries = existing_lookups(&resident_keys, num_queries, config.seed ^ 0xA11);
    let none_queries = missing_lookups(&resident_keys, num_queries, config.seed);
    let (_, t_none) = time_once(|| table.lookup(&none_queries));
    let (_, t_all) = time_once(|| table.lookup(&all_queries));

    Table3Result {
        rows,
        cuckoo_none: queries_per_sec_m(num_queries, t_none),
        cuckoo_all: queries_per_sec_m(num_queries, t_all),
        r_samples,
        max_queries,
    }
}

/// Render in the paper's layout.
pub fn render(result: &Table3Result) -> Table {
    let mut table = Table::new(
        "Table III: lookup rates (M queries/s)",
        &[
            "b",
            "LSM none min",
            "LSM none max",
            "LSM none mean",
            "SA none mean",
            "LSM all min",
            "LSM all max",
            "LSM all mean",
            "SA all mean",
        ],
    );
    for row in &result.rows {
        table.add_row(vec![
            format!("2^{}", row.batch_size.trailing_zeros()),
            fmt_rate(row.lsm_none.min),
            fmt_rate(row.lsm_none.max),
            fmt_rate(row.lsm_none.harmonic_mean),
            fmt_rate(row.sa_none.harmonic_mean),
            fmt_rate(row.lsm_all.min),
            fmt_rate(row.lsm_all.max),
            fmt_rate(row.lsm_all.harmonic_mean),
            fmt_rate(row.sa_all.harmonic_mean),
        ]);
    }
    table.add_row(vec![
        "cuckoo".to_string(),
        String::new(),
        String::new(),
        fmt_rate(result.cuckoo_none),
        String::new(),
        String::new(),
        String::new(),
        fmt_rate(result.cuckoo_all),
        String::new(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            total_elements: 1 << 12,
            batch_sizes: vec![1 << 8, 1 << 10],
            seed: 5,
        }
    }

    #[test]
    fn produces_rows_with_positive_rates() {
        let result = run(&tiny_config(), 4, 2048);
        assert_eq!(result.rows.len(), 2);
        for row in &result.rows {
            assert!(row.lsm_none.harmonic_mean > 0.0);
            assert!(row.lsm_all.harmonic_mean > 0.0);
            assert!(row.sa_none.harmonic_mean > 0.0);
            assert!(row.sa_all.harmonic_mean > 0.0);
        }
        assert!(result.cuckoo_all > 0.0);
        assert!(result.cuckoo_none > 0.0);
        assert_eq!(render(&result).num_rows(), 3);
    }

    #[test]
    fn larger_batch_sizes_do_not_hurt_lsm_lookups() {
        // Shape check: the LSM with b = n (one level) should not be slower
        // than with many levels (smaller b) by a large factor — in the paper
        // the mean rate *decreases* as b shrinks.  Compared in modelled
        // device time, so load from other tests cannot flip it.
        let config = SweepConfig {
            total_elements: 1 << 13,
            batch_sizes: vec![1 << 7, 1 << 13],
            seed: 6,
        };
        let result = run(&config, 3, 4096);
        let small_b = result.rows.iter().find(|r| r.batch_size == 1 << 7).unwrap();
        let big_b = result
            .rows
            .iter()
            .find(|r| r.batch_size == 1 << 13)
            .unwrap();
        assert!(
            big_b.lsm_none_modelled.harmonic_mean >= small_b.lsm_none_modelled.harmonic_mean * 0.5,
            "single-level LSM lookups unexpectedly slow: {} vs {}",
            big_b.lsm_none_modelled.harmonic_mean,
            small_b.lsm_none_modelled.harmonic_mean
        );
    }
}
