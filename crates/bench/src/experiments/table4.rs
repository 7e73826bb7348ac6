//! Table IV — count and range query rates (M queries/s) for expected result
//! widths L = 8 and L = 1024, GPU LSM versus GPU SA.
//!
//! As in Table III, the paper sweeps every possible number of resident
//! batches for a fixed `n`; here `r` is sampled.  Query intervals are drawn
//! so that the expected number of resident keys they cover is `L`
//! (`lsm_workloads::range_queries_with_expected_width`).

use gpu_baselines::SortedArray;
use gpu_lsm::GpuLsm;
use lsm_workloads::{range_queries_with_expected_width, unique_random_pairs, SweepConfig};

use super::{experiment_device, sample_resident_batches};
use crate::measure::{
    modelled_time_once, queries_per_sec_m, rate_m_from_seconds, time_once, RateStats,
};
use crate::report::{fmt_rate, Table};

/// Which retrieval operation a row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// COUNT(k1, k2).
    Count,
    /// RANGE(k1, k2).
    Range,
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryKind::Count => write!(f, "count"),
            QueryKind::Range => write!(f, "range"),
        }
    }
}

/// Statistics for one (operation, batch size, L) combination.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Count or range.
    pub kind: QueryKind,
    /// Batch size `b`.
    pub batch_size: usize,
    /// Expected result width `L`.
    pub expected_width: usize,
    /// GPU LSM rate statistics over the sampled `r` values.
    pub lsm: RateStats,
    /// GPU LSM rates in modelled device time (deterministic).
    pub lsm_modelled: RateStats,
    /// GPU SA rate statistics.
    pub sa: RateStats,
}

/// Full Table IV result.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// All rows (kind-major, then batch size, then L).
    pub rows: Vec<Table4Row>,
    /// Number of `r` samples per configuration.
    pub r_samples: usize,
    /// Cap on the number of queries per measurement.
    pub max_queries: usize,
}

#[allow(clippy::too_many_arguments)]
fn measure_one(
    kind: QueryKind,
    total_elements: usize,
    batch_size: usize,
    expected_width: usize,
    r_samples: usize,
    max_queries: usize,
    seed: u64,
) -> Table4Row {
    let device = experiment_device();
    let pairs = unique_random_pairs(total_elements, seed);
    let max_r = total_elements / batch_size;
    let sampled = sample_resident_batches(max_r, r_samples);

    let mut lsm_rates = Vec::new();
    let mut lsm_modelled = Vec::new();
    let mut sa_rates = Vec::new();
    for &r in &sampled {
        let resident = &pairs[..r * batch_size];
        let num_queries = (r * batch_size).min(max_queries);
        let queries = range_queries_with_expected_width(
            resident.len(),
            expected_width,
            num_queries,
            seed ^ r as u64,
        );

        let lsm = GpuLsm::bulk_build(device.clone(), batch_size, resident).expect("bulk build");
        let sa = SortedArray::bulk_build(device.clone(), resident);
        let ((_, t), modelled) = modelled_time_once(&device, || {
            time_once(|| match kind {
                QueryKind::Count => drop(lsm.count(&queries)),
                QueryKind::Range => drop(lsm.range(&queries)),
            })
        });
        lsm_rates.push(queries_per_sec_m(num_queries, t));
        lsm_modelled.push(rate_m_from_seconds(num_queries, modelled));
        let (_, t) = time_once(|| match kind {
            QueryKind::Count => drop(sa.count(&queries)),
            QueryKind::Range => drop(sa.range(&queries)),
        });
        sa_rates.push(queries_per_sec_m(num_queries, t));
    }

    Table4Row {
        kind,
        batch_size,
        expected_width,
        lsm: RateStats::from_rates(&lsm_rates),
        lsm_modelled: RateStats::from_rates(&lsm_modelled),
        sa: RateStats::from_rates(&sa_rates),
    }
}

/// Run the full Table IV experiment for the given expected widths
/// (the paper uses `[8, 1024]`).
pub fn run(
    config: &SweepConfig,
    expected_widths: &[usize],
    r_samples: usize,
    max_queries: usize,
) -> Table4Result {
    let mut rows = Vec::new();
    for &kind in &[QueryKind::Count, QueryKind::Range] {
        for &b in config.batch_sizes.iter().rev() {
            if b > config.total_elements {
                continue;
            }
            for &l in expected_widths {
                rows.push(measure_one(
                    kind,
                    config.total_elements,
                    b,
                    l,
                    r_samples,
                    max_queries,
                    config.seed,
                ));
            }
        }
    }
    Table4Result {
        rows,
        r_samples,
        max_queries,
    }
}

/// Render in the paper's layout.
pub fn render(result: &Table4Result) -> Table {
    let mut table = Table::new(
        "Table IV: count and range query rates (M queries/s)",
        &["op", "b", "L", "LSM min", "LSM max", "LSM mean", "SA mean"],
    );
    for row in &result.rows {
        table.add_row(vec![
            row.kind.to_string(),
            format!("2^{}", row.batch_size.trailing_zeros()),
            row.expected_width.to_string(),
            fmt_rate(row.lsm.min),
            fmt_rate(row.lsm.max),
            fmt_rate(row.lsm.harmonic_mean),
            fmt_rate(row.sa.harmonic_mean),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_rows_for_both_operations_and_widths() {
        let config = SweepConfig {
            total_elements: 1 << 11,
            batch_sizes: vec![1 << 9],
            seed: 7,
        };
        let result = run(&config, &[8, 64], 3, 512);
        assert_eq!(result.rows.len(), 4); // 2 ops × 1 batch size × 2 widths
        for row in &result.rows {
            assert!(row.lsm.harmonic_mean > 0.0, "{:?}", row);
            assert!(row.sa.harmonic_mean > 0.0);
        }
        assert_eq!(render(&result).num_rows(), 4);
    }

    #[test]
    fn wider_ranges_are_slower() {
        // Shape check from Table IV: L = 1024-style wide queries are much
        // slower than L = 8 because far more candidates must be validated.
        // Compared in modelled device time, so load cannot flip it.
        let config = SweepConfig {
            total_elements: 1 << 12,
            batch_sizes: vec![1 << 10],
            seed: 8,
        };
        let result = run(&config, &[4, 256], 2, 256);
        let narrow = result
            .rows
            .iter()
            .find(|r| r.kind == QueryKind::Count && r.expected_width == 4)
            .unwrap();
        let wide = result
            .rows
            .iter()
            .find(|r| r.kind == QueryKind::Count && r.expected_width == 256)
            .unwrap();
        assert!(
            narrow.lsm_modelled.harmonic_mean > wide.lsm_modelled.harmonic_mean,
            "narrow {} should beat wide {}",
            narrow.lsm_modelled.harmonic_mean,
            wide.lsm_modelled.harmonic_mean
        );
    }

    #[test]
    fn count_is_not_slower_than_range() {
        // Count avoids the value gather and the final compaction, so it
        // should be at least as fast as range for the same configuration
        // (in modelled device time, so load cannot flip it).
        let config = SweepConfig {
            total_elements: 1 << 12,
            batch_sizes: vec![1 << 10],
            seed: 9,
        };
        let result = run(&config, &[64], 2, 512);
        let count = result
            .rows
            .iter()
            .find(|r| r.kind == QueryKind::Count)
            .unwrap();
        let range = result
            .rows
            .iter()
            .find(|r| r.kind == QueryKind::Range)
            .unwrap();
        assert!(
            count.lsm_modelled.harmonic_mean >= range.lsm_modelled.harmonic_mean * 0.7,
            "count {} vs range {}",
            count.lsm_modelled.harmonic_mean,
            range.lsm_modelled.harmonic_mean
        );
    }
}
