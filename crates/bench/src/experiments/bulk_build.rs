//! §V-B bulk build: building each data structure from scratch out of `n`
//! key–value pairs.
//!
//! The paper reports that the GPU LSM's bulk build is essentially a radix
//! sort (the same as building a sorted array) and about 2× faster than
//! building the cuckoo hash table at an 80 % load factor.

use gpu_baselines::{CuckooHashTable, SortedArray};
use gpu_lsm::GpuLsm;
use lsm_workloads::unique_random_pairs;

use super::experiment_device;
use crate::measure::{elements_per_sec_m, modelled_time_once, rate_m_from_seconds, time_once};
use crate::report::{fmt_rate, Table};

/// Build rates (M elements/s) for all three structures at one size.
#[derive(Debug, Clone, Copy)]
pub struct BulkBuildResult {
    /// Number of elements built from.
    pub num_elements: usize,
    /// Batch size used for the LSM build.
    pub batch_size: usize,
    /// GPU LSM bulk-build rate.
    pub lsm_rate: f64,
    /// Sorted-array build rate.
    pub sa_rate: f64,
    /// Cuckoo hash build rate (80 % load factor).
    pub cuckoo_rate: f64,
    /// GPU LSM bulk-build rate in modelled device time (deterministic).
    pub lsm_modelled_rate: f64,
    /// Sorted-array build rate in modelled device time (deterministic).
    pub sa_modelled_rate: f64,
}

/// Run the bulk-build comparison for `num_elements` elements.
pub fn run(num_elements: usize, batch_size: usize, seed: u64) -> BulkBuildResult {
    let device = experiment_device();
    let pairs = unique_random_pairs(num_elements, seed);

    let ((_, t_lsm), m_lsm) = modelled_time_once(&device, || {
        time_once(|| GpuLsm::bulk_build(device.clone(), batch_size, &pairs).expect("bulk build"))
    });
    let ((_, t_sa), m_sa) = modelled_time_once(&device, || {
        time_once(|| SortedArray::bulk_build(device.clone(), &pairs))
    });
    let (_, t_cuckoo) = time_once(|| CuckooHashTable::bulk_build(device, &pairs));

    BulkBuildResult {
        num_elements,
        batch_size,
        lsm_rate: elements_per_sec_m(num_elements, t_lsm),
        sa_rate: elements_per_sec_m(num_elements, t_sa),
        cuckoo_rate: elements_per_sec_m(num_elements, t_cuckoo),
        lsm_modelled_rate: rate_m_from_seconds(num_elements, m_lsm),
        sa_modelled_rate: rate_m_from_seconds(num_elements, m_sa),
    }
}

/// Render one or more bulk-build measurements.
pub fn render(results: &[BulkBuildResult]) -> Table {
    let mut table = Table::new(
        "Bulk build rates (M elements/s)",
        &["n", "b", "GPU LSM", "Sorted Array", "Cuckoo hash"],
    );
    for r in results {
        table.add_row(vec![
            r.num_elements.to_string(),
            r.batch_size.to_string(),
            fmt_rate(r.lsm_rate),
            fmt_rate(r.sa_rate),
            fmt_rate(r.cuckoo_rate),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rates_positive_and_lsm_close_to_sa() {
        let result = run(1 << 14, 1 << 10, 11);
        assert!(result.lsm_rate > 0.0);
        assert!(result.sa_rate > 0.0);
        assert!(result.cuckoo_rate > 0.0);
        // The LSM bulk build is a sort plus slicing: it should be within a
        // small factor of the plain sorted-array build (compared in
        // modelled device time, so load cannot flip it).
        let ratio = result.lsm_modelled_rate / result.sa_modelled_rate;
        assert!(ratio > 0.3 && ratio < 3.0, "LSM/SA build ratio {ratio}");
    }

    #[test]
    fn render_includes_every_measurement() {
        let results = vec![run(1 << 12, 1 << 8, 1), run(1 << 13, 1 << 8, 2)];
        assert_eq!(render(&results).num_rows(), 2);
    }
}
