//! The [`Device`]: configuration, metrics, phase timers and kernel launch
//! entry points, bundled the way a CUDA context bundles them.
//!
//! Kernels are expressed as data-parallel closures over element indices or
//! block tiles; they execute on a rayon thread pool, which stands in for the
//! GPU's block scheduler (blocks are independent, may run in any order, and
//! synchronise only at kernel boundaries — exactly the guarantees CUDA
//! gives).

use std::sync::Arc;

use rayon::prelude::*;

use crate::block::{make_blocks, tile_size_for, BlockContext};
use crate::config::DeviceConfig;
use crate::cost::{CostEstimate, CostModel};
use crate::event::PhaseTimer;
use crate::metrics::{AccessPattern, MetricsRegistry};

/// A modelled GPU device: the entry point of the simulation substrate.
#[derive(Debug)]
pub struct Device {
    config: DeviceConfig,
    metrics: Arc<MetricsRegistry>,
    timer: Arc<PhaseTimer>,
    cost_model: CostModel,
}

impl Device {
    /// Create a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        let cost_model = CostModel::new(config.clone());
        Device {
            config,
            metrics: Arc::new(MetricsRegistry::new()),
            timer: Arc::new(PhaseTimer::new()),
            cost_model,
        }
    }

    /// Create a device modelling the paper's Tesla K40c.
    pub fn k40c() -> Self {
        Self::new(DeviceConfig::k40c())
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The per-kernel traffic metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The phase timer shared by operations on this device.
    pub fn timer(&self) -> &PhaseTimer {
        &self.timer
    }

    /// The cost model for this device.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Estimate the modelled device time of all traffic recorded so far.
    pub fn estimated_time(&self) -> CostEstimate {
        self.cost_model.estimate_registry(&self.metrics)
    }

    /// Reset metrics and timers (between experiment phases).
    pub fn reset_counters(&self) {
        self.metrics.reset();
        self.timer.reset();
    }

    // ------------------------------------------------------------------
    // Kernel launches
    // ------------------------------------------------------------------

    /// Element-parallel kernel: apply `f(index, &mut element)` to every
    /// element of `data` in parallel.  Accounts one coalesced read and write
    /// per element.
    pub fn for_each_mut<T, F>(&self, kernel: &str, data: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        self.metrics.record_launch(kernel);
        let bytes = std::mem::size_of_val(data) as u64;
        self.metrics
            .record_read(kernel, bytes, AccessPattern::Coalesced);
        self.metrics
            .record_write(kernel, bytes, AccessPattern::Coalesced);
        data.par_iter_mut().enumerate().for_each(|(i, x)| f(i, x));
    }

    /// Map-parallel kernel: produce one output element per input element.
    /// Accounts coalesced reads of the input and coalesced writes of the
    /// output.
    pub fn map<T, U, F>(&self, kernel: &str, data: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        self.metrics.record_launch(kernel);
        self.metrics.record_read(
            kernel,
            std::mem::size_of_val(data) as u64,
            AccessPattern::Coalesced,
        );
        self.metrics.record_write(
            kernel,
            (data.len() * std::mem::size_of::<U>()) as u64,
            AccessPattern::Coalesced,
        );
        data.par_iter().enumerate().map(|(i, x)| f(i, x)).collect()
    }

    /// Block-parallel kernel over an index range: `n` items are split into
    /// block tiles of `tile` items, and `f(block)` runs once per block, with
    /// blocks executing in parallel.  No traffic is accounted automatically
    /// — the kernel body records what it actually touches.
    pub fn launch_blocks<F>(&self, kernel: &str, n: usize, tile: usize, f: F)
    where
        F: Fn(&BlockContext) + Sync,
    {
        self.metrics.record_launch(kernel);
        let blocks = make_blocks(n, tile, self.config.max_threads_per_block);
        blocks.par_iter().for_each(&f);
    }

    /// Block-parallel kernel that produces one result per block (e.g. a
    /// per-block histogram or partial reduction), returned in block order.
    pub fn launch_blocks_map<R, F>(&self, kernel: &str, n: usize, tile: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&BlockContext) -> R + Sync,
    {
        self.metrics.record_launch(kernel);
        let blocks = make_blocks(n, tile, self.config.max_threads_per_block);
        blocks.par_iter().map(&f).collect()
    }

    /// The tile size (in elements of `elem_bytes` bytes) that fits this
    /// device's shared memory; primitives use it to pick their block tiles.
    pub fn preferred_tile(&self, elem_bytes: usize) -> usize {
        tile_size_for(&self.config, elem_bytes)
    }

    /// Number of worker threads actually backing the block scheduler.
    pub fn worker_threads(&self) -> usize {
        rayon::current_num_threads()
    }
}

impl Default for Device {
    fn default() -> Self {
        Self::k40c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_each_mut_applies_function_to_all_elements() {
        let device = Device::new(DeviceConfig::small());
        let mut data = vec![1u32, 2, 3, 4];
        device.for_each_mut("double", &mut data, |_, x| *x *= 2);
        assert_eq!(data, [2, 4, 6, 8]);
    }

    #[test]
    fn map_produces_one_output_per_input() {
        let device = Device::new(DeviceConfig::small());
        let input: Vec<u32> = (0..1000).collect();
        let out = device.map("square", &input, |_, &x| (x as u64) * (x as u64));
        assert_eq!(out.len(), 1000);
        assert_eq!(out[31], 31 * 31);
    }

    #[test]
    fn kernel_launch_records_traffic() {
        let device = Device::new(DeviceConfig::small());
        let mut data = vec![0u32; 256];
        device.for_each_mut("touch", &mut data, |i, x| *x = i as u32);
        let snap = device.metrics().snapshot();
        assert_eq!(snap["touch"].launches, 1);
        assert_eq!(snap["touch"].coalesced_read_bytes, 256 * 4);
        assert_eq!(snap["touch"].coalesced_write_bytes, 256 * 4);
    }

    #[test]
    fn launch_blocks_covers_all_tiles() {
        let device = Device::new(DeviceConfig::small());
        use std::sync::atomic::{AtomicUsize, Ordering};
        let covered = AtomicUsize::new(0);
        device.launch_blocks("tiles", 10_000, 1024, |b| {
            covered.fetch_add(b.tile_len(), Ordering::Relaxed);
        });
        assert_eq!(covered.load(Ordering::Relaxed), 10_000);
    }

    #[test]
    fn launch_blocks_map_returns_in_block_order() {
        let device = Device::new(DeviceConfig::small());
        let starts = device.launch_blocks_map("starts", 1000, 300, |b| b.tile_start);
        assert_eq!(starts, vec![0, 300, 600, 900]);
    }

    #[test]
    fn estimated_time_grows_with_traffic() {
        let device = Device::new(DeviceConfig::small());
        let mut data = vec![0u64; 1 << 16];
        device.for_each_mut("pass1", &mut data, |i, x| *x = i as u64);
        let t1 = device.estimated_time().total_seconds;
        device.for_each_mut("pass2", &mut data, |_, x| *x += 1);
        let t2 = device.estimated_time().total_seconds;
        assert!(t2 > t1);
        device.reset_counters();
        assert_eq!(device.estimated_time().total_seconds, 0.0);
    }

    #[test]
    fn preferred_tile_is_positive_warp_multiple() {
        let device = Device::k40c();
        let tile = device.preferred_tile(8);
        assert!(tile > 0);
        assert_eq!(tile % device.config().warp_size, 0);
    }
}
