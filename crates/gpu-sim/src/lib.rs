//! # gpu-sim — a bulk-synchronous GPU execution and cost model
//!
//! The GPU LSM paper (Ashkiani et al., IPDPS 2018) was evaluated on an NVIDIA
//! Tesla K40c with CUDA.  This reproduction runs on CPUs, so this crate
//! provides the *substrate* the rest of the workspace is built on: a model of
//! the GPU's bulk-synchronous execution style together with a memory/cost
//! model that lets higher layers report both CPU wall-clock time and an
//! estimate of what the same number of memory transactions would cost on the
//! modelled device.
//!
//! The crate deliberately models the aspects of the GPU that the paper's
//! algorithms actually exploit:
//!
//! * **Bulk synchrony** — work is issued as *kernels* over a grid of thread
//!   blocks; blocks are independent and are executed in parallel
//!   ([`Device::launch_blocks`], [`Device::launch_blocks_map`]).
//! * **The memory hierarchy** — kernels account the global loads/stores
//!   they perform and whether accesses are coalesced ([`metrics`]), and the
//!   [`cost`] module converts those counts into an estimated device time
//!   using the configured DRAM bandwidth and latency.  Data lives in plain
//!   host vectors; only the traffic over it is modelled.
//! * **Warp-wide cooperation** — `ballot`, `any`, `all`, shuffles and warp
//!   scans ([`warp`]) used by the multisplit and the query validation stages.
//! * **Shared-memory tiling** — block-level tiles bounded by the configured
//!   shared-memory size ([`block`]).
//!
//! The design goal is *shape preservation*: the relative costs of the GPU
//! LSM, the sorted-array baseline and the cuckoo hash table are governed by
//! how much data each one touches and in what pattern, which this model
//! captures, even though absolute throughput numbers are those of a CPU.
//!
//! ## Example
//!
//! ```
//! use gpu_sim::{Device, DeviceConfig};
//!
//! let device = Device::new(DeviceConfig::k40c());
//! let mut numbers = vec![3u32, 1, 4, 1, 5];
//! device.for_each_mut("double", &mut numbers, |_i, x| *x *= 2);
//! assert_eq!(numbers, [6, 2, 8, 2, 10]);
//! // The kernel booked its traffic: one coalesced read of each element.
//! assert_eq!(device.metrics().snapshot()["double"].coalesced_read_bytes, 20);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod config;
pub mod cost;
pub mod device;
pub mod event;
pub mod metrics;
pub mod warp;

pub use block::{BlockContext, SharedMemory};
pub use config::DeviceConfig;
pub use cost::{CostEstimate, CostModel};
pub use device::Device;
pub use event::PhaseTimer;
pub use metrics::{AccessPattern, KernelMetrics, MetricsRegistry};
pub use warp::{WarpOps, WARP_SIZE};
