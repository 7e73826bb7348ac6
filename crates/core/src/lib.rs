//! # gpu-lsm — a dynamic dictionary data structure for the (modelled) GPU
//!
//! This crate is the Rust reproduction of *GPU LSM: A Dynamic Dictionary
//! Data Structure for the GPU* (Ashkiani, Li, Farach-Colton, Amenta, Owens —
//! IPDPS 2018).  The GPU LSM combines the level structure of the
//! Log-Structured Merge tree with the COLA's sorted-array levels: updates
//! arrive in fixed-size batches of `b` key–value pairs, level `i` holds
//! exactly `b·2^i` elements and is either full or empty, and inserting a
//! batch is a binary-counter carry chain of stable merges.  Deletions insert
//! *tombstones*; queries (lookup, count, range) tolerate the resulting stale
//! elements, and a [`GpuLsm::cleanup`] pass removes them.
//!
//! All bulk work is expressed with the primitives of [`gpu_primitives`]
//! (radix sort, merge, multisplit) running on the [`gpu_sim`] substrate,
//! mirroring the paper's use of CUB and moderngpu on a Tesla K40c.  Count
//! and range book the scans, segmented sort and compaction of the paper's
//! pipeline without running them (see [`count`]).
//!
//! ## Quick example
//!
//! ```
//! use std::sync::Arc;
//! use gpu_sim::Device;
//! use gpu_lsm::{GpuLsm, UpdateBatch};
//!
//! let device = Arc::new(Device::k40c());
//! let mut lsm = GpuLsm::new(device, 1024).unwrap();
//!
//! // Insert one full batch of key–value pairs.
//! let pairs: Vec<(u32, u32)> = (0..1024).map(|k| (k, k * 10)).collect();
//! lsm.insert(&pairs).unwrap();
//!
//! // Point lookups.
//! let results = lsm.lookup(&[5, 2000]);
//! assert_eq!(results, vec![Some(50), None]);
//!
//! // Delete a key (tombstone) and look it up again.
//! let mut batch = UpdateBatch::new();
//! batch.delete(5);
//! lsm.update(&batch).unwrap();
//! assert_eq!(lsm.lookup(&[5]), vec![None]);
//!
//! // Count and range queries.
//! assert_eq!(lsm.count(&[(0, 9)]), vec![9]); // key 5 deleted
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod alloc_scope;
pub mod arena;
pub mod batch;
pub mod cleanup;
pub mod compaction;
pub mod concurrent;
pub mod config;
pub mod count;
pub mod error;
pub mod key;
pub mod latency;
pub mod level;
pub mod lookup;
pub mod lsm;
pub mod order;
pub mod range;
pub mod router;
pub mod shard;
pub mod stats;
mod sync;
pub mod validate;
pub mod vfs;
pub mod wal;

pub use admission::{AdmissionConfig, AdmissionLatencyStats, AdmissionStats, AdmittedLsm};
pub use arena::{Arena, ArenaRegion, ArenaStats, RegionSpan};
pub use batch::{Op, UpdateBatch};
pub use cleanup::CleanupReport;
pub use compaction::CompactionPlan;
pub use concurrent::ConcurrentGpuLsm;
pub use config::{LsmConfig, RebalanceConfig};
pub use error::{LsmError, Result};
pub use key::{Entry, Key, Value, MAX_KEY};
pub use latency::{LatencyHistogram, LatencySnapshot};
pub use lsm::GpuLsm;
pub use range::RangeResult;
pub use router::{RouterKind, ShardRouter, SubQuery};
pub use shard::{RebalanceAction, ShardedLsm, ShardedStats};
pub use stats::{LsmStats, MergeCounters};
pub use vfs::{Fault, FaultKind, FaultOp, FaultVfs, RealVfs, Vfs, VfsFile};
pub use wal::{DegradeMode, DurabilityConfig, DurabilityStats, RecoveryReport, RetryPolicy};
