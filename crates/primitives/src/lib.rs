//! # gpu-primitives — bulk parallel primitives for the GPU LSM
//!
//! The paper builds the GPU LSM out of a small set of bulk primitives taken
//! from CUB and moderngpu: radix sort, merge, exclusive scan, segmented sort,
//! stream compaction and the authors' two-bucket multisplit.  This crate
//! provides all but the segmented sort (count and range merge each query's
//! level slices in its place, and book the sort's modelled cost),
//! implemented from scratch on top of the [`gpu_sim`] substrate: every
//! primitive decomposes its input into block tiles (sized for the modelled
//! device's shared memory), runs the blocks in parallel, and records the
//! global-memory traffic it would generate so the cost model can estimate
//! device time.
//!
//! Semantics the GPU LSM depends on:
//!
//! * [`radix_sort`] is **stable** and sorts by the full 32-bit key (including
//!   the status bit), exactly like CUB's radix sort.
//! * [`merge`] is **stable** under an arbitrary comparator, and "stable"
//!   additionally means *the first input wins ties*, which is how the LSM
//!   keeps more recent elements ahead of older ones (§IV-A).
//! * [`multisplit`] is a stable two-bucket partition (valid/stale) used by
//!   cleanup.
//! * [`filter`] and [`fence`] are the query-acceleration structures built
//!   once per level on the insert path: a blocked Bloom filter (one
//!   cache-line block per membership test) and a fence array (sparse sorted
//!   samples in Eytzinger layout) that let queries skip levels or narrow
//!   their binary searches without ever changing results.
//!
//! ```
//! use gpu_sim::Device;
//! use gpu_primitives::radix_sort;
//!
//! let device = Device::k40c();
//! let mut keys = vec![5u32, 1, 4, 1, 3];
//! let mut vals = vec![50u32, 10, 40, 11, 30];
//! radix_sort::sort_pairs(&device, &mut keys, &mut vals);
//! assert_eq!(keys, vec![1, 1, 3, 4, 5]);
//! assert_eq!(vals, vec![10, 11, 30, 40, 50]); // stable: first 1 kept first
//! ```

#![warn(missing_docs)]

pub mod compact;
pub mod fence;
pub mod filter;
pub mod histogram;
pub mod merge;
pub mod multisplit;
pub mod radix_sort;
pub mod reduce;
pub mod scan;
pub mod search;
pub(crate) mod util;

pub use compact::{compact_by_flag, compact_pairs_by_flag};
pub use fence::FenceArray;
pub use filter::BloomFilter;
pub use merge::{merge_by, merge_pairs_by, merge_pairs_by_into};
pub use multisplit::{multisplit_in_place, multisplit_pairs_in_place};
pub use radix_sort::{sort_keys, sort_pairs};
pub use scan::{exclusive_scan, exclusive_scan_in_place, inclusive_scan};
pub use search::{lower_bound_by, upper_bound_by};
