//! Levels of the GPU LSM: sorted arrays of exactly `b·2^i` elements.
//!
//! With `r` resident batches the occupied levels are the set bits of the
//! binary representation of `r` (paper §III-B).  Each level stores its
//! encoded keys and values as two parallel arrays (structure-of-arrays, the
//! layout the real implementation uses for coalesced access), sorted by the
//! original key with same-key elements ordered newest-first.
//!
//! ## Query acceleration
//!
//! Alongside the arrays, every level carries two read-only side structures
//! built **once** when the level is constructed (i.e. during the insert
//! path's sort/merge or a bulk rebuild, never on the query path):
//!
//! * a blocked **Bloom filter** over the level's original keys
//!   ([`gpu_primitives::filter`], sized by the owning structure's
//!   `bloom_bits`), and
//! * a **fence array** ([`gpu_primitives::fence`]) sampling every 256th
//!   key, which narrows every binary search to one ≤ 256-element window and
//!   exposes the level's min/max key for level/shard skipping.
//!
//! Fences cost ~0.4 % of the level's memory and a `len / 256`-sample pass,
//! so every level gets them.  Filter construction hashes every key, which
//! is comparable to the cost of merging it, so whether a filter is built
//! depends on how long the level will live (how many queries will amortize
//! the build): levels produced by a **bulk rebuild** (bulk build, cleanup)
//! are long-lived and get filters from [`FILTER_MIN_LEN`] elements up,
//! while **carry-chain** levels — level `i` is consumed by a merge after at
//! most `2^i` further batches — only get filters from
//! [`CARRY_FILTER_MIN_LEN`] up, where the lifetime is long enough for the
//! build to pay for itself and short-lived small levels keep the insert
//! path untaxed.  The carry-chain policy decision is made by the
//! compaction planner ([`crate::compaction::CompactionPlan`]), whose
//! executor assembles the output through the crate-internal
//! `Level::from_sorted_with_aux` with incrementally maintained structures.
//!
//! Both structures are conservative: a filter negative or an empty fence
//! window proves the level cannot affect a query, and otherwise the
//! narrowed search returns exactly the index a full search would.  Query
//! results are therefore bit-identical with the acceleration on or off.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use gpu_primitives::fence::FenceArray;
use gpu_primitives::filter::BloomFilter;

use crate::arena::{RegionSpan, Storage};
use crate::key::{key_less, original_key, EncodedKey, Key, Value};

/// Minimum level length for a Bloom filter on long-lived (bulk-rebuilt)
/// levels: below this a fence-narrowed search is already about as cheap as
/// a filter probe.
pub const FILTER_MIN_LEN: usize = 1 << 10;

/// Minimum level length for a Bloom filter on carry-chain levels, which are
/// consumed by a future merge after ~`len / b` more batches: the build
/// (one hash per key) only amortizes once the level lives long enough.
pub const CARRY_FILTER_MIN_LEN: usize = 1 << 17;

/// `usize::MAX` = no override; anything else replaces
/// [`CARRY_FILTER_MIN_LEN`] (tests force the carry-chain filter paths at
/// small sizes with this).
static CARRY_MIN_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);

/// The effective carry-chain filter threshold: a test override if one is
/// set, otherwise [`CARRY_FILTER_MIN_LEN`].
pub fn carry_filter_min_len() -> usize {
    let o = CARRY_MIN_OVERRIDE.load(Ordering::Relaxed);
    if o == usize::MAX {
        CARRY_FILTER_MIN_LEN
    } else {
        o
    }
}

/// Test-only override of the carry-chain filter threshold; `None` restores
/// the default.  Lets differential tests exercise the incremental filter
/// maintenance paths without building 128Ki-element structures.
#[doc(hidden)]
pub fn set_carry_filter_min_len_override(len: Option<usize>) {
    CARRY_MIN_OVERRIDE.store(len.unwrap_or(usize::MAX), Ordering::Relaxed);
}

/// Outcome of probing a level for one key (see [`Level::find`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelProbe {
    /// The newest element with the queried key, if the level holds one.
    pub entry: Option<(EncodedKey, Value)>,
    /// Whether a Bloom filter membership test ran (one block read).
    pub filter_probed: bool,
    /// Whether the Bloom filter answered "definitely absent" (in which case
    /// no binary search ran).
    pub filter_skipped: bool,
    /// Scattered binary-search probes the lookup performed.
    pub probes: u32,
}

/// Source of [`Level::id`]: process-wide, so no two separately built levels
/// share an id, whichever structure or service built them.
static NEXT_LEVEL_ID: AtomicU64 = AtomicU64::new(1);

/// One occupied level of the LSM.
///
/// Key and value arrays live in `Storage` (see `crate::arena`): a plain vector
/// for long-lived bulk-built levels (and arena-off operation), or a
/// reserved slab-arena region for carry-chain outputs.  Cloning a level
/// deep-copies arena-backed storage to owned vectors, so clones never alias
/// the arena.
#[derive(Debug, Clone)]
pub struct Level {
    /// Drawn from [`NEXT_LEVEL_ID`] by every constructor and kept by
    /// clones.  A level has no mutators, so two levels with equal ids hold
    /// equal bytes; snapshots use that to carry unchanged runs over.
    id: u64,
    keys: Storage,
    values: Storage,
    filter: Option<BloomFilter>,
    fences: Option<FenceArray>,
}

/// Level equality is over contents only; the filter and fences are a pure
/// function of the keys (plus the owner's filter sizing) and are excluded so that
/// filters-on and filters-off structures holding the same data compare equal.
/// The id is excluded too: separately built levels with the same contents
/// are equal.
impl PartialEq for Level {
    fn eq(&self, other: &Self) -> bool {
        self.keys.as_slice() == other.keys.as_slice()
            && self.values.as_slice() == other.values.as_slice()
    }
}

impl Eq for Level {}

impl Level {
    /// Build a long-lived level (bulk build, cleanup redistribution) from
    /// already-sorted parallel key/value arrays: fences always, a Bloom
    /// filter of `bloom_bits` bits per key from [`FILTER_MIN_LEN`] elements
    /// up (none when `bloom_bits` is 0).  Both structures are built here,
    /// in one streaming pass over the freshly produced keys, and are never
    /// touched again until the level is consumed by a merge.
    pub fn from_sorted(keys: Vec<EncodedKey>, values: Vec<Value>, bloom_bits: u32) -> Self {
        let filter = if keys.len() >= FILTER_MIN_LEN {
            BloomFilter::build(keys.iter().map(|&k| original_key(k)), bloom_bits)
        } else {
            None
        };
        let fences = FenceArray::build_with(
            keys.len(),
            gpu_primitives::fence::DEFAULT_FENCE_INTERVAL,
            |i| original_key(keys[i]),
        );
        Self::from_sorted_with_aux(keys, values, filter, fences)
    }

    /// Assemble a level from already-sorted arrays **and** pre-built
    /// acceleration structures — the carry-chain executor's constructor,
    /// which maintains filters and fences incrementally across merges
    /// instead of rebuilding them here (see [`crate::compaction`]).
    ///
    /// The caller guarantees the aux structures describe exactly these
    /// keys: the fences' min/max and window invariants and the filter's
    /// no-false-negative property are what queries rely on.
    pub(crate) fn from_sorted_with_aux(
        keys: impl Into<Storage>,
        values: impl Into<Storage>,
        filter: Option<BloomFilter>,
        fences: Option<FenceArray>,
    ) -> Self {
        let keys = keys.into();
        let values = values.into();
        debug_assert_eq!(keys.len(), values.len());
        debug_assert!(
            keys.windows(2).all(|w| !key_less(&w[1], &w[0])),
            "level keys must be sorted by original key"
        );
        if let Some(f) = &fences {
            debug_assert_eq!(f.indexed_len(), keys.len());
            debug_assert_eq!(f.min_key(), original_key(keys[0]));
            debug_assert_eq!(f.max_key(), original_key(keys[keys.len() - 1]));
        }
        Level {
            id: NEXT_LEVEL_ID.fetch_add(1, Ordering::Relaxed),
            keys,
            values,
            filter,
            fences,
        }
    }

    /// The level's identity: equal ids imply equal contents (see the
    /// field's doc).  Never 0.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    // ------------------------------------------------------------------
    // Accelerated searches
    // ------------------------------------------------------------------

    /// Probe the level for `query`: consult the Bloom filter (if present),
    /// then run a fence-narrowed lower-bound search.  Returns the newest
    /// element with the queried original key, if any, plus the probe's
    /// modelled cost (see [`LevelProbe`]).
    ///
    /// Exactly equivalent to a full binary search: the filter can only skip
    /// keys that are provably absent, and the fence window provably
    /// brackets the lower bound.
    pub fn find(&self, query: Key) -> LevelProbe {
        let filter_probed = self.filter.is_some();
        if let Some(filter) = &self.filter {
            if !filter.contains(query) {
                return LevelProbe {
                    entry: None,
                    filter_probed,
                    filter_skipped: true,
                    probes: 0,
                };
            }
        }
        let idx = self.lower_bound(query);
        let entry = (idx < self.keys.len() && original_key(self.keys[idx]) == query)
            .then(|| (self.keys[idx], self.values[idx]));
        LevelProbe {
            entry,
            filter_probed,
            filter_skipped: false,
            probes: self.search_probe_depth(),
        }
    }

    /// Index of the first element whose original key is `>= query`
    /// (fence-narrowed; identical to a full-array lower bound).  Any `u32`
    /// query is valid: `MAX_KEY + 1` lands past the last element.
    pub fn lower_bound(&self, query: Key) -> usize {
        let (lo, hi) = match &self.fences {
            Some(f) => f.lower_bound_window(query),
            None => (0, self.keys.len()),
        };
        lo + self.keys[lo..hi].partition_point(|&k| original_key(k) < query)
    }

    /// Index of the first element whose original key is `> query`
    /// (fence-narrowed; identical to a full-array upper bound).
    pub fn upper_bound(&self, query: Key) -> usize {
        let (lo, hi) = match &self.fences {
            Some(f) => f.upper_bound_window(query),
            None => (0, self.keys.len()),
        };
        lo + self.keys[lo..hi].partition_point(|&k| original_key(k) <= query)
    }

    /// Lockstep lower bounds for one group of lanes: sets `out[i]` to
    /// [`Level::lower_bound`]`(queries[i])` for every lane, the way a GPU
    /// warp searches — every lane takes its next probe in the same round,
    /// so the rounds' cache misses overlap instead of forming one
    /// dependent chain per query.  Queries need not be sorted.
    ///
    /// First every lane gets a window that provably holds its bound:
    ///
    /// * a group at least as dense as the fence samples (its two extreme
    ///   keys' fence windows span at most `lanes × interval` elements)
    ///   shares that one span, found with two fence descents;
    /// * a sparser group gives each lane its own fence window, widened to
    ///   the fences' widest window so all lanes still share one width.
    ///
    /// Then all lanes halve their equal-width windows round by round with
    /// a branch-free select, the lane's window start living in `out`, so
    /// the search needs no scratch of its own.
    pub fn lower_bounds(&self, queries: &[Key], out: &mut [usize]) {
        debug_assert_eq!(queries.len(), out.len());
        let keys = self.keys.as_slice();
        if queries.is_empty() || keys.is_empty() {
            out.fill(0);
            return;
        }
        // Every lane's bound lies in `[out[i], out[i] + width]`.
        let mut width = match &self.fences {
            None => {
                out.fill(0);
                keys.len()
            }
            Some(f) => {
                let (lo_q, hi_q) = queries
                    .iter()
                    .fold((Key::MAX, 0), |(lo, hi), &q| (lo.min(q), hi.max(q)));
                let (lo, lo_end) = f.lower_bound_window(lo_q);
                let hi = if hi_q == lo_q {
                    lo_end
                } else {
                    f.lower_bound_window(hi_q).1
                };
                if hi - lo <= queries.len() * f.interval() {
                    out.fill(lo);
                    hi - lo
                } else {
                    // Widening a window keeps the bound inside it; starting
                    // no later than `len - width` keeps it inside the array.
                    let width = f.max_window().min(keys.len());
                    let last_start = keys.len() - width;
                    for (start, &q) in out.iter_mut().zip(queries) {
                        *start = f.lower_bound_window(q).0.min(last_start);
                    }
                    width
                }
            }
        };
        if width == 0 {
            return;
        }
        while width > 1 {
            let half = width / 2;
            for (base, &q) in out.iter_mut().zip(queries) {
                // A conditional move, not a branch: each lane goes either
                // way with even odds, so a branch would mispredict half
                // the time.
                let mid = *base + half;
                *base = std::hint::select_unpredictable(original_key(keys[mid]) < q, mid, *base);
            }
            width -= half;
        }
        for (base, &q) in out.iter_mut().zip(queries) {
            *base += usize::from(original_key(keys[*base]) < q);
        }
    }

    /// Smallest original key resident in the level (tombstones included —
    /// a tombstone inside a query interval still decides queries).
    pub fn min_key(&self) -> Key {
        match &self.fences {
            Some(f) => f.min_key(),
            None => self.keys.first().map_or(Key::MAX, |&k| original_key(k)),
        }
    }

    /// Largest original key resident in the level (tombstones and placebo
    /// padding included, so pruning against it is always conservative).
    pub fn max_key(&self) -> Key {
        match &self.fences {
            Some(f) => f.max_key(),
            None => self.keys.last().map_or(0, |&k| original_key(k)),
        }
    }

    /// Worst-case scattered probes of one fence-narrowed search: the hot
    /// top of the Eytzinger fence tree is modelled as one cached touch,
    /// plus a binary search of one ≤ interval window (never more than the
    /// un-narrowed search would pay).
    pub fn search_probe_depth(&self) -> u32 {
        let full = usize::BITS - self.keys.len().leading_zeros();
        match &self.fences {
            Some(f) => (1 + f.window_probe_depth()).min(full.max(1)),
            None => full,
        }
    }

    /// Whether the closed interval `[k1, k2]` overlaps the level's resident
    /// key range — the single source of the fence min/max skip predicate
    /// used by count/range gathering and its traffic accounting.
    pub fn interval_intersects(&self, k1: Key, k2: Key) -> bool {
        k2 >= self.min_key() && k1 <= self.max_key()
    }

    /// The level's Bloom filter, when one was built.
    pub fn filter(&self) -> Option<&BloomFilter> {
        self.filter.as_ref()
    }

    /// The level's fence array (absent only for empty levels).
    pub fn fences(&self) -> Option<&FenceArray> {
        self.fences.as_ref()
    }

    /// Memory of the query-acceleration structures (filter + fences).
    pub fn accel_bytes(&self) -> (usize, usize) {
        (
            self.filter.as_ref().map_or(0, |f| f.size_bytes()),
            self.fences.as_ref().map_or(0, |f| f.size_bytes()),
        )
    }

    /// Number of elements in the level.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the level holds no elements.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The encoded keys, sorted by original key.
    pub fn keys(&self) -> &[EncodedKey] {
        self.keys.as_slice()
    }

    /// The values, parallel to [`Level::keys`].
    pub fn values(&self) -> &[Value] {
        self.values.as_slice()
    }

    /// Consume the level, returning its key and value arrays (copies when
    /// arena-backed; only cold paths — cleanup, snapshots — consume levels
    /// this way, the carry chain borrows and merges into arena regions).
    pub fn into_parts(self) -> (Vec<EncodedKey>, Vec<Value>) {
        (self.keys.into_vec(), self.values.into_vec())
    }

    /// The arena spans backing this level's arrays (empty when Vec-backed)
    /// — the `validate` overlap/aliasing invariant reads these.
    pub(crate) fn arena_spans(&self) -> impl Iterator<Item = RegionSpan> + '_ {
        self.keys
            .arena_span()
            .into_iter()
            .chain(self.values.arena_span())
    }

    /// Memory footprint of the level in bytes (keys + values).
    pub fn size_bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<EncodedKey>()
            + self.values.len() * std::mem::size_of::<Value>()
    }
}

/// The set of levels of an LSM with batch size `b` and `r` resident batches.
/// `levels[i]` is `Some` iff bit `i` of `r` is set.
#[derive(Debug, Clone, Default)]
pub struct LevelSet {
    levels: Vec<Option<Level>>,
}

impl LevelSet {
    /// An empty level set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of level slots (occupied or not) currently allocated.
    pub fn num_slots(&self) -> usize {
        self.levels.len()
    }

    /// The level at index `i`, if occupied.
    pub fn get(&self, i: usize) -> Option<&Level> {
        self.levels.get(i).and_then(|l| l.as_ref())
    }

    /// Whether level `i` is occupied.
    pub fn is_full(&self, i: usize) -> bool {
        self.get(i).is_some()
    }

    /// Take (empty) level `i`, returning its contents.
    pub fn take(&mut self, i: usize) -> Option<Level> {
        self.levels.get_mut(i).and_then(|l| l.take())
    }

    /// Place `level` at index `i`, which must currently be empty.
    pub fn place(&mut self, i: usize, level: Level) {
        while self.levels.len() <= i {
            self.levels.push(None);
        }
        debug_assert!(self.levels[i].is_none(), "placing into an occupied level");
        self.levels[i] = Some(level);
    }

    /// Remove and return every occupied level, smallest index first.
    pub fn drain_occupied(&mut self) -> Vec<(usize, Level)> {
        let mut out = Vec::new();
        for (i, slot) in self.levels.iter_mut().enumerate() {
            if let Some(level) = slot.take() {
                out.push((i, level));
            }
        }
        self.levels.clear();
        out
    }

    /// Iterate over occupied levels, smallest (most recent) index first.
    pub fn iter_occupied(&self) -> impl Iterator<Item = (usize, &Level)> {
        self.levels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|level| (i, level)))
    }

    /// Number of occupied levels.
    pub fn num_occupied(&self) -> usize {
        self.levels.iter().filter(|l| l.is_some()).count()
    }

    /// Total number of elements across all occupied levels.
    pub fn total_elements(&self) -> usize {
        self.iter_occupied().map(|(_, l)| l.len()).sum()
    }

    /// Total memory footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.iter_occupied().map(|(_, l)| l.size_bytes()).sum()
    }

    /// Remove all levels.
    pub fn clear(&mut self) {
        self.levels.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::encode_regular;
    use gpu_primitives::filter::DEFAULT_BITS_PER_KEY;

    fn level_of(keys: &[u32]) -> Level {
        let encoded: Vec<u32> = keys.iter().map(|&k| encode_regular(k)).collect();
        let values: Vec<u32> = keys.iter().map(|&k| k * 10).collect();
        Level::from_sorted(encoded, values, DEFAULT_BITS_PER_KEY)
    }

    #[test]
    fn level_accessors() {
        let level = level_of(&[1, 2, 3]);
        assert_eq!(level.len(), 3);
        assert!(!level.is_empty());
        assert_eq!(level.values(), &[10, 20, 30]);
        assert_eq!(level.size_bytes(), 3 * 8);
        let (k, v) = level.into_parts();
        assert_eq!(k.len(), 3);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn occupancy_follows_placement() {
        let mut set = LevelSet::new();
        assert_eq!(set.num_occupied(), 0);
        set.place(1, level_of(&[1, 2]));
        set.place(3, level_of(&[3, 4, 5, 6, 7, 8, 9, 10]));
        assert!(set.is_full(1));
        assert!(!set.is_full(0));
        assert!(!set.is_full(2));
        assert!(set.is_full(3));
        assert_eq!(set.num_occupied(), 2);
        assert_eq!(set.total_elements(), 10);
    }

    #[test]
    fn take_empties_a_slot() {
        let mut set = LevelSet::new();
        set.place(0, level_of(&[5]));
        let taken = set.take(0).unwrap();
        assert_eq!(taken.len(), 1);
        assert!(!set.is_full(0));
        assert!(set.take(0).is_none());
        assert!(set.take(99).is_none());
    }

    #[test]
    fn drain_returns_levels_in_index_order() {
        let mut set = LevelSet::new();
        set.place(2, level_of(&[1, 2, 3, 4]));
        set.place(0, level_of(&[9]));
        let drained = set.drain_occupied();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 0);
        assert_eq!(drained[1].0, 2);
        assert_eq!(set.num_occupied(), 0);
    }

    #[test]
    fn iter_occupied_skips_empty_slots() {
        let mut set = LevelSet::new();
        set.place(1, level_of(&[1, 1]));
        let occupied: Vec<usize> = set.iter_occupied().map(|(i, _)| i).collect();
        assert_eq!(occupied, vec![1]);
    }

    #[test]
    fn clear_removes_everything() {
        let mut set = LevelSet::new();
        set.place(0, level_of(&[1]));
        set.clear();
        assert_eq!(set.total_elements(), 0);
        assert_eq!(set.num_slots(), 0);
    }

    #[test]
    fn accelerated_bounds_match_full_search() {
        let keys: Vec<u32> = (0..3000u32).map(|i| i / 2 * 3).collect(); // dups + gaps
        let level = level_of(&keys);
        let origs: Vec<u32> = keys.clone();
        for q in (0..4600).step_by(7) {
            assert_eq!(
                level.lower_bound(q),
                origs.partition_point(|&k| k < q),
                "lower_bound({q})"
            );
            assert_eq!(
                level.upper_bound(q),
                origs.partition_point(|&k| k <= q),
                "upper_bound({q})"
            );
        }
        assert_eq!(level.min_key(), 0);
        assert_eq!(level.max_key(), origs[origs.len() - 1]);
    }

    #[test]
    fn lockstep_lower_bounds_match_lower_bound_lane_by_lane() {
        use crate::key::{encode_tombstone, MAX_KEY};
        // Keys 1000, 1003, 1006, ... each stored one to three times, newest
        // first, with tombstones among the copies; the placebo tombstone at
        // MAX_KEY ends the level.
        let mut encoded = Vec::new();
        for i in 0..20_000u32 {
            let key = 1000 + 3 * i;
            for copy in 0..=(i % 3) {
                encoded.push(if (i + copy) % 4 == 0 {
                    encode_tombstone(key)
                } else {
                    encode_regular(key)
                });
            }
        }
        encoded.push(encode_tombstone(MAX_KEY));
        let values = vec![0u32; encoded.len()];
        let fenced = Level::from_sorted(encoded.clone(), values.clone(), DEFAULT_BITS_PER_KEY);
        let unfenced = Level::from_sorted_with_aux(encoded.clone(), values, None, None);
        let max = 1000 + 3 * 19_999;
        let edges = [
            0,
            1,
            999,
            1000,
            1001,
            max,
            max + 1,
            MAX_KEY - 1,
            MAX_KEY,
            MAX_KEY + 1,
        ];
        // Dense: consecutive keys (with edges); sparse: a stride that
        // spreads any 3 or 64 neighbours across far more than their fence
        // intervals; unsorted: the sparse batch reversed.
        let dense: Vec<Key> = edges.iter().copied().chain(5000..9000).collect();
        let sparse: Vec<Key> = (0..3000u32).map(|i| i * 23 + 400).chain(edges).collect();
        let unsorted: Vec<Key> = sparse.iter().rev().copied().collect();
        let interval = fenced.fences().unwrap().interval();
        let (mut shared, mut per_lane) = (0, 0);
        for level in [&fenced, &unfenced] {
            for batch in [&dense, &sparse, &unsorted] {
                for width in [1, 3, 64, batch.len() + 5] {
                    for lanes in batch.chunks(width) {
                        let mut out = vec![usize::MAX; lanes.len()];
                        level.lower_bounds(lanes, &mut out);
                        for (&q, &got) in lanes.iter().zip(&out) {
                            let full = encoded.partition_point(|&k| original_key(k) < q);
                            assert_eq!(level.lower_bound(q), full, "lower_bound({q})");
                            assert_eq!(got, full, "lower_bounds lane {q}, width {width}");
                        }
                        if let Some(f) = level.fences() {
                            let lo = f.lower_bound_window(*lanes.iter().min().unwrap()).0;
                            let hi = f.lower_bound_window(*lanes.iter().max().unwrap()).1;
                            if hi - lo <= lanes.len() * interval {
                                shared += 1;
                            } else {
                                per_lane += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            shared > 0 && per_lane > 0,
            "{shared} shared, {per_lane} per-lane"
        );
        assert_eq!(fenced.lower_bound(MAX_KEY + 1), encoded.len());
        // An empty lane set leaves nothing to do.
        fenced.lower_bounds(&[], &mut []);
    }

    #[test]
    fn find_reports_hits_misses_and_filter_skips() {
        // Large enough for a long-lived level to build its filter.
        let keys: Vec<u32> = (0..(super::FILTER_MIN_LEN as u32)).map(|i| i * 2).collect();
        let level = level_of(&keys);
        assert!(level.filter().is_some(), "long-lived level builds a filter");
        let hit = level.find(10);
        assert_eq!(hit.entry, Some((encode_regular(10), 100)));
        assert!(!hit.filter_skipped);
        let miss = level.find(11);
        assert!(miss.entry.is_none());
        // A filterless level (aux constructor, as the carry chain builds
        // small outputs) still answers through the fence-narrowed search.
        let encoded: Vec<u32> = keys.iter().map(|&k| encode_regular(k)).collect();
        let fences = gpu_primitives::fence::FenceArray::build_with(
            encoded.len(),
            gpu_primitives::fence::DEFAULT_FENCE_INTERVAL,
            |i| encoded[i] >> 1,
        );
        let filterless = Level::from_sorted_with_aux(
            encoded,
            keys.iter().map(|&k| k * 10).collect::<Vec<u32>>(),
            None,
            fences,
        );
        assert!(filterless.filter().is_none());
        assert_eq!(filterless.find(10).entry, Some((encode_regular(10), 100)));
        assert!(level.search_probe_depth() <= 10);
        let (filter_bytes, fence_bytes) = level.accel_bytes();
        assert!(fence_bytes > 0);
        assert!(filter_bytes > 0);
        // The same keys at zero bits per key: fences only.
        let encoded: Vec<u32> = keys.iter().map(|&k| encode_regular(k)).collect();
        let unfiltered = Level::from_sorted(encoded, vec![0; keys.len()], 0);
        assert!(unfiltered.filter().is_none());
        assert!(unfiltered.fences().is_some());
    }

    #[test]
    fn tombstones_and_newest_first_order_are_respected_by_find() {
        use crate::key::encode_tombstone;
        // Key 5: tombstone (newest) then regular (older) — find must return
        // the tombstone, which is how deletions hide older insertions.
        let keys = vec![
            encode_regular(1),
            encode_tombstone(5),
            encode_regular(5),
            encode_regular(9),
        ];
        let level = Level::from_sorted(keys, vec![10, 0, 50, 90], DEFAULT_BITS_PER_KEY);
        let probe = level.find(5);
        assert_eq!(probe.entry, Some((encode_tombstone(5), 0)));
        assert_eq!(level.min_key(), 1);
        assert_eq!(level.max_key(), 9);
    }
}
