//! Stable parallel merge of two sorted sequences under a caller-supplied
//! comparator (moderngpu `Merge` equivalent).
//!
//! The LSM's insertion path repeatedly merges the incoming (sorted) buffer
//! with a full level (paper Fig. 3 line 14).  The comparator compares only
//! the original 31-bit key — the status bit is ignored — and the merge must
//! be stable in a specific sense: **on ties, elements of the first input
//! (the more recently inserted buffer) come first**, which preserves the
//! ordering invariants of §III-D.
//!
//! The implementation is the classical *merge path* decomposition: the
//! output is cut into tiles; for each tile boundary (a diagonal of the merge
//! grid) a binary search finds how many elements of `a` and `b` precede the
//! diagonal under the tie-breaking rule; each tile is then merged
//! sequentially and independently, so on the device all tiles run in
//! parallel.  On the host the tile loops state their tile count to the
//! worker pool, so a merge runs its tiles one after another on the
//! caller's thread until that count reaches the pool's cutoff (by default
//! 4096 tiles, about 12.6M pairs at K40c's 3072-pair tile): every carry
//! merge of the benchmark workloads runs inline.

use gpu_sim::Device;
use rayon::prelude::*;

use crate::util::SharedSlice;

/// Output size up to which one sequential merge runs on the host: below
/// it the tiled path's split searches and per-tile scratch are pure
/// overhead.  A constant, independent of the worker pool's cutoff, so the
/// host path a merge takes depends only on its size.
const SEQUENTIAL_MERGE_CUTOFF: usize = 1 << 12;

/// Output elements per merge-path tile, for elements of `elem_bytes`.
fn merge_tile(device: &Device, elem_bytes: usize) -> usize {
    device.preferred_tile(elem_bytes).max(1024)
}

/// Record one merge of `n` outputs: the launch, its streaming traffic and
/// the merge-path split searches, `(⌈n / tile⌉ + 1) · 32` scattered probes
/// of `key_bytes` each.  The modelled GPU (moderngpu `Merge`) always
/// partitions, so the probes are booked whichever host path runs and a
/// merge's traffic depends only on `n`.
fn record_merge_traffic(device: &Device, n: usize, elem_bytes: usize, key_bytes: usize) {
    crate::util::record_streaming(device, "merge", n, elem_bytes);
    if n > 0 {
        let tiles = n.div_ceil(merge_tile(device, elem_bytes)) as u64;
        device
            .metrics()
            .record_scattered_probes("merge", (tiles + 1) * 32, key_bytes as u64);
    }
}

/// Find the merge-path split for diagonal `diag`: the number of elements
/// taken from `a` when exactly `diag` output elements have been produced,
/// with ties favouring `a`.
///
/// `less(x, y)` must be a strict weak ordering ("x sorts before y").
fn merge_path<T, F>(a: &[T], b: &[T], diag: usize, less: &F) -> usize
where
    F: Fn(&T, &T) -> bool,
{
    let mut lo = diag.saturating_sub(b.len());
    let mut hi = diag.min(a.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        // a[mid] vs b[diag - 1 - mid]: if b element is strictly smaller, the
        // split point must include fewer `a` elements after mid; otherwise
        // (a <= b, i.e. tie or a smaller) `a` wins and the split moves right.
        if less(&b[diag - 1 - mid], &a[mid]) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Sequentially merge `a` and `b` into `out`, ties favouring `a`.
fn serial_merge_into<T, F>(a: &[T], b: &[T], out: &mut [T], less: &F)
where
    T: Copy,
    F: Fn(&T, &T) -> bool,
{
    debug_assert_eq!(out.len(), a.len() + b.len());
    let (mut i, mut j, mut o) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        // Take from b only if strictly smaller: ties go to a.  Selecting
        // with arithmetic instead of a branch lets the compiler emit
        // conditional moves; on random keys the branch is a coin flip, and
        // the mispredictions would otherwise dominate the loop.
        let take_b = less(&b[j], &a[i]);
        out[o] = if take_b { b[j] } else { a[i] };
        i += usize::from(!take_b);
        j += usize::from(take_b);
        o += 1;
    }
    // Exactly one of the tails is non-empty; bulk-copy it.
    out[o..o + (a.len() - i)].copy_from_slice(&a[i..]);
    o += a.len() - i;
    out[o..].copy_from_slice(&b[j..]);
}

/// Rounds shorter than this end a dual-chain merge's two chains, and one
/// chain merges what is left between them.
const MIN_CHAIN_ROUND: usize = 8;

/// The step count of the next round of a dual-chain merge of inputs of
/// `na` and `nb` elements, the front chain having consumed `i` and `j` and
/// written up to `o`, the back chain having left `ib` and `jb` unconsumed
/// and written from `ob`: as many steps as neither chain can run off an
/// input nor into the other's output in.  `None` once that is below
/// [`MIN_CHAIN_ROUND`].
fn chain_round(
    na: usize,
    nb: usize,
    (i, j, o): (usize, usize, usize),
    (ib, jb, ob): (usize, usize, usize),
) -> Option<usize> {
    let steps = ((ob - o) / 2).min(na - i).min(nb - j).min(ib).min(jb);
    (steps >= MIN_CHAIN_ROUND).then_some(steps)
}

/// Sequentially merge sorted `a` and `b` into `out`, ties favouring `a`,
/// booking no device traffic: the host core for callers that book the
/// modelled cost of their merges themselves (count and range book the
/// paper's segmented sort for theirs).  `out.len()` must equal
/// `a.len() + b.len()`.
///
/// A merge step waits on the previous one (its indices pick the next
/// pair to compare), so two chains run interleaved: the front one takes
/// from `b` only when strictly smaller, the back one fills the output
/// from its end and takes from `a` only when strictly larger — the same
/// stable merge from both ends, two steps in flight at a time.  Once
/// either chain nears the end of an input, one chain merges the elements
/// neither consumed into the output between them.
pub fn seq_merge_into<T, F>(a: &[T], b: &[T], out: &mut [T], less: &F)
where
    T: Copy,
    F: Fn(&T, &T) -> bool,
{
    assert_eq!(out.len(), a.len() + b.len(), "output slice length mismatch");
    let (mut i, mut j, mut o) = (0, 0, 0);
    let (mut ib, mut jb, mut ob) = (a.len(), b.len(), out.len());
    while let Some(steps) = chain_round(a.len(), b.len(), (i, j, o), (ib, jb, ob)) {
        for _ in 0..steps {
            let take_b = less(&b[j], &a[i]);
            out[o] = if take_b { b[j] } else { a[i] };
            i += usize::from(!take_b);
            j += usize::from(take_b);
            o += 1;
            let take_a = less(&b[jb - 1], &a[ib - 1]);
            ob -= 1;
            out[ob] = if take_a { a[ib - 1] } else { b[jb - 1] };
            ib -= usize::from(take_a);
            jb -= usize::from(!take_a);
        }
    }
    serial_merge_into(&a[i..ib], &b[j..jb], &mut out[o..ob], less);
}

/// Raw single-chain core of the key/value merge, ties favouring `a` (the
/// middle of [`dual_merge_pairs_raw`], and each tile of the tiled merge):
/// branchless take-a/take-b selection (on random keys the branch is a
/// coin flip and mispredictions would dominate) and unchecked indexing
/// (the loop conditions already bound `i` and `j`).
///
/// # Safety
/// `out_keys`/`out_vals` must each point at `a_keys.len() + b_keys.len()`
/// writable `u32` slots (initialized or not) that do not overlap any input.
/// `o = i + j` takes each value in `0..n` exactly once across the main loop
/// and the two tail copies (i ≤ a.len(), j ≤ b.len(), n = a.len() +
/// b.len()), so every output slot is written exactly once; all source reads
/// are bounded by the loop conditions / tail lengths.
unsafe fn seq_merge_pairs_raw<F>(
    a_keys: &[u32],
    a_vals: &[u32],
    b_keys: &[u32],
    b_vals: &[u32],
    out_keys: *mut u32,
    out_vals: *mut u32,
    less: &F,
) where
    F: Fn(&u32, &u32) -> bool,
{
    let (mut i, mut j, mut o) = (0usize, 0usize, 0usize);
    while i < a_keys.len() && j < b_keys.len() {
        // Take from b only if strictly smaller: ties go to a.
        let take_b = less(b_keys.get_unchecked(j), a_keys.get_unchecked(i));
        *out_keys.add(o) = if take_b {
            *b_keys.get_unchecked(j)
        } else {
            *a_keys.get_unchecked(i)
        };
        *out_vals.add(o) = if take_b {
            *b_vals.get_unchecked(j)
        } else {
            *a_vals.get_unchecked(i)
        };
        i += usize::from(!take_b);
        j += usize::from(take_b);
        o += 1;
    }
    std::ptr::copy_nonoverlapping(a_keys.as_ptr().add(i), out_keys.add(o), a_keys.len() - i);
    std::ptr::copy_nonoverlapping(a_vals.as_ptr().add(i), out_vals.add(o), a_vals.len() - i);
    let o = o + (a_keys.len() - i);
    std::ptr::copy_nonoverlapping(b_keys.as_ptr().add(j), out_keys.add(o), b_keys.len() - j);
    std::ptr::copy_nonoverlapping(b_vals.as_ptr().add(j), out_vals.add(o), b_vals.len() - j);
}

/// Raw dual-chain core of the sequential key/value merge, ties favouring
/// `a`: the chains of [`seq_merge_into`] with unchecked indexing, and
/// [`seq_merge_pairs_raw`] for the middle.  Equal-length inputs (every
/// carry-chain merge of the LSM) run as one round of `a.len()` steps per
/// chain, with nothing left in the middle.
///
/// # Safety
/// `out_keys`/`out_vals` must each point at `a_keys.len() + b_keys.len()`
/// writable `u32` slots (initialized or not) that do not overlap any
/// input, and each value slice must be as long as its keys.  A round of
/// `steps` is at most `na - i` and `nb - j` (so the front chain reads
/// `a[i]` and `b[j]` in bounds), at most `ib` and `jb` (so the back
/// chain reads `a[ib - 1]` and `b[jb - 1]` in bounds) and at most half of
/// `ob - o` (so the front chain's writes at `o` stay below the back
/// chain's at `ob - 1`).  Every step consumes one element and writes one
/// slot, so the middle merge of `a[i..ib]` and `b[j..jb]` fills exactly
/// the slots `o..ob`.
// Inlined into each caller: called out of line from the carry chain, the
// small merges of a b = 1024 insert run measured ~35% slower.
#[inline(always)]
unsafe fn dual_merge_pairs_raw<F>(
    a_keys: &[u32],
    a_vals: &[u32],
    b_keys: &[u32],
    b_vals: &[u32],
    out_keys: *mut u32,
    out_vals: *mut u32,
    less: &F,
) where
    F: Fn(&u32, &u32) -> bool,
{
    let (na, nb) = (a_keys.len(), b_keys.len());
    let (mut i, mut j, mut o) = (0, 0, 0);
    let (mut ib, mut jb, mut ob) = (na, nb, na + nb);
    while let Some(steps) = chain_round(na, nb, (i, j, o), (ib, jb, ob)) {
        for _ in 0..steps {
            let take_b = less(b_keys.get_unchecked(j), a_keys.get_unchecked(i));
            *out_keys.add(o) = if take_b {
                *b_keys.get_unchecked(j)
            } else {
                *a_keys.get_unchecked(i)
            };
            *out_vals.add(o) = if take_b {
                *b_vals.get_unchecked(j)
            } else {
                *a_vals.get_unchecked(i)
            };
            i += usize::from(!take_b);
            j += usize::from(take_b);
            o += 1;
            let take_a = less(b_keys.get_unchecked(jb - 1), a_keys.get_unchecked(ib - 1));
            ob -= 1;
            *out_keys.add(ob) = if take_a {
                *a_keys.get_unchecked(ib - 1)
            } else {
                *b_keys.get_unchecked(jb - 1)
            };
            *out_vals.add(ob) = if take_a {
                *a_vals.get_unchecked(ib - 1)
            } else {
                *b_vals.get_unchecked(jb - 1)
            };
            ib -= usize::from(take_a);
            jb -= usize::from(!take_a);
        }
    }
    seq_merge_pairs_raw(
        &a_keys[i..ib],
        &a_vals[i..ib],
        &b_keys[j..jb],
        &b_vals[j..jb],
        out_keys.add(o),
        out_vals.add(o),
        less,
    );
}

/// [`seq_merge_into`] for key–value sequences: each value moves with its
/// key, and no device traffic is booked.
pub fn seq_merge_pairs_into<F>(
    a_keys: &[u32],
    a_vals: &[u32],
    b_keys: &[u32],
    b_vals: &[u32],
    out_keys: &mut [u32],
    out_vals: &mut [u32],
    less: &F,
) where
    F: Fn(&u32, &u32) -> bool,
{
    assert_eq!(a_keys.len(), a_vals.len());
    assert_eq!(b_keys.len(), b_vals.len());
    let n = a_keys.len() + b_keys.len();
    assert_eq!(out_keys.len(), n, "output slice length mismatch");
    assert_eq!(out_vals.len(), n, "output slice length mismatch");
    // SAFETY: the output slices hold exactly `n` writable slots, borrowed
    // mutably so they overlap no input; the value lengths were checked.
    unsafe {
        dual_merge_pairs_raw(
            a_keys,
            a_vals,
            b_keys,
            b_vals,
            out_keys.as_mut_ptr(),
            out_vals.as_mut_ptr(),
            less,
        );
    }
}

/// Sequential key/value merge into fresh vectors: output written into
/// uninitialized capacity (a `vec![0; n]` zero-fill would be a pure extra
/// memory sweep per merge).
fn seq_merge_pairs<F>(
    a_keys: &[u32],
    a_vals: &[u32],
    b_keys: &[u32],
    b_vals: &[u32],
    less: &F,
) -> (Vec<u32>, Vec<u32>)
where
    F: Fn(&u32, &u32) -> bool,
{
    let n = a_keys.len() + b_keys.len();
    let mut keys: Vec<u32> = Vec::with_capacity(n);
    let mut vals: Vec<u32> = Vec::with_capacity(n);
    // SAFETY: the freshly reserved capacity holds exactly `n` slots and the
    // raw core writes every one of them before `set_len(n)`; callers
    // checked the value lengths.
    unsafe {
        dual_merge_pairs_raw(
            a_keys,
            a_vals,
            b_keys,
            b_vals,
            keys.as_mut_ptr(),
            vals.as_mut_ptr(),
            less,
        );
        keys.set_len(n);
        vals.set_len(n);
    }
    (keys, vals)
}

/// Merge two sorted slices into a new vector, ties favouring `a`, using the
/// comparator `less`.
pub fn merge_by<T, F>(device: &Device, a: &[T], b: &[T], less: F) -> Vec<T>
where
    T: Copy + Send + Sync + Default,
    F: Fn(&T, &T) -> bool + Sync,
{
    let n = a.len() + b.len();
    let elem_bytes = std::mem::size_of::<T>();
    record_merge_traffic(device, n, elem_bytes, elem_bytes);

    let mut out = vec![T::default(); n];
    if n == 0 {
        return out;
    }
    if n <= SEQUENTIAL_MERGE_CUTOFF {
        serial_merge_into(a, b, &mut out, &less);
        return out;
    }
    let tile = merge_tile(device, elem_bytes);
    let num_tiles = n.div_ceil(tile);

    // Precompute merge-path splits at every tile boundary (scattered binary
    // searches — a handful per tile).
    let splits: Vec<usize> = (0..=num_tiles)
        .into_par_iter()
        .map(|t| merge_path(a, b, (t * tile).min(n), &less))
        .collect();

    let shared = SharedSlice::new(&mut out);
    (0..num_tiles).into_par_iter().for_each(|t| {
        let out_start = t * tile;
        let out_end = ((t + 1) * tile).min(n);
        let a_start = splits[t];
        let a_end = splits[t + 1];
        let b_start = out_start - a_start;
        let b_end = out_end - a_end;
        let mut local = vec![T::default(); out_end - out_start];
        serial_merge_into(&a[a_start..a_end], &b[b_start..b_end], &mut local, &less);
        for (offset, v) in local.into_iter().enumerate() {
            // SAFETY: tiles cover disjoint output ranges.
            unsafe { shared.write(out_start + offset, v) };
        }
    });
    out
}

/// Bytes of one key of a key/value merge: the split searches read keys only.
const KEY_BYTES: usize = std::mem::size_of::<u32>();

/// Bytes of one key/value element a pair merge streams.
const PAIR_BYTES: usize = 2 * KEY_BYTES;

/// A raw output pointer that may cross thread boundaries; the tiled merge
/// guarantees disjoint write ranges per tile.
struct SendPtr(*mut u32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Pointer to slot `i`.
    ///
    /// # Safety
    /// `i` must be within the allocation the wrapped pointer addresses.
    unsafe fn at(&self, i: usize) -> *mut u32 {
        self.0.add(i)
    }
}

/// Tiled merge-path key/value merge writing into caller-provided output
/// pointers (the above-cutoff arm of [`merge_pairs_by`]).
///
/// # Safety
/// `out_keys`/`out_vals` must each point at `a_keys.len() + b_keys.len()`
/// writable `u32` slots that overlap no input; every slot is written
/// exactly once (tiles cover disjoint output ranges).
#[allow(clippy::too_many_arguments)]
unsafe fn par_merge_pairs_raw<F>(
    device: &Device,
    a_keys: &[u32],
    a_vals: &[u32],
    b_keys: &[u32],
    b_vals: &[u32],
    out_keys: *mut u32,
    out_vals: *mut u32,
    less: &F,
) where
    F: Fn(&u32, &u32) -> bool + Sync,
{
    let n = a_keys.len() + b_keys.len();
    let tile = merge_tile(device, PAIR_BYTES);
    let num_tiles = n.div_ceil(tile);

    // Precompute merge-path splits at every tile boundary (scattered binary
    // searches — a handful per tile).  The comparator only ever sees keys,
    // so the split runs on the key arrays alone and the values ride along
    // per tile — no (key, value) tuple round trip.
    let splits: Vec<usize> = (0..=num_tiles)
        .into_par_iter()
        .map(|t| merge_path(a_keys, b_keys, (t * tile).min(n), less))
        .collect();

    let shared_keys = SendPtr(out_keys);
    let shared_vals = SendPtr(out_vals);
    (0..num_tiles).into_par_iter().for_each(|t| {
        let out_start = t * tile;
        let out_end = ((t + 1) * tile).min(n);
        let a_start = splits[t];
        let a_end = splits[t + 1];
        let b_start = out_start - a_start;
        let b_end = out_end - a_end;
        // SAFETY: tiles cover disjoint output ranges [out_start, out_end).
        unsafe {
            seq_merge_pairs_raw(
                &a_keys[a_start..a_end],
                &a_vals[a_start..a_end],
                &b_keys[b_start..b_end],
                &b_vals[b_start..b_end],
                shared_keys.at(out_start),
                shared_vals.at(out_start),
                less,
            );
        }
    });
}

/// Merge two sorted key–value sequences by key, ties favouring `a`.
/// Returns the merged keys and values.
pub fn merge_pairs_by<F>(
    device: &Device,
    a_keys: &[u32],
    a_vals: &[u32],
    b_keys: &[u32],
    b_vals: &[u32],
    less: F,
) -> (Vec<u32>, Vec<u32>)
where
    F: Fn(&u32, &u32) -> bool + Sync,
{
    assert_eq!(a_keys.len(), a_vals.len());
    assert_eq!(b_keys.len(), b_vals.len());
    let n = a_keys.len() + b_keys.len();
    record_merge_traffic(device, n, PAIR_BYTES, KEY_BYTES);
    // Small merges (the bottom of the LSM carry chain) go straight to a
    // sequential key/value merge: no tile splits, no zero-fill.
    if n <= SEQUENTIAL_MERGE_CUTOFF {
        return seq_merge_pairs(a_keys, a_vals, b_keys, b_vals, &less);
    }
    let mut keys: Vec<u32> = Vec::with_capacity(n);
    let mut vals: Vec<u32> = Vec::with_capacity(n);
    // SAFETY: the freshly reserved capacity holds exactly `n` slots and the
    // tiled core writes every one of them before `set_len(n)`.
    unsafe {
        par_merge_pairs_raw(
            device,
            a_keys,
            a_vals,
            b_keys,
            b_vals,
            keys.as_mut_ptr(),
            vals.as_mut_ptr(),
            &less,
        );
        keys.set_len(n);
        vals.set_len(n);
    }
    (keys, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use proptest::prelude::*;

    fn device() -> Device {
        Device::new(DeviceConfig::small())
    }

    fn lt(a: &u32, b: &u32) -> bool {
        a < b
    }

    #[test]
    fn merges_disjoint_ranges() {
        let device = device();
        let a: Vec<u32> = (0..100).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..100).map(|i| i * 2 + 1).collect();
        let out = merge_by(&device, &a, &b, lt);
        let expected: Vec<u32> = (0..200).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn merges_with_one_empty_side() {
        let device = device();
        let a: Vec<u32> = (0..50).collect();
        let out = merge_by(&device, &a, &[], lt);
        assert_eq!(out, a);
        let out = merge_by(&device, &[], &a, lt);
        assert_eq!(out, a);
        let out: Vec<u32> = merge_by(&device, &[], &[], lt);
        assert!(out.is_empty());
    }

    #[test]
    fn ties_favour_first_input() {
        let device = device();
        // Tag elements so we can see which input they came from: compare only
        // on the key part (high 16 bits).
        let a: Vec<u32> = vec![(1 << 16) | 0xA, (2 << 16) | 0xA, (2 << 16) | 0xB];
        let b: Vec<u32> = vec![(1 << 16) | 0xF, (2 << 16) | 0xF];
        let out = merge_by(&device, &a, &b, |x, y| (x >> 16) < (y >> 16));
        // For key 1: a's element first, then b's.  For key 2: both of a's
        // elements (in order) before b's.
        assert_eq!(
            out,
            vec![
                (1 << 16) | 0xA,
                (1 << 16) | 0xF,
                (2 << 16) | 0xA,
                (2 << 16) | 0xB,
                (2 << 16) | 0xF
            ]
        );
    }

    #[test]
    fn large_merge_matches_std() {
        let device = device();
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(11);
        let mut a: Vec<u32> = (0..100_000).map(|_| rng.gen()).collect();
        let mut b: Vec<u32> = (0..63_001).map(|_| rng.gen()).collect();
        a.sort_unstable();
        b.sort_unstable();
        let out = merge_by(&device, &a, &b, lt);
        let mut expected = [a, b].concat();
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn merge_pairs_moves_values() {
        let device = device();
        let (k, v) = merge_pairs_by(&device, &[10, 30], &[1, 3], &[20, 30], &[2, 9], |a, b| {
            a < b
        });
        assert_eq!(k, vec![10, 20, 30, 30]);
        assert_eq!(v, vec![1, 2, 3, 9]); // a's 30 precedes b's 30
    }

    #[test]
    fn merge_records_traffic() {
        let device = device();
        let a: Vec<u32> = (0..1000).collect();
        let b: Vec<u32> = (0..1000).collect();
        let _ = merge_by(&device, &a, &b, lt);
        assert!(device.metrics().snapshot().contains_key("merge"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_merge_is_sorted_and_permutation(
            mut a in proptest::collection::vec(0u32..5000, 0..800),
            mut b in proptest::collection::vec(0u32..5000, 0..800)
        ) {
            let device = device();
            a.sort_unstable();
            b.sort_unstable();
            let out = merge_by(&device, &a, &b, lt);
            prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
            let mut expected = [a, b].concat();
            expected.sort_unstable();
            prop_assert_eq!(out, expected);
        }

        #[test]
        fn prop_pairs_merge_matches_reference(
            a_len in 0usize..600,
            b_len_raw in 0usize..600,
            seed in any::<u32>()
        ) {
            // Exercises the sequential pair merge.  Independent lengths
            // essentially never collide, so half the cases force b_len ==
            // a_len, where both chains run one round to the middle (the
            // LSM carry-chain shape); the rest leave a middle to the
            // single-chain merge.  Duplicate-heavy keys probe the
            // tie-favours-a rule; values tag provenance and input order.
            let b_len = if seed % 2 == 0 { a_len } else { b_len_raw };
            let device = device();
            let mut a_keys: Vec<u32> = (0..a_len as u32)
                .map(|i| (i.wrapping_mul(seed | 1)) % 64)
                .collect();
            let mut b_keys: Vec<u32> = (0..b_len as u32)
                .map(|i| (i.wrapping_mul((seed >> 7) | 3)) % 64)
                .collect();
            a_keys.sort_unstable();
            b_keys.sort_unstable();
            let a_vals: Vec<u32> = (0..a_len as u32).collect();
            let b_vals: Vec<u32> = (0..b_len as u32).map(|i| 1_000_000 + i).collect();
            let (keys, vals) =
                merge_pairs_by(&device, &a_keys, &a_vals, &b_keys, &b_vals, lt);
            // Reference: sequential stable merge, ties favouring a.
            let (mut i, mut j) = (0, 0);
            let mut exp_keys = Vec::new();
            let mut exp_vals = Vec::new();
            while i < a_keys.len() || j < b_keys.len() {
                let take_a = j >= b_keys.len()
                    || (i < a_keys.len() && !lt(&b_keys[j], &a_keys[i]));
                if take_a {
                    exp_keys.push(a_keys[i]);
                    exp_vals.push(a_vals[i]);
                    i += 1;
                } else {
                    exp_keys.push(b_keys[j]);
                    exp_vals.push(b_vals[j]);
                    j += 1;
                }
            }
            prop_assert_eq!(&keys, &exp_keys);
            prop_assert_eq!(&vals, &exp_vals);
            // The unrecorded dual-chain cores merge to the same order.
            let (mut out_keys, mut out_vals) = (vec![0; keys.len()], vec![0; keys.len()]);
            seq_merge_pairs_into(
                &a_keys, &a_vals, &b_keys, &b_vals, &mut out_keys, &mut out_vals, &lt,
            );
            prop_assert_eq!(&out_keys, &exp_keys);
            prop_assert_eq!(&out_vals, &exp_vals);
            let a: Vec<(u32, u32)> = a_keys.iter().copied().zip(a_vals).collect();
            let b: Vec<(u32, u32)> = b_keys.iter().copied().zip(b_vals).collect();
            let mut out = vec![(0, 0); a.len() + b.len()];
            seq_merge_into(&a, &b, &mut out, &|x: &(u32, u32), y: &(u32, u32)| x.0 < y.0);
            let expected: Vec<(u32, u32)> = exp_keys.into_iter().zip(exp_vals).collect();
            prop_assert_eq!(out, expected);
        }

        #[test]
        fn prop_tie_break_prefers_a(
            keys in proptest::collection::vec(0u32..50, 1..400)
        ) {
            // Both inputs share the same key population; tag provenance in the
            // low bit and compare on the upper bits only.
            let device = device();
            let mut a: Vec<u32> = keys.iter().map(|&k| k << 1).collect();
            let mut b: Vec<u32> = keys.iter().map(|&k| (k << 1) | 1).collect();
            a.sort_unstable();
            b.sort_unstable();
            let out = merge_by(&device, &a, &b, |x, y| (x >> 1) < (y >> 1));
            // Within every run of equal keys, all a-elements (low bit 0) must
            // precede all b-elements (low bit 1).
            let mut i = 0;
            while i < out.len() {
                let key = out[i] >> 1;
                let mut seen_b = false;
                while i < out.len() && out[i] >> 1 == key {
                    if out[i] & 1 == 1 {
                        seen_b = true;
                    } else {
                        prop_assert!(!seen_b, "a-element after b-element for key {}", key);
                    }
                    i += 1;
                }
            }
        }
    }
}
