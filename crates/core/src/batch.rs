//! The batch driver shared by every flat table: software-prefetched
//! batched operations, grain chunking for the parallel forms, and the
//! mask-based `elements` pack.
//!
//! Linear probing at scale is bound by memory latency, not CAS cost
//! (Maier et al., "Concurrent Hash Tables: Fast and General?(!)"):
//! each operation starts with a cache miss on its home slot, and a
//! per-element loop serializes those misses. The batched paths process
//! a slice of operations per scheduler chunk and issue a prefetch for
//! the home slot of the entry [`PREFETCH_AHEAD`] positions ahead before
//! probing the current one, keeping several misses in flight and
//! letting the memory system overlap them.
//!
//! The loops are written once here. A table hands in only its per-repr
//! probe primitives ([`ProbeCore`]): a scalar reference form and a wide
//! form generic over the bound [`Kernel`]. The batch then runs inside
//! one [`simd::dispatch`] — the tier is resolved once per batch and the
//! whole prefetching loop is monomorphized per kernel.
//!
//! Prefetching is a pure performance hint: it never changes which
//! cells are read or written, so the deterministic layout and
//! history-independence guarantees are untouched.

use std::sync::atomic::Ordering;

use crate::cell::{AtomOf, CellAtomic};
use crate::entry::HashEntry;
use crate::simd::{self, Kernel, TierOp};

/// How many operations ahead the batched paths prefetch. Large enough
/// to cover DRAM latency with independent misses, small enough that
/// prefetched lines are still resident when their probe starts.
pub const PREFETCH_AHEAD: usize = 8;

/// Insert prefetch distance when more than one pool worker is active.
/// Writers dirty the lines they prefetch, so a deep lookahead under
/// concurrency keeps pulling lines that another writer is about to
/// steal back (and competes with the hardware prefetcher for the same
/// fill buffers); a shallow pipeline keeps only the next miss or two in
/// flight.
const INSERT_PREFETCH_AHEAD_MT: usize = 2;

/// Prefetch distance for the batched **insert** paths: the full
/// [`PREFETCH_AHEAD`] pipeline on a single-worker pool, clamped to
/// `INSERT_PREFETCH_AHEAD_MT` when the current rayon pool runs more
/// than one worker (T≥2). Find batches keep the deep pipeline — reads
/// never invalidate each other's lines. Purely a performance hint; the
/// distance never changes which cells are read or written.
#[inline]
pub fn insert_prefetch_ahead() -> usize {
    if rayon::current_num_threads() > 1 {
        INSERT_PREFETCH_AHEAD_MT
    } else {
        PREFETCH_AHEAD
    }
}

/// Hints the memory system to pull `cells[idx]`'s cache line toward
/// the core. On x86_64 this is `prefetcht0`; elsewhere it degrades to
/// a plain relaxed load (which also brings the line in, at the cost of
/// occupying a load slot). Generic over the cell width: prefetching a
/// 32-bit cell pulls the same cache line a 64-bit cell would.
#[inline(always)]
pub fn prefetch_slot<A: CellAtomic>(cells: &[A], idx: usize) {
    debug_assert!(idx < cells.len());
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(cells.as_ptr().add(idx) as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = cells[idx].load(Ordering::Relaxed);
    }
}

/// The per-repr probe primitives of a flat table — everything the
/// batch driver (and, through the defaults of
/// [`FlatTableCore`](crate::resize::FlatTableCore), the growth layer)
/// needs to know about it. Reprs cross this interface in their
/// original (`HashEntry::to_repr`) form; a table with an internal
/// encoding (Robin Hood mixes the key field) converts inside its
/// primitives and in [`unstore`](Self::unstore).
pub trait ProbeCore: Sync {
    /// The stored entry type.
    type Entry: HashEntry;
    /// What an insert reports when it lands (a fill credit, fc's net
    /// fill count, or nothing for the ND table).
    type Fill;
    /// Type name for panic messages.
    const TYPE_NAME: &'static str;
    /// Whether the wide kernels understand the entry type.
    const WIDE: bool = <Self::Entry as HashEntry>::SIMD_KEY_MASK.is_some();
    /// The counter the prioritized-probe engine ([`crate::det`]) bumps
    /// once per displacement swap.
    const SWAP_COUNTER: phc_obs::Counter = phc_obs::Counter::PrioritySwap;

    /// The cell array.
    fn cells(&self) -> &[AtomOf<<Self::Entry as HashEntry>::Repr>];
    /// Home slot of a repr.
    fn home(&self, v: u64) -> usize;
    /// Home slot of a stored cell value.
    #[inline]
    fn stored_home(&self, c: u64) -> usize {
        self.home(self.unstore(c))
    }
    /// Scalar insert inside the window `tok`; `Err(carried)` when the
    /// probe wrapped a full table (or met a forwarding marker).
    fn insert_scalar(&self, v: u64, tok: u64) -> Result<Self::Fill, u64>;
    /// Wide insert with kernel `k` bound.
    fn insert_wide<K: Kernel>(&self, v: u64, tok: u64, k: K) -> Result<Self::Fill, u64>;
    /// Scalar lookup, returning the matched entry's repr.
    fn find_scalar(&self, v: u64) -> Option<u64>;
    /// Wide lookup with kernel `k` bound.
    fn find_wide<K: Kernel>(&self, v: u64, k: K) -> Option<u64>;
    /// Deletes inside the window `tok`, returning the removal credit.
    fn delete(&self, v: u64, tok: u64) -> bool;
    /// Whether an insert's report means it filled an empty cell (the
    /// global net-new-element credit).
    fn filled(fill: Self::Fill) -> bool;
    /// Decodes a stored cell value back to its original repr.
    #[inline]
    fn unstore(&self, c: u64) -> u64 {
        c
    }
    /// The stored form of the forwarding marker
    /// ([`HashEntry::FORWARD`]).
    #[inline]
    fn stored_forward(&self) -> u64 {
        <Self::Entry as HashEntry>::FORWARD
    }
    /// Loads the cell at virtual index `vi` (reduced mod capacity).
    #[inline]
    fn load_at(&self, vi: usize) -> u64 {
        let cells = self.cells();
        cells[vi & (cells.len() - 1)].load(Ordering::Acquire)
    }
    /// CASes the cell at virtual index `vi` from `old` to `new`.
    #[inline]
    fn cas_at(&self, vi: usize, old: u64, new: u64) -> bool {
        let cells = self.cells();
        cells[vi & (cells.len() - 1)]
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
    /// The virtual home of the stored value `c` observed at virtual
    /// index `at`: the largest virtual index ≤ `at` congruent to its
    /// home slot. Exact whenever the entry lies inside its cluster
    /// (always, while the table is not full).
    #[inline]
    fn lift_home(&self, c: u64, at: usize) -> usize {
        at - self.dist(self.stored_home(c), at & (self.cells().len() - 1))
    }
    /// Forward distance from bucket `from` to bucket `to` (both already
    /// reduced), in `[0, capacity)`.
    #[inline]
    fn dist(&self, from: usize, to: usize) -> usize {
        to.wrapping_sub(from) & (self.cells().len() - 1)
    }
    /// Opens a bulk-insert window (fc registers its overlap state once
    /// per batch here); the token is handed to every insert inside it.
    fn open_insert(&self) -> u64 {
        0
    }
    /// Closes a window opened by [`open_insert`](Self::open_insert).
    fn close_insert(&self, _tok: u64) {}
    /// Opens a bulk-delete window.
    fn open_delete(&self) -> u64 {
        0
    }
    /// Closes a window opened by [`open_delete`](Self::open_delete).
    fn close_delete(&self, _tok: u64) {}
}

/// The key mask the wide bodies compare under. Only reached when
/// [`ProbeCore::WIDE`] holds, i.e. the entry type has a mask.
#[inline(always)]
pub(crate) fn wide_key_mask<E: HashEntry>() -> u64 {
    E::SIMD_KEY_MASK.expect("wide probe on an entry type without a SIMD key mask")
}

/// Runs `op` over `items` in order, prefetching the home slot of the
/// item `ahead` positions further on before each probe. Stops early
/// (returning `false`) when `op` does.
#[inline(always)]
pub(crate) fn pipeline<T: ProbeCore>(
    t: &T,
    items: &[T::Entry],
    ahead: usize,
    mut op: impl FnMut(u64) -> bool,
) -> bool {
    let cells = t.cells();
    for e in items.iter().take(ahead) {
        prefetch_slot(cells, t.home(e.to_repr()));
    }
    for i in 0..items.len() {
        if let Some(next) = items.get(i + ahead) {
            prefetch_slot(cells, t.home(next.to_repr()));
        }
        if !op(items[i].to_repr()) {
            return false;
        }
    }
    true
}

/// One insert of a repr inside the window `tok`.
struct Insert(u64, u64);

impl<T: ProbeCore> TierOp<T> for Insert {
    type Out = Result<T::Fill, u64>;
    const WIDE: bool = T::WIDE;
    #[inline(always)]
    fn scalar(self, t: &T) -> Self::Out {
        t.insert_scalar(self.0, self.1)
    }
    #[inline(always)]
    fn wide<K: Kernel>(self, t: &T, k: K) -> Self::Out {
        t.insert_wide(self.0, self.1, k)
    }
}

/// One lookup of a repr.
struct Find(u64);

impl<T: ProbeCore> TierOp<T> for Find {
    type Out = Option<u64>;
    const WIDE: bool = T::WIDE;
    #[inline(always)]
    fn scalar(self, t: &T) -> Self::Out {
        t.find_scalar(self.0)
    }
    #[inline(always)]
    fn wide<K: Kernel>(self, t: &T, k: K) -> Self::Out {
        t.find_wide(self.0, k)
    }
}

/// A prefetched insert batch inside the window `tok`; `Out` is `false`
/// if the table filled up.
struct InsertBatch<'a, E>(&'a [E], u64);

impl<T: ProbeCore> TierOp<T> for InsertBatch<'_, T::Entry> {
    type Out = bool;
    const WIDE: bool = T::WIDE;
    #[inline(always)]
    fn scalar(self, t: &T) -> bool {
        let Self(items, tok) = self;
        pipeline(t, items, insert_prefetch_ahead(), |v| {
            t.insert_scalar(v, tok).is_ok()
        })
    }
    #[inline(always)]
    fn wide<K: Kernel>(self, t: &T, k: K) -> bool {
        let Self(items, tok) = self;
        pipeline(t, items, insert_prefetch_ahead(), |v| {
            t.insert_wide(v, tok, k).is_ok()
        })
    }
}

/// A prefetched lookup batch, appending one result per key to `out`.
struct FindBatch<'a, E>(&'a [E], &'a mut Vec<Option<E>>);

impl<T: ProbeCore> TierOp<T> for FindBatch<'_, T::Entry> {
    type Out = ();
    const WIDE: bool = T::WIDE;
    #[inline(always)]
    fn scalar(self, t: &T) {
        let Self(items, out) = self;
        pipeline(t, items, PREFETCH_AHEAD, |v| {
            out.push(t.find_scalar(v).map(T::Entry::from_repr));
            true
        });
    }
    #[inline(always)]
    fn wide<K: Kernel>(self, t: &T, k: K) {
        let Self(items, out) = self;
        pipeline(t, items, PREFETCH_AHEAD, |v| {
            out.push(t.find_wide(v, k).map(T::Entry::from_repr));
            true
        });
    }
}

/// One insert at the active tier.
#[inline]
pub(crate) fn insert<T: ProbeCore>(t: &T, v: u64, tok: u64) -> Result<T::Fill, u64> {
    simd::dispatch(t, Insert(v, tok))
}

/// One lookup at the active tier.
#[inline]
pub(crate) fn find<T: ProbeCore>(t: &T, v: u64) -> Option<u64> {
    simd::dispatch(t, Find(v))
}

/// Inserts a batch through one insert window, tier-bound once for the
/// whole prefetching loop (the gated [`insert_prefetch_ahead`]
/// distance). Semantically identical to inserting the entries one by
/// one in slice order.
///
/// # Panics
///
/// Panics if the table fills up.
pub(crate) fn insert_batch<T: ProbeCore>(t: &T, entries: &[T::Entry]) {
    if entries.is_empty() {
        return;
    }
    let tok = t.open_insert();
    let landed = simd::dispatch(t, InsertBatch(entries, tok));
    t.close_insert(tok);
    if !landed {
        panic!(
            "{}::insert: table is full (capacity {})",
            T::TYPE_NAME,
            t.cells().len()
        );
    }
    phc_obs::probe!(count PrefetchBatches);
    phc_obs::probe!(hist BatchSize, entries.len());
}

/// Looks up a batch, results in key order (`out[i]` answers
/// `keys[i]`), tier-bound once for the whole prefetching loop.
pub(crate) fn find_batch<T: ProbeCore>(t: &T, keys: &[T::Entry]) -> Vec<Option<T::Entry>> {
    let mut out = Vec::with_capacity(keys.len());
    if !keys.is_empty() {
        simd::dispatch(t, FindBatch(keys, &mut out));
        phc_obs::probe!(count PrefetchBatches);
        phc_obs::probe!(hist BatchSize, keys.len());
    }
    out
}

/// Deletes a batch through one delete window with prefetching.
/// Semantically identical to deleting the keys one by one in slice
/// order.
pub(crate) fn delete_batch<T: ProbeCore>(t: &T, keys: &[T::Entry]) {
    if keys.is_empty() {
        return;
    }
    let tok = t.open_delete();
    pipeline(t, keys, PREFETCH_AHEAD, |v| {
        t.delete(v, tok);
        true
    });
    t.close_delete(tok);
    phc_obs::probe!(count PrefetchBatches);
    phc_obs::probe!(hist BatchSize, keys.len());
}

/// Runs `f` over grain-sized chunks of `items` on the pool; a batch of
/// at most one grain runs inline (it gains nothing from the pool).
pub(crate) fn par_chunked<I: Sync>(items: &[I], f: impl Fn(&[I]) + Send + Sync) {
    use rayon::prelude::*;
    let grain = phc_parutil::grain();
    if items.len() <= grain {
        return f(items);
    }
    items.par_chunks(grain).for_each(f);
}

/// [`par_chunked`] for per-item results, concatenated in item order.
pub(crate) fn par_chunked_map<I: Sync, O: Send>(
    items: &[I],
    f: impl Fn(&[I]) -> Vec<O> + Send + Sync,
) -> Vec<O> {
    use rayon::prelude::*;
    let grain = phc_parutil::grain();
    if items.len() <= grain {
        return f(items);
    }
    items.par_chunks(grain).flat_map_iter(f).collect()
}

/// Packs the stored entries in cell order into `out` (appending) with
/// the mask-based parallel prefix sum: the count pass popcounts
/// wide-scan occupancy masks and only surviving cells are decoded, so
/// the output is identical at every tier.
pub(crate) fn elements_into<T: ProbeCore>(t: &T, out: &mut Vec<T::Entry>) {
    let base = out.len();
    phc_parutil::pack_with_mask_into(
        t.cells(),
        |win| simd::scan_nonempty_mask(win, <T::Entry as HashEntry>::EMPTY),
        |c| T::Entry::from_repr(t.unstore(c.load(Ordering::Acquire))),
        out,
    );
    phc_obs::probe!(hist PackSize, out.len() - base);
}

/// The packed entries in cell order (see [`elements_into`]).
pub(crate) fn elements<T: ProbeCore>(t: &T) -> Vec<T::Entry> {
    let mut out = Vec::new();
    elements_into(t, &mut out);
    out
}

/// Raw snapshot of a cell array.
pub(crate) fn snapshot<A: CellAtomic>(cells: &[A]) -> Vec<u64> {
    cells.iter().map(|c| c.load(Ordering::Acquire)).collect()
}

/// Applies `f` to every entry stored in the cell range (clamped to the
/// capacity), sequentially and in cell order — the migration primitive
/// of the cooperative resizer. The caller guarantees the range is
/// quiescent, so the per-window occupancy masks are exact.
pub(crate) fn for_each_in_range<T: ProbeCore>(
    t: &T,
    range: std::ops::Range<usize>,
    mut f: impl FnMut(T::Entry),
) {
    let cells = t.cells();
    let end = range.end.min(cells.len());
    let start = range.start.min(end);
    let mut base = start;
    for win in cells[start..end].chunks(64) {
        let mut bits = simd::scan_nonempty_mask(win, <T::Entry as HashEntry>::EMPTY);
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            f(T::Entry::from_repr(
                t.unstore(cells[base + j].load(Ordering::Acquire)),
            ));
        }
        base += win.len();
    }
}

/// Claims every cell in `range` (clamped) for migration: swaps each
/// cell — empty ones too — to the stored forwarding marker and appends
/// the decoded prior occupants to `out` in cell order. A racing
/// single-cell CAS either lands before the swap (its value is carried
/// out here) or fails against the marker and re-routes, so no entry is
/// lost or duplicated.
pub(crate) fn claim_range_forward<T: ProbeCore>(
    t: &T,
    range: std::ops::Range<usize>,
    out: &mut Vec<u64>,
) {
    let marker = t.stored_forward();
    let cells = t.cells();
    let end = range.end.min(cells.len());
    let start = range.start.min(end);
    for cell in &cells[start..end] {
        let prev = cell.swap(marker, Ordering::AcqRel);
        debug_assert_ne!(prev, marker, "migration block claimed twice");
        if prev != <T::Entry as HashEntry>::EMPTY {
            out.push(t.unstore(prev));
        }
    }
}

/// Figure 1 `FINDREPLACEMENT(i)`: `(j, v')` where `v'` is the entry
/// that may legally fill the hole at virtual index `i` (or ⊥) and `j`
/// its virtual location.
///
/// The scan up skips entries homed strictly after `i` (those may not
/// move back). Its per-cell predicate lifts the entry, so it cannot be
/// a vector compare; instead the loads come in wide windows
/// ([`simd::load_window`]) and the predicate runs on the buffered
/// lanes. Each lane is a valid (non-torn) cell value, which is all this
/// scan relies on: concurrent deletes can move the candidate down after
/// *any* load, wide or scalar, and the downward re-scan plus the
/// caller's CAS recover from that. The forwarding marker is excluded
/// defensively — it is no entry (its lift would be garbage), and a
/// migration sweep never races a delete.
#[inline(always)]
pub(crate) fn find_replacement<T: ProbeCore>(t: &T, i: usize) -> (usize, u64) {
    let cells = t.cells();
    let (n, mask) = (cells.len(), cells.len() - 1);
    let empty = <T::Entry as HashEntry>::EMPTY;
    let fwd = t.stored_forward();
    let movable = |c: u64, at: usize| c == empty || (c != fwd && t.lift_home(c, at) <= i);
    let mut buf = [0u64; simd::MAX_WINDOW];
    let mut next = i + 1;
    let (mut j, mut v) = 'up: loop {
        let real = next & mask;
        let k = simd::load_window(cells, real, n.min(real + simd::MAX_WINDOW), &mut buf);
        phc_obs::probe!(count SimdLanesScanned, k);
        for (lane, &val) in buf[..k].iter().enumerate() {
            if movable(val, next + lane) {
                break 'up (next + lane, val);
            }
        }
        next += k;
    };
    // The candidate may have been shifted down by a concurrent delete
    // while we scanned; walk back down to find its current position.
    // (The paper notes this second, downward loop is essential.)
    for k in (i + 1..j).rev() {
        let c = cells[k & mask].load(Ordering::Acquire);
        if movable(c, k) {
            (j, v) = (k, c);
        }
    }
    (j, v)
}

/// Applies `f` to every stored entry in parallel, in unspecified order.
pub(crate) fn for_each_entry<T: ProbeCore>(t: &T, f: impl Fn(T::Entry) + Send + Sync) {
    use rayon::prelude::*;
    t.cells().par_iter().with_min_len(4096).for_each(|c| {
        let v = c.load(Ordering::Acquire);
        if v != <T::Entry as HashEntry>::EMPTY {
            f(T::Entry::from_repr(t.unstore(v)));
        }
    });
}

/// Stores the empty sentinel in every cell (parallel).
pub(crate) fn clear<A: CellAtomic>(cells: &[A], empty: u64) {
    use rayon::prelude::*;
    cells
        .par_iter()
        .with_min_len(4096)
        .for_each(|c| c.store(empty, Ordering::Relaxed));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn prefetch_is_side_effect_free() {
        let cells: Vec<AtomicU64> = (0..64).map(AtomicU64::new).collect();
        for i in 0..cells.len() {
            prefetch_slot(&cells, i);
        }
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.load(std::sync::atomic::Ordering::Relaxed), i as u64);
        }
    }
}
