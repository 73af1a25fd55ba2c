//! `linearHash-D`: the deterministic phase-concurrent hash table
//! (paper §4, Figure 1).
//!
//! Open addressing with a *prioritized* variant of linear probing,
//! extending the sequential history-independent table of Blelloch &
//! Golovin. The table maintains the **ordering invariant** (Definition
//! 2): if a key `v` hashes to location `i` and is stored at `j`, every
//! cell in `[i, j)` holds a key of priority ≥ `v`. Together with a
//! total priority order on keys this makes the array layout a pure
//! function of the key set — independent of the order, interleaving, or
//! parallelism of the operations that built it.
//!
//! * `insert` swaps itself into the first lower-priority cell on its
//!   probe path and then carries the displaced entry forward.
//! * `delete` replaces the victim with the nearest following entry that
//!   may legally move back (the priority-ordered analogue of backward-
//!   shift deletion) and then recursively deletes the copy.
//! * `find` stops early at the first cell of lower priority — absent
//!   keys are often *cheaper* to look up than in plain linear probing.
//! * `elements` packs the non-empty cells with a parallel prefix sum,
//!   yielding a deterministic sequence.
//!
//! ## Wraparound
//!
//! The paper's pseudocode compares raw indices (`k ≥ i`, `h(v) > i`),
//! which is only meaningful inside a cluster. We make those comparisons
//! exact under modulo wraparound by working with **virtual indices**:
//! unbounded integers reduced mod the table size only at memory access.
//! A stored entry's virtual hash position is recovered by subtracting
//! the forward distance from its hash bucket to its current cell —
//! valid because clusters are shorter than the table (the table must
//! not become full, a precondition the paper also imposes).

use std::cmp::Ordering as CmpOrdering;
use std::marker::PhantomData;
use std::sync::atomic::Ordering;

use crate::batch::ProbeCore;
use crate::cell::{AtomOf, CellAtomic};
use crate::entry::HashEntry;
use crate::phase::{
    ConcurrentDelete, ConcurrentInsert, ConcurrentRead, PhaseHashTable, PhaseKind, PhaseSpan,
};
use crate::resize::FlatTableCore;
use crate::simd::Kernel;

/// The deterministic phase-concurrent linear-probing hash table.
///
/// See the [module docs](self) for the algorithm and guarantees. The
/// table does not resize; size it so the load factor stays below ~0.9
/// (the paper's experiments run at loads up to 1/3 by default). For a
/// growable wrapper see [`crate::resize::ResizableTable`].
///
/// ```
/// use phc_core::{DetHashTable, U64Key};
/// let a: DetHashTable<U64Key> = DetHashTable::new_pow2(8);
/// let b: DetHashTable<U64Key> = DetHashTable::new_pow2(8);
/// for k in 1..=100u64 {
///     a.insert(U64Key::new(k));            // ascending
///     b.insert(U64Key::new(101 - k));      // descending
/// }
/// // History independence: identical layout from any insertion order.
/// assert_eq!(a.snapshot(), b.snapshot());
/// ```
pub struct DetHashTable<E: HashEntry> {
    cells: Box<[AtomOf<E::Repr>]>,
    mask: usize,
    _entry: PhantomData<E>,
}

// SAFETY: all shared mutation goes through atomic cells.
unsafe impl<E: HashEntry> Send for DetHashTable<E> {}
unsafe impl<E: HashEntry> Sync for DetHashTable<E> {}

impl<E: HashEntry> DetHashTable<E> {
    /// Creates a table with `2^log2_size` cells, all empty.
    pub fn new_pow2(log2_size: u32) -> Self {
        let n = 1usize << log2_size;
        let cells = crate::cell::new_cells::<E::Repr>(n, E::EMPTY);
        DetHashTable {
            cells,
            mask: n - 1,
            _entry: PhantomData,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Raw view of the cell array (for invariant checkers and tests).
    /// Cell width follows the entry type's `Repr`.
    pub fn raw_cells(&self) -> &[AtomOf<E::Repr>] {
        &self.cells
    }

    /// Snapshot of the raw cell contents. Two deterministic tables
    /// built from the same key set have equal snapshots — the strongest
    /// form of the history-independence guarantee (for entry types
    /// whose reprs are canonical; pointer entries are deterministic at
    /// the payload level instead).
    pub fn snapshot(&self) -> Vec<u64> {
        crate::batch::snapshot(&self.cells)
    }

    #[inline]
    fn slot(&self, hash: u64) -> usize {
        (hash as usize) & self.mask
    }

    /// Inserts an entry (Figure 1, `INSERT`). Safe to call from any
    /// number of threads during an insert phase.
    ///
    /// Duplicate keys are resolved with [`HashEntry::combine`] — a
    /// commutative rule, so concurrent duplicate inserts still commute.
    ///
    /// # Panics
    ///
    /// Panics if the table is full (the probe wrapped all the way
    /// around), matching the paper's precondition that
    /// `|contents ∪ inserts| < |M|`.
    pub fn insert(&self, e: E) {
        self.insert_counted(e);
    }

    /// Like [`insert`](Self::insert), but returns `true` iff the call
    /// filled a previously empty cell. Under concurrent displacement
    /// the credit may be earned while carrying *another* thread's
    /// entry, so the return value is a **global** net-new-element count
    /// credit (exactly one `true` per element added across all
    /// threads), not a statement about this particular key. Used by
    /// [`crate::resize::ResizableTable`] for exact load accounting.
    pub fn insert_counted(&self, e: E) -> bool {
        debug_assert_ne!(
            e.to_repr(),
            E::FORWARD,
            "the forwarding sentinel is not insertable"
        );
        FlatTableCore::insert_counted(self, e)
    }

    /// The scalar insert loop: the reference semantics every tier's
    /// wide insert must reproduce.
    fn try_insert_scalar(&self, mut v: u64) -> Result<bool, u64> {
        let mut i = self.slot(E::hash(v));
        let mut steps = 0usize;
        let mut cas_fails = 0usize;
        let mut swaps = 0usize;
        let result = loop {
            let c = self.cells[i].load(Ordering::Acquire);
            if c == E::FORWARD {
                // This cell was claimed by a migration sweep: the epoch
                // is retiring and the entry (if any) now lives in the
                // successor. Hand the carried repr back so the caller
                // re-homes it there. Checked before any key
                // interpretation — `FORWARD` is not a valid repr and
                // pointer entries would dereference it.
                phc_obs::probe!(count ForwardedProbes);
                break Err(v);
            }
            if E::same_key(c, v) {
                // Duplicate key: converge on the combined value.
                let merged = E::combine(c, v);
                if merged == c {
                    break Ok(false);
                }
                if self.cells[i]
                    .compare_exchange(c, merged, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break Ok(false);
                }
                cas_fails += 1;
                continue; // cell changed under us; re-read
            }
            if E::cmp_priority(c, v) == CmpOrdering::Greater {
                i = (i + 1) & self.mask;
                steps += 1;
                if steps > self.cells.len() {
                    break Err(v);
                }
            } else {
                // `c` has strictly lower priority than `v` (possibly ⊥):
                // try to take the cell and carry `c` onward.
                if self.cells[i]
                    .compare_exchange(c, v, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    if c == E::EMPTY {
                        break Ok(true);
                    }
                    swaps += 1;
                    v = c;
                    i = (i + 1) & self.mask;
                    steps += 1;
                    if steps > self.cells.len() {
                        break Err(v);
                    }
                } else {
                    // On CAS failure, retry the same cell: its priority
                    // can only have increased, so the comparison re-runs.
                    cas_fails += 1;
                }
            }
        };
        phc_obs::probe!(count ProbeSteps, steps);
        phc_obs::probe!(count InsertCasFail, cas_fails);
        phc_obs::probe!(count PrioritySwap, swaps);
        phc_obs::probe!(hist ProbeLen, steps);
        phc_obs::probe!(hist CasRetries, cas_fails);
        result
    }

    /// Wide-scan insert: a speculative `scan_le` skips the cells that
    /// outrank `v` in one compare per lane, then the candidate is
    /// confirmed with the exact per-cell atomic loop of the scalar
    /// path. Skipping on a racy wide load is sound because cell
    /// priorities only *rise* during an insert phase (an insert CAS
    /// replaces a cell with a higher-priority key; `combine` keeps the
    /// key), so "this lane outranks `v`" can never be invalidated. The
    /// converse can: a candidate whose priority rose after the scan
    /// sampled it is a counted misspeculation that re-scans one cell
    /// further on — which is also exactly what the scalar loop would do
    /// on its next look at that cell.
    ///
    /// Written once over the bound kernel `k`; [`crate::simd::dispatch`]
    /// resolves the tier once per operation or batch, so the probe loop
    /// pays no per-window dispatch.
    #[inline(always)]
    fn try_insert_repr_wide_with<K: Kernel>(
        &self,
        mut v: u64,
        key_mask: u64,
        k: K,
    ) -> Result<bool, u64> {
        let n = self.cells.len();
        let mut i = self.slot(E::hash(v));
        let mut steps = 0usize;
        let mut cas_fails = 0usize;
        let mut swaps = 0usize;
        let mut lanes_total = 0usize;
        let mut misspecs = 0usize;
        let result = 'outer: loop {
            let thr = v & key_mask;
            // Fast path: at moderate loads the cell under the cursor
            // usually decides the insert by itself (empty, same key, or
            // lower priority), so peek it scalar before paying for the
            // wide-scan setup. The peek is also what makes the
            // post-displacement `continue 'outer` cheap.
            let peek = self.cells[i].load(Ordering::Acquire);
            let (j, mut c) = if peek & key_mask <= thr {
                lanes_total += 1;
                (i, peek)
            } else {
                let (hit, lanes) = k.scan_le_wrapping(&self.cells, i, key_mask, thr);
                lanes_total += lanes;
                match hit {
                    Some(h) => h,
                    None => {
                        // Every cell outranks `v`: the table is full of
                        // higher-priority keys.
                        steps = n + 1;
                        break 'outer Err(v);
                    }
                }
            };
            steps += self.dist(i, j);
            if steps > n {
                break 'outer Err(v);
            }
            i = j;
            // Per-cell atomic confirm — the scalar probe body pinned at
            // the candidate cell, seeded with the value the scan already
            // observed there: the first CAS attempt reuses the loaded
            // window instead of re-loading the cell, and a failed CAS
            // hands back the current value, so the loop never issues a
            // separate re-load either.
            loop {
                if c == E::FORWARD {
                    // Claimed by a migration sweep (also reachable via
                    // the CAS-failure re-read below): divert to the
                    // successor. Must precede `same_key` — `FORWARD`
                    // masks to the key mask, so a max-key probe would
                    // otherwise "match" it.
                    phc_obs::probe!(count ForwardedProbes);
                    break 'outer Err(v);
                }
                if E::same_key(c, v) {
                    let merged = E::combine(c, v);
                    if merged == c {
                        break 'outer Ok(false);
                    }
                    match self.cells[i].compare_exchange(
                        c,
                        merged,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => break 'outer Ok(false),
                        Err(cur) => {
                            cas_fails += 1;
                            c = cur; // cell changed under us; re-check
                            continue;
                        }
                    }
                }
                if E::cmp_priority(c, v) == CmpOrdering::Greater {
                    // Misspeculation: a concurrent insert raised this
                    // cell above `v` after the wide scan sampled it.
                    misspecs += 1;
                    i = (i + 1) & self.mask;
                    steps += 1;
                    if steps > n {
                        break 'outer Err(v);
                    }
                    continue 'outer;
                }
                match self.cells[i].compare_exchange(c, v, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        if c == E::EMPTY {
                            break 'outer Ok(true);
                        }
                        swaps += 1;
                        v = c;
                        i = (i + 1) & self.mask;
                        steps += 1;
                        if steps > n {
                            break 'outer Err(v);
                        }
                        continue 'outer;
                    }
                    Err(cur) => {
                        cas_fails += 1;
                        c = cur;
                    }
                }
            }
        };
        phc_obs::probe!(count ProbeSteps, steps);
        phc_obs::probe!(count InsertCasFail, cas_fails);
        phc_obs::probe!(count PrioritySwap, swaps);
        phc_obs::probe!(count SimdLanesScanned, lanes_total);
        phc_obs::probe!(count SimdMisspeculations, misspecs);
        phc_obs::probe!(hist ProbeLen, steps);
        phc_obs::probe!(hist CasRetries, cas_fails);
        phc_obs::probe!(hist SimdLanesPerProbe, lanes_total);
        result
    }

    /// Inserts a batch of entries with software prefetching: before
    /// probing entry `i`, the home slot of entry `i + PREFETCH_AHEAD`
    /// is prefetched (see [`crate::batch`]), keeping several cache
    /// misses in flight instead of serializing them. Semantically
    /// identical to inserting the entries one by one in slice order —
    /// and since insertion order never affects the layout (history
    /// independence), identical to *any* insertion of the same set.
    pub fn insert_batch(&self, entries: &[E]) {
        crate::batch::insert_batch(self, entries)
    }

    /// Inserts a slice in parallel through the batched prefetching
    /// path: scheduler chunks of [`phc_parutil::grain`] entries, each
    /// processed by [`insert_batch`](Self::insert_batch). The final
    /// layout equals that of any other insertion of the same set.
    pub fn par_insert_batched(&self, entries: &[E]) {
        crate::batch::par_chunked(entries, |c| self.insert_batch(c))
    }

    /// Looks up the entry with `key`'s key part (Figure 1, `FIND`).
    /// Safe to call concurrently with other finds and `elements`.
    pub fn find(&self, key: E) -> Option<E> {
        FlatTableCore::find(self, key)
    }

    /// Looks up a batch of keys with software prefetching (the read
    /// analogue of [`insert_batch`](Self::insert_batch)), returning
    /// results in key order: `out[i] == self.find(keys[i])`.
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        crate::batch::find_batch(self, keys)
    }

    /// Parallel batched lookup: results in key order, computed in
    /// grain-sized prefetching chunks on the scheduler.
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        crate::batch::par_chunked_map(keys, |c| self.find_batch(c))
    }

    /// The scalar lookup loop (reference semantics).
    fn find_scalar(&self, probe: u64) -> Option<u64> {
        let mut i = self.slot(E::hash(probe));
        let mut steps = 0usize;
        let result = 'scan: {
            // Guard against a (mis-used) full table of higher-priority
            // keys.
            for _ in 0..=self.cells.len() {
                let c = self.cells[i].load(Ordering::Acquire);
                if c == E::EMPTY {
                    break 'scan None;
                }
                if c == E::FORWARD {
                    // Defensive: reads are quiescent (migrations drain
                    // before a read phase), so a forwarded cell should
                    // be unreachable here; treat it as absent-in-this-
                    // epoch rather than interpreting the sentinel.
                    phc_obs::probe!(count ForwardedProbes);
                    break 'scan None;
                }
                if E::same_key(c, probe) {
                    break 'scan Some(c);
                }
                if E::cmp_priority(c, probe) == CmpOrdering::Less {
                    // Keys on the probe path are priority-sorted: a
                    // lower priority cell means `probe` cannot be
                    // further on.
                    break 'scan None;
                }
                i = (i + 1) & self.mask;
                steps += 1;
            }
            None
        };
        phc_obs::probe!(count FindProbeSteps, steps);
        result
    }

    /// Wide-scan find. Under the
    /// [`SIMD_KEY_MASK`](HashEntry::SIMD_KEY_MASK) contract the whole
    /// prioritized stop condition collapses to one unsigned compare:
    /// the first cell whose masked repr is `<=` the probe's masked repr
    /// is either an exact key match (equal) or proof of absence (empty
    /// or lower priority) — exactly where the scalar loop stops. Find
    /// phases are quiescent, so the wide loads race with nothing and
    /// the result is byte-identical to the scalar path.
    #[inline(always)]
    fn find_repr_wide_with<K: Kernel>(&self, probe: u64, key_mask: u64, k: K) -> Option<u64> {
        let n = self.cells.len();
        let home = self.slot(E::hash(probe));
        let thr = probe & key_mask;
        let (hit, lanes) = k.scan_le_wrapping(&self.cells, home, key_mask, thr);
        phc_obs::probe!(count SimdLanesScanned, lanes);
        phc_obs::probe!(hist SimdLanesPerProbe, lanes);
        match hit {
            // The kernel hands back the stop lane's value from its
            // already-loaded window; read phases are quiescent, so it
            // equals what a re-load would return.
            Some((j, c)) => {
                phc_obs::probe!(count FindProbeSteps, self.dist(home, j));
                if c == E::FORWARD {
                    // Defensive (reads are quiescent): the sentinel
                    // masks to the key mask, so a max-key probe could
                    // stop on it — never interpret it as an entry.
                    phc_obs::probe!(count ForwardedProbes);
                    None
                } else if E::same_key(c, probe) {
                    Some(c)
                } else {
                    None
                }
            }
            None => {
                // No cell anywhere is <= the probe: a (mis-used) full
                // table of higher-priority keys, the scalar guard case.
                phc_obs::probe!(count FindProbeSteps, n + 1);
                None
            }
        }
    }

    /// Deletes the entry whose key equals `key`'s key part (Figure 1,
    /// `DELETE`). A no-op if absent. Safe to call from any number of
    /// threads during a delete phase.
    pub fn delete(&self, key: E) {
        self.delete_repr(key.to_repr());
    }

    /// Like [`delete`](Self::delete), but returns `true` iff the call
    /// performed the final store of `⊥` that shrank the table — a
    /// global net-removed-element credit (one `true` per element
    /// removed across all threads), mirroring
    /// [`insert_counted`](Self::insert_counted).
    pub fn delete_counted(&self, key: E) -> bool {
        self.delete_repr(key.to_repr())
    }

    /// Deletes a batch of keys with software prefetching of upcoming
    /// home slots — the delete analogue of
    /// [`insert_batch`](Self::insert_batch) /
    /// [`find_batch`](Self::find_batch). Semantically identical to
    /// deleting the keys one by one in slice order, and since the final
    /// layout is history-independent, identical to any other deletion
    /// of the same key set.
    pub fn delete_batch(&self, keys: &[E]) {
        crate::batch::delete_batch(self, keys)
    }

    /// Deletes a slice in parallel through the batched prefetching
    /// path: scheduler chunks of [`phc_parutil::grain`] keys, each
    /// processed by [`delete_batch`](Self::delete_batch). The final
    /// layout equals that of any other deletion of the same set.
    pub fn par_delete_batched(&self, keys: &[E]) {
        crate::batch::par_chunked(keys, |c| self.delete_batch(c))
    }

    #[inline]
    pub(crate) fn delete_repr(&self, probe: u64) -> bool {
        debug_assert_ne!(probe, E::EMPTY);
        let m = self.cells.len();
        // Virtual indices: base the walk at `m + bucket` so `k` can
        // step below `i` without underflow.
        let mut i = m + self.slot(E::hash(probe));
        let mut k = i;
        // Lines 27-29: walk forward past higher-priority cells to land
        // at or past the last copy of the key.
        loop {
            let c = self.load_at(k);
            if c == E::FORWARD {
                // Defensive: the resizer gates migration sweeps on
                // delete quiescence, so a delete never races a sweep.
                // Stop the walk rather than interpret the sentinel.
                phc_obs::probe!(count ForwardedProbes);
                break;
            }
            if c == E::EMPTY || E::cmp_priority(probe, c) != CmpOrdering::Less {
                break;
            }
            k += 1;
        }
        // `v` is what we are currently responsible for deleting. The
        // paper carries keys; carrying full reprs is equivalent because
        // a key occupies at most one distinct cell value, and the CAS
        // needs the exact loaded repr anyway.
        let mut v = probe;
        let mut steps = 0usize;
        // Lines 30-41.
        let result = loop {
            if k < i {
                break false;
            }
            steps += 1;
            let c = self.load_at(k);
            if c == E::FORWARD {
                // Defensive (see the walk-up loop): never a valid key.
                phc_obs::probe!(count ForwardedProbes);
                k -= 1;
                continue;
            }
            if c == E::EMPTY || !E::same_key(c, v) {
                k -= 1;
                continue;
            }
            let (j, vprime) = self.find_replacement(k);
            if self.cas_at(k, c, vprime) {
                if vprime != E::EMPTY {
                    // A second copy of `vprime` now exists at `k`; we
                    // are responsible for deleting the one at `j`.
                    v = vprime;
                    k = j;
                    i = self.lift_home(vprime, j);
                } else {
                    break true;
                }
            } else {
                // Someone else changed the cell: the copy we were
                // chasing can only have moved to a lower index (deletes
                // move entries down). Step back and keep looking.
                k -= 1;
            }
        };
        phc_obs::probe!(count DeleteProbeSteps, steps);
        result
    }

    /// Figure 1, `FINDREPLACEMENT(i)`: returns `(j, v')` where `v'` is
    /// the entry that may legally fill the hole at virtual index `i`
    /// (or ⊥), and `j` is its (virtual) location.
    fn find_replacement(&self, i: usize) -> (usize, u64) {
        crate::batch::find_replacement(self, i)
    }

    /// Packs the non-empty cells into a vector in cell order (paper §4,
    /// `ELEMENTS`). Runs in parallel via a prefix sum over wide-scan
    /// occupancy masks, so the output is deterministic and identical
    /// at every dispatch tier. Safe to call concurrently with finds.
    pub fn elements(&self) -> Vec<E> {
        crate::batch::elements(self)
    }

    /// [`elements`](Self::elements) into a caller-provided buffer:
    /// **appends** to `out` (prior contents are preserved), reusing its
    /// allocation. Repeated packers (the KV server's export loop) call
    /// this once per batch with a retained buffer instead of allocating
    /// a fresh `Vec` each time. The appended suffix is identical to
    /// what `elements()` returns.
    pub fn elements_into(&self, out: &mut Vec<E>) {
        crate::batch::elements_into(self, out)
    }

    /// Applies `f` to every entry stored in the cell range (clamped to
    /// the capacity), sequentially and in cell order.
    ///
    /// This is the migration primitive of the cooperative resizer
    /// ([`crate::resize::ResizableTable`]). The caller must guarantee
    /// no concurrent mutation of the scanned cells; with that guarantee
    /// the visit is exact.
    pub fn for_each_in_range(&self, range: std::ops::Range<usize>, f: impl FnMut(E)) {
        crate::batch::for_each_in_range(self, range, f)
    }

    /// Claims every cell in `range` (clamped to the capacity) for
    /// migration: atomically swaps each cell to the [`FORWARD`]
    /// (HashEntry::FORWARD) sentinel and appends the displaced
    /// non-empty reprs to `out`, in cell order.
    ///
    /// This is the sweep primitive of the freeze-free resizer
    /// ([`crate::resize::ResizableTable`]). Per-cell atomicity of the
    /// swap is what makes the sweep safe under concurrent inserts: a
    /// racing insert CAS either lands *before* the claim (the entry is
    /// carried out here) or fails against the sentinel, re-reads it,
    /// and diverts to the successor — no entry is lost or duplicated.
    /// Empty cells are claimed too, so a late insert can never land
    /// *behind* the sweep in already-claimed territory.
    pub fn claim_range_forward(&self, range: std::ops::Range<usize>, out: &mut Vec<u64>) {
        crate::batch::claim_range_forward(self, range, out)
    }

    /// Applies `f` to every stored entry, in parallel, without
    /// materializing the packed array (paper §6: the applications
    /// "require either returning the elements of the hash table or
    /// mapping over the elements"). Iteration order is unspecified;
    /// use [`elements`](Self::elements) when a deterministic sequence
    /// matters.
    pub fn for_each_entry(&self, f: impl Fn(E) + Send + Sync) {
        crate::batch::for_each_entry(self, f)
    }

    /// Number of occupied cells.
    pub fn len(&self) -> usize {
        crate::stats::occupied_len::<E>(&self.cells)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry (parallel).
    pub fn clear(&mut self) {
        crate::batch::clear(&self.cells, E::EMPTY)
    }
}

impl<E: HashEntry> ProbeCore for DetHashTable<E> {
    type Entry = E;
    type Fill = bool;
    const TYPE_NAME: &'static str = "DetHashTable";

    #[inline]
    fn cells(&self) -> &[AtomOf<E::Repr>] {
        &self.cells
    }
    #[inline]
    fn home(&self, v: u64) -> usize {
        self.slot(E::hash(v))
    }
    #[inline]
    fn insert_scalar(&self, v: u64, _tok: u64) -> Result<bool, u64> {
        self.try_insert_scalar(v)
    }
    #[inline(always)]
    fn insert_wide<K: Kernel>(&self, v: u64, _tok: u64, k: K) -> Result<bool, u64> {
        self.try_insert_repr_wide_with(v, crate::batch::wide_key_mask::<E>(), k)
    }
    #[inline]
    fn find_scalar(&self, v: u64) -> Option<u64> {
        DetHashTable::find_scalar(self, v)
    }
    #[inline(always)]
    fn find_wide<K: Kernel>(&self, v: u64, k: K) -> Option<u64> {
        self.find_repr_wide_with(v, crate::batch::wide_key_mask::<E>(), k)
    }
    #[inline]
    fn delete(&self, v: u64, _tok: u64) -> bool {
        self.delete_repr(v)
    }
    #[inline]
    fn filled(fill: bool) -> bool {
        fill
    }
}

/// Insert-phase handle (see [`crate::phase`]). The embedded
/// [`PhaseSpan`] brackets the phase on the observability timeline.
pub struct DetInserter<'t, E: HashEntry>(&'t DetHashTable<E>, #[allow(dead_code)] PhaseSpan);
/// Delete-phase handle.
pub struct DetDeleter<'t, E: HashEntry>(&'t DetHashTable<E>, #[allow(dead_code)] PhaseSpan);
/// Read-phase handle.
pub struct DetReader<'t, E: HashEntry>(&'t DetHashTable<E>, #[allow(dead_code)] PhaseSpan);

impl<E: HashEntry> ConcurrentInsert<E> for DetInserter<'_, E> {
    #[inline]
    fn insert(&self, e: E) {
        self.0.insert(e);
    }
}
impl<E: HashEntry> DetInserter<'_, E> {
    /// Batched prefetching insert (see [`DetHashTable::insert_batch`]).
    pub fn insert_batch(&self, entries: &[E]) {
        self.0.insert_batch(entries);
    }
    /// Parallel batched insert (see [`DetHashTable::par_insert_batched`]).
    pub fn par_insert_batched(&self, entries: &[E]) {
        self.0.par_insert_batched(entries);
    }
}
impl<E: HashEntry> ConcurrentDelete<E> for DetDeleter<'_, E> {
    #[inline]
    fn delete(&self, key: E) {
        self.0.delete(key);
    }
}
impl<E: HashEntry> DetDeleter<'_, E> {
    /// Batched prefetching delete (see [`DetHashTable::delete_batch`]).
    pub fn delete_batch(&self, keys: &[E]) {
        self.0.delete_batch(keys);
    }
    /// Parallel batched delete (see [`DetHashTable::par_delete_batched`]).
    pub fn par_delete_batched(&self, keys: &[E]) {
        self.0.par_delete_batched(keys);
    }
}
impl<E: HashEntry> ConcurrentRead<E> for DetReader<'_, E> {
    #[inline]
    fn find(&self, key: E) -> Option<E> {
        self.0.find(key)
    }
}
impl<E: HashEntry> DetReader<'_, E> {
    /// Packs the table contents (allowed in the read phase).
    pub fn elements(&self) -> Vec<E> {
        self.0.elements()
    }
    /// Batched prefetching lookup (see [`DetHashTable::find_batch`]).
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        self.0.find_batch(keys)
    }
    /// Parallel batched lookup (see [`DetHashTable::par_find_batched`]).
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        self.0.par_find_batched(keys)
    }
}

impl<E: HashEntry> PhaseHashTable<E> for DetHashTable<E> {
    type Inserter<'t>
        = DetInserter<'t, E>
    where
        E: 't;
    type Deleter<'t>
        = DetDeleter<'t, E>
    where
        E: 't;
    type Reader<'t>
        = DetReader<'t, E>
    where
        E: 't;

    const NAME: &'static str = "linearHash-D";

    fn new_pow2(log2_size: u32) -> Self {
        DetHashTable::new_pow2(log2_size)
    }

    fn capacity(&self) -> usize {
        self.capacity()
    }

    fn begin_insert(&mut self) -> DetInserter<'_, E> {
        DetInserter(self, PhaseSpan::begin(PhaseKind::Insert))
    }

    fn begin_delete(&mut self) -> DetDeleter<'_, E> {
        DetDeleter(self, PhaseSpan::begin(PhaseKind::Delete))
    }

    fn begin_read(&mut self) -> DetReader<'_, E> {
        DetReader(self, PhaseSpan::begin(PhaseKind::Read))
    }

    fn elements(&mut self) -> Vec<E> {
        DetHashTable::elements(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeepMin, KvPair, U64Key};
    use std::collections::BTreeSet;

    fn keys(v: &[u64]) -> Vec<U64Key> {
        v.iter().map(|&k| U64Key::new(k)).collect()
    }

    #[test]
    fn insert_then_find() {
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(8);
        for k in keys(&[1, 2, 3, 100, 200]) {
            t.insert(k);
        }
        for k in keys(&[1, 2, 3, 100, 200]) {
            assert_eq!(t.find(k), Some(k));
        }
        assert_eq!(t.find(U64Key::new(4)), None);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(6);
        for _ in 0..10 {
            t.insert(U64Key::new(42));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.elements(), vec![U64Key::new(42)]);
    }

    #[test]
    fn delete_removes_only_target() {
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(8);
        for k in 1..=50u64 {
            t.insert(U64Key::new(k));
        }
        for k in (1..=50u64).filter(|k| k % 2 == 0) {
            t.delete(U64Key::new(k));
        }
        for k in 1..=50u64 {
            let expect = (k % 2 == 1).then(|| U64Key::new(k));
            assert_eq!(t.find(U64Key::new(k)), expect, "key {k}");
        }
        assert_eq!(t.len(), 25);
    }

    #[test]
    fn delete_absent_is_noop() {
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(6);
        t.insert(U64Key::new(5));
        t.delete(U64Key::new(6));
        t.delete(U64Key::new(5));
        t.delete(U64Key::new(5));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn history_independence_of_snapshot() {
        // Insert the same set in three very different orders; the raw
        // array must be identical (Def. 2 gives unique representation).
        let set: Vec<u64> = (1..=200).map(|i| i * 17 % 1009 + 1).collect();
        let mut orders = vec![set.clone()];
        let mut rev = set.clone();
        rev.reverse();
        orders.push(rev);
        let mut shuffled = set.clone();
        // Deterministic shuffle.
        for i in (1..shuffled.len()).rev() {
            let j = (phc_parutil::hash64(i as u64) as usize) % (i + 1);
            shuffled.swap(i, j);
        }
        orders.push(shuffled);

        let mut snaps = Vec::new();
        for order in &orders {
            let t: DetHashTable<U64Key> = DetHashTable::new_pow2(9);
            for &k in order {
                t.insert(U64Key::new(k));
            }
            snaps.push(t.snapshot());
        }
        assert_eq!(snaps[0], snaps[1]);
        assert_eq!(snaps[0], snaps[2]);
    }

    #[test]
    fn history_independence_after_deletes() {
        // {insert A∪B; delete B} in varying orders must equal {insert A}.
        let a: Vec<u64> = (1..=100).map(|i| i * 13 + 7).collect();
        let b: Vec<u64> = (1..=60).map(|i| i * 29 + 11).collect();

        let direct: DetHashTable<U64Key> = DetHashTable::new_pow2(9);
        let aset: BTreeSet<u64> = a.iter().copied().collect();
        let bset: BTreeSet<u64> = b.iter().copied().collect();
        for &k in aset.difference(&bset) {
            direct.insert(U64Key::new(k));
        }

        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(9);
        for &k in a.iter().chain(&b) {
            t.insert(U64Key::new(k));
        }
        for &k in b.iter().rev() {
            t.delete(U64Key::new(k));
        }
        assert_eq!(t.snapshot(), direct.snapshot());
    }

    #[test]
    fn elements_sorted_by_cell_order_is_deterministic() {
        let t1: DetHashTable<U64Key> = DetHashTable::new_pow2(8);
        let t2: DetHashTable<U64Key> = DetHashTable::new_pow2(8);
        for k in 1..=100u64 {
            t1.insert(U64Key::new(k));
        }
        for k in (1..=100u64).rev() {
            t2.insert(U64Key::new(k));
        }
        assert_eq!(t1.elements(), t2.elements());
        let mut sorted: Vec<u64> = t1.elements().iter().map(|k| k.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=100u64).collect::<Vec<_>>());
    }

    #[test]
    fn kv_combine_min_under_duplicates() {
        let t: DetHashTable<KvPair<KeepMin>> = DetHashTable::new_pow2(8);
        t.insert(KvPair::new(7, 30));
        t.insert(KvPair::new(7, 10));
        t.insert(KvPair::new(7, 20));
        let got = t.find(KvPair::new(7, 0)).unwrap();
        assert_eq!(got.value, 10);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn wraparound_cluster() {
        // Force keys into the last buckets so clusters wrap. With a
        // tiny table every key collides near the end.
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(3); // 8 cells
        let mut picked = Vec::new();
        let mut k = 1u64;
        while picked.len() < 5 {
            if (phc_parutil::hash64(k) as usize) & 7 >= 6 {
                picked.push(k);
            }
            k += 1;
        }
        for &k in &picked {
            t.insert(U64Key::new(k));
        }
        for &k in &picked {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)), "key {k}");
        }
        // Delete them all through the wrapped cluster.
        for &k in &picked {
            t.delete(U64Key::new(k));
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn insert_into_full_table_panics() {
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(2); // 4 cells
        for k in 1..=5u64 {
            t.insert(U64Key::new(k));
        }
    }

    #[test]
    fn batched_insert_matches_per_element_snapshot() {
        let keys: Vec<U64Key> = (1..=4000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let seq: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        for &k in &keys {
            seq.insert(k);
        }
        let batched: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        batched.insert_batch(&keys);
        assert_eq!(batched.snapshot(), seq.snapshot());
        let par: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        par.par_insert_batched(&keys);
        assert_eq!(par.snapshot(), seq.snapshot());
    }

    #[test]
    fn batched_find_matches_per_element() {
        let present: Vec<U64Key> = (1..=2000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(12);
        t.insert_batch(&present);
        // Probe a mix of present and absent keys.
        let probes: Vec<U64Key> = (1..=4000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let expect: Vec<Option<U64Key>> = probes.iter().map(|&k| t.find(k)).collect();
        assert_eq!(t.find_batch(&probes), expect);
        assert_eq!(t.par_find_batched(&probes), expect);
    }

    #[test]
    fn batched_delete_matches_per_element_snapshot() {
        let keys: Vec<U64Key> = (1..=4000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let (dels, _) = keys.split_at(2500);
        let expect: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        expect.insert_batch(&keys);
        for &k in dels {
            expect.delete(k);
        }
        let batched: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        batched.insert_batch(&keys);
        batched.delete_batch(dels);
        assert_eq!(batched.snapshot(), expect.snapshot());
        let par: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        par.insert_batch(&keys);
        par.par_delete_batched(dels);
        assert_eq!(par.snapshot(), expect.snapshot());
    }

    #[test]
    fn parallel_insert_matches_sequential_snapshot() {
        use rayon::prelude::*;
        let keys: Vec<u64> = (1..=4000u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        let seq: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        for &k in &keys {
            seq.insert(U64Key::new(k));
        }
        for _ in 0..4 {
            let par: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
            keys.par_iter().for_each(|&k| par.insert(U64Key::new(k)));
            assert_eq!(par.snapshot(), seq.snapshot());
        }
    }

    #[test]
    fn parallel_delete_matches_sequential_snapshot() {
        use rayon::prelude::*;
        let keys: Vec<u64> = (1..=4000u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        let (dels, keeps) = keys.split_at(2500);
        let expect: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
        for &k in keeps {
            expect.insert(U64Key::new(k));
        }
        for _ in 0..4 {
            let t: DetHashTable<U64Key> = DetHashTable::new_pow2(13);
            for &k in &keys {
                t.insert(U64Key::new(k));
            }
            dels.par_iter().for_each(|&k| t.delete(U64Key::new(k)));
            assert_eq!(t.snapshot(), expect.snapshot());
        }
    }

    #[test]
    fn for_each_entry_visits_exactly_the_contents() {
        use std::sync::atomic::{AtomicU64, Ordering as AOrd};
        let t: DetHashTable<U64Key> = DetHashTable::new_pow2(10);
        for k in 1..=500u64 {
            t.insert(U64Key::new(k));
        }
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        t.for_each_entry(|e| {
            sum.fetch_add(e.0, AOrd::Relaxed);
            count.fetch_add(1, AOrd::Relaxed);
        });
        assert_eq!(count.load(AOrd::Relaxed), 500);
        assert_eq!(sum.load(AOrd::Relaxed), 500 * 501 / 2);
    }

    #[test]
    fn phase_api_compiles_and_works() {
        use crate::phase::*;
        let mut t: DetHashTable<U64Key> = PhaseHashTable::new_pow2(8);
        {
            let ins = t.begin_insert();
            ins.insert(U64Key::new(9));
        }
        {
            let del = t.begin_delete();
            del.delete(U64Key::new(9));
        }
        let reader = t.begin_read();
        assert_eq!(reader.find(U64Key::new(9)), None);
    }
}
