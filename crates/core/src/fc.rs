//! `linearHash-FC`: the fully-concurrent history-independent hash table.
//!
//! Same prioritized linear probing and canonical layout as
//! [`DetHashTable`](crate::det::DetHashTable) (paper §4), but **without
//! the phase discipline**: inserts, deletes, and finds may run
//! concurrently, in the spirit of Attiya, Bender, Farach-Colton and
//! Oshman's *History-Independent Concurrent Hash Tables* (2025). The
//! ordering invariant (Definition 2) is maintained *online*: operations
//! detect overlap with the opposite write kind and validate/repair
//! their own writes, so every **quiescent** snapshot is byte-identical
//! to `DetHashTable` built from the same key set.
//!
//! ## Overlap detection
//!
//! Two shared state words, one per write kind, each packing
//! `(epoch << 32) | active_count`. A writer bumps *both* halves of its
//! own word on entry (`+EPOCH_ONE + 1`) and drops only the active count
//! on exit, so the epoch half is a monotone start counter. An operation
//! registers itself *first*, then snapshots the opposite word; a writer
//! of the opposite kind either shows up in that snapshot (active ≠ 0)
//! or starts later and bumps the epoch, which the lazy re-check at each
//! placement observes. This is the classic store-buffering handshake,
//! hence the `SeqCst` orderings on the state words: at least one of two
//! overlapping opposite-kind writers is guaranteed to see the other.
//!
//! When no overlap is detected — the phase-separated regime, and the
//! sharded KV server's batched sub-phases — every validation is
//! skipped and the per-op cost over `linearHash-D` is one shared-word
//! RMW pair plus one shared load per placement.
//!
//! ## Online repair
//!
//! * **Insert** validates each successful placement when a delete
//!   overlaps: it re-scans `[home(x), j)` through per-cell atomic loads
//!   and, on a violation (an empty or lower-priority cell below `x`, or
//!   a duplicate of `x`), pulls its copy back out and re-inserts it.
//! * **Delete** revalidates each of its writes when an insert overlaps:
//!   after storing `⊥` it re-runs `FINDREPLACEMENT` in case an entry
//!   placed concurrently may now legally back-shift into the hole, and
//!   after a copy-down write it scans up for an entry that the lowered
//!   cell priority newly displaces. A *miss* is also suspect: a
//!   concurrent displacement chain holds its victim in private hands
//!   between CASes, invisible to any scan, so a delete that found
//!   nothing re-walks until one full walk overlaps no insert.
//! * **Find** treats a wide-scan hit as a *hint* confirmed through a
//!   per-cell atomic re-read (unlike the quiescent-phase wide find,
//!   which may use the scanned window value directly), and retries a
//!   bounded number of times on a miss that raced an active writer.
//!
//! ## Chased copies
//!
//! A delete's copy-down leaves two copies of the moved entry `y` until
//! its chase removes the upper one; the chase owes exactly one removal.
//! An insert must not consume that surplus copy itself — by carrying a
//! displaced copy of `y` into the other copy (a merge), or by a repair
//! that pulls its own copy of `y` out and re-inserts it onto the other
//! — or the chase removes the survivor and `y` is lost. Chasers
//! therefore *announce* the keys whose surplus copies they own (from
//! before each copy-down until the matching removal), and the merge
//! and repair paths wait out an announced chase of their key before
//! acting. Chasers never wait on inserts, and the repairs a delete owes
//! run only after its chase has ended, so the waits cannot cycle.
//!
//! The handshake makes the repairs cover each other: an insert placing
//! at time `T1` validates at `T2 > T1`; a delete writing at `T3`
//! revalidates at `T4 > T3`. If `T3 < T2` the insert's validation sees
//! the delete's write; otherwise `T4 > T1` and the delete's
//! revalidation sees the placement. Either way a conflicting pair is
//! observed and repaired by at least one side, so at quiescence the
//! ordering invariant holds and the layout is the canonical one.
//!
//! Mid-operation states (an entry "in hand" between displacement CASes)
//! remain observable by concurrent finds; fc promises determinism of
//! quiescent snapshots, not of in-flight read results.

use std::cmp::Ordering as CmpOrdering;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::batch::ProbeCore;
use crate::cell::{AtomOf, CellAtomic};
use crate::entry::HashEntry;
use crate::phase::PhaseHashTable;
use crate::resize::FlatTableCore;
use crate::simd::Kernel;

/// One writer-start unit in the epoch half of a state word.
const EPOCH_ONE: u64 = 1 << 32;
/// Mask of the active-count half of a state word.
const ACTIVE_MASK: u64 = EPOCH_ONE - 1;
/// Bounded retries for a find that misses while writers are active.
const FIND_RETRIES: usize = 8;
/// Chasers that can announce at once (one bit each in `chase_claims`).
const CHASE_SLOTS: usize = 64;

/// Debug-build witness that a speculative wide-scan hit was confirmed
/// through a per-cell atomic re-read before use (the fc analogue of
/// `nd.rs`'s `NdPhaseChecks`): asserts the confirmed index is a real
/// cell and counts the confirmation.
macro_rules! fc_spec_check {
    ($idx:expr, $mask:expr) => {
        debug_assert!(($idx) <= ($mask), "fc: confirm index out of range");
        #[cfg(debug_assertions)]
        phc_obs::probe!(count FcSpecChecks);
    };
}

/// The fully-concurrent deterministic linear-probing hash table.
///
/// See the [module docs](self) for the algorithm. Like
/// [`DetHashTable`](crate::det::DetHashTable) the table does not
/// resize; wrap it in [`crate::resize::ResizableTable`] (it implements
/// [`crate::resize::FlatTableCore`]) for cooperative growth.
///
/// ```
/// use phc_core::{FcHashTable, U64Key};
/// let t: FcHashTable<U64Key> = FcHashTable::new_pow2(8);
/// // No phases: interleave freely from any thread.
/// t.insert(U64Key::new(7));
/// t.delete(U64Key::new(7));
/// t.insert(U64Key::new(9));
/// assert_eq!(t.find(U64Key::new(9)), Some(U64Key::new(9)));
/// assert_eq!(t.find(U64Key::new(7)), None);
/// ```
pub struct FcHashTable<E: HashEntry> {
    cells: Box<[AtomOf<E::Repr>]>,
    mask: usize,
    /// `(insert starts << 32) | active inserts`.
    ins_state: AtomicU64,
    /// `(delete starts << 32) | active deletes`.
    del_state: AtomicU64,
    /// Keys with an in-flight copy-down chase, two lanes per chaser
    /// (see [`Chase`]); `E::EMPTY` marks an idle lane.
    chases: Box<[AtomicU64]>,
    /// Bit `s` set while chaser slot `s` is claimed.
    chase_claims: AtomicU64,
    _entry: PhantomData<E>,
}

// SAFETY: all shared mutation goes through atomic cells / state words.
unsafe impl<E: HashEntry> Send for FcHashTable<E> {}
unsafe impl<E: HashEntry> Sync for FcHashTable<E> {}

impl<E: HashEntry> FcHashTable<E> {
    /// Creates a table with `2^log2_size` cells, all empty.
    pub fn new_pow2(log2_size: u32) -> Self {
        let n = 1usize << log2_size;
        let cells = crate::cell::new_cells::<E::Repr>(n, E::EMPTY);
        FcHashTable {
            cells,
            mask: n - 1,
            ins_state: AtomicU64::new(0),
            del_state: AtomicU64::new(0),
            chases: (0..2 * CHASE_SLOTS)
                .map(|_| AtomicU64::new(E::EMPTY))
                .collect(),
            chase_claims: AtomicU64::new(0),
            _entry: PhantomData,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Raw view of the cell array (for invariant checkers and tests).
    pub fn raw_cells(&self) -> &[AtomOf<E::Repr>] {
        &self.cells
    }

    /// Snapshot of the raw cell contents. **Quiescent** snapshots of
    /// two fc tables holding the same key set are equal — and equal to
    /// a [`DetHashTable`](crate::det::DetHashTable) snapshot of that
    /// set. Taken under concurrent writers the result is a racy read.
    pub fn snapshot(&self) -> Vec<u64> {
        crate::batch::snapshot(&self.cells)
    }

    #[inline]
    fn slot(&self, hash: u64) -> usize {
        (hash as usize) & self.mask
    }

    /// Whether an opposite-kind writer overlapped: it was active when
    /// we snapshotted `at_start`, or has started since (epoch moved).
    #[inline]
    fn overlapped(now: u64, at_start: u64) -> bool {
        (at_start & ACTIVE_MASK) != 0 || now != at_start
    }

    /// Lazy re-check against the delete word (insert side).
    #[inline]
    fn del_overlapped(&self, del0: u64) -> bool {
        Self::overlapped(self.del_state.load(Ordering::SeqCst), del0)
    }

    /// Lazy re-check against the insert word (delete side).
    #[inline]
    fn ins_overlapped(&self, ins0: u64) -> bool {
        Self::overlapped(self.ins_state.load(Ordering::SeqCst), ins0)
    }

    // ------------------------------------------------------------------
    // Insert
    // ------------------------------------------------------------------

    /// Inserts an entry; duplicate keys resolve through
    /// [`HashEntry::combine`]. Callable concurrently with *any* other
    /// operation on the table.
    ///
    /// # Panics
    ///
    /// Panics if the table is full, as `DetHashTable::insert` does.
    pub fn insert(&self, e: E) {
        self.insert_counted(e);
    }

    /// Like [`insert`](Self::insert), returning `true` iff the call
    /// net-filled a previously empty cell (the global element-count
    /// credit used by [`crate::resize::ResizableTable`]). Under
    /// insert/delete overlap a repair may cancel the credit; the
    /// returned bool reports the *net* outcome of this call.
    pub fn insert_counted(&self, e: E) -> bool {
        FlatTableCore::insert_counted(self, e)
    }

    /// Scalar insert loop (the caller is registered on `ins_state`;
    /// returns the net number of cells this call filled, 0 or 1 at
    /// quiescence): `DetHashTable`'s scalar insert plus the
    /// post-placement validation hook after every successful CAS.
    fn try_insert_net_scalar(&self, mut v: u64, del0: u64, relocating: bool) -> Result<i64, u64> {
        let mut i = self.slot(E::hash(v));
        let mut steps = 0usize;
        let mut swaps = 0usize;
        let mut net = 0i64;
        let result = loop {
            let c = self.cells[i].load(Ordering::Acquire);
            if c == E::FORWARD {
                // Defensive: the resizer's writer gate (see
                // `quiesce_writers`) keeps migration sweeps and active
                // fc writers disjoint, so a registered insert should
                // never observe the sentinel; divert rather than
                // interpret it.
                phc_obs::probe!(count ForwardedProbes);
                break Err(v);
            }
            if E::same_key(c, v) {
                if (relocating || swaps > 0) && !self.may_merge(i, c, v) {
                    continue; // re-read
                }
                let merged = E::combine(c, v);
                if merged == c {
                    break Ok(net);
                }
                if self.cells[i]
                    .compare_exchange(c, merged, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break Ok(net);
                }
                continue; // cell changed under us; re-read
            }
            if E::cmp_priority(c, v) == CmpOrdering::Greater {
                i = (i + 1) & self.mask;
                steps += 1;
                if steps > self.cells.len() {
                    break Err(v);
                }
                continue;
            }
            if self.cells[i]
                .compare_exchange(c, v, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let filled = c == E::EMPTY;
                if filled {
                    net += 1;
                }
                net += self.after_place(v, i, del0);
                if filled {
                    break Ok(net);
                }
                swaps += 1;
                v = c;
                i = (i + 1) & self.mask;
                steps += 1;
                if steps > self.cells.len() {
                    break Err(v);
                }
            }
            // On CAS failure, retry the same cell.
        };
        phc_obs::probe!(count ProbeSteps, steps);
        phc_obs::probe!(count FcDisplacements, swaps);
        phc_obs::probe!(hist FcDisplacementChain, swaps);
        result
    }

    /// Wide insert: `scan_le` skips outranking cells (sound because
    /// cell priorities only rise under inserts, and a concurrent
    /// delete lowering a cell is exactly what validation repairs), then
    /// the candidate is confirmed by the exact per-cell CAS loop. The
    /// body is written once over the kernel `k`, bound per operation
    /// or batch by [`crate::simd::dispatch`].
    #[inline(always)]
    fn try_insert_net_wide_with<K: Kernel>(
        &self,
        mut v: u64,
        key_mask: u64,
        del0: u64,
        relocating: bool,
        k: K,
    ) -> Result<i64, u64> {
        let n = self.cells.len();
        let mut i = self.slot(E::hash(v));
        let mut steps = 0usize;
        let mut swaps = 0usize;
        let mut net = 0i64;
        let result = 'outer: loop {
            let thr = v & key_mask;
            // Scalar peek of the cursor cell first (see det.rs).
            let peek = self.cells[i].load(Ordering::Acquire);
            let (j, mut c) = if peek & key_mask <= thr {
                (i, peek)
            } else {
                let (hit, lanes) = k.scan_le_wrapping(&self.cells, i, key_mask, thr);
                phc_obs::probe!(count SimdLanesScanned, lanes);
                match hit {
                    Some(h) => h,
                    None => {
                        break 'outer Err(v);
                    }
                }
            };
            steps += self.dist(i, j);
            if steps > n {
                break 'outer Err(v);
            }
            i = j;
            // Per-cell atomic confirm, seeded with the scanned value.
            loop {
                fc_spec_check!(i, self.mask);
                if c == E::FORWARD {
                    // Defensive (see the scalar loop): also covers the
                    // CAS-failure re-read path below.
                    phc_obs::probe!(count ForwardedProbes);
                    break 'outer Err(v);
                }
                if E::same_key(c, v) {
                    if (relocating || swaps > 0) && !self.may_merge(i, c, v) {
                        c = self.cells[i].load(Ordering::Acquire);
                        continue;
                    }
                    let merged = E::combine(c, v);
                    if merged == c {
                        break 'outer Ok(net);
                    }
                    match self.cells[i].compare_exchange(
                        c,
                        merged,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => break 'outer Ok(net),
                        Err(cur) => {
                            c = cur;
                            continue;
                        }
                    }
                }
                if E::cmp_priority(c, v) == CmpOrdering::Greater {
                    // Misspeculation: the cell rose after the scan.
                    i = (i + 1) & self.mask;
                    steps += 1;
                    if steps > n {
                        break 'outer Err(v);
                    }
                    continue 'outer;
                }
                match self.cells[i].compare_exchange(c, v, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => {
                        let filled = c == E::EMPTY;
                        if filled {
                            net += 1;
                        }
                        net += self.after_place(v, i, del0);
                        if filled {
                            break 'outer Ok(net);
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
                    Err(cur) => c = cur,
                }
            }
        };
        phc_obs::probe!(count ProbeSteps, steps);
        phc_obs::probe!(count FcDisplacements, swaps);
        phc_obs::probe!(hist FcDisplacementChain, swaps);
        result
    }

    /// Post-placement hook: validate iff a delete overlapped. Returns
    /// the net fill-count delta of any repair. The quiescent side of
    /// the branch must stay a bare load-and-compare: the repair callee
    /// reaches back into the insert loops, and letting that call graph
    /// into the hot probe loop costs ~15% insert throughput in register
    /// spills alone (hence `#[cold]` + `#[inline(never)]` below).
    #[inline(always)]
    fn after_place(&self, placed: u64, at: usize, del0: u64) -> i64 {
        if self.del_overlapped(del0) {
            self.validate_placement(placed, at)
        } else {
            0
        }
    }

    /// Re-scans `[home(x), j)` through per-cell atomic loads. A cell
    /// that is empty, lower-priority than `x`, or a duplicate of `x`
    /// means the placement at `j` violates the ordering invariant: pull
    /// the copy at `j` back out and re-insert `x` from scratch (the
    /// re-insert re-validates itself). If the copy is no longer at `j`
    /// a concurrent displacer or deleter took responsibility for it.
    #[cold]
    #[inline(never)]
    fn validate_placement(&self, x: u64, j: usize) -> i64 {
        phc_obs::probe!(count FcRepairScans);
        let home = self.slot(E::hash(x));
        let mut i = home;
        while i != j {
            let c = self.cells[i].load(Ordering::Acquire);
            if c == E::EMPTY || E::same_key(c, x) || E::cmp_priority(c, x) == CmpOrdering::Less {
                if self.await_chase(x) {
                    // The chase may have settled the copies; re-scan.
                    i = home;
                    continue;
                }
                let m = self.cells.len();
                let kv = m + j;
                if self.delete_from::<false>(kv, kv - self.dist(home, j), x, 0) {
                    let del0 = self.del_state.load(Ordering::SeqCst);
                    return match crate::simd::dispatch(self, Relocate(x, del0)) {
                        Ok(n) => n - 1,
                        Err(_) => panic!("FcHashTable: table full during repair"),
                    };
                }
                return 0;
            }
            i = (i + 1) & self.mask;
        }
        0
    }

    /// Inserts a batch of entries with software prefetching (see
    /// [`crate::batch`]), under a single overlap-registration bracket.
    pub fn insert_batch(&self, entries: &[E]) {
        crate::batch::insert_batch(self, entries)
    }

    /// Parallel batched insert: grain-sized chunks through
    /// [`insert_batch`](Self::insert_batch).
    pub fn par_insert_batched(&self, entries: &[E]) {
        crate::batch::par_chunked(entries, |c| self.insert_batch(c))
    }

    // ------------------------------------------------------------------
    // Find
    // ------------------------------------------------------------------

    /// Looks up the entry with `key`'s key part. Callable concurrently
    /// with any other operation; a lookup racing an in-flight
    /// displacement of its key may miss (it retries a bounded number of
    /// times when writers are active).
    pub fn find(&self, key: E) -> Option<E> {
        FlatTableCore::find(self, key)
    }

    /// Bounded retries around one probe attempt `once` (the tier is
    /// bound once, outside): quiescent misses return after two extra
    /// shared loads; misses that raced an active writer retry up to
    /// [`FIND_RETRIES`] times (counted as `FcHelps`).
    #[inline(always)]
    fn find_retrying(&self, once: impl Fn() -> Option<u64>) -> Option<u64> {
        let mut retries = 0usize;
        loop {
            let ins0 = self.ins_state.load(Ordering::SeqCst);
            let del0 = self.del_state.load(Ordering::SeqCst);
            let r = once();
            if r.is_some() {
                return r;
            }
            let racy = self.ins_overlapped(ins0) || self.del_overlapped(del0);
            if !racy || retries >= FIND_RETRIES {
                return None;
            }
            retries += 1;
            phc_obs::probe!(count FcHelps);
        }
    }

    /// Scalar probe — already per-cell atomic reads, so fc-safe as-is.
    fn find_once_scalar(&self, probe: u64) -> Option<u64> {
        let mut i = self.slot(E::hash(probe));
        let mut steps = 0usize;
        let result = 'scan: {
            for _ in 0..=self.cells.len() {
                let c = self.cells[i].load(Ordering::Acquire);
                if c == E::EMPTY {
                    break 'scan None;
                }
                if c == E::FORWARD {
                    // Defensive: a forwarded cell means the table is
                    // retiring; the entry (if any) lives in the
                    // successor, so this epoch reports absence.
                    phc_obs::probe!(count ForwardedProbes);
                    break 'scan None;
                }
                if E::same_key(c, probe) {
                    break 'scan Some(c);
                }
                if E::cmp_priority(c, probe) == CmpOrdering::Less {
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

    /// Wide find where the scan hit is only a *hint*: the stop lane is
    /// confirmed through a per-cell atomic load (`fc_spec_check!`), and
    /// a confirmation that reads a now-higher-priority cell resumes
    /// scanning past it. This is the fc twist on the quiescent-phase
    /// wide find, which uses the scanned window value directly.
    #[inline(always)]
    fn find_once_wide_with<K: Kernel>(&self, probe: u64, key_mask: u64, k: K) -> Option<u64> {
        let n = self.cells.len();
        let home = self.slot(E::hash(probe));
        let thr = probe & key_mask;
        let mut seg = 0usize;
        let (mut s, mut e) = (home, n);
        loop {
            let (hit, lanes) = k.scan_le(&self.cells, s, e, key_mask, thr);
            phc_obs::probe!(count SimdLanesScanned, lanes);
            if let Some((j, _scanned)) = hit {
                let c = self.cells[j].load(Ordering::Acquire);
                fc_spec_check!(j, self.mask);
                if c == E::FORWARD {
                    // Defensive: the sentinel masks to the key mask, so
                    // a max-key probe would otherwise "match" it.
                    phc_obs::probe!(count ForwardedProbes);
                    return None;
                }
                if E::same_key(c, probe) {
                    return Some(c);
                }
                if c & key_mask > thr {
                    // The stop lane rose after the scan sampled it
                    // (in-flight displacement): resume past it.
                    if j + 1 < e {
                        s = j + 1;
                        continue;
                    }
                } else {
                    // Confirmed empty-or-lower: proof of absence.
                    return None;
                }
            }
            seg += 1;
            if seg > 1 || home == 0 {
                return None;
            }
            (s, e) = (0, home);
        }
    }

    /// Batched prefetching lookup, results in key order. Speculates
    /// the quiescent det-style loop first and falls back to the careful
    /// per-cell-confirming, bounded-retry batch loop when a writer was
    /// registered or opened a window mid-batch.
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        match self.find_batch_speculate(keys) {
            Some(out) => out,
            None => crate::batch::find_batch(self, keys),
        }
    }

    /// Speculative quiescent fast path: if no writer is registered when
    /// the batch starts, the whole batch runs the det-style direct scan
    /// (trusting the kernel's already-loaded stop-lane value, no
    /// per-cell confirmation) and then validates that *both* state
    /// words are unchanged. Any insert or delete that could have
    /// overlapped the scans either was registered at the start (seen as
    /// `active > 0`) or bumped an epoch afterwards (seen by the
    /// re-load), so unchanged words prove the reads were effectively
    /// quiescent — torn SIMD windows need a concurrent write. On
    /// validation failure the speculative results are discarded and
    /// `None` tells the caller to redo the batch through the careful
    /// confirming loop (`None` is also returned when a writer was
    /// already registered, or at the scalar tier, where no speculation
    /// is attempted).
    ///
    /// The scan loop itself runs behind [`crate::simd::dispatch`]: at
    /// the AVX2 tier it is its own function (the trampoline), so the
    /// state snapshots living across it cannot bloat the loop's
    /// register allocation.
    fn find_batch_speculate(&self, keys: &[E]) -> Option<Vec<Option<E>>> {
        let ins0 = self.ins_state.load(Ordering::SeqCst);
        let del0 = self.del_state.load(Ordering::SeqCst);
        if keys.is_empty() || ins0 & ACTIVE_MASK != 0 || del0 & ACTIVE_MASK != 0 {
            return None;
        }
        let mut out = Vec::with_capacity(keys.len());
        if !crate::simd::dispatch(self, SpecFind(keys, &mut out)) {
            return None;
        }
        // Order the cell scans before the validation loads: the
        // re-loads below must observe any registration whose write
        // could have raced the scans.
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.ins_state.load(Ordering::SeqCst) == ins0
            && self.del_state.load(Ordering::SeqCst) == del0
        {
            phc_obs::probe!(count PrefetchBatches);
            phc_obs::probe!(hist BatchSize, keys.len());
            return Some(out);
        }
        // A writer window opened mid-batch; the speculative reads
        // may have seen torn or mid-repair windows.
        phc_obs::probe!(count FcHelps);
        None
    }

    /// The prefetching speculative scan loop: only sound between the
    /// snapshot and validation loads of
    /// [`find_batch_speculate`](Self::find_batch_speculate).
    #[inline(always)]
    fn find_spec_loop_body<K: Kernel>(&self, keys: &[E], out: &mut Vec<Option<E>>, k: K) {
        use crate::batch::{prefetch_slot, PREFETCH_AHEAD};
        let key_mask = crate::batch::wide_key_mask::<E>();
        // Hoist the cell slice and mask into locals: with `self` live
        // across the loop LLVM re-loads both fields every iteration
        // (it will not CSE plain loads across the kernel's atomic
        // loads), which is exactly the per-key overhead the standalone
        // loop exists to avoid.
        let cells: &[AtomOf<E::Repr>] = &self.cells;
        let mask = self.mask;
        for key in keys.iter().take(PREFETCH_AHEAD) {
            prefetch_slot(cells, (E::hash(key.to_repr()) as usize) & mask);
        }
        for i in 0..keys.len() {
            if let Some(next) = keys.get(i + PREFETCH_AHEAD) {
                prefetch_slot(cells, (E::hash(next.to_repr()) as usize) & mask);
            }
            out.push(
                Self::find_quiescent_in(cells, mask, keys[i].to_repr(), key_mask, k)
                    .map(E::from_repr),
            );
        }
    }

    /// Quiescent-certified wide find: the det-style direct scan that
    /// trusts the kernel's stop-lane value. Only sound inside the
    /// validated window of
    /// [`find_batch_speculate`](Self::find_batch_speculate).
    /// Takes the cell slice and mask as plain arguments (not `&self`)
    /// so the caller's loop can keep both in registers.
    #[inline(always)]
    fn find_quiescent_in<K: Kernel>(
        cells: &[AtomOf<E::Repr>],
        mask: usize,
        probe: u64,
        key_mask: u64,
        k: K,
    ) -> Option<u64> {
        let home = (E::hash(probe) as usize) & mask;
        let thr = probe & key_mask;
        let (hit, lanes) = k.scan_le_wrapping(cells, home, key_mask, thr);
        phc_obs::probe!(count SimdLanesScanned, lanes);
        match hit {
            Some((_, c)) if E::same_key(c, probe) => Some(c),
            _ => None,
        }
    }

    /// Parallel batched lookup, results in key order.
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        crate::batch::par_chunked_map(keys, |c| self.find_batch(c))
    }

    // ------------------------------------------------------------------
    // Delete
    // ------------------------------------------------------------------

    /// Deletes the entry whose key equals `key`'s key part; no-op if
    /// absent. Callable concurrently with any other operation.
    pub fn delete(&self, key: E) {
        self.delete_counted(key);
    }

    /// Like [`delete`](Self::delete), returning `true` iff the call
    /// performed the final `⊥` store that shrank the table (the global
    /// removed-element credit, mirroring `DetHashTable`).
    pub fn delete_counted(&self, key: E) -> bool {
        FlatTableCore::delete_counted(self, key)
    }

    /// Core delete; caller must be registered on `del_state`.
    ///
    /// A *miss* is only final once a full walk ran with no insert
    /// overlap: a concurrent inserter's displacement chain holds its
    /// displaced victim in private hands between the displacing CAS
    /// and the re-placement CAS, so a scan can race past a key that is
    /// very much still a member (the lost-delete race — the inserter's
    /// own placement validation cannot see it either, because the
    /// re-placed copy may violate nothing). The in-flight copy must
    /// land before its carrier retires from `ins_state`, so re-walking
    /// until a round observes zero active inserters and no epoch
    /// advance makes the miss sound. Waits only on in-flight inserts;
    /// inserts never wait on deletes, so there is no cycle.
    fn delete_repr(&self, probe: u64, ins0: u64) -> bool {
        debug_assert_ne!(probe, E::EMPTY);
        let m = self.cells.len();
        let i = m + self.slot(E::hash(probe));
        let mut ins_before = ins0;
        loop {
            let mut k = i;
            // Walk forward past higher-priority cells to land at or
            // past the last copy of the key (det.rs lines 27-29).
            loop {
                let c = self.load_at(k);
                if c == E::EMPTY || E::cmp_priority(probe, c) != CmpOrdering::Less {
                    break;
                }
                k += 1;
            }
            if self.delete_from::<true>(k, i, probe, ins_before) {
                return true;
            }
            let now = self.ins_state.load(Ordering::SeqCst);
            if !Self::overlapped(now, ins_before) {
                return false;
            }
            ins_before = now;
            phc_obs::probe!(count FcHelps);
        }
    }

    /// The paper's delete loop (det.rs lines 30-41) seeded at virtual
    /// position `k` with virtual home `i`, shared by real deletes and
    /// insert-side repair removals. With `ins0 = Some(snapshot)` each
    /// write is revalidated when an insert overlaps:
    ///
    /// * after the final `⊥` store, `FINDREPLACEMENT` re-runs — an
    ///   entry placed concurrently above the new hole may now legally
    ///   back-shift into it, in which case the hole is refilled and the
    ///   duplicate chased exactly like a normal replacement;
    /// * after a copy-down write (which *lowers* the cell's priority),
    ///   [`revalidate_lowered`](Self::revalidate_lowered) checks for an
    ///   entry above that the lowered cell newly displaces.
    ///
    /// Repair removals pass `CHECKED = false`: their writes are
    /// re-covered by the still-registered outer operation's own
    /// validation. `CHECKED` is a const generic (not an `Option`) so
    /// the real-delete instantiation's hot loop carries only the bare
    /// load-and-compare of `ins_overlapped`, with both repair arms out
    /// of line — the same shape that [`after_place`](Self::after_place)
    /// needs on the insert side.
    #[inline]
    fn delete_from<const CHECKED: bool>(
        &self,
        mut k: usize,
        mut i: usize,
        mut v: u64,
        ins0: u64,
    ) -> bool {
        let mut chase = Chase {
            t: self,
            slot: None,
        };
        // The span of lowered cells to revalidate once the chase has
        // ended (a repair may wait out other chases, so it must not run
        // while this one is announced). Revalidating a cell that was
        // not lowered is a harmless extra scan.
        let mut lowered: Option<(usize, usize)> = None;
        let mut steps = 0usize;
        let result = loop {
            if k < i {
                break false;
            }
            steps += 1;
            let c = self.load_at(k);
            if c == E::EMPTY || !E::same_key(c, v) {
                k -= 1;
                continue;
            }
            let (j, vprime) = self.find_replacement(k);
            chase.announce_next(vprime);
            if !self.cas_at(k, c, vprime) {
                // Cell changed under us: the copy either moved down
                // (concurrent delete) — step back and keep looking — or
                // was displaced up by an insert, whose carrier now owns
                // its placement (and validates it).
                chase.withdraw();
                k -= 1;
                continue;
            }
            let refill = if vprime != E::EMPTY {
                if CHECKED && self.ins_overlapped(ins0) {
                    lowered = Some(lowered.map_or((k, k), |(lo, hi)| (lo.min(k), hi.max(k))));
                }
                Some((j, vprime))
            } else if CHECKED && self.ins_overlapped(ins0) {
                self.recheck_hole(k, &mut chase)
            } else {
                None
            };
            let Some((j, vprime)) = refill else {
                break true;
            };
            // Chase the second copy of `vprime` now at `k`.
            chase.promote(vprime);
            v = vprime;
            k = j;
            i = self.lift_home(vprime, j);
        };
        chase.release();
        if let Some((lo, hi)) = lowered {
            for k in lo..=hi {
                self.revalidate_lowered(k);
            }
        }
        phc_obs::probe!(count DeleteProbeSteps, steps);
        result
    }

    /// After the final `⊥` store, when an insert overlapped the delete:
    /// an entry placed concurrently above the new hole may now legally
    /// back-shift into it. Re-run `FINDREPLACEMENT` and, if a candidate
    /// appears and the hole is still `⊥`, refill it (announced like any
    /// copy-down) and hand the duplicate back to the caller to chase.
    /// `#[cold]` for the same register-pressure reason as
    /// [`revalidate_lowered`].
    ///
    /// [`revalidate_lowered`]: Self::revalidate_lowered
    #[cold]
    #[inline(never)]
    fn recheck_hole(&self, k: usize, chase: &mut Chase<'_, E>) -> Option<(usize, u64)> {
        phc_obs::probe!(count FcRepairScans);
        let (j2, v2) = self.find_replacement(k);
        if v2 == E::EMPTY {
            return None;
        }
        chase.announce_next(v2);
        if self.cas_at(k, E::EMPTY, v2) {
            Some((j2, v2))
        } else {
            chase.withdraw();
            None
        }
    }

    /// After a copy-down write lowered the priority at virtual index
    /// `k`, scan up for an entry `y` that hashes at or before `k` and
    /// outranks the new occupant: such a `y` was legally placed while
    /// `k` still held the higher-priority victim and now violates the
    /// invariant. Repair by pulling `y` out and re-inserting it.
    /// `#[cold]`: reachable from the hot copy-down loop but taken only
    /// when an insert overlapped; keeping the repair call graph (which
    /// reaches back into the insert loops) out of line keeps the loop's
    /// registers clean — see [`after_place`](Self::after_place).
    #[cold]
    #[inline(never)]
    fn revalidate_lowered(&self, k: usize) {
        phc_obs::probe!(count FcRepairScans);
        let mut q = k + 1;
        while q < k + 1 + self.cells.len() {
            let y = self.load_at(q);
            if y == E::EMPTY {
                return;
            }
            let ck = self.load_at(k);
            if ck == E::EMPTY {
                // `k` was re-deleted; that delete revalidates it.
                return;
            }
            if self.lift_home(y, q) <= k && E::cmp_priority(y, ck) == CmpOrdering::Greater {
                if self.await_chase(y) {
                    // A surplus copy of `y` is owned by a chase; let it
                    // settle, then re-scan.
                    q = k + 1;
                    continue;
                }
                // The relocation registers as an insert: a delete of `y`
                // that misses it while it is out of the table sees the
                // overlap and re-walks (see `delete_repr`).
                let del0 = self.open_insert();
                if self.delete_from::<false>(q, self.lift_home(y, q), y, 0)
                    && crate::simd::dispatch(self, Relocate(y, del0)).is_err()
                {
                    panic!("FcHashTable: table full during repair");
                }
                self.close_insert(del0);
                return;
            }
            q += 1;
        }
    }

    /// Whether a carried (displaced or relocated) copy of `v` may merge
    /// into the copy `c` observed at cell `i`: only once no chase owns
    /// a surplus copy of the key, and only if `c` — possibly a stale
    /// wide-scan lane — is still there afterwards. `false` sends the
    /// caller back to re-read the cell.
    #[cold]
    #[inline(never)]
    fn may_merge(&self, i: usize, c: u64, v: u64) -> bool {
        !self.await_chase(v) && self.cells[i].load(Ordering::Acquire) == c
    }

    /// Whether a chase currently owns a surplus copy of `x`'s key (or
    /// is about to create one).
    ///
    /// Ordering: a lane store is `Release` and precedes (in program
    /// order) the copy-down CAS that creates the surplus copy, so any
    /// caller that has read that copy also sees the announcement.
    /// Within a pair the "next" lane is read before the "owed" lane:
    /// `promote` writes the owed lane before clearing the next one, so
    /// a key moving between them is seen in at least one.
    fn chase_pending(&self, x: u64) -> bool {
        let owns = |lane: &AtomicU64| {
            let a = lane.load(Ordering::Acquire);
            a != E::EMPTY && E::same_key(a, x)
        };
        self.chase_claims.load(Ordering::Acquire) != 0
            && self
                .chases
                .chunks_exact(2)
                .any(|pair| owns(&pair[1]) || owns(&pair[0]))
    }

    /// Waits until no chase announces `x`'s key; returns whether it had
    /// to wait (the caller then re-reads what it was about to act on).
    fn await_chase(&self, x: u64) -> bool {
        let mut spins = 0u32;
        while self.chase_pending(x) {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        if spins > 0 {
            phc_obs::probe!(count FcHelps);
        }
        spins > 0
    }

    /// Figure 1 `FINDREPLACEMENT(i)` — shared with det and Robin Hood:
    /// wide-window loads with a per-lane predicate, then the mandatory
    /// downward re-scan for the lowest legal candidate.
    fn find_replacement(&self, i: usize) -> (usize, u64) {
        crate::batch::find_replacement(self, i)
    }

    /// Deletes a batch of keys with software prefetching, under a
    /// single overlap-registration bracket.
    pub fn delete_batch(&self, keys: &[E]) {
        crate::batch::delete_batch(self, keys)
    }

    /// Parallel batched delete: grain-sized chunks through
    /// [`delete_batch`](Self::delete_batch).
    pub fn par_delete_batched(&self, keys: &[E]) {
        crate::batch::par_chunked(keys, |c| self.delete_batch(c))
    }

    // ------------------------------------------------------------------
    // Bulk reads
    // ------------------------------------------------------------------

    /// Packs the non-empty cells into a vector in cell order via the
    /// parallel mask-based prefix sum. Deterministic at quiescence.
    pub fn elements(&self) -> Vec<E> {
        crate::batch::elements(self)
    }

    /// Like [`elements`](Self::elements), packing into a caller-owned
    /// buffer (appends; prior contents are preserved) so steady-state
    /// readers reuse one allocation across calls. Deterministic at
    /// quiescence.
    pub fn elements_into(&self, out: &mut Vec<E>) {
        crate::batch::elements_into(self, out)
    }

    /// Applies `f` to every entry in the cell range, sequentially in
    /// cell order — the migration primitive of
    /// [`crate::resize::ResizableTable`]. The caller must guarantee the
    /// range is quiescent.
    pub fn for_each_in_range(&self, range: std::ops::Range<usize>, f: impl FnMut(E)) {
        crate::batch::for_each_in_range(self, range, f)
    }

    /// Claims every cell in `range` (clamped) for migration: swaps
    /// each cell to the `FORWARD` sentinel and appends the displaced
    /// non-empty reprs to `out` in cell order (the freeze-free
    /// resizer's sweep primitive; see `DetHashTable` for the per-cell
    /// atomicity argument). The resizer calls
    /// [`quiesce_writers`](Self::quiesce_writers) first, so no fc
    /// writer protocol (displacement carry, repair scan) is in flight
    /// over the swept cells.
    pub fn claim_range_forward(&self, range: std::ops::Range<usize>, out: &mut Vec<u64>) {
        crate::batch::claim_range_forward(self, range, out)
    }

    /// Spins until no insert or delete is registered on this table.
    ///
    /// The fully-concurrent protocols are *multi-cell*: a displacement
    /// carries an evicted entry toward its new cell, and a repair scan
    /// may pull a placed entry back out and re-insert it. A migration
    /// sweep racing those mid-protocol could strand the carried entry
    /// (its CAS diverts, but the repair path has no divert route —
    /// `validate_placement` panics on a full table). The freeze-free
    /// resizer therefore waits out registered fc writers before
    /// claiming blocks; new writers are excluded by the
    /// open-window/successor-check handshake, not by this wait, so the
    /// wait is bounded by in-flight operations only.
    pub fn quiesce_writers(&self) {
        let mut spins = 0u32;
        while self.ins_state.load(Ordering::SeqCst) & ACTIVE_MASK != 0
            || self.del_state.load(Ordering::SeqCst) & ACTIVE_MASK != 0
        {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Applies `f` to every stored entry in parallel, unspecified
    /// order.
    pub fn for_each_entry(&self, f: impl Fn(E) + Send + Sync) {
        crate::batch::for_each_entry(self, f)
    }

    /// Number of occupied cells (exact at quiescence).
    pub fn len(&self) -> usize {
        crate::stats::occupied_len::<E>(&self.cells)
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry (parallel; requires `&mut`, hence quiescent).
    pub fn clear(&mut self) {
        crate::batch::clear(&self.cells, E::EMPTY)
    }
}

/// One chaser's announcement lanes in [`FcHashTable::chases`]: lane
/// `2s` holds the key whose surplus copy the chase owes a removal for,
/// lane `2s + 1` the key it is about to copy down. A slot is claimed at
/// the first copy-down and released when the chase ends.
struct Chase<'t, E: HashEntry> {
    t: &'t FcHashTable<E>,
    slot: Option<usize>,
}

impl<E: HashEntry> Chase<'_, E> {
    /// Announces `v` before the copy-down that duplicates it.
    fn announce_next(&mut self, v: u64) {
        if v == E::EMPTY {
            return;
        }
        let s = *self.slot.get_or_insert_with(|| self.t.claim_chase_slot());
        self.t.chases[2 * s + 1].store(v, Ordering::Release);
    }

    /// The copy-down of `v` landed: `v` is now the owed removal.
    fn promote(&mut self, v: u64) {
        if let Some(s) = self.slot {
            self.t.chases[2 * s].store(v, Ordering::Release);
            self.t.chases[2 * s + 1].store(E::EMPTY, Ordering::Release);
        }
    }

    /// The announced copy-down did not happen.
    fn withdraw(&mut self) {
        if let Some(s) = self.slot {
            self.t.chases[2 * s + 1].store(E::EMPTY, Ordering::Release);
        }
    }

    /// The chase is over: clear both lanes and free the slot.
    fn release(self) {
        if let Some(s) = self.slot {
            self.t.chases[2 * s].store(E::EMPTY, Ordering::Release);
            self.t.chases[2 * s + 1].store(E::EMPTY, Ordering::Release);
            self.t.chase_claims.fetch_and(!(1 << s), Ordering::AcqRel);
        }
    }
}

impl<E: HashEntry> FcHashTable<E> {
    /// Claims a free chaser slot, waiting while all are taken (chasers
    /// never wait on anything, so slots free up).
    fn claim_chase_slot(&self) -> usize {
        let mut spins = 0u32;
        loop {
            let held = self.chase_claims.load(Ordering::Relaxed);
            if held != u64::MAX {
                let s = (!held).trailing_zeros() as usize;
                if self
                    .chase_claims
                    .compare_exchange_weak(held, held | 1 << s, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    return s;
                }
            } else {
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl<E: HashEntry> ProbeCore for FcHashTable<E> {
    type Entry = E;
    type Fill = i64;
    const TYPE_NAME: &'static str = "FcHashTable";

    #[inline]
    fn cells(&self) -> &[AtomOf<E::Repr>] {
        &self.cells
    }
    #[inline]
    fn home(&self, v: u64) -> usize {
        self.slot(E::hash(v))
    }
    #[inline]
    fn insert_scalar(&self, v: u64, del0: u64) -> Result<i64, u64> {
        self.try_insert_net_scalar(v, del0, false)
    }
    #[inline(always)]
    fn insert_wide<K: Kernel>(&self, v: u64, del0: u64, k: K) -> Result<i64, u64> {
        self.try_insert_net_wide_with(v, crate::batch::wide_key_mask::<E>(), del0, false, k)
    }
    #[inline]
    fn find_scalar(&self, v: u64) -> Option<u64> {
        self.find_retrying(|| self.find_once_scalar(v))
    }
    #[inline(always)]
    fn find_wide<K: Kernel>(&self, v: u64, k: K) -> Option<u64> {
        let key_mask = crate::batch::wide_key_mask::<E>();
        self.find_retrying(|| self.find_once_wide_with(v, key_mask, k))
    }
    #[inline]
    fn delete(&self, v: u64, ins0: u64) -> bool {
        self.delete_repr(v, ins0)
    }
    #[inline]
    fn filled(net: i64) -> bool {
        net > 0
    }
    // The windows register the writer on its own state word once and
    // hand the opposite-kind snapshot to every op inside them.
    fn open_insert(&self) -> u64 {
        self.ins_state.fetch_add(EPOCH_ONE | 1, Ordering::SeqCst);
        self.del_state.load(Ordering::SeqCst)
    }
    fn close_insert(&self, _del0: u64) {
        self.ins_state.fetch_sub(1, Ordering::SeqCst);
    }
    fn open_delete(&self) -> u64 {
        self.del_state.fetch_add(EPOCH_ONE | 1, Ordering::SeqCst);
        self.ins_state.load(Ordering::SeqCst)
    }
    fn close_delete(&self, _ins0: u64) {
        self.del_state.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A repair's re-insert of an entry it just pulled out: like a
/// displaced carry, it relocates a live entry, so meeting another copy
/// of its key waits out any chase that owns a surplus copy before
/// merging (see [`FcHashTable::await_chase`]).
struct Relocate(u64, u64);

impl<E: HashEntry> crate::simd::TierOp<FcHashTable<E>> for Relocate {
    type Out = Result<i64, u64>;
    const WIDE: bool = E::SIMD_KEY_MASK.is_some();
    fn scalar(self, t: &FcHashTable<E>) -> Self::Out {
        t.try_insert_net_scalar(self.0, self.1, true)
    }
    #[inline(always)]
    fn wide<K: Kernel>(self, t: &FcHashTable<E>, k: K) -> Self::Out {
        let key_mask = crate::batch::wide_key_mask::<E>();
        t.try_insert_net_wide_with(self.0, key_mask, self.1, true, k)
    }
}

/// The speculative quiescent batch lookup as a tier op: no
/// speculation at the scalar tier (`false`).
struct SpecFind<'a, E: HashEntry>(&'a [E], &'a mut Vec<Option<E>>);

impl<E: HashEntry> crate::simd::TierOp<FcHashTable<E>> for SpecFind<'_, E> {
    type Out = bool;
    const WIDE: bool = E::SIMD_KEY_MASK.is_some();
    fn scalar(self, _: &FcHashTable<E>) -> bool {
        false
    }
    #[inline(always)]
    fn wide<K: Kernel>(self, t: &FcHashTable<E>, k: K) -> bool {
        t.find_spec_loop_body(self.0, self.1, k);
        true
    }
}

impl<E: HashEntry> PhaseHashTable<E> for FcHashTable<E> {
    const NAME: &'static str = "linearHash-FC";

    fn new_pow2(log2_size: u32) -> Self {
        FcHashTable::new_pow2(log2_size)
    }
    fn capacity(&self) -> usize {
        self.capacity()
    }
    fn insert(&self, e: E) {
        FcHashTable::insert(self, e)
    }
    fn delete(&self, key: E) {
        FcHashTable::delete(self, key)
    }
    fn find(&self, key: E) -> Option<E> {
        FcHashTable::find(self, key)
    }
    fn pack(&self) -> Vec<E> {
        FcHashTable::elements(self)
    }
    fn insert_batch(&self, entries: &[E]) {
        FcHashTable::insert_batch(self, entries)
    }
    fn delete_batch(&self, keys: &[E]) {
        FcHashTable::delete_batch(self, keys)
    }
    fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        FcHashTable::find_batch(self, keys)
    }
}

impl<E: HashEntry> crate::resize::FlatTableCore<E> for FcHashTable<E> {
    const GROW_NAME: &'static str = "linearHash-FC-grow";
    const NEEDS_ROOMS: bool = false;

    fn new_pow2(log2_size: u32) -> Self {
        FcHashTable::new_pow2(log2_size)
    }
    fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        FcHashTable::find_batch(self, keys)
    }
    fn quiesce_writers(&self) {
        FcHashTable::quiesce_writers(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::DetHashTable;
    use crate::entry::{KeepMin, KvPair, U64Key};
    use std::collections::BTreeSet;

    fn det_snapshot_of(keys: &[u64], log2: u32) -> Vec<u64> {
        let d: DetHashTable<U64Key> = DetHashTable::new_pow2(log2);
        for &k in keys {
            d.insert(U64Key::new(k));
        }
        d.snapshot()
    }

    #[test]
    fn insert_find_delete_roundtrip() {
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(8);
        for k in 1..=50u64 {
            t.insert(U64Key::new(k));
        }
        for k in (2..=50u64).step_by(2) {
            t.delete(U64Key::new(k));
        }
        for k in 1..=50u64 {
            let expect = (k % 2 == 1).then(|| U64Key::new(k));
            assert_eq!(t.find(U64Key::new(k)), expect, "key {k}");
        }
        assert_eq!(t.len(), 25);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(6);
        for _ in 0..10 {
            t.insert(U64Key::new(42));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.elements(), vec![U64Key::new(42)]);
    }

    #[test]
    fn quiescent_snapshot_matches_det() {
        let keys: Vec<u64> = (1..=700u64).map(|k| k.wrapping_mul(0x9E37) | 1).collect();
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(10);
        // Interleave inserts and (re-)deletes sequentially.
        for (n, &k) in keys.iter().enumerate() {
            t.insert(U64Key::new(k));
            if n % 3 == 0 {
                t.delete(U64Key::new(k));
            }
        }
        let survivors: Vec<u64> = keys
            .iter()
            .enumerate()
            .filter(|(n, _)| n % 3 != 0)
            .map(|(_, &k)| k)
            .collect();
        let set: BTreeSet<u64> = survivors.iter().copied().collect();
        let set: Vec<u64> = set.into_iter().collect();
        assert_eq!(t.snapshot(), det_snapshot_of(&set, 10));
    }

    #[test]
    fn kv_combine_min() {
        let t: FcHashTable<KvPair<KeepMin>> = FcHashTable::new_pow2(6);
        t.insert(KvPair::new(9, 50));
        t.insert(KvPair::new(9, 20));
        t.insert(KvPair::new(9, 90));
        let got = t.find(KvPair::new(9, 0)).unwrap();
        assert_eq!(got.value, 20);
    }

    #[test]
    fn mixed_concurrent_ops_stay_canonical() {
        // 4 threads, each inserting its own key range and deleting a
        // deterministic subset of its *own* keys afterwards: the
        // survivor set is schedule-independent, so the quiescent
        // snapshot must equal det's for that set — this exercises the
        // overlap validation and repair paths hard.
        const THREADS: u64 = 4;
        const PER: u64 = 600;
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(13);
        let barrier = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for th in 0..THREADS {
                let t = &t;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let base = 1 + th * PER;
                    for k in base..base + PER {
                        t.insert(U64Key::new(k));
                        if k % 2 == 0 {
                            t.delete(U64Key::new(k));
                        }
                        // Interleave lookups of our own live keys.
                        if k % 7 == 0 {
                            let _ = t.find(U64Key::new(base));
                        }
                    }
                });
            }
        });
        let survivors: Vec<u64> = (1..=THREADS * PER).filter(|k| k % 2 == 1).collect();
        let expect: BTreeSet<u64> = survivors.iter().copied().collect();
        let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
        assert_eq!(got, expect);
        let snap = t.snapshot();
        crate::invariant::check_ordering_invariant::<U64Key>(&snap).unwrap();
        assert_eq!(snap, det_snapshot_of(&survivors, 13));
    }

    #[test]
    fn concurrent_disjoint_inserts_and_deletes_repair() {
        // One thread inserts fresh keys while another deletes a
        // pre-loaded disjoint set: every insert overlaps deletes and
        // vice versa, so validation/revalidation run constantly.
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(12);
        let dels: Vec<u64> = (1..=800u64).map(|k| k * 2).collect();
        for &k in &dels {
            t.insert(U64Key::new(k));
        }
        let ins: Vec<u64> = (1..=800u64).map(|k| k * 2 + 1).collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let t1 = &t;
            let b1 = &barrier;
            let ins1 = &ins;
            s.spawn(move || {
                b1.wait();
                for &k in ins1 {
                    t1.insert(U64Key::new(k));
                }
            });
            let t2 = &t;
            let b2 = &barrier;
            let dels2 = &dels;
            s.spawn(move || {
                b2.wait();
                for &k in dels2 {
                    t2.delete(U64Key::new(k));
                }
            });
        });
        let got: BTreeSet<u64> = t.elements().iter().map(|k| k.0).collect();
        let expect: BTreeSet<u64> = ins.iter().copied().collect();
        assert_eq!(got, expect);
        let snap = t.snapshot();
        crate::invariant::check_ordering_invariant::<U64Key>(&snap).unwrap();
        assert_eq!(snap, det_snapshot_of(&ins, 12));
    }

    #[test]
    fn phase_api_contract() {
        use crate::phase::{ConcurrentRead, PhaseHashTable as _};
        let mut t: FcHashTable<U64Key> = FcHashTable::new_pow2(8);
        {
            let ins = t.begin_insert();
            ins.insert_batch(&(1..=60u64).map(U64Key::new).collect::<Vec<_>>());
        }
        {
            let del = t.begin_delete();
            del.delete_batch(&(1..=30u64).map(U64Key::new).collect::<Vec<_>>());
        }
        let reader = t.begin_read();
        assert_eq!(reader.find(U64Key::new(31)), Some(U64Key::new(31)));
        assert_eq!(reader.find(U64Key::new(1)), None);
        let found = reader.find_batch(&(1..=60u64).map(U64Key::new).collect::<Vec<_>>());
        assert_eq!(found.iter().filter(|f| f.is_some()).count(), 30);
    }

    #[test]
    fn batched_paths_match_per_op() {
        let keys: Vec<U64Key> = (1..=500u64).map(U64Key::new).collect();
        let a: FcHashTable<U64Key> = FcHashTable::new_pow2(10);
        let b: FcHashTable<U64Key> = FcHashTable::new_pow2(10);
        a.insert_batch(&keys);
        for &k in &keys {
            b.insert(k);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        let dels: Vec<U64Key> = keys.iter().copied().step_by(3).collect();
        a.delete_batch(&dels);
        for &k in &dels {
            b.delete(k);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.find_batch(&keys), b.find_batch(&keys));
    }

    #[test]
    #[should_panic(expected = "full")]
    fn insert_into_full_table_panics() {
        let t: FcHashTable<U64Key> = FcHashTable::new_pow2(2);
        for k in 1..=5u64 {
            t.insert(U64Key::new(k));
        }
    }

    #[test]
    fn grows_cooperatively_as_flat_core() {
        use crate::resize::ResizableTable;
        let t: ResizableTable<U64Key, FcHashTable<U64Key>> = ResizableTable::new_pow2(4);
        for k in 1..=300u64 {
            t.insert(U64Key::new(k));
        }
        t.normalize();
        assert!(t.capacity() > 16);
        assert_eq!(t.len(), 300);
        for k in 1..=300u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)), "key {k}");
        }
    }
}
