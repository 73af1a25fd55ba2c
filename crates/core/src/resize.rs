//! Growable wrapper over the deterministic table (paper §4,
//! "Resizing").
//!
//! The paper outlines a lock-free scheme in which inserts detect an
//! overfull table, link a new table of twice the size, and
//! cooperatively migrate elements. [`ResizableTable`] implements that
//! scheme with **freeze-free incremental migration**: the backing
//! store is a chain of **epochs**, each owning one fixed-size
//! [`DetHashTable`]. An inserter that observes its epoch's load at the
//! 3/4 threshold publishes a doubled successor epoch with a single
//! CAS — and nothing drains into a handshake. Every operation that
//! subsequently notices the pending migration pays one bounded *block
//! quota*: it claims up to `HELP_QUOTA_BLOCKS` fixed-size blocks of
//! the retiring cell array from a shared atomic cursor, swaps each
//! claimed cell to a per-cell **forwarding marker**
//! ([`HashEntry::FORWARD`]), re-inserts the claimed entries into the
//! successor, and then proceeds against the live tail. Migration cost
//! is spread across all operating threads with a hard per-op bound —
//! there is no freeze wait, no exclusive lock, and no stop-the-world
//! rebuild (the original `RwLock` implementation lives on in the
//! `phc-bench` crate as the `resize` ablation baseline).
//!
//! ## Forwarding invariant
//!
//! A migration claim is an atomic `swap` of the forwarding marker into
//! every cell of the block, including empty ones; the swapped-out
//! occupants are re-inserted into the successor in cell order. Every
//! probe path in every core checks a loaded cell against the marker
//! *before* any key interpretation: finds treat it as "absent here,
//! look in the successor", and an insert that meets one hands its repr
//! back as an `Err` carry, which this wrapper re-routes into the live
//! tail. Conservation is per-cell: each core mutation is a single-cell
//! CAS against a concretely observed old value, so for any cell either
//! the writer's CAS lands before the claim swap (and the claim carries
//! the new value across) or it lands after, fails against the marker,
//! and the writer re-routes — each entry reaches the successor exactly
//! once, with the cores' combine-on-duplicate semantics absorbing the
//! one benign overlap (a key inserted directly into the tail while its
//! old copy still awaits migration).
//!
//! Two residual waits remain, both off the insert hot path: block
//! claiming first waits for registered *delete* writers to retire
//! (deletes move entries between cells, so a concurrent claim could
//! otherwise see an entry twice or not at all), and then asks the core
//! to drain multi-cell write protocols
//! ([`FlatTableCore::quiesce_writers`] — a no-op for the single-CAS
//! det/Robin Hood cores; the fc core waits out its open displacement
//! windows). Non-resizing inserts pay no handshake at all: one
//! `Acquire` epoch load, the probe itself, and a single fill-credit
//! RMW when a new cell is filled.
//!
//! ## Determinism
//!
//! Within a phase, the *moment* growth triggers depends on thread
//! timing, so the capacity **during** a phase is schedule-dependent.
//! Two facts restore determinism at phase end:
//!
//! * the element count is exact — every insert that fills an empty cell
//!   (see [`DetHashTable::insert_counted`]) credits its epoch, and
//!   migration re-inserts credit the successor, so at quiescence the
//!   tail epoch's credit count equals the number of stored entries; and
//! * the growth trigger `items * 4 >= capacity * 3` only fires when the
//!   *final* element count also exceeds the threshold (credits never
//!   exceed the final count during an insert phase), so mid-phase
//!   growth can never overshoot the canonical capacity.
//!
//! [`insert_phase`](ResizableTable::insert_phase) therefore normalizes
//! after the phase: it drains pending migration and keeps doubling
//! while `len * 4 >= capacity * 3`. The final capacity is the smallest
//! power of two (≥ the initial capacity) with load < 3/4 — a pure
//! function of the final key set — and for a fixed capacity the
//! deterministic table's layout is a pure function of its contents, so
//! `snapshot()` is equal across thread counts and schedules.
//!
//! ## Shrinking
//!
//! The same epoch chain runs **downward**: a delete that drops the load
//! below 1/8 publishes a *halved* successor (never below the seed
//! capacity, the floor), and the usual cooperative block migration
//! copies the survivors across. The 1/8 trigger against the 3/4 growth
//! threshold leaves a wide hysteresis band — a freshly shrunk table
//! sits at load < 1/4, so alternating inserts and deletes near a
//! boundary cannot oscillate. Determinism mirrors the growth argument
//! in reverse: during a delete phase the live count only falls, so the
//! racy count that triggers a mid-phase shrink is an upper bound on the
//! final count — every mid-phase shrink is one that normalization
//! (which re-checks with exact counts) would also perform, and the
//! halving sequence from a deterministic starting capacity is itself
//! deterministic. The quiescent capacity is therefore a pure function
//! of the phase history of key sets, independent of thread count, and
//! for a fixed capacity the layout is canonical — so grow → delete →
//! shrink → regrow cycles snapshot byte-identically across schedules.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::batch::ProbeCore;
use crate::cell::AtomOf;
use crate::det::DetHashTable;
use crate::entry::HashEntry;
use crate::phase::PhaseHashTable;

/// The fixed-capacity flat-table surface the growth machinery builds
/// on: everything an `Epoch` (cooperative migration) and the room
/// wrapper ([`crate::rooms::AutoPhaseGrowTable`]) need from a backing
/// table. The open-addressing cores — the deterministic
/// linear-probing table, the Robin Hood table
/// ([`crate::robinhood::RobinHoodHashTable`]) and the fully-concurrent
/// table ([`crate::fc::FcHashTable`]) — implement it, so every wrapper
/// in this crate is generic over the core (with
/// `DetHashTable` as the default type parameter everywhere, keeping
/// existing code source-compatible).
///
/// Reprs cross this boundary **untransformed** (`HashEntry::to_repr`
/// form): a core that stores an internal encoding (the Robin Hood
/// table mixes the key field) must decode on the way out — including
/// the `Err` carry of [`try_insert_repr`](Self::try_insert_repr) —
/// because migration re-inserts reprs into a *different* table
/// instance.
///
/// Every method but [`new_pow2`](Self::new_pow2) has a default written
/// once over the core's [`ProbeCore`] primitives (the same ones the
/// batch driver runs), so a core states only its names and what it does
/// differently. The insert/delete windows are `ProbeCore`'s
/// `open_*`/`close_*` hooks: cores that track live writer overlap (the
/// fc core) register once per window there instead of once per op.
pub trait FlatTableCore<E: HashEntry>: ProbeCore<Entry = E> + Sized + Send + Sync {
    /// `PhaseHashTable::NAME` for the growable wrapper over this core
    /// (e.g. `"linearHash-D-grow"`).
    const GROW_NAME: &'static str;
    /// Whether callers need room synchronization to keep operation
    /// types apart ([`crate::rooms::AutoPhaseGrowTable`] enters a room
    /// per call iff this holds). True for the phase-concurrent cores;
    /// the fully-concurrent fc core repairs overlap online instead.
    const NEEDS_ROOMS: bool = true;

    /// Creates a table with `2^log2_size` cells, all empty.
    fn new_pow2(log2_size: u32) -> Self;
    /// Number of cells.
    fn capacity(&self) -> usize {
        self.cells().len()
    }
    /// Inserts, returning the global net-new-element fill credit (see
    /// `DetHashTable::insert_counted`). Panics if the table is full.
    fn insert_counted(&self, e: E) -> bool {
        self.try_insert_repr(e.to_repr()).unwrap_or_else(|_| {
            panic!(
                "{}::insert: table is full (capacity {})",
                Self::TYPE_NAME,
                self.capacity()
            )
        })
    }
    /// Fallible insert of a repr: `Ok(filled)` as in
    /// [`insert_counted`](Self::insert_counted), or `Err(carried)`
    /// handing back the (untransformed) repr left homeless by a
    /// hard-full probe; displacements performed before the wrap stand.
    fn try_insert_repr(&self, v: u64) -> Result<bool, u64> {
        let tok = self.open_insert();
        let r = self.try_insert_repr_in(v, tok);
        self.close_insert(tok);
        r
    }
    /// [`try_insert_repr`](Self::try_insert_repr) inside an insert
    /// window opened with `ProbeCore::open_insert`.
    fn try_insert_repr_in(&self, v: u64, tok: u64) -> Result<bool, u64> {
        crate::batch::insert(self, v, tok).map(Self::filled)
    }
    /// Deletes, returning the global net-removed-element credit.
    fn delete_counted(&self, key: E) -> bool {
        let tok = self.open_delete();
        let r = self.delete_counted_in(key, tok);
        self.close_delete(tok);
        r
    }
    /// [`delete_counted`](Self::delete_counted) inside a delete window
    /// opened with `ProbeCore::open_delete`.
    fn delete_counted_in(&self, key: E, tok: u64) -> bool {
        ProbeCore::delete(self, key.to_repr(), tok)
    }
    /// Looks up the entry with `key`'s key part.
    fn find(&self, key: E) -> Option<E> {
        crate::batch::find(self, key.to_repr()).map(E::from_repr)
    }
    /// Batched lookup, one result per key in key order, through the
    /// prefetching tier-bound batch driver, so growable wrappers and
    /// the server's shards get the same lookup fast path as the
    /// fixed-capacity tables.
    fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        crate::batch::find_batch(self, keys)
    }
    /// Hints the memory system to pull `v`'s home-slot cache line in
    /// ahead of a probe (see [`crate::batch`]), so the growable batch
    /// loops get the same miss-overlapping pipeline as the
    /// fixed-capacity batch kernels. A pure performance hint.
    fn prefetch_repr(&self, v: u64) {
        crate::batch::prefetch_slot(self.cells(), self.home(v));
    }
    /// Packs the stored entries in cell order (deterministic).
    fn elements(&self) -> Vec<E> {
        crate::batch::elements(self)
    }
    /// [`elements`](Self::elements) into a caller-supplied buffer:
    /// appends the packed entries to `out` without allocating a fresh
    /// `Vec` per call, so steady-state callers (the server's shard
    /// loop) reuse one buffer's high-water capacity across batches.
    fn elements_into(&self, out: &mut Vec<E>) {
        crate::batch::elements_into(self, out)
    }
    /// Raw snapshot of the cell array (the core's canonical layout).
    fn snapshot(&self) -> Vec<u64> {
        crate::batch::snapshot(self.cells())
    }
    /// Raw view of the cell array (width follows the entry's `Repr`).
    fn raw_cells(&self) -> &[AtomOf<E::Repr>] {
        self.cells()
    }
    /// Applies `f` to every entry in the (quiescent) cell range, in
    /// cell order — the migration primitive.
    fn for_each_in_range(&self, range: std::ops::Range<usize>, f: impl FnMut(E)) {
        crate::batch::for_each_in_range(self, range, f)
    }
    /// Atomically claims every cell in the range for migration: swaps
    /// each cell (occupied *and* empty) to the core's stored form of
    /// the forwarding marker [`HashEntry::FORWARD`] and appends each
    /// prior occupant, decoded back to an untransformed repr, to `out`
    /// in cell order — the freeze-free migration primitive. After the
    /// claim, any probe landing in the range sees the marker and falls
    /// through to the successor; any in-flight single-cell CAS either
    /// landed before the swap (its value is in `out`) or fails against
    /// the marker (its owner re-routes the carry).
    fn claim_range_forward(&self, range: std::ops::Range<usize>, out: &mut Vec<u64>) {
        crate::batch::claim_range_forward(self, range, out)
    }
    /// Blocks until the core has no in-flight *multi-cell* write
    /// protocol that a concurrent
    /// [`claim_range_forward`](Self::claim_range_forward) could tear
    /// (e.g. the fc core's
    /// displacement-repair scan, which panics if a cell changes
    /// beneath it). Cores whose every mutation is a single-cell CAS
    /// need nothing — the per-cell conservation argument covers them —
    /// and keep this no-op default. New writers are excluded by the
    /// publish handshake (writers re-check the epoch's successor
    /// pointer after opening their window), so the wait is bounded by
    /// one in-flight window per thread.
    fn quiesce_writers(&self) {}
}

impl<E: HashEntry> FlatTableCore<E> for DetHashTable<E> {
    const GROW_NAME: &'static str = "linearHash-D-grow";

    fn new_pow2(log2_size: u32) -> Self {
        DetHashTable::new_pow2(log2_size)
    }
}

/// Grow when `items * DEN >= capacity * NUM` (keeps load < 3/4).
const MAX_LOAD_NUM: usize = 3;
const MAX_LOAD_DEN: usize = 4;

/// Shrink when `items * SHRINK_FACTOR < capacity` (load < 1/8) and the
/// capacity is above the seed floor. A halved table then sits at load
/// < 1/4 — comfortably inside the (1/8, 3/4) hysteresis band, so a
/// single insert or delete near either boundary cannot flip the
/// capacity back.
const SHRINK_FACTOR: usize = 8;

/// Brief spin, then yield. The waits in migration are short in the
/// common case, but when cores are oversubscribed the thread being
/// waited on needs the CPU to make progress — pure spinning can burn a
/// whole scheduler quantum per waiter.
fn spin_wait(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Cells per migration block. Small enough that a 16-cell seed table
/// still exercises the block path, large enough that cursor traffic is
/// negligible for big tables.
const MIGRATION_BLOCK: usize = 512;

/// Migration blocks one operation claims per help quota — the hard
/// bound on the stall a single insert can suffer during growth
/// (`HELP_QUOTA_BLOCKS * MIGRATION_BLOCK` cell swaps plus the
/// re-inserts for their occupants). Two blocks keep the helper count
/// comfortably ahead of the drain for any load ≥ the shrink floor
/// while staying three orders of magnitude below a full 196k-cell
/// drain.
const HELP_QUOTA_BLOCKS: usize = 2;

/// Entries per bulk-insert window. Windows bound how long a batched
/// writer can hold a core's insert window open (the fc core's
/// `quiesce_writers` waits for open windows, so an unbounded window
/// would re-create the freeze stall this module exists to kill) and
/// how stale the in-window threshold estimate can get.
const WINDOW_CHUNK: usize = 256;

/// One link in the growth chain: a fixed-capacity table plus the
/// coordination state for freezing and migrating it.
struct Epoch<E: HashEntry, T: FlatTableCore<E>> {
    table: T,
    /// Packed coordination word: registered **delete** writers in the
    /// high 32 bits (`ACTIVE_ONE` units), empty-cell fill credits in
    /// the low 32. Inserts no longer register at all — the forwarding
    /// invariant makes their single-cell CASes safe against concurrent
    /// claims — so the freeze-era two-RMW handshake is gone from the
    /// insert hot path; a filling insert posts one `AcqRel` credit
    /// RMW, a duplicate posts none. Deletes still register (they move
    /// entries between cells, which block claiming must not observe
    /// mid-flight). The credits are exact: once the epoch is quiescent
    /// the low half equals the number of stored entries (see module
    /// docs). Capacities are < 2^31 cells, so the halves cannot carry
    /// into each other.
    state: AtomicUsize,
    /// Successor epoch; non-null marks this epoch as *retiring*: new
    /// operations divert to the tail after paying a help quota.
    next: AtomicPtr<Epoch<E, T>>,
    /// Next migration block index to claim.
    cursor: AtomicUsize,
    /// Migration blocks fully drained.
    done: AtomicUsize,
    _entry: PhantomData<E>,
}

/// One registered delete writer in `Epoch::state`'s high half.
const ACTIVE_ONE: usize = 1 << 32;
/// Mask of the fill-credit (items) half of `Epoch::state`.
const ITEMS_MASK: usize = ACTIVE_ONE - 1;

impl<E: HashEntry, T: FlatTableCore<E>> Epoch<E, T> {
    fn new_pow2(log2_size: u32) -> Self {
        assert!(log2_size < 31, "epoch capacity must stay below 2^31 cells");
        Epoch {
            table: T::new_pow2(log2_size),
            state: AtomicUsize::new(0),
            next: AtomicPtr::new(ptr::null_mut()),
            cursor: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            _entry: PhantomData,
        }
    }

    fn blocks(&self) -> usize {
        self.table.capacity().div_ceil(MIGRATION_BLOCK)
    }

    fn items(&self) -> usize {
        self.state.load(Ordering::Acquire) & ITEMS_MASK
    }

    fn over_threshold(&self) -> bool {
        self.items() * MAX_LOAD_DEN >= self.table.capacity() * MAX_LOAD_NUM
    }

    fn items_over_threshold(items: usize, capacity: usize) -> bool {
        items * MAX_LOAD_DEN >= capacity * MAX_LOAD_NUM
    }

    fn items_under_shrink(items: usize, capacity: usize, floor: usize) -> bool {
        capacity > floor && items * SHRINK_FACTOR < capacity
    }
}

/// A deterministic phase-concurrent hash table that doubles its backing
/// array when the load factor reaches 3/4 — including in the middle of
/// an insert phase, with all inserting threads sharing the migration
/// work (see the [module docs](self)).
///
/// Generic over the fixed-capacity core `T` (default: the
/// deterministic linear-probing table); `ResizableTable<E,
/// RobinHoodHashTable<E>>` is the growable Robin Hood table. The
/// growth machinery only talks to the core through [`FlatTableCore`],
/// so every determinism argument in the module docs applies verbatim
/// to any core whose fixed-capacity layout is a pure function of its
/// contents.
pub struct ResizableTable<E: HashEntry, T: FlatTableCore<E> = DetHashTable<E>> {
    /// Oldest epoch that may still hold entries; advances as epochs
    /// drain. Its `next` chain ends at the live tail.
    current: AtomicPtr<Epoch<E, T>>,
    /// Every epoch ever published, freed in `Drop`. Chain memory is at
    /// most 2x the tail table (capacities are geometric).
    allocated: Mutex<Vec<*mut Epoch<E, T>>>,
    /// Seed capacity exponent: shrinking never goes below `2^min_log2`,
    /// which keeps the quiescent capacity a pure function of the phase
    /// history (and bounds worst-case churn for tiny key sets).
    min_log2: u32,
}

// SAFETY: epochs are only mutated through atomics and the interior
// core table (Sync per the `FlatTableCore` supertraits); raw epoch
// pointers are freed only in `Drop`, which requires exclusive access.
unsafe impl<E: HashEntry, T: FlatTableCore<E>> Send for ResizableTable<E, T> {}
unsafe impl<E: HashEntry, T: FlatTableCore<E>> Sync for ResizableTable<E, T> {}

impl<E: HashEntry, T: FlatTableCore<E>> ResizableTable<E, T> {
    /// Creates a table with `2^log2_size` initial cells.
    pub fn new_pow2(log2_size: u32) -> Self {
        let first = Box::into_raw(Box::new(Epoch::new_pow2(log2_size)));
        ResizableTable {
            current: AtomicPtr::new(first),
            allocated: Mutex::new(vec![first]),
            min_log2: log2_size,
        }
    }

    /// The shrink floor in cells (the seed capacity).
    #[inline]
    fn floor_capacity(&self) -> usize {
        1usize << self.min_log2
    }

    fn current_epoch(&self) -> &Epoch<E, T> {
        // SAFETY: `current` always points into `allocated`, whose
        // entries outlive `&self` (freed only in Drop).
        unsafe { &*self.current.load(Ordering::Acquire) }
    }

    fn next_of<'t>(&'t self, ep: &Epoch<E, T>) -> Option<&'t Epoch<E, T>> {
        let p = ep.next.load(Ordering::SeqCst);
        // SAFETY: as in `current_epoch`.
        (!p.is_null()).then(|| unsafe { &*p })
    }

    /// Current capacity (cells) — of the tail table once quiescent.
    pub fn capacity(&self) -> usize {
        self.quiesce();
        self.current_epoch().table.capacity()
    }

    /// Number of stored entries (exact at phase quiescence).
    pub fn len(&self) -> usize {
        self.quiesce();
        self.current_epoch().items()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs an insert phase and **normalizes** the capacity afterwards.
    ///
    /// Mid-phase, concurrent inserts may race past the load threshold
    /// before one of them grows the table, so the capacity *during* a
    /// phase can depend on timing. The phase wrapper drains any pending
    /// migration and re-checks the threshold once the phase is
    /// quiescent, making the final capacity — and hence the final
    /// layout — a pure function of the contents. Use this (rather than
    /// bare [`insert`](Self::insert)) whenever you rely on snapshot
    /// determinism.
    pub fn insert_phase<R>(&mut self, f: impl FnOnce(&Self) -> R) -> R {
        let r = f(self);
        self.normalize();
        r
    }

    /// Drains pending migration, grows until the load is below the 3/4
    /// threshold, and shrinks (down to the seed floor) while it is
    /// below 1/8. Called between phases (`&self` methods quiesce but do
    /// not normalize). Exposed crate-internally so room wrappers can
    /// normalize at batch boundaries without taking `&mut self`. On
    /// return the tail is quiescent and canonical, and the
    /// `bytes_per_key_milli` gauge reflects its footprint.
    pub(crate) fn normalize(&self) {
        loop {
            self.quiesce();
            let ep = self.current_epoch();
            if ep.over_threshold() {
                self.publish_successor(ep);
                self.help_migrate(ep);
                continue;
            }
            let (items, cap) = (ep.items(), ep.table.capacity());
            if Epoch::<E, T>::items_under_shrink(items, cap, self.floor_capacity()) {
                self.publish_shrunk(ep);
                self.help_migrate(ep);
                continue;
            }
            let bytes = cap * crate::cell::cell_bytes::<E::Repr>();
            if let Some(milli) = (bytes * 1000).checked_div(items) {
                phc_obs::probe!(gauge BytesPerKeyMilli, milli);
            }
            return;
        }
    }

    /// Helps until the epoch chain is a single live table.
    fn quiesce(&self) {
        loop {
            let ep = self.current_epoch();
            if ep.next.load(Ordering::SeqCst).is_null() {
                return;
            }
            self.help_migrate(ep);
        }
    }

    /// Inserts an entry, publishing a doubled successor when the load
    /// threshold is hit. Callable from any number of threads during an
    /// insert phase. When a migration is pending the insert pays one
    /// bounded block quota and proceeds against the live tail — it
    /// never waits for other threads' blocks, so the worst-case stall
    /// is `HELP_QUOTA_BLOCKS` blocks regardless of table size.
    pub fn insert(&self, e: E) {
        let v = e.to_repr();
        debug_assert_ne!(v, E::FORWARD, "the forwarding sentinel is not insertable");
        loop {
            let ep = self.current_epoch();
            if !ep.next.load(Ordering::SeqCst).is_null() {
                // Migration pending: help a little, then insert into
                // the live tail directly — probes there are safe by
                // the forwarding invariant.
                self.help_quota(ep);
                self.insert_batch_into_chain(ep, &[v]);
                return;
            }
            let tok = ep.table.open_insert();
            if !ep.next.load(Ordering::SeqCst).is_null() {
                // Published between the null-check and the window
                // open; re-route (the `SeqCst` window/successor pair
                // is what lets `quiesce_writers` exclude us).
                ep.table.close_insert(tok);
                continue;
            }
            match ep.table.try_insert_repr_in(v, tok) {
                Ok(filled) => {
                    ep.table.close_insert(tok);
                    if filled {
                        let prev = ep.state.fetch_add(1, Ordering::AcqRel);
                        let items = (prev & ITEMS_MASK) + 1;
                        if Epoch::<E, T>::items_over_threshold(items, ep.table.capacity())
                            && ep.next.load(Ordering::SeqCst).is_null()
                        {
                            // Publish only — helping is paid by the
                            // operations that follow, one quota each.
                            self.publish_successor(ep);
                        }
                    }
                    return;
                }
                Err(carried) => {
                    // The probe met a forwarding marker (migration
                    // started under us) or the table hard-filled below
                    // the canonical capacity (tiny seed tables under
                    // heavy concurrency). Either way the carry re-homes
                    // down the chain.
                    ep.table.close_insert(tok);
                    if ep.next.load(Ordering::SeqCst).is_null() {
                        self.publish_successor(ep);
                    }
                    self.help_quota(ep);
                    self.insert_batch_into_chain(ep, &[carried]);
                    return;
                }
            }
        }
    }

    /// Inserts a batch of entries through bounded insert windows of
    /// `WINDOW_CHUNK` entries. A window pays the fill credits with a
    /// single `AcqRel` RMW (instead of one per entry) and bounds how
    /// long a core-side insert window stays open, so a migrator's
    /// `quiesce_writers` never waits on a whole batch. When a
    /// migration is pending the batch pays one help quota per chunk
    /// and routes the chunk straight to the live tail.
    ///
    /// The threshold check inside a window uses an `Acquire` read plus
    /// local fills (exact for this thread, approximate across
    /// threads), which only shifts *when* growth triggers mid-phase,
    /// never the canonical capacity — callers that rely on snapshot
    /// determinism normalize at phase end exactly as with per-op
    /// [`insert`](Self::insert).
    pub fn insert_batch(&self, entries: &[E]) {
        let mut i = 0;
        // A repr displaced by a hard-full insert or bounced off a
        // forwarding marker; takes precedence over `entries[i]` until
        // it lands.
        let mut carry: Option<u64> = None;
        let mut chunk: Vec<u64> = Vec::new();
        let ahead = crate::batch::insert_prefetch_ahead();
        while i < entries.len() || carry.is_some() {
            let ep = self.current_epoch();
            if !ep.next.load(Ordering::SeqCst).is_null() {
                // Migration pending: help a little, then route a chunk
                // of the batch directly to the live tail.
                self.help_quota(ep);
                chunk.clear();
                chunk.extend(carry.take());
                while chunk.len() < WINDOW_CHUNK && i < entries.len() {
                    chunk.push(entries[i].to_repr());
                    i += 1;
                }
                self.insert_batch_into_chain(ep, &chunk);
                continue;
            }
            let reprs = |j: usize| entries[j].to_repr();
            self.fill_window(ep, entries.len(), reprs, ahead, &mut i, &mut carry);
        }
    }

    /// One bounded insert window into `ep`: inserts `repr(i)` for
    /// ascending `*i < len` (the pending `carry` first), at most
    /// `WINDOW_CHUNK` of them, prefetching `ahead` entries in advance.
    /// Stops early when the epoch reaches the growth threshold or an
    /// insert hands back a carry. Fill credits post with one `AcqRel`
    /// RMW per window — a per-entry credit RMW would dominate — and a
    /// successor is published when needed. Returns without inserting
    /// if `ep` gained a successor before the window opened.
    fn fill_window(
        &self,
        ep: &Epoch<E, T>,
        len: usize,
        repr: impl Fn(usize) -> u64,
        ahead: usize,
        i: &mut usize,
        carry: &mut Option<u64>,
    ) {
        let cap = ep.table.capacity();
        let start_items = ep.state.load(Ordering::Acquire) & ITEMS_MASK;
        let mut fills = 0usize;
        let mut publish = false;
        let tok = ep.table.open_insert();
        if !ep.next.load(Ordering::SeqCst).is_null() {
            // Published between the caller's check and the window
            // open (the `SeqCst` window/successor pair is what lets
            // `quiesce_writers` exclude us); the caller re-routes.
            ep.table.close_insert(tok);
            return;
        }
        for j in (*i..len).take(ahead) {
            ep.table.prefetch_repr(repr(j));
        }
        let window_end = (*i + WINDOW_CHUNK).min(len);
        while *i < window_end || carry.is_some() {
            if Epoch::<E, T>::items_over_threshold(start_items + fills, cap) {
                publish = true;
                break;
            }
            if ahead > 0 && *i + ahead < len {
                ep.table.prefetch_repr(repr(*i + ahead));
            }
            let v = carry.unwrap_or_else(|| repr(*i));
            match ep.table.try_insert_repr_in(v, tok) {
                Ok(filled) => {
                    fills += filled as usize;
                    if carry.take().is_none() {
                        *i += 1;
                    }
                }
                Err(displaced) => {
                    *carry = Some(displaced);
                    publish = true;
                    break;
                }
            }
        }
        ep.table.close_insert(tok);
        if fills > 0 {
            ep.state.fetch_add(fills, Ordering::AcqRel);
        }
        if publish && ep.next.load(Ordering::SeqCst).is_null() {
            self.publish_successor(ep);
        }
    }

    /// Parallel batched insert: chunks by [`phc_parutil::grain`] and
    /// drives [`insert_batch`](Self::insert_batch) per chunk.
    pub fn par_insert_batched(&self, entries: &[E]) {
        crate::batch::par_chunked(entries, |c| self.insert_batch(c))
    }

    /// Registers the caller as an epoch writer for a delete, draining
    /// any in-progress migration first. Returns the registered epoch;
    /// the caller must retire with `fetch_sub(ACTIVE_ONE + removed)`.
    ///
    /// Deletes are the one writer class that still registers: a
    /// backward-replacement delete moves entries *between* cells, so a
    /// concurrent block claim could otherwise capture an entry twice
    /// (before and after its move) or miss it entirely. Registration
    /// keeps deletes and block claiming mutually exclusive
    /// (`gate_writers` waits for the high half of `state` to drain);
    /// the forwarding-marker guards on the cores' delete paths are
    /// defensive, not load-bearing. Inserts need none of this — their
    /// per-cell CASes are conserved by the forwarding invariant.
    fn register_for_delete(&self) -> &Epoch<E, T> {
        loop {
            let ep = self.current_epoch();
            if !ep.next.load(Ordering::SeqCst).is_null() {
                self.help_migrate(ep);
                continue;
            }
            ep.state.fetch_add(ACTIVE_ONE, Ordering::SeqCst);
            if !ep.next.load(Ordering::SeqCst).is_null() {
                // Froze between the null-check and registration.
                ep.state.fetch_sub(ACTIVE_ONE, Ordering::SeqCst);
                continue;
            }
            return ep;
        }
    }

    /// Deletes by key. Callable from any number of threads during a
    /// delete phase — or, for cores like `FcHashTable`, concurrently
    /// with inserts. A delete that drops the load below 1/8 publishes a
    /// halved successor and helps migrate it, mirroring the insert
    /// side's cooperative growth (see the module docs on why mid-phase
    /// triggers preserve the canonical quiescent capacity).
    pub fn delete(&self, key: E) {
        let ep = self.register_for_delete();
        let removed = ep.table.delete_counted(key) as usize;
        // Retire and debit the removal in a single RMW; the returned
        // word carries the item count for the shrink check for free.
        let prev = ep.state.fetch_sub(ACTIVE_ONE + removed, Ordering::SeqCst);
        self.maybe_shrink(ep, (prev & ITEMS_MASK) - removed);
    }

    /// Publishes and helps migrate a halved successor when `items`
    /// leaves `ep` under the shrink threshold. Called after the caller
    /// has retired from the epoch (publishing freezes it).
    fn maybe_shrink(&self, ep: &Epoch<E, T>, items: usize) {
        if Epoch::<E, T>::items_under_shrink(items, ep.table.capacity(), self.floor_capacity())
            && ep.next.load(Ordering::SeqCst).is_null()
        {
            self.publish_shrunk(ep);
            self.help_migrate(ep);
        }
    }

    /// Deletes a batch of keys, crediting the removals with a single
    /// RMW per `WINDOW_CHUNK` keys instead of one per key. The
    /// chunking bounds how long one batch keeps the epoch's delete
    /// registration held — a registered delete blocks block claiming
    /// (`gate_writers`), so an unbounded batch would stall every
    /// migration helper for the whole batch; re-registering per chunk
    /// also lets the shrink check (and a racing grow publish) land
    /// between chunks.
    pub fn delete_batch(&self, keys: &[E]) {
        for chunk in keys.chunks(WINDOW_CHUNK) {
            let ep = self.register_for_delete();
            let mut removed = 0usize;
            let tok = ep.table.open_delete();
            crate::batch::pipeline(&ep.table, chunk, crate::batch::PREFETCH_AHEAD, |v| {
                removed += ProbeCore::delete(&ep.table, v, tok) as usize;
                true
            });
            ep.table.close_delete(tok);
            let prev = ep.state.fetch_sub(ACTIVE_ONE + removed, Ordering::SeqCst);
            self.maybe_shrink(ep, (prev & ITEMS_MASK) - removed);
        }
    }

    /// Parallel batched delete: chunks by [`phc_parutil::grain`].
    pub fn par_delete_batched(&self, keys: &[E]) {
        if keys.len() > phc_parutil::grain() {
            self.quiesce();
        }
        crate::batch::par_chunked(keys, |c| self.delete_batch(c))
    }

    /// Looks up a key (find/elements phase).
    pub fn find(&self, key: E) -> Option<E> {
        self.quiesce();
        self.current_epoch().table.find(key)
    }

    /// Batched lookup through the core's prefetching batch kernel
    /// (one result per key, in key order).
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        self.quiesce();
        self.current_epoch().table.find_batch(keys)
    }

    /// Parallel batched lookup: chunks by [`phc_parutil::grain`];
    /// results stay in key order (`flat_map_iter` over ordered
    /// chunks).
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        if keys.len() > phc_parutil::grain() {
            self.quiesce();
        }
        crate::batch::par_chunked_map(keys, |c| self.find_batch(c))
    }

    /// Packs the contents (deterministic sequence).
    pub fn elements(&self) -> Vec<E> {
        self.quiesce();
        self.current_epoch().table.elements()
    }

    /// [`elements`](Self::elements) into a caller-supplied buffer
    /// (appends; does not clear). Steady-state callers reuse one
    /// buffer's high-water capacity instead of allocating a fresh
    /// `Vec` per pack.
    pub fn elements_into(&self, out: &mut Vec<E>) {
        self.quiesce();
        self.current_epoch().table.elements_into(out)
    }

    /// Raw snapshot of the current backing array.
    pub fn snapshot(&self) -> Vec<u64> {
        self.quiesce();
        self.current_epoch().table.snapshot()
    }

    /// Raw view of the live cell array (for invariant checkers).
    pub fn with_raw_cells<R>(&self, f: impl FnOnce(&[AtomOf<E::Repr>]) -> R) -> R {
        self.quiesce();
        f(self.current_epoch().table.raw_cells())
    }

    /// Publishes a doubled successor for `ep` (freezing it) unless one
    /// already exists.
    #[cold]
    fn publish_successor(&self, ep: &Epoch<E, T>) {
        self.publish_successor_log2(ep, ep.table.capacity().trailing_zeros() + 1);
    }

    /// Publishes a *halved* successor for `ep` — the downward epoch of
    /// the cooperative shrinker. Same freeze-and-migrate machinery as
    /// growth; only the target capacity differs.
    #[cold]
    fn publish_shrunk(&self, ep: &Epoch<E, T>) {
        debug_assert!(ep.table.capacity() > self.floor_capacity());
        self.publish_successor_log2(ep, ep.table.capacity().trailing_zeros() - 1);
    }

    /// Publishes a successor of `2^log2` cells for `ep` (freezing it)
    /// unless one already exists.
    fn publish_successor_log2(&self, ep: &Epoch<E, T>, log2: u32) {
        // Serialize publishers on the registry lock: racing threads
        // would otherwise each allocate (and fault in) a table-sized
        // epoch only to lose the CAS and free it.
        let mut registry = self.allocated.lock().expect("epoch registry poisoned");
        if !ep.next.load(Ordering::SeqCst).is_null() {
            return;
        }
        let fresh = Box::into_raw(Box::new(Epoch::new_pow2(log2)));
        match ep
            .next
            .compare_exchange(ptr::null_mut(), fresh, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => {
                phc_obs::probe!(count EpochsPublished);
                if (1usize << log2) < ep.table.capacity() {
                    phc_obs::probe!(count ShrinkEpochs);
                }
                phc_obs::probe!(phase EpochPublish);
                registry.push(fresh);
            }
            // Unreachable while publishers hold the lock, but keep the
            // lost-race path sound regardless.
            Err(_) => drop(unsafe { Box::from_raw(fresh) }),
        }
    }

    /// Waits until `ep` admits block claiming: registered delete
    /// writers must retire (they move entries between cells) and the
    /// core must drain any multi-cell write protocol
    /// ([`FlatTableCore::quiesce_writers`]). Inserts on single-CAS
    /// cores are *not* waited on — the forwarding invariant covers
    /// them — so on the det/Robin Hood cores this returns immediately
    /// whenever no delete is in flight.
    fn gate_writers(&self, ep: &Epoch<E, T>) {
        let mut spins = 0u32;
        while ep.state.load(Ordering::SeqCst) >= ACTIVE_ONE {
            spin_wait(&mut spins);
        }
        ep.table.quiesce_writers();
        // Timeline marker: the migrator passed the delete-writer gate
        // and may now claim blocks.
        phc_obs::probe!(phase DeleteWriterGate);
    }

    /// Claims up to `max_blocks` migration blocks of the retiring
    /// epoch `ep` and re-inserts their occupants down the chain
    /// starting at `next`. Each claim swaps the block's cells to the
    /// forwarding marker (`claim_range_forward`), so the drain is
    /// exact even though unclaimed regions are still live. Never waits
    /// for blocks claimed by other threads; the thread that drains the
    /// last block advances `current`.
    fn claim_blocks(&self, ep: &Epoch<E, T>, next: &Epoch<E, T>, max_blocks: usize) {
        let nblocks = ep.blocks();
        let shrinking = next.table.capacity() < ep.table.capacity();
        let mut batch: Vec<u64> = Vec::with_capacity(MIGRATION_BLOCK);
        let mut claimed = 0usize;
        while claimed < max_blocks {
            let b = ep.cursor.fetch_add(1, Ordering::Relaxed);
            if b >= nblocks {
                break;
            }
            claimed += 1;
            phc_obs::probe!(count MigrationBlocksClaimed);
            batch.clear();
            let lo = b * MIGRATION_BLOCK;
            let hi = (lo + MIGRATION_BLOCK).min(ep.table.capacity());
            ep.table.claim_range_forward(lo..hi, &mut batch);
            if shrinking {
                phc_obs::probe!(count ShrinkMigrations, batch.len());
            }
            self.insert_batch_into_chain(next, &batch);
            if ep.done.fetch_add(1, Ordering::Release) + 1 == nblocks {
                self.advance_current();
            }
        }
    }

    /// One operation's bounded contribution to a pending migration:
    /// pass the writer gate, claim at most `HELP_QUOTA_BLOCKS` blocks,
    /// and return — **without** waiting for other threads' blocks.
    /// This is the only migration work an insert ever performs, so the
    /// worst-case per-op stall during growth is one quota, not a
    /// table-sized drain.
    fn help_quota(&self, ep: &Epoch<E, T>) {
        let Some(next) = self.next_of(ep) else { return };
        self.help(ep, next, HELP_QUOTA_BLOCKS, || {});
    }

    /// Fully drains the retiring epoch `ep` into its successor: passes
    /// the writer gate, claims every remaining block, waits for other
    /// helpers' in-flight blocks, and advances `current`. Used by the
    /// quiescence paths (phase boundaries, reads, deletes) — the
    /// insert hot path only ever pays [`help_quota`](Self::help_quota).
    fn help_migrate(&self, ep: &Epoch<E, T>) {
        let next = self.next_of(ep).expect("help_migrate on unfrozen epoch");
        self.help(ep, next, usize::MAX, || {
            // Other helpers may still be draining their blocks; the
            // epoch may not be retired until every entry has moved.
            let nblocks = ep.blocks();
            let mut spins = 0u32;
            while ep.done.load(Ordering::Acquire) < nblocks {
                spin_wait(&mut spins);
            }
            self.advance_current();
        });
    }

    /// One help visit to the retiring epoch `ep`: pass the writer gate,
    /// claim up to `max_blocks` blocks into `next`, run `finish`, and
    /// record the stall in `MigrationStallNanos`.
    fn help(&self, ep: &Epoch<E, T>, next: &Epoch<E, T>, max_blocks: usize, finish: impl FnOnce()) {
        phc_obs::probe!(count MigrationHelps);
        let t0 = if phc_obs::Recorder::ENABLED {
            phc_obs::now_ns()
        } else {
            0
        };
        self.gate_writers(ep);
        self.claim_blocks(ep, next, max_blocks);
        finish();
        if phc_obs::Recorder::ENABLED {
            phc_obs::probe!(hist MigrationStallNanos, (phc_obs::now_ns() - t0) as usize);
        }
    }

    /// Re-inserts a slice of reprs into the live tail of the chain
    /// starting at `start`, publishing successors on threshold/full as
    /// usual but **without** helping or claiming — migration
    /// re-inserts must not recurse into block draining (unbounded
    /// chains would overflow the stack; claims are owned by
    /// `claim_blocks` callers). Windows are bounded to `WINDOW_CHUNK`
    /// entries: an unbounded window would hold the core's insert
    /// window open (and the threshold estimate stale) for a whole
    /// block.
    ///
    /// Credits always land in the epoch the entries went into: if that
    /// epoch is itself retired later, its credits are discarded with
    /// it and the migration re-credits the entries at their next home,
    /// so the tail's count stays exact (see module docs).
    fn insert_batch_into_chain(&self, start: &Epoch<E, T>, batch: &[u64]) {
        let mut i = 0;
        // A repr displaced by a hard-full insert or bounced off a
        // forwarding marker; takes precedence over `batch[i]` until it
        // lands.
        let mut carry: Option<u64> = None;
        while i < batch.len() || carry.is_some() {
            let mut ep = start;
            while let Some(n) = self.next_of(ep) {
                ep = n;
            }
            self.fill_window(ep, batch.len(), |j| batch[j], 0, &mut i, &mut carry);
        }
    }

    /// Advances `current` past fully drained epochs.
    fn advance_current(&self) {
        loop {
            let cur = self.current.load(Ordering::Acquire);
            // SAFETY: as in `current_epoch`.
            let ep = unsafe { &*cur };
            let next = ep.next.load(Ordering::SeqCst);
            if next.is_null() || ep.done.load(Ordering::Acquire) < ep.blocks() {
                return;
            }
            // On CAS failure another thread advanced for us; re-check
            // from the new head (a later epoch may also be drained).
            if self
                .current
                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                phc_obs::probe!(phase MigrationFinish);
            }
        }
    }
}

impl<E: HashEntry, T: FlatTableCore<E>> Drop for ResizableTable<E, T> {
    fn drop(&mut self) {
        let epochs = std::mem::take(&mut *self.allocated.lock().expect("epoch registry poisoned"));
        for p in epochs {
            // SAFETY: each pointer was Box::into_raw'd exactly once and
            // appears in the registry exactly once.
            drop(unsafe { Box::from_raw(p) });
        }
    }
}

impl<E: HashEntry, T: FlatTableCore<E>> PhaseHashTable<E> for ResizableTable<E, T> {
    const NAME: &'static str = T::GROW_NAME;

    fn new_pow2(log2_size: u32) -> Self {
        ResizableTable::new_pow2(log2_size)
    }
    fn capacity(&self) -> usize {
        self.current_epoch().table.capacity()
    }
    fn insert(&self, e: E) {
        ResizableTable::insert(self, e)
    }
    fn delete(&self, key: E) {
        ResizableTable::delete(self, key)
    }
    fn find(&self, key: E) -> Option<E> {
        ResizableTable::find(self, key)
    }
    fn pack(&self) -> Vec<E> {
        ResizableTable::elements(self)
    }
    fn insert_batch(&self, entries: &[E]) {
        ResizableTable::insert_batch(self, entries)
    }
    fn delete_batch(&self, keys: &[E]) {
        ResizableTable::delete_batch(self, keys)
    }
    fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        ResizableTable::find_batch(self, keys)
    }
    fn par_delete_batched(&self, keys: &[E]) {
        ResizableTable::par_delete_batched(self, keys)
    }
    fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        ResizableTable::par_find_batched(self, keys)
    }
    // Every phase transition normalizes: leaving an insert phase
    // through `begin_*`/`elements` lands on the canonical capacity, so
    // generic phase-discipline code sees deterministic snapshots.
    fn enter_phase(&mut self) {
        self.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::U64Key;
    use crate::invariant::{check_no_duplicate_keys, check_ordering_invariant};

    #[test]
    fn grows_past_initial_capacity() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(4); // 16 cells
        for k in 1..=1000u64 {
            t.insert(U64Key::new(k));
        }
        assert!(t.capacity() >= 1024, "capacity {}", t.capacity());
        assert_eq!(t.len(), 1000);
        for k in 1..=1000u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
    }

    #[test]
    fn growth_preserves_history_independence() {
        let build = |order: &[u64]| {
            let t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
            for &k in order {
                t.insert(U64Key::new(k));
            }
            t
        };
        let keys: Vec<u64> = (1..=500).collect();
        let mut rev = keys.clone();
        rev.reverse();
        let a = build(&keys);
        let b = build(&rev);
        assert_eq!(a.capacity(), b.capacity());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn delete_updates_count() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(10);
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        for k in 1..=40u64 {
            t.delete(U64Key::new(k));
        }
        // Deleting absent keys must not corrupt the count.
        t.delete(U64Key::new(9999));
        assert_eq!(t.len(), 60);
        for k in 1..=100u64 {
            assert_eq!(t.find(U64Key::new(k)).is_some(), k > 40);
        }
    }

    #[test]
    fn duplicate_inserts_do_not_inflate_count() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(6);
        for _ in 0..100 {
            t.insert(U64Key::new(7));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.capacity(), 64);
    }

    #[test]
    fn parallel_growth_count_is_exact() {
        use rayon::prelude::*;
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
        (1..=5000u64)
            .into_par_iter()
            .for_each(|k| t.insert(U64Key::new(k)));
        assert_eq!(t.len(), 5000);
        // Final capacity is the unique power of two keeping load ≤ 3/4.
        assert!(t.capacity() * MAX_LOAD_NUM >= 5000 * MAX_LOAD_DEN - t.capacity());
        for k in (1..=5000u64).step_by(97) {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
    }

    #[test]
    fn parallel_growth_is_deterministic() {
        use rayon::prelude::*;
        let build = || {
            let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
            t.insert_phase(|t| {
                (1..=3000u64)
                    .into_par_iter()
                    .for_each(|k| t.insert(U64Key::new(k)));
            });
            t
        };
        let a = build();
        let b = build();
        assert_eq!(a.capacity(), b.capacity());
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn migration_preserves_table_invariants() {
        use rayon::prelude::*;
        let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
        t.insert_phase(|t| {
            (1..=4000u64)
                .into_par_iter()
                .for_each(|k| t.insert(U64Key::new(k)));
        });
        // The migrated layout still satisfies the ordering invariant
        // (Definition 2) and holds each key exactly once.
        let snap = t.snapshot();
        check_ordering_invariant::<U64Key>(&snap).unwrap();
        check_no_duplicate_keys::<U64Key>(&snap).unwrap();
        // And the capacity is canonical for the key count: growth
        // fired exactly when required, with no overshoot.
        crate::invariant::check_canonical_capacity::<U64Key>(&snap, 16).unwrap();
    }

    #[test]
    fn cooperative_matches_stop_the_world() {
        // Same key set, same seed capacity: after normalization the
        // cooperative resizer must land on the array a stop-the-world
        // rebuild produces — by history independence, exactly the
        // deterministic table built directly at the canonical final
        // capacity (the smallest power of two with load < 3/4).
        let keys: Vec<u64> = (1..=2000).map(|i| phc_parutil::hash64(i) | 1).collect();
        let mut coop: ResizableTable<U64Key> = ResizableTable::new_pow2(4);
        coop.insert_phase(|t| {
            for &k in &keys {
                t.insert(U64Key::new(k));
            }
        });
        let mut log2 = 4;
        while keys.len() * MAX_LOAD_DEN >= (MAX_LOAD_NUM << log2) {
            log2 += 1;
        }
        let stw: DetHashTable<U64Key> = DetHashTable::new_pow2(log2);
        for &k in &keys {
            stw.insert(U64Key::new(k));
        }
        assert_eq!(coop.capacity(), stw.capacity());
        assert_eq!(coop.snapshot(), stw.snapshot());
    }

    #[test]
    fn claim_range_forward_drains_every_entry() {
        fn run<T: FlatTableCore<U64Key>>() {
            let t = T::new_pow2(6);
            for k in 1..=40u64 {
                assert!(t.insert_counted(U64Key::new(k)));
            }
            let expect: Vec<u64> = t.elements().iter().map(|e| e.to_repr()).collect();
            let mut got = Vec::new();
            let cap = t.capacity();
            let mut lo = 0;
            while lo < cap {
                t.claim_range_forward(lo..lo + 16, &mut got);
                lo += 16;
            }
            // Claims walk in cell order, so the drained reprs must
            // equal the packed elements exactly — nothing lost,
            // nothing duplicated, nothing reordered.
            assert_eq!(got, expect);
            // A fully forwarded table bounces inserts with a carry and
            // reports every probe as absent (the chain falls through).
            let v = U64Key::new(777).to_repr();
            assert_eq!(t.try_insert_repr(v), Err(v));
            assert_eq!(t.find(U64Key::new(7)), None);
        }
        run::<DetHashTable<U64Key>>();
        run::<crate::robinhood::RobinHoodHashTable<U64Key>>();
    }

    #[test]
    fn insert_during_pending_migration_diverts_without_loss() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(11); // 4 blocks
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        // Force a pending migration by hand; nobody has helped yet.
        t.publish_successor(t.current_epoch());
        // Each of these pays one bounded quota and lands in the tail
        // while part of the old cell array is still unmigrated.
        for k in 101..=120u64 {
            t.insert(U64Key::new(k));
        }
        assert_eq!(t.len(), 120);
        for k in 1..=120u64 {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
    }

    #[test]
    fn delete_after_forced_publish_sees_every_key() {
        let t: ResizableTable<U64Key> = ResizableTable::new_pow2(11);
        for k in 1..=100u64 {
            t.insert(U64Key::new(k));
        }
        t.publish_successor(t.current_epoch());
        // Deletes drain the pending migration before registering, so
        // they must observe keys still sitting in the unmigrated
        // region (and the shrink that follows must not lose any).
        for k in 1..=50u64 {
            t.delete(U64Key::new(k));
        }
        assert_eq!(t.len(), 50);
        for k in 1..=100u64 {
            assert_eq!(t.find(U64Key::new(k)).is_some(), k > 50);
        }
    }

    #[test]
    fn phase_api_normalizes_between_phases() {
        use crate::phase::*;
        let mut t: ResizableTable<U64Key> = PhaseHashTable::new_pow2(4);
        {
            let ins = t.begin_insert();
            for k in 1..=300u64 {
                ins.insert(U64Key::new(k));
            }
        }
        {
            let del = t.begin_delete();
            for k in 1..=100u64 {
                del.delete(U64Key::new(k));
            }
        }
        let reader = t.begin_read();
        assert_eq!(reader.find(U64Key::new(50)), None);
        assert_eq!(reader.find(U64Key::new(200)), Some(U64Key::new(200)));
        assert_eq!(reader.elements().len(), 200);
    }
}
