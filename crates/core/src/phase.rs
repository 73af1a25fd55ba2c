//! Phase-concurrency expressed in the type system.
//!
//! Definition 1 of the paper allows a *subset* of operations to proceed
//! concurrently; the hash tables here support the subsets
//! `{insert}`, `{delete}`, `{find, elements}`. The C++ original leaves
//! phase separation to programmer discipline; in Rust we can make
//! mixing phases a **compile error**: entering a phase borrows the
//! table mutably (`&mut self`), and the returned handle is the only way
//! to operate on the table while the phase is open. Handles are `Sync`,
//! so any number of threads may share `&Inserter` within the phase —
//! but no `Deleter` or `Reader` can coexist with it.
//!
//! The three handles ([`Inserter`], [`Deleter`], [`Reader`]) are written
//! once for every table: each holds the borrowed table and a
//! [`PhaseSpan`], and forwards to the table's [`PhaseHashTable`]
//! methods — per-op calls as well as the batched forms.
//!
//! ```
//! use phc_core::{DetHashTable, U64Key, PhaseHashTable, ConcurrentInsert, ConcurrentRead};
//! let mut table: DetHashTable<U64Key> = DetHashTable::new_pow2(10);
//! {
//!     let ins = table.begin_insert();
//!     // `&ins` can be shared across rayon tasks here.
//!     ins.insert(U64Key::new(7));
//!     ins.insert_batch(&[U64Key::new(8), U64Key::new(9)]);
//! } // insert phase ends when the handle drops
//! let reader = table.begin_read();
//! assert!(reader.find(U64Key::new(7)).is_some());
//! assert_eq!(reader.elements().len(), 3);
//! ```

use crate::entry::HashEntry;

/// The three operation subsets a phase can run (paper Definition 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PhaseKind {
    /// Concurrent inserts.
    Insert,
    /// Concurrent deletes.
    Delete,
    /// Concurrent finds and `elements`.
    Read,
}

/// RAII marker for one open phase: emits a begin record on the
/// observability timeline when constructed and the matching end record
/// when dropped. Phase handles embed one of these, so with the `obs`
/// cargo feature every `begin_*`/drop pair shows up as a timeline
/// cycle; without the feature both emissions are inline no-ops.
pub struct PhaseSpan(PhaseKind);

impl PhaseSpan {
    /// Opens a span (emits the phase's begin event).
    pub fn begin(kind: PhaseKind) -> Self {
        match kind {
            PhaseKind::Insert => phc_obs::probe!(phase InsertBegin),
            PhaseKind::Delete => phc_obs::probe!(phase DeleteBegin),
            PhaseKind::Read => phc_obs::probe!(phase ReadBegin),
        }
        PhaseSpan(kind)
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        match self.0 {
            PhaseKind::Insert => phc_obs::probe!(phase InsertEnd),
            PhaseKind::Delete => phc_obs::probe!(phase DeleteEnd),
            PhaseKind::Read => phc_obs::probe!(phase ReadEnd),
        }
    }
}

/// Concurrent insertion handle for one phase.
pub trait ConcurrentInsert<E: HashEntry>: Sync {
    /// Inserts `e`; concurrent calls from any number of threads are
    /// allowed within the phase and commute (for deterministic tables).
    fn insert(&self, e: E);
}

/// Concurrent deletion handle for one phase.
pub trait ConcurrentDelete<E: HashEntry>: Sync {
    /// Deletes the entry whose key equals `key`'s key part (the value
    /// part of `key` is ignored). Deleting an absent key is a no-op.
    fn delete(&self, key: E);
}

/// Concurrent read handle (find + elements phase).
pub trait ConcurrentRead<E: HashEntry>: Sync {
    /// Looks up the entry with `key`'s key part.
    fn find(&self, key: E) -> Option<E>;
}

/// The insert-phase handle of every table: a shared borrow of the
/// table plus the [`PhaseSpan`] that brackets the phase on the
/// observability timeline. Returned by
/// [`PhaseHashTable::begin_insert`].
pub struct Inserter<'t, T>(&'t T, #[allow(dead_code)] PhaseSpan);
/// The delete-phase handle (see [`Inserter`]).
pub struct Deleter<'t, T>(&'t T, #[allow(dead_code)] PhaseSpan);
/// The read-phase handle (see [`Inserter`]).
pub struct Reader<'t, T>(&'t T, #[allow(dead_code)] PhaseSpan);

impl<E: HashEntry, T: PhaseHashTable<E>> ConcurrentInsert<E> for Inserter<'_, T> {
    #[inline]
    fn insert(&self, e: E) {
        self.0.insert(e)
    }
}

impl<T> Inserter<'_, T> {
    /// Batched insert (see [`PhaseHashTable::insert_batch`]).
    pub fn insert_batch<E: HashEntry>(&self, entries: &[E])
    where
        T: PhaseHashTable<E>,
    {
        self.0.insert_batch(entries)
    }
    /// Parallel batched insert (see
    /// [`PhaseHashTable::par_insert_batched`]).
    pub fn par_insert_batched<E: HashEntry>(&self, entries: &[E])
    where
        T: PhaseHashTable<E>,
    {
        self.0.par_insert_batched(entries)
    }
}

impl<E: HashEntry, T: PhaseHashTable<E>> ConcurrentDelete<E> for Deleter<'_, T> {
    #[inline]
    fn delete(&self, key: E) {
        self.0.delete(key)
    }
}

impl<T> Deleter<'_, T> {
    /// Batched delete (see [`PhaseHashTable::delete_batch`]).
    pub fn delete_batch<E: HashEntry>(&self, keys: &[E])
    where
        T: PhaseHashTable<E>,
    {
        self.0.delete_batch(keys)
    }
    /// Parallel batched delete (see
    /// [`PhaseHashTable::par_delete_batched`]).
    pub fn par_delete_batched<E: HashEntry>(&self, keys: &[E])
    where
        T: PhaseHashTable<E>,
    {
        self.0.par_delete_batched(keys)
    }
}

impl<E: HashEntry, T: PhaseHashTable<E>> ConcurrentRead<E> for Reader<'_, T> {
    #[inline]
    fn find(&self, key: E) -> Option<E> {
        self.0.find(key)
    }
}

impl<T> Reader<'_, T> {
    /// Packs the table contents (allowed in the read phase; see
    /// [`PhaseHashTable::pack`]).
    pub fn elements<E: HashEntry>(&self) -> Vec<E>
    where
        T: PhaseHashTable<E>,
    {
        self.0.pack()
    }
    /// Batched lookup, results in key order (see
    /// [`PhaseHashTable::find_batch`]).
    pub fn find_batch<E: HashEntry>(&self, keys: &[E]) -> Vec<Option<E>>
    where
        T: PhaseHashTable<E>,
    {
        self.0.find_batch(keys)
    }
    /// Parallel batched lookup, results in key order (see
    /// [`PhaseHashTable::par_find_batched`]).
    pub fn par_find_batched<E: HashEntry>(&self, keys: &[E]) -> Vec<Option<E>>
    where
        T: PhaseHashTable<E>,
    {
        self.0.par_find_batched(keys)
    }
}

/// A phase-concurrent hash table: one operation type at a time, any
/// number of threads within a phase.
///
/// A table supplies its per-operation methods; the phase handles
/// ([`Inserter`], [`Deleter`], [`Reader`]) forward to them and are the
/// phase-checked way to call them — generic code that goes through
/// `begin_*` cannot mix operation types. The batch methods default to
/// the per-op loop; tables with a prefetching batch path override them.
///
/// `elements()` (paper §4) packs the table contents into a vector; for
/// the deterministic table the result is independent of the order in
/// which the preceding operations ran.
pub trait PhaseHashTable<E: HashEntry>: Send + Sync + Sized {
    /// Short name used by the benchmark harnesses (matches the paper's
    /// labels, e.g. `"linearHash-D"`).
    const NAME: &'static str;

    /// Creates a table with `2^log2_size` cells.
    fn new_pow2(log2_size: u32) -> Self;

    /// Number of cells.
    fn capacity(&self) -> usize;

    /// Inserts `e` (insert phase).
    fn insert(&self, e: E);

    /// Deletes the entry with `key`'s key part (delete phase).
    fn delete(&self, key: E);

    /// Looks up the entry with `key`'s key part (read phase).
    fn find(&self, key: E) -> Option<E>;

    /// Packs the current contents in cell order (read phase).
    fn pack(&self) -> Vec<E>;

    /// Inserts a batch; semantically the per-op loop in slice order.
    fn insert_batch(&self, entries: &[E]) {
        for &e in entries {
            self.insert(e);
        }
    }

    /// Inserts a slice in parallel, [`insert_batch`](Self::insert_batch)
    /// per grain-sized chunk.
    fn par_insert_batched(&self, entries: &[E]) {
        crate::batch::par_chunked(entries, |c| self.insert_batch(c))
    }

    /// Deletes a batch; semantically the per-op loop in slice order.
    fn delete_batch(&self, keys: &[E]) {
        for &k in keys {
            self.delete(k);
        }
    }

    /// Deletes a slice in parallel, [`delete_batch`](Self::delete_batch)
    /// per grain-sized chunk.
    fn par_delete_batched(&self, keys: &[E]) {
        crate::batch::par_chunked(keys, |c| self.delete_batch(c))
    }

    /// Looks up a batch, results in key order (`out[i]` answers
    /// `keys[i]`).
    fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        keys.iter().map(|&k| self.find(k)).collect()
    }

    /// Parallel batched lookup, results in key order.
    fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        crate::batch::par_chunked_map(keys, |c| self.find_batch(c))
    }

    /// Runs at every phase transition (`begin_*` and
    /// [`elements`](Self::elements)); a no-op by default. The growable
    /// table normalizes to its canonical capacity here.
    fn enter_phase(&mut self) {}

    /// Begins an insert phase.
    fn begin_insert(&mut self) -> Inserter<'_, Self> {
        self.enter_phase();
        Inserter(self, PhaseSpan::begin(PhaseKind::Insert))
    }

    /// Begins a delete phase.
    fn begin_delete(&mut self) -> Deleter<'_, Self> {
        self.enter_phase();
        Deleter(self, PhaseSpan::begin(PhaseKind::Delete))
    }

    /// Begins a read (find/elements) phase.
    fn begin_read(&mut self) -> Reader<'_, Self> {
        self.enter_phase();
        Reader(self, PhaseSpan::begin(PhaseKind::Read))
    }

    /// Packs the current contents into a vector (parallel; order is the
    /// table's cell order). Deterministic for history-independent
    /// tables.
    fn elements(&mut self) -> Vec<E> {
        self.enter_phase();
        self.pack()
    }

    /// Number of occupied cells (linear scan; intended for tests and
    /// load accounting, not hot paths).
    fn count(&mut self) -> usize {
        self.elements().len()
    }
}
