//! `robinHood`: a phase-concurrent, SIMD-native Robin Hood hash table.
//!
//! Robin Hood hashing orders each probe cluster by home bucket: an
//! inserting key steals the slot of any entry closer to its own home
//! ("richer") and carries the displaced entry onward. The classic
//! formulation compares *displacements*; this table reaches the same
//! layout through a priority trick that makes the displacement rule
//! coincide with the deterministic table's ordering invariant — and
//! therefore with the one-compare-per-lane [`scan_le`] stop condition:
//!
//! * Every stored repr has its key field passed through a **bijective,
//!   zero-fixing mixer** (an invertible xorshift-multiply chain on the
//!   key field's width). The mixed field is what the cells hold; value
//!   bits pass through untouched.
//! * The home bucket is the top `log2(capacity)` bits of the
//!   **complement** of the masked (mixed) repr. Higher masked value ⟹
//!   earlier (or equal) home bucket — home position is monotone
//!   non-increasing in the masked value.
//! * Probing uses the deterministic table's prioritized linear probing
//!   with "masked value, descending" as the priority order. Its
//!   ordering invariant (every cell on the probe path outranks the
//!   probe) then *implies* the Robin Hood property: entries in a
//!   cluster appear in non-decreasing home-bucket order, with
//!   same-bucket ties broken by the mixed value — a total, canonical
//!   rule, so the layout is a pure function of the key set (history
//!   independence carries over from the deterministic table's proof,
//!   which only needs a hash function and a total priority order with
//!   ⊥ lowest).
//!
//! The payoff is that the displacement-ordered stop condition — "stop
//! at the first entry no richer than me, or an empty cell, or my own
//! key" — is exactly `masked(cell) <= masked(probe)`, i.e. one
//! [`scan_le`](crate::simd::scan_le) per window at every tier, the same
//! kernel the deterministic table uses. There is no per-cell
//! displacement arithmetic anywhere on the hot path.
//!
//! ## Entry-type requirements
//!
//! The construction needs the key field to be maskable and the mixer to
//! preserve the empty sentinel, so `new_pow2` asserts:
//!
//! * `E::SIMD_KEY_MASK` is `Some(M)` with `M` a **top-aligned
//!   contiguous** bit range (`M == u64::MAX << M.trailing_zeros()`);
//! * `E::EMPTY == 0` (the mixer fixes 0, so empty cells stay the
//!   lowest-priority masked value);
//! * `log2(capacity)` ≤ the mask width (home buckets are drawn from the
//!   mixed key bits).
//!
//! [`U64Key`](crate::entry::U64Key) and [`KvPair`](crate::entry::KvPair)
//! qualify; pointer entries ([`StrRef`](crate::entry::StrRef)) do not.
//!
//! `E::hash` and `E::cmp_priority` are **never** called here — slotting
//! and priority both come from the masked mixed bits. `E::combine` *is*
//! called on transformed reprs, which is sound because the
//! `SIMD_KEY_MASK` contract makes key identity a pure function of the
//! masked bits (identical for both operands when `combine` runs) and
//! `combine` only produces new value bits, which are untransformed.
//! Reprs are un-mixed before any `E::from_repr` (find results,
//! `elements`, migration), so callers only ever see original entries.
//! [`snapshot`](RobinHoodHashTable::snapshot) returns the raw
//! (transformed) cells: still canonical per key set, so snapshot
//! equality remains the strongest determinism check.

use std::marker::PhantomData;
use std::sync::atomic::Ordering;

use crate::batch::ProbeCore;
use crate::cell::{AtomOf, CellAtomic, CellWord};
use crate::entry::HashEntry;
use crate::phase::{
    ConcurrentDelete, ConcurrentInsert, ConcurrentRead, PhaseHashTable, PhaseKind, PhaseSpan,
};
use crate::resize::FlatTableCore;
use crate::simd::Kernel;

/// Multiplicative inverse of an odd `c` modulo 2^64 (Newton iteration:
/// each step doubles the number of correct low bits, starting from the
/// 3 bits that `c` itself gets right). Truncating the result to `w`
/// bits yields the inverse modulo 2^w.
fn mod_inverse_odd(c: u64) -> u64 {
    debug_assert_eq!(c & 1, 1, "only odd constants are invertible mod 2^w");
    let mut x = c;
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x)));
    }
    x
}

/// Exact inverse of `x ^= x >> s` on a `w`-bit value: iterating
/// `x = y ^ (x >> s)` recovers one more `s`-bit chunk (top-down) per
/// step, so running until the shift total covers 64 bits is always
/// enough.
#[inline]
fn inv_xorshift(y: u64, s: u32, wmask: u64) -> u64 {
    let mut x = y;
    let mut covered = s;
    while covered < 64 {
        x = y ^ (x >> s);
        covered += s;
    }
    x & wmask
}

/// Bijective, zero-fixing mixer on the `w`-bit key field (`w = 64 -
/// tz`, where `tz` is the key mask's trailing-zero count). An
/// fmix-style xorshift/odd-multiply chain: every step is a bijection on
/// w-bit values and maps 0 to 0, so the whole chain does too — distinct
/// keys get distinct mixed values and the empty sentinel is preserved.
/// The inverse constants are derived once at construction.
#[derive(Clone, Copy, Debug)]
struct Mixer {
    /// Key field offset (trailing zeros of the key mask).
    tz: u32,
    /// Low-`w`-bit mask (the key mask shifted down to bit 0).
    wmask: u64,
    /// Whether the key field spans the whole word (`tz == 0`): the
    /// masking steps are the identity then, and the hot paths skip
    /// them (the branch predicts perfectly — it never changes).
    full: bool,
    s1: u32,
    s2: u32,
    c1: u64,
    c2: u64,
    c1_inv: u64,
    c2_inv: u64,
}

impl Mixer {
    /// `word_bits` is the stored cell width (`E::Repr::BITS`): the key
    /// field occupies bits `[tz, word_bits)` of the repr.
    fn for_key_mask(key_mask: u64, word_bits: u32) -> Self {
        let tz = key_mask.trailing_zeros();
        let w = word_bits - tz;
        let wmask = key_mask >> tz;
        // fmix64-flavoured shifts scaled to the field width; the
        // multiplier constants stay odd after masking (both end in a
        // set low bit), so they remain invertible mod 2^w.
        let s1 = w / 2 + 1;
        let s2 = (w / 2).saturating_sub(3).max(1);
        let c1 = 0xff51_afd7_ed55_8ccd & wmask;
        let c2 = 0xc4ce_b9fe_1a85_ec53 & wmask;
        Mixer {
            tz,
            wmask,
            full: wmask == u64::MAX,
            s1,
            s2,
            c1,
            c2,
            c1_inv: mod_inverse_odd(c1) & wmask,
            c2_inv: mod_inverse_odd(c2) & wmask,
        }
    }

    #[inline]
    fn mix(&self, k: u64) -> u64 {
        debug_assert_eq!(k & !self.wmask, 0);
        let mut x = k;
        x ^= x >> self.s1;
        x = x.wrapping_mul(self.c1);
        if !self.full {
            x &= self.wmask;
        }
        x ^= x >> self.s2;
        x = x.wrapping_mul(self.c2);
        if !self.full {
            x &= self.wmask;
        }
        x ^= x >> self.s1;
        x
    }

    #[inline]
    fn unmix(&self, y: u64) -> u64 {
        let m = self.wmask;
        let mut x = inv_xorshift(y, self.s1, m);
        x = x.wrapping_mul(self.c2_inv) & m;
        x = inv_xorshift(x, self.s2, m);
        x = x.wrapping_mul(self.c1_inv) & m;
        inv_xorshift(x, self.s1, m)
    }
}

/// The phase-concurrent Robin Hood hash table.
///
/// See the [module docs](self) for the layout rule and guarantees.
/// Same phase discipline and concurrency contract as
/// [`DetHashTable`](crate::det::DetHashTable): any number of threads
/// may run the *same* operation type concurrently; the layout (and
/// therefore [`snapshot`](Self::snapshot)) is a pure function of the
/// stored key set.
///
/// ```
/// use phc_core::{RobinHoodHashTable, U64Key};
/// let a: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(8);
/// let b: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(8);
/// for k in 1..=100u64 {
///     a.insert(U64Key::new(k));            // ascending
///     b.insert(U64Key::new(101 - k));      // descending
/// }
/// // History independence: identical layout from any insertion order.
/// assert_eq!(a.snapshot(), b.snapshot());
/// ```
pub struct RobinHoodHashTable<E: HashEntry> {
    cells: Box<[AtomOf<E::Repr>]>,
    mask: usize,
    /// `E::SIMD_KEY_MASK`, cached (construction proves it exists).
    key_mask: u64,
    /// `Repr::BITS - log2(capacity)`: the home bucket is
    /// `(!t & key_mask) >> home_shift`.
    home_shift: u32,
    mixer: Mixer,
    _entry: PhantomData<E>,
}

// SAFETY: all shared mutation goes through atomic cells.
unsafe impl<E: HashEntry> Send for RobinHoodHashTable<E> {}
unsafe impl<E: HashEntry> Sync for RobinHoodHashTable<E> {}

impl<E: HashEntry> RobinHoodHashTable<E> {
    /// Creates a table with `2^log2_size` cells, all empty.
    ///
    /// # Panics
    ///
    /// Panics if `E` does not meet the Robin Hood entry requirements
    /// (see the [module docs](self)): a top-aligned contiguous
    /// `SIMD_KEY_MASK`, a zero `EMPTY` sentinel, and
    /// `1 <= log2_size <=` the mask width.
    pub fn new_pow2(log2_size: u32) -> Self {
        let key_mask = E::SIMD_KEY_MASK
            .expect("RobinHoodHashTable requires a maskable key field (SIMD_KEY_MASK)");
        let bits = <E::Repr as CellWord>::BITS;
        let max = <E::Repr as CellWord>::MAX_REPR;
        assert_eq!(
            key_mask,
            (max << key_mask.trailing_zeros()) & max,
            "RobinHoodHashTable requires a key mask top-aligned within the cell width"
        );
        assert_eq!(
            E::EMPTY,
            0,
            "RobinHoodHashTable requires EMPTY == 0 (the mixer fixes 0)"
        );
        let width = bits - key_mask.trailing_zeros();
        assert!(
            log2_size >= 1 && log2_size <= width,
            "RobinHoodHashTable requires 1 <= log2_size ({log2_size}) <= key width ({width})"
        );
        let n = 1usize << log2_size;
        let cells = crate::cell::new_cells::<E::Repr>(n, E::EMPTY);
        RobinHoodHashTable {
            cells,
            mask: n - 1,
            key_mask,
            home_shift: bits - log2_size,
            mixer: Mixer::for_key_mask(key_mask, bits),
            _entry: PhantomData,
        }
    }

    /// Number of cells.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Raw view of the cell array (for invariant checkers and tests).
    /// Cells hold *transformed* reprs (mixed key field).
    pub fn raw_cells(&self) -> &[AtomOf<E::Repr>] {
        &self.cells
    }

    /// Snapshot of the raw (transformed) cell contents. Two Robin Hood
    /// tables of the same capacity built from the same key set have
    /// equal snapshots — the strongest form of the history-independence
    /// guarantee. The mixer depends only on the entry type, never the
    /// history, so the transform does not weaken the check.
    pub fn snapshot(&self) -> Vec<u64> {
        crate::batch::snapshot(&self.cells)
    }

    /// Mixes the key field of an original repr into its stored form.
    #[inline]
    fn transform(&self, repr: u64) -> u64 {
        let m = &self.mixer;
        if m.full {
            // Full-width key field: the recombine is the identity.
            return m.mix(repr);
        }
        (m.mix(repr >> m.tz) << m.tz) | (repr & !self.key_mask)
    }

    /// Inverse of [`transform`](Self::transform): recovers the original
    /// repr from a stored cell value.
    #[inline]
    fn untransform(&self, t: u64) -> u64 {
        let m = &self.mixer;
        (m.unmix(t >> m.tz) << m.tz) | (t & !self.key_mask)
    }

    /// The *stored-form* forwarding marker: `transform(E::FORWARD)`.
    /// Cells hold mixed key fields, so the raw all-ones word is not the
    /// right sentinel here — the mixer could legitimately map some key
    /// to it. The transform is a bijection on the whole cell word and
    /// valid entries never have repr `E::FORWARD`, so this is the
    /// unique stored word no live entry can occupy; it is also nonzero
    /// (only 0 mixes to 0), so it can never be mistaken for ⊥.
    #[inline]
    fn forward_marker(&self) -> u64 {
        self.transform(E::FORWARD)
    }

    /// Home bucket of a transformed repr: the top `log2(capacity)` bits
    /// of the complement of its masked value, taken within the cell
    /// width (`!t & key_mask` confines the complement to the key field,
    /// so the shift is exact for sub-word reprs too). Monotone
    /// non-increasing in `t & key_mask`, which is what couples the
    /// priority order to the Robin Hood displacement rule (see the
    /// module docs).
    #[inline]
    fn slot(&self, t: u64) -> usize {
        ((!t & self.key_mask) >> self.home_shift) as usize
    }

    /// Inserts an entry. Safe to call from any number of threads during
    /// an insert phase. Duplicate keys are resolved with
    /// [`HashEntry::combine`].
    ///
    /// # Panics
    ///
    /// Panics if the table is full (the probe wrapped all the way
    /// around).
    pub fn insert(&self, e: E) {
        self.insert_counted(e);
    }

    /// Like [`insert`](Self::insert), but returns `true` iff the call
    /// filled a previously empty cell — a global net-new-element credit
    /// (exactly one `true` per element added across all threads), as in
    /// `DetHashTable::insert_counted`. Used by the cooperative resizer
    /// for exact load accounting.
    pub fn insert_counted(&self, e: E) -> bool {
        FlatTableCore::insert_counted(self, e)
    }

    /// Prioritized insert on a transformed repr. Identical control flow
    /// to `DetHashTable`'s scalar insert, with the priority order and
    /// key identity both read off the masked bits (the `SIMD_KEY_MASK`
    /// contract collapses `same_key` / `cmp_priority` to masked
    /// equality / unsigned masked compare; the mixer's bijectivity
    /// keeps distinct keys distinct). Displacement swaps are counted as
    /// `robinhood_shifts`.
    fn try_insert_t(&self, mut v: u64) -> Result<bool, u64> {
        debug_assert_ne!(v & self.key_mask, 0);
        let key_mask = self.key_mask;
        let fwd = self.forward_marker();
        let mut i = self.slot(v);
        let mut steps = 0usize;
        let mut cas_fails = 0usize;
        let mut shifts = 0usize;
        let result = loop {
            let thr = v & key_mask;
            let c = self.cells[i].load(Ordering::Acquire);
            if c == fwd {
                // Forwarded cell: this region is being migrated. The
                // marker's mixed bits carry no rank, so neither the
                // displacement rule nor `combine` may touch it — hand
                // the carry back for the successor table.
                phc_obs::probe!(count ForwardedProbes);
                break Err(v);
            }
            let cm = c & key_mask;
            if cm == thr {
                // Same key (`thr != 0` rules out empty): converge on
                // the combined value.
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
            if cm > thr {
                // The cell's entry is at least as close to its home as
                // we are to ours (richer or home-tied-higher): probe on.
                i = (i + 1) & self.mask;
                steps += 1;
                if steps > self.cells.len() {
                    break Err(v);
                }
            } else {
                // Strictly poorer (or empty): steal the slot and carry
                // the displaced entry onward — the Robin Hood swap.
                if self.cells[i]
                    .compare_exchange(c, v, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    if c == E::EMPTY {
                        break Ok(true);
                    }
                    shifts += 1;
                    v = c;
                    i = (i + 1) & self.mask;
                    steps += 1;
                    if steps > self.cells.len() {
                        break Err(v);
                    }
                } else {
                    // On CAS failure, retry the same cell: its masked
                    // value can only have risen, so the comparison
                    // re-runs.
                    cas_fails += 1;
                }
            }
        };
        phc_obs::probe!(count ProbeSteps, steps);
        phc_obs::probe!(count InsertCasFail, cas_fails);
        phc_obs::probe!(count RobinHoodShifts, shifts);
        phc_obs::probe!(hist ProbeLen, steps);
        phc_obs::probe!(hist CasRetries, cas_fails);
        result
    }

    /// Wide-scan insert: one `scan_le` per window finds the first cell
    /// no richer than `v`, then the candidate is confirmed with the
    /// exact per-cell atomic loop, with the kernel bound once per
    /// operation or batch as in the deterministic table's insert fast
    /// path. The speculation is
    /// sound for the same reason as there: masked cell values only
    /// *rise* during an insert phase, so "this lane outranks `v`" can
    /// never be invalidated, and a candidate that rose after the scan
    /// sampled it is a counted misspeculation that re-scans one cell
    /// further on.
    ///
    /// The body is generic over the bound scan kernel (the
    /// Robin Hood analogue of
    /// `DetHashTable::try_insert_repr_wide_with`; the confirm loop is
    /// seeded with the value the scan observed, so no cell is re-loaded
    /// between scan and first CAS).
    #[inline(always)]
    fn try_insert_t_wide_with<K: Kernel>(&self, mut v: u64, k: K) -> Result<bool, u64> {
        let key_mask = self.key_mask;
        let n = self.cells.len();
        let fwd = self.forward_marker();
        let mut i = self.slot(v);
        let mut steps = 0usize;
        let mut cas_fails = 0usize;
        let mut shifts = 0usize;
        let mut lanes_total = 0usize;
        let mut misspecs = 0usize;
        let result = 'outer: loop {
            let thr = v & key_mask;
            // Scalar peek of the cursor cell first: at moderate loads it
            // usually decides the insert by itself and makes the
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
                        // richer keys.
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
            loop {
                // Checked at the loop top so the CAS-failure re-read
                // path (`c = cur`) is covered too: a forwarded cell
                // must never be combined with or displaced.
                if c == fwd {
                    phc_obs::probe!(count ForwardedProbes);
                    break 'outer Err(v);
                }
                let cm = c & key_mask;
                if cm == thr {
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
                if cm > thr {
                    // Misspeculation: a concurrent insert enriched this
                    // cell after the wide scan sampled it.
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
                        shifts += 1;
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
        phc_obs::probe!(count RobinHoodShifts, shifts);
        phc_obs::probe!(count SimdLanesScanned, lanes_total);
        phc_obs::probe!(count SimdMisspeculations, misspecs);
        phc_obs::probe!(hist ProbeLen, steps);
        phc_obs::probe!(hist CasRetries, cas_fails);
        phc_obs::probe!(hist SimdLanesPerProbe, lanes_total);
        result
    }

    /// Inserts a batch of entries with software prefetching and
    /// batch-level tier dispatch (cf. `DetHashTable::insert_batch`).
    /// Semantically identical to inserting the entries one by one — and
    /// by history independence, to *any* insertion of the same set.
    pub fn insert_batch(&self, entries: &[E]) {
        crate::batch::insert_batch(self, entries)
    }

    /// Inserts a slice in parallel through the batched prefetching
    /// path. The final layout equals that of any other insertion of the
    /// same set.
    pub fn par_insert_batched(&self, entries: &[E]) {
        crate::batch::par_chunked(entries, |c| self.insert_batch(c))
    }

    /// Reconstructs an original repr from a probe repr and the stored
    /// (transformed) cell that matched it: the match proves the key
    /// fields coincide (the mixer is bijective on the key field), and
    /// the value bits pass through the transform untouched — so the
    /// result is the probe's own key bits plus the cell's value bits,
    /// with no unmixing on the lookup fast path.
    #[inline]
    fn recover(&self, probe_repr: u64, cell: u64) -> u64 {
        (probe_repr & self.key_mask) | (cell & !self.key_mask)
    }

    /// Looks up the entry with `key`'s key part. Safe to call
    /// concurrently with other finds and `elements`.
    pub fn find(&self, key: E) -> Option<E> {
        FlatTableCore::find(self, key)
    }

    /// Looks up a batch of keys with software prefetching and
    /// batch-level tier dispatch, returning results in key order:
    /// `out[i] == self.find(keys[i])`.
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        crate::batch::find_batch(self, keys)
    }

    /// Parallel batched lookup: results in key order.
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        crate::batch::par_chunked_map(keys, |c| self.find_batch(c))
    }

    /// Lookup on a transformed repr, returning the stored (transformed)
    /// cell value.
    fn find_t(&self, t: u64) -> Option<u64> {
        debug_assert_ne!(t & self.key_mask, 0);
        let key_mask = self.key_mask;
        let fwd = self.forward_marker();
        let thr = t & key_mask;
        let mut i = self.slot(t);
        let mut steps = 0usize;
        let result = 'scan: {
            // Guard against a (mis-used) full table of richer keys.
            for _ in 0..=self.cells.len() {
                let c = self.cells[i].load(Ordering::Acquire);
                if c == fwd {
                    // Forwarded: the key, if present, lives in the
                    // successor table. Report absence here and let the
                    // epoch chain fall through.
                    phc_obs::probe!(count ForwardedProbes);
                    break 'scan None;
                }
                let cm = c & key_mask;
                if cm == thr {
                    break 'scan Some(c);
                }
                if cm < thr {
                    // First cell no richer than the probe (possibly
                    // empty): by the Robin Hood layout, `t` cannot be
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

    /// Wide-scan find: the whole Robin Hood stop condition is one
    /// unsigned masked compare, so the first `scan_le` hit is either
    /// the key (equal) or proof of absence (empty or poorer). Read
    /// phases are quiescent, so the wide loads race with nothing.
    ///
    /// The body is generic over the bound scan kernel. The hit
    /// value comes from the kernel's already-loaded window (read phases
    /// are quiescent, so it equals what a re-load would return).
    #[inline(always)]
    fn find_t_wide_with<K: Kernel>(&self, t: u64, k: K) -> Option<u64> {
        let n = self.cells.len();
        let home = self.slot(t);
        let key_mask = self.key_mask;
        let thr = t & key_mask;
        let (hit, lanes) = k.scan_le_wrapping(&self.cells, home, key_mask, thr);
        phc_obs::probe!(count SimdLanesScanned, lanes);
        phc_obs::probe!(hist SimdLanesPerProbe, lanes);
        match hit {
            Some((j, c)) => {
                phc_obs::probe!(count FindProbeSteps, self.dist(home, j));
                if c == self.forward_marker() {
                    // Forwarded cell: defer to the successor table.
                    phc_obs::probe!(count ForwardedProbes);
                    None
                } else if c & self.key_mask == thr {
                    Some(c)
                } else {
                    None
                }
            }
            None => {
                phc_obs::probe!(count FindProbeSteps, n + 1);
                None
            }
        }
    }

    /// Deletes the entry whose key equals `key`'s key part. A no-op if
    /// absent. Safe to call from any number of threads during a delete
    /// phase.
    pub fn delete(&self, key: E) {
        self.delete_t(self.transform(key.to_repr()));
    }

    /// Like [`delete`](Self::delete), but returns `true` iff the call
    /// performed the final store of ⊥ that shrank the table — a global
    /// net-removed-element credit, mirroring
    /// [`insert_counted`](Self::insert_counted).
    pub fn delete_counted(&self, key: E) -> bool {
        self.delete_t(self.transform(key.to_repr()))
    }

    /// Backward-replacement delete on a transformed repr — the
    /// deterministic table's delete verbatim, with home buckets and key
    /// identity read off the masked mixed bits.
    fn delete_t(&self, probe: u64) -> bool {
        debug_assert_ne!(probe & self.key_mask, 0);
        let m = self.cells.len();
        let key_mask = self.key_mask;
        let fwd = self.forward_marker();
        let thr = probe & key_mask;
        // Virtual indices: base the walk at `m + bucket` so `k` can
        // step below `i` without underflow.
        let mut i = m + self.slot(probe);
        let mut k = i;
        // Walk forward past richer cells to land at or past the last
        // possible position of the key.
        loop {
            let c = self.load_at(k);
            if c == fwd {
                // Forwarded cell: the migration claim has passed this
                // point, so the key (if it existed here) now lives in
                // the successor. Stop the walk; deletes never race
                // migration (the resizer gates them), so this is a
                // defensive bound, not a hot branch.
                phc_obs::probe!(count ForwardedProbes);
                break;
            }
            if c == E::EMPTY || thr >= c & key_mask {
                break;
            }
            k += 1;
        }
        // `vm` is the masked value we are currently responsible for
        // deleting (a key occupies at most one distinct masked value).
        let mut vm = thr;
        let mut steps = 0usize;
        let result = loop {
            if k < i {
                break false;
            }
            steps += 1;
            let c = self.load_at(k);
            if c == fwd {
                // Never combine the forwarding marker's mixed bits
                // with a key comparison; skip past it.
                phc_obs::probe!(count ForwardedProbes);
                k -= 1;
                continue;
            }
            if c & key_mask != vm {
                // Empty or a different key: keep walking down.
                k -= 1;
                continue;
            }
            let (j, vprime) = self.find_replacement(k);
            if self.cas_at(k, c, vprime) {
                if vprime != E::EMPTY {
                    // A second copy of `vprime` now exists at `k`; we
                    // are responsible for deleting the one at `j`.
                    vm = vprime & key_mask;
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

    /// Returns `(j, v')` where `v'` is the entry that may legally fill
    /// the hole at virtual index `i` (or ⊥), and `j` is its (virtual)
    /// location — `DetHashTable::find_replacement` with the Robin Hood
    /// home rule.
    fn find_replacement(&self, i: usize) -> (usize, u64) {
        crate::batch::find_replacement(self, i)
    }

    /// Packs the stored entries into a vector in cell order via the
    /// parallel mask-based pack — deterministic output. Entries are
    /// un-mixed on the way out, so callers see original reprs.
    pub fn elements(&self) -> Vec<E> {
        crate::batch::elements(self)
    }

    /// Like [`elements`](Self::elements), packing into a caller-owned
    /// buffer (appends; prior contents are preserved) so steady-state
    /// readers reuse one allocation across calls. Entries are un-mixed
    /// on the way out.
    pub fn elements_into(&self, out: &mut Vec<E>) {
        crate::batch::elements_into(self, out)
    }

    /// Applies `f` to every entry stored in the cell range (clamped to
    /// the capacity), sequentially and in cell order — the migration
    /// primitive of the cooperative resizer. The caller must guarantee
    /// no concurrent mutation of the scanned cells. Entries are
    /// un-mixed before `f` sees them.
    pub fn for_each_in_range(&self, range: std::ops::Range<usize>, f: impl FnMut(E)) {
        crate::batch::for_each_in_range(self, range, f)
    }

    /// Atomically claims every cell in the range for migration: each
    /// cell is swapped to the stored-form forwarding marker
    /// ([`forward_marker`](Self::forward_marker)) and its prior
    /// occupant, *un-mixed* back to an original repr, is appended to
    /// `out` in cell order. See `DetHashTable::claim_range_forward`
    /// for the conservation argument; the swap/CAS race is identical
    /// here because every Robin Hood displacement step is a single-
    /// cell CAS against a concretely observed old value.
    pub fn claim_range_forward(&self, range: std::ops::Range<usize>, out: &mut Vec<u64>) {
        crate::batch::claim_range_forward(self, range, out)
    }

    /// Applies `f` to every stored entry, in parallel, without
    /// materializing the packed array. Iteration order is unspecified;
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

    /// Displacement distribution of a quiescent snapshot under the
    /// Robin Hood home rule (distance from each entry's complement-of-
    /// mixed-key bucket). The hash-based
    /// [`probe_stats`](crate::stats::probe_stats) would be wrong here —
    /// this table never consults `E::hash`.
    pub fn displacement_stats(&self) -> crate::stats::ProbeStats {
        let snap = self.snapshot();
        let key_mask = self.key_mask;
        let shift = self.home_shift;
        crate::stats::probe_stats_with(
            &snap,
            |c| c != E::EMPTY,
            |c| ((!c & key_mask) >> shift) as usize,
        )
    }

    /// Like [`displacement_stats`](Self::displacement_stats), but also
    /// mirrors the distribution into the global observability
    /// `rh_displacement` histogram (one bulk add per distance; a no-op
    /// without the `obs` feature). Benchmarks call this on a quiescent
    /// snapshot to embed the Robin Hood probe-length curve in their
    /// JSON reports.
    pub fn record_displacement_histogram(&self) -> crate::stats::ProbeStats {
        let stats = self.displacement_stats();
        for (d, &count) in stats.histogram.iter().enumerate() {
            if count > 0 {
                phc_obs::probe!(hist RhDisplacement, d, count);
            }
        }
        stats
    }
}

impl<E: HashEntry> ProbeCore for RobinHoodHashTable<E> {
    type Entry = E;
    type Fill = bool;
    const TYPE_NAME: &'static str = "RobinHoodHashTable";
    // Construction proves the key mask exists.
    const WIDE: bool = true;

    #[inline]
    fn cells(&self) -> &[AtomOf<E::Repr>] {
        &self.cells
    }
    #[inline]
    fn home(&self, v: u64) -> usize {
        self.slot(self.transform(v))
    }
    #[inline]
    fn insert_scalar(&self, v: u64, _tok: u64) -> Result<bool, u64> {
        self.try_insert_t(self.transform(v))
            .map_err(|t| self.untransform(t))
    }
    #[inline(always)]
    fn insert_wide<K: Kernel>(&self, v: u64, _tok: u64, k: K) -> Result<bool, u64> {
        self.try_insert_t_wide_with(self.transform(v), k)
            .map_err(|t| self.untransform(t))
    }
    #[inline]
    fn find_scalar(&self, v: u64) -> Option<u64> {
        self.find_t(self.transform(v)).map(|c| self.recover(v, c))
    }
    #[inline(always)]
    fn find_wide<K: Kernel>(&self, v: u64, k: K) -> Option<u64> {
        self.find_t_wide_with(self.transform(v), k)
            .map(|c| self.recover(v, c))
    }
    #[inline]
    fn delete(&self, v: u64, _tok: u64) -> bool {
        self.delete_t(self.transform(v))
    }
    #[inline]
    fn filled(fill: bool) -> bool {
        fill
    }
    #[inline]
    fn unstore(&self, c: u64) -> u64 {
        self.untransform(c)
    }
    #[inline]
    fn stored_forward(&self) -> u64 {
        self.forward_marker()
    }
    // The home rule reads the stored (mixed) value directly.
    #[inline]
    fn lift_home(&self, t: u64, at: usize) -> usize {
        at - self.dist(self.slot(t), at & self.mask)
    }
}

/// Insert-phase handle (see [`crate::phase`]). The embedded
/// [`PhaseSpan`] brackets the phase on the observability timeline.
pub struct RobinHoodInserter<'t, E: HashEntry>(
    &'t RobinHoodHashTable<E>,
    #[allow(dead_code)] PhaseSpan,
);
/// Delete-phase handle.
pub struct RobinHoodDeleter<'t, E: HashEntry>(
    &'t RobinHoodHashTable<E>,
    #[allow(dead_code)] PhaseSpan,
);
/// Read-phase handle.
pub struct RobinHoodReader<'t, E: HashEntry>(
    &'t RobinHoodHashTable<E>,
    #[allow(dead_code)] PhaseSpan,
);

impl<E: HashEntry> ConcurrentInsert<E> for RobinHoodInserter<'_, E> {
    #[inline]
    fn insert(&self, e: E) {
        self.0.insert(e);
    }
}
impl<E: HashEntry> RobinHoodInserter<'_, E> {
    /// Batched prefetching insert (see
    /// [`RobinHoodHashTable::insert_batch`]).
    pub fn insert_batch(&self, entries: &[E]) {
        self.0.insert_batch(entries);
    }
    /// Parallel batched insert (see
    /// [`RobinHoodHashTable::par_insert_batched`]).
    pub fn par_insert_batched(&self, entries: &[E]) {
        self.0.par_insert_batched(entries);
    }
}
impl<E: HashEntry> ConcurrentDelete<E> for RobinHoodDeleter<'_, E> {
    #[inline]
    fn delete(&self, key: E) {
        self.0.delete(key);
    }
}
impl<E: HashEntry> RobinHoodDeleter<'_, E> {
    /// Batched prefetching delete.
    pub fn delete_batch(&self, keys: &[E]) {
        crate::batch::delete_batch(self.0, keys)
    }
    /// Parallel batched delete.
    pub fn par_delete_batched(&self, keys: &[E]) {
        crate::batch::par_chunked(keys, |c| self.delete_batch(c))
    }
}
impl<E: HashEntry> ConcurrentRead<E> for RobinHoodReader<'_, E> {
    #[inline]
    fn find(&self, key: E) -> Option<E> {
        self.0.find(key)
    }
}
impl<E: HashEntry> RobinHoodReader<'_, E> {
    /// Packs the table contents (allowed in the read phase).
    pub fn elements(&self) -> Vec<E> {
        self.0.elements()
    }
    /// Batched prefetching lookup (see
    /// [`RobinHoodHashTable::find_batch`]).
    pub fn find_batch(&self, keys: &[E]) -> Vec<Option<E>> {
        self.0.find_batch(keys)
    }
    /// Parallel batched lookup.
    pub fn par_find_batched(&self, keys: &[E]) -> Vec<Option<E>> {
        self.0.par_find_batched(keys)
    }
}

impl<E: HashEntry> PhaseHashTable<E> for RobinHoodHashTable<E> {
    type Inserter<'t>
        = RobinHoodInserter<'t, E>
    where
        E: 't;
    type Deleter<'t>
        = RobinHoodDeleter<'t, E>
    where
        E: 't;
    type Reader<'t>
        = RobinHoodReader<'t, E>
    where
        E: 't;

    const NAME: &'static str = "robinHood";

    fn new_pow2(log2_size: u32) -> Self {
        RobinHoodHashTable::new_pow2(log2_size)
    }

    fn capacity(&self) -> usize {
        self.capacity()
    }

    fn begin_insert(&mut self) -> RobinHoodInserter<'_, E> {
        RobinHoodInserter(self, PhaseSpan::begin(PhaseKind::Insert))
    }

    fn begin_delete(&mut self) -> RobinHoodDeleter<'_, E> {
        RobinHoodDeleter(self, PhaseSpan::begin(PhaseKind::Delete))
    }

    fn begin_read(&mut self) -> RobinHoodReader<'_, E> {
        RobinHoodReader(self, PhaseSpan::begin(PhaseKind::Read))
    }

    fn elements(&mut self) -> Vec<E> {
        RobinHoodHashTable::elements(self)
    }
}

impl<E: HashEntry> crate::resize::FlatTableCore<E> for RobinHoodHashTable<E> {
    const GROW_NAME: &'static str = "robinHood-grow";

    fn new_pow2(log2_size: u32) -> Self {
        RobinHoodHashTable::new_pow2(log2_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{KeepMin, KvPair, U64Key};
    use std::collections::BTreeSet;

    #[test]
    fn mixer_roundtrip_full_width() {
        let m = Mixer::for_key_mask(u64::MAX, 64);
        assert_eq!(m.mix(0), 0);
        for i in 0..2000u64 {
            let k = phc_parutil::hash64(i);
            assert_eq!(m.unmix(m.mix(k)), k, "k={k:#x}");
        }
        assert_eq!(m.unmix(m.mix(u64::MAX)), u64::MAX);
    }

    #[test]
    fn mixer_roundtrip_half_width() {
        // KvPair's key field: top 32 bits.
        let m = Mixer::for_key_mask(0xFFFF_FFFF_0000_0000, 64);
        assert_eq!(m.mix(0), 0);
        for i in 0..2000u64 {
            let k = phc_parutil::hash64(i) & m.wmask;
            assert_eq!(m.unmix(m.mix(k)), k, "k={k:#x}");
        }
        assert_eq!(m.unmix(m.mix(m.wmask)), m.wmask);
    }

    #[test]
    fn transform_roundtrips_and_preserves_value_bits() {
        let t: RobinHoodHashTable<KvPair<KeepMin>> = RobinHoodHashTable::new_pow2(6);
        for i in 1..500u64 {
            let repr = KvPair::<KeepMin>::new(i as u32, (i * 7) as u32).to_repr();
            let tr = t.transform(repr);
            assert_eq!(tr & !t.key_mask, repr & !t.key_mask, "value bits move");
            assert_eq!(t.untransform(tr), repr);
        }
    }

    #[test]
    fn insert_then_find() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(8);
        for k in [1u64, 2, 3, 100, 200] {
            t.insert(U64Key::new(k));
        }
        for k in [1u64, 2, 3, 100, 200] {
            assert_eq!(t.find(U64Key::new(k)), Some(U64Key::new(k)));
        }
        assert_eq!(t.find(U64Key::new(4)), None);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(6);
        for _ in 0..10 {
            t.insert(U64Key::new(42));
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.elements(), vec![U64Key::new(42)]);
    }

    #[test]
    fn delete_removes_only_target() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(8);
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
    fn history_independence_of_snapshot() {
        let set: Vec<u64> = (1..=200).map(|i| i * 17 % 1009 + 1).collect();
        let mut orders = vec![set.clone()];
        let mut rev = set.clone();
        rev.reverse();
        orders.push(rev);
        let mut shuffled = set.clone();
        for i in (1..shuffled.len()).rev() {
            let j = (phc_parutil::hash64(i as u64) as usize) % (i + 1);
            shuffled.swap(i, j);
        }
        orders.push(shuffled);

        let mut snaps = Vec::new();
        for order in &orders {
            let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(9);
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

        let direct: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(9);
        let aset: BTreeSet<u64> = a.iter().copied().collect();
        let bset: BTreeSet<u64> = b.iter().copied().collect();
        for &k in aset.difference(&bset) {
            direct.insert(U64Key::new(k));
        }

        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(9);
        for &k in a.iter().chain(&b) {
            t.insert(U64Key::new(k));
        }
        for &k in b.iter().rev() {
            t.delete(U64Key::new(k));
        }
        assert_eq!(t.snapshot(), direct.snapshot());
    }

    /// The defining Robin Hood layout property, checked directly on a
    /// snapshot: every stored entry's probe path from its home bucket
    /// is fully occupied by strictly richer (higher masked value)
    /// entries — equivalently, clusters are sorted by home bucket.
    fn assert_robin_hood_invariant(t: &RobinHoodHashTable<U64Key>) {
        let snap = t.snapshot();
        let n = snap.len();
        for (j, &c) in snap.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let home = t.slot(c);
            let mut i = home;
            while i != j {
                let on_path = snap[i];
                assert!(
                    on_path != 0 && (on_path & t.key_mask) > (c & t.key_mask),
                    "cell {j} (home {home}) has a poorer or empty cell at {i}"
                );
                i = (i + 1) & (n - 1);
            }
        }
    }

    #[test]
    fn layout_satisfies_robin_hood_invariant() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(8);
        for i in 1..=192u64 {
            t.insert(U64Key::new(phc_parutil::hash64(i) | 1));
        }
        assert_robin_hood_invariant(&t);
        // Still holds after deletes compact the clusters.
        for i in 1..=96u64 {
            t.delete(U64Key::new(phc_parutil::hash64(i) | 1));
        }
        assert_robin_hood_invariant(&t);
    }

    #[test]
    fn kv_combine_min_under_duplicates() {
        let t: RobinHoodHashTable<KvPair<KeepMin>> = RobinHoodHashTable::new_pow2(8);
        t.insert(KvPair::new(7, 30));
        t.insert(KvPair::new(7, 10));
        t.insert(KvPair::new(7, 20));
        let got = t.find(KvPair::new(7, 0)).unwrap();
        assert_eq!(got.value, 10);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn wraparound_cluster() {
        // Force keys whose Robin Hood home lands in the last buckets of
        // a tiny table so clusters wrap.
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(3); // 8 cells
        let mut picked = Vec::new();
        let mut k = 1u64;
        while picked.len() < 5 {
            if t.slot(t.transform(k)) >= 6 {
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
        for &k in &picked {
            t.delete(U64Key::new(k));
        }
        assert_eq!(t.len(), 0);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn insert_into_full_table_panics() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(2); // 4 cells
        for k in 1..=5u64 {
            t.insert(U64Key::new(k));
        }
    }

    #[test]
    fn batched_paths_match_per_element() {
        let keys: Vec<U64Key> = (1..=4000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let seq: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(13);
        for &k in &keys {
            seq.insert(k);
        }
        let batched: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(13);
        batched.insert_batch(&keys);
        assert_eq!(batched.snapshot(), seq.snapshot());
        let par: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(13);
        par.par_insert_batched(&keys);
        assert_eq!(par.snapshot(), seq.snapshot());

        let probes: Vec<U64Key> = (1..=8000u64)
            .map(|i| U64Key::new(phc_parutil::hash64(i) | 1))
            .collect();
        let expect: Vec<Option<U64Key>> = probes.iter().map(|&k| seq.find(k)).collect();
        assert_eq!(seq.find_batch(&probes), expect);
        assert_eq!(seq.par_find_batched(&probes), expect);
    }

    #[test]
    fn parallel_insert_and_delete_match_sequential_snapshot() {
        use rayon::prelude::*;
        let keys: Vec<u64> = (1..=4000u64).map(|i| phc_parutil::hash64(i) | 1).collect();
        let (dels, keeps) = keys.split_at(2500);
        let expect: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(13);
        for &k in keeps {
            expect.insert(U64Key::new(k));
        }
        for _ in 0..4 {
            let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(13);
            keys.par_iter().for_each(|&k| t.insert(U64Key::new(k)));
            dels.par_iter().for_each(|&k| t.delete(U64Key::new(k)));
            assert_eq!(t.snapshot(), expect.snapshot());
        }
    }

    #[test]
    fn elements_recover_original_keys() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(10);
        for k in 1..=500u64 {
            t.insert(U64Key::new(k));
        }
        let mut got: Vec<u64> = t.elements().iter().map(|k| k.0).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=500u64).collect::<Vec<_>>());
    }

    #[test]
    fn displacement_stats_count_all_entries() {
        let t: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(12);
        let n = (1usize << 12) * 3 / 4;
        for i in 1..=n as u64 {
            t.insert(U64Key::new(phc_parutil::hash64(i) | 1));
        }
        let s = t.record_displacement_histogram();
        assert_eq!(s.entries, t.len());
        assert_eq!(s.histogram.iter().sum::<usize>(), s.entries);
        // At load 3/4 a healthy mixer keeps a solid fraction at home.
        assert!(s.home_fraction() > 0.2, "home {}", s.home_fraction());
    }

    #[test]
    fn phase_api_compiles_and_works() {
        use crate::phase::*;
        let mut t: RobinHoodHashTable<U64Key> = PhaseHashTable::new_pow2(8);
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

    #[test]
    fn membership_agrees_with_det_table() {
        let det: crate::det::DetHashTable<U64Key> = crate::det::DetHashTable::new_pow2(12);
        let rh: RobinHoodHashTable<U64Key> = RobinHoodHashTable::new_pow2(12);
        for i in 1..=3000u64 {
            let k = U64Key::new(phc_parutil::hash64(i) | 1);
            det.insert(k);
            rh.insert(k);
        }
        for i in 1..=6000u64 {
            let k = U64Key::new(phc_parutil::hash64(i) | 1);
            assert_eq!(det.find(k), rh.find(k), "probe {i}");
        }
        assert_eq!(det.len(), rh.len());
    }
}
