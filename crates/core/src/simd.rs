//! Wide-scan (SIMD) primitives over the cell array.
//!
//! Every hot path in this crate — linear-probe find, the insert
//! empty/lower-priority search, `elements()` packing, migration
//! draining, and occupancy counting — is a forward scan over a
//! contiguous `AtomicU64` array: exactly the shape wide vector loads
//! were built for. This module provides those scans with runtime
//! dispatch AVX2 → scalar and a `PHC_SIMD` environment knob (read
//! once, like `PHC_THREADS`) to pin a tier for benchmarking and
//! differential testing.
//!
//! ## Why unsynchronized wide loads are sound here
//!
//! The phase-concurrency discipline of the paper (operations of one
//! type per phase) is what makes a 2–4-lane load *safe to rely on*:
//!
//! * **Read phases are quiescent.** During `find` / `find_batch` /
//!   `elements()` no thread writes any cell, so a wide load races with
//!   nothing and observes exactly the values a sequence of per-cell
//!   atomic loads would. The same holds for `len()` / stats taken at
//!   quiescence.
//! * **Insert phases are monotone.** During an insert phase a cell's
//!   priority only ever increases (a CAS stores a higher-priority key
//!   over a lower one; `combine` keeps the key) and, in the ND table,
//!   cells only go from empty to occupied. The wide loads are therefore
//!   *speculative*: a lane observed as "skip" (higher priority /
//!   occupied by another key) remains skippable forever, and a lane
//!   observed as a candidate is re-checked with a per-cell **atomic**
//!   load + CAS before anything is written. A stale candidate is a
//!   counted misspeculation that simply re-scans.
//!
//! ## Forwarded (claimed) lanes
//!
//! The freeze-free resizer ([`crate::resize`]) claims cells by
//! swapping in the all-ones `FORWARD` sentinel. No kernel in this
//! module needs a dedicated mask for it: under the deterministic
//! table's inverted priority order all-ones is the *maximum* priority,
//! so a forwarded lane is outranked and skipped by the ordinary rank
//! compare, and any lane a wide scan does nominate as a hit or an
//! insert candidate is re-confirmed through the scalar guards in the
//! callers (`det`, `fc`, `robinhood`), which reject the marker before
//! dereferencing or CASing. Monotonicity survives too: empty →
//! forwarded only raises a cell's priority, so "skip" verdicts stay
//! valid.
//!
//! Two hardware assumptions back the speculative case, both documented
//! de-facto guarantees of x86-64: naturally aligned 8-byte lanes of a
//! vector load do not tear (each lane is individually atomic), and
//! loads are not reordered with loads (TSO), so no fence is needed
//! before the confirming atomic access. Strictly speaking a racing
//! non-atomic load is outside the Rust memory model — the same
//! compromise seqlock-style crates make — so the scalar kernels below
//! use real atomic loads, `cfg(miri)` pins the scalar tier, and every
//! value that influences a *write* is confirmed through the existing
//! atomic path first. Quiescent-phase results are byte-identical
//! across tiers by construction; the differential suite asserts it.
//!
//! ## Tiers and cell widths
//!
//! | tier | vector width | 64-bit cells/probe window | 32-bit cells |
//! |---|---|---|---|
//! | `avx2` | 256-bit | 4 | 8 |
//! | `scalar` | — | 1 (per-cell atomic loads; the reference semantics) | 1 |
//!
//! Every kernel is instantiated per cell width (see [`crate::cell`]):
//! the public scans are generic over the atomic cell type, dispatch on
//! `A::BITS` (a constant, so the branch folds away), and always speak
//! zero-extended `u64` values to callers. Sub-word cells double the
//! lanes per vector *and* halve the bytes per examined cell — the two
//! compounding wins of the compact-entry layout.
//!
//! The AVX2 kernels scan whole vectors only and hand the rest of a
//! range (fewer cells than one vector) to the scalar kernels, so a
//! scan's tail and the scalar tier share one definition.
//!
//! `avx2` is used when `is_x86_feature_detected!` reports it. Every
//! other host runs the scalar tier, as does `PHC_SIMD=avx2` forced on
//! hardware without AVX2 (a downgrade counted in `SimdFallbacks`).

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::cell::CellAtomic;

/// A dispatch tier for the wide-scan kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdTier {
    /// Per-cell atomic loads — the reference semantics.
    Scalar,
    /// 256-bit kernels (runtime-detected).
    Avx2,
}

impl SimdTier {
    /// Stable lowercase name (matches the `PHC_SIMD` values).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// Whether this build and CPU run the AVX2 kernels. Never under Miri:
/// wide raw loads are outside the model it checks.
fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !cfg!(miri) && is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Clamps a requested tier to what this build/CPU can actually run.
/// Downgrades are counted as `SimdFallbacks`.
fn clamp(requested: SimdTier) -> SimdTier {
    if requested == SimdTier::Avx2 && !avx2_detected() {
        phc_obs::probe!(count SimdFallbacks);
        return SimdTier::Scalar;
    }
    requested
}

/// The tier selected by the environment (read **once**): `PHC_SIMD` is
/// `avx2` or `scalar`; unset or any other value picks the best detected
/// tier.
fn env_tier() -> SimdTier {
    static DEFAULT: OnceLock<SimdTier> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("PHC_SIMD").ok().as_deref() {
        Some("scalar") => SimdTier::Scalar,
        _ => clamp(SimdTier::Avx2),
    })
}

/// Process-wide tier override installed by [`set_tier`]; `0` = none.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The active dispatch tier: the [`set_tier`] override if installed,
/// otherwise the once-read `PHC_SIMD` / auto-detected default.
#[inline]
pub fn tier() -> SimdTier {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => SimdTier::Scalar,
        2 => SimdTier::Avx2,
        _ => env_tier(),
    }
}

/// Overrides the dispatch tier process-wide (`None` restores the
/// environment default). For benchmarks and differential tests that
/// compare tiers within one process; requests are clamped to what the
/// CPU supports, so forcing `Avx2` on a host without AVX2 runs scalar.
/// Both tiers produce identical results on quiescent tables, so
/// flipping this concurrently with table operations is benign, if
/// pointless.
pub fn set_tier(tier: Option<SimdTier>) {
    let code = match tier.map(clamp) {
        None => 0,
        Some(SimdTier::Scalar) => 1,
        Some(SimdTier::Avx2) => 2,
    };
    OVERRIDE.store(code, Ordering::Relaxed);
}

/// Outcome of a forward stop-scan: the stop lane — its index in the
/// cell array *and the value the kernel observed there*, extracted from
/// the already-loaded vector window — plus the number of cell lanes the
/// kernel examined (for the `SimdLanesScanned` counter and
/// `SimdLanesPerProbe` histogram). Returning the observed value lets
/// the speculative insert path seed its per-cell CAS confirm from the
/// same loaded window instead of re-loading the cell, and lets
/// quiescent readers skip the re-load entirely.
pub type ScanHit = (Option<(usize, u64)>, usize);

// ---------------------------------------------------------------------
// Per-call dispatch
// ---------------------------------------------------------------------

/// First index `i` in `[start, end)` with `cells[i] == empty` — the
/// speculative empty-slot search. Resolves the tier on each call; hot
/// loops bind a kernel once per operation or batch through
/// [`dispatch`] instead.
#[inline]
pub fn scan_for_empty<A: CellAtomic>(cells: &[A], start: usize, end: usize, empty: u64) -> ScanHit {
    debug_assert!(start <= end && end <= cells.len());
    phc_obs::probe!(count SimdRedispatches);
    // An empty lane is the only lane whose repr equals `empty`, so the
    // key-or-empty kernel with the probe pinned to `empty` under a full
    // mask degenerates to exactly this search.
    match tier() {
        // `tier()` reports Avx2 only when the CPU supports it.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => Avx2(()).scan_for_key(cells, start, end, empty, u64::MAX, empty),
        _ => scan_for_key_scalar(cells, start, end, empty, u64::MAX, empty),
    }
}

/// Widest window [`load_window`] fills (the AVX2 lane count).
pub const MAX_WINDOW: usize = 4;

/// Loads up to [`MAX_WINDOW`] consecutive cells from `[start, end)`
/// into `out`, returning how many lanes were filled (0 when
/// `start >= end`). At the AVX2 tier a full window is one vector load;
/// partial windows and the scalar tier use per-cell atomic loads. For
/// probe loops whose per-cell predicate cannot be vectorized (e.g. it
/// must hash the entry, as in `find_replacement`): the win is batched
/// cache traffic, with each lane still an individually valid
/// (non-torn) cell value.
#[inline]
pub fn load_window<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    out: &mut [u64; MAX_WINDOW],
) -> usize {
    debug_assert!(end <= cells.len());
    let k = end.saturating_sub(start).min(MAX_WINDOW);
    // `tier()` reports Avx2 only when the CPU supports it.
    #[cfg(target_arch = "x86_64")]
    if k == MAX_WINDOW && tier() == SimdTier::Avx2 {
        Avx2(()).load_full_window(cells, start, out);
        return k;
    }
    for (lane, slot) in out.iter_mut().enumerate().take(k) {
        *slot = cells[start + lane].load(Ordering::Acquire);
    }
    k
}

/// Occupancy bitmask of a window of at most 64 cells: bit `j` is set
/// iff `window[j] != empty`. Bits at positions `>= window.len()` are
/// zero. This is the count/pack primitive: `elements()` and `len()`
/// popcount it, migration iterates its set bits.
#[inline]
pub fn scan_nonempty_mask<A: CellAtomic>(window: &[A], empty: u64) -> u64 {
    debug_assert!(window.len() <= 64);
    match tier() {
        // `tier()` reports Avx2 only when the CPU supports it.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => Avx2(()).nonempty_mask(window, empty),
        _ => nonempty_mask_scalar(window, empty),
    }
}

// ---------------------------------------------------------------------
// The AVX2 kernel and the one dispatcher
// ---------------------------------------------------------------------
//
// Every table writes its wide probe bodies once, generic over
// `K: Kernel`; [`dispatch`] resolves the tier once per operation or
// batch and runs either the op's scalar form or its wide form over the
// AVX2 kernel. The wide form runs inside the single
// `#[target_feature(enable = "avx2")]` trampoline below, so the kernel
// intrinsics inline straight into the table's probe loop. The width
// branch folds on `A::BITS`; 32-bit instantiations feed the
// `Simd32LanesScanned` counter here, so every caller of the sub-word
// kernels is counted without touching the call sites.

/// A wide-scan kernel, bound once per operation or batch. The AVX2
/// tier's [`Avx2`] implements it; the scalar tier runs each op's own
/// scalar form instead.
pub trait Kernel: Copy {
    /// First index `i` in `[start, end)` with
    /// `cells[i] & key_mask <= threshold` (unsigned): the stop condition
    /// of the deterministic table's prioritized probe, where `threshold`
    /// is the masked repr being inserted or sought. Under the
    /// [`SIMD_KEY_MASK`](crate::entry::HashEntry::SIMD_KEY_MASK)
    /// contract a stop lane is an exact key match iff its masked value
    /// *equals* `threshold`; anything below is empty or lower priority.
    fn scan_le<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit;

    /// First index `i` in `[start, end)` with `cells[i] == empty` or
    /// `cells[i] & key_mask == probe_masked`: the stop condition of the
    /// ND table's first-fit probe (an empty slot or the probe's own
    /// key), with the probe already masked.
    fn scan_for_key<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit;

    /// [`scan_le`](Self::scan_le) in linear-probing order over the
    /// whole table: `[from, n)`, then — if nothing stopped there — the
    /// wrapped `[0, from)`. Lane counts add up over both segments.
    #[inline(always)]
    fn scan_le_wrapping<A: CellAtomic>(
        self,
        cells: &[A],
        from: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        let (hit, lanes) = self.scan_le(cells, from, cells.len(), key_mask, threshold);
        if hit.is_some() {
            return (hit, lanes);
        }
        let (hit, more) = self.scan_le(cells, 0, from, key_mask, threshold);
        (hit, lanes + more)
    }

    /// [`scan_for_key`](Self::scan_for_key) in linear-probing order
    /// over the whole table (see [`scan_le_wrapping`](Self::scan_le_wrapping)).
    #[inline(always)]
    fn scan_for_key_wrapping<A: CellAtomic>(
        self,
        cells: &[A],
        from: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        let (hit, lanes) =
            self.scan_for_key(cells, from, cells.len(), empty, key_mask, probe_masked);
        if hit.is_some() {
            return (hit, lanes);
        }
        let (hit, more) = self.scan_for_key(cells, 0, from, empty, key_mask, probe_masked);
        (hit, lanes + more)
    }
}

/// The 256-bit kernels. Only [`dispatch`] (after runtime detection)
/// and this module construct one, so holding an `Avx2` proves the CPU
/// runs AVX2.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Avx2(());

/// Counts the lanes a 32-bit-cell scan examined.
#[inline(always)]
fn count_sub_word<A: CellAtomic>(hit: ScanHit) -> ScanHit {
    if A::BITS == 32 {
        phc_obs::probe!(count Simd32LanesScanned, hit.1);
    }
    hit
}

/// Completes a vector scan of a range beginning at `start`: a scan
/// that ran out of whole vectors without a hit (`(None, lanes)`) goes
/// on with `tail` from the first unscanned cell, `start + lanes`, and
/// the lane counts add up.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn finish(body: ScanHit, start: usize, tail: impl FnOnce(usize) -> ScanHit) -> ScanHit {
    match body {
        (None, lanes) => {
            let (hit, more) = tail(start + lanes);
            (hit, lanes + more)
        }
        hit => hit,
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel for Avx2 {
    #[inline(always)]
    fn scan_le<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        // Bounding the slice by `end` is what keeps the vector loads in
        // bounds; the scalar tail checks `start <= end`.
        let cells = &cells[..end];
        let p = cells.as_ptr();
        // SAFETY: holding `self` proves AVX2; the vector loads stay in
        // `[start, end)`, inside `cells` (see the module docs for the
        // wide-load race argument).
        let body = unsafe {
            if A::BITS == 32 {
                x86::scan_le_avx2_u32(p.cast(), start, end, key_mask, threshold)
            } else {
                x86::scan_le_avx2(p.cast(), start, end, key_mask, threshold)
            }
        };
        count_sub_word::<A>(finish(body, start, |i| {
            scan_le_scalar(cells, i, end, key_mask, threshold)
        }))
    }

    #[inline(always)]
    fn scan_for_key<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        let cells = &cells[..end];
        let p = cells.as_ptr();
        // SAFETY: as in `scan_le`.
        let body = unsafe {
            if A::BITS == 32 {
                x86::scan_for_key_avx2_u32(p.cast(), start, end, empty, key_mask, probe_masked)
            } else {
                x86::scan_for_key_avx2(p.cast(), start, end, empty, key_mask, probe_masked)
            }
        };
        count_sub_word::<A>(finish(body, start, |i| {
            scan_for_key_scalar(cells, i, end, empty, key_mask, probe_masked)
        }))
    }
}

#[cfg(target_arch = "x86_64")]
impl Avx2 {
    /// Cells of width `A` per 256-bit vector.
    fn lanes<A: CellAtomic>() -> usize {
        (256 / A::BITS) as usize
    }

    /// [`scan_nonempty_mask`] over the window's whole vectors, with the
    /// scalar kernel covering the cells past the last one.
    #[inline(always)]
    fn nonempty_mask<A: CellAtomic>(self, window: &[A], empty: u64) -> u64 {
        let (body, tail) = window.split_at(window.len() - window.len() % Self::lanes::<A>());
        let p = body.as_ptr();
        // SAFETY: holding `self` proves AVX2; `body` is whole vectors of
        // live cells.
        let mask = unsafe {
            if A::BITS == 32 {
                x86::nonempty_mask_avx2_u32(p.cast(), body.len(), empty)
            } else {
                x86::nonempty_mask_avx2(p.cast(), body.len(), empty)
            }
        };
        if tail.is_empty() {
            mask
        } else {
            // A non-empty tail leaves `body.len() < 64`.
            mask | nonempty_mask_scalar(tail, empty) << body.len()
        }
    }

    /// Fills `out` from the full window `cells[start..start + MAX_WINDOW]`
    /// with one vector load (256-bit over 64-bit cells, 128-bit over
    /// 32-bit cells).
    #[inline(always)]
    fn load_full_window<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        out: &mut [u64; MAX_WINDOW],
    ) {
        let window = &cells[start..start + MAX_WINDOW];
        // SAFETY: holding `self` proves AVX2 (a superset of SSE2); the
        // window is `MAX_WINDOW` live cells (see the module docs for the
        // race argument).
        unsafe {
            if A::BITS == 32 {
                x86::load4_u32_sse2(window.as_ptr().cast(), out.as_mut_ptr())
            } else {
                x86::load4_avx2(window.as_ptr().cast(), out.as_mut_ptr())
            }
        }
    }
}

/// An operation on a table `T` with a reference scalar form and a wide
/// form written once over the bound kernel — the unit [`dispatch`]
/// runs. The table is passed to the forms as an argument of its own
/// rather than carried in the op, so each out-of-line form has it as a
/// shared-reference parameter: the compiler may then keep the table's
/// fields in registers across the probe loop's atomic operations.
pub trait TierOp<T: ?Sized>: Sized {
    /// The operation's result.
    type Out;
    /// Whether the wide form applies at all (false for entry types
    /// without a maskable key, which only the scalar loops understand).
    const WIDE: bool = true;
    /// The per-cell atomic form: the scalar tier's reference semantics.
    fn scalar(self, t: &T) -> Self::Out;
    /// The wide form with kernel `k` bound for the whole operation.
    fn wide<K: Kernel>(self, t: &T, k: K) -> Self::Out;
}

/// Runs `op` on `t` at the active tier: the wide form over the AVX2
/// kernel at `Avx2`, otherwise the scalar form (counted as
/// `SimdFallbacks` when the op cannot widen at `Avx2`). This is the
/// crate's one tier dispatch point for table operations. Only the tier
/// branch is inlined into callers; each form runs out of line, so a
/// call site stays small and the probe loop gets a function of its own.
#[inline(always)]
pub fn dispatch<T: ?Sized, Op: TierOp<T>>(t: &T, op: Op) -> Op::Out {
    let tier = tier();
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && Op::WIDE {
        phc_obs::probe!(count SimdRedispatches);
        // SAFETY: `tier()` reports Avx2 only when the CPU supports it.
        return unsafe { run_avx2(t, op) };
    }
    run_scalar(t, op, tier)
}

/// The scalar form (counting a fallback when a wide tier is active).
#[inline(never)]
fn run_scalar<T: ?Sized, Op: TierOp<T>>(t: &T, op: Op, tier: SimdTier) -> Op::Out {
    if tier != SimdTier::Scalar {
        phc_obs::probe!(count SimdFallbacks);
    }
    op.scalar(t)
}

/// The AVX2 trampoline: compiled with the feature enabled, so the
/// op's `#[inline(always)]` body and the kernel intrinsics inline into
/// one function per operation type.
///
/// # Safety
///
/// AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
unsafe fn run_avx2<T: ?Sized, Op: TierOp<T>>(t: &T, op: Op) -> Op::Out {
    op.wide(t, Avx2(()))
}

// ---------------------------------------------------------------------
// Scalar kernels (reference semantics, atomic loads)
// ---------------------------------------------------------------------
//
// The scalar tier's per-call scans, and the tails the AVX2 kernels
// hand over past their last whole vector.

fn scan_le_scalar<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    key_mask: u64,
    threshold: u64,
) -> ScanHit {
    for (j, cell) in cells[start..end].iter().enumerate() {
        let c = cell.load(Ordering::Acquire);
        if c & key_mask <= threshold {
            return (Some((start + j, c)), j + 1);
        }
    }
    (None, end - start)
}

fn scan_for_key_scalar<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    empty: u64,
    key_mask: u64,
    probe_masked: u64,
) -> ScanHit {
    for (j, cell) in cells[start..end].iter().enumerate() {
        let c = cell.load(Ordering::Acquire);
        if c == empty || c & key_mask == probe_masked {
            return (Some((start + j, c)), j + 1);
        }
    }
    (None, end - start)
}

#[inline]
fn nonempty_mask_scalar<A: CellAtomic>(window: &[A], empty: u64) -> u64 {
    let mut mask = 0u64;
    for (j, c) in window.iter().enumerate() {
        if c.load(Ordering::Acquire) != empty {
            mask |= 1 << j;
        }
    }
    mask
}

// ---------------------------------------------------------------------
// x86-64 kernels
// ---------------------------------------------------------------------
//
// SAFETY (all kernels below): callers hold an `Avx2` (proof that the
// CPU runs AVX2) and pass a pointer/range inside one live cell
// allocation, so every load is in bounds and naturally aligned. The
// loads are unsynchronized; see the module docs for why the phase
// discipline (quiescence or monotonicity + atomic confirm) makes that
// acceptable, and note that each 8- or 4-byte lane of an x86 vector
// load is individually non-tearing.
//
// The scans examine whole vectors only: each returns its hit, or
// `(None, lanes)` once fewer cells than one vector remain, leaving
// `[start + lanes, end)` to the scalar kernels (see `finish`).

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::ScanHit;
    use core::arch::x86_64::*;

    /// Sign-bit bias turning unsigned 64-bit order into signed order.
    const BIAS: i64 = i64::MIN;

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_le_avx2(
        ptr: *const u64,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        let maskv = _mm256_set1_epi64x(key_mask as i64);
        let biasv = _mm256_set1_epi64x(BIAS);
        let thr = _mm256_xor_si256(_mm256_set1_epi64x(threshold as i64), biasv);
        let mut i = start;
        while i + 4 <= end {
            let w = _mm256_loadu_si256(ptr.add(i).cast());
            let m = _mm256_xor_si256(_mm256_and_si256(w, maskv), biasv);
            let gt = _mm256_cmpgt_epi64(m, thr);
            let le = !(_mm256_movemask_pd(_mm256_castsi256_pd(gt)) as u32) & 0xF;
            if le != 0 {
                let lane = le.trailing_zeros() as usize;
                let mut lanes = [0u64; 4];
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), w);
                return (Some((i + lane, lanes[lane])), i + 4 - start);
            }
            i += 4;
        }
        (None, i - start)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_for_key_avx2(
        ptr: *const u64,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        let maskv = _mm256_set1_epi64x(key_mask as i64);
        let emptyv = _mm256_set1_epi64x(empty as i64);
        let probev = _mm256_set1_epi64x(probe_masked as i64);
        let mut i = start;
        while i + 4 <= end {
            let w = _mm256_loadu_si256(ptr.add(i).cast());
            let stop = _mm256_or_si256(
                _mm256_cmpeq_epi64(w, emptyv),
                _mm256_cmpeq_epi64(_mm256_and_si256(w, maskv), probev),
            );
            let bits = _mm256_movemask_pd(_mm256_castsi256_pd(stop)) as u32;
            if bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                let mut lanes = [0u64; 4];
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), w);
                return (Some((i + lane, lanes[lane])), i + 4 - start);
            }
            i += 4;
        }
        (None, i - start)
    }

    /// Occupancy mask of `len` cells, `len` a multiple of 4.
    #[target_feature(enable = "avx2")]
    pub unsafe fn nonempty_mask_avx2(ptr: *const u64, len: usize, empty: u64) -> u64 {
        let emptyv = _mm256_set1_epi64x(empty as i64);
        let mut mask = 0u64;
        let mut j = 0;
        while j + 4 <= len {
            let w = _mm256_loadu_si256(ptr.add(j).cast());
            let eq = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(w, emptyv))) as u64;
            mask |= (!eq & 0xF) << j;
            j += 4;
        }
        mask
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn load4_avx2(src: *const u64, dst: *mut u64) {
        _mm256_storeu_si256(dst.cast(), _mm256_loadu_si256(src.cast()));
    }

    // -----------------------------------------------------------------
    // 32-bit-cell kernels
    // -----------------------------------------------------------------
    //
    // Same scans over `u32` cells: twice the lanes per vector, with
    // native `cmpeq_epi32`/`cmpgt_epi32` compares. Masks/thresholds/
    // sentinels arrive as widened `u64`s and truncate losslessly
    // (sub-word reprs are `< 2^32`; the widened `u64::MAX` mask
    // truncates to the all-ones 32-bit mask).

    /// 32-bit-cell [`scan_le_avx2`]: 8 lanes per 256-bit vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_le_avx2_u32(
        ptr: *const u32,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        let maskv = _mm256_set1_epi32(key_mask as u32 as i32);
        let biasv = _mm256_set1_epi32(i32::MIN);
        let thr = _mm256_xor_si256(_mm256_set1_epi32(threshold as u32 as i32), biasv);
        let mut i = start;
        while i + 8 <= end {
            let w = _mm256_loadu_si256(ptr.add(i).cast());
            let m = _mm256_xor_si256(_mm256_and_si256(w, maskv), biasv);
            let gt = _mm256_cmpgt_epi32(m, thr);
            let le = !(_mm256_movemask_ps(_mm256_castsi256_ps(gt)) as u32) & 0xFF;
            if le != 0 {
                let lane = le.trailing_zeros() as usize;
                let mut lanes = [0u32; 8];
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), w);
                return (Some((i + lane, lanes[lane] as u64)), i + 8 - start);
            }
            i += 8;
        }
        (None, i - start)
    }

    /// 32-bit-cell [`scan_for_key_avx2`]: 8 lanes per vector.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn scan_for_key_avx2_u32(
        ptr: *const u32,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        let maskv = _mm256_set1_epi32(key_mask as u32 as i32);
        let emptyv = _mm256_set1_epi32(empty as u32 as i32);
        let probev = _mm256_set1_epi32(probe_masked as u32 as i32);
        let mut i = start;
        while i + 8 <= end {
            let w = _mm256_loadu_si256(ptr.add(i).cast());
            let stop = _mm256_or_si256(
                _mm256_cmpeq_epi32(w, emptyv),
                _mm256_cmpeq_epi32(_mm256_and_si256(w, maskv), probev),
            );
            let bits = _mm256_movemask_ps(_mm256_castsi256_ps(stop)) as u32;
            if bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                let mut lanes = [0u32; 8];
                _mm256_storeu_si256(lanes.as_mut_ptr().cast(), w);
                return (Some((i + lane, lanes[lane] as u64)), i + 8 - start);
            }
            i += 8;
        }
        (None, i - start)
    }

    /// 32-bit-cell occupancy mask of `len` cells, `len` a multiple of 8.
    #[target_feature(enable = "avx2")]
    pub unsafe fn nonempty_mask_avx2_u32(ptr: *const u32, len: usize, empty: u64) -> u64 {
        let emptyv = _mm256_set1_epi32(empty as u32 as i32);
        let mut mask = 0u64;
        let mut j = 0;
        while j + 8 <= len {
            let w = _mm256_loadu_si256(ptr.add(j).cast());
            let eq = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(w, emptyv))) as u64;
            mask |= (!eq & 0xFF) << j;
            j += 8;
        }
        mask
    }

    /// Loads 4 consecutive 32-bit cells and zero-extends them into 4
    /// `u64` window lanes (one 128-bit load + two unpacks).
    pub unsafe fn load4_u32_sse2(src: *const u32, dst: *mut u64) {
        let w = _mm_loadu_si128(src.cast());
        let z = _mm_setzero_si128();
        _mm_storeu_si128(dst.cast(), _mm_unpacklo_epi32(w, z));
        _mm_storeu_si128(dst.add(2).cast(), _mm_unpackhi_epi32(w, z));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes the tests that set or read the process-wide tier
    /// override, so neither observes the other's override.
    static TIER_LOCK: Mutex<()> = Mutex::new(());

    fn lock_tier() -> MutexGuard<'static, ()> {
        TIER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` on the AVX2 kernel if this CPU runs it.
    #[cfg(target_arch = "x86_64")]
    fn on_avx2<R>(f: impl FnOnce(Avx2) -> R) -> Option<R> {
        avx2_detected().then(|| f(Avx2(())))
    }

    fn cells_of(vals: &[u64]) -> Vec<AtomicU64> {
        vals.iter().map(|&v| AtomicU64::new(v)).collect()
    }

    /// Pseudorandom cell array mixing empties, small and huge values
    /// (both sides of the sign bit, so unsigned compares are stressed).
    fn random_cells(n: usize, seed: u64) -> Vec<AtomicU64> {
        (0..n as u64)
            .map(|i| {
                let h = phc_parutil::hash64(seed ^ i);
                AtomicU64::new(match h % 4 {
                    0 => 0,
                    1 => h | (1 << 63),
                    _ => h >> 16,
                })
            })
            .collect()
    }

    /// Pseudorandom 32-bit cell array (empties, values straddling the
    /// 32-bit sign bit) for the sub-word kernels.
    fn random_cells_u32(n: usize, seed: u64) -> Vec<AtomicU32> {
        (0..n as u64)
            .map(|i| {
                let h = phc_parutil::hash64(seed ^ i);
                AtomicU32::new(match h % 4 {
                    0 => 0,
                    1 => (h as u32) | (1 << 31),
                    _ => (h as u32) >> 8,
                })
            })
            .collect()
    }

    /// Checks a stop-scan over `[start, end)` whose stop condition is
    /// `stop`: the scalar kernel's result `scalar` must be the first
    /// stop lane, its value and the lanes up to it; the AVX2 result
    /// `wide` (where this CPU runs it) must be the same stop, counting
    /// whole vectors up to a stop inside them and single cells past the
    /// last whole vector. Returns the stop.
    fn check_scan<A: CellAtomic>(
        cells: &[A],
        start: usize,
        end: usize,
        stop: impl Fn(u64) -> bool,
        scalar: ScanHit,
        wide: Option<ScanHit>,
        what: &str,
    ) -> Option<(usize, u64)> {
        let first = (start..end).find(|&i| stop(cells[i].load(Ordering::Relaxed)));
        let want = (
            first.map(|i| (i, cells[i].load(Ordering::Relaxed))),
            first.map_or(end - start, |i| i - start + 1),
        );
        assert_eq!(scalar, want, "scalar kernel, {what}");
        #[cfg(target_arch = "x86_64")]
        if let Some(wide) = wide {
            let lanes = Avx2::lanes::<A>();
            let whole = (end - start) / lanes * lanes;
            let counted = if want.1 <= whole {
                want.1.div_ceil(lanes) * lanes
            } else {
                want.1
            };
            assert_eq!(wide, (want.0, counted), "AVX2 kernel, {what}");
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(wide.is_none());
        want.0
    }

    fn check_scan_le<A: CellAtomic>(
        cells: &[A],
        start: usize,
        end: usize,
        mask: u64,
        thr: u64,
    ) -> Option<(usize, u64)> {
        #[cfg(target_arch = "x86_64")]
        let wide = on_avx2(|k| k.scan_le(cells, start, end, mask, thr));
        #[cfg(not(target_arch = "x86_64"))]
        let wide = None;
        check_scan(
            cells,
            start,
            end,
            |c| c & mask <= thr,
            scan_le_scalar(cells, start, end, mask, thr),
            wide,
            &format!(
                "{}-bit [{start},{end}) thr {thr:#x} mask {mask:#x}",
                A::BITS
            ),
        )
    }

    fn check_scan_for_key<A: CellAtomic>(
        cells: &[A],
        start: usize,
        end: usize,
        empty: u64,
        mask: u64,
        probe: u64,
    ) -> Option<(usize, u64)> {
        let probe_masked = probe & mask;
        #[cfg(target_arch = "x86_64")]
        let wide = on_avx2(|k| k.scan_for_key(cells, start, end, empty, mask, probe_masked));
        #[cfg(not(target_arch = "x86_64"))]
        let wide = None;
        check_scan(
            cells,
            start,
            end,
            |c| c == empty || c & mask == probe_masked,
            scan_for_key_scalar(cells, start, end, empty, mask, probe_masked),
            wide,
            &format!(
                "{}-bit [{start},{end}) probe {probe:#x} mask {mask:#x}",
                A::BITS
            ),
        )
    }

    fn check_nonempty_mask<A: CellAtomic>(window: &[A], empty: u64) {
        let want = (0..window.len())
            .filter(|&j| window[j].load(Ordering::Relaxed) != empty)
            .fold(0u64, |m, j| m | (1 << j));
        let len = window.len();
        assert_eq!(
            nonempty_mask_scalar(window, empty),
            want,
            "scalar kernel, len {len}"
        );
        #[cfg(target_arch = "x86_64")]
        if let Some(mask) = on_avx2(|k| k.nonempty_mask(window, empty)) {
            assert_eq!(mask, want, "AVX2 kernel, {}-bit len {len}", A::BITS);
        }
        assert_eq!(
            scan_nonempty_mask(window, empty),
            want,
            "active tier, len {len}"
        );
    }

    /// Every `[start, end)` window of `cells` through [`load_window`] at
    /// the active tier, and every full window through the AVX2 load.
    fn check_load_window<A: CellAtomic>(cells: &[A]) {
        for start in 0..cells.len() {
            for end in start..=cells.len() {
                let mut buf = [0u64; MAX_WINDOW];
                let k = load_window(cells, start, end, &mut buf);
                assert_eq!(k, (end - start).min(MAX_WINDOW));
                let want: Vec<u64> = cells[start..start + k]
                    .iter()
                    .map(|c| c.load(Ordering::Relaxed))
                    .collect();
                assert_eq!(buf[..k], want[..], "active tier, [{start},{end})");
                #[cfg(target_arch = "x86_64")]
                if k == MAX_WINDOW {
                    if let Some(buf) = on_avx2(|a| {
                        let mut buf = [0u64; MAX_WINDOW];
                        a.load_full_window(cells, start, &mut buf);
                        buf
                    }) {
                        assert_eq!(
                            buf[..],
                            want[..],
                            "AVX2 load, {}-bit start {start}",
                            A::BITS
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiers_agree_on_scan_le() {
        let cells = random_cells(257, 0xA11CE);
        for &(start, end) in &[(0usize, 257usize), (3, 250), (100, 103), (7, 7)] {
            for &thr in &[0u64, 1, 1 << 40, u64::MAX >> 16, u64::MAX] {
                for &mask in &[u64::MAX, 0xFFFF_FFFF_0000_0000] {
                    check_scan_le(&cells, start, end, mask, thr);
                }
            }
        }
    }

    #[test]
    fn tiers_agree_on_scan_for_key() {
        let cells = random_cells(193, 0xBEE);
        // Pick probes that actually occur plus ones that do not.
        let mut probes: Vec<u64> = (0..8)
            .map(|i| cells[i * 20].load(Ordering::Relaxed))
            .collect();
        probes.push(0xDEAD_BEEF_0000_0001);
        for &(start, end) in &[(0usize, 193usize), (5, 188), (60, 64)] {
            // A probe must be a non-empty repr.
            for &probe in probes.iter().filter(|&&p| p != 0) {
                for &mask in &[u64::MAX, 0xFFFF_FFFF_0000_0000] {
                    check_scan_for_key(&cells, start, end, 0, mask, probe);
                }
            }
        }
    }

    #[test]
    fn tiers_agree_on_nonempty_mask() {
        let cells = random_cells(64, 7);
        for len in [0usize, 1, 2, 3, 4, 7, 8, 31, 63, 64] {
            check_nonempty_mask(&cells[..len], 0);
        }
    }

    #[test]
    fn load_window_matches_atomic_loads() {
        check_load_window(&random_cells(11, 0x10AD));
    }

    #[test]
    fn nonzero_empty_sentinel() {
        let empty = u64::MAX;
        let cells = cells_of(&[empty, 5, empty, 9, 1, empty, 3, 4, 6, empty]);
        let hit = check_scan_for_key(&cells, 1, 10, empty, u64::MAX, empty);
        assert_eq!(hit, Some((2, empty)));
        assert_eq!(scan_for_empty(&cells, 1, 10, empty).0, hit, "active tier");
        assert_eq!(
            check_scan_for_key(&cells, 6, 10, empty, u64::MAX, empty),
            Some((9, empty))
        );
        check_nonempty_mask(&cells, empty);
        check_nonempty_mask(&cells[..6], empty);
    }

    #[test]
    fn scan_le_unsigned_order_across_sign_bit() {
        // A cell with the top bit set is *greater* than a small
        // threshold under unsigned order — a signed compare would stop
        // on it. Both kernels must skip it, inside a vector and past
        // the last whole one.
        let cells = cells_of(&[1 << 63, (1 << 63) | 7, u64::MAX, 42, 1 << 63, 42]);
        assert_eq!(check_scan_le(&cells, 0, 6, u64::MAX, 1000), Some((3, 42)));
        assert_eq!(check_scan_le(&cells, 4, 6, u64::MAX, 1000), Some((5, 42)));
    }

    #[test]
    fn every_stop_lane_of_vectors_and_tail() {
        // One stop lane at each position of ranges up to two 32-bit
        // vectors plus a tail, after a prefix the scan must not look
        // at: every lane of a whole vector and of the scalar tail is
        // the stop once, at both cell widths.
        for start in [0usize, 3] {
            for len in 0..=20usize {
                for stop in start..=start + len {
                    let vals: Vec<u64> = (0..start + len)
                        .map(|i| if i < start || i == stop { 5 } else { 1 << 31 })
                        .collect();
                    let wide = cells_of(&vals);
                    let narrow: Vec<AtomicU32> =
                        vals.iter().map(|&v| AtomicU32::new(v as u32)).collect();
                    let end = start + len;
                    let want = (stop < end).then_some((stop, 5));
                    assert_eq!(check_scan_le(&wide, start, end, u64::MAX, 5), want);
                    assert_eq!(check_scan_le(&narrow, start, end, u64::MAX, 5), want);
                    assert_eq!(check_scan_for_key(&wide, start, end, 0, u64::MAX, 5), want);
                    assert_eq!(
                        check_scan_for_key(&narrow, start, end, 0, u64::MAX, 5),
                        want
                    );
                }
            }
        }
    }

    #[test]
    fn tiers_agree_on_scan_le_u32_cells() {
        let cells = random_cells_u32(261, 0xC0FFEE);
        for &(start, end) in &[(0usize, 261usize), (3, 250), (100, 104), (7, 7), (1, 9)] {
            for &thr in &[0u64, 1, 1 << 20, (u32::MAX >> 8) as u64, u32::MAX as u64] {
                for &mask in &[u64::MAX, 0xFFFF_0000] {
                    if let Some((_, v)) = check_scan_le(&cells, start, end, mask, thr) {
                        assert!(v <= u32::MAX as u64, "hit value must be zero-extended");
                    }
                }
            }
        }
    }

    #[test]
    fn tiers_agree_on_scan_for_key_u32_cells() {
        let cells = random_cells_u32(197, 0xBEE5);
        let mut probes: Vec<u64> = (0..8)
            .map(|i| cells[i * 20].load(Ordering::Relaxed) as u64)
            .collect();
        probes.push(0xDEAD_0001);
        for &(start, end) in &[(0usize, 197usize), (5, 188), (60, 65)] {
            for &probe in probes.iter().filter(|&&p| p != 0) {
                for &mask in &[u64::MAX, 0xFFFF_0000] {
                    check_scan_for_key(&cells, start, end, 0, mask, probe);
                }
            }
        }
    }

    #[test]
    fn tiers_agree_on_nonempty_mask_and_window_u32_cells() {
        let cells = random_cells_u32(64, 11);
        for len in [0usize, 1, 3, 4, 5, 8, 9, 31, 63, 64] {
            check_nonempty_mask(&cells[..len], 0);
        }
        check_load_window(&cells[..12]);
    }

    #[test]
    fn u32_scan_le_unsigned_order_across_sign_bit() {
        // The 32-bit sign-bias trick: a cell with bit 31 set is greater
        // than a small threshold under unsigned order.
        let high = [1u32 << 31, (1 << 31) | 7, u32::MAX, (1 << 31) | 1000];
        let vals: Vec<u32> = high
            .iter()
            .chain(&[42])
            .chain(&high)
            .chain(&[1 << 31, 42])
            .copied()
            .collect();
        let cells: Vec<AtomicU32> = vals.iter().map(|&v| AtomicU32::new(v)).collect();
        assert_eq!(check_scan_le(&cells, 0, 11, u64::MAX, 1000), Some((4, 42)));
        assert_eq!(check_scan_le(&cells, 5, 11, u64::MAX, 1000), Some((10, 42)));
    }

    #[test]
    fn env_default_is_clamped_and_stable() {
        let _guard = lock_tier();
        let a = tier();
        let b = tier();
        assert_eq!(a, b);
        #[cfg(target_arch = "x86_64")]
        let has_avx2 = !cfg!(miri) && is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has_avx2 = false;
        let detected = if has_avx2 {
            SimdTier::Avx2
        } else {
            SimdTier::Scalar
        };
        // Unset, empty or unrecognized: the detected default.
        match std::env::var("PHC_SIMD").ok().as_deref() {
            Some("scalar") => assert_eq!(env_tier(), SimdTier::Scalar),
            env => assert_eq!(env_tier(), detected, "PHC_SIMD={env:?}"),
        }
        set_tier(Some(SimdTier::Avx2));
        assert_eq!(
            tier(),
            detected,
            "a forced Avx2 clamps to what the CPU runs"
        );
        set_tier(None);
        assert_eq!(tier(), a);
    }

    #[test]
    fn set_tier_round_trips() {
        let _guard = lock_tier();
        set_tier(Some(SimdTier::Scalar));
        assert_eq!(tier(), SimdTier::Scalar);
        set_tier(None);
        assert_eq!(tier(), env_tier());
    }
}
