//! Wide-scan (SIMD) primitives over the cell array.
//!
//! Every hot path in this crate — linear-probe find, the insert
//! empty/lower-priority search, `elements()` packing, migration
//! draining, and occupancy counting — is a forward scan over a
//! contiguous `AtomicU64` array: exactly the shape wide vector loads
//! were built for. This module provides those scans with runtime
//! dispatch AVX2 → SSE2 → scalar and a `PHC_SIMD` environment knob
//! (read once, like `PHC_THREADS`) to pin a tier for benchmarking and
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
//! | `sse2` | 128-bit | 2 (64-bit compares synthesized from 32-bit ops) | 4 (native `epi32` ops) |
//! | `scalar` | — | 1 (per-cell atomic loads; the reference semantics) | 1 |
//!
//! Every kernel is instantiated per cell width (see [`crate::cell`]):
//! the public scans are generic over the atomic cell type, dispatch on
//! `A::BITS` (a constant, so the branch folds away), and always speak
//! zero-extended `u64` values to callers. Sub-word cells double the
//! lanes per vector *and* halve the bytes per examined cell — the two
//! compounding wins of the compact-entry layout.
//!
//! SSE2 is the x86-64 baseline, so the `sse2` tier is always available
//! there; `avx2` is used when `is_x86_feature_detected!` reports it (or
//! falls back one tier, counted in `SimdFallbacks`, when `PHC_SIMD=avx2`
//! is forced on hardware without it). Non-x86 targets always run scalar.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::cell::CellAtomic;

/// A dispatch tier for the wide-scan kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimdTier {
    /// Per-cell atomic loads — the reference semantics.
    Scalar,
    /// 128-bit kernels (x86-64 baseline).
    Sse2,
    /// 256-bit kernels (runtime-detected).
    Avx2,
}

impl SimdTier {
    /// Stable lowercase name (matches the `PHC_SIMD` values).
    pub fn name(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// Clamps a requested tier to what this build/CPU can actually run.
/// Downgrades are counted as `SimdFallbacks`.
fn clamp(requested: SimdTier) -> SimdTier {
    if cfg!(miri) {
        // Wide raw loads are outside the model Miri checks; always take
        // the atomic scalar kernels under it.
        return SimdTier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if requested == SimdTier::Avx2 && !is_x86_feature_detected!("avx2") {
            phc_obs::probe!(count SimdFallbacks);
            return SimdTier::Sse2;
        }
        requested
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        if requested != SimdTier::Scalar {
            phc_obs::probe!(count SimdFallbacks);
        }
        SimdTier::Scalar
    }
}

/// The tier selected by the environment (read **once**): `PHC_SIMD` is
/// `avx2`, `sse2` or `scalar`, defaulting to the best detected tier.
fn env_tier() -> SimdTier {
    static DEFAULT: OnceLock<SimdTier> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let requested = match std::env::var("PHC_SIMD").ok().as_deref() {
            Some("scalar") => SimdTier::Scalar,
            Some("sse2") => SimdTier::Sse2,
            Some("avx2") => SimdTier::Avx2,
            // Unset (or unrecognized): auto-detect the best tier.
            _ => SimdTier::Avx2,
        };
        clamp(requested)
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
        2 => SimdTier::Sse2,
        3 => SimdTier::Avx2,
        _ => env_tier(),
    }
}

/// Overrides the dispatch tier process-wide (`None` restores the
/// environment default). For benchmarks and differential tests that
/// compare tiers within one process; requests are clamped to what the
/// CPU supports, so forcing `Avx2` on a non-AVX2 box runs SSE2 (and
/// anything non-scalar on a non-x86 box runs scalar). Every tier
/// produces identical results on quiescent tables, so flipping this
/// concurrently with table operations is benign, if pointless.
pub fn set_tier(tier: Option<SimdTier>) {
    let code = match tier.map(clamp) {
        None => 0,
        Some(SimdTier::Scalar) => 1,
        Some(SimdTier::Sse2) => 2,
        Some(SimdTier::Avx2) => 3,
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
// Dispatch wrappers
// ---------------------------------------------------------------------

/// First index `i` in `[start, end)` with
/// `cells[i] & key_mask <= threshold` (unsigned): the stop condition of
/// the deterministic table's prioritized probe, where `threshold` is
/// the masked repr being inserted or sought. Under the
/// [`SIMD_KEY_MASK`](crate::entry::HashEntry::SIMD_KEY_MASK) contract a
/// stop lane is an exact key match iff its masked value *equals*
/// `threshold`; anything below is empty or lower priority.
#[inline]
pub fn scan_le<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    key_mask: u64,
    threshold: u64,
) -> ScanHit {
    debug_assert!(start <= end && end <= cells.len());
    // Each call resolves the tier at runtime; hot loops bind a kernel
    // once per operation/batch through [`dispatch`] instead.
    phc_obs::probe!(count SimdRedispatches);
    match tier() {
        // `tier()` reports Avx2 only when the CPU supports it.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => Avx2(()).scan_le(cells, start, end, key_mask, threshold),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => Sse2.scan_le(cells, start, end, key_mask, threshold),
        _ => Portable.scan_le(cells, start, end, key_mask, threshold),
    }
}

/// First index `i` in `[start, end)` with `cells[i] == empty` or
/// `cells[i] & key_mask == probe & key_mask`: the stop condition of the
/// ND table's first-fit probe (an empty slot or the probe's own key).
#[inline]
pub fn scan_for_key<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    empty: u64,
    key_mask: u64,
    probe: u64,
) -> ScanHit {
    debug_assert!(start <= end && end <= cells.len());
    phc_obs::probe!(count SimdRedispatches);
    let probe_masked = probe & key_mask;
    match tier() {
        // `tier()` reports Avx2 only when the CPU supports it.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => Avx2(()).scan_for_key(cells, start, end, empty, key_mask, probe_masked),
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => Sse2.scan_for_key(cells, start, end, empty, key_mask, probe_masked),
        _ => Portable.scan_for_key(cells, start, end, empty, key_mask, probe_masked),
    }
}

/// First index `i` in `[start, end)` with `cells[i] == empty` — the
/// speculative empty-slot search. Equivalent to [`scan_for_key`] with a
/// key mask of 0... except that a zero mask would match every cell;
/// this is the dedicated raw-equality form.
#[inline]
pub fn scan_for_empty<A: CellAtomic>(cells: &[A], start: usize, end: usize, empty: u64) -> ScanHit {
    // An empty lane is the only lane whose repr equals `empty`, so the
    // key-or-empty kernel with the probe pinned to `empty` under a full
    // mask degenerates to exactly this search.
    scan_for_key(cells, start, end, empty, u64::MAX, empty)
}

/// Widest window [`load_window`] fills (the AVX2 lane count).
pub const MAX_WINDOW: usize = 4;

/// Loads up to [`MAX_WINDOW`] consecutive cells from `[start, end)`
/// into `out`, returning how many lanes were filled (0 when
/// `start >= end`). At the SSE2/AVX2 tiers full windows come from one
/// or two vector loads; partial windows and the scalar tier use
/// per-cell atomic loads. For probe loops whose per-cell predicate
/// cannot be vectorized (e.g. it must hash the entry, as in
/// `find_replacement`): the win is batched cache traffic, with each
/// lane still an individually valid (non-torn) cell value.
#[inline]
pub fn load_window<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    out: &mut [u64; MAX_WINDOW],
) -> usize {
    debug_assert!(end <= cells.len());
    let k = end.saturating_sub(start).min(MAX_WINDOW);
    #[cfg(target_arch = "x86_64")]
    {
        if A::BITS == 32 {
            // A full 4-cell window of 32-bit cells is one 128-bit load
            // (zero-extended on store-out); partial windows fall through
            // to the per-cell loads.
            if k == MAX_WINDOW && tier() != SimdTier::Scalar {
                unsafe {
                    x86::load4_u32_sse2(cells.as_ptr().cast::<u32>().add(start), out.as_mut_ptr())
                };
                return k;
            }
        } else {
            match tier() {
                SimdTier::Avx2 if k == MAX_WINDOW => {
                    // SAFETY: in-bounds, 8-byte-aligned; see module docs
                    // for the race argument.
                    unsafe {
                        x86::load4_avx2(cells.as_ptr().cast::<u64>().add(start), out.as_mut_ptr())
                    };
                    return k;
                }
                SimdTier::Sse2 | SimdTier::Avx2 if k >= 2 => {
                    unsafe {
                        let src = cells.as_ptr().cast::<u64>().add(start);
                        x86::load2_sse2(src, out.as_mut_ptr());
                        if k == 3 {
                            out[2] = cells[start + 2].load(Ordering::Acquire);
                        } else if k == 4 {
                            x86::load2_sse2(src.add(2), out.as_mut_ptr().add(2));
                        }
                    }
                    return k;
                }
                _ => {}
            }
        }
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
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe {
            if A::BITS == 32 {
                x86::nonempty_mask_avx2_u32(window.as_ptr().cast(), window.len(), empty)
            } else {
                nonempty_mask_avx2(window.as_ptr().cast(), window.len(), empty)
            }
        },
        #[cfg(target_arch = "x86_64")]
        SimdTier::Sse2 => unsafe {
            if A::BITS == 32 {
                x86::nonempty_mask_sse2_u32(window.as_ptr().cast(), window.len(), empty)
            } else {
                nonempty_mask_sse2(window.as_ptr().cast(), window.len(), empty)
            }
        },
        _ => nonempty_mask_scalar(window, empty),
    }
}

// ---------------------------------------------------------------------
// Tier kernels and the one dispatcher
// ---------------------------------------------------------------------
//
// Every table writes its wide probe bodies once, generic over
// `K: Kernel`; [`dispatch`] resolves the tier once per operation or
// batch and monomorphizes the body per tier. The AVX2 instantiation
// runs inside the single `#[target_feature(enable = "avx2")]`
// trampoline below, so the kernel intrinsics inline straight into the
// table's probe loop. The width branch folds on `A::BITS`; 32-bit
// instantiations feed the `Simd32LanesScanned` counter here, so every
// caller of the sub-word kernels is counted without touching the call
// sites.

/// A wide-scan kernel, bound once per operation or batch. One
/// zero-sized type per tier implements it; results are identical
/// across kernels (the differential suites assert it).
pub trait Kernel: Copy {
    /// [`scan_le`] at this kernel's tier.
    fn scan_le<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit;

    /// [`scan_for_key`] at this kernel's tier, with the probe already
    /// masked.
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

/// The 128-bit kernels (the x86-64 baseline).
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub struct Sse2;

/// Per-cell atomic scans behind the kernel interface: what the wide
/// bodies run on targets without vector kernels.
#[derive(Clone, Copy)]
pub struct Portable;

/// Counts the lanes a 32-bit-cell scan examined.
#[inline(always)]
fn count_sub_word<A: CellAtomic>(hit: ScanHit) -> ScanHit {
    if A::BITS == 32 {
        phc_obs::probe!(count Simd32LanesScanned, hit.1);
    }
    hit
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
        debug_assert!(start <= end && end <= cells.len());
        let p = cells.as_ptr();
        // SAFETY: holding `self` proves AVX2; the range is in bounds
        // (see the module docs for the wide-load race argument).
        count_sub_word::<A>(unsafe {
            if A::BITS == 32 {
                x86::scan_le_avx2_u32(p.cast(), start, end, key_mask, threshold)
            } else {
                x86::scan_le_avx2(p.cast(), start, end, key_mask, threshold)
            }
        })
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
        debug_assert!(start <= end && end <= cells.len());
        let p = cells.as_ptr();
        // SAFETY: as in `scan_le`.
        count_sub_word::<A>(unsafe {
            if A::BITS == 32 {
                x86::scan_for_key_avx2_u32(p.cast(), start, end, empty, key_mask, probe_masked)
            } else {
                x86::scan_for_key_avx2(p.cast(), start, end, empty, key_mask, probe_masked)
            }
        })
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel for Sse2 {
    #[inline(always)]
    fn scan_le<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        debug_assert!(start <= end && end <= cells.len());
        let p = cells.as_ptr();
        // SAFETY: SSE2 is the x86-64 baseline; the range is in bounds.
        count_sub_word::<A>(unsafe {
            if A::BITS == 32 {
                x86::scan_le_sse2_u32(p.cast(), start, end, key_mask, threshold)
            } else {
                x86::scan_le_sse2(p.cast(), start, end, key_mask, threshold)
            }
        })
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
        debug_assert!(start <= end && end <= cells.len());
        let p = cells.as_ptr();
        // SAFETY: as in `scan_le`.
        count_sub_word::<A>(unsafe {
            if A::BITS == 32 {
                x86::scan_for_key_sse2_u32(p.cast(), start, end, empty, key_mask, probe_masked)
            } else {
                x86::scan_for_key_sse2(p.cast(), start, end, empty, key_mask, probe_masked)
            }
        })
    }
}

impl Kernel for Portable {
    #[inline(always)]
    fn scan_le<A: CellAtomic>(
        self,
        cells: &[A],
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        scan_le_scalar(cells, start, end, key_mask, threshold)
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
        scan_for_key_scalar(cells, start, end, empty, key_mask, probe_masked)
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

/// Runs `op` on `t` at the active tier: the scalar form at `Scalar`
/// (or when the op cannot widen, counted as `SimdFallbacks`), otherwise
/// the wide form with the tier's kernel bound once. This is the crate's
/// one tier dispatch point for table operations. Only the tier branch
/// is inlined into callers; each form runs out of line, so a call site
/// stays small and the probe loop gets a function of its own.
#[inline(always)]
pub fn dispatch<T: ?Sized, Op: TierOp<T>>(t: &T, op: Op) -> Op::Out {
    let tier = tier();
    if tier == SimdTier::Scalar || !Op::WIDE {
        return run_scalar(t, op, tier);
    }
    phc_obs::probe!(count SimdRedispatches);
    match tier {
        // SAFETY: `tier()` reports Avx2 only when the CPU supports it.
        #[cfg(target_arch = "x86_64")]
        SimdTier::Avx2 => unsafe { run_avx2(t, op) },
        #[cfg(target_arch = "x86_64")]
        _ => run_wide(t, op, Sse2),
        #[cfg(not(target_arch = "x86_64"))]
        _ => run_wide(t, op, Portable),
    }
}

/// The scalar form (counting a fallback when a wide tier is active).
#[inline(never)]
fn run_scalar<T: ?Sized, Op: TierOp<T>>(t: &T, op: Op, tier: SimdTier) -> Op::Out {
    if tier != SimdTier::Scalar {
        phc_obs::probe!(count SimdFallbacks);
    }
    op.scalar(t)
}

/// The wide form at a baseline tier (no feature gate needed).
#[inline(never)]
fn run_wide<T: ?Sized, Op: TierOp<T>, K: Kernel>(t: &T, op: Op, k: K) -> Op::Out {
    op.wide(t, k)
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

fn scan_le_scalar<A: CellAtomic>(
    cells: &[A],
    start: usize,
    end: usize,
    key_mask: u64,
    threshold: u64,
) -> ScanHit {
    for (i, cell) in cells.iter().enumerate().take(end).skip(start) {
        let c = cell.load(Ordering::Acquire);
        if c & key_mask <= threshold {
            return (Some((i, c)), i - start + 1);
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
    for (i, cell) in cells.iter().enumerate().take(end).skip(start) {
        let c = cell.load(Ordering::Acquire);
        if c == empty || c & key_mask == probe_masked {
            return (Some((i, c)), i - start + 1);
        }
    }
    (None, end - start)
}

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
// SAFETY (all kernels below): callers pass a pointer/range inside one
// live `[AtomicU64]` allocation, so every load is in bounds and 8-byte
// aligned. The loads are unsynchronized; see the module docs for why
// the phase discipline (quiescence or monotonicity + atomic confirm)
// makes that acceptable, and note that each 8-byte lane of an x86
// vector load is individually non-tearing.

#[cfg(target_arch = "x86_64")]
pub(crate) mod x86 {
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
        tail_le(ptr, i, start, end, key_mask, threshold)
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
        tail_key(ptr, i, start, end, empty, key_mask, probe_masked)
    }

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
        while j < len {
            if ptr.add(j).read() != empty {
                mask |= 1 << j;
            }
            j += 1;
        }
        mask
    }

    /// Per-64-bit-lane `a == b` using only SSE2 (no `cmpeq_epi64`).
    #[inline(always)]
    unsafe fn eq64_sse2(a: __m128i, b: __m128i) -> __m128i {
        let eq32 = _mm_cmpeq_epi32(a, b);
        // Swap the 32-bit halves within each 64-bit lane and AND: a
        // lane is all-ones iff both its halves matched.
        _mm_and_si128(eq32, _mm_shuffle_epi32(eq32, 0xB1))
    }

    /// Per-64-bit-lane unsigned `a > b` using only SSE2: compare the
    /// biased 32-bit halves, then `hi_gt | (hi_eq & lo_gt)`.
    #[inline(always)]
    unsafe fn ugt64_sse2(a: __m128i, b: __m128i) -> __m128i {
        let bias32 = _mm_set1_epi32(i32::MIN);
        let gt32 = _mm_cmpgt_epi32(_mm_xor_si128(a, bias32), _mm_xor_si128(b, bias32));
        let eq32 = _mm_cmpeq_epi32(a, b);
        let hi_gt = _mm_shuffle_epi32(gt32, 0xF5); // hi results → both halves
        let lo_gt = _mm_shuffle_epi32(gt32, 0xA0); // lo results → both halves
        let hi_eq = _mm_shuffle_epi32(eq32, 0xF5);
        _mm_or_si128(hi_gt, _mm_and_si128(hi_eq, lo_gt))
    }

    #[inline]
    pub unsafe fn scan_le_sse2(
        ptr: *const u64,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        let maskv = _mm_set1_epi64x(key_mask as i64);
        let thr = _mm_set1_epi64x(threshold as i64);
        let mut i = start;
        while i + 2 <= end {
            let w = _mm_loadu_si128(ptr.add(i).cast());
            let gt = ugt64_sse2(_mm_and_si128(w, maskv), thr);
            let le = !(_mm_movemask_pd(_mm_castsi128_pd(gt)) as u32) & 0x3;
            if le != 0 {
                let lane = le.trailing_zeros() as usize;
                let mut lanes = [0u64; 2];
                _mm_storeu_si128(lanes.as_mut_ptr().cast(), w);
                return (Some((i + lane, lanes[lane])), i + 2 - start);
            }
            i += 2;
        }
        tail_le(ptr, i, start, end, key_mask, threshold)
    }

    #[inline]
    pub unsafe fn scan_for_key_sse2(
        ptr: *const u64,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        let maskv = _mm_set1_epi64x(key_mask as i64);
        let emptyv = _mm_set1_epi64x(empty as i64);
        let probev = _mm_set1_epi64x(probe_masked as i64);
        let mut i = start;
        while i + 2 <= end {
            let w = _mm_loadu_si128(ptr.add(i).cast());
            let stop = _mm_or_si128(
                eq64_sse2(w, emptyv),
                eq64_sse2(_mm_and_si128(w, maskv), probev),
            );
            let bits = _mm_movemask_pd(_mm_castsi128_pd(stop)) as u32;
            if bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                let mut lanes = [0u64; 2];
                _mm_storeu_si128(lanes.as_mut_ptr().cast(), w);
                return (Some((i + lane, lanes[lane])), i + 2 - start);
            }
            i += 2;
        }
        tail_key(ptr, i, start, end, empty, key_mask, probe_masked)
    }

    pub unsafe fn nonempty_mask_sse2(ptr: *const u64, len: usize, empty: u64) -> u64 {
        let emptyv = _mm_set1_epi64x(empty as i64);
        let mut mask = 0u64;
        let mut j = 0;
        while j + 2 <= len {
            let w = _mm_loadu_si128(ptr.add(j).cast());
            let eq = _mm_movemask_pd(_mm_castsi128_pd(eq64_sse2(w, emptyv))) as u64;
            mask |= (!eq & 0x3) << j;
            j += 2;
        }
        while j < len {
            if ptr.add(j).read() != empty {
                mask |= 1 << j;
            }
            j += 1;
        }
        mask
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn load4_avx2(src: *const u64, dst: *mut u64) {
        _mm256_storeu_si256(dst.cast(), _mm256_loadu_si256(src.cast()));
    }

    pub unsafe fn load2_sse2(src: *const u64, dst: *mut u64) {
        _mm_storeu_si128(dst.cast(), _mm_loadu_si128(src.cast()));
    }

    // -----------------------------------------------------------------
    // 32-bit-cell kernels
    // -----------------------------------------------------------------
    //
    // Same scans over `u32` cells: twice the lanes per vector, and the
    // compare ops are *native* at this width (AVX2/SSE2 both have
    // `cmpeq_epi32`/`cmpgt_epi32`, so no 64-bit synthesis is needed —
    // the SSE2 tier stops paying the shuffle tax it pays on 64-bit
    // cells). Masks/thresholds/sentinels arrive as widened `u64`s and
    // truncate losslessly (sub-word reprs are `< 2^32`; the widened
    // `u64::MAX` mask truncates to the all-ones 32-bit mask). Each
    // 4-byte lane of an x86 vector load is individually non-tearing,
    // exactly as for the 8-byte lanes.

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
        tail_le_u32(ptr, i, start, end, key_mask, threshold)
    }

    /// 32-bit-cell [`scan_le_sse2`]: 4 lanes, native `epi32` compares.
    #[inline]
    pub unsafe fn scan_le_sse2_u32(
        ptr: *const u32,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        let maskv = _mm_set1_epi32(key_mask as u32 as i32);
        let biasv = _mm_set1_epi32(i32::MIN);
        let thr = _mm_xor_si128(_mm_set1_epi32(threshold as u32 as i32), biasv);
        let mut i = start;
        while i + 4 <= end {
            let w = _mm_loadu_si128(ptr.add(i).cast());
            let m = _mm_xor_si128(_mm_and_si128(w, maskv), biasv);
            let gt = _mm_cmpgt_epi32(m, thr);
            let le = !(_mm_movemask_ps(_mm_castsi128_ps(gt)) as u32) & 0xF;
            if le != 0 {
                let lane = le.trailing_zeros() as usize;
                let mut lanes = [0u32; 4];
                _mm_storeu_si128(lanes.as_mut_ptr().cast(), w);
                return (Some((i + lane, lanes[lane] as u64)), i + 4 - start);
            }
            i += 4;
        }
        tail_le_u32(ptr, i, start, end, key_mask, threshold)
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
        tail_key_u32(ptr, i, start, end, empty, key_mask, probe_masked)
    }

    /// 32-bit-cell [`scan_for_key_sse2`]: 4 lanes, native compares.
    #[inline]
    pub unsafe fn scan_for_key_sse2_u32(
        ptr: *const u32,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        let maskv = _mm_set1_epi32(key_mask as u32 as i32);
        let emptyv = _mm_set1_epi32(empty as u32 as i32);
        let probev = _mm_set1_epi32(probe_masked as u32 as i32);
        let mut i = start;
        while i + 4 <= end {
            let w = _mm_loadu_si128(ptr.add(i).cast());
            let stop = _mm_or_si128(
                _mm_cmpeq_epi32(w, emptyv),
                _mm_cmpeq_epi32(_mm_and_si128(w, maskv), probev),
            );
            let bits = _mm_movemask_ps(_mm_castsi128_ps(stop)) as u32;
            if bits != 0 {
                let lane = bits.trailing_zeros() as usize;
                let mut lanes = [0u32; 4];
                _mm_storeu_si128(lanes.as_mut_ptr().cast(), w);
                return (Some((i + lane, lanes[lane] as u64)), i + 4 - start);
            }
            i += 4;
        }
        tail_key_u32(ptr, i, start, end, empty, key_mask, probe_masked)
    }

    /// 32-bit-cell occupancy mask: 8 lanes per AVX2 vector.
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
        while j < len {
            if ptr.add(j).read() as u64 != empty {
                mask |= 1 << j;
            }
            j += 1;
        }
        mask
    }

    /// 32-bit-cell occupancy mask: 4 lanes per SSE2 vector.
    pub unsafe fn nonempty_mask_sse2_u32(ptr: *const u32, len: usize, empty: u64) -> u64 {
        let emptyv = _mm_set1_epi32(empty as u32 as i32);
        let mut mask = 0u64;
        let mut j = 0;
        while j + 4 <= len {
            let w = _mm_loadu_si128(ptr.add(j).cast());
            let eq = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(w, emptyv))) as u64;
            mask |= (!eq & 0xF) << j;
            j += 4;
        }
        while j < len {
            if ptr.add(j).read() as u64 != empty {
                mask |= 1 << j;
            }
            j += 1;
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

    /// Scalar tail of the 32-bit `<=` scan (widened compares).
    #[inline(always)]
    unsafe fn tail_le_u32(
        ptr: *const u32,
        mut i: usize,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        while i < end {
            let c = ptr.add(i).read() as u64;
            if c & key_mask <= threshold {
                return (Some((i, c)), i - start + 1);
            }
            i += 1;
        }
        (None, end - start)
    }

    /// Scalar tail of the 32-bit key-or-empty scan.
    #[inline(always)]
    unsafe fn tail_key_u32(
        ptr: *const u32,
        mut i: usize,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        while i < end {
            let c = ptr.add(i).read() as u64;
            if c == empty || c & key_mask == probe_masked {
                return (Some((i, c)), i - start + 1);
            }
            i += 1;
        }
        (None, end - start)
    }

    /// Scalar tail of the `<=` scan over `[i, end)` (raw loads — same
    /// lanes the vector body would have examined).
    #[inline(always)]
    unsafe fn tail_le(
        ptr: *const u64,
        mut i: usize,
        start: usize,
        end: usize,
        key_mask: u64,
        threshold: u64,
    ) -> ScanHit {
        while i < end {
            let c = ptr.add(i).read();
            if c & key_mask <= threshold {
                return (Some((i, c)), i - start + 1);
            }
            i += 1;
        }
        (None, end - start)
    }

    /// Scalar tail of the key-or-empty scan over `[i, end)`.
    #[inline(always)]
    unsafe fn tail_key(
        ptr: *const u64,
        mut i: usize,
        start: usize,
        end: usize,
        empty: u64,
        key_mask: u64,
        probe_masked: u64,
    ) -> ScanHit {
        while i < end {
            let c = ptr.add(i).read();
            if c == empty || c & key_mask == probe_masked {
                return (Some((i, c)), i - start + 1);
            }
            i += 1;
        }
        (None, end - start)
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{nonempty_mask_avx2, nonempty_mask_sse2};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicU64};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serializes every test that sets or reads the process-wide tier
    /// override, so concurrently running tests never observe another
    /// test's override.
    static TIER_LOCK: Mutex<()> = Mutex::new(());

    fn lock_tier() -> MutexGuard<'static, ()> {
        TIER_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` under every tier this machine can execute, restoring
    /// the default afterwards.
    fn for_each_tier(f: impl Fn(SimdTier)) {
        let _guard = lock_tier();
        for t in [SimdTier::Scalar, SimdTier::Sse2, SimdTier::Avx2] {
            set_tier(Some(t));
            f(tier());
        }
        set_tier(None);
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

    fn scan_le_ref(
        cells: &[AtomicU64],
        start: usize,
        end: usize,
        mask: u64,
        thr: u64,
    ) -> Option<usize> {
        (start..end).find(|&i| cells[i].load(Ordering::Relaxed) & mask <= thr)
    }

    fn scan_key_ref(
        cells: &[AtomicU64],
        start: usize,
        end: usize,
        empty: u64,
        mask: u64,
        probe: u64,
    ) -> Option<usize> {
        (start..end).find(|&i| {
            let c = cells[i].load(Ordering::Relaxed);
            c == empty || c & mask == probe & mask
        })
    }

    #[test]
    fn tiers_agree_on_scan_le() {
        let cells = random_cells(257, 0xA11CE);
        for_each_tier(|t| {
            for &(start, end) in &[(0usize, 257usize), (3, 250), (100, 103), (7, 7)] {
                for &thr in &[0u64, 1, 1 << 40, u64::MAX >> 16, u64::MAX] {
                    for &mask in &[u64::MAX, 0xFFFF_FFFF_0000_0000] {
                        let expect = scan_le_ref(&cells, start, end, mask, thr);
                        let (got, lanes) = scan_le(&cells, start, end, mask, thr);
                        assert_eq!(
                            got.map(|(i, _)| i),
                            expect,
                            "tier {t:?} [{start},{end}) thr {thr:#x} mask {mask:#x}"
                        );
                        if let Some((i, v)) = got {
                            assert_eq!(
                                v,
                                cells[i].load(Ordering::Relaxed),
                                "hit value, tier {t:?}"
                            );
                        }
                        assert!(lanes <= end - start + 3, "lane count sane");
                    }
                }
            }
        });
    }

    #[test]
    fn tiers_agree_on_scan_for_key() {
        let cells = random_cells(193, 0xBEE);
        // Pick probes that actually occur plus ones that do not.
        let mut probes: Vec<u64> = (0..8)
            .map(|i| cells[i * 20].load(Ordering::Relaxed))
            .collect();
        probes.push(0xDEAD_BEEF_0000_0001);
        for_each_tier(|t| {
            for &(start, end) in &[(0usize, 193usize), (5, 188), (60, 64)] {
                for &probe in &probes {
                    if probe == 0 {
                        continue; // probe must be a non-empty repr
                    }
                    for &mask in &[u64::MAX, 0xFFFF_FFFF_0000_0000] {
                        let expect = scan_key_ref(&cells, start, end, 0, mask, probe);
                        let (got, _) = scan_for_key(&cells, start, end, 0, mask, probe);
                        assert_eq!(
                            got.map(|(i, _)| i),
                            expect,
                            "tier {t:?} [{start},{end}) probe {probe:#x} mask {mask:#x}"
                        );
                        if let Some((i, v)) = got {
                            assert_eq!(
                                v,
                                cells[i].load(Ordering::Relaxed),
                                "hit value, tier {t:?}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn tiers_agree_on_nonempty_mask() {
        let cells = random_cells(64, 7);
        for_each_tier(|t| {
            for len in [0usize, 1, 2, 3, 4, 7, 8, 31, 63, 64] {
                let expect: u64 = (0..len)
                    .filter(|&j| cells[j].load(Ordering::Relaxed) != 0)
                    .fold(0, |m, j| m | (1 << j));
                assert_eq!(
                    scan_nonempty_mask(&cells[..len], 0),
                    expect,
                    "tier {t:?} len {len}"
                );
            }
        });
    }

    #[test]
    fn load_window_matches_atomic_loads() {
        let cells = random_cells(11, 0x10AD);
        for_each_tier(|t| {
            for start in 0..cells.len() {
                for end in start..=cells.len() {
                    let mut buf = [0u64; MAX_WINDOW];
                    let k = load_window(&cells, start, end, &mut buf);
                    assert_eq!(k, (end - start).min(MAX_WINDOW), "tier {t:?}");
                    for (lane, &got) in buf[..k].iter().enumerate() {
                        assert_eq!(
                            got,
                            cells[start + lane].load(Ordering::Relaxed),
                            "tier {t:?} start {start} lane {lane}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn nonzero_empty_sentinel() {
        let empty = u64::MAX;
        let cells = cells_of(&[empty, 5, empty, 9, 1, empty]);
        for_each_tier(|t| {
            let (hit, _) = scan_for_empty(&cells, 1, 6, empty);
            assert_eq!(hit, Some((2, empty)), "tier {t:?}");
            assert_eq!(scan_nonempty_mask(&cells, empty), 0b011010, "tier {t:?}");
        });
    }

    #[test]
    fn scan_le_unsigned_order_across_sign_bit() {
        // A cell with the top bit set is *greater* than a small
        // threshold under unsigned order — a signed compare would stop
        // on it. All tiers must skip it.
        let cells = cells_of(&[1 << 63, (1 << 63) | 7, 42]);
        for_each_tier(|t| {
            let (hit, _) = scan_le(&cells, 0, 3, u64::MAX, 1000);
            assert_eq!(hit, Some((2, 42)), "tier {t:?}");
        });
    }

    /// Pseudorandom 32-bit cell array (empties, values straddling the
    /// 32-bit sign bit) for the sub-word kernel differentials.
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

    #[test]
    fn tiers_agree_on_scan_le_u32_cells() {
        let cells = random_cells_u32(261, 0xC0FFEE);
        let reference = |start: usize, end: usize, mask: u64, thr: u64| {
            (start..end).find(|&i| (cells[i].load(Ordering::Relaxed) as u64) & mask <= thr)
        };
        for_each_tier(|t| {
            for &(start, end) in &[(0usize, 261usize), (3, 250), (100, 104), (7, 7), (1, 9)] {
                for &thr in &[0u64, 1, 1 << 20, (u32::MAX >> 8) as u64, u32::MAX as u64] {
                    for &mask in &[u64::MAX, 0xFFFF_0000] {
                        let expect = reference(start, end, mask, thr);
                        let (got, lanes) = scan_le(&cells, start, end, mask, thr);
                        assert_eq!(
                            got.map(|(i, _)| i),
                            expect,
                            "tier {t:?} [{start},{end}) thr {thr:#x} mask {mask:#x}"
                        );
                        if let Some((i, v)) = got {
                            assert_eq!(v, cells[i].load(Ordering::Relaxed) as u64);
                            assert!(v <= u32::MAX as u64, "hit value must be zero-extended");
                        }
                        assert!(lanes <= end - start + 7, "lane count sane");
                    }
                }
            }
        });
    }

    #[test]
    fn tiers_agree_on_scan_for_key_u32_cells() {
        let cells = random_cells_u32(197, 0xBEE5);
        let mut probes: Vec<u64> = (0..8)
            .map(|i| cells[i * 20].load(Ordering::Relaxed) as u64)
            .collect();
        probes.push(0xDEAD_0001);
        for_each_tier(|t| {
            for &(start, end) in &[(0usize, 197usize), (5, 188), (60, 65)] {
                for &probe in &probes {
                    if probe == 0 {
                        continue;
                    }
                    for &mask in &[u64::MAX, 0xFFFF_0000] {
                        let expect = (start..end).find(|&i| {
                            let c = cells[i].load(Ordering::Relaxed) as u64;
                            c == 0 || c & (mask & u32::MAX as u64) == probe & mask & u32::MAX as u64
                        });
                        let (got, _) = scan_for_key(&cells, start, end, 0, mask, probe);
                        assert_eq!(
                            got.map(|(i, _)| i),
                            expect,
                            "tier {t:?} [{start},{end}) probe {probe:#x} mask {mask:#x}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn tiers_agree_on_nonempty_mask_and_window_u32_cells() {
        let cells = random_cells_u32(64, 11);
        for_each_tier(|t| {
            for len in [0usize, 1, 3, 4, 5, 8, 9, 31, 63, 64] {
                let expect: u64 = (0..len)
                    .filter(|&j| cells[j].load(Ordering::Relaxed) != 0)
                    .fold(0, |m, j| m | (1 << j));
                assert_eq!(
                    scan_nonempty_mask(&cells[..len], 0),
                    expect,
                    "tier {t:?} len {len}"
                );
            }
            for start in 0..12 {
                for end in start..=12 {
                    let mut buf = [0u64; MAX_WINDOW];
                    let k = load_window(&cells, start, end, &mut buf);
                    assert_eq!(k, (end - start).min(MAX_WINDOW), "tier {t:?}");
                    for (lane, &got) in buf[..k].iter().enumerate() {
                        assert_eq!(
                            got,
                            cells[start + lane].load(Ordering::Relaxed) as u64,
                            "tier {t:?} start {start} lane {lane}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn u32_scan_le_unsigned_order_across_sign_bit() {
        // The 32-bit sign-bias trick: a cell with bit 31 set is greater
        // than a small threshold under unsigned order.
        let cells: Vec<AtomicU32> = [1u32 << 31, (1 << 31) | 7, 42]
            .iter()
            .map(|&v| AtomicU32::new(v))
            .collect();
        for_each_tier(|t| {
            let (hit, _) = scan_le(&cells, 0, 3, u64::MAX, 1000);
            assert_eq!(hit, Some((2, 42)), "tier {t:?}");
        });
    }

    #[test]
    fn env_default_is_clamped_and_stable() {
        let _guard = lock_tier();
        let a = tier();
        let b = tier();
        assert_eq!(a, b);
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(a, SimdTier::Scalar);
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
