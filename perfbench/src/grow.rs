//! `grow`: 2^22 distinct `hash64(i) | 1` keys inserted into a
//! `ResizableTable<U64Key>` seeded at 2^4 cells, each insert timed.
//! The table ends at 2^23 cells after 19 doublings.

use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;

use phc_core::{DetHashTable, ResizableTable, U64Key};
use rayon::prelude::*;

use crate::layers::{self, canonical_log2, par_each, GROW_SEED_LOG2};
use crate::stats::{fnv_words, median, peak_rss_mib, secs, Clock};
use crate::trace::Trace;
use crate::{kv, Args, Outcome};

const LOG2_KEYS: u32 = 22;
const SETUPS: usize = 3;
/// Inserts slower than this are kept as spans in the traced run (the
/// per-insert p99.9 is a few tens of µs).
const STALL_NS: f64 = 100_000.0;
/// Keys pushed through the service path in the traced run.
const SERVICE_PREFIX: usize = 1 << 18;

fn keys(seed: u64) -> Vec<U64Key> {
    let base = phc_parutil::hash64(seed);
    (0..1u64 << LOG2_KEYS)
        .into_par_iter()
        .map(|i| U64Key::new(phc_parutil::hash64(base.wrapping_add(i)) | 1))
        .collect()
}

struct Rep {
    wall_s: f64,
    p50_ns: f64,
    p999_ns: f64,
    capacity: usize,
    len: usize,
    hash: u64,
}

/// One growth from 2^4 cells with every insert timed; the
/// normalization at phase end is inside the wall time.
fn rep(keys: &[U64Key], lat: &mut [u64], clock: &Clock, trace: Option<(&mut Trace, u32)>) -> Rep {
    let stalls = Mutex::new(Vec::new());
    let stall_ticks = clock.ticks_for(STALL_NS);
    let traced = trace.is_some();
    let (base_ns, base_ticks) = (trace.as_ref().map_or(0, |(tr, _)| tr.now()), clock.ticks());
    let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(GROW_SEED_LOG2);
    let t0 = Instant::now();
    t.insert_phase(|t| {
        keys.par_chunks(256)
            .zip(lat.par_chunks_mut(256))
            .for_each(|(kc, lc)| {
                for (&k, l) in kc.iter().zip(lc) {
                    let a = clock.ticks();
                    t.insert(k);
                    *l = clock.ticks().wrapping_sub(a);
                    if traced && *l > stall_ticks {
                        stalls.lock().expect("stall list").push((a, *l));
                    }
                }
            })
    });
    let wall_s = secs(t0);
    if let Some((tr, batch)) = trace {
        let to_ns = |ticks: u64| base_ns + clock.ns(ticks.wrapping_sub(base_ticks)) as u64;
        let stalls = stalls.into_inner().expect("stall list");
        let end = tr.now();
        if let Some(root) = tr.root("bench.grow_rep", batch, base_ns, end, stalls.len()) {
            for (a, d) in stalls {
                tr.child("resize.insert_stall", batch, root, to_ns(a), to_ns(a + d));
            }
        }
    }
    let n = lat.len();
    let p50 = *lat.select_nth_unstable(n / 2).1;
    let p999 = *lat.select_nth_unstable((n * 999).div_ceil(1000) - 1).1;
    Rep {
        wall_s,
        p50_ns: clock.ns(p50),
        p999_ns: clock.ns(p999),
        capacity: t.capacity(),
        len: t.len(),
        hash: t.with_raw_cells(|c| fnv_words(c.iter().map(|w| w.load(Ordering::Relaxed)))),
    }
}

fn measure(
    keys: &[U64Key],
    lat: &mut [u64],
    clock: &Clock,
    seconds: f64,
    min_reps: usize,
    mut trace: Option<&mut Trace>,
) -> Vec<Rep> {
    let mut reps = Vec::new();
    let t0 = Instant::now();
    while reps.len() < min_reps || secs(t0) < seconds {
        let i = reps.len();
        let tr = trace
            .as_deref_mut()
            .filter(|_| i % 2 == 1)
            .map(|tr| (tr, i as u32));
        reps.push(rep(keys, lat, clock, tr));
    }
    reps
}

/// Median over repetitions of each repetition's throughput.
fn mops<R: std::borrow::Borrow<Rep>>(reps: &[R], n: usize) -> f64 {
    let per_rep: Vec<f64> = reps
        .iter()
        .map(|r| n as f64 / r.borrow().wall_s / 1e6)
        .collect();
    median(&per_rep)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let keys = keys(args.seed);
    let n = keys.len();
    let final_log2 = canonical_log2(n);
    let clock = Clock::calibrate();
    println!(
        "# grow: {n} keys from 2^{GROW_SEED_LOG2} to 2^{final_log2} cells ({} MiB), \
         clock {:.4} ns/tick",
        (8usize << final_log2) >> 20,
        clock.ns(1)
    );

    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        // Construction plus one untimed growth (pool threads spun up,
        // allocator warm).
        let t0 = Instant::now();
        let mut t: ResizableTable<U64Key> = ResizableTable::new_pow2(GROW_SEED_LOG2);
        t.insert_phase(|t| par_each(&keys, |k| t.insert(k)));
        setups.push(secs(t0));
    }

    let mut lat = vec![0u64; n];
    let mut trace = Trace::new(1 << 16);
    let tr = args.trace.then_some(&mut trace);
    let reps = measure(&keys, &mut lat, &clock, args.seconds, 4, tr);
    let peak = peak_rss_mib();
    drop(lat);

    // Every grown table must equal one built directly at the final
    // capacity, cell for cell.
    let reference: DetHashTable<U64Key> = DetHashTable::new_pow2(final_log2);
    reference.par_insert_batched(&keys);
    let ref_hash = fnv_words(reference.snapshot());
    for r in &reps {
        out.attempted += n as u64;
        if r.hash != ref_hash || r.capacity != 1 << final_log2 || r.len != reference.len() {
            out.failed += n as u64;
        }
    }
    drop(reference);
    let (cap, len) = (reps[0].capacity, reps[0].len);

    if !args.trace {
        let p50: Vec<f64> = reps.iter().map(|r| r.p50_ns / 1e3).collect();
        let p999: Vec<f64> = reps.iter().map(|r| r.p999_ns / 1e3).collect();
        println!(
            "# per-insert latency: p50 {:.4} us, p99.9 {:.4} us (medians over {} reps of {n} inserts)",
            median(&p50),
            median(&p999),
            reps.len()
        );
        out.metric("throughput_mops", mops(&reps, n), "Mops/s");
        out.metric("latency_p50_us", median(&p50), "us");
        out.metric("latency_tail_us", median(&p999), "us");
        out.metric("bytes_per_key", (cap * 8) as f64 / len as f64, "B");
        out.metric("peak_rss_mib", peak, "MiB");
        out.metric("setup_s", median(&setups), "s");
        return out;
    }

    let parity = |p: usize| -> Vec<&Rep> { reps.iter().skip(p).step_by(2).collect() };
    let overhead = 1.0 - mops(&parity(1), n) / mops(&parity(0), n);
    let doublings = (cap.trailing_zeros() - GROW_SEED_LOG2) as u64;
    let (growth, prealloc) = layers::growth_pass(&keys, &clock, &mut out);
    let probing = layers::table_pass(&prealloc, &keys, &mut out);
    drop(prealloc);
    let log = kv::put_log(&keys[..SERVICE_PREFIX]);
    let service = kv::service_pass(&log, 0, args.seconds / 4.0, &mut out, &mut trace);
    service.emit(&mut out);
    layers::emit_common(&mut out, &growth, &probing);
    kv::emit_workload(&mut out, doublings, doublings, overhead);
    kv::write_trace(&trace, args);
    out
}
