//! Probe-layer benchmark: scalar vs SIMD scanning on the
//! deterministic linear-probing table (`linearHash-D`) and on the
//! SIMD-native Robin Hood contender (`robinHood`).
//!
//! For each load factor (1/3, 1/2, 3/4 of a 2^`--log2` cell table) and
//! thread count (1, 2, 8), measures find / insert / elements
//! throughput twice per table: once with the dispatch pinned to the
//! scalar reference loops (`SimdTier::Scalar`) and once with the
//! widest tier the host supports (the `PHC_SIMD` auto default). Both
//! layouts are history-independent, so each pair of configurations
//! probes byte-identical cell arrays — the comparison isolates the
//! scanning kernels. Comparing the two tables' rows against each other
//! (same loads, same keys) is the det-vs-robinHood contender ablation.
//!
//! The find workload interleaves present and absent keys 50/50:
//! unsuccessful searches scan to the end of a cluster, which is where
//! wide scanning pays most, and successful ones pin the common case.
//!
//! The insert workload times inserts *at* the labeled load: each rep
//! prefills a fresh table (untimed) with two thirds of the keys and
//! times only the final third, so the measured ops probe clusters of
//! the labeled density instead of averaging over the whole fill from
//! empty (which is dominated by short early-fill probes).
//!
//! Each table's sweep also reports per-rep allocation stats: the
//! table's own footprint (cells × cell width), bytes per stored key,
//! and the *peak* resident cells across a rep loop (the insert
//! measurement holds one prefilled table per rep, so its transient
//! footprint is `reps + 1` tables — a shrinking or pre-allocation
//! regression shows up here long before it shows up in timings).
//!
//! Run with `--json FILE` to dump the report envelope (meta + obs
//! snapshot + eight reports: find/insert/elements/memory ×
//! det/robinHood). The envelope's `meta.rss_bytes` records the
//! process RSS at dump time.
//! With `--features obs` the envelope's obs snapshot carries the
//! wide-path counters (`simd_redispatches`, `simd_misspeculations`,
//! `robinhood_shifts`) and both displacement histograms (`probe_len`
//! for det homes, `rh_displacement` for complement-homes). Without a
//! file name `--json` writes `BENCH_PR6.json`, which git ignores (the
//! PR 5 and PR 6 runs are in git history).

use phc_bench::{arg_or_env, datasets, report, Report};
use phc_core::entry::U64Key;
use phc_core::simd::{set_tier, tier, SimdTier};
use phc_core::{DetHashTable, RobinHoodHashTable};
use phc_parutil::with_pool;
use rayon::prelude::*;

/// Best-of-reps seconds for `f` (which must consume its work and
/// return something sinkable).
fn secs(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Million operations per second.
fn mops(ops: usize, s: f64) -> f64 {
    ops as f64 / s / 1e6
}

struct LoadCase {
    label: &'static str,
    n: usize,
    entries: Vec<U64Key>,
    /// 50/50 present/absent probe mix, `n` keys total.
    probes: Vec<U64Key>,
}

/// The shared benchmark surface of the two contenders. Both tables
/// expose identical batched production paths; this local trait only
/// exists so one measurement loop drives both.
trait BenchTable: Sync + Sized {
    const LABEL: &'static str;
    /// Width of one storage cell in bytes (the footprint multiplier).
    const CELL_BYTES: usize;
    fn build(log2: u32) -> Self;
    fn bulk_insert(&self, entries: &[U64Key]);
    fn bulk_find(&self, probes: &[U64Key]) -> usize;
    fn elements_len(&self) -> usize;
    /// Cells currently held live by this table.
    fn resident_cells(&self) -> usize;
    /// Mirrors the quiescent displacement distribution into the obs
    /// histograms (no-op without `--features obs`).
    fn record_displacements(&self);
}

impl BenchTable for DetHashTable<U64Key> {
    const LABEL: &'static str = "linearHash-D";
    const CELL_BYTES: usize = phc_core::cell::cell_bytes::<u64>();
    fn build(log2: u32) -> Self {
        DetHashTable::new_pow2(log2)
    }
    fn bulk_insert(&self, entries: &[U64Key]) {
        self.par_insert_batched(entries);
    }
    fn bulk_find(&self, probes: &[U64Key]) -> usize {
        probes
            .par_chunks(2048)
            .map(|c| self.find_batch(c).iter().flatten().count())
            .sum()
    }
    fn elements_len(&self) -> usize {
        self.elements().len()
    }
    fn resident_cells(&self) -> usize {
        self.capacity()
    }
    fn record_displacements(&self) {
        phc_core::stats::record_probe_histogram::<U64Key>(&self.snapshot());
    }
}

impl BenchTable for RobinHoodHashTable<U64Key> {
    const LABEL: &'static str = "robinHood";
    const CELL_BYTES: usize = phc_core::cell::cell_bytes::<u64>();
    fn build(log2: u32) -> Self {
        RobinHoodHashTable::new_pow2(log2)
    }
    fn bulk_insert(&self, entries: &[U64Key]) {
        self.par_insert_batched(entries);
    }
    fn bulk_find(&self, probes: &[U64Key]) -> usize {
        probes
            .par_chunks(2048)
            .map(|c| self.find_batch(c).iter().flatten().count())
            .sum()
    }
    fn elements_len(&self) -> usize {
        self.elements().len()
    }
    fn resident_cells(&self) -> usize {
        self.capacity()
    }
    fn record_displacements(&self) {
        self.record_displacement_histogram();
    }
}

/// Runs the full load × thread × tier sweep for one table kind,
/// returning `[find, insert, elements, memory]` reports.
fn sweep<T: BenchTable>(
    cases: &[LoadCase],
    log2: u32,
    reps: usize,
    threads: &[usize],
) -> [Report; 4] {
    let cols = ["scalar Mops", "simd Mops", "speedup"];
    let name = T::LABEL;
    let mut find = Report::new(format!("Find throughput ({name}), 2^{log2} cells"), &cols);
    let mut insert = Report::new(format!("Insert throughput ({name}), 2^{log2} cells"), &cols);
    let mut elements = Report::new(
        format!("Elements throughput ({name}), 2^{log2} cells"),
        &cols,
    );
    let mut memory = Report::new(
        format!("Memory ({name}), 2^{log2} cells"),
        &["table MB", "bytes/key", "peak MB"],
    );

    for case in cases {
        // Per-rep allocation stats: the highest number of cells this
        // case ever holds live at once (find table + per-rep prefills).
        let mut peak_cells = 0usize;
        // One prebuilt table per load: history independence makes the
        // layout identical no matter which tier built it.
        let table = T::build(log2);
        table.bulk_insert(&case.entries);
        table.record_displacements();

        // Insert is measured *at* the labeled load, not on the way to
        // it: each rep gets a table prefilled (untimed) with the first
        // two thirds of the keys, and the timed region inserts the
        // final third — the ops that actually land in clusters of the
        // labeled density.
        let split = case.entries.len() * 2 / 3;
        let (base, tail) = case.entries.split_at(split);

        for &t in threads {
            let by_tier = |pin: Option<SimdTier>| {
                set_tier(pin);
                let r = with_pool(t, |pool| {
                    let f = secs(reps, || {
                        // The production bulk-lookup path: batched
                        // finds with software prefetching.
                        pool.install(|| table.bulk_find(&case.probes))
                    });
                    // Pre-allocating the per-rep tables also keeps
                    // page-faulting the fresh zeroed array out of the
                    // timing (it costs the same in both tiers and only
                    // dilutes the comparison).
                    let mut prefilled: Vec<T> = (0..reps)
                        .map(|_| {
                            let fresh = T::build(log2);
                            pool.install(|| fresh.bulk_insert(base));
                            fresh
                        })
                        .collect();
                    // High-water mark of the rep loop: every prefilled
                    // table plus the shared find table are live here.
                    let peak = table.resident_cells()
                        + prefilled.iter().map(T::resident_cells).sum::<usize>();
                    let i = secs(reps, || {
                        let fresh = prefilled.pop().expect("one table per rep");
                        pool.install(|| fresh.bulk_insert(tail));
                        tail.len()
                    });
                    let e = secs(reps, || pool.install(|| table.elements_len()));
                    (f, i, e, peak)
                });
                set_tier(None);
                r
            };
            let (sf, si, se, peak) = by_tier(Some(SimdTier::Scalar));
            let (wf, wi, we, _) = by_tier(None);
            peak_cells = peak_cells.max(peak);
            let label = format!("load={} T={t}", case.label);
            find.push(
                label.clone(),
                vec![
                    Some(mops(case.probes.len(), sf)),
                    Some(mops(case.probes.len(), wf)),
                    Some(sf / wf),
                ],
            );
            insert.push(
                label.clone(),
                vec![
                    Some(mops(tail.len(), si)),
                    Some(mops(tail.len(), wi)),
                    Some(si / wi),
                ],
            );
            elements.push(
                label,
                vec![
                    Some(mops(case.n, se)),
                    Some(mops(case.n, we)),
                    Some(se / we),
                ],
            );
        }

        let table_bytes = (table.resident_cells() * T::CELL_BYTES) as f64;
        memory.push(
            format!("load={}", case.label),
            vec![
                Some(table_bytes / 1e6),
                Some(table_bytes / case.n as f64),
                Some((peak_cells * T::CELL_BYTES) as f64 / 1e6),
            ],
        );
    }
    [find, insert, elements, memory]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let log2 = arg_or_env(&args, "--log2", "PHC_LOG2", 16) as u32;
    let reps = arg_or_env(&args, "--reps", "PHC_REPS", 5);
    let cap = 1usize << log2;
    let threads = [1usize, 2, 8];
    let wide = tier(); // auto-dispatched tier on this host
    println!(
        "# Probe bench: scalar vs {} scanning, 2^{log2} cells, threads = {threads:?}\n",
        wide.name()
    );

    let cases: Vec<LoadCase> = [("1/3", cap / 3), ("1/2", cap / 2), ("3/4", cap * 3 / 4)]
        .into_iter()
        .enumerate()
        .map(|(i, (label, n))| {
            let data = datasets::random_int(n, 1 + i as u64);
            let probes = data
                .inserted
                .iter()
                .zip(data.random.iter())
                .flat_map(|(&p, &a)| [p, a])
                .take(n)
                .collect();
            LoadCase {
                label,
                n,
                entries: data.inserted,
                probes,
            }
        })
        .collect();

    let det = sweep::<DetHashTable<U64Key>>(&cases, log2, reps, &threads);
    let rh = sweep::<RobinHoodHashTable<U64Key>>(&cases, log2, reps, &threads);

    for r in det.iter().chain(rh.iter()) {
        r.print();
    }
    println!(
        "(speedup = scalar seconds / simd seconds; simd tier = {})\n",
        wide.name()
    );

    if let Some(pos) = args.iter().position(|a| a == "--json") {
        let path = args
            .get(pos + 1)
            .map(String::as_str)
            .unwrap_or("BENCH_PR6.json");
        let [df, di, de, dm] = det;
        let [rf, ri, re, rm] = rh;
        report::write_json(path, &[df, di, de, dm, rf, ri, re, rm]).expect("failed to write JSON");
        println!("wrote {path}");
    }
}
