//! `kv-zipf`, and the service-path attribution every traced run
//! shares.
//!
//! `kv-zipf` is a closed-loop replay through the rooms-core `KvServer`
//! (one submitter waits for each `apply_batch` reply): 4 shards seeded
//! at 2^10 cells, batch 1024, Zipf 0.99 over 2^16 keys, 60/35/5
//! get/put/del, after a warm-up replay that grows the shards.
//!
//! Every response is checked against a sequential model of the batch
//! semantics. The traced run rebuilds the request path from public
//! parts only — `shard_of`, then `ShardTable` calls, then the gather —
//! and requires its response log to hash equal to `apply_batch`'s.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use phc_core::entry::{KeepMin, KvPair};
use phc_core::{
    AutoPhaseGrowTable, DetHashTable, FcAutoGrowTable, FcHashTable, FlatTableCore, ResizableTable,
    U64Key,
};
use phc_server::{resp_hit, shard_of, KvServer, ShardTable, RESP_DEL_ACK, RESP_MISS, RESP_PUT_ACK};
use phc_workloads::{KvOp, KvWorkload};
use rayon::prelude::*;

use crate::layers;
use crate::stats::{fnv_words, median, peak_rss_mib, percentile, secs, summarize, Clock};
use crate::trace::Trace;
use crate::{Args, Outcome};

type Kv = KvPair<KeepMin>;

const SHARDS: usize = 4;
const SEED_LOG2: u32 = 10;
const BATCH: usize = 1024;
/// Ops in a generated log; replays cycle through it.
const LOG_OPS: usize = 1 << 22;
/// Set-ups per run (server construction plus the warm-up replay), of
/// which `setup_s` is the median; a replay of a fraction of a second
/// catches more host interference than the other workloads' set-ups.
const SETUPS: usize = 7;
/// A timed replay is cut into windows of this many batches (ten beyond
/// each window's p99); each reported figure is the median over windows
/// of that window's figure, so a burst of interference from outside the
/// process moves a few windows rather than the result.
const WINDOW_BATCHES: usize = 1024;

/// Throughput and batch-latency percentiles of one window.
struct Window {
    mops: f64,
    p50: f64,
    p90: f64,
    p99: f64,
}

impl Window {
    fn of(lat_us: &[f64], batch: usize) -> Window {
        let mut s = lat_us.to_vec();
        s.sort_by(f64::total_cmp);
        // Throughput over the batches up to the window's p99: the
        // slowest 1% are where a descheduled core lands.
        let kept = &s[..s.len() - s.len() / 100];
        Window {
            mops: (kept.len() * batch) as f64 / kept.iter().sum::<f64>(),
            p50: percentile(&s, 0.5),
            p90: percentile(&s, 0.9),
            p99: percentile(&s, 0.99),
        }
    }
}
/// Batches in each wrapper-versus-inner twin replay.
const TWIN_BATCHES: usize = 8192;

/// A shard core the benchmark can also drive through its inner
/// growable table (`raw_mut()`), for the twin replays that isolate the
/// wrapper's own time.
trait Core: ShardTable<KeepMin> + 'static {
    type Inner: FlatTableCore<Kv>;
    fn raw(&mut self) -> &mut ResizableTable<Kv, Self::Inner>;
}

type RoomsCore = AutoPhaseGrowTable<Kv>;
type FcCore = FcAutoGrowTable<Kv>;

impl Core for RoomsCore {
    type Inner = DetHashTable<Kv>;
    fn raw(&mut self) -> &mut ResizableTable<Kv, Self::Inner> {
        self.raw_mut()
    }
}

impl Core for FcCore {
    type Inner = FcHashTable<Kv>;
    fn raw(&mut self) -> &mut ResizableTable<Kv, Self::Inner> {
        self.raw_mut()
    }
}

/// Sequential reference model of a batch: puts (combining with
/// `KeepMin`), then deletes, then gets.
struct Model {
    vals: Vec<u32>,
}

impl Model {
    fn new(log: &[KvOp]) -> Model {
        let max_key = log.iter().map(|o| o.key()).max().unwrap_or(0);
        Model {
            vals: vec![0; max_key as usize + 1],
        }
    }

    fn apply(&mut self, ops: &[KvOp], expect: &mut Vec<u64>) {
        expect.clear();
        expect.resize(ops.len(), 0);
        for (e, op) in expect.iter_mut().zip(ops) {
            if let KvOp::Put { key, val } = *op {
                let v = &mut self.vals[key as usize];
                *v = if *v == 0 { val } else { (*v).min(val) };
                *e = RESP_PUT_ACK;
            }
        }
        for (e, op) in expect.iter_mut().zip(ops) {
            if let KvOp::Del { key } = *op {
                self.vals[key as usize] = 0;
                *e = RESP_DEL_ACK;
            }
        }
        for (e, op) in expect.iter_mut().zip(ops) {
            if let KvOp::Get { key } = *op {
                let v = self.vals[key as usize];
                *e = if v == 0 { RESP_MISS } else { resp_hit(v) };
            }
        }
    }
}

fn mismatches(got: &[u64], expect: &[u64]) -> u64 {
    got.iter().zip(expect).filter(|(a, b)| a != b).count() as u64
}

/// Tallies one `apply_batch` outcome against the model's responses. A
/// panic leaves every op of the batch unanswered, so all of them fail
/// (and a poisoned server keeps failing every later batch).
fn tally(r: std::thread::Result<Vec<u64>>, expect: &[u64], out: &mut Outcome) -> Vec<u64> {
    out.attempted += expect.len() as u64;
    match r {
        Ok(r) => {
            out.failed += mismatches(&r, expect);
            r
        }
        Err(_) => {
            out.failed += expect.len() as u64;
            Vec::new()
        }
    }
}

fn zipf_log(seed: u64) -> Vec<KvOp> {
    let w = KvWorkload {
        key_space: 1 << 16,
        zipf_s: 0.99,
        get_frac: 0.60,
        del_frac: 0.05,
        ..KvWorkload::default()
    };
    phc_workloads::kv_request_log(LOG_OPS, &w, seed)
}

/// Table 1's phase sequence as KV traffic: puts of `inserted`, gets of
/// `inserted`, gets of `random`, deletes of `random`.
pub fn phase_log(inserted: &[U64Key], random: &[U64Key]) -> Vec<KvOp> {
    let key = |k: &U64Key| u32::try_from(k.0).expect("randomSeq-int keys fit in u32");
    let puts = inserted.iter().map(|k| KvOp::Put {
        key: key(k),
        val: key(k),
    });
    let gets = inserted
        .iter()
        .chain(random)
        .map(|k| KvOp::Get { key: key(k) });
    let dels = random.iter().map(|k| KvOp::Del { key: key(k) });
    puts.chain(gets).chain(dels).collect()
}

/// One put per key, each key renamed to its 1-based position (the KV
/// key space is 32-bit; the reference model indexes by key).
pub fn put_log(keys: &[U64Key]) -> Vec<KvOp> {
    (1..=keys.len() as u32)
        .map(|key| KvOp::Put { key, val: 1 })
        .collect()
}

/// Distinct keys of a log in first-occurrence order.
fn distinct_keys(log: &[KvOp]) -> Vec<U64Key> {
    let max_key = log.iter().map(|o| o.key()).max().unwrap_or(0) as usize;
    let mut seen = vec![false; max_key + 1];
    log.iter()
        .filter(|o| !std::mem::replace(&mut seen[o.key() as usize], true))
        .map(|o| U64Key::new(o.key() as u64))
        .collect()
}

/// One shard's slice of a batch, grouped into the server's sub-phases.
#[derive(Clone, Default)]
struct Group {
    puts: Vec<Kv>,
    dels: Vec<Kv>,
    gets: Vec<Kv>,
    get_pos: Vec<u32>,
    resp: Vec<u64>,
    /// (start, end) ns of the shard job and of its put, del, get calls.
    times: [(u64, u64); 4],
}

impl Group {
    fn len(&self) -> usize {
        self.puts.len() + self.dels.len() + self.gets.len()
    }
}

/// The routing pass, from `shard_of` alone: groups each shard's ops by
/// sub-phase in submission order and acks puts and deletes.
fn route(ops: &[KvOp], groups: &mut [Group], resp: &mut Vec<u64>) {
    for g in groups.iter_mut() {
        g.puts.clear();
        g.dels.clear();
        g.gets.clear();
        g.get_pos.clear();
        g.resp.clear();
    }
    resp.clear();
    resp.resize(ops.len(), 0);
    for (i, op) in ops.iter().enumerate() {
        let g = &mut groups[shard_of(op.key(), groups.len())];
        match *op {
            KvOp::Put { key, val } => {
                g.puts.push(KvPair::new(key, val));
                resp[i] = RESP_PUT_ACK;
            }
            KvOp::Del { key } => {
                g.dels.push(KvPair::new(key, 0));
                resp[i] = RESP_DEL_ACK;
            }
            KvOp::Get { key } => {
                g.gets.push(KvPair::new(key, 0));
                g.get_pos.push(i as u32);
            }
        }
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// One shard's sub-phases through its `ShardTable`, timed.
fn run_group<T: ShardTable<KeepMin>>(t: &T, g: &mut Group, epoch: Instant) {
    g.times = [(0, 0); 4];
    g.times[0].0 = ns_since(epoch);
    if !g.puts.is_empty() {
        let a = ns_since(epoch);
        t.par_insert_batched(&g.puts);
        g.times[1] = (a, ns_since(epoch));
    }
    if !g.dels.is_empty() {
        let a = ns_since(epoch);
        t.par_delete_batched(&g.dels);
        g.times[2] = (a, ns_since(epoch));
    }
    if !g.gets.is_empty() {
        let a = ns_since(epoch);
        let found = t.par_find_batched(&g.gets);
        g.resp.extend(found.into_iter().map(|f| match f {
            Some(kv) => resp_hit(kv.value),
            None => RESP_MISS,
        }));
        g.times[3] = (a, ns_since(epoch));
    }
    g.times[0].1 = ns_since(epoch);
}

/// Per-batch component times of the decomposed replay, in µs.
struct Parts {
    route: f64,
    put: f64,
    del: f64,
    get: f64,
    max_shard: f64,
    gather: f64,
    total: f64,
    imbalance: f64,
    calls: usize,
}

/// The request path rebuilt from public parts: route with `shard_of`,
/// drive each shard's `ShardTable` in parallel (as the server does),
/// gather get responses to submission order.
struct Decomposed {
    shards: Vec<RoomsCore>,
    groups: Vec<Group>,
    resp: Vec<u64>,
}

impl Decomposed {
    fn new() -> Self {
        Decomposed {
            shards: (0..SHARDS)
                .map(|_| RoomsCore::new_pow2(SEED_LOG2))
                .collect(),
            groups: vec![Group::default(); SHARDS],
            resp: Vec::new(),
        }
    }

    fn apply(&mut self, ops: &[KvOp], epoch: Instant, trace: Option<(&mut Trace, u32)>) -> Parts {
        let t0 = ns_since(epoch);
        route(ops, &mut self.groups, &mut self.resp);
        let t1 = ns_since(epoch);
        if rayon::current_num_threads() > 1 {
            self.shards
                .par_iter()
                .zip(self.groups.par_iter_mut())
                .for_each(|(t, g)| run_group(t, g, epoch));
        } else {
            self.shards
                .iter()
                .zip(self.groups.iter_mut())
                .for_each(|(t, g)| run_group(t, g, epoch));
        }
        let t2 = ns_since(epoch);
        for g in &self.groups {
            for (&p, &r) in g.get_pos.iter().zip(&g.resp) {
                self.resp[p as usize] = r;
            }
        }
        let t3 = ns_since(epoch);

        let us = |(a, b): (u64, u64)| b.saturating_sub(a) as f64 / 1e3;
        let sum = |k: usize| self.groups.iter().map(|g| us(g.times[k])).sum::<f64>();
        let grain = phc_parutil::grain();
        let calls = (rayon::current_num_threads() > 1) as usize
            + self
                .groups
                .iter()
                .flat_map(|g| [g.puts.len(), g.dels.len(), g.gets.len()])
                .filter(|&l| l > grain)
                .count();
        let max_ops = self.groups.iter().map(Group::len).max().unwrap_or(0);
        let parts = Parts {
            route: us((t0, t1)),
            put: sum(1),
            del: sum(2),
            get: sum(3),
            max_shard: self
                .groups
                .iter()
                .map(|g| us(g.times[0]))
                .fold(0.0, f64::max),
            gather: us((t2, t3)),
            total: us((t0, t3)),
            imbalance: max_ops as f64 * SHARDS as f64 / ops.len().max(1) as f64,
            calls,
        };
        if let Some((tr, batch)) = trace {
            let children = 2 + 4 * self.groups.len();
            if let Some(root) = tr.root("server.batch", batch, t0, t3, children) {
                tr.child("router.route", batch, root, t0, t1);
                for g in &self.groups {
                    let (a, b) = g.times[0];
                    let job = tr.child("server.shard_job", batch, root, a, b);
                    for (k, layer) in [
                        (1, "shard_table.put"),
                        (2, "shard_table.del"),
                        (3, "shard_table.get"),
                    ] {
                        if g.times[k].1 > 0 {
                            tr.child(layer, batch, job, g.times[k].0, g.times[k].1);
                        }
                    }
                }
                tr.child("server.gather", batch, root, t2, t3);
            }
        }
        parts
    }
}

/// The wrapper's sub-phase calls for one shard.
fn wrapper_calls<C: Core>(t: &C, g: &Group) -> usize {
    if !g.puts.is_empty() {
        t.par_insert_batched(&g.puts);
    }
    if !g.dels.is_empty() {
        t.par_delete_batched(&g.dels);
    }
    if g.gets.is_empty() {
        return 0;
    }
    black_box(t.par_find_batched(&g.gets))
        .iter()
        .flatten()
        .count()
}

/// The same calls on the wrapper's inner growable table, normalizing
/// after writes exactly as the wrappers do.
fn inner_calls<C: Core>(t: &mut C, g: &Group) -> usize {
    let raw = t.raw();
    if !g.puts.is_empty() {
        raw.insert_phase(|r| r.par_insert_batched(&g.puts));
    }
    if !g.dels.is_empty() {
        raw.insert_phase(|r| r.par_delete_batched(&g.dels));
    }
    if g.gets.is_empty() {
        return 0;
    }
    black_box(raw.par_find_batched(&g.gets))
        .iter()
        .flatten()
        .count()
}

/// Mean of the medians over even and over odd batches: paired arms
/// alternate which runs first, and whichever runs second finds the
/// batch's keys warm in cache, so each parity carries the opposite bias.
fn order_balanced_median(diffs: &[f64]) -> f64 {
    let by_parity = |p: usize| -> Vec<f64> { diffs.iter().skip(p).step_by(2).copied().collect() };
    if diffs.len() < 2 {
        return median(diffs);
    }
    (median(&by_parity(0)) + median(&by_parity(1))) / 2.0
}

/// Result of a wrapper-versus-inner twin replay.
struct Twin {
    self_us: f64,
    switches_per_batch: f64,
    publishes: u64,
    capacity_changes: u64,
}

/// Replays the same batches into two shard sets of core `C`, one
/// through the wrapper and one through `raw()`, alternating which goes
/// first. A wrapper's self time is the difference per batch. Room
/// switches are counted from outside (an entry whose previous holder
/// was another room), and capacity changes are read from the inner
/// tables between batches.
fn twin_pass<C: Core>(log: &[KvOp], warm: usize, out: &mut Outcome) -> Twin {
    let wrapped: Vec<C> = (0..SHARDS).map(|_| C::new_pow2(SEED_LOG2)).collect();
    let mut inner: Vec<C> = (0..SHARDS).map(|_| C::new_pow2(SEED_LOG2)).collect();
    let mut groups = vec![Group::default(); SHARDS];
    let mut resp = Vec::new();
    for ops in log[..warm].chunks(BATCH) {
        route(ops, &mut groups, &mut resp);
        for (s, g) in groups.iter().enumerate() {
            wrapper_calls(&wrapped[s], g);
            inner_calls(&mut inner[s], g);
        }
    }
    let mut caps: Vec<usize> = inner.iter_mut().map(|t| t.raw().capacity()).collect();
    let (mut last_room, mut switches) = ([0u8; SHARDS], 0u64);
    let (mut publishes, mut capacity_changes) = (0u64, 0u64);
    let mut self_us = Vec::new();
    for (j, ops) in log.chunks(BATCH).take(TWIN_BATCHES).enumerate() {
        route(ops, &mut groups, &mut resp);
        let (mut w_ns, mut i_ns) = (0u64, 0u64);
        for (s, g) in groups.iter().enumerate() {
            for (room, used) in [
                (1, !g.puts.is_empty()),
                (2, !g.dels.is_empty()),
                (3, !g.gets.is_empty()),
            ] {
                if used {
                    switches += (last_room[s] != 0 && last_room[s] != room) as u64;
                    last_room[s] = room;
                }
            }
            let timed = |f: &mut dyn FnMut() -> usize| {
                let t0 = Instant::now();
                let hits = f();
                (t0.elapsed().as_nanos() as u64, hits)
            };
            let mut wrapper = || wrapper_calls(&wrapped[s], g);
            let mut inner_only = || inner_calls(&mut inner[s], g);
            let ((w, hw), (i, hi)) = if j.is_multiple_of(2) {
                let w = timed(&mut wrapper);
                (w, timed(&mut inner_only))
            } else {
                let i = timed(&mut inner_only);
                (timed(&mut wrapper), i)
            };
            w_ns += w;
            i_ns += i;
            out.attempted += g.gets.len() as u64;
            out.failed += hw.abs_diff(hi) as u64;
        }
        self_us.push((w_ns as f64 - i_ns as f64) / 1e3);
        for (t, cap) in inner.iter_mut().zip(caps.iter_mut()) {
            let c = t.raw().capacity();
            if c != *cap {
                capacity_changes += 1;
                publishes += c.trailing_zeros().abs_diff(cap.trailing_zeros()) as u64;
                *cap = c;
            }
        }
    }
    Twin {
        self_us: order_balanced_median(&self_us),
        switches_per_batch: switches as f64 / self_us.len() as f64,
        publishes,
        capacity_changes,
    }
}

/// Per-layer results of the service-path pass.
pub struct Service {
    route_us: f64,
    put_us: f64,
    del_us: f64,
    get_us: f64,
    max_shard_p50_us: f64,
    max_shard_p99_us: f64,
    imbalance: f64,
    gather_us: f64,
    server_self_us: f64,
    hit_ratio: f64,
    calls_per_batch: f64,
    rooms: Twin,
    fc: Twin,
    /// 1 − decomposed throughput / `apply_batch` throughput.
    pub overhead_frac: f64,
    /// Capacity changes of the rooms-core shards during the twin replay.
    pub publishes: u64,
    pub capacity_changes: u64,
}

impl Service {
    pub fn emit(&self, out: &mut Outcome) {
        out.metric("router.route_us", self.route_us, "us");
        out.metric("shard_table.put_us", self.put_us, "us");
        out.metric("shard_table.del_us", self.del_us, "us");
        out.metric("shard_table.get_us", self.get_us, "us");
        out.metric("shard_table.max_shard_p50_us", self.max_shard_p50_us, "us");
        out.metric("shard_table.max_shard_p99_us", self.max_shard_p99_us, "us");
        out.metric("shard_table.imbalance", self.imbalance, "ratio");
        out.metric("server.gather_us", self.gather_us, "us");
        out.metric("server.self_us", self.server_self_us, "us");
        out.metric("server.get_hit_ratio", self.hit_ratio, "ratio");
        out.metric(
            "rooms.switches_per_batch",
            self.rooms.switches_per_batch,
            "count",
        );
        out.metric("rooms.self_us", self.rooms.self_us, "us");
        out.metric("fc.self_us", self.fc.self_us, "us");
        out.metric("pool.calls_per_batch", self.calls_per_batch, "count");
    }
}

/// Service-path attribution over `log`: `apply_batch` on a rooms-core
/// server and the decomposed path on separate shards, both warmed with
/// `log[..warm]`, interleaved batch by batch (alternating which goes
/// first) for `seconds`; then the rooms and fc twin replays.
pub fn service_pass(
    log: &[KvOp],
    warm: usize,
    seconds: f64,
    out: &mut Outcome,
    trace: &mut Trace,
) -> Service {
    let batch = BATCH;
    let server: KvServer = KvServer::new(SHARDS, SEED_LOG2);
    let mut dec = Decomposed::new();
    let mut model = Model::new(log);
    let mut expect = Vec::new();
    let epoch = trace.epoch();
    for ops in log[..warm].chunks(batch) {
        model.apply(ops, &mut expect);
        let r = server.apply_batch(ops);
        dec.apply(ops, epoch, None);
        out.attempted += 2 * ops.len() as u64;
        out.failed += mismatches(&r, &expect) + mismatches(&dec.resp, &expect);
    }
    let stats0 = server.shard_stats();
    let (mut x_us, mut parts) = (Vec::new(), Vec::new());
    let (mut hx, mut hy) = (Vec::new(), Vec::new());
    let t_start = Instant::now();
    let mut j = 0usize;
    while j == 0 || secs(t_start) < seconds {
        for ops in log.chunks(batch) {
            model.apply(ops, &mut expect);
            let timed_x = || {
                let t0 = Instant::now();
                let r = catch_unwind(AssertUnwindSafe(|| server.apply_batch(ops)));
                (secs(t0) * 1e6, r)
            };
            let ((x, r), p);
            if j.is_multiple_of(2) {
                (x, r) = timed_x();
                p = dec.apply(ops, epoch, Some((trace, j as u32)));
            } else {
                p = dec.apply(ops, epoch, Some((trace, j as u32)));
                (x, r) = timed_x();
            }
            let r = tally(r, &expect, out);
            out.attempted += ops.len() as u64;
            out.failed += mismatches(&dec.resp, &expect);
            hx.push(fnv_words(r.iter().copied()));
            hy.push(fnv_words(dec.resp.iter().copied()));
            x_us.push(x);
            parts.push(p);
            j += 1;
        }
    }
    let (hx, hy) = (fnv_words(hx), fnv_words(hy));
    println!("# response-log hash: apply_batch {hx:016x}, decomposed {hy:016x} over {j} batches");
    out.check(
        hx == hy,
        "decomposed replay reproduces apply_batch's response-log hash",
    );
    let (gets, hits) = server
        .shard_stats()
        .iter()
        .zip(&stats0)
        .fold((0, 0), |(g, h), (a, b)| {
            (g + a.gets - b.gets, h + a.hits - b.hits)
        });

    let col = |f: fn(&Parts) -> f64| -> Vec<f64> { parts.iter().map(f).collect() };
    let mut max_shard = col(|p| p.max_shard);
    max_shard.sort_by(f64::total_cmp);
    let self_us: Vec<f64> = parts
        .iter()
        .zip(&x_us)
        .map(|(p, x)| x - p.route - p.max_shard - p.gather)
        .collect();
    let (x_sum, y_sum) = (
        x_us.iter().sum::<f64>(),
        col(|p| p.total).iter().sum::<f64>(),
    );
    println!(
        "# service pass (batch {batch}): apply_batch {}  |  decomposed {}",
        summarize(&x_us, 0.99),
        summarize(&col(|p| p.total), 0.99)
    );
    let rooms = twin_pass::<RoomsCore>(log, warm, out);
    let fc = twin_pass::<FcCore>(log, warm, out);
    let (publishes, capacity_changes) = (rooms.publishes, rooms.capacity_changes);
    Service {
        route_us: median(&col(|p| p.route)),
        put_us: median(&col(|p| p.put)),
        del_us: median(&col(|p| p.del)),
        get_us: median(&col(|p| p.get)),
        max_shard_p50_us: median(&max_shard),
        max_shard_p99_us: percentile(&max_shard, 0.99),
        imbalance: median(&col(|p| p.imbalance)),
        gather_us: median(&col(|p| p.gather)),
        server_self_us: order_balanced_median(&self_us),
        hit_ratio: hits as f64 / gets.max(1) as f64,
        calls_per_batch: col(|p| p.calls as f64).iter().sum::<f64>() / parts.len() as f64,
        rooms,
        fc,
        overhead_frac: 1.0 - x_sum / y_sum,
        publishes,
        capacity_changes,
    }
}

/// Emits the per-layer metrics whose source differs by workload.
pub fn emit_workload(out: &mut Outcome, publishes: u64, capacity_changes: u64, overhead: f64) {
    out.metric("resize.publishes", publishes as f64, "count");
    out.metric("resize.capacity_changes", capacity_changes as f64, "count");
    out.metric("trace.overhead_frac", overhead, "share");
}

/// Writes the span log of a traced run under `perfbench/out/`.
pub fn write_trace(trace: &Trace, args: &Args) {
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/trace-{}-seed{}.tsv",
        args.workload, args.seed
    ));
    for (layer, t) in trace.layer_totals() {
        println!(
            "# span layer {layer}: {} spans, total {:.3} ms, self {:.3} ms",
            t.spans,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    match trace.write(&path) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# could not write {}: {e}", path.display()),
    }
}

/// The closed-loop replay of `log` through a fresh server for
/// `seconds`, after a warm-up replay of the whole log: the one submitter times each `apply_batch` and checks
/// its responses (untimed) before it sends the next batch.
fn e2e(log: &[KvOp], seconds: f64, out: &mut Outcome) {
    let (warm, batch) = (log.len(), BATCH);
    let mut model = Model::new(log);
    let mut expect = Vec::new();
    let mut warm_expect = Vec::new();
    for ops in log[..warm].chunks(batch) {
        model.apply(ops, &mut expect);
        warm_expect.extend_from_slice(&expect);
    }
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t0 = Instant::now();
        let s: KvServer = KvServer::new(SHARDS, SEED_LOG2);
        let r = s.apply_log(&log[..warm], batch);
        setups.push(secs(t0));
        out.attempted += warm as u64;
        out.failed += mismatches(&r, &warm_expect);
        server = Some(s);
    }
    let server = server.expect("SETUPS >= 1");

    let window = WINDOW_BATCHES;
    let (mut lat_us, mut windows) = (Vec::new(), Vec::new());
    let (mut cells, mut cells_sum, mut keys_sum) = (0usize, 0usize, 0usize);
    let t_start = Instant::now();
    'run: loop {
        for ops in log.chunks(batch) {
            if lat_us.len() % window == 0 {
                if let Some(w) = lat_us.len().checked_sub(window).map(|a| &lat_us[a..]) {
                    windows.push(Window::of(w, batch));
                }
                cells = server
                    .quiescent_snapshots()
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>();
                if secs(t_start) >= seconds && !windows.is_empty() {
                    break 'run;
                }
            }
            // Capacity changes are rare, so the cell count is refreshed
            // per window; the live key count is read at every boundary.
            cells_sum += cells;
            keys_sum += server.shard_lens().iter().sum::<usize>();
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| server.apply_batch(ops)));
            lat_us.push(secs(t0) * 1e6);
            model.apply(ops, &mut expect);
            tally(r, &expect, out);
        }
    }
    let peak = peak_rss_mib();
    println!(
        "# batch latency (us, batch {batch}), all batches: {}",
        summarize(&lat_us, 0.99)
    );
    let col = |f: fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    for (name, v) in [
        ("Mops/s", col(|w| w.mops)),
        ("p50 us", col(|w| w.p50)),
        ("p90 us", col(|w| w.p90)),
        ("p99 us", col(|w| w.p99)),
    ] {
        println!(
            "# per-window {name} over {} windows of {window} batches: {}",
            v.len(),
            summarize(&v, 0.99)
        );
    }
    println!(
        "# shard tables over {} batch boundaries: mean {:.1} cells, mean {:.3} live keys",
        lat_us.len(),
        cells_sum as f64 / lat_us.len() as f64,
        keys_sum as f64 / lat_us.len() as f64
    );
    out.metric("throughput_mops", median(&col(|w| w.mops)), "Mops/s");
    out.metric("latency_p50_us", median(&col(|w| w.p50)), "us");
    out.metric("latency_tail_us", median(&col(|w| w.p90)), "us");
    out.metric(
        "bytes_per_key",
        (cells_sum * 8) as f64 / keys_sum.max(1) as f64,
        "B",
    );
    out.metric("peak_rss_mib", peak, "MiB");
    out.metric("setup_s", median(&setups), "s");
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let log = zipf_log(args.seed);
    println!(
        "# kv-zipf: {} ops in the log, replayed once to warm up; batch {BATCH}, \
         {SHARDS} rooms-core shards from 2^{SEED_LOG2} cells",
        log.len()
    );
    if !args.trace {
        e2e(&log, args.seconds, &mut out);
        return out;
    }
    let mut trace = Trace::new(1 << 18);
    let service = service_pass(&log, log.len(), args.seconds, &mut out, &mut trace);
    let clock = Clock::calibrate();
    let keys = distinct_keys(&log);
    drop(log);
    let (growth, prealloc) = layers::growth_pass(&keys, &clock, &mut out);
    let probing = layers::table_pass(&prealloc, &keys, &mut out);
    service.emit(&mut out);
    layers::emit_common(&mut out, &growth, &probing);
    emit_workload(
        &mut out,
        service.publishes,
        service.capacity_changes,
        service.overhead_frac,
    );
    write_trace(&trace, args);
    out
}
