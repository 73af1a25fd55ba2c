//! Sample summaries, the cycle clock used for per-insert latencies,
//! and process memory readings.

use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `[0, 1]`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A timing distribution summarized the way every report line gives
/// it: median, a named tail percentile, and the highest percentile of
/// the ladder that still has at least ten samples beyond it.
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
    pub deep_label: &'static str,
    pub deep: f64,
}

/// Summarizes `v` with the tail taken at percentile `tail_p`.
pub fn summarize(v: &[f64], tail_p: f64) -> Summary {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let ladder = [
        (0.99999, "p99.999"),
        (0.9999, "p99.99"),
        (0.999, "p99.9"),
        (0.99, "p99"),
        (0.9, "p90"),
    ];
    let (deep_label, deep) = ladder
        .iter()
        .find(|(p, _)| n - ((p * n as f64).ceil() as usize).min(n) >= 10)
        .map(|&(p, l)| (l, percentile(&s, p)))
        .unwrap_or(("max", s[n - 1]));
    Summary {
        n,
        p50: median(&s),
        tail: percentile(&s, tail_p),
        deep_label,
        deep,
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:.3}  tail {:.3}  {} {:.3}  (n = {})",
            self.p50, self.tail, self.deep_label, self.deep, self.n
        )
    }
}

/// A cheap per-operation clock: the time-stamp counter on x86-64
/// (two reads cost a few nanoseconds, unlike two `Instant` reads),
/// converted to nanoseconds with a rate calibrated against `Instant`.
pub struct Clock {
    #[cfg_attr(target_arch = "x86_64", allow(dead_code))]
    base: Instant,
    ns_per_tick: f64,
}

impl Clock {
    /// Calibrates over about 20 ms.
    pub fn calibrate() -> Clock {
        let base = Instant::now();
        let mut clock = Clock {
            base,
            ns_per_tick: 1.0,
        };
        let (t0, c0) = (Instant::now(), clock.ticks());
        while t0.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
        let (ns, c1) = (t0.elapsed().as_nanos() as f64, clock.ticks());
        clock.ns_per_tick = ns / (c1 - c0).max(1) as f64;
        clock
    }

    #[inline]
    pub fn ticks(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: RDTSC has no preconditions on x86-64.
            unsafe { core::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.base.elapsed().as_nanos() as u64
        }
    }

    pub fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }

    pub fn ticks_for(&self, ns: f64) -> u64 {
        (ns / self.ns_per_tick) as u64
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM missing from /proc/self/status")
}

/// FNV-1a over words: the order-sensitive fingerprint used to compare
/// `elements()` outputs and snapshots without keeping copies.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h ^= w;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
