//! Process-level measurements and the small numeric helpers the
//! benchmark reports with.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// Clock ticks per second of the `/proc` CPU-time fields (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process so far, seconds, summed
/// over every thread it ever ran (exited threads included).
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name may hold spaces; the fields after it are plain.
    let rest = stat.rsplit_once(") ").map(|(_, r)| r).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime) of proc(5); `rest` starts at 3.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// SplitMix64: derives well-mixed, independent seeds from one seed.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a 64-bit hash (stable across platforms and releases, unlike
/// the standard library's hasher).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Time [`speed_probe_ms`] takes on the host the benchmark was sized on
/// (a 2-vCPU KVM guest on an Intel Xeon at 2.1 GHz) when it is quiet,
/// ms.
pub const REFERENCE_PROBE_MS: f64 = 3.5;

/// One pass of the speed probe: `updates` counter bumps on a
/// 32 768-key hash table (about 1 MiB), keys from a fixed LCG and a
/// fixed hasher, so every pass does the same work.
fn probe_pass(updates: u64) {
    let mut table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
        HashMap::with_capacity_and_hasher(1 << 15, BuildHasherDefault::default());
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..updates {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *table.entry(x >> 49).or_insert(0) += i;
    }
    std::hint::black_box(&table);
}

/// Times a fixed hashing workload, ms, after a warm-up pass so that
/// what ran before it leaves no trace in the result. The host's speed
/// drifts with other tenants' load by ±25 % within seconds; timings
/// scaled by `REFERENCE_PROBE_MS / speed_probe_ms()` taken right before
/// them read as on the reference host and drift far less.
pub fn speed_probe_ms() -> f64 {
    probe_pass(1 << 16);
    let started = Instant::now();
    probe_pass(200_000);
    started.elapsed().as_secs_f64() * 1e3
}

/// Busy time and call count of one traced span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    ns: f64,
    calls: u64,
}

impl Span {
    /// Adds one call that took `d`.
    pub fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos() as f64;
        self.calls += 1;
    }

    /// Runs `f` as one call of this span.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let value = f();
        self.add(started.elapsed());
        value
    }

    /// Folds another span's calls into this one.
    pub fn merge(&mut self, other: &Span) {
        self.ns += other.ns;
        self.calls += other.calls;
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Busy time with the clock read each call added taken out.
    pub fn net_ns(&self, timer_ns: f64) -> f64 {
        (self.ns - timer_ns * self.calls as f64).max(0.0)
    }
}

/// Cost of one `Instant::now()` read, ns: the median over batches of
/// back-to-back reads. Each traced span adds about one read to the
/// interval it measures, which [`Span::net_ns`] subtracts.
pub fn calibrate_timer_ns() -> f64 {
    const READS: u32 = 100_000;
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let started = Instant::now();
            let mut last = started;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            (last - started).as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    quantile(&batches, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(process_cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn seeds_differ_per_stream() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        assert_eq!(mix_seed(7, 3), mix_seed(7, 3));
    }
}
