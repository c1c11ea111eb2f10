//! Small numeric helpers shared by the runner: a seeded generator, a 64-bit
//! digest, order statistics, peak RSS, and the host-speed gauge.

use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: the benchmark's only PRNG. Every input the product sees is a
/// function of the `--seed` fed through here.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Sixteen bytes: key material for the generator and the probes.
    pub fn next_16(&mut self) -> [u8; 16] {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&self.next_u64().to_le_bytes());
        bytes[8..].copy_from_slice(&self.next_u64().to_le_bytes());
        bytes
    }

    /// Uniform in `0..n` (widening multiply; bias < 2^-32 for the sizes used).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// FNV-1a over 64-bit words: the run digest and the request-stream digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in 0..=100).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile by linear interpolation on the sorted sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

/// `VmHWM` of this process in MiB (0 when /proc is unavailable).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Milliseconds the gauge kernel takes on the reference host: every reported
/// time is rescaled to a host on which the kernel takes exactly this long.
/// (This box in its fast state reads about 0.77.)
pub const REFERENCE_KERNEL_MS: f64 = 0.8;
/// A gauge reading older than this is taken again before it is used.
const GAUGE_STALE_MS: u128 = 25;
/// Words the gauge kernel sorts: 256 KiB, at home in the second-level cache.
const GAUGE_WORDS: usize = 64 << 10;

/// A fixed kernel of no product code: fill a buffer with the same
/// pseudo-random words and sort it. Integer work, unpredictable branches and
/// a cache-resident working set, the mix the product's own code has; a pure
/// ALU chain tracks the host's clock but not the states in which its caches
/// are slower, and reads 20-40% off on them. Best of two bursts, so a
/// preemption does not read as a slow host.
fn gauge_kernel_ms(buf: &mut [u32]) -> f64 {
    let mut burst = || {
        let t = Instant::now();
        let mut x = 0x2545_F491u32;
        for word in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *word = x;
        }
        buf.sort_unstable();
        black_box(&buf);
        t.elapsed().as_secs_f64() * 1e3
    };
    burst().min(burst())
}

/// Tracks the host's speed while a run measures.
///
/// The sandbox's host moves between speed states 25-40% apart that persist
/// for seconds to minutes (a kernel of no product code sees them, so it is
/// the host, not the program), which makes raw wall times multimodal from
/// run to run. The gauge times a fixed kernel between intervals, never inside
/// one, and hands out the factor that converts a wall time measured now into
/// time at the reference host speed. Raw times and the gauge's range are
/// printed beside the rescaled ones.
pub struct SpeedGauge {
    buf: Vec<u32>,
    reading_ms: f64,
    taken: Instant,
    first_ms: f64,
    fastest_ms: f64,
    slowest_ms: f64,
}

impl Default for SpeedGauge {
    fn default() -> Self {
        let mut buf = vec![0; GAUGE_WORDS];
        let reading_ms = gauge_kernel_ms(&mut buf);
        SpeedGauge {
            buf,
            reading_ms,
            taken: Instant::now(),
            first_ms: reading_ms,
            fastest_ms: reading_ms,
            slowest_ms: reading_ms,
        }
    }
}

impl SpeedGauge {
    /// Reference-speed time per wall time, as of now (re-reads the kernel
    /// when the last reading is stale). Call it outside timed windows.
    pub fn scale(&mut self) -> f64 {
        if self.taken.elapsed().as_millis() >= GAUGE_STALE_MS {
            self.reading_ms = gauge_kernel_ms(&mut self.buf);
            self.taken = Instant::now();
            self.fastest_ms = self.fastest_ms.min(self.reading_ms);
            self.slowest_ms = self.slowest_ms.max(self.reading_ms);
        }
        REFERENCE_KERNEL_MS / self.reading_ms
    }

    /// Host speed over the run as a share of the reference speed:
    /// `(slowest, fastest)` in percent.
    pub fn speed_range_pct(&self) -> (f64, f64) {
        (
            100.0 * REFERENCE_KERNEL_MS / self.slowest_ms,
            100.0 * REFERENCE_KERNEL_MS / self.fastest_ms,
        )
    }

    /// How much slower (+) or faster (−) the host got between the first and
    /// the latest reading, in percent.
    pub fn drift_pct(&self) -> f64 {
        100.0 * (self.reading_ms / self.first_ms - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 100.0);
        assert_eq!(percentile(&s, 90.0), 180.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }
}
