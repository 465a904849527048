//! Small shared helpers: seeded generator, FNV digest, quantiles and
//! `/proc` readers.

use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness. Every input a
/// workload generates comes from a stream seeded by `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `lane`.
    pub fn new(seed: u64, lane: u64) -> Self {
        Rng(mix(seed, lane))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Hashes two words into one seed (SplitMix finaliser over a mix).
pub fn mix(a: u64, b: u64) -> u64 {
    let mut r = Rng(a ^ b.wrapping_mul(0xD1B5_4A32_D192_ED03));
    r.next_u64()
}

/// FNV-1a, the digest every storm in the repository uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(0x1_0000_01b3);
    }

    /// Folds a word, little-endian.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Folds a float by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// FNV-1a of control bits (one bit per byte), as `PacketSummary::control_hash`
/// reports the decoded bits.
pub fn bits_hash(bits: &[u8]) -> u64 {
    let mut h = Fnv::default();
    for &b in bits {
        h.byte(b);
    }
    h.0
}

/// Random control bits of length `n`.
pub fn random_bits(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
}

/// Deterministic payload bytes of length `n` for stream `tag`.
pub fn payload(n: usize, tag: u64) -> Vec<u8> {
    let mut r = Rng::new(tag, 0x5041_594C);
    (0..n).map(|_| r.next_u64() as u8).collect()
}

/// Quantile by linear interpolation between closest ranks (`q` in
/// `[0, 1]`); `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `VmHWM` / `VmRSS` lines of `/proc/self/status`, in MB (0 when
/// unavailable).
pub fn proc_status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process, threads included
/// (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After ')' the state is field 3, so utime (14) and stime (15) sit
    // at offsets 11 and 12.
    (tick(11) + tick(12)) / 100.0
}

/// Nanoseconds a fixed computation of the benchmark's own takes now: a
/// gauge of how fast the host runs at this moment. It executes none of
/// the program's code and touches no memory, so the program's cache
/// footprint does not slow it; other tenants on the core do.
pub fn host_probe_ns() -> f64 {
    let t = Instant::now();
    let mut r = Rng(0x5EED);
    let mut acc = 0.0f64;
    for _ in 0..8192 {
        let v = std::hint::black_box(r.next_u64());
        acc = acc * 0.5 + (v >> 11) as f64 * 1e-12;
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// The worker count every workload runs at: the host's available
/// parallelism.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
