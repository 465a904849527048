//! Tapped-delay-line multipath fading with slow temporal evolution.
//!
//! Each "receiver position" of the paper maps to a distinct RNG seed: a
//! fresh draw of Rician taps whose diffuse components then evolve with a
//! first-order Gauss–Markov process at walking-speed Doppler. The static
//! specular component (Rician K-factor) reflects that most indoor paths —
//! walls, furniture, ceiling — do not move when a user walks, which is why
//! the paper observes per-subcarrier EVM stable over tens of milliseconds
//! (Fig. 7) despite mobility.

use cos_dsp::fft::plan;
use cos_dsp::lanes::{C64xL, KernelMode, LANES};
use cos_dsp::{Complex, GaussianSource};

/// The most taps a channel can have: [`ChannelConfig::pdp`] keeps the
/// impulse response within the 16-sample cyclic prefix.
const MAX_TAPS: usize = 16;

/// Interior outputs per stack-staged block of the lane convolution.
const CONV_BLOCK: usize = 8 * LANES;

/// Configuration of the indoor tapped-delay-line channel.
#[derive(Debug, Clone, Copy)]
pub struct ChannelConfig {
    /// Number of channel taps at 50 ns spacing (20 MHz sample period).
    /// Must stay within the 16-sample cyclic prefix.
    pub n_taps: usize,
    /// Exponential power-decay constant per tap (power ratio between
    /// consecutive taps); 0.5 ≈ 50 ns RMS delay spread.
    pub tap_decay: f64,
    /// Rician K-factor (specular-to-diffuse power ratio). 0 = pure
    /// Rayleigh; indoor labs with walking users are strongly specular.
    pub k_factor: f64,
    /// Maximum Doppler frequency in Hz of the diffuse components
    /// (walking speed ≈ 1.5 m/s at 5.2 GHz ⇒ ≈ 26 Hz).
    pub doppler_hz: f64,
}

impl Default for ChannelConfig {
    /// The baseline indoor-lab profile used throughout the experiments:
    /// 6 taps, 25 % per-tap decay, K = 1000, 26 Hz Doppler.
    ///
    /// The high K-factor does **not** flatten frequency selectivity —
    /// the specular components are themselves random per position, so
    /// per-subcarrier fades remain — it only makes the channel
    /// *temporally* quiet, matching the paper's observation that
    /// per-subcarrier EVM changes by ~1 % over 30 ms even in the mobile
    /// scenario (per-packet LTF re-estimation absorbs common phase drift;
    /// only the fading *magnitude profile* has to stay put). The 0.3 tap
    /// decay keeps the fade depth in the paper's Fig. 5 range (EVM up to
    /// ~20 %) rather than producing −25 dB spectral nulls whose EVM is
    /// both enormous and temporally twitchy.
    fn default() -> Self {
        ChannelConfig {
            n_taps: 6,
            tap_decay: 0.25,
            k_factor: 1000.0,
            doppler_hz: 26.0,
        }
    }
}

impl ChannelConfig {
    /// A single-tap (frequency-flat) configuration, useful for isolating
    /// AWGN behaviour in tests.
    pub fn flat() -> Self {
        ChannelConfig { n_taps: 1, tap_decay: 1.0, k_factor: 0.0, doppler_hz: 0.0 }
    }

    /// The normalised power-delay profile (sums to 1).
    pub fn pdp(&self) -> Vec<f64> {
        assert!(self.n_taps >= 1 && self.n_taps <= MAX_TAPS, "taps must fit in the cyclic prefix");
        let raw: Vec<f64> = (0..self.n_taps).map(|l| self.tap_decay.powi(l as i32)).collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|p| p / total).collect()
    }
}

/// A time-varying indoor multipath channel.
#[derive(Debug, Clone)]
pub struct IndoorChannel {
    config: ChannelConfig,
    /// Static (specular) tap components.
    specular: Vec<Complex>,
    /// Time-varying (diffuse) tap components.
    diffuse: Vec<Complex>,
    /// Per-tap diffuse variance.
    diffuse_var: Vec<f64>,
    rng: GaussianSource,
}

impl IndoorChannel {
    /// Draws a channel realisation ("receiver position") from `seed`.
    pub fn new(config: ChannelConfig, seed: u64) -> Self {
        let pdp = config.pdp();
        let k = config.k_factor;
        let mut rng = GaussianSource::new(seed);
        let spec_frac = k / (k + 1.0);
        let diff_frac = 1.0 / (k + 1.0);
        let mut specular = Vec::with_capacity(pdp.len());
        let mut diffuse = Vec::with_capacity(pdp.len());
        let mut diffuse_var = Vec::with_capacity(pdp.len());
        for &p in &pdp {
            // The specular part is itself a random draw per position (the
            // geometry of static reflectors), frozen thereafter.
            specular.push(rng.complex_normal(p * spec_frac));
            diffuse.push(rng.complex_normal(p * diff_frac));
            diffuse_var.push(p * diff_frac);
        }
        // Normalise the realisation's total power gain to exactly 1:
        // whole-link shadowing is an orthogonal concern to the
        // frequency/temporal selectivity this model exists for, and the
        // experiments want the configured SNR to mean what it says.
        let gain: f64 = specular
            .iter()
            .zip(&diffuse)
            .map(|(s, d)| (*s + *d).norm_sqr())
            .sum();
        let scale = 1.0 / gain.sqrt();
        for h in specular.iter_mut().chain(diffuse.iter_mut()) {
            *h = h.scale(scale);
        }
        for v in &mut diffuse_var {
            *v *= scale * scale;
        }
        IndoorChannel { config, specular, diffuse, diffuse_var, rng }
    }

    /// The configuration this channel was built from.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Number of taps.
    pub fn tap_count(&self) -> usize {
        self.specular.len()
    }

    /// The current composite taps.
    pub fn taps(&self) -> Vec<Complex> {
        self.specular
            .iter()
            .zip(&self.diffuse)
            .map(|(s, d)| *s + *d)
            .collect()
    }

    /// Total instantaneous power gain `Σ|h_l|²`.
    pub fn power_gain(&self) -> f64 {
        self.taps().iter().map(|h| h.norm_sqr()).sum()
    }

    /// Evolves the diffuse taps by `tau` seconds with a first-order
    /// Gauss–Markov process: `h ← ρ·h + √(1−ρ²)·w`,
    /// `ρ = exp(−(2π·f_d·τ)²/2)` (the small-lag expansion of Clarke's
    /// Bessel autocorrelation).
    pub fn advance(&mut self, tau: f64) {
        assert!(tau >= 0.0, "time must not run backwards");
        if tau == 0.0 || self.config.doppler_hz == 0.0 {
            return;
        }
        let x = 2.0 * std::f64::consts::PI * self.config.doppler_hz * tau;
        let rho = (-0.5 * x * x).exp();
        let innov = (1.0 - rho * rho).max(0.0);
        for (d, &var) in self.diffuse.iter_mut().zip(&self.diffuse_var) {
            *d = d.scale(rho) + self.rng.complex_normal(var * innov);
        }
    }

    /// Applies the channel (linear convolution with the taps) to a sample
    /// stream. Output length is `samples.len() + taps − 1`.
    pub fn apply(&self, samples: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.apply_append(samples, &mut out);
        out
    }

    /// [`IndoorChannel::apply`] appending the convolution output to a
    /// caller-owned buffer (after any existing contents, e.g. a noise-only
    /// lead-in region).
    pub fn apply_append(&self, samples: &[Complex], out: &mut Vec<Complex>) {
        let n_taps = self.specular.len();
        let base = out.len();
        out.resize(base + samples.len() + n_taps - 1, Complex::ZERO);
        let out = &mut out[base..];
        // The composite taps are summed inline rather than via
        // `self.taps()` to keep the per-frame hot path allocation-free;
        // `s + d` here is bit-identical to `taps()[l]`.
        for (i, &x) in samples.iter().enumerate() {
            for (l, (s, d)) in self.specular.iter().zip(&self.diffuse).enumerate() {
                out[i + l] += x * (*s + *d);
            }
        }
    }

    /// The current composite tap `l` (`specular[l] + diffuse[l]`) without
    /// allocating — the same expression [`IndoorChannel::apply_append`]
    /// sums inline, so the bits match the scalar convolution exactly.
    #[inline]
    pub(crate) fn tap(&self, l: usize) -> Complex {
        self.specular[l] + self.diffuse[l]
    }

    /// [`IndoorChannel::apply_append`] on an explicit kernel.
    ///
    /// The lane path vectorizes **across output samples**: each output
    /// `y[j] = Σ_l x[j−l]·h[l]` is an independent scalar computation, and
    /// the kernel evaluates eight adjacent `j` per op, each accumulating
    /// its tap sum in descending-`l` order from zero — exactly the order
    /// the scalar loop's ascending-`i` accumulation produces for that
    /// output. The interior outputs run in blocks of [`CONV_BLOCK`]: each
    /// block's input window is deinterleaved into stack arrays so the
    /// inner loop does contiguous lane loads, and nothing sized by the
    /// frame is kept between calls. The head (`j < taps−1`) and tail
    /// (`j ≥ samples`) outputs, whose tap ranges are clipped, run the
    /// same descending-`l` sum per-output. Bit-identical to scalar by the
    /// ordering contract in `docs/KERNELS.md`; gated by
    /// `crates/channel/tests/kernel_differential.rs`.
    pub fn apply_append_with(&self, samples: &[Complex], out: &mut Vec<Complex>, mode: KernelMode) {
        if mode == KernelMode::Scalar {
            self.apply_append(samples, out);
            return;
        }
        let n_taps = self.specular.len();
        let n = samples.len();
        let base = out.len();
        let total = n + n_taps - 1;
        out.resize(base + total, Complex::ZERO);
        let region = &mut out[base..];

        // The composite taps, staged once (same `s + d` expression as the
        // scalar loop).
        let mut staged = [Complex::ZERO; MAX_TAPS];
        for (t, (s, d)) in staged.iter_mut().zip(self.specular.iter().zip(&self.diffuse)) {
            *t = *s + *d;
        }
        let taps = &staged[..n_taps];

        // Interior outputs j ∈ [n_taps−1, n) see the full tap range; run
        // them in lane chunks of eight, a block of chunks per staging of
        // the block's input window x[j0−(n_taps−1) .. j0+width].
        let int_lo = n_taps - 1;
        let mut xre = [0.0f64; CONV_BLOCK + MAX_TAPS - 1];
        let mut xim = [0.0f64; CONV_BLOCK + MAX_TAPS - 1];
        let mut j0 = int_lo;
        while j0 + LANES <= n {
            let width = ((n - j0) / LANES).min(CONV_BLOCK / LANES) * LANES;
            let window = &samples[j0 - int_lo..j0 + width];
            for ((r, i), x) in xre.iter_mut().zip(xim.iter_mut()).zip(window) {
                *r = x.re;
                *i = x.im;
            }
            for c in (0..width).step_by(LANES) {
                let mut acc = C64xL::default();
                for l in (0..n_taps).rev() {
                    // Window offset of x[j0 + c − l].
                    let i = c + int_lo - l;
                    let x = C64xL::load_split(&xre[i..], &xim[i..]);
                    acc = acc + x * C64xL::splat(taps[l].re, taps[l].im);
                }
                for (k, r) in region[j0 + c..j0 + c + LANES].iter_mut().enumerate() {
                    *r = Complex::new(acc.re.0[k], acc.im.0[k]);
                }
            }
            j0 += width;
        }

        // Everything outside the lane-chunked span — the head, the tail
        // and any interior remainder — runs the same clipped descending-l
        // sum one output at a time.
        let covered = int_lo.max(j0);
        let mut edge = |j: usize| {
            let l_hi = (n_taps - 1).min(j);
            let l_lo = if j >= n { j + 1 - n } else { 0 };
            let mut acc = Complex::ZERO;
            for l in (l_lo..=l_hi).rev() {
                acc += samples[j - l] * taps[l];
            }
            region[j] = acc;
        };
        for j in 0..int_lo.min(total) {
            edge(j);
        }
        for j in covered..total {
            edge(j);
        }
    }

    /// The 64-bin frequency response `H[k] = Σ_l h_l e^{−j2πkl/64}` — what
    /// the receiver's LTF estimate converges to without noise.
    pub fn freq_response(&self) -> [Complex; 64] {
        let mut bins = [Complex::ZERO; 64];
        for (l, h) in self.taps().into_iter().enumerate() {
            bins[l] = h;
        }
        plan(64).forward(&mut bins);
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cos_dsp::stats::mean;

    #[test]
    fn pdp_is_normalised_and_decaying() {
        let pdp = ChannelConfig::default().pdp();
        assert!((pdp.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for w in pdp.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn power_gain_is_exactly_unity_at_construction() {
        for seed in 0..200 {
            let g = IndoorChannel::new(ChannelConfig::default(), seed).power_gain();
            assert!((g - 1.0).abs() < 1e-12, "seed {seed}: gain {g}");
        }
    }

    #[test]
    fn different_seeds_give_different_channels() {
        let a = IndoorChannel::new(ChannelConfig::default(), 1);
        let b = IndoorChannel::new(ChannelConfig::default(), 2);
        assert_ne!(a.taps(), b.taps());
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = IndoorChannel::new(ChannelConfig::default(), 9);
        let b = IndoorChannel::new(ChannelConfig::default(), 9);
        assert_eq!(a.taps(), b.taps());
    }

    #[test]
    fn flat_channel_passes_signal_with_scalar_gain() {
        let ch = IndoorChannel::new(ChannelConfig::flat(), 3);
        let tx = vec![Complex::ONE, Complex::I, Complex::new(2.0, -1.0)];
        let rx = ch.apply(&tx);
        assert_eq!(rx.len(), 3);
        let h = ch.taps()[0];
        for (y, x) in rx.iter().zip(&tx) {
            assert!((*y - *x * h).norm() < 1e-12);
        }
    }

    #[test]
    fn convolution_length_and_linearity() {
        let ch = IndoorChannel::new(ChannelConfig::default(), 5);
        let a = vec![Complex::ONE; 10];
        let b = vec![Complex::I; 10];
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let ya = ch.apply(&a);
        let yb = ch.apply(&b);
        let ys = ch.apply(&sum);
        assert_eq!(ya.len(), 10 + ch.tap_count() - 1);
        for i in 0..ys.len() {
            assert!((ys[i] - (ya[i] + yb[i])).norm() < 1e-12);
        }
    }

    #[test]
    fn freq_response_is_selective() {
        let ch = IndoorChannel::new(ChannelConfig::default(), 7);
        let h = ch.freq_response();
        let gains: Vec<f64> = (1..27).map(|k| h[k].norm_sqr()).collect();
        let max = gains.iter().cloned().fold(0.0, f64::max);
        let min = gains.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 1.5, "expected selectivity, got ratio {}", max / min);
    }

    #[test]
    fn flat_channel_response_is_flat() {
        let ch = IndoorChannel::new(ChannelConfig::flat(), 11);
        let h = ch.freq_response();
        let h0 = h[0];
        for &hk in h.iter() {
            assert!((hk - h0).norm() < 1e-12);
        }
    }

    #[test]
    fn advance_preserves_statistics() {
        let mut ch = IndoorChannel::new(ChannelConfig::default(), 13);
        let mut gains = Vec::new();
        for _ in 0..3000 {
            ch.advance(0.01);
            gains.push(ch.power_gain());
        }
        let m = mean(&gains);
        assert!((m - 1.0).abs() < 0.25, "long-run mean gain {m}");
    }

    #[test]
    fn small_tau_changes_channel_slightly() {
        let mut ch = IndoorChannel::new(ChannelConfig::default(), 17);
        let before = ch.taps();
        ch.advance(0.001); // 1 ms at 26 Hz Doppler: nearly frozen
        let after = ch.taps();
        let drift: f64 = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(drift > 0.0, "diffuse taps must move");
        assert!(drift < 0.15, "1 ms drift too large: {drift}");
    }

    #[test]
    fn zero_doppler_freezes_channel() {
        let cfg = ChannelConfig { doppler_hz: 0.0, ..ChannelConfig::default() };
        let mut ch = IndoorChannel::new(cfg, 19);
        let before = ch.taps();
        ch.advance(1.0);
        assert_eq!(ch.taps(), before);
    }

    #[test]
    fn high_k_factor_means_more_stable_channel() {
        let drift_for = |k: f64| {
            let cfg = ChannelConfig { k_factor: k, ..ChannelConfig::default() };
            let mut ch = IndoorChannel::new(cfg, 23);
            let before = ch.taps();
            ch.advance(0.030);
            before
                .iter()
                .zip(&ch.taps())
                .map(|(a, b)| (*a - *b).norm_sqr())
                .sum::<f64>()
        };
        assert!(drift_for(20.0) < drift_for(0.0));
    }

    #[test]
    fn lane_convolution_matches_scalar_bit_for_bit() {
        for n_taps in [1usize, 2, 6, 16] {
            let cfg = ChannelConfig { n_taps, ..ChannelConfig::default() };
            let ch = IndoorChannel::new(cfg, 31 + n_taps as u64);
            for len in [0usize, 1, 5, 8, 15, 16, 17, 64, 333] {
                let tx: Vec<Complex> = (0..len)
                    .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
                    .collect();
                // Both paths append after a pre-existing prefix.
                let mut a = vec![Complex::ONE; 3];
                let mut b = a.clone();
                ch.apply_append(&tx, &mut a);
                ch.apply_append_with(&tx, &mut b, KernelMode::Lanes);
                assert_eq!(a.len(), b.len(), "taps {n_taps} len {len}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "taps {n_taps} len {len}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "taps {n_taps} len {len}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cyclic prefix")]
    fn too_many_taps_panics() {
        ChannelConfig { n_taps: 20, ..ChannelConfig::default() }.pdp();
    }
}
