//! Signal-processing primitives for the CoS 802.11a simulator.
//!
//! This crate is the lowest layer of the CoS reproduction. It provides the
//! numeric building blocks everything else is assembled from:
//!
//! * [`Complex`] — a minimal `f64` complex-number type (the repository builds
//!   its whole DSP stack from scratch, so no `num-complex` dependency),
//! * [`fft`] — an in-place radix-2 decimation-in-time FFT/IFFT used for OFDM
//!   modulation and symbol-level energy detection,
//! * [`lanes`] — fixed-width `f64` lane structs (LLVM-autovectorized SIMD
//!   on stable Rust) plus the process-wide [`lanes::KernelMode`] switch
//!   that selects scalar vs lane kernels across the symbol plane,
//! * [`db`] — dB/linear and dBm/milliwatt conversions,
//! * [`rng`] — seeded Gaussian and circularly-symmetric complex Gaussian
//!   sources (Box–Muller over [`rand`]) for AWGN and Rayleigh fading,
//! * [`prbs`] — the 127-bit `x^7 + x^4 + 1` pseudo-random binary sequence of
//!   IEEE 802.11a (scrambler sequence and pilot-polarity sequence),
//! * [`stats`] — summary statistics and empirical CDFs used by the
//!   experiment harness,
//! * [`fnv1a`] — the byte-stream digest that outcome summaries and the
//!   golden vectors use as a byte-identity proxy.
//!
//! # Examples
//!
//! ```
//! use cos_dsp::{Complex, fft};
//!
//! // A single tone on bin 3 survives an FFT -> IFFT round trip.
//! let mut spectrum = vec![Complex::ZERO; 64];
//! spectrum[3] = Complex::new(1.0, 0.0);
//! let mut time = spectrum.clone();
//! fft::ifft(&mut time);
//! fft::fft(&mut time);
//! assert!((time[3] - spectrum[3]).norm() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod db;
pub mod fft;
pub mod lanes;
pub mod prbs;
pub mod rng;
pub mod stats;
pub mod workspace;

pub use complex::Complex;
pub use lanes::{kernel_mode, set_kernel_mode, KernelMode};
pub use db::{db_to_linear, dbm_to_mw, linear_to_db, mw_to_dbm};
pub use prbs::Prbs127;
pub use rng::GaussianSource;

/// 64-bit FNV-1a over a byte stream — the repository's byte-identity
/// proxy (outcome summaries, golden-vector bit digests).
///
/// ```
/// assert_eq!(cos_dsp::fnv1a([]), 0xcbf2_9ce4_8422_2325);
/// assert_ne!(cos_dsp::fnv1a([1, 2]), cos_dsp::fnv1a([2, 1]));
/// ```
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x1_0000_01b3))
}
