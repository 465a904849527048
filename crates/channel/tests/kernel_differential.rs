//! Channel-plane kernel differential property tests: the lane kernels
//! for the per-sample AWGN apply, the multipath tap convolution and the
//! `Overlap` power-mix — plus the batched `Link::transmit_batch_into`
//! seam — must be **bit-identical** to their scalar references over
//! arbitrary SNRs, tap sets, overlap offsets/powers and frame lengths.
//!
//! This mirrors the fec/dsp differentials from PR 9: every kernel is
//! compared by `f64::to_bits`, never by approximate equality, because
//! the engine's cross-thread digests and the frozen golden vectors both
//! assume the channel is a pure function of (seed, draw count).

use cos_channel::{
    Awgn, ChannelBatch, ChannelConfig, ImpairmentCtx, IndoorChannel, Link, Overlap, OverlapComposer,
};
use cos_dsp::lanes::LANES;
use cos_dsp::{Complex, KernelMode};
use proptest::prelude::*;

fn arb_signal(max_len: usize) -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(
        (-1e2f64..1e2, -1e2f64..1e2).prop_map(|(re, im)| Complex::new(re, im)),
        0..=max_len,
    )
}

fn assert_bits_eq(a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}

proptest! {
    /// AWGN: the pre-draw + lane-apply path reproduces the scalar
    /// `complex_normal` loop exactly, at any SNR and frame length.
    #[test]
    fn awgn_lane_kernel_is_bit_identical_to_scalar(
        signal in arb_signal(300),
        snr_db in -10.0f64..50.0,
        seed in 0u64..1_000_000,
    ) {
        let noise_var = cos_channel::link::NOMINAL_TX_POWER
            / cos_dsp::db_to_linear(snr_db);
        let mut scalar = signal.clone();
        let mut lanes = signal;
        Awgn::new(noise_var, seed).add_noise_in_place_with(&mut scalar, KernelMode::Scalar);
        Awgn::new(noise_var, seed).add_noise_in_place_with(&mut lanes, KernelMode::Lanes);
        assert_bits_eq(&scalar, &lanes);
    }

    /// AWGN draw-order: splitting one stream across calls of different
    /// lengths and kernels never forks the RNG state.
    #[test]
    fn awgn_kernel_mix_preserves_rng_stream(
        signal in arb_signal(200),
        split in 0usize..=200,
        seed in 0u64..1_000_000,
    ) {
        let split = split.min(signal.len());
        let mut scalar = signal.clone();
        let mut mixed = signal;
        let mut a = Awgn::new(0.01, seed);
        let mut b = Awgn::new(0.01, seed);
        a.add_noise_in_place_with(&mut scalar, KernelMode::Scalar);
        let (head, tail) = mixed.split_at_mut(split);
        b.add_noise_in_place_with(head, KernelMode::Lanes);
        b.add_noise_in_place_with(tail, KernelMode::Scalar);
        assert_bits_eq(&scalar, &mixed);
    }

    /// Multipath convolution: arbitrary tap counts, decay profiles and
    /// K-factors, appended after arbitrary prefixes.
    #[test]
    fn conv_lane_kernel_is_bit_identical_to_scalar(
        signal in arb_signal(300),
        n_taps in 1usize..=16,
        tap_decay in 0.05f64..1.0,
        k_factor in 0.0f64..1000.0,
        seed in 0u64..1_000_000,
        prefix in 0usize..8,
    ) {
        let cfg = ChannelConfig { n_taps, tap_decay, k_factor, ..ChannelConfig::default() };
        let ch = IndoorChannel::new(cfg, seed);
        let mut scalar = vec![Complex::ONE; prefix];
        let mut lanes = scalar.clone();
        ch.apply_append(&signal, &mut scalar);
        ch.apply_append_with(&signal, &mut lanes, KernelMode::Lanes);
        assert_bits_eq(&scalar, &lanes);
    }

    /// Overlap power-mix: arbitrary interferer sets (offsets, powers,
    /// seeds) against arbitrary victim lengths and noise floors.
    #[test]
    fn overlap_lane_kernel_is_bit_identical_to_scalar(
        signal in arb_signal(400),
        specs in proptest::collection::vec(
            (-20.0f64..40.0, 0u32..=1000, 0u64..1_000_000),
            0..4,
        ),
        noise_var in 1e-6f64..1e-1,
    ) {
        let mut composer = OverlapComposer::new();
        for (power_db, start_milli, seed) in specs {
            // Integer-mapped so start_frac covers the closed [0, 1] range
            // (the vendored proptest shim has no inclusive f64 ranges).
            composer.push(Overlap::new(power_db, start_milli as f64 / 1000.0, seed));
        }
        let ctx = ImpairmentCtx { packet_index: 0, time_s: 0.0, noise_var };
        let mut scalar = signal.clone();
        let mut lanes = signal;
        composer.impair_waveform_with(&mut scalar, &ctx, KernelMode::Scalar);
        composer.impair_waveform_with(&mut lanes, &ctx, KernelMode::Lanes);
        assert_bits_eq(&scalar, &lanes);
    }

    /// The lockstep seam: eight same-length frames through
    /// `transmit_batch_into` match eight sequential `transmit_into`
    /// calls bit-for-bit — same-seed link pairs guarantee identical
    /// channel realisations and noise streams on both sides.
    #[test]
    fn batched_transmit_is_bit_identical_to_sequential(
        frame_len in 1usize..240,
        n_taps in 1usize..=16,
        snrs in proptest::collection::vec(0.0f64..40.0, LANES..=LANES),
        lead_in in 0usize..32,
        seed in 0u64..1_000_000,
        rounds in 1usize..3,
    ) {
        let cfg = ChannelConfig { n_taps, ..ChannelConfig::default() };
        let make_links = || -> Vec<Link> {
            snrs.iter()
                .enumerate()
                .map(|(k, &snr)| {
                    Link::new(cfg, snr, seed.wrapping_add(k as u64)).with_lead_in(lead_in)
                })
                .collect()
        };
        let txs: Vec<Vec<Complex>> = (0..LANES)
            .map(|k| {
                (0..frame_len)
                    .map(|i| {
                        let p = (i * LANES + k) as f64;
                        Complex::new((p * 0.37).sin() * 0.1, (p * 0.73).cos() * 0.1)
                    })
                    .collect()
            })
            .collect();

        // Sequential reference: per-frame transmissions.
        let mut seq_links = make_links();
        let mut want: Vec<Vec<Complex>> = vec![Vec::new(); LANES];
        for _ in 0..rounds {
            for (k, link) in seq_links.iter_mut().enumerate() {
                link.transmit_into(&txs[k], &mut want[k]);
            }
        }

        // Lockstep batch over the same links/waveforms.
        let mut batch_links = make_links();
        let mut got: Vec<Vec<Complex>> = vec![Vec::new(); LANES];
        let mut scratch = ChannelBatch::default();
        for _ in 0..rounds {
            let mut frames: [Option<cos_channel::BatchFrame<'_>>; LANES] =
                std::array::from_fn(|_| None);
            for (f, (link, (tx, rx))) in frames
                .iter_mut()
                .zip(batch_links.iter_mut().zip(txs.iter().zip(got.iter_mut())))
            {
                *f = Some((link, tx.as_slice(), rx));
            }
            Link::transmit_batch_into_with(&mut frames, KernelMode::Lanes, &mut scratch);
        }
        for (w, g) in want.iter().zip(&got) {
            assert_bits_eq(w, g);
        }
    }

    /// Ineligible batches — holes or mixed lengths — fall back to the
    /// per-frame path and stay bit-identical too.
    #[test]
    fn partial_batches_fall_back_bit_identically(
        frame_len in 1usize..120,
        present in proptest::collection::vec(any::<bool>(), LANES..=LANES),
        seed in 0u64..1_000_000,
    ) {
        let cfg = ChannelConfig::default();
        let make_links = || -> Vec<Link> {
            (0..LANES).map(|k| Link::new(cfg, 20.0, seed.wrapping_add(k as u64))).collect()
        };
        let txs: Vec<Vec<Complex>> = (0..LANES)
            .map(|k| {
                // Mixed lengths: frame k is k samples longer.
                (0..frame_len + k)
                    .map(|i| Complex::new(i as f64 * 1e-3, -(i as f64) * 2e-3))
                    .collect()
            })
            .collect();

        let mut seq_links = make_links();
        let mut want: Vec<Vec<Complex>> = vec![Vec::new(); LANES];
        for (k, link) in seq_links.iter_mut().enumerate() {
            if present[k] {
                link.transmit_into(&txs[k], &mut want[k]);
            }
        }

        let mut batch_links = make_links();
        let mut got: Vec<Vec<Complex>> = vec![Vec::new(); LANES];
        let mut scratch = ChannelBatch::default();
        {
            let mut frames: [Option<cos_channel::BatchFrame<'_>>; LANES] =
                std::array::from_fn(|_| None);
            for (k, (f, (link, (tx, rx)))) in frames
                .iter_mut()
                .zip(batch_links.iter_mut().zip(txs.iter().zip(got.iter_mut())))
                .enumerate()
            {
                if present[k] {
                    *f = Some((link, tx.as_slice(), rx));
                }
            }
            Link::transmit_batch_into_with(&mut frames, KernelMode::Lanes, &mut scratch);
        }
        for (w, g) in want.iter().zip(&got) {
            assert_bits_eq(w, g);
        }
    }
}
