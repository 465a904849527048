//! Kernel differential property tests: the lockstep Viterbi ACS kernel
//! must be **byte-equal** to the per-frame scalar kernel over arbitrary
//! LLR streams (erasures included), frame lengths, termination flags and
//! batch sizes, covering full lane groups as well as the remainder and
//! odd-batch paths of the lockstep driver. Batches are compared on
//! decoded bits (the lockstep kernel keeps its survivors lane-major in
//! the `SymbolBatch`, not in `prev_lsbs`).

use cos_dsp::lanes::LANES;
use cos_dsp::KernelMode;
use cos_fec::{LaneFrame, SymbolBatch, ViterbiDecoder};
use proptest::prelude::*;

/// Soft bits in a plausible LLR range; values near zero act as erasures,
/// so the streams exercise ties and the erasure-decoding path too.
fn arb_llrs(pairs: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0f64..4.0, pairs * 2).prop_map(|mut v| {
        for x in v.iter_mut() {
            if x.abs() < 0.4 {
                *x = 0.0; // exact erasure
            }
        }
        v
    })
}

/// Decodes one frame on the per-frame scalar kernel.
fn decode_scalar(llrs: &[f64], terminated: bool) -> Vec<u8> {
    let steps = llrs.len() / 2;
    let mut prev = vec![0u64; steps];
    let mut out = vec![0u8; steps];
    ViterbiDecoder::new().decode_to_slices(llrs, terminated, &mut prev, &mut out);
    out
}

/// Decodes `frames_llrs` as one lockstep batch on `mode`.
fn decode_batch(frames_llrs: &[Vec<f64>], terminated: bool, mode: KernelMode) -> Vec<Vec<u8>> {
    let mut prevs: Vec<Vec<u64>> = frames_llrs
        .iter()
        .map(|l| vec![0u64; l.len() / 2])
        .collect();
    let mut outs: Vec<Vec<u8>> = frames_llrs.iter().map(|l| vec![0u8; l.len() / 2]).collect();
    let mut lane_frames: Vec<LaneFrame<'_>> = frames_llrs
        .iter()
        .zip(prevs.iter_mut().zip(outs.iter_mut()))
        .map(|(llrs, (prev, out))| LaneFrame {
            llrs,
            prev_lsbs: prev,
            out,
        })
        .collect();
    let mut batch = SymbolBatch::new();
    ViterbiDecoder::new().decode_lockstep_with(&mut lane_frames, terminated, mode, &mut batch);
    drop(lane_frames);
    outs
}

proptest! {
    #[test]
    fn lockstep_lane_group_is_byte_equal_to_scalar(
        steps in 1usize..180,
        pool in arb_llrs(180),
        t in 0usize..2,
    ) {
        // One full lane group of equal-length frames, so the lockstep
        // kernel itself (not the per-frame fallback) decodes every lane;
        // frame k reads the pool at offset 13·k, so lanes differ.
        let terminated = t == 1;
        let frames_llrs: Vec<Vec<f64>> = (0..LANES)
            .map(|k| (0..steps * 2).map(|i| pool[(i + 13 * k) % pool.len()]).collect())
            .collect();
        let got = decode_batch(&frames_llrs, terminated, KernelMode::Lanes);
        for (k, llrs) in frames_llrs.iter().enumerate() {
            prop_assert_eq!(&decode_scalar(llrs, terminated), &got[k], "lane {}", k);
        }
    }

    #[test]
    fn lockstep_batches_are_byte_equal_to_scalar(
        lens in proptest::collection::vec(1usize..60, 1..9),
        pool in arb_llrs(120),
        t in 0usize..2,
    ) {
        let terminated = t == 1;
        // Frame k reads its soft bits from the shared pool at offset k, so
        // equal-length frames still carry different streams.
        let frames_llrs: Vec<Vec<f64>> = lens
            .iter()
            .enumerate()
            .map(|(k, &steps)| {
                (0..steps * 2).map(|i| pool[(i + 7 * k) % pool.len()]).collect()
            })
            .collect();

        let got = decode_batch(&frames_llrs, terminated, KernelMode::Lanes);
        for (k, llrs) in frames_llrs.iter().enumerate() {
            prop_assert_eq!(&decode_scalar(llrs, terminated), &got[k], "frame {}", k);
        }
    }

    #[test]
    fn lockstep_scalar_mode_is_byte_equal_too(
        lens in proptest::collection::vec(1usize..40, 1..6),
        pool in arb_llrs(80),
    ) {
        // The scalar lockstep path (per-frame scalar kernel) must decode
        // the same bits as the lane lockstep path as well.
        let frames_llrs: Vec<Vec<f64>> = lens
            .iter()
            .enumerate()
            .map(|(k, &steps)| {
                (0..steps * 2).map(|i| pool[(i + 11 * k) % pool.len()]).collect()
            })
            .collect();
        prop_assert_eq!(
            decode_batch(&frames_llrs, true, KernelMode::Scalar),
            decode_batch(&frames_llrs, true, KernelMode::Lanes)
        );
    }
}
