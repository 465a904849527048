//! Quick wall-clock profile of the workspace rx chain, stage by stage —
//! plus per-kernel micro-benches for the two lane-structured stages: the
//! Viterbi ACS (per-frame scalar / lockstep, ns per trellis step) and the
//! channel impair path (scalar / lanes, ns per sample through
//! `Link::transmit_into`). `--json` prints the same numbers as a JSON
//! object on stdout for machine consumption; the human-readable table
//! always goes to stderr.

use std::time::Instant;

use cos_bench::bench_payload;
use cos_channel::{ChannelConfig, Link};
use cos_core::session::{CosSession, SessionConfig};
use cos_dsp::{set_kernel_mode, KernelMode};
use cos_fec::{LaneFrame, SymbolBatch, ViterbiDecoder};
use cos_phy::rates::DataRate;
use cos_phy::{PhyWorkspace, RxPipeline, TxPipeline};

fn main() {
    let json_out = std::env::args().any(|a| a == "--json");
    let payload = bench_payload();
    let mut link = Link::new(ChannelConfig::default(), 20.0, 42);
    let tx = TxPipeline::new();
    let rx = RxPipeline::new();
    let mut ws = PhyWorkspace::new();
    let n = 200;

    let mut t_build = 0.0;
    let mut t_chan = 0.0;
    let mut t_fe = 0.0;
    let mut t_dec = 0.0;
    for _ in 0..n {
        let t0 = Instant::now();
        tx.build_and_render(&payload, DataRate::Mbps24, 0x5D, &mut ws.tx);
        let t1 = Instant::now();
        link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        let t2 = Instant::now();
        let cos_phy::RxWorkspace { samples, fe, scratch, out, .. } = &mut ws.rx;
        rx.receiver().front_end_into(samples, fe).expect("clean");
        let t3 = Instant::now();
        rx.receiver().decode_into(fe, None, scratch, out);
        let t4 = Instant::now();
        t_build += (t1 - t0).as_secs_f64();
        t_chan += (t2 - t1).as_secs_f64();
        t_fe += (t3 - t2).as_secs_f64();
        t_dec += (t4 - t3).as_secs_f64();
    }
    let tot = t_build + t_chan + t_fe + t_dec;
    eprintln!("build    {:7.2} ms ({:4.1}%)", t_build * 1e3, 100.0 * t_build / tot);
    eprintln!("channel  {:7.2} ms ({:4.1}%)", t_chan * 1e3, 100.0 * t_chan / tot);
    eprintln!("frontend {:7.2} ms ({:4.1}%)", t_fe * 1e3, 100.0 * t_fe / tot);
    eprintln!("decode   {:7.2} ms ({:4.1}%)", t_dec * 1e3, 100.0 * t_dec / tot);
    eprintln!("total/frame {:.3} ms", tot * 1e3 / n as f64);

    // Full session path for comparison.
    let mut session = CosSession::new(
        SessionConfig { snr_db: 28.0, rate: Some(DataRate::Mbps24), ..Default::default() },
        7,
    );
    let control: Vec<u8> = (0..16).map(|i| (i % 3 == 0) as u8).collect();
    for _ in 0..20 {
        session.send_packet_summary(&payload, &control);
    }
    let t0 = Instant::now();
    for _ in 0..n {
        session.send_packet_summary(&payload, &control);
    }
    let session_ms = t0.elapsed().as_secs_f64() * 1e3 / n as f64;
    eprintln!("session/frame {session_ms:.3} ms");

    // Channel kernel micro-bench: the full impair path (conv + faults +
    // AWGN) over the rendered frame, per kernel, in ns per tx sample.
    // Same link seed per mode — the kernels are bit-identical, so both
    // modes process identical waveforms and draw counts.
    let tx_samples = ws.tx.samples.len();
    let mut chan_ns: Vec<(&str, f64)> = Vec::new();
    for (name, mode) in [("scalar", KernelMode::Scalar), ("lanes", KernelMode::Lanes)] {
        set_kernel_mode(mode);
        let mut link = Link::new(ChannelConfig::default(), 20.0, 42);
        for _ in 0..20 {
            link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        }
        let t0 = Instant::now();
        for _ in 0..n {
            link.transmit_into(&ws.tx.samples, &mut ws.rx.samples);
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / (n * tx_samples) as f64;
        eprintln!("channel {name:>7}: {ns:6.2} ns/sample");
        chan_ns.push((name, ns));
    }
    set_kernel_mode(KernelMode::Lanes);

    // Viterbi kernel micro-bench: one 8192-step frame.
    let steps = 8192usize;
    let llrs: Vec<f64> = (0..steps * 2)
        .map(|i| ((i as f64 * 0.7).sin() * 3.0 * 1000.0).round() / 1000.0)
        .collect();
    let dec = ViterbiDecoder::new();
    let mut prev = vec![0u64; steps];
    let mut out = vec![0u8; steps];
    let mut vit_ns: Vec<(&str, f64)> = Vec::new();
    let t0 = Instant::now();
    for _ in 0..20 {
        dec.decode_to_slices(&llrs, true, &mut prev, &mut out);
    }
    let scalar_ns = t0.elapsed().as_secs_f64() * 1e9 / (20 * steps) as f64;
    eprintln!("viterbi   scalar: {scalar_ns:6.1} ns/step");
    vit_ns.push(("scalar", scalar_ns));
    let mut prevs: Vec<Vec<u64>> = (0..cos_dsp::lanes::LANES).map(|_| vec![0u64; steps]).collect();
    let mut outs: Vec<Vec<u8>> = (0..cos_dsp::lanes::LANES).map(|_| vec![0u8; steps]).collect();
    let mut batch = SymbolBatch::new();
    let t0 = Instant::now();
    for _ in 0..20 {
        let mut frames: Vec<LaneFrame<'_>> = prevs
            .iter_mut()
            .zip(outs.iter_mut())
            .map(|(p, o)| LaneFrame { llrs: &llrs, prev_lsbs: p, out: o })
            .collect();
        dec.decode_lockstep(&mut frames, true, &mut batch);
    }
    let lockstep_ns = t0.elapsed().as_secs_f64() * 1e9 / (20 * cos_dsp::lanes::LANES * steps) as f64;
    eprintln!("viterbi lockstep: {lockstep_ns:6.1} ns/step (per frame)");
    vit_ns.push(("lockstep", lockstep_ns));

    if json_out {
        let chan_rows: Vec<String> = chan_ns
            .iter()
            .map(|(name, ns)| format!("    \"{name}\": {ns:.3}"))
            .collect();
        let vit_rows: Vec<String> = vit_ns
            .iter()
            .map(|(name, ns)| format!("    \"{name}\": {ns:.3}"))
            .collect();
        println!(
            "{{\n  \"bench\": \"stage_profile\",\n  \"frames\": {n},\n  \
             \"stages_ms\": {{\n    \"build\": {:.3},\n    \"channel\": {:.3},\n    \
             \"frontend\": {:.3},\n    \"decode\": {:.3}\n  }},\n  \
             \"total_ms_per_frame\": {:.4},\n  \"session_ms_per_frame\": {session_ms:.4},\n  \
             \"channel_ns_per_sample\": {{\n{}\n  }},\n  \
             \"channel_lanes_speedup\": {:.3},\n  \
             \"viterbi_ns_per_step\": {{\n{}\n  }}\n}}",
            t_build * 1e3,
            t_chan * 1e3,
            t_fe * 1e3,
            t_dec * 1e3,
            tot * 1e3 / n as f64,
            chan_rows.join(",\n"),
            chan_ns[0].1 / chan_ns[1].1,
            vit_rows.join(",\n"),
        );
    }
}
