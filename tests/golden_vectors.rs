//! Golden-vector conformance suite.
//!
//! `tests/vectors/` holds one frozen `.cosv` file per 802.11a rate,
//! produced by `cargo run --release -p cos-bench --bin gen_golden_vectors`
//! (see that binary for the format). Each file freezes the transmit
//! waveform for a fixed payload/seed and the receiver's decode of it.
//!
//! Two properties are pinned, per rate:
//!
//! * **Sample conformance** — rebuilding the frame from today's source
//!   reproduces the frozen waveform to the exact `f64` bit pattern. Any
//!   drift in the scrambler, encoder, interleaver, mapper, pilot
//!   insertion or IFFT fails here.
//! * **Bit conformance** — decoding the *frozen* samples reproduces the
//!   frozen payload and bit digests. Any drift in the front end,
//!   demapper, Viterbi or descrambler fails here, even if the transmit
//!   side drifted in a compensating way.
//!
//! Regenerate the corpus (and commit the diff) only when a waveform
//! change is intended.

use cos_dsp::fnv1a;
use cos_phy::pipeline::{TxPipeline, TxWorkspace};
use cos_phy::rates::DataRate;
use cos_phy::rx::{Receiver, RxConfig};

struct Vector {
    rate: DataRate,
    seed: u8,
    payload: Vec<u8>,
    data_bits_digest: u64,
    hard_bits_digest: u64,
    samples: Vec<cos_dsp::Complex>,
}

fn read_u32(buf: &[u8], at: &mut usize) -> u32 {
    let v = u32::from_le_bytes(buf[*at..*at + 4].try_into().unwrap());
    *at += 4;
    v
}

fn read_u64(buf: &[u8], at: &mut usize) -> u64 {
    let v = u64::from_le_bytes(buf[*at..*at + 8].try_into().unwrap());
    *at += 8;
    v
}

fn read_f64(buf: &[u8], at: &mut usize) -> f64 {
    let v = f64::from_le_bytes(buf[*at..*at + 8].try_into().unwrap());
    *at += 8;
    v
}

fn parse(buf: &[u8]) -> Vector {
    let mut at = 0usize;
    assert_eq!(&buf[..4], b"COSV", "bad magic");
    at += 4;
    assert_eq!(read_u32(buf, &mut at), 1, "unknown vector version");
    let rate = DataRate::ALL[buf[at] as usize];
    let seed = buf[at + 1];
    at += 2;
    let plen = read_u32(buf, &mut at) as usize;
    let payload = buf[at..at + plen].to_vec();
    at += plen;
    let data_bits_digest = read_u64(buf, &mut at);
    let hard_bits_digest = read_u64(buf, &mut at);
    let nsamp = read_u32(buf, &mut at) as usize;
    let mut samples = Vec::with_capacity(nsamp);
    for _ in 0..nsamp {
        let re = read_f64(buf, &mut at);
        let im = read_f64(buf, &mut at);
        samples.push(cos_dsp::Complex::new(re, im));
    }
    assert_eq!(at, buf.len(), "trailing bytes in vector file");
    Vector { rate, seed, payload, data_bits_digest, hard_bits_digest, samples }
}

fn vectors() -> Vec<Vector> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/vectors");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/vectors exists — regenerate with gen_golden_vectors")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "cosv"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), DataRate::ALL.len(), "one vector per 802.11a rate");
    paths.iter().map(|p| parse(&std::fs::read(p).expect("read vector"))).collect()
}

#[test]
fn transmit_waveforms_match_golden_samples() {
    let tx = TxPipeline::new();
    let mut ws = TxWorkspace::new();
    for v in vectors() {
        tx.build_and_render(&v.payload, v.rate, v.seed, &mut ws);
        assert_eq!(
            ws.samples.len(),
            v.samples.len(),
            "{:?}: waveform length drifted",
            v.rate
        );
        for (i, (got, want)) in ws.samples.iter().zip(&v.samples).enumerate() {
            assert!(
                got.re.to_bits() == want.re.to_bits() && got.im.to_bits() == want.im.to_bits(),
                "{:?}: sample {i} drifted — got {got:?}, golden {want:?}",
                v.rate
            );
        }
    }
}

#[test]
fn decoding_golden_samples_matches_golden_bits() {
    let rx = Receiver::new();
    for v in vectors() {
        let frame = rx.receive(&v.samples, &RxConfig::ideal()).expect("golden frame decodes");
        assert_eq!(
            frame.payload.as_deref(),
            Some(&v.payload[..]),
            "{:?}: decoded payload drifted",
            v.rate
        );
        assert_eq!(frame.scrambler_seed, Some(v.seed), "{:?}: scrambler seed drifted", v.rate);
        assert_eq!(
            fnv1a(frame.data_bits.iter().copied()),
            v.data_bits_digest,
            "{:?}: data-bit digest drifted",
            v.rate
        );
        assert_eq!(
            fnv1a(frame.hard_coded_bits.iter().copied()),
            v.hard_bits_digest,
            "{:?}: hard coded-bit digest drifted",
            v.rate
        );
    }
}
