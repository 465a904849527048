//! Regenerates the golden-vector corpus under `tests/vectors/`.
//!
//! One `.cosv` file per 802.11a rate, freezing the transmit waveform and
//! the receiver's decode of it. `tests/golden_vectors.rs` (root package)
//! rebuilds both sides from source and fails on any bit or sample drift,
//! so the corpus is only regenerated deliberately — after a change that
//! is *supposed* to alter the waveform — by running this binary and
//! committing the diff.
//!
//! File format (little-endian throughout):
//!
//! ```text
//! magic    b"COSV"
//! version  u32            (1)
//! rate     u8             (index into DataRate::ALL)
//! seed     u8             (scrambler seed)
//! plen     u32            payload length in bytes
//! payload  [u8; plen]
//! dbits    u64            FNV-1a of the decoded (descrambled) data bits
//! hbits    u64            FNV-1a of the decoder's hard coded-bit decisions
//! nsamp    u32            sample count
//! samples  [f64 re, f64 im; nsamp]
//! ```

use std::io::Write as _;

use cos_dsp::fnv1a;
use cos_phy::pipeline::{TxPipeline, TxWorkspace};
use cos_phy::rates::DataRate;
use cos_phy::rx::{Receiver, RxConfig};

const SCRAMBLER_SEED: u8 = 0x5D;
const PAYLOAD_LEN: usize = 64;

fn vector_payload(rate_idx: usize) -> Vec<u8> {
    (0..PAYLOAD_LEN).map(|i| ((i * 37 + rate_idx * 101 + 7) % 256) as u8).collect()
}

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/vectors");
    std::fs::create_dir_all(dir).expect("create tests/vectors");

    let tx = TxPipeline::new();
    let mut ws = TxWorkspace::new();
    for (ridx, &rate) in DataRate::ALL.iter().enumerate() {
        let payload = vector_payload(ridx);
        tx.build_and_render(&payload, rate, SCRAMBLER_SEED, &mut ws);
        let samples = &ws.samples;

        let rx = Receiver::new()
            .receive(samples, &RxConfig::ideal())
            .expect("golden frame must decode");
        assert_eq!(rx.payload.as_deref(), Some(&payload[..]), "golden frame must pass CRC");

        let mut buf = Vec::new();
        buf.extend_from_slice(b"COSV");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(ridx as u8);
        buf.push(SCRAMBLER_SEED);
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        buf.extend_from_slice(&fnv1a(rx.data_bits.iter().copied()).to_le_bytes());
        buf.extend_from_slice(&fnv1a(rx.hard_coded_bits.iter().copied()).to_le_bytes());
        buf.extend_from_slice(&(samples.len() as u32).to_le_bytes());
        for s in samples {
            buf.extend_from_slice(&s.re.to_le_bytes());
            buf.extend_from_slice(&s.im.to_le_bytes());
        }

        let path = format!("{dir}/rate_{:02}mbps.cosv", rate.mbps());
        let mut f = std::fs::File::create(&path).expect("create vector file");
        f.write_all(&buf).expect("write vector file");
        eprintln!("{path}: {} samples, {} payload bytes", samples.len(), payload.len());
    }
    eprintln!("golden vectors regenerated — commit the diff only if the change was intended");
}
