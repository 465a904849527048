//! `trial_sweep`: a fig09-style batch over SNR × rate × seed. Each trial
//! probes the channel (`harness::probe_channel`), places the control
//! subcarriers (`harness::choose_subcarriers`) and sends a run of packets
//! through `harness::run_packet`, the loop `harness::measure_prr` runs,
//! here unrolled so control outcomes stay visible. Trials spread over the
//! workers with `harness::run_trials`. This is the only workload on the
//! per-frame kernels: no engine bundling, per-frame Viterbi and channel.

use std::time::Instant;

use cos_channel::Link;
use cos_core::IntervalCodec;
use cos_experiments::harness::{self, TrialConfig};
use cos_phy::rates::DataRate;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{Params, Sample, Step, Workload};
use crate::sim::Sim;
use crate::stages::{FrameSpec, Kind};
use crate::trace::Tracer;
use crate::util::{mix, secs, Fnv};

/// SNR grid, dB.
const SNRS: [f64; 9] = [10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0, 26.0];
/// Packets per trial after the probe.
const PACKETS: usize = 12;
/// Payload bytes of the probe `harness::probe_channel` sends at 6 Mbps.
const PROBE_LEN: usize = 200;

/// Operating point of trial `t`.
fn point(t: u64) -> (f64, DataRate, usize) {
    let snr = SNRS[(t % 9) as usize];
    let rate = DataRate::ALL[((t / 9) % 8) as usize];
    let silences = 4 + ((t / 72) % 5) as usize;
    (snr, rate, silences)
}

/// One trial's outcome, returned from a worker.
#[derive(Debug, Clone, Copy)]
struct TrialOut {
    start: Instant,
    end: Instant,
    sim: Sim,
    digest: u64,
}

fn trial(seed: u64, t: u64) -> TrialOut {
    let start = Instant::now();
    let (snr, rate, silences) = point(t);
    let tseed = mix(seed, t | 4 << 40);
    let codec = IntervalCodec::default();
    let mut link = Link::new(harness::paper_channel(), snr, tseed);
    let probe = harness::probe_channel(&mut link);
    let cfg = TrialConfig::paper(rate, silences);
    let psdu = cfg.payload.len() + 4;
    let selected =
        harness::choose_subcarriers(&probe, &cfg, rate.data_symbol_count(psdu), &codec, tseed);
    let mut rng = StdRng::seed_from_u64(tseed);
    let mut sim = Sim::default();
    let mut h = Fnv::default();
    h.u64(selected.len() as u64);
    sim.airtime_us += DataRate::Mbps6.frame_airtime_us(PROBE_LEN + 4);
    for _ in 0..PACKETS {
        let o = harness::run_packet(&mut link, &cfg, &selected, &mut rng);
        link.channel_mut().advance(1e-3);
        sim.frames += 1;
        sim.airtime_us += rate.frame_airtime_us(psdu);
        if o.data_ok {
            sim.frames_ok += 1;
            sim.payload_bits_ok += 8 * cfg.payload.len() as u64;
        }
        let d = o.accuracy;
        sim.silences_sent += d.actual_silences as u64;
        sim.detection(&d);
        sim.ctl_frames += 1;
        sim.ctl_resolved += 1;
        sim.arq_attempts += 1;
        if o.control_ok {
            sim.ctl_delivered += 1;
        } else if d.actual_silences + d.false_positives >= d.false_negatives + 2 {
            // The receiver found a silence pattern (two or more silences)
            // that did not decode to the bits sent: a message that differs.
            sim.ctl_garbled += 1;
        }
        h.byte(o.data_ok as u8 | (o.control_ok as u8) << 1);
        h.u64(d.false_positives as u64);
        h.u64(d.false_negatives as u64);
    }
    TrialOut {
        start,
        end: Instant::now(),
        sim,
        digest: h.0,
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn add(a: &mut Sim, b: &Sim) {
    a.frames += b.frames;
    a.frames_ok += b.frames_ok;
    a.payload_bits_ok += b.payload_bits_ok;
    a.airtime_us += b.airtime_us;
    a.ctl_resolved += b.ctl_resolved;
    a.ctl_delivered += b.ctl_delivered;
    a.ctl_frames += b.ctl_frames;
    a.ctl_garbled += b.ctl_garbled;
    a.silences_sent += b.silences_sent;
    a.silence_missed += b.silence_missed;
    a.silence_actual += b.silence_actual;
    a.silence_phantom += b.silence_phantom;
    a.silence_normals += b.silence_normals;
    a.arq_attempts += b.arq_attempts;
}

/// The running sweep.
pub struct Sweep {
    seed: u64,
    batch: usize,
    next: u64,
    tally: bool,
    sim: Sim,
    digest: Fnv,
    attempted: u64,
    prefix: usize,
}

impl Sweep {
    /// Sets the harness worker count and runs one warm batch.
    pub fn new(p: Params) -> Self {
        harness::set_threads(p.threads);
        let mut s = Sweep {
            seed: p.seed,
            batch: 4 * p.threads,
            next: 0,
            tally: false,
            sim: Sim::default(),
            digest: Fnv::default(),
            attempted: 0,
            prefix: if p.reduced { 2 } else { 18 },
        };
        s.run_batch(&mut Tracer::default(), &mut Vec::new());
        s.attempted = 0;
        s
    }

    fn run_batch(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> Step {
        let base = self.next;
        let seed = self.seed;
        let root = tr.enter("harness.run_trials", base);
        let t0 = Instant::now();
        let outs = harness::run_trials(self.batch, |i| trial(seed, base + i as u64));
        let dt = secs(t0);
        for (i, o) in outs.iter().enumerate() {
            tr.record("harness.trial", o.start, o.end, base + i as u64);
        }
        tr.exit(root);
        self.next += self.batch as u64;
        let mut frames = 0;
        for o in &outs {
            lat_ms.push((o.end - o.start).as_secs_f64() * 1e3);
            frames += o.sim.frames + 1;
            if self.tally {
                add(&mut self.sim, &o.sim);
                self.digest.u64(o.digest);
            }
        }
        self.attempted += frames;
        Step { frames, secs: dt }
    }
}

impl Workload for Sweep {
    fn step(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> Step {
        self.run_batch(tr, lat_ms)
    }

    fn begin_tally(&mut self) {
        self.tally = true;
    }

    fn end_tally(&mut self) -> (Sim, Vec<(&'static str, f64)>) {
        self.tally = false;
        (self.sim, Vec::new())
    }

    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }

    fn digest(&self) -> u64 {
        self.digest.0
    }

    fn ops(&self) -> (u64, u64) {
        (self.attempted, 0)
    }

    fn prefix_steps(&self) -> usize {
        self.prefix
    }

    fn window_steps(&self) -> usize {
        // Whole cycles of the SNR × rate grid, so every window carries the
        // same mix of cheap and costly trials.
        let cycle = SNRS.len() * DataRate::ALL.len();
        let trials = cycle * self.batch / gcd(cycle, self.batch);
        trials / self.batch
    }

    fn sample(&self) -> Sample {
        let specs = (0..64u64)
            .map(|i| {
                let t = i * 37 % 360;
                let (snr_db, rate, silences) = point(t);
                FrameSpec {
                    payload_len: harness::paper_payload().len(),
                    rate: Some(rate),
                    snr_db,
                    ctl_bits: (silences - 1) * 4,
                    kind: Kind::Plain,
                    seed: mix(self.seed, t | 4 << 40),
                }
            })
            .collect();
        Sample {
            specs,
            lockstep: false,
            hot: true,
            drain_size: None,
            warm: 2,
        }
    }
}
