//! The traced run's sample passes. A workload hands over a sample of its
//! own frame mix; the sample is then driven
//!
//! 1. once through `CosSession::send_packet_*_summary` (the session
//!    pass),
//! 2. once through the public stage functions, in the order the session's
//!    `transceive` runs them (the stage pass), and
//! 3. once through a `BatchEngine` over a `SessionPool` (the engine
//!    pass), for workloads whose drains sit inside `pump` or `step`.
//!
//! Differencing the three gives each layer's self time.

use std::time::Instant;

use cos_channel::{BatchFrame, ChannelBatch, ChannelConfig, Link};
use cos_core::energy_detector::Detection;
use cos_core::engine::{BatchEngine, ControlId, EngineConfig, PayloadId, SessionId, SessionPool};
use cos_core::power_controller::EmbedError;
use cos_core::session::{CosSession, SessionConfig};
use cos_core::subcarrier_select::{select_control_subcarriers_into, SelectionPolicy};
use cos_core::validation::validate_silences_into;
use cos_core::{AdaptationConfig, EnergyDetector, IntervalCodec, PowerController};
use cos_dsp::lanes::LANES;
use cos_fec::{SymbolBatch, ViterbiDecoder};
use cos_phy::evm::{per_subcarrier_evm, reconstruct_points_into};
use cos_phy::frame::{run_staged_viterbi, staged_lane_frame, PreparedDataField};
use cos_phy::rates::DataRate;
use cos_phy::rx::Receiver;
use cos_phy::subcarriers::NUM_DATA;
use cos_phy::tx::Transmitter;
use cos_phy::{PhyError, PhyWorkspace, TxWorkspace};

use crate::trace::Tracer;
use crate::util::{payload, proc_status_mb, random_bits, Rng};

/// Which session send path a frame takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `send_packet_summary` with explicit control bits.
    Plain,
    /// `send_packet_resilient_summary`, control from the ARQ queue.
    Resilient,
    /// `send_packet_adaptive_summary`, control from the adaptive ARQ queue.
    Adaptive,
}

/// One frame of a workload's mix.
#[derive(Debug, Clone)]
pub struct FrameSpec {
    /// Payload bytes.
    pub payload_len: usize,
    /// Pinned rate, or `None` for the session's own choice.
    pub rate: Option<DataRate>,
    /// Link SNR, dB.
    pub snr_db: f64,
    /// Control message length, bits.
    pub ctl_bits: usize,
    /// Send path.
    pub kind: Kind,
    /// Session seed.
    pub seed: u64,
}

impl FrameSpec {
    /// The session config this frame runs under.
    pub fn config(&self) -> SessionConfig {
        SessionConfig {
            snr_db: self.snr_db,
            rate: self.rate,
            adaptation: (self.kind == Kind::Adaptive).then(AdaptationConfig::default),
            ..Default::default()
        }
    }
}

/// Sends one frame of `spec` on `session`, queueing a control message
/// first when the session's ARQ queue is empty.
pub fn send(session: &mut CosSession, spec: &FrameSpec, payload: &[u8], bits: &[u8]) {
    match spec.kind {
        Kind::Plain => {
            std::hint::black_box(session.send_packet_summary(payload, bits));
        }
        Kind::Resilient => {
            if session.arq_backlog() == 0 {
                session.queue_control(bits.to_vec());
            }
            std::hint::black_box(session.send_packet_resilient_summary(payload));
        }
        Kind::Adaptive => {
            if session.adaptive_backlog() == 0 {
                session.queue_adaptive_control(bits.to_vec());
            }
            std::hint::black_box(session.send_packet_adaptive_summary(payload));
        }
    }
}

/// Mean ns per frame of the session pass: every spec on its own
/// `CosSession`, one frame per session per round (the stage pass's order,
/// so both see the same cache footprint), `warm` untimed rounds, then
/// `frames` timed ones.
pub fn session_pass(specs: &[FrameSpec], warm: usize, frames: usize, tr: &mut Tracer) -> f64 {
    let mut sessions: Vec<(CosSession, Vec<u8>, Vec<u8>)> = specs
        .iter()
        .map(|spec| {
            let data = payload(spec.payload_len, spec.seed);
            let bits = random_bits(&mut Rng::new(spec.seed, 0xB175), spec.ctl_bits);
            (CosSession::new(spec.config(), spec.seed), data, bits)
        })
        .collect();
    let mut total = 0.0;
    let mut n = 0u64;
    for round in 0..warm + frames {
        for (i, (spec, (session, data, bits))) in specs.iter().zip(&mut sessions).enumerate() {
            let t = Instant::now();
            send(session, spec, data, bits);
            let end = Instant::now();
            if round >= warm {
                total += (end - t).as_nanos() as f64;
                n += 1;
                tr.record("session.send", t, end, i as u64);
            }
        }
    }
    total / n as f64
}

/// Stage names in `transceive` order, with the metric each feeds.
pub const STAGES: [(&str, &str); 10] = [
    ("phy.build", "phy.build_ns"),
    ("core.embed", "core.embed_ns"),
    ("phy.render", "phy.render_ns"),
    ("channel.transmit", "channel.transmit_ns"),
    ("phy.front_end", "phy.front_end_ns"),
    ("core.detect", "core.detect_ns"),
    ("phy.demap", "phy.demap_ns"),
    ("fec.viterbi", "fec.viterbi_ns"),
    ("phy.finish", "phy.finish_ns"),
    ("core.feedback", "core.feedback_ns"),
];

/// What the stage pass measured.
#[derive(Debug, Clone, Default)]
pub struct StageResult {
    /// Mean ns per frame of each stage, in [`STAGES`] order.
    pub stage_ns: [f64; 10],
    /// Mean ns per frame of the whole pass, glue between calls included.
    pub frame_ns: f64,
    /// Viterbi ns per trellis step (per frame).
    pub ns_per_step: f64,
    /// Channel ns per transmitted sample.
    pub ns_per_sample: f64,
}

impl StageResult {
    /// Sum of the stage means.
    pub fn stages_ns(&self) -> f64 {
        self.stage_ns.iter().sum()
    }
}

/// One sample frame's private state in the stage pass.
struct Lane {
    link: Link,
    ws: PhyWorkspace,
    reference: TxWorkspace,
    det: Detection,
    thresholds: Vec<f64>,
    truth: Vec<usize>,
    refined: Vec<usize>,
    sel: Vec<usize>,
    fb: Vec<usize>,
    payload: Vec<u8>,
    bits: Vec<u8>,
    rate: DataRate,
    seq: u64,
    prep: Option<Result<PreparedDataField, PhyError>>,
}

impl Lane {
    fn new(spec: &FrameSpec) -> Self {
        Lane {
            link: Link::new(ChannelConfig::default(), spec.snr_db, spec.seed),
            ws: PhyWorkspace::new(),
            reference: TxWorkspace::new(),
            det: Detection::default(),
            thresholds: Vec::new(),
            truth: Vec::new(),
            refined: Vec::new(),
            sel: (9..15).collect(),
            fb: Vec::new(),
            payload: payload(spec.payload_len, spec.seed),
            bits: random_bits(&mut Rng::new(spec.seed, 0xB175), spec.ctl_bits),
            rate: spec.rate.unwrap_or_else(|| DataRate::select(spec.snr_db)),
            seq: 0,
            prep: None,
        }
    }
}

/// Runs `warm + frames` rounds of every spec through the stage functions.
/// Consecutive specs form bundles of up to [`LANES`]; with `lockstep`,
/// a full bundle of equal-length trellises decodes through
/// `decode_lockstep` and airs through `Link::transmit_batch_into`, as the
/// engine does for bundled frames, otherwise every frame runs alone.
/// `hot` selects the visiting order (see below).
pub fn stage_pass(
    specs: &[FrameSpec],
    lockstep: bool,
    hot: bool,
    warm: usize,
    frames: usize,
    tr: &mut Tracer,
) -> StageResult {
    let mut lanes: Vec<Lane> = specs.iter().map(Lane::new).collect();
    let tx = Transmitter::new();
    let rx = Receiver::new();
    let codec = IntervalCodec::default();
    let controller = PowerController::new(codec);
    let detector = EnergyDetector::default();
    let decoder = ViterbiDecoder::new();
    let mut batch = SymbolBatch::new();
    let mut air = ChannelBatch::default();
    let mut stage_ns = [0.0f64; 10];
    let mut frame_ns = 0.0;
    let mut steps = 0u64;
    let mut samples = 0u64;
    let mut n = 0u64;
    let was_on = tr.on;

    // Round-robin visits every bundle once per round, so each frame finds
    // its buffers cold, as in an engine round over a large pool; `hot`
    // runs all of a bundle's rounds back to back, as the harness does with
    // its one workspace per worker.
    let width = if lockstep { LANES } else { 1 };
    let bundles = lanes.len().div_ceil(width);
    let rounds = warm + frames;
    let order: Vec<(usize, usize)> = if hot {
        (0..bundles)
            .flat_map(|b| (0..rounds).map(move |r| (r, b)))
            .collect()
    } else {
        (0..rounds)
            .flat_map(|r| (0..bundles).map(move |b| (r, b)))
            .collect()
    };
    for (round, bi) in order {
        let timed = round >= warm;
        tr.on = was_on && timed;
        let bundle = &mut lanes[bi * width..((bi + 1) * width).min(specs.len())];
        let bundle_start = Instant::now();
        let open = tr.enter("stage.bundle", bi as u64);
        let mut clock = Clock {
            last: Instant::now(),
            acc: [0.0; 10],
        };
        for lane in bundle.iter_mut() {
            lane.seq += 1;
            let seed = (lane.seq % 127 + 1) as u8;
            clock.reset();
            tx.build_frame_into(&lane.payload, lane.rate, seed, &mut lane.ws.tx);
            clock.lap(tr, 0, lane.seq);
            lane.truth.clear();
            loop {
                match controller.embed_into(
                    &mut lane.ws.tx.frame,
                    &lane.sel,
                    &lane.bits,
                    &mut lane.truth,
                ) {
                    Ok(()) => break,
                    Err(EmbedError::MessageTooLong { .. }) if lane.sel.len() < NUM_DATA => {
                        // The session's own remedy: spread extra
                        // subcarriers across the band and retry.
                        let mut extra: Vec<usize> =
                            (0..NUM_DATA).filter(|sc| !lane.sel.contains(sc)).collect();
                        extra.sort_by_key(|&sc| (sc * 7919) % NUM_DATA);
                        lane.sel.extend(extra.into_iter().take(6));
                        lane.sel.sort_unstable();
                    }
                    Err(e) => panic!("stage pass cannot embed: {e}"),
                }
            }
            clock.lap(tr, 1, lane.seq);
            lane.ws.tx.render();
            clock.lap(tr, 2, lane.seq);
        }

        // Air: one batched round for a full bundle of equal-length
        // waveforms, per frame otherwise.
        clock.reset();
        let equal = bundle.windows(2).all(|w| {
            w[0].ws.tx.samples.len() == w[1].ws.tx.samples.len()
                && w[0].link.lead_in() == w[1].link.lead_in()
                && w[0].link.channel().tap_count() == w[1].link.channel().tap_count()
        });
        if lockstep && bundle.len() == LANES && equal {
            let mut frames: Vec<Option<BatchFrame<'_>>> = bundle
                .iter_mut()
                .map(|l| {
                    Some((
                        &mut l.link,
                        l.ws.tx.samples.as_slice(),
                        &mut l.ws.rx.samples,
                    ))
                })
                .collect();
            Link::transmit_batch_into(&mut frames, &mut air);
            clock.lap(tr, 3, bi as u64);
        } else {
            for lane in bundle.iter_mut() {
                lane.link
                    .transmit_into(&lane.ws.tx.samples, &mut lane.ws.rx.samples);
                clock.lap(tr, 3, lane.seq);
            }
        }
        samples += bundle
            .iter()
            .map(|l| l.ws.tx.samples.len() as u64)
            .sum::<u64>()
            * timed as u64;

        for lane in bundle.iter_mut() {
            clock.reset();
            let fe = rx.front_end_into(&lane.ws.rx.samples, &mut lane.ws.rx.fe);
            clock.lap(tr, 4, lane.seq);
            lane.prep = None;
            if fe.is_err() {
                continue;
            }
            detector.detect_into(
                &lane.ws.rx.fe,
                &lane.sel,
                &mut lane.thresholds,
                &mut lane.det,
            );
            clock.lap(tr, 5, lane.seq);
            let cos_phy::RxWorkspace {
                fe, scratch, out, ..
            } = &mut lane.ws.rx;
            lane.prep = Some(rx.decode_prepare_into(fe, Some(&lane.det.erasures), scratch, out));
            clock.lap(tr, 6, lane.seq);
        }

        // Viterbi: lockstep over a full bundle of equal trellises,
        // per frame otherwise.
        clock.reset();
        let staged: Vec<Option<PreparedDataField>> =
            bundle.iter().map(|l| l.prep.and_then(|p| p.ok())).collect();
        let bundle_steps: u64 = staged.iter().flatten().map(|p| p.steps() as u64).sum();
        let same = staged.iter().all(|p| p.is_some())
            && staged
                .windows(2)
                .all(|w| w[0].map(|p| p.steps()) == w[1].map(|p| p.steps()));
        if lockstep && bundle.len() == LANES && same {
            let mut frames: Vec<_> = bundle
                .iter_mut()
                .zip(&staged)
                .map(|(l, p)| {
                    staged_lane_frame(p.expect("checked above"), &mut l.ws.rx.scratch.fec)
                })
                .collect();
            decoder.decode_lockstep(&mut frames, true, &mut batch);
            clock.lap(tr, 7, bi as u64);
        } else {
            for (lane, p) in bundle.iter_mut().zip(&staged) {
                if let Some(p) = p {
                    run_staged_viterbi(*p, &mut lane.ws.rx.scratch.fec);
                    clock.lap(tr, 7, lane.seq);
                }
            }
        }
        steps += bundle_steps * timed as u64;

        for lane in bundle.iter_mut() {
            clock.reset();
            if let Some(prep) = lane.prep {
                let cos_phy::RxWorkspace {
                    fe, scratch, out, ..
                } = &mut lane.ws.rx;
                rx.decode_finish_into(fe, prep, scratch, out);
                clock.lap(tr, 8, lane.seq);
                if let (true, Some(seed)) = (out.crc_ok, out.scrambler_seed) {
                    let reference =
                        reconstruct_points_into(&out.payload, lane.rate, seed, &mut lane.reference);
                    validate_silences_into(fe, &lane.sel, reference, &mut lane.refined);
                    let evm = per_subcarrier_evm(
                        &fe.equalized,
                        reference,
                        lane.rate.modulation(),
                        Some(&lane.det.erasures),
                    );
                    let snrs = fe.per_subcarrier_snr();
                    let mut snr_db = [0.0f64; NUM_DATA];
                    for (slot, &s) in snr_db.iter_mut().zip(snrs.iter()) {
                        *slot = cos_dsp::linear_to_db(s.max(1e-12));
                    }
                    select_control_subcarriers_into(
                        &evm,
                        &snr_db,
                        SelectionPolicy::weak_by_evm(lane.rate.modulation(), 6),
                        &mut lane.fb,
                    );
                    std::mem::swap(&mut lane.sel, &mut lane.fb);
                    clock.lap(tr, 9, lane.seq);
                }
            }
            lane.link.channel_mut().advance(1e-3);
        }
        tr.exit(open);
        if timed {
            for (a, c) in stage_ns.iter_mut().zip(clock.acc) {
                *a += c;
            }
            frame_ns += bundle_start.elapsed().as_nanos() as f64;
            n += bundle.len() as u64;
        }
    }
    tr.on = was_on;
    let per = |x: f64| x / n as f64;
    StageResult {
        stage_ns: stage_ns.map(per),
        frame_ns: per(frame_ns),
        ns_per_step: stage_ns[7] / steps as f64,
        ns_per_sample: stage_ns[3] / samples as f64,
    }
}

/// Lap timer that turns consecutive calls into stage spans.
struct Clock {
    last: Instant,
    acc: [f64; 10],
}

impl Clock {
    fn reset(&mut self) {
        self.last = Instant::now();
    }

    fn lap(&mut self, tr: &mut Tracer, stage: usize, id: u64) {
        let now = Instant::now();
        self.acc[stage] += (now - self.last).as_nanos() as f64;
        tr.record(STAGES[stage].0, self.last, now, id);
        self.last = now;
    }
}

/// What the engine pass measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineResult {
    /// Host ns per frame of `drain_into`, times the worker threads.
    pub drain_ns: f64,
    /// Mean µs per `SessionPool::create`.
    pub create_us: f64,
    /// RSS growth per created and warmed session, MB.
    pub session_mb: f64,
}

/// Drives the sample through a `BatchEngine` at `threads`, in drains of
/// `drain_size` jobs: `warm` untimed rounds over every spec, then `drains`
/// timed drains.
pub fn engine_pass(
    specs: &[FrameSpec],
    threads: usize,
    drain_size: usize,
    warm: usize,
    drains: usize,
    tr: &mut Tracer,
) -> EngineResult {
    let rss0 = proc_status_mb("VmRSS:");
    let mut pool = SessionPool::with_capacity(specs.len());
    let mut engine = BatchEngine::new(EngineConfig { threads });
    let mut create_ns = 0.0;
    let mut ids: Vec<(SessionId, PayloadId, ControlId, Vec<u8>)> = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        let id = pool.create(spec.config(), spec.seed);
        create_ns += t.elapsed().as_nanos() as f64;
        tr.record("engine.create", t, Instant::now(), spec.seed);
        let bits = random_bits(&mut Rng::new(spec.seed, 0xB175), spec.ctl_bits);
        let p = engine.add_payload(&payload(spec.payload_len, spec.seed));
        let c = engine.add_control(&bits);
        ids.push((id, p, c, bits));
    }
    let mut out = Vec::new();
    let mut cursor = 0usize;
    let mut submit = |engine: &mut BatchEngine, pool: &mut SessionPool, n: usize| {
        for _ in 0..n {
            let k = cursor % specs.len();
            cursor += 1;
            let (id, p, c, bits) = &ids[k];
            let session = pool.get_mut(*id).expect("engine pass sessions stay live");
            match specs[k].kind {
                Kind::Plain => engine.submit(*id, *p, *c),
                Kind::Resilient => {
                    if session.arq_backlog() == 0 {
                        session.queue_control(bits.clone());
                    }
                    engine.submit_resilient(*id, *p);
                }
                Kind::Adaptive => {
                    if session.adaptive_backlog() == 0 {
                        session.queue_adaptive_control(bits.clone());
                    }
                    engine.submit_adaptive(*id, *p);
                }
            }
        }
    };
    for _ in 0..warm {
        submit(&mut engine, &mut pool, specs.len());
        engine.drain_into(&mut pool, &mut out);
    }
    let session_mb = (proc_status_mb("VmRSS:") - rss0).max(0.0) / specs.len() as f64;
    let mut drain_ns = 0.0;
    let mut frames = 0usize;
    for d in 0..drains {
        submit(&mut engine, &mut pool, drain_size);
        let t = Instant::now();
        engine.drain_into(&mut pool, &mut out);
        let end = Instant::now();
        drain_ns += (end - t).as_nanos() as f64;
        tr.record("engine.drain_into", t, end, d as u64);
        frames += out.len();
    }
    EngineResult {
        drain_ns: drain_ns * threads as f64 / frames as f64,
        create_us: create_ns / 1e3 / specs.len() as f64,
        session_mb,
    }
}
