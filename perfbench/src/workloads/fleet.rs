//! `fleet_bulk`: a closed loop of several hundred pooled sessions. Each
//! round every session submits one plain CoS job and the engine drains
//! the round; a stripe of sessions is released and recreated after each
//! round.

use std::time::Instant;

use cos_core::engine::{
    BatchEngine, ControlId, EngineConfig, JobOutcome, JobResult, PayloadId, SessionId, SessionPool,
};
use cos_core::session::SessionConfig;
use cos_phy::rates::DataRate;

use super::{Params, Sample, Step, Workload};
use crate::sim::Sim;
use crate::stages::{FrameSpec, Kind};
use crate::trace::Tracer;
use crate::util::{bits_hash, mix, payload, proc_status_mb, random_bits, secs, Fnv, Rng};

const PAYLOAD_LENS: [usize; 2] = [504, 1020];
const CONTROL_LENS: [usize; 3] = [16, 20, 24];
/// Control messages registered up front; jobs pick one at random.
const CONTROLS: usize = 48;
/// Every `CHURN`-th session (phase-shifted per round) is recreated.
const CHURN: usize = 29;

/// Slot `k`'s link out of `n`: slots cycle through the eight rates and,
/// within a rate, spread evenly over 14–25 dB with a seeded jitter, so
/// every seed sees the same mix of operating points.
fn session_config(k: usize, n: usize, rng: &mut Rng) -> SessionConfig {
    let strata = n.div_ceil(8);
    SessionConfig {
        snr_db: 14.0 + 11.0 * ((k / 8) as f64 + rng.uniform(0.0, 1.0)) / strata as f64,
        rate: Some(DataRate::ALL[k % 8]),
        ..Default::default()
    }
}

/// The running fleet.
pub struct Fleet {
    seed: u64,
    pool: SessionPool,
    engine: BatchEngine,
    ids: Vec<SessionId>,
    payloads: [PayloadId; 2],
    controls: Vec<(ControlId, u64)>,
    /// Per-job (payload index, control index) of the current round.
    jobs: Vec<(usize, usize)>,
    last_rate: Vec<Option<DataRate>>,
    rng: Rng,
    round: usize,
    out: Vec<JobOutcome>,
    tally: bool,
    sim: Sim,
    digest: Fnv,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    session_mb: f64,
    prefix: usize,
}

impl Fleet {
    /// Builds the pool and warms every session's buffers: the first warm
    /// round sends the largest payload with the longest control message.
    pub fn new(p: Params) -> Self {
        let n = if p.reduced { 24 } else { 384 };
        let rss0 = proc_status_mb("VmRSS:");
        let mut rng = Rng::new(p.seed, 1);
        let mut pool = SessionPool::with_capacity(n);
        let ids = (0..n)
            .map(|i| pool.create(session_config(i, n, &mut rng), mix(p.seed, i as u64)))
            .collect();
        let mut engine = BatchEngine::new(EngineConfig { threads: p.threads });
        let payloads =
            PAYLOAD_LENS.map(|len| engine.add_payload(&payload(len, p.seed ^ len as u64)));
        // Control 0 is the longest message, which the first warm round sends.
        let controls = (0..CONTROLS)
            .map(|c| {
                let len = if c == 0 {
                    CONTROL_LENS[2]
                } else {
                    CONTROL_LENS[rng.below(CONTROL_LENS.len())]
                };
                let bits = random_bits(&mut rng, len);
                (engine.add_control(&bits), bits_hash(&bits))
            })
            .collect();
        let mut fleet = Fleet {
            seed: p.seed,
            pool,
            engine,
            ids,
            payloads,
            controls,
            jobs: vec![(0, 0); n],
            last_rate: vec![None; n],
            rng,
            round: 0,
            out: Vec::with_capacity(n),
            tally: false,
            sim: Sim::default(),
            digest: Fnv::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            session_mb: 0.0,
            prefix: if p.reduced { 3 } else { 6 },
        };
        let mut tr = Tracer::default();
        fleet.round_with(&mut tr, &mut Vec::new(), Some((1, 0)));
        fleet.round_with(&mut tr, &mut Vec::new(), None);
        fleet.session_mb = (proc_status_mb("VmRSS:") - rss0).max(0.0) / n as f64;
        fleet.attempted = 0;
        fleet.failed = 0;
        fleet
    }

    /// One round. `force` pins every job's payload and control (warm-up).
    fn round_with(
        &mut self,
        tr: &mut Tracer,
        lat_ms: &mut Vec<f64>,
        force: Option<(usize, usize)>,
    ) -> Step {
        let n = self.ids.len();
        for k in 0..n {
            self.jobs[k] = force.unwrap_or_else(|| {
                (
                    self.rng.below(PAYLOAD_LENS.len()),
                    self.rng.below(self.controls.len()),
                )
            });
        }
        let root = tr.enter("fleet.round", self.round as u64);
        let t0 = Instant::now();
        for (k, &(p, c)) in self.jobs.iter().enumerate() {
            self.engine
                .submit(self.ids[k], self.payloads[p], self.controls[c].0);
        }
        let drain = tr.enter("engine.drain_into", self.round as u64);
        self.engine.drain_into(&mut self.pool, &mut self.out);
        tr.exit(drain);
        let latency = secs(t0);
        let t1 = Instant::now();
        self.check_and_tally();
        let bookkeeping = secs(t1);

        // Churn a stripe: released sessions park as spares and are
        // recycled into the replacements.
        for k in (self.round % CHURN..n).step_by(CHURN) {
            if !self.pool.release(self.ids[k]) {
                self.errors.push(format!(
                    "round {}: release of a live session failed",
                    self.round
                ));
            }
            let cfg = session_config(k, n, &mut self.rng);
            let seed = mix(self.seed, (self.round * n + k) as u64 | 1 << 40);
            let c = tr.enter("engine.create", k as u64);
            self.ids[k] = self.pool.create(cfg, seed);
            tr.exit(c);
            self.last_rate[k] = None;
        }
        let total = secs(t0);
        tr.exit(root);
        self.round += 1;
        lat_ms.push(latency * 1e3);
        Step {
            frames: n as u64,
            secs: total - bookkeeping,
        }
    }

    fn check_and_tally(&mut self) {
        let n = self.ids.len();
        self.attempted += n as u64;
        if self.out.len() != n {
            self.errors.push(format!(
                "round {}: {} outcomes for {n} jobs",
                self.round,
                self.out.len()
            ));
            self.failed += n as u64;
            return;
        }
        for (k, o) in self.out.iter().enumerate() {
            if o.session != self.ids[k] {
                self.errors.push(format!(
                    "round {}: outcome {k} on the wrong session",
                    self.round
                ));
            }
            let JobResult::Plain(p) = o.result else {
                self.errors.push(format!(
                    "round {}: outcome {k} is not a plain result",
                    self.round
                ));
                self.failed += 1;
                continue;
            };
            if !self.tally {
                continue;
            }
            let (pi, ci) = self.jobs[k];
            let sent = self.controls[ci].1;
            let s = &mut self.sim;
            s.frame(&p, PAYLOAD_LENS[pi]);
            s.rate(&mut self.last_rate[k], p.rate);
            s.ctl_frames += 1;
            s.ctl_resolved += 1;
            if p.control_present && p.control_hash == sent {
                s.ctl_delivered += 1;
            } else if p.control_present {
                s.ctl_garbled += 1;
            }
            let h = &mut self.digest;
            h.u64(o.session.index() as u64);
            h.u64(o.session.generation() as u64);
            h.byte(p.data_ok as u8 | (p.control_present as u8) << 1 | (p.control_ok as u8) << 2);
            h.u64(p.silences_sent as u64);
            h.u64(p.detection.false_positives as u64);
            h.u64(p.detection.false_negatives as u64);
            h.f64(p.measured_snr_db);
            h.byte(p.rate as u8);
            h.u64(p.selected_hash);
            h.u64(p.control_hash);
        }
    }
}

impl Workload for Fleet {
    fn step(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> Step {
        self.round_with(tr, lat_ms, None)
    }

    fn begin_tally(&mut self) {
        self.tally = true;
    }

    fn end_tally(&mut self) -> (Sim, Vec<(&'static str, f64)>) {
        self.tally = false;
        let counts = vec![
            ("engine.frames_per_drain", self.ids.len() as f64),
            ("engine.session_mb", self.session_mb),
        ];
        (self.sim, counts)
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.errors.first() {
            Some(e) => Err(format!("fleet_bulk: {e} ({} errors)", self.errors.len())),
            None => Ok(()),
        }
    }

    fn digest(&self) -> u64 {
        self.digest.0
    }

    fn ops(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    fn prefix_steps(&self) -> usize {
        self.prefix
    }

    fn window_steps(&self) -> usize {
        1
    }

    fn sample(&self) -> Sample {
        // Eight bundles of eight frames that share payload length and
        // rate, as the engine's bundle key groups them.
        let mut rng = Rng::new(self.seed, 0x5A4D);
        let mut specs = Vec::new();
        for b in 0..8u64 {
            let len = PAYLOAD_LENS[rng.below(2)];
            let rate = DataRate::ALL[rng.below(8)];
            for l in 0..8u64 {
                specs.push(FrameSpec {
                    payload_len: len,
                    rate: Some(rate),
                    snr_db: rng.uniform(14.0, 25.0),
                    ctl_bits: CONTROL_LENS[rng.below(3)],
                    kind: Kind::Plain,
                    seed: mix(self.seed, b * 8 + l + (1 << 50)),
                });
            }
        }
        Sample {
            specs,
            lockstep: true,
            hot: false,
            drain_size: None,
            warm: 2,
        }
    }
}
