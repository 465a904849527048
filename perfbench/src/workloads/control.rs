//! `control_small`: the paper's control plane at its smallest frames.
//! Resilient and adaptive sessions send 64–96-B payloads carrying queued
//! 8–24-bit control messages through `ServiceCore::try_submit` / `pump`
//! at engine threads = 1. Arrivals are drawn per service tick from the
//! seed, independent of completions, at a mean below `batch_limit`: bursts
//! queue while the backlog stays bounded in ticks (open loop in ticks,
//! closed in host time).

use std::time::Instant;

use cos_core::engine::{EngineConfig, JobResult, PayloadId, SessionId};
use cos_core::resilience::ArqStats;
use cos_core::service::{
    ServiceConfig, ServiceCore, ServiceJobKind, ServiceOutcome, ServiceResult,
};
use cos_core::session::{PacketSummary, SessionConfig};
use cos_core::AdaptationConfig;
use cos_phy::rates::DataRate;

use super::{Params, Sample, Step, Workload};
use crate::sim::Sim;
use crate::stages::{FrameSpec, Kind};
use crate::trace::Tracer;
use crate::util::{mix, payload, quantile, random_bits, secs, Rng};

const PAYLOAD_LENS: [usize; 3] = [64, 80, 96];
const CONTROL_LENS: [usize; 5] = [8, 12, 16, 20, 24];
const BATCH_LIMIT: usize = 64;
/// Arrivals per tick are uniform in this range (mean 40 < `BATCH_LIMIT`).
const ARRIVALS: (usize, usize) = (20, 60);
/// A session's ARQ queue is topped up only below this backlog.
const BACKLOG: usize = 2;

/// One admitted job, indexed by ticket.
#[derive(Debug, Clone, Copy)]
struct Due {
    clock: f64,
    tick: u64,
    slot: u32,
    payload: u8,
    resolved: bool,
}

/// The running service.
pub struct Control {
    seed: u64,
    svc: ServiceCore,
    ids: Vec<SessionId>,
    kinds: Vec<Kind>,
    payloads: [PayloadId; 3],
    rng: Rng,
    /// Host seconds spent in the service so far: latencies are measured on
    /// this clock so the benchmark's own bookkeeping never counts.
    clock: f64,
    due: Vec<Due>,
    outs: Vec<ServiceOutcome>,
    last_rate: Vec<Option<DataRate>>,
    tally: bool,
    sim: Sim,
    arq0: ArqStats,
    waits: Vec<f64>,
    digest: u64,
    attempted: u64,
    failed: u64,
    rejected: u64,
    expired: u64,
    errors: Vec<String>,
    step_no: u64,
    prefix: usize,
}

fn arq_total(svc: &ServiceCore, ids: &[SessionId], kinds: &[Kind]) -> ArqStats {
    let mut t = ArqStats::default();
    for (id, kind) in ids.iter().zip(kinds) {
        let s = svc.pool().get(*id).expect("control sessions stay live");
        let a = if *kind == Kind::Adaptive {
            s.adaptive_arq_stats()
        } else {
            s.arq_stats()
        };
        t.enqueued += a.enqueued;
        t.delivered += a.delivered;
        t.failed += a.failed;
        t.attempts += a.attempts;
    }
    t
}

impl Control {
    /// Creates the sessions and warms them up: one job per session, then
    /// a few dozen ticks of seeded arrivals.
    pub fn new(p: Params) -> Self {
        let n = if p.reduced { 16 } else { 768 };
        let mut rng = Rng::new(p.seed, 2);
        let mut svc = ServiceCore::new(ServiceConfig {
            batch_limit: BATCH_LIMIT,
            engine: EngineConfig { threads: 1 },
            ..ServiceConfig::default()
        });
        let mut ids = Vec::with_capacity(n);
        let mut kinds = Vec::with_capacity(n);
        for i in 0..n {
            let adaptive = i % 2 == 1;
            // Resilient slots cycle through the rates; SNRs spread evenly
            // over 16–28 dB with a seeded jitter.
            let cfg = SessionConfig {
                snr_db: 16.0
                    + 12.0 * ((i / 16) as f64 + rng.uniform(0.0, 1.0)) / n.div_ceil(16) as f64,
                rate: (!adaptive).then(|| DataRate::ALL[(i / 2) % 8]),
                adaptation: adaptive.then(AdaptationConfig::default),
                ..Default::default()
            };
            ids.push(svc.create_session(cfg, mix(p.seed, i as u64 | 1 << 32)));
            kinds.push(if adaptive {
                Kind::Adaptive
            } else {
                Kind::Resilient
            });
        }
        let payloads = PAYLOAD_LENS.map(|len| svc.add_payload(&payload(len, p.seed ^ len as u64)));
        let mut c = Control {
            seed: p.seed,
            svc,
            ids,
            kinds,
            payloads,
            rng,
            clock: 0.0,
            due: Vec::new(),
            outs: Vec::new(),
            last_rate: vec![None; n],
            tally: false,
            sim: Sim::default(),
            arq0: ArqStats::default(),
            waits: Vec::new(),
            digest: 0,
            attempted: 0,
            failed: 0,
            rejected: 0,
            expired: 0,
            errors: Vec::new(),
            step_no: 0,
            prefix: if p.reduced { 20 } else { 240 },
        };
        // A fresh session grows its buffers on its first frames, so every
        // session first sends the largest payload with the longest control
        // message, `BATCH_LIMIT` sessions a tick.
        let mut tr = Tracer::default();
        let warm: Vec<usize> = (0..n).collect();
        for slots in warm.chunks(BATCH_LIMIT) {
            let plan = slots
                .iter()
                .map(|&slot| {
                    let bits = random_bits(&mut c.rng, CONTROL_LENS[CONTROL_LENS.len() - 1]);
                    (slot, PAYLOAD_LENS.len() - 1, bits)
                })
                .collect();
            c.tick_with(&mut tr, &mut Vec::new(), plan);
        }
        for _ in 0..if p.reduced { 10 } else { 40 } {
            c.tick(&mut tr, &mut Vec::new());
        }
        c.attempted = 0;
        c.failed = 0;
        c.rejected = 0;
        c.expired = 0;
        c
    }

    /// One tick of seeded arrivals.
    fn tick(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> Step {
        let arrivals = self.rng.range(ARRIVALS.0, ARRIVALS.1);
        let plan = (0..arrivals)
            .map(|_| {
                let slot = self.rng.below(self.ids.len());
                let len = self.rng.below(PAYLOAD_LENS.len());
                let n = CONTROL_LENS[self.rng.below(CONTROL_LENS.len())];
                let bits = random_bits(&mut self.rng, n);
                (slot, len, bits)
            })
            .collect();
        self.tick_with(tr, lat_ms, plan)
    }

    /// One tick whose arrivals are `plan`: (session slot, payload index,
    /// control bits) per job.
    fn tick_with(
        &mut self,
        tr: &mut Tracer,
        lat_ms: &mut Vec<f64>,
        plan: Vec<(usize, usize, Vec<u8>)>,
    ) -> Step {
        let due_clock = self.clock;
        let due_tick = self.svc.tick() + 1;
        let root = tr.enter("service.tick", self.step_no);
        let t0 = Instant::now();
        for (slot, len, bits) in plan {
            let id = self.ids[slot];
            let kind = self.kinds[slot];
            let q = tr.enter("session.queue_control", slot as u64);
            let session = self
                .svc
                .pool_mut()
                .get_mut(id)
                .expect("control sessions stay live");
            if kind == Kind::Adaptive {
                if session.adaptive_backlog() < BACKLOG {
                    session.queue_adaptive_control(bits);
                }
            } else if session.arq_backlog() < BACKLOG {
                session.queue_control(bits);
            }
            tr.exit(q);
            let job = if kind == Kind::Adaptive {
                ServiceJobKind::Adaptive
            } else {
                ServiceJobKind::Resilient
            };
            let s = tr.enter("service.try_submit", slot as u64);
            let admitted = self.svc.try_submit(id, self.payloads[len], job);
            tr.exit(s);
            self.attempted += 1;
            match admitted {
                Ok(t) => {
                    if t.value() as usize != self.due.len() {
                        self.errors
                            .push(format!("ticket {} out of sequence", t.value()));
                    }
                    self.due.push(Due {
                        clock: due_clock,
                        tick: due_tick,
                        slot: slot as u32,
                        payload: len as u8,
                        resolved: false,
                    });
                }
                Err(_) => {
                    self.rejected += 1;
                    self.failed += 1;
                }
            }
        }
        let pump = tr.enter("service.pump", self.step_no);
        self.svc.pump();
        tr.exit(pump);
        let dt = secs(t0);
        tr.exit(root);
        self.clock += dt;
        self.step_no += 1;

        self.svc.take_outcomes(&mut self.outs);
        let frames = self.resolve(lat_ms);
        Step { frames, secs: dt }
    }

    /// Checks and tallies the outcomes taken this tick; returns the jobs
    /// completed.
    fn resolve(&mut self, lat_ms: &mut Vec<f64>) -> u64 {
        let mut frames = 0;
        let tick = self.svc.tick();
        for o in std::mem::take(&mut self.outs) {
            let Some(due) = self.due.get_mut(o.ticket.value() as usize) else {
                self.errors
                    .push(format!("unknown ticket {}", o.ticket.value()));
                continue;
            };
            if due.resolved {
                self.errors
                    .push(format!("ticket {} resolved twice", o.ticket.value()));
                self.failed += 1;
                continue;
            }
            due.resolved = true;
            let due = *due;
            lat_ms.push((self.clock - due.clock) * 1e3);
            let packet = match o.result {
                ServiceResult::Completed(JobResult::Resilient(r)) => {
                    self.count_control(&r.packet, r.control_attempted);
                    r.packet
                }
                ServiceResult::Completed(JobResult::Adaptive(a)) => {
                    self.count_control(&a.packet, a.packet.silences_sent > 0);
                    a.packet
                }
                ServiceResult::Expired => {
                    self.expired += 1;
                    self.failed += 1;
                    continue;
                }
                other => {
                    self.errors
                        .push(format!("ticket {}: unexpected {other:?}", o.ticket.value()));
                    self.failed += 1;
                    continue;
                }
            };
            frames += 1;
            if self.tally {
                self.sim.frame(&packet, PAYLOAD_LENS[due.payload as usize]);
                self.sim
                    .rate(&mut self.last_rate[due.slot as usize], packet.rate);
                self.waits.push((tick - due.tick) as f64);
            }
        }
        frames
    }

    fn count_control(&mut self, p: &PacketSummary, carried: bool) {
        if self.tally && carried {
            self.sim.ctl_frames += 1;
            if p.control_present && !p.control_ok {
                self.sim.ctl_garbled += 1;
            }
        }
    }
}

impl Workload for Control {
    fn step(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> Step {
        self.tick(tr, lat_ms)
    }

    fn begin_tally(&mut self) {
        self.tally = true;
        self.arq0 = arq_total(&self.svc, &self.ids, &self.kinds);
    }

    fn end_tally(&mut self) -> (Sim, Vec<(&'static str, f64)>) {
        self.tally = false;
        let a = arq_total(&self.svc, &self.ids, &self.kinds);
        self.sim.ctl_delivered = a.delivered - self.arq0.delivered;
        self.sim.ctl_resolved = a.delivered + a.failed - self.arq0.delivered - self.arq0.failed;
        self.sim.arq_attempts = a.attempts - self.arq0.attempts;
        self.digest = self.svc.digest();
        let stats = self.svc.stats();
        let counts = vec![
            (
                "engine.frames_per_drain",
                stats.engine_jobs as f64 / stats.pumps as f64,
            ),
            ("service.wait_ticks_p99", quantile(&self.waits, 0.99)),
            (
                "service.rejected_share",
                self.rejected as f64 / self.attempted as f64,
            ),
            (
                "service.expired_share",
                self.expired as f64 / self.attempted as f64,
            ),
        ];
        (self.sim, counts)
    }

    fn finish(&mut self) -> Result<(), String> {
        self.svc.run_to_drained();
        self.svc.take_outcomes(&mut self.outs);
        self.resolve(&mut Vec::new());
        let unresolved = self.due.iter().filter(|d| !d.resolved).count();
        if unresolved > 0 {
            self.errors
                .push(format!("{unresolved} admitted jobs never resolved"));
        }
        let s = self.svc.stats();
        let settled =
            s.completed + s.expired + s.cancelled + s.quarantined_poison + s.quarantined_stall;
        if s.admitted != settled {
            self.errors.push(format!(
                "ServiceStats unbalanced: admitted {} != settled {settled}",
                s.admitted
            ));
        }
        match self.errors.first() {
            Some(e) => Err(format!("control_small: {e} ({} errors)", self.errors.len())),
            None => Ok(()),
        }
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn ops(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    fn prefix_steps(&self) -> usize {
        self.prefix
    }

    fn window_steps(&self) -> usize {
        // Short windows (about 0.05 s) tell apart the moments other tenants
        // slow the host.
        10
    }

    fn sample(&self) -> Sample {
        let mut rng = Rng::new(self.seed, 0x5A4D);
        let specs = (0..64u64)
            .map(|i| {
                let adaptive = i % 2 == 1;
                FrameSpec {
                    payload_len: PAYLOAD_LENS[rng.below(3)],
                    rate: (!adaptive).then(|| DataRate::ALL[rng.below(8)]),
                    snr_db: rng.uniform(16.0, 28.0),
                    ctl_bits: CONTROL_LENS[rng.below(5)],
                    kind: if adaptive {
                        Kind::Adaptive
                    } else {
                        Kind::Resilient
                    },
                    seed: mix(self.seed, i + (1 << 50)),
                }
            })
            .collect();
        Sample {
            specs,
            lockstep: false,
            hot: false,
            drain_size: Some(40),
            warm: 16,
        }
    }
}
