//! `mesh_cells`: tens of `MeshNet` cells of 16 stations in hidden
//! clusters, three quarters coordinated and one quarter CSMA, with
//! station churn; closed loop in ticks, engine threads = available
//! parallelism. Each tick runs one engine drain of one or two frames per
//! cell, so per-drain fixed cost shows here.

use std::time::Instant;

use cos_core::engine::EngineConfig;
use cos_core::mesh::{CtlEvent, DataEvent, MeshConfig, MeshNet, MeshTopology};
use cos_phy::rates::DataRate;

use super::{Params, Sample, Step, Workload};
use crate::sim::Sim;
use crate::stages::{FrameSpec, Kind};
use crate::trace::Tracer;
use crate::util::{mix, secs, Fnv, Rng};

const STATIONS: usize = 16;
/// A churn stripe runs every `CHURN_EVERY` ticks.
const CHURN_EVERY: u64 = 8;

/// Cell-level counters summed over every cell.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    frames: u64,
    frames_ok: u64,
    collided: u64,
    beacons: u64,
    airtime_us: f64,
    delivered_bits: u64,
    cmd_delivered: u64,
    cmd_failed: u64,
}

/// The running mesh.
pub struct Mesh {
    seed: u64,
    net: MeshNet,
    cells: usize,
    snr: Vec<f64>,
    rng: Rng,
    /// Per-station (data events, control events) already tallied.
    cursors: Vec<Vec<(usize, usize)>>,
    tally: bool,
    base: Totals,
    last: Totals,
    sim: Sim,
    trace_digest: Fnv,
    digest: u64,
    attempted: u64,
    steps: u64,
    prefix: usize,
}

impl Mesh {
    /// Builds every cell and runs 56 ticks of warm-up.
    pub fn new(p: Params) -> Self {
        let cells = if p.reduced { 4 } else { 24 };
        let mut rng = Rng::new(p.seed, 3);
        let mut net = MeshNet::with_trace(EngineConfig { threads: p.threads });
        let mut snr = Vec::with_capacity(cells);
        for ci in 0..cells {
            let clusters = 2 + ci % 3;
            let snr_db = 16.0 + 8.0 * (ci as f64 + rng.uniform(0.0, 1.0)) / cells as f64;
            let mut cfg = MeshConfig {
                seed: mix(p.seed, ci as u64 | 3 << 32),
                ..MeshConfig::default()
            };
            if ci % 4 == 3 {
                cfg.coordination = None;
            }
            net.add_cell(
                MeshTopology::hidden_clusters(STATIONS, clusters, snr_db),
                cfg,
            );
            snr.push(snr_db);
        }
        let mut m = Mesh {
            seed: p.seed,
            net,
            cells,
            snr,
            rng,
            cursors: vec![vec![(0, 0); STATIONS]; cells],
            tally: false,
            base: Totals::default(),
            last: Totals::default(),
            sim: Sim::default(),
            trace_digest: Fnv::default(),
            digest: 0,
            attempted: 0,
            steps: 0,
            prefix: if p.reduced { 24 } else { 96 },
        };
        // The first 24 ticks carry about twice the frames of later ones
        // while coordination starts up, and the frame rate settles over
        // the next 32; warm-up runs past both.
        let mut tr = Tracer::default();
        for _ in 0..if p.reduced { 8 } else { 56 } {
            m.step_inner(&mut tr, &mut Vec::new());
        }
        m.attempted = 0;
        m
    }

    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for ci in 0..self.cells {
            let r = self.net.report(ci);
            t.frames += r.frames;
            t.frames_ok += r.frames_ok;
            t.collided += r.collided_frames;
            t.beacons += r.beacons;
            t.airtime_us += r.airtime_us;
            t.delivered_bits += r.delivered_bits;
            t.cmd_delivered += r.cmd_delivered;
            t.cmd_failed += r.cmd_failed;
        }
        t
    }

    /// Tallies the trace events of station `(ci, si)` not yet seen.
    fn consume(&mut self, ci: usize, si: usize) {
        let Some(trace) = self.net.trace(ci, si) else {
            return;
        };
        let (d0, c0) = self.cursors[ci][si];
        if self.tally {
            for e in &trace.data_events[d0..] {
                if let DataEvent::Send { summary, .. } = e {
                    let p = &summary.packet;
                    self.sim.silences_sent += p.silences_sent as u64;
                    self.sim.detection(&p.detection);
                    if summary.rate_after != p.rate {
                        self.sim.rate_changes += 1;
                    }
                    if p.silences_sent > 0 {
                        self.sim.ctl_frames += 1;
                        if p.control_present && !p.control_ok {
                            self.sim.ctl_garbled += 1;
                        }
                    }
                    self.trace_digest.u64(p.control_hash);
                }
            }
            for e in &trace.ctl_events[c0..] {
                if let CtlEvent::Send { summary } = e {
                    let p = &summary.packet;
                    self.sim.silences_sent += p.silences_sent as u64;
                    self.sim.detection(&p.detection);
                    if summary.control_attempted {
                        self.sim.arq_attempts += 1;
                        self.sim.ctl_frames += 1;
                        if p.control_present && !p.control_ok {
                            self.sim.ctl_garbled += 1;
                        }
                    }
                    self.trace_digest.u64(p.control_hash);
                }
            }
        }
        self.cursors[ci][si] = (trace.data_events.len(), trace.ctl_events.len());
    }

    fn step_inner(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> Step {
        let root = tr.enter("mesh.step", self.steps);
        let t0 = Instant::now();
        self.net.step();
        let step_s = secs(t0);
        tr.exit(root);
        self.steps += 1;
        let mut churn_s = 0.0;
        if self.steps.is_multiple_of(CHURN_EVERY) {
            let phase = (self.steps / CHURN_EVERY) as usize % 7;
            for ci in (phase..self.cells).step_by(7) {
                let si = self.rng.below(STATIONS);
                self.consume(ci, si);
                let c = tr.enter("mesh.replace_station", ci as u64);
                let t = Instant::now();
                self.net.replace_station(ci, si);
                churn_s += secs(t);
                tr.exit(c);
                self.cursors[ci][si] = (0, 0);
            }
        }
        let now = self.totals();
        let frames = now.frames + now.beacons - self.last.frames - self.last.beacons;
        self.last = now;
        self.attempted += frames;
        lat_ms.push(step_s * 1e3);
        Step {
            frames,
            secs: step_s + churn_s,
        }
    }
}

impl Workload for Mesh {
    fn step(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> Step {
        self.step_inner(tr, lat_ms)
    }

    fn begin_tally(&mut self) {
        for ci in 0..self.cells {
            for si in 0..STATIONS {
                self.consume(ci, si);
            }
        }
        self.tally = true;
        self.base = self.totals();
    }

    fn end_tally(&mut self) -> (Sim, Vec<(&'static str, f64)>) {
        for ci in 0..self.cells {
            for si in 0..STATIONS {
                self.consume(ci, si);
            }
        }
        self.tally = false;
        let (a, b) = (self.totals(), self.base);
        let s = &mut self.sim;
        s.frames = a.frames - b.frames;
        s.frames_ok = a.frames_ok - b.frames_ok;
        s.payload_bits_ok = a.delivered_bits - b.delivered_bits;
        s.airtime_us = a.airtime_us - b.airtime_us;
        s.ctl_delivered = a.cmd_delivered - b.cmd_delivered;
        s.ctl_resolved = s.ctl_delivered + a.cmd_failed - b.cmd_failed;
        let beacons = a.beacons - b.beacons;
        let all = s.frames + beacons;
        let counts = vec![
            ("engine.frames_per_drain", all as f64 / self.prefix as f64),
            ("mesh.frames_per_tick", all as f64 / self.prefix as f64),
            (
                "mesh.collided_share",
                (a.collided - b.collided) as f64 / s.frames as f64,
            ),
            ("mesh.beacon_share", beacons as f64 / all as f64),
            ("mesh.cmd_delivery", s.control_delivery()),
        ];
        let mut h = Fnv(self.net.digest());
        h.u64(self.trace_digest.0);
        self.digest = h.0;
        (self.sim, counts)
    }

    fn finish(&mut self) -> Result<(), String> {
        let t = self.totals();
        if t.frames_ok > t.frames || t.collided > t.frames {
            return Err(format!("mesh_cells: inconsistent report {t:?}"));
        }
        Ok(())
    }

    fn digest(&self) -> u64 {
        self.digest
    }

    fn ops(&self) -> (u64, u64) {
        (self.attempted, 0)
    }

    fn prefix_steps(&self) -> usize {
        self.prefix
    }

    fn window_steps(&self) -> usize {
        // One beacon period and one churn period: every window carries the
        // same mix of tick kinds.
        CHURN_EVERY as usize
    }

    fn sample(&self) -> Sample {
        // Three data frames per beacon, as in a busy coordinated cell.
        let mut rng = Rng::new(self.seed, 0x5A4D);
        let defaults = MeshConfig::default();
        let specs = (0..64u64)
            .map(|i| {
                let snr_db = self.snr[rng.below(self.cells)];
                if i % 4 == 3 {
                    FrameSpec {
                        payload_len: defaults.beacon_payload_len,
                        rate: Some(defaults.ctl_rate),
                        snr_db,
                        ctl_bits: 12,
                        kind: Kind::Resilient,
                        seed: mix(self.seed, i + (1 << 50)),
                    }
                } else {
                    FrameSpec {
                        payload_len: defaults.payload_len,
                        rate: None::<DataRate>,
                        snr_db,
                        ctl_bits: defaults.uplink_control_bits,
                        kind: Kind::Adaptive,
                        seed: mix(self.seed, i + (1 << 50)),
                    }
                }
            })
            .collect();
        Sample {
            specs,
            lockstep: false,
            hot: false,
            drain_size: Some(32),
            warm: 16,
        }
    }
}
