//! The two kinds of run: an untraced run that measures the end-to-end
//! metrics, and a traced run that measures the per-layer ledger.

use std::time::Instant;

use cos_dsp::{kernel_mode, set_kernel_mode, KernelMode};

use crate::sim::Sim;
use crate::stages::{engine_pass, session_pass, stage_pass, EngineResult, StageResult, STAGES};
use crate::trace::Tracer;
use crate::util::{host_probe_ns, median, proc_status_mb, process_cpu_s, quantile, secs};
use crate::workloads::{build, Params, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A window counts towards the host-time metrics when its host probe took
/// at most this multiple of the run's tenth-percentile probe.
const CALM: f64 = 1.5;

/// One metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Outcome digest over the tallied prefix.
    pub digest: u64,
    /// Why the run is not correct, when it is not.
    pub errors: Vec<String>,
    /// Human-readable notes (sample counts and the like).
    pub notes: Vec<String>,
}

/// One throughput window: a fixed number of steps.
#[derive(Debug, Clone, Copy)]
struct Window {
    frames: u64,
    /// Host seconds inside calls into the system.
    secs: f64,
    /// Process CPU seconds over the window.
    cpu_s: f64,
    /// The slower of the host probes taken before and after the window
    /// (`host_probe_ns`).
    probe_ns: f64,
    traced: bool,
}

impl Window {
    fn fps(&self) -> f64 {
        self.frames as f64 / self.secs
    }
}

/// What the timed phase collected.
#[derive(Debug, Default)]
struct Timed {
    windows: Vec<Window>,
    lat_ms: Vec<f64>,
    /// Index of the window each latency sample fell in.
    lat_window: Vec<u32>,
    sim: Sim,
    counts: Vec<(&'static str, f64)>,
    /// `VmHWM` when the tallied prefix ended: set-up plus a fixed amount
    /// of work, so it does not grow with host speed.
    peak_rss_mb: f64,
}

impl Timed {
    /// Frame rates of the traced (or untraced) windows.
    fn rates(&self, traced: bool) -> Vec<f64> {
        self.windows
            .iter()
            .filter(|w| w.traced == traced)
            .map(Window::fps)
            .collect()
    }

    /// Frames in traced windows.
    fn traced_frames(&self) -> u64 {
        self.windows
            .iter()
            .filter(|w| w.traced)
            .map(|w| w.frames)
            .sum()
    }

    /// Indices of the untraced windows in which the host did not stall
    /// the benchmark's core: the host probe around the window took at most
    /// `CALM` times its tenth percentile over the untraced windows.
    ///
    /// The probe is the benchmark's own code, so a window is kept or
    /// dropped by the host's state (preemption, steal, a co-tenant on the
    /// core), never by how fast the program ran in it. A stall the program
    /// causes itself stays in the metrics.
    fn calm(&self) -> Vec<usize> {
        let untraced = |i: &usize| !self.windows[*i].traced;
        let probes: Vec<f64> = (0..self.windows.len())
            .filter(untraced)
            .map(|i| self.windows[i].probe_ns)
            .collect();
        let cut = CALM * quantile(&probes, 0.1);
        (0..self.windows.len())
            .filter(|i| untraced(i) && self.windows[*i].probe_ns <= cut)
            .collect()
    }
}

/// Runs steps for at least `seconds` and at least the tallied prefix, in
/// whole windows. With `alternate`, odd windows are traced and even ones
/// are not, so one run yields both rates.
fn timed_phase(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64, alternate: bool) -> Timed {
    let mut t = Timed::default();
    let prefix = w.prefix_steps();
    let per_window = w.window_steps();
    let mut tallied = None;
    w.begin_tally();
    let t0 = Instant::now();
    let mut steps = 0usize;
    loop {
        if steps >= prefix && secs(t0) >= seconds {
            break;
        }
        tr.on = alternate && t.windows.len() % 2 == 1;
        let mut win = Window {
            frames: 0,
            secs: 0.0,
            cpu_s: 0.0,
            probe_ns: 0.0,
            traced: tr.on,
        };
        let cpu0 = process_cpu_s();
        let probe0 = host_probe_ns();
        for _ in 0..per_window {
            if steps == prefix {
                tallied = Some(w.end_tally());
                t.peak_rss_mb = proc_status_mb("VmHWM:");
            }
            let s = w.step(tr, &mut t.lat_ms);
            t.lat_window.resize(t.lat_ms.len(), t.windows.len() as u32);
            win.frames += s.frames;
            win.secs += s.secs;
            steps += 1;
        }
        win.cpu_s = process_cpu_s() - cpu0;
        win.probe_ns = probe0.max(host_probe_ns());
        t.windows.push(win);
    }
    if steps == prefix {
        tallied = Some(w.end_tally());
        t.peak_rss_mb = proc_status_mb("VmHWM:");
    }
    tr.on = false;
    (t.sim, t.counts) = tallied.expect("the loop runs past the prefix");
    t
}

fn finish(name: &str, w: &mut dyn Workload, sim: &Sim, errors: &mut Vec<String>) {
    if let Err(e) = w.finish() {
        errors.push(e);
    }
    for (metric, v, _) in sim.end_to_end() {
        if !v.is_finite() {
            errors.push(format!(
                "{name}: simulated metric {metric} is not finite ({v})"
            ));
        }
    }
}

/// Seed of the reference traffic. The four simulated metrics are tallied
/// on it rather than on `--seed`, so every seed reports the same values
/// and any change in what the simulated link delivers shows in them.
pub const REFERENCE_SEED: u64 = 0xC05;

/// Builds a workload, runs its tallied prefix untimed and checks it:
/// the outcome digest and the simulated statistics, or what broke.
pub fn tally_prefix(name: &str, p: Params) -> Option<Result<(u64, Sim), String>> {
    let mut w = build(name, p)?;
    let mut tr = Tracer::default();
    w.begin_tally();
    for _ in 0..w.prefix_steps() {
        w.step(&mut tr, &mut Vec::new());
    }
    let (sim, _) = w.end_tally();
    let mut errors = Vec::new();
    finish(name, w.as_mut(), &sim, &mut errors);
    Some(match errors.into_iter().next() {
        Some(e) => Err(e),
        None => Ok((w.digest(), sim)),
    })
}

/// The untraced run: `SETUPS` set-ups, then the timed phase, then the
/// reference prefix that yields the simulated metrics.
pub fn end_to_end(name: &str, p: Params, seconds: f64) -> Option<Report> {
    let mut setup = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        drop(w.take());
        let t = Instant::now();
        w = Some(build(name, p)?);
        setup.push(secs(t));
    }
    let mut w = w.expect("at least one set-up");
    let mut tr = Tracer::default();
    let t = timed_phase(w.as_mut(), &mut tr, seconds, false);
    let mut errors = Vec::new();
    finish(name, w.as_mut(), &t.sim, &mut errors);
    let (attempted, failed) = w.ops();
    let (digest, window_steps) = (w.digest(), w.window_steps());
    drop(w);
    let sim = match tally_prefix(
        name,
        Params {
            seed: REFERENCE_SEED,
            ..p
        },
    )? {
        Ok((_, sim)) => sim,
        Err(e) => {
            errors.push(format!("reference prefix: {e}"));
            Sim::default()
        }
    };

    let calm = t.calm();
    let frames: u64 = calm.iter().map(|&i| t.windows[i].frames).sum();
    let cpu_s: f64 = calm.iter().map(|&i| t.windows[i].cpu_s).sum();
    let lat: Vec<f64> = t
        .lat_ms
        .iter()
        .zip(&t.lat_window)
        .filter(|(_, wi)| calm.binary_search(&(**wi as usize)).is_ok())
        .map(|(&l, _)| l)
        .collect();
    let rates = t.rates(false);
    let calm_rates: Vec<f64> = calm.iter().map(|&i| t.windows[i].fps()).collect();
    let metrics: Vec<Metric> = vec![
        ("setup_s", median(&setup), "s"),
        ("frames_per_s", median(&calm_rates), "1/s"),
        ("cpu_ms_per_frame", cpu_s * 1e3 / frames as f64, "ms"),
        ("latency_p50_ms", quantile(&lat, 0.5), "ms"),
        ("latency_p99_ms", quantile(&lat, 0.99), "ms"),
        ("peak_rss_mb", t.peak_rss_mb, "MB"),
    ]
    .into_iter()
    .chain(sim.end_to_end())
    .collect();
    let q = |x: f64| quantile(&rates, x);
    let notes = vec![
        format!(
            "windows {} of {window_steps} steps, {} calm; frames/s of all windows p10 {:.0}, \
             p50 {:.0}, p90 {:.0}",
            rates.len(),
            calm.len(),
            q(0.1),
            q(0.5),
            q(0.9)
        ),
        format!(
            "latency samples {} in calm windows ({} beyond p99) of {}",
            lat.len(),
            lat.len() / 100,
            t.lat_ms.len()
        ),
        format!("frames {frames} in calm windows"),
        format!("setup runs {setup:?}"),
        format!(
            "reference prefix (seed {REFERENCE_SEED}): {} frames, {} front-end failures",
            sim.frames, sim.fe_failures
        ),
    ];
    Some(Report {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        digest,
        errors,
        notes,
    })
}

/// Per-layer metric names and units, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("phy.build_ns", "ns"),
    ("core.embed_ns", "ns"),
    ("phy.render_ns", "ns"),
    ("channel.transmit_ns", "ns"),
    ("channel.ns_per_sample", "ns"),
    ("phy.front_end_ns", "ns"),
    ("core.detect_ns", "ns"),
    ("phy.demap_ns", "ns"),
    ("fec.viterbi_ns", "ns"),
    ("fec.ns_per_step", "ns"),
    ("phy.finish_ns", "ns"),
    ("core.feedback_ns", "ns"),
    ("core.session_self_ns", "ns"),
    ("engine.self_ns", "ns"),
    ("engine.frames_per_drain", "count"),
    ("engine.create_us", "us"),
    ("engine.session_mb", "MB"),
    ("service.admit_ns", "ns"),
    ("service.pump_self_ns", "ns"),
    ("service.wait_ticks_p99", "ticks"),
    ("service.rejected_share", "share"),
    ("service.expired_share", "share"),
    ("mesh.self_ns", "ns"),
    ("mesh.frames_per_tick", "count"),
    ("mesh.collided_share", "share"),
    ("mesh.beacon_share", "share"),
    ("mesh.cmd_delivery", "share"),
    ("harness.trial_self_ns", "ns"),
    ("core.silences_per_frame", "count"),
    ("core.silence_missed_share", "share"),
    ("core.silence_phantom_share", "share"),
    ("resilience.arq_attempts_per_msg", "count"),
    ("adaptation.rate_changes_per_kframe", "count"),
    ("ledger.residual_share", "share"),
    ("trace.overhead_share", "share"),
    ("fec.ns_per_step.scalar", "ns"),
    ("fec.ns_per_step.lanes", "ns"),
    ("channel.ns_per_sample.scalar", "ns"),
    ("channel.ns_per_sample.lanes", "ns"),
    ("kernel.scalar.frames_per_s", "1/s"),
    ("kernel.lanes.frames_per_s", "1/s"),
];

/// Timed frames per sample spec in one sample pass.
const SAMPLE_FRAMES: usize = 6;
/// Repetitions of the sample passes.
const PASSES: usize = 3;

/// Field-wise median of repeated stage passes.
fn median_stage(runs: &[StageResult]) -> StageResult {
    let m = |f: &dyn Fn(&StageResult) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    StageResult {
        stage_ns: std::array::from_fn(|i| m(&|r| r.stage_ns[i])),
        frame_ns: m(&|r| r.frame_ns),
        ns_per_step: m(&|r| r.ns_per_step),
        ns_per_sample: m(&|r| r.ns_per_sample),
    }
}

/// The traced run: one set-up, a timed phase whose windows alternate
/// between traced and untraced, a kernel A/B, and the sample passes.
/// Spans are written to `spans_out` when given.
pub fn traced(
    name: &str,
    p: Params,
    seconds: f64,
    spans_out: Option<&std::path::Path>,
) -> Option<Report> {
    let mut w = build(name, p)?;
    let mut tr = Tracer::with_capacity(1 << 20);
    let t = timed_phase(w.as_mut(), &mut tr, seconds, true);
    let frames = t.traced_frames().max(1) as f64;
    let threads = match name {
        "control_small" => 1.0,
        _ => p.threads as f64,
    };

    // Kernel A/B on the workload itself, untraced; the default mode is
    // restored afterwards.
    let default_mode = kernel_mode();
    let mut ab_fps = [0.0f64; 2];
    for (slot, mode) in [KernelMode::Scalar, KernelMode::Lanes]
        .into_iter()
        .enumerate()
    {
        set_kernel_mode(mode);
        let mut off = Tracer::default();
        let ab = ab_phase(w.as_mut(), &mut off, seconds / 4.0);
        ab_fps[slot] = ab;
    }
    set_kernel_mode(default_mode);

    let mut errors = Vec::new();
    finish(name, w.as_mut(), &t.sim, &mut errors);
    let (attempted, failed) = w.ops();
    let mut sample = w.sample();
    if p.reduced {
        sample.specs.truncate(16);
    }

    // Sample passes: stages under each kernel and the session path,
    // interleaved `PASSES` times and reduced to medians, since the layer
    // self times are their differences. Where the workload's drains sit
    // inside the service or the mesh, an engine pass follows. Spans of the
    // first repetition go into the trace.
    let uses_sessions = name != "trial_sweep";
    let modes = [KernelMode::Scalar, KernelMode::Lanes];
    let mut by_mode: [Vec<StageResult>; 2] = [Vec::new(), Vec::new()];
    let mut sessions = Vec::new();
    for rep in 0..PASSES {
        for (slot, mode) in modes.into_iter().enumerate() {
            set_kernel_mode(mode);
            tr.on = rep == 0 && mode == default_mode;
            by_mode[slot].push(stage_pass(
                &sample.specs,
                sample.lockstep,
                sample.hot,
                sample.warm,
                SAMPLE_FRAMES,
                &mut tr,
            ));
        }
        set_kernel_mode(default_mode);
        tr.on = rep == 0;
        if uses_sessions {
            sessions.push(session_pass(
                &sample.specs,
                sample.warm,
                SAMPLE_FRAMES,
                &mut tr,
            ));
        }
    }
    let stage_by_mode = by_mode.map(|runs| median_stage(&runs));
    let stage = stage_by_mode[modes
        .iter()
        .position(|&m| m == default_mode)
        .expect("two modes")]
    .clone();
    let session_ns = if uses_sessions {
        median(&sessions)
    } else {
        0.0
    };
    tr.on = true;
    let engine = match sample.drain_size {
        Some(n) => engine_pass(&sample.specs, threads as usize, n, sample.warm, 24, &mut tr),
        None => EngineResult::default(),
    };

    tr.on = false;
    let per = |span: &str| tr.total_ns(span) / frames;
    let count = |key: &str| {
        t.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    };
    let session_self = if uses_sessions {
        session_ns - stage.frame_ns
    } else {
        0.0
    };
    let (engine_ns, create_us, session_mb) = match name {
        "fleet_bulk" => {
            let creates = tr.durations("engine.create");
            let create_us = creates.iter().sum::<f64>() / creates.len().max(1) as f64 / 1e3;
            (
                per("engine.drain_into") * threads,
                create_us,
                count("engine.session_mb"),
            )
        }
        _ => (engine.drain_ns, engine.create_us, engine.session_mb),
    };
    let engine_self = if engine_ns > 0.0 {
        engine_ns - session_ns
    } else {
        0.0
    };
    let stages = stage.stages_ns();
    let (frame_ns, layers, service_admit, pump_self, mesh_self, trial_self) = match name {
        "fleet_bulk" => {
            let f = per("fleet.round") * threads;
            let creates = per("engine.create");
            (
                f,
                stages + session_self + engine_self + creates,
                0.0,
                0.0,
                0.0,
                0.0,
            )
        }
        "control_small" => {
            let f = per("service.tick");
            let admit = per("service.try_submit");
            let pump_self = per("service.pump") - engine_ns;
            let queue = per("session.queue_control");
            (
                f,
                stages + session_self + engine_self + admit + pump_self + queue,
                admit,
                pump_self,
                0.0,
                0.0,
            )
        }
        "mesh_cells" => {
            let f = (per("mesh.step") + per("mesh.replace_station")) * threads;
            let mesh_self = f - engine_ns;
            (
                f,
                stages + session_self + engine_self + mesh_self,
                0.0,
                0.0,
                mesh_self,
                0.0,
            )
        }
        _ => {
            let f = per("harness.run_trials") * threads;
            let trial_self = per("harness.trial") - stage.frame_ns;
            (f, stages + trial_self, 0.0, 0.0, 0.0, trial_self)
        }
    };
    let untraced = median(&t.rates(false));
    let mut values: Vec<(&str, f64)> = STAGES
        .iter()
        .zip(stage.stage_ns)
        .map(|(&(_, metric), v)| (metric, v))
        .collect();
    values.extend([
        ("channel.ns_per_sample", stage.ns_per_sample),
        ("fec.ns_per_step", stage.ns_per_step),
        ("core.session_self_ns", session_self),
        ("engine.self_ns", engine_self),
        ("engine.frames_per_drain", count("engine.frames_per_drain")),
        ("engine.create_us", create_us),
        ("engine.session_mb", session_mb),
        ("service.admit_ns", service_admit),
        ("service.pump_self_ns", pump_self),
        ("mesh.self_ns", mesh_self),
        ("harness.trial_self_ns", trial_self),
        ("ledger.residual_share", (frame_ns - layers) / frame_ns),
        (
            "trace.overhead_share",
            1.0 - median(&t.rates(true)) / untraced,
        ),
        ("fec.ns_per_step.scalar", stage_by_mode[0].ns_per_step),
        ("fec.ns_per_step.lanes", stage_by_mode[1].ns_per_step),
        (
            "channel.ns_per_sample.scalar",
            stage_by_mode[0].ns_per_sample,
        ),
        (
            "channel.ns_per_sample.lanes",
            stage_by_mode[1].ns_per_sample,
        ),
        ("kernel.scalar.frames_per_s", ab_fps[0]),
        ("kernel.lanes.frames_per_s", ab_fps[1]),
    ]);
    values.extend(t.counts.iter().copied());
    values.extend(t.sim.counts());

    let mut notes = vec![
        format!(
            "ledger per frame: workload {frame_ns:.0} ns, layers {layers:.0} ns, stage pass {:.0} ns \
             (stages {stages:.0} ns), session pass {session_ns:.0} ns, engine {engine_ns:.0} ns",
            stage.frame_ns
        ),
        format!(
            "traced windows {} / untraced {}; spans {}",
            t.rates(true).len(),
            t.rates(false).len(),
            tr.spans().len()
        ),
    ];
    let metrics = PER_LAYER
        .iter()
        .map(|&(metric, unit)| {
            let v = values
                .iter()
                .find(|(k, _)| *k == metric)
                .map_or(0.0, |&(_, v)| v);
            if v.is_finite() {
                (metric, v, unit)
            } else {
                notes.push(format!("{metric} was not finite ({v}); reported as 0"));
                (metric, 0.0, unit)
            }
        })
        .collect();
    if let Some(path) = spans_out {
        match tr.write_to(path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
        }
    }
    Some(Report {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        digest: w.digest(),
        errors,
        notes,
    })
}

/// Untraced windows for `seconds` after the timed phase; median rate.
fn ab_phase(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64) -> f64 {
    let t0 = Instant::now();
    let mut rates = Vec::new();
    let mut lat = Vec::new();
    while secs(t0) < seconds || rates.is_empty() {
        let (mut f, mut s) = (0u64, 0.0f64);
        for _ in 0..w.window_steps() {
            let step = w.step(tr, &mut lat);
            f += step.frames;
            s += step.secs;
        }
        rates.push(f as f64 / s);
        lat.clear();
    }
    median(&rates)
}
