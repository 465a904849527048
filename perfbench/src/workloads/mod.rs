//! The four workloads. Each builds its inputs from the seed alone, runs
//! in steps, tallies simulated statistics over a fixed prefix of steps,
//! and checks its own outputs.

use crate::sim::Sim;
use crate::stages::FrameSpec;
use crate::trace::Tracer;

pub mod control;
pub mod fleet;
pub mod mesh;
pub mod sweep;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["fleet_bulk", "control_small", "mesh_cells", "trial_sweep"];

/// What a workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Engine or harness worker threads.
    pub threads: usize,
    /// Reduced sizes, for the benchmark's own tests.
    pub reduced: bool,
}

/// Worker threads for a run. Threads never exceed the host's parallelism:
/// a larger request is clamped, and the fingerprint says so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Threads asked for (`--threads`, default the host's parallelism).
    pub requested: usize,
    /// Engine or harness threads the workload is built with.
    pub threads: usize,
    /// Threads the workload actually runs: `control_small` drives its
    /// engine at one thread by design.
    pub used: usize,
    /// Whether the request exceeded the host's parallelism.
    pub clamped: bool,
}

impl ThreadPlan {
    /// The plan for `workload` on a host with `nproc` hardware threads.
    pub fn new(workload: &str, requested: Option<usize>, nproc: usize) -> Self {
        let requested = requested.unwrap_or(nproc);
        let threads = requested.clamp(1, nproc);
        ThreadPlan {
            requested,
            threads,
            used: if workload == "control_small" {
                1
            } else {
                threads
            },
            clamped: requested > nproc,
        }
    }
}

/// One step's host cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    /// Frames completed.
    pub frames: u64,
    /// Host seconds spent in calls into the system (the benchmark's own
    /// bookkeeping excluded).
    pub secs: f64,
}

/// How the traced run samples a workload's frame mix.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The frames, in bundle order.
    pub specs: Vec<FrameSpec>,
    /// Whether the workload's frames decode in lockstep bundles.
    pub lockstep: bool,
    /// Whether consecutive frames reuse one warm workspace (the harness)
    /// rather than visiting many sessions in turn (engine rounds).
    pub hot: bool,
    /// Jobs per engine drain for the engine pass; `None` when the
    /// workload's own drains are traced directly or it has no engine.
    pub drain_size: Option<usize>,
    /// Untimed frames per spec before a pass measures: enough for
    /// adaptive sessions to climb to their operating rate.
    pub warm: usize,
}

/// A running workload.
pub trait Workload {
    /// Runs one step; pushes latency samples (ms) into `lat_ms`.
    fn step(&mut self, tr: &mut Tracer, lat_ms: &mut Vec<f64>) -> Step;
    /// Starts tallying simulated statistics and the digest.
    fn begin_tally(&mut self);
    /// Stops tallying; returns the statistics and the workload's own
    /// deterministic per-layer counts.
    fn end_tally(&mut self) -> (Sim, Vec<(&'static str, f64)>);
    /// Resolves outstanding work after the timed phase and checks every
    /// invariant.
    fn finish(&mut self) -> Result<(), String>;
    /// FNV digest of every outcome in the tallied prefix.
    fn digest(&self) -> u64;
    /// Operations attempted and failed since the timed phase began.
    fn ops(&self) -> (u64, u64);
    /// Steps in the tallied prefix.
    fn prefix_steps(&self) -> usize;
    /// Steps per throughput window.
    fn window_steps(&self) -> usize;
    /// Sample of the frame mix for the traced run.
    fn sample(&self) -> Sample;
}

/// Builds (constructs and warms up) the named workload.
pub fn build(name: &str, p: Params) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fleet_bulk" => Box::new(fleet::Fleet::new(p)),
        "control_small" => Box::new(control::Control::new(p)),
        "mesh_cells" => Box::new(mesh::Mesh::new(p)),
        "trial_sweep" => Box::new(sweep::Sweep::new(p)),
        _ => return None,
    })
}
