//! End-to-end and per-layer benchmark of the CoS simulator.
//!
//! Four seeded workloads (`fleet_bulk`, `control_small`, `mesh_cells`,
//! `trial_sweep`) run through the public APIs of `cos_core`,
//! `cos_experiments::harness`, `cos_phy`, `cos_fec` and `cos_channel`.
//! An untraced run prints the end-to-end metrics; a traced run prints the
//! per-layer ledger. See `README.md` beside this crate.

pub mod bench;
pub mod sim;
pub mod stages;
pub mod trace;
pub mod util;
pub mod workloads;
