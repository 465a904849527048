//! The benchmark's own checks, on reduced sizes of every workload. Run
//! with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use cos_perfbench::bench::{end_to_end, tally_prefix, traced};
use cos_perfbench::sim::Sim;
use cos_perfbench::util::available_parallelism;
use cos_perfbench::workloads::{Params, ThreadPlan, NAMES};

fn params(seed: u64, threads: usize) -> Params {
    Params {
        seed,
        threads,
        reduced: true,
    }
}

/// Runs the tallied prefix of a reduced workload; returns its digest and
/// simulated statistics.
fn prefix(name: &str, p: Params) -> (u64, Sim) {
    tally_prefix(name, p)
        .expect("known workload")
        .expect("every check passes")
}

#[test]
fn one_seed_gives_one_digest_and_one_set_of_simulated_metrics() {
    for name in NAMES {
        let a = prefix(name, params(7, 1));
        let b = prefix(name, params(7, 1));
        assert_eq!(
            a.0, b.0,
            "{name}: digests differ between two runs of one seed"
        );
        assert_eq!(
            a.1, b.1,
            "{name}: simulated statistics differ between two runs of one seed"
        );
        for (metric, v, _) in a.1.end_to_end() {
            assert!(v.is_finite(), "{name}: {metric} = {v}");
        }
        let c = prefix(name, params(8, 1));
        assert_ne!(a.0, c.0, "{name}: the seed does not reach the inputs");
    }
}

#[test]
fn engine_thread_count_does_not_change_outcomes() {
    let threads = available_parallelism();
    for name in ["fleet_bulk", "mesh_cells"] {
        let one = prefix(name, params(11, 1));
        let all = prefix(name, params(11, threads));
        assert_eq!(
            one, all,
            "{name}: digest differs between 1 and {threads} engine threads"
        );
    }
}

#[test]
fn simulated_metrics_come_from_the_reference_prefix_whatever_the_seed() {
    const SIMULATED: [&str; 4] = [
        "data_delivery",
        "control_delivery",
        "control_garbled",
        "sim_goodput_mbps",
    ];
    for name in NAMES {
        let simulated = |seed| {
            let r = end_to_end(name, params(seed, 1), 0.05).expect("known workload");
            assert!(r.correct, "{name}: {:?}", r.errors);
            r.metrics
                .into_iter()
                .filter(|m| SIMULATED.contains(&m.0))
                .map(|m| m.1)
                .collect::<Vec<_>>()
        };
        let a = simulated(5);
        assert_eq!(a.len(), 4, "{name}: simulated metrics printed");
        assert!(a.iter().all(|v| v.is_finite()), "{name}: {a:?}");
        assert_eq!(a, simulated(6), "{name}: simulated metrics follow the seed");
    }
}

#[test]
fn a_thread_request_above_the_host_is_clamped_and_labelled() {
    let plan = ThreadPlan::new("fleet_bulk", Some(64), 2);
    assert_eq!((plan.requested, plan.threads, plan.used), (64, 2, 2));
    assert!(plan.clamped);
    let plan = ThreadPlan::new("control_small", None, 2);
    assert_eq!((plan.requested, plan.threads, plan.used), (2, 2, 1));
    assert!(!plan.clamped);
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn spec_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| chunk.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn every_metric_printed_is_named_in_benchmark_json() {
    let e2e = spec_names("end_to_end");
    let per_layer = spec_names("per_layer");
    let workloads = spec_names("workloads");
    assert_eq!(workloads, NAMES, "workload names");
    for name in NAMES {
        let r = end_to_end(name, params(3, available_parallelism()), 0.05).expect("known workload");
        assert!(r.correct, "{name}: {:?}", r.errors);
        let printed: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(printed, e2e, "{name}: end-to-end metric names");

        let r =
            traced(name, params(3, available_parallelism()), 0.1, None).expect("known workload");
        assert!(r.correct, "{name}: {:?}", r.errors);
        let printed: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(printed, per_layer, "{name}: per-layer metric names");
    }
}
