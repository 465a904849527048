//! `cos-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--threads <n>]`
//!
//! Prints a host fingerprint line, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when a check fails.

use cos_perfbench::bench::{end_to_end, traced, Report};
use cos_perfbench::util::available_parallelism;
use cos_perfbench::workloads::{Params, ThreadPlan, NAMES};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Option<String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let need = |key: &str| get(key).ok_or_else(|| format!("missing {key}"));
    let workload = need("--workload")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {NAMES:?}"
        ));
    }
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let threads = match get("--threads") {
        Some(t) => Some(t.parse().map_err(|e| format!("--threads: {e}"))?),
        None => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cos-perfbench: {e}");
            eprintln!(
                "usage: cos-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--threads <n>]",
                NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = available_parallelism();
    let plan = ThreadPlan::new(&args.workload, args.threads, nproc);
    let params = Params {
        seed: args.seed,
        threads: plan.threads,
        reduced: false,
    };

    let report: Report = if args.trace {
        let spans = format!(".bench_trace/{}-{}.tsv", args.workload, args.seed);
        traced(
            &args.workload,
            params,
            args.seconds,
            Some(std::path::Path::new(&spans)),
        )
    } else {
        end_to_end(&args.workload, params, args.seconds)
    }
    .expect("workload name was validated");

    let kernels_env = std::env::var("COS_KERNELS").unwrap_or_else(|_| "unset".into());
    let mode = format!("{:?}", cos_dsp::kernel_mode()).to_lowercase();
    let rev = std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into());
    let fingerprint = format!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"cpu_model\": {}, \"rustflags\": {}, \"cos_kernels\": {}, \"kernel_mode\": {}, \"rev\": {}, \
         \"threads_requested\": {}, \"threads_used\": {}, \"threads_clamped\": {}, \
         \"digest\": \"{:016x}\"}}}}",
        json_str(&args.workload),
        args.seed,
        args.trace as u8,
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        json_str(&kernels_env),
        json_str(&mode),
        json_str(&rev),
        plan.requested,
        plan.used,
        plan.clamped,
        report.digest,
    );
    eprintln!("{fingerprint}");
    for note in &report.notes {
        eprintln!("  {note}");
    }
    for e in &report.errors {
        eprintln!("  CHECK FAILED: {e}");
    }
    println!("{fingerprint}");
    let finite = report.metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        eprintln!("  CHECK FAILED: a metric is not finite; reported as 0");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct && finite,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !(report.correct && finite) {
        std::process::exit(1);
    }
}
