//! The HAP benchmark: one workload per run, end-to-end metrics by
//! default, per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mix|stream_update \
//!     --seed <u64> --seconds <n> --trace 0|1
//! ```
//!
//! Run it from the repository root (`serve_mix` reads the committed
//! `results/model.snap`). The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Traced runs
//! also write their spans to `.bench_out/`. See `WORKLOADS.md` for what
//! each workload stresses and what each metric should move.

mod client;
mod common;
mod gen;
mod replay;
mod report;
mod serve_mix;
mod stats;
mod stream_update;
mod trace;
mod train;

use report::Report;
use trace::Tracer;

const WORKLOADS: [&str; 2] = ["serve_mix", "stream_update"];

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "p50_ms",
    "p90_ms",
    "ops_per_s",
    "peak_rss_mb",
    "recall_at_10",
];

/// Per-layer timing series, each printed as `_p50_us`, `_p90_us`, `_n`.
const TIMINGS: [&str; 18] = [
    "serve.http.read",
    "serve.http.write",
    "serve.json.parse",
    "serve.service.graph_build",
    "serve.batch.wait",
    "serve.service.classify",
    "serve.service.similarity",
    "serve.service.search",
    "serve.service.update",
    "graph.apply",
    "graph.wl_refresh",
    "core.embed",
    "retrieval.index.query_prep",
    "retrieval.index.update_entry",
    "retrieval.cascade.search",
    "train.forward",
    "train.backward",
    "train.eval",
];

/// Per-layer single values.
const SINGLES: [(&str, &str); 9] = [
    ("serve.batch.jobs_per_batch", "count"),
    ("serve.cache.hit_rate", "ratio"),
    ("graph.wl_fallback_frac", "ratio"),
    ("retrieval.index.build_s", "s"),
    ("retrieval.cascade.pruned_frac", "ratio"),
    ("retrieval.cascade.coarse_evals", "count"),
    ("retrieval.cascade.refined", "count"),
    ("snapshot.load_ms", "ms"),
    ("data.generate_s", "s"),
];

/// Layers whose self time per op is reported; `harness` is the traced
/// replay's own time outside every layer span.
const LAYERS: [&str; 9] = [
    "serve.http",
    "serve.json",
    "serve.service",
    "serve.batch",
    "graph",
    "core",
    "retrieval.index",
    "retrieval.cascade",
    "harness",
];

/// Tracing bookkeeping.
const TRACE: [(&str, &str); 4] = [
    ("trace.overhead_wall_ratio", "ratio"),
    ("trace.overhead_p50_ratio", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric name with its unit, in output order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for t in TIMINGS {
        out.push((format!("{t}_p50_us"), "us"));
        out.push((format!("{t}_p90_us"), "us"));
        out.push((format!("{t}_n"), "count"));
    }
    out.extend(SINGLES.iter().map(|&(n, u)| (n.to_string(), u)));
    out.extend(LAYERS.iter().map(|l| (format!("self.{l}_us_per_op"), "us")));
    out.extend(TRACE.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Overhead, unaccounted share and per-layer self time of a traced
/// replay. `path_spans` are the spans that make up one op's end-to-end
/// path; `walls` is `(untraced, traced)` wall time of the same ops.
pub fn trace_summary(
    report: &mut Report,
    tracer: &Tracer,
    path_spans: &[&str],
    (untraced_wall, traced_wall): (f64, f64),
    untraced_p50_ms: f64,
) {
    let ops = tracer
        .spans()
        .iter()
        .filter(|s| s.name == trace::ROOT)
        .count();
    let traced_p50_ms = stats::median(&tracer.durations_us(trace::ROOT)) / 1e3;
    let path_ms = stats::median(&tracer.per_op_sum_us(path_spans)) / 1e3;
    report.set(
        "trace.overhead_wall_ratio",
        traced_wall / untraced_wall,
        "ratio",
    );
    report.set(
        "trace.overhead_p50_ratio",
        traced_p50_ms / untraced_p50_ms,
        "ratio",
    );
    report.set(
        "trace.unaccounted_frac",
        1.0 - path_ms / untraced_p50_ms,
        "ratio",
    );
    report.set("trace.spans", tracer.spans().len() as f64, "count");
    for (layer, ns) in tracer.self_time_ns() {
        let name = if layer == trace::ROOT {
            "harness"
        } else {
            layer
        };
        report.set(
            &format!("self.{name}_us_per_op"),
            ns as f64 / 1e3 / ops.max(1) as f64,
            "us",
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload serve_mix|stream_update --seed <u64> \
         --seconds <n> --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} requires a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let (seed, secs) = (args.seed, args.seconds);
    let serve_mix = args.workload == "serve_mix";
    if !args.trace {
        return if serve_mix {
            serve_mix::run(seed, secs)
        } else {
            stream_update::run(seed, secs)
        };
    }
    let (mut report, tracer) = if serve_mix {
        serve_mix::run_traced(seed, secs)?
    } else {
        stream_update::run_traced(seed, secs)?
    };
    let path = std::path::PathBuf::from(format!(".bench_out/spans_{}_{seed}.tsv", args.workload));
    tracer.write(&path).map_err(|e| e.to_string())?;
    println!("spans: {} -> {}", tracer.spans().len(), path.display());
    // A layer the workload does not run reads 0 with a sample count of 0.
    for (name, unit) in per_layer() {
        if report.get(&name).is_none() {
            report.set(&name, 0.0, unit);
        }
    }
    Ok(report)
}

/// The workloads run the kernels, the index build and the cascade on
/// one thread unless `HAP_THREADS` says otherwise: at the default two
/// threads on a two-core host they compete with the benchmark's own
/// client and server threads, and set-up time and peak memory do not
/// repeat.
fn pin_threads() {
    if std::env::var_os("HAP_THREADS").is_none() {
        hap_par::set_threads(1);
    }
}

fn main() {
    let args = parse_args();
    pin_threads();
    println!("{}", common::host_line());
    println!(
        "workload: {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    match run(&args) {
        Ok(report) => {
            for line in report.lines() {
                println!("{line}");
            }
            let names: Vec<String> = if args.trace {
                per_layer().into_iter().map(|(n, _)| n).collect()
            } else {
                END_TO_END.iter().map(|s| s.to_string()).collect()
            };
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            println!("{}", report.json(&report.select(&names)));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the binary prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v = hap_serve::Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(hap_serve::Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f| {
                        m.get(f)
                            .and_then(hap_serve::Json::as_str)
                            .unwrap()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let want: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), want);
        let e2e: Vec<String> = names("end_to_end").into_iter().map(|(n, _)| n).collect();
        assert_eq!(e2e, END_TO_END);
    }
}
