//! The repository benchmark: four workloads, end-to-end metrics measured
//! from outside the program, and a traced run for per-layer metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--serve-bin PATH] [--out DIR]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. A failed output
//! check exits 1 without printing numbers. See `perfbench/README.md`.

mod converge;
mod host;
mod mix;
mod repro;
mod serve;
mod stats;
mod sweep;
mod trace;

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "repro_tiny",
    "paper_converge",
    "serve_mixed",
    "hijack_sweep",
];

/// End-to-end metrics (`--trace 0`): every workload reports all of them,
/// each for its own unit of work (see the README's table).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) other than `experiments.<name>_ms`.
/// A layer a workload never calls reads 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("topology.gen_ms", "ms"),
    ("audit.world_ms", "ms"),
    ("audit.delta_us", "us"),
    ("bgp.universe_ms", "ms"),
    ("bgp.months_ms", "ms"),
    ("bgp.converged_ms", "ms"),
    ("bgp.unconverged_ms", "ms"),
    ("bgp.activations", "count"),
    ("bgp.imports", "count"),
    ("bgp.unconverged", "count"),
    ("bgp.unconverged_share", "ratio"),
    ("bgp.useful_activation_share", "ratio"),
    ("bgp.parallel_efficiency", "ratio"),
    ("whatif.execute_local_p50_us", "us"),
    ("whatif.execute_local_tail_us", "us"),
    ("whatif.execute_policy_p50_us", "us"),
    ("whatif.execute_policy_tail_us", "us"),
    ("whatif.execute_hijack_p50_us", "us"),
    ("whatif.execute_hijack_tail_us", "us"),
    ("whatif.noedit_us", "us"),
    ("whatif.activations", "count"),
    ("whatif.routes_changed", "count"),
    ("whatif.changed_share", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.encode_whatif_us", "us"),
    ("serve.encode_hijack_us", "us"),
    ("serve.encode_route_us", "us"),
    ("serve.response_bytes_whatif", "bytes"),
    ("serve.response_bytes_hijack", "bytes"),
    ("serve.response_bytes_route", "bytes"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.stall_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.errors", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.certificates_preserved", "count"),
    ("serve.certificates_revoked", "count"),
    ("serve.rss_growth_mb", "MB"),
    ("wire.whatif_p50_ms", "ms"),
    ("wire.whatif_tail_ms", "ms"),
    ("wire.hijack_p50_ms", "ms"),
    ("wire.hijack_tail_ms", "ms"),
    ("wire.route_p50_ms", "ms"),
    ("wire.route_tail_ms", "ms"),
    ("wire.max_qps", "1/s"),
    ("wire.fail_frac", "ratio"),
    ("load.late_ms", "ms"),
    ("dataplane.build_ms", "ms"),
    ("inference.feed_ms", "ms"),
    ("inference.relinfer_ms", "ms"),
    ("measure.campaign_ms", "ms"),
    ("core.convert_ms", "ms"),
    ("core.decisions", "count"),
    ("scenarios.plan_ms", "ms"),
    ("scenarios.cell_p50_ms", "ms"),
    ("scenarios.cell_tail_ms", "ms"),
    ("scenarios.parallel_efficiency", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for name in ir_experiments::report::ALL_EXPERIMENTS {
        out.push((format!("experiments.{name}_ms"), "ms"));
    }
    out
}

/// What a workload is asked to do.
pub struct RunConfig {
    pub seed: u64,
    /// Measurement window.
    pub window: Duration,
    pub trace: bool,
    /// The `ir-serve` executable (serve_mixed only).
    pub serve_bin: PathBuf,
}

/// What a workload measured. Output checks that fail return `Err` from
/// the workload instead.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (a failed operation is one that
    /// errored, was refused, or went unanswered).
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
    out: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds N --trace 0|1 \
         [--serve-bin PATH] [--out DIR]",
        WORKLOADS.join("|")
    );
    exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        serve_bin: PathBuf::from("ir-serve"),
        out: PathBuf::from(".bench_build/perfbench-runs"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        let num = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad number for {flag}: {value}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(),
            "--seconds" => args.seconds = num(),
            "--trace" => args.trace = num() != 0,
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    if args.seconds == 0 {
        usage("--seconds must be at least 1");
    }
    args
}

fn main() {
    let args = parse_args();
    let cfg = RunConfig {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        serve_bin: args.serve_bin.clone(),
    };
    let stamp = host::stamp(&args.workload, args.seed, args.seconds, args.trace);
    println!("stamp: {}", render(&stamp));
    let mut spans = trace::Spans::new();
    let result = match args.workload.as_str() {
        "repro_tiny" => repro::run(&cfg, &mut spans),
        "paper_converge" => converge::run(&cfg, &mut spans),
        "serve_mixed" => serve::run(&cfg, &mut spans),
        "hijack_sweep" => sweep::run(&cfg, &mut spans),
        _ => unreachable!("workload validated by parse_args"),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: output check failed on {}: {e}", args.workload);
            exit(1);
        }
    };
    for line in &outcome.notes {
        println!("  {line}");
    }

    // Exactly the advertised metric set: a metric the workload forgot is
    // a bug in the benchmark; a layer it never calls reads 0.
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in &wanted {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                eprintln!(
                    "perfbench: workload {} did not report {name}",
                    args.workload
                );
                exit(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not a finite number");
            exit(1);
        }
        println!("  {name:<36} {value:>16.4} {unit}");
        metrics.push((
            name.clone(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::String((*unit).into())),
            ]),
        ));
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(true)),
        ("attempted".into(), Value::UInt(outcome.attempted.max(1))),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    write_record(&args, &stamp, &outcome, &result, &spans);
    println!("{}", render(&result));
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| panic!("result encoding: {e}"))
}

/// Keeps the full record of a run (stamp, notes, every metric, result)
/// and, for traced runs, the spans. A record that cannot be written is
/// reported and skipped: the printed result is the contract.
fn write_record(args: &Args, stamp: &Value, o: &Outcome, result: &Value, spans: &trace::Spans) {
    let base = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let all: Vec<(String, Value)> = o
        .metrics
        .iter()
        .map(|(k, v)| (k.clone(), Value::Float(*v)))
        .collect();
    let record = Value::Object(vec![
        ("stamp".into(), stamp.clone()),
        (
            "notes".into(),
            Value::Array(o.notes.iter().map(|n| Value::String(n.clone())).collect()),
        ),
        ("all_metrics".into(), Value::Object(all)),
        ("result".into(), result.clone()),
    ]);
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(args.out.join(format!("{base}.json")), render(&record)))
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    args.out.join(format!("{base}.spans.jsonl")),
                    spans.to_jsonl(),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write run record under {}: {e}",
            args.out.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the metric registry must name the same
    /// workloads and metrics, or what the file declares and what a run
    /// prints drift apart.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .expect("array")
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().expect("name").to_string(),
                        m["unit"].as_str().unwrap_or("").to_string(),
                    )
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }
}
