//! `rvaas-e2ebench` — the served end-to-end benchmark.
//!
//! Runs the real `rvaas` daemon in this process (`Daemon::start`, HTTP and
//! sync listeners on loopback, one worker per core, flight recorder on as
//! shipped) and drives it from at most `nproc` generator threads over at
//! most `nproc` connections: open-loop `POST /v1/query` reads, and rule
//! deltas published through `Daemon::service().try_publish_changes` (the
//! stand-in for a controller feed) whose epochs are pulled over the sync
//! socket. After timing ends an oracle replays the publish log and checks
//! what was served.
//!
//! ```text
//! rvaas-e2ebench --workload <read_hot|churn_mixed|rule_scale|all>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit and sample count; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer ones with `--trace 1`. The exit code is 0 only when the oracle
//! and the daemon's counters found nothing wrong.

mod loadgen;
mod oracle;
mod run;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use run::{Report, CONNECTIONS, END_TO_END, THREADS};
use workload::{WorkloadSpec, WORKLOADS};

/// Where traced runs write their spans and untraced runs their medians,
/// relative to the working directory.
const OUT_DIR: &str = ".bench_trace";

struct Args {
    workloads: Vec<WorkloadSpec>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut named: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        named.insert(key, value);
    }
    let get = |key: &str| {
        named
            .get(key)
            .copied()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let workload = get("workload")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload::by_name(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed expects an integer")?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match named.get("trace").copied().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    if let Some(extra) = named
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(k))
    {
        return Err(format!("unknown flag --{extra}"));
    }
    Ok(Args {
        workloads,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(why) => {
            eprintln!("rvaas-e2ebench: {why}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut combined: Vec<(String, run::Metric)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for spec in &args.workloads {
        let inputs = match workload::generate(spec, args.seed, args.seconds) {
            Ok(i) => i,
            Err(why) => {
                eprintln!("rvaas-e2ebench: {}: {why}", spec.name);
                return ExitCode::from(2);
            }
        };
        println!(
            "workload {} seed {} seconds {} trace {} topology {} read_qps {} publish_per_s {}",
            spec.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            spec.topology,
            spec.read_qps,
            spec.publish_per_s
        );
        println!("host_cores {cores} generator_threads {THREADS} connections {CONNECTIONS}");
        println!(
            "input_digest {:016x} reads {} publishes {} keys {} sessions {}",
            inputs.digest,
            inputs.reads.len(),
            inputs.publishes.len(),
            inputs.keys.len(),
            inputs.sessions.len()
        );
        let report = match run::run(spec, &inputs, args.seed, args.trace, cores) {
            Ok(r) => r,
            Err(why) => {
                eprintln!("rvaas-e2ebench: {}: {why}", spec.name);
                return ExitCode::from(2);
            }
        };
        for m in &report.metrics {
            println!(
                "metric {} {} {} samples {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.samples
            );
            let named = match m.name {
                "query_p99_us" => Some(99.0),
                "converge_p90_ms" => Some(90.0),
                _ => None,
            };
            let tail = stats::tail_percentile(m.samples);
            if named.is_some_and(|p| tail.is_none_or(|t| t < p)) {
                println!(
                    "  note: {} samples leave fewer than ten beyond this percentile; the highest with ten is {}",
                    m.samples,
                    tail.map_or("none".to_string(), |t| format!("p{t}"))
                );
            }
        }
        for note in &report.notes {
            println!("{note}");
        }
        if args.trace {
            print_trace_report(spec.name, args.seed, &report);
        } else {
            save_untraced(spec.name, args.seed, &report);
        }
        attempted += report.attempted;
        failed += report.failed;
        let wanted: Vec<&str> = if args.trace {
            report
                .metrics
                .iter()
                .map(|m| m.name)
                .filter(|n| !END_TO_END.contains(n))
                .collect()
        } else {
            END_TO_END.to_vec()
        };
        for m in &report.metrics {
            if wanted.contains(&m.name) {
                let name = if args.workloads.len() == 1 {
                    m.name.to_string()
                } else {
                    format!("{}.{}", spec.name, m.name)
                };
                combined.push((name, m.clone()));
            }
        }
    }
    let correct = failed == 0;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, m)) in combined.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            line,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
            json_number(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit measured; a non-finite value (a metric
/// with no successful sample) is reported as a huge number, never as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

fn out_path(name: &str) -> PathBuf {
    PathBuf::from(OUT_DIR).join(name)
}

/// Saves an untraced run's end-to-end medians so a traced run of the same
/// workload and seed can report its tracing overhead.
fn save_untraced(workload: &str, seed: u64, report: &Report) {
    let body: Vec<String> = END_TO_END
        .iter()
        .filter_map(|n| report.value(n).map(|v| format!("{n} {v}")))
        .collect();
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let _ = std::fs::write(
            out_path(&format!("{workload}-seed{seed}.untraced")),
            body.join("\n"),
        );
    }
}

/// Prints the traced run's report — each layer's self time, the share of
/// each end-to-end median the spans account for, and the tracing overhead —
/// and writes the spans out.
fn print_trace_report(workload: &str, seed: u64, report: &Report) {
    let Some(spans) = &report.spans else {
        return;
    };
    println!("trace self times (layer: calls, total ms, median us):");
    for (name, (calls, total_us, median_us)) in spans.self_times() {
        println!("  {name}: {calls}, {:.3}, {median_us:.3}", total_us / 1e3);
    }
    for (root, metric, children) in [
        (
            "http.round_trip",
            "query_p50_us",
            "generator lag, service time and replayed HTTP/JSON codec",
        ),
        (
            "convergence",
            "converge_p50_ms",
            "generator lag, publish and sync exchanges",
        ),
    ] {
        if let Some((median_us, share)) = spans.attribution(root) {
            println!(
                "attribution {metric}: median {root} {median_us:.1} us, {:.1}% in child spans ({children}); \
                 unattributed remainder {:.1}%",
                100.0 * share,
                100.0 * (1.0 - share)
            );
        }
    }
    match std::fs::read_to_string(out_path(&format!("{workload}-seed{seed}.untraced"))) {
        Ok(text) => {
            for line in text.lines() {
                let Some((name, value)) = line.split_once(' ') else {
                    continue;
                };
                if let (Some(traced), Ok(untraced)) = (report.value(name), value.parse::<f64>()) {
                    println!("tracing overhead {name}: {:+.4} ({traced:.4} traced - {untraced:.4} untraced)", traced - untraced);
                }
            }
        }
        Err(_) => println!("tracing overhead: run --trace 0 with the same workload and seed first"),
    }
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let path = out_path(&format!("{workload}-seed{seed}.spans.jsonl"));
        if std::fs::write(&path, spans.to_jsonl()).is_ok() {
            println!("spans written to {}", path.display());
        }
    }
}
