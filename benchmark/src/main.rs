//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper-sweep|trained-search|fleet-serve|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! untraced (`--trace 0`), the per-layer metrics traced (`--trace 1`).
//! A traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.jsonl`. A failed output check
//! prints the result with `"correct": false` and exits with status 1.

use std::path::PathBuf;
use std::sync::Arc;

use fnas_benchmark::common::{peak_rss_mb, Report, RunCtx, DEFAULT_SEED};
use fnas_benchmark::json::Json;
use fnas_benchmark::manifest::{manifest, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use fnas_benchmark::trace::Tracer;
use fnas_benchmark::{fleet, paper, trained};

/// Output directory, relative to the directory the command runs in.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--manifest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let known = WORKLOADS.iter().any(|(w, _)| *w == args.workload);
    if !known && args.workload != "all" {
        return Err(format!(
            "--workload must be one of {}, or all",
            WORKLOADS.map(|(w, _)| w).join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Some(args))
}

fn run_one(name: &str, args: &Args) -> Result<Report, Box<dyn std::error::Error>> {
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds,
        scratch: PathBuf::from(OUT_DIR).join(format!("run-{}-{name}", std::process::id())),
        tracer: args.trace.then(|| Arc::new(Tracer::default())),
    };
    let mut report = Report::default();
    let ran = match name {
        "paper-sweep" => paper::run(&ctx, &mut report),
        "trained-search" => trained::run(&ctx, &mut report),
        _ => fleet::run(&ctx, &mut report),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    ran?;
    report.e2e.set("peak_rss_mb", peak_rss_mb());
    let c = &report.checks;
    report.e2e.set(
        "success_ratio",
        1.0 - c.failed as f64 / c.attempted.max(1) as f64,
    );
    if let Some(t) = &ctx.tracer {
        report.layers.set("trace.spans", t.span_count() as f64);
        let path = PathBuf::from(OUT_DIR).join(format!("spans-{name}-{}.jsonl", args.seed));
        t.write_spans(&path)?;
        report.notes.push(format!(
            "{} spans written to {}",
            t.span_count(),
            path.display()
        ));
    }
    Ok(report)
}

fn main() {
    let args = match parse() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", manifest().pretty());
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|(w, _)| *w)
        .filter(|w| args.workload == "all" || *w == args.workload)
        .collect();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in &names {
        let report = match run_one(name, &args) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {name}: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "== {name} (seed {}, {} s, trace {})",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        for note in &report.notes {
            println!("   {note}");
        }
        for problem in &report.checks.problems {
            println!("   CHECK FAILED: {problem}");
        }
        attempted += report.checks.attempted;
        failed += report.checks.failed;
        let (source, table): (_, Vec<(&str, &str)>) = if args.trace {
            (
                &report.layers,
                PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect(),
            )
        } else {
            (
                &report.e2e,
                END_TO_END.iter().map(|(n, u, _, _)| (*n, *u)).collect(),
            )
        };
        for (metric, unit) in table {
            // A layer this workload does not use reads 0.
            let value = source.0.get(metric).copied().unwrap_or(0.0);
            println!("   {metric:<32} {value:>14.4} {unit}");
            let key = if names.len() > 1 {
                format!("{name}.{metric}")
            } else {
                metric.to_string()
            };
            metrics.push((
                key,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.encode());
    if failed > 0 {
        std::process::exit(1);
    }
}
