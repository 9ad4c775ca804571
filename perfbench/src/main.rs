//! End-to-end training benchmark for the DIESEL reproduction.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_hit|cold_store|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A real training loop (`DataLoader::epoch_iter` feeding
//! `Mlp::train_batch`) reads through loader → client → admission →
//! server → cache → KV → store. With `--trace 0` the run reports the
//! end-to-end metrics; with `--trace 1` it measures half the time
//! untraced and half traced, then probes the hit path, and reports the
//! per-layer metrics. Every metric and its sample count is printed by
//! name; the last line of standard output is one JSON object with the
//! metrics `BENCHMARK.json` declares. Any failed correctness or
//! layer-isolation check exits with code 1.

mod metrics;
mod oracle;
mod probes;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;

use metrics::{Checks, Metric};
use oracle::Oracle;
use spans::Recorder;
use workload::{Stack, Workload};

/// Stack builds per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <warm_hit|cold_store|churn> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Run one workload; `Ok(false)` when a check failed (the result line
/// is still printed, with `"correct": false`).
fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} profile={profile} \
         rustc=\"{}\" samples={} batch={} dim={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        workload::SAMPLES,
        workload::BATCH,
        workload::DIM,
    );
    let samples = workload::generate(args.seed);
    let mut oracle = Oracle::new(samples)?;
    let rec = Arc::new(Recorder::default());

    let mut setup_ns = Vec::new();
    let stack = if args.trace {
        // One traced build: its calls feed the set-up side of the layer
        // metrics (ingest, KV puts, store writes, download, prefetch).
        rec.set_enabled(true);
        let stack = Stack::build(args.workload, oracle.samples(), &rec)?;
        rec.set_enabled(false);
        setup_ns.push(stack.setup.total_ns as f64);
        stack
    } else {
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            let stack = Stack::build(args.workload, oracle.samples(), &rec)?;
            setup_ns.push(stack.setup.total_ns as f64);
            last = Some(stack);
        }
        last.ok_or("no set-up ran")?
    };

    let mut checks = Checks::default();
    let report = if args.trace {
        metrics::traced(args, &stack, &mut oracle, &mut checks)?
    } else {
        metrics::untraced(args, &stack, &mut oracle, &setup_ns, &mut checks)?
    };
    for m in &report.all {
        println!("{}", m.line());
    }
    println!("loss final={:.6}", report.loss);
    for failure in &checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = checks.failures.is_empty();
    println!(
        "{}",
        metrics::result_json(correct, report.attempted, report.failed, &report.declared)?
    );
    Ok(correct)
}

/// The metrics of one run.
pub struct Report {
    /// Every metric, declared or not, for the human-readable lines.
    pub all: Vec<Metric>,
    /// The metrics `BENCHMARK.json` declares for this mode, in order.
    pub declared: Vec<Metric>,
    /// Batches and writes attempted.
    pub attempted: u64,
    /// Batches and writes that failed.
    pub failed: u64,
    /// Final training loss.
    pub loss: f32,
}
