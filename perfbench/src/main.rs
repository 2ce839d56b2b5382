//! Fixed-work benchmark of the pxml warehouse; `README.md` describes the
//! workloads and metrics.
//!
//! ```text
//! pxml_perfbench --workload <ingest|serve|worlds> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run prints a report, then one JSON line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! A fixed kernel runs before and after every timed op and set-up, and each
//! time is scaled to the speed at which the kernel takes `speed::REFERENCE`,
//! so that the shared machine's changing speed does not move the medians. A
//! run makes several passes over the same timed ops and set-ups and takes
//! each op, and each set-up slot, at its median over the passes.

mod ingest;
mod report;
mod serve;
mod speed;
mod stats;
mod store;
mod trace;
mod worlds;

use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use report::{Metric, Outcome};
use stats::Latency;

const USAGE: &str =
    "usage: pxml_perfbench --workload <ingest|serve|worlds> --seed <n> --seconds <n> --trace <0|1>";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Ingest,
    Serve,
    Worlds,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Workload::Ingest),
            "serve" => Some(Workload::Serve),
            "worlds" => Some(Workload::Worlds),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
            Workload::Worlds => "worlds",
        }
    }

    /// One run: set-ups, warm-ups and passes over the timed ops, through the
    /// public entry points, or traced through the layers those entry points
    /// call.
    fn run(self, seed: u64, traced: bool) -> Outcome {
        match (self, traced) {
            (Workload::Ingest, false) => ingest::run(store::Public::default, seed),
            (Workload::Ingest, true) => ingest::run(store::Layered::default, seed),
            (Workload::Serve, false) => serve::run(store::Public::default, seed),
            (Workload::Serve, true) => serve::run(store::Layered::default, seed),
            (Workload::Worlds, false) => worlds::run(worlds::Public::default, seed),
            (Workload::Worlds, true) => worlds::run(worlds::Layered::default, seed),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or_else(|| "--workload is required".to_owned())?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `correct`, `attempted`, `failed` and the metrics of the result line.
type Verdict = (bool, usize, usize, Vec<Metric>);

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("pxml_perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // `possible_worlds_normalized` and `Warehouse::from_env` read `PXML_*`
    // overrides silently; a run under one would not measure the defaults.
    let overrides: Vec<String> = std::env::vars_os()
        .map(|(key, _)| key.to_string_lossy().into_owned())
        .filter(|key| key.starts_with("PXML_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "pxml_perfbench: refusing to run while {} is set",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    println!(
        "pxml_perfbench: workload {} seed {} trace {}; the work is fixed, --seconds {} is nominal",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    println!(
        "available_parallelism {}",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let verdict = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match verdict {
        Ok((correct, attempted, failed, metrics)) => {
            for metric in &metrics {
                println!("metric {} = {} {}", metric.name, metric.value, metric.unit);
            }
            println!("{}", report::json(correct, attempted, failed, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(error) => {
            eprintln!("pxml_perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

fn untraced(args: &Args) -> io::Result<Verdict> {
    let outcome = args.workload.run(args.seed, false);
    describe(&outcome);
    let metrics = report::end_to_end(&outcome, peak_rss_mb()?);
    Ok((
        outcome.correct(),
        outcome.attempted(),
        outcome.failed,
        metrics,
    ))
}

/// The untraced run, in a child process, then the traced run in this one,
/// so each starts its timed ops on the fresh heap of its own process. The
/// per-layer metrics come from the traced run; its extra time inside ops
/// over the untraced run's is the tracing overhead. The two runs must
/// report the same exact counters.
fn traced(args: &Args) -> io::Result<Verdict> {
    let plain = untraced_child(args)?;
    let traced = args.workload.run(args.seed, true);
    describe(&traced);
    // The traced run also sees counters the public entry points hide; every
    // counter the untraced run reports must read the same in both.
    let counters = traced.counters.lines();
    let repeated = plain.counters.iter().all(|line| counters.contains(line));
    if !repeated {
        println!("counters differ between the untraced and the traced run:");
        println!("  untraced: {}", plain.counters.join(" "));
        println!("  traced:   {}", counters.join(" "));
    }
    let traced_only: Vec<&str> = counters
        .iter()
        .filter(|line| !plain.counters.contains(line))
        .filter_map(|line| line.split('=').next())
        .collect();
    if !traced_only.is_empty() {
        println!(
            "counters only the traced run measures: {}",
            traced_only.join(" ")
        );
    }
    let path = out_dir()?.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
    trace::write(&path, &traced.spans)?;
    println!("{} spans written to {}", traced.spans.len(), path.display());
    let metrics = report::per_layer(&traced, plain.busy);
    let correct = plain.correct && traced.correct() && repeated;
    Ok((correct, traced.attempted(), traced.failed, metrics))
}

/// What an untraced child run reported.
struct Untraced {
    correct: bool,
    /// Its `key=value` counter lines, in key order.
    counters: Vec<String>,
    /// Its time inside ops.
    busy: Duration,
}

/// Runs this benchmark untraced, on the same workload and seed, in a child
/// process; echoes its report and waits for it to end.
fn untraced_child(args: &Args) -> io::Result<Untraced> {
    let output = Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
        ])
        .stderr(Stdio::inherit())
        .output()?;
    let (mut counters, mut busy) = (Vec::new(), None);
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        println!("untraced | {line}");
        if let Some(counter) = line.strip_prefix("counter ") {
            counters.push(counter.to_owned());
        }
        if let Some(ns) = line
            .strip_prefix(INSIDE_OPS)
            .and_then(|rest| rest.strip_suffix(" ns"))
        {
            busy = ns.parse().ok().map(Duration::from_nanos);
        }
    }
    Ok(Untraced {
        correct: output.status.success(),
        counters,
        busy: busy
            .ok_or_else(|| io::Error::other("the untraced run reported no time inside ops"))?,
    })
}

/// Starts the report line that gives the time inside ops.
const INSIDE_OPS: &str = "inside ops: ";

fn describe(outcome: &Outcome) {
    for line in &outcome.sizes {
        println!("size: {line}");
    }
    let kernels = &outcome.kernels;
    println!(
        "speed: the kernel ran {} times, median {:.4} ms, fastest {:.4} ms; {:.4} ms at the \
         reference speed, to which every time below is scaled unless marked as measured",
        kernels.len(),
        stats::ms(stats::median(kernels)),
        stats::ms(kernels.iter().min().copied().unwrap_or_default()),
        stats::ms(speed::REFERENCE)
    );
    let setups: Vec<String> = outcome
        .setups
        .iter()
        .map(|setup| format!("{:.4}", setup.as_secs_f64()))
        .collect();
    println!(
        "set-up: median {:.4} s of {} slots, each at its median over the passes [{}]",
        stats::median(&outcome.setups).as_secs_f64(),
        setups.len(),
        setups.join(", ")
    );
    for class in &outcome.classes {
        match Latency::of(&class.latencies) {
            Some(latency) => println!(
                "{}: {} ops, each at its median over {} passes: p50 {:.4} ms, {} {:.4} ms \
                 with {} samples beyond; measured p50 {:.4} ms",
                class.name,
                latency.count,
                outcome.passes,
                stats::ms(latency.p50),
                stats::percentile_name(latency.tail_permille),
                stats::ms(latency.tail),
                latency.beyond,
                stats::ms(stats::median(&class.measured))
            ),
            None => println!(
                "{}: {} timed, too few for a tail",
                class.name,
                class.latencies.len()
            ),
        }
        if !class.pass_medians.is_empty() {
            let medians: Vec<String> = class
                .pass_medians
                .iter()
                .map(|median| format!("{:.4}", stats::ms(*median)))
                .collect();
            println!(
                "  {} median of each pass, measured: {} ms",
                class.name,
                medians.join(", ")
            );
        }
        for kind in class.kinds() {
            println!(
                "  {} {:>14}: {:5.1}% of the class, p50 {:.4} ms",
                class.name,
                kind.name,
                100.0 * kind.share,
                stats::ms(kind.p50)
            );
        }
    }
    println!(
        "ops: {} a pass, {} attempted over {} passes, {} failed; {:.1} per second of their \
         times",
        outcome.ops(),
        outcome.attempted(),
        outcome.passes,
        outcome.failed,
        outcome.ops_per_s()
    );
    println!("{INSIDE_OPS}{} ns", outcome.busy().as_nanos());
    for line in outcome.counters.lines() {
        println!("counter {line}");
    }
}

/// Where traced runs write their span files: inside the benchmark's own
/// directory.
fn out_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The process's peak resident set, `VmHWM`, in MiB.
fn peak_rss_mb() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM line in /proc/self/status"))
}
