//! The repository benchmark: time-to-verdict, fleet throughput and
//! hardened-sweep cost of the GhostBuster reproduction, end to end and
//! split by layer.
//!
//! ```sh
//! cargo run --release --offline --manifest-path ghostbench/Cargo.toml -- \
//!     --workload workstation-30k --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing traced;
//! `--trace 1` runs the traced pass, which times each layer by calling its
//! public functions from here, and writes a Chrome trace under
//! `ghostbench/out/`. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md for
//! why each workload exists.

mod layers;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use strider_support::json::JsonValue;
use workloads::{Kind, Workload};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    /// Printed beside the value, never parsed.
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value: Some(value),
            unit,
            note: String::new(),
        }
    }

    pub fn noted(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// What a run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Where a run keeps its stores and writes its trace: inside the
/// benchmark's own directory of the checkout it was built in.
fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// How many times a run sets the workload up: once before each of this
/// many equal slices of its sweep time. Set-up takes a second or two in
/// all, and the host drifts in phases of seconds, so `setup_s` samples it
/// at several moments across the run instead of one.
const SET_UP_MOMENTS: u32 = 6;

/// Builds the workload `kind.setup_repeats()` times, timing each build;
/// returns the last one and the set-up times in seconds.
fn set_up(
    kind: Kind,
    seed: u64,
    scratch: &std::path::Path,
) -> Result<(Workload, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..kind.setup_repeats() {
        drop(built.take());
        let started = Instant::now();
        built = Some(workloads::build(kind, seed, scratch)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((built.expect("at least one set-up"), times))
}

/// The untraced run: closed-loop sweeps for `seconds`, one caller waiting
/// for each verdict. The sweep time is cut into [`SET_UP_MOMENTS`] slices,
/// and the workload is built afresh from the seed before each one; CPU
/// time and peak memory are taken over the slices only.
fn end_to_end(args: &Args, scratch: &std::path::Path) -> Result<RunResult, String> {
    let slice = Duration::from_secs(args.seconds) / SET_UP_MOMENTS;
    let mut setup_s = Vec::new();
    let mut walls = Vec::new();
    let mut failed = 0u64;
    let mut cpu = Duration::ZERO;
    let mut peak_rss = 0f64;
    let mut machines_per_call = 0;
    for _ in 0..SET_UP_MOMENTS {
        let (mut workload, times) = set_up(args.kind, args.seed, scratch)?;
        setup_s.extend(times);
        machines_per_call = workload.machines_per_call();
        sys::reset_peak_rss().map_err(|e| format!("resetting VmHWM: {e}"))?;
        let cpu_before = sys::process_cpu_time();
        let started = Instant::now();
        while started.elapsed() < slice {
            let index = walls.len() as u64;
            let outcome = workload.sweep(index);
            walls.push(outcome.wall.as_secs_f64() * 1e3);
            if !outcome.failures.is_empty() {
                failed += 1;
                for failure in &outcome.failures {
                    println!("FAIL sweep {index}: {failure}");
                }
            }
        }
        cpu += sys::process_cpu_time() - cpu_before;
        let peak = sys::peak_rss_mib().map_err(|e| format!("reading VmHWM: {e}"))?;
        peak_rss = peak_rss.max(peak);
    }
    let cpu_ms = cpu.as_secs_f64() * 1e3;
    let sweeps = walls.len() as u64;
    let total_wall_s: f64 = walls.iter().sum::<f64>() / 1e3;
    let tail = stats::tail(&walls);
    let metrics = vec![
        Metric::new("setup_s", stats::median(&setup_s), "s")
            .noted(format!("median of {} builds", setup_s.len())),
        Metric::new("sweep_p50_ms", stats::median(&walls), "ms"),
        Metric::new("sweep_tail_ms", tail.value, "ms").noted(format!(
            "p{:.1} of {} sweeps, {} beyond",
            tail.percentile,
            tail.samples,
            stats::TAIL_BEYOND
        )),
        Metric::new(
            "machines_per_s",
            (sweeps as usize * machines_per_call) as f64 / total_wall_s,
            "1/s",
        ),
        Metric::new("cpu_ms_per_sweep", cpu_ms / sweeps as f64, "ms"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
        Metric::new(
            "verdict_ok_frac",
            (sweeps - failed) as f64 / sweeps as f64,
            "ratio",
        )
        .noted(format!("failed_frac {}", failed as f64 / sweeps as f64)),
    ];
    Ok(RunResult {
        correct: failed == 0,
        attempted: sweeps,
        failed,
        metrics,
    })
}

fn print_metric(m: &Metric) {
    match m.value {
        Some(v) => println!("{:<32} {v:>14.4} {:<6} {}", m.name, m.unit, m.note),
        None => println!(
            "{:<32} {:>14} {:<6} {}",
            m.name, "unmeasured", m.unit, m.note
        ),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ghostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = scratch_dir();
    let scratch = out.join(format!("{}-{}", args.kind.name(), std::process::id()));
    let trace_path = out.join(format!("trace-{}-seed{}.json", args.kind.name(), args.seed));
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let calib_before = (sys::calibration_ms(), sys::memory_calibration_ms());
    let outcome = if args.trace {
        layers::traced(args.kind, args.seed, args.seconds, &scratch, &trace_path)
    } else {
        end_to_end(&args, &scratch)
    };
    let calib_after = (sys::calibration_ms(), sys::memory_calibration_ms());
    let _ = std::fs::remove_dir_all(&scratch);
    let mut result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("ghostbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The host-speed probes are printed beside the metrics so a drifting
    // run can be recognised; no metric is rescaled by them.
    let probe = |name, before: f64, after: f64| {
        Metric::new(name, (before + after) / 2.0, "ms")
            .noted(format!("before {before:.1}, after {after:.1}"))
    };
    let probes = [
        probe("host.calib_ms", calib_before.0, calib_after.0),
        probe("host.calib_mem_ms", calib_before.1, calib_after.1),
    ];
    if args.trace {
        result.metrics.extend(probes);
    } else {
        probes.iter().for_each(print_metric);
    }
    for m in &result.metrics {
        print_metric(m);
    }
    let metrics = result
        .metrics
        .iter()
        .map(|m| {
            let value = m.value.map_or(JsonValue::Null, JsonValue::Float);
            (
                m.name.to_string(),
                JsonValue::Obj(vec![
                    ("value".into(), value),
                    ("unit".into(), JsonValue::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(result.correct)),
        ("attempted".into(), JsonValue::UInt(result.attempted)),
        ("failed".into(), JsonValue::UInt(result.failed)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}
