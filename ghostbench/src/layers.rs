//! The traced pass: per-layer metrics, taken by calling each layer's public
//! functions from the benchmark thread with a span around every call.
//!
//! Every per-layer time is per sweep call, like `sweep_p50_ms`: one
//! machine on the single-machine workloads, the sum over all 64 machines
//! on `fleet-64` (except `fleet.shard_sweep_ms`, which is per machine). A
//! single-machine workload is a fleet of one machine swept by one caller,
//! so the fleet and store metrics keep their definitions there: a verdict
//! arrives when the sweep returns, and durability is the cost of
//! committing the sweep's checkpoint.

use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{
    fleet_detector, FleetWorkload, Kind, MachineWorkload, Workload, FLEET_WORKERS,
};
use crate::{Metric, RunResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use strider_fleet::{FleetCheckpoint, FleetControl};
use strider_ghostbuster::{
    AdvancedSource, GhostBuster, PipelineCheckpoint, ScanPolicy, SweepCheckpoint, SweepReport,
    Telemetry,
};
use strider_support::prof;
use strider_support::store::RecordStore;
use strider_winapi::{ChainEntry, Machine, ScanTap};

/// The sweep's four pipelines, named as their telemetry spans are.
const PIPELINES: [&str; 4] = ["files", "registry", "processes", "modules"];

/// How far the layer split may miss the sweep time, as a share of it. The
/// split times each layer in a separate direct call, so it differs from the
/// sweep by host drift between the calls and by what the sweep does that no
/// layer call does (spawning pipeline threads, cloning scanners).
const RECONCILE_TOLERANCE: f64 = 0.25;

/// Per-iteration samples of each metric.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| median(v))
    }

    fn all(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// A direct layer call's wall time and allocation count. Allocations are
/// counted by the workspace's counting allocator on this thread only,
/// which is why only direct calls (no pipeline threads) report them.
struct Call<T> {
    value: T,
    ms: f64,
    allocs: u64,
}

fn call<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> Call<T> {
    let span = tracer.enter(name);
    let scope = prof::begin_scope();
    let value = std::hint::black_box(f());
    let allocs = scope.end().allocs;
    let ms = tracer.exit(span);
    Call { value, ms, allocs }
}

/// Calls each per-entry layer of one machine directly, once: the raw
/// volume read, the three phases of the file and Registry pipelines, and
/// the process and module pipelines. Returns the time of one pass of each
/// pipeline, in [`PIPELINES`] order.
fn direct_layers(
    machine: &mut Machine,
    detector: &GhostBuster,
    advanced: Option<AdvancedSource>,
    tracer: &mut Tracer,
    s: &mut Samples,
) -> Result<[f64; 4], String> {
    let ctx = detector.enter(machine).map_err(|e| format!("enter: {e}"))?;
    let machine = &*machine;
    let tap = machine.scan_tap();

    let image = call(tracer, "ntfs.read_raw_volume_image", || {
        machine.try_read_raw_volume_image()
    });
    image.value.map_err(|e| format!("raw volume read: {e}"))?;
    s.push("ntfs.image_read_ms", image.ms);

    let files = detector.file_scanner();
    let queries_before = tap.queries();
    let high = call(tracer, "files.high_scan", || {
        files.high_scan(machine, &ctx, ChainEntry::Win32)
    });
    let queries = (tap.queries() - queries_before) as f64;
    let low = call(tracer, "files.low_scan", || files.low_scan(machine));
    let (high_snap, low_snap) = match (&high.value, &low.value) {
        (Ok(h), Ok(l)) => (h, l),
        _ => return Err("direct file scan failed".to_string()),
    };
    let diff = call(tracer, "files.diff", || files.diff(low_snap, high_snap));
    s.push("files.high_scan_ms", high.ms);
    s.push("files.low_scan_ms", low.ms);
    s.push("files.diff_ms", diff.ms);
    push_allocs(s, "files.high_scan_allocs", high.allocs, high_snap.len());
    push_allocs(s, "files.low_scan_allocs", low.allocs, low_snap.len());
    push_allocs(
        s,
        "files.diff_allocs",
        diff.allocs,
        diff.value.detections.len(),
    );
    s.push("files.entries", low_snap.len() as f64);
    s.push("files.bytes_read", low_snap.meta.io.bytes_read as f64);
    s.push("files.queries", queries);
    s.push("winapi.us_per_query", high.ms * 1e3 / queries);

    let registry = detector.registry_scanner();
    let reg_high = call(tracer, "registry.high_scan", || {
        registry.high_scan(machine, &ctx, ChainEntry::Win32)
    });
    let reg_low = call(tracer, "registry.low_scan", || registry.low_scan(machine));
    let Ok(reg_low_snap) = &reg_low.value else {
        return Err("direct registry low scan failed".to_string());
    };
    let reg_diff = call(tracer, "registry.diff", || {
        registry.diff(reg_low_snap, &reg_high.value)
    });
    s.push("registry.high_scan_ms", reg_high.ms);
    s.push("registry.low_scan_ms", reg_low.ms);
    s.push("registry.diff_ms", reg_diff.ms);
    push_allocs(
        s,
        "registry.low_scan_allocs",
        reg_low.allocs,
        reg_low_snap.len(),
    );

    let processes = detector.process_scanner();
    let procs = call(tracer, "processes.scan_inside", || {
        processes.scan_inside(machine, &ctx, advanced)
    });
    let modules = call(tracer, "modules.scan_inside", || {
        processes.scan_modules_inside(machine, &ctx)
    });
    if procs.value.is_err() || modules.value.is_err() {
        return Err("direct process or module scan failed".to_string());
    }
    s.push("processes.scan_ms", procs.ms);
    s.push("modules.scan_ms", modules.ms);
    Ok([
        high.ms + low.ms + diff.ms,
        reg_high.ms + reg_low.ms + reg_diff.ms,
        procs.ms,
        modules.ms,
    ])
}

/// An allocation count is only a measurement if the counter saw the call
/// allocate: a call that returned a non-empty snapshot or report cannot
/// have built it without allocating, so a zero there means the counter is
/// blind to the work.
fn push_allocs(s: &mut Samples, name: &'static str, allocs: u64, entries: usize) {
    let blind = allocs == 0 && entries > 0;
    s.push(name, if blind { f64::NAN } else { allocs as f64 });
}

/// What one sweep's own telemetry says about its pipelines.
struct PipelineTimes {
    /// Wall time inside each pipeline's `scan_inside` spans, in ms.
    busy_ms: f64,
    /// Quorum or stabilization passes each pipeline ran.
    passes: [f64; 4],
    /// Time each pipeline slept (device polls, backoff), in ms.
    wait_ms: [f64; 4],
}

fn pipeline_times(report: &SweepReport) -> PipelineTimes {
    let totals = report
        .telemetry
        .as_ref()
        .map(|t| t.phase_totals())
        .unwrap_or_default();
    let mut times = PipelineTimes {
        busy_ms: 0.0,
        passes: [0.0; 4],
        wait_ms: [0.0; 4],
    };
    for (i, pipeline) in PIPELINES.iter().enumerate() {
        if let Some(total) = totals.get(&format!("{pipeline}.scan_inside")) {
            times.busy_ms += total.total_ns as f64 / 1e6;
            times.passes[i] = total.count as f64;
            times.wait_ms[i] = total.wait_ns as f64 / 1e6;
        }
    }
    times
}

/// The time the layer split predicts for a sweep without telemetry: each
/// pipeline's direct pass (timed without telemetry) times the passes the
/// traced sweep ran, plus what the traced sweep waited on devices, plus
/// its orchestration.
fn predicted_ms(direct: &[f64; 4], times: &PipelineTimes, orchestration_ms: f64) -> f64 {
    orchestration_ms
        + (0..4)
            .map(|i| times.passes[i] * direct[i] + times.wait_ms[i])
            .sum::<f64>()
}

fn telemetry_for(detector: &GhostBuster) -> Telemetry {
    Telemetry::with_clock(detector.policy().clock().clone())
}

/// Hook-chain queries and raw truth-source reads made while `f` runs.
fn tapped<T>(tap: &ScanTap, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (q, r) = (tap.queries(), tap.raw_reads());
    let value = f();
    (
        value,
        (tap.queries() - q) as f64,
        (tap.raw_reads() - r) as f64,
    )
}

/// Queries a strict single-pass sweep of `machine` makes: the useful
/// work a hardened posture multiplies.
fn strict_queries(machine: &mut Machine, advanced: Option<AdvancedSource>) -> Result<f64, String> {
    let mut strict = GhostBuster::new().with_policy(ScanPolicy::strict());
    if let Some(source) = advanced {
        strict = strict.with_advanced(source);
    }
    let tap = machine.scan_tap();
    let (report, queries, _) = tapped(&tap, || strict.inside_sweep(machine));
    report.map_err(|e| format!("strict sweep: {e}"))?;
    Ok(queries)
}

fn machine_iteration(
    w: &mut MachineWorkload,
    strict: f64,
    scratch: &Path,
    tracer: &mut Tracer,
    s: &mut Samples,
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    let mut sweep = |detector: &GhostBuster, tracer: &mut Tracer, name| {
        let tap = w.machine.scan_tap();
        let mark = w.oracle.mark();
        let span = tracer.enter(name);
        let (report, queries, raw) = tapped(&tap, || detector.inside_sweep(&mut w.machine));
        let ms = tracer.exit(span);
        let report = report.map_err(|e| format!("sweep: {e}"));
        if let Ok(report) = &report {
            failures.extend(w.oracle.check(report, mark));
        }
        (report, ms, queries, raw)
    };

    let (plain, plain_ms, _, _) = sweep(&w.detector, tracer, "ghostbuster.inside_sweep");
    let with_telemetry = w
        .detector
        .clone()
        .with_telemetry(telemetry_for(&w.detector));
    let (telemetry_only, telemetry_ms, _, _) = sweep(
        &with_telemetry,
        tracer,
        "ghostbuster.inside_sweep_telemetry",
    );
    let traced_detector = w
        .detector
        .clone()
        .with_telemetry(telemetry_for(&w.detector));
    let (traced, traced_ms, queries, raw) =
        sweep(&traced_detector, tracer, "ghostbuster.inside_sweep_traced");
    let (_, _, traced) = (plain?, telemetry_only?, traced?);

    let times = pipeline_times(&traced);
    let orchestration_ms = traced_ms - times.busy_ms;
    s.push("sweep.orchestration_ms", orchestration_ms);
    s.push("obs.telemetry_overhead_frac", telemetry_ms / plain_ms - 1.0);
    s.push("bench.trace_overhead_frac", traced_ms / plain_ms - 1.0);
    s.push("winapi.queries", queries);
    s.push("winapi.raw_reads", raw);
    s.push("policy.queries_per_sweep", queries);
    s.push("policy.useful_query_frac", strict / queries);
    s.push(
        "policy.flicker_sweep_frac",
        f64::from(u8::from(traced.flicker_score() > 0)),
    );
    // One machine, one caller: the verdict arrives when the call returns,
    // and the serial shard time is the call's own wall time.
    s.push("fleet.shard_sweep_ms", plain_ms);
    s.push("fleet.parallel_efficiency", 1.0);
    s.push("fleet.verdict_ms", plain_ms);

    let checkpoint = SweepCheckpoint {
        machine: w.machine.name().to_string(),
        taken_at: w.machine.now(),
        files: Some(PipelineCheckpoint {
            report: traced.files.clone(),
            status: traced.health.files.clone(),
        }),
        registry: Some(PipelineCheckpoint {
            report: traced.hooks.clone(),
            status: traced.health.registry.clone(),
        }),
        processes: Some(PipelineCheckpoint {
            report: traced.processes.clone(),
            status: traced.health.processes.clone(),
        }),
        modules: Some(PipelineCheckpoint {
            report: traced.modules.clone(),
            status: traced.health.modules.clone(),
        }),
    };
    let dir = scratch.join("checkpoint");
    std::fs::create_dir_all(&dir).map_err(|e| format!("checkpoint dir: {e}"))?;
    let store = RecordStore::open(dir.join("sweep.ckpt")).map_err(|e| format!("store: {e}"))?;
    let save = call(tracer, "store.commit_checkpoint", || {
        checkpoint.save_to(&store)
    });
    save.value.map_err(|e| format!("checkpoint commit: {e}"))?;
    let bytes = std::fs::metadata(store.path()).map_or(0, |m| m.len());
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    s.push("store.durability_overhead_ms", save.ms);
    s.push("store.bytes_per_shard", bytes as f64);

    let direct = direct_layers(&mut w.machine, &w.detector, w.advanced, tracer, s)?;
    s.push("policy.pass_ms", direct.iter().sum());
    let predicted = predicted_ms(&direct, &times, orchestration_ms);
    s.push("bench.reconcile_residual", predicted / plain_ms - 1.0);
    Ok(failures)
}

fn fleet_iteration(
    f: &mut FleetWorkload,
    index: u64,
    strict: &[f64],
    tracer: &mut Tracer,
    s: &mut Samples,
) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();

    // The end-to-end call: the durable sweep into a fresh WAL.
    f.arm_device_latency();
    let (store, dir) = f.fresh_store(index)?;
    let span = tracer.enter("fleet.sweep_durable");
    let durable = f.scheduler.sweep_durable(
        &mut f.fleet,
        &store,
        strider_fleet::DurabilityMode::WalAppend,
    );
    tracer.exit(span);
    let wal_bytes = std::fs::metadata(store.path()).map_or(0, |m| m.len());
    // The store layer's share of that sweep, replayed on its own: the
    // same journal records appended to a fresh store.
    let journal = store
        .recover()
        .map_err(|e| format!("reading the WAL: {e}"))?;
    drop(store);
    let replay_path = dir.join("replay.wal");
    let replay = call(tracer, "store.append_journal", || -> std::io::Result<()> {
        let replay = RecordStore::open(&replay_path)?;
        for record in &journal.records {
            replay.append(&record.payload)?;
        }
        Ok(())
    });
    FleetWorkload::remove_store(&dir);
    replay
        .value
        .map_err(|e| format!("replaying the WAL: {e}"))?;
    failures.extend(f.check(&durable.map_err(|e| format!("durable sweep: {e}"))?));

    // The same fleet without a store, untraced and then traced: the traced
    // sweep's observer stamps each shard's verdict as it arrives.
    f.arm_device_latency();
    let mut checkpoint = FleetCheckpoint::new(&f.fleet);
    let span = tracer.enter("fleet.sweep_streaming");
    let streaming = f
        .scheduler
        .sweep_streaming(&mut f.fleet, &mut checkpoint, |_| FleetControl::Continue);
    let streaming_ms = tracer.exit(span);
    failures.extend(f.check(&streaming.map_err(|e| format!("streaming sweep: {e}"))?));

    f.arm_device_latency();
    let mut checkpoint = FleetCheckpoint::new(&f.fleet);
    let mut arrivals = Vec::new();
    let span = tracer.enter("fleet.sweep_streaming_traced");
    let started = Instant::now();
    let traced = f
        .scheduler
        .sweep_streaming(&mut f.fleet, &mut checkpoint, |_| {
            arrivals.push(started.elapsed().as_secs_f64() * 1e3);
            FleetControl::Continue
        });
    let traced_ms = tracer.exit(span);
    failures.extend(f.check(&traced.map_err(|e| format!("traced sweep: {e}"))?));
    for arrival in arrivals {
        s.push("fleet.verdict_ms", arrival);
    }

    // Each shard on its own, serially, the way a worker sweeps it: with a
    // per-shard telemetry session, then without one, then layer by layer.
    let detector = fleet_detector();
    let policy = detector.policy().clone();
    let mut shards = Samples::default();
    let (mut serial_ms, mut plain_ms, mut predicted_sum_ms) = (0.0, 0.0, 0.0);
    for shard in f.fleet.machines_mut() {
        let tap = shard.machine.scan_tap();
        FleetWorkload::arm_machine(&mut shard.machine);
        let traced_detector = detector
            .clone()
            .with_policy(policy.clone())
            .with_telemetry(telemetry_for(&detector));
        let span = tracer.enter("ghostbuster.inside_sweep_traced");
        let (report, queries, raw) =
            tapped(&tap, || traced_detector.inside_sweep(&mut shard.machine));
        let shard_ms = tracer.exit(span);
        let report = report.map_err(|e| format!("{}: sweep: {e}", shard.id))?;
        if report.is_infected() != shard.is_seeded_infected() || !report.health.is_all_ok() {
            failures.push(format!(
                "{}: serial sweep verdict wrong or degraded",
                shard.id
            ));
        }
        s.push("fleet.shard_sweep_ms", shard_ms);
        s.push(
            "policy.flicker_sweep_frac",
            f64::from(u8::from(report.flicker_score() > 0)),
        );
        shards.push("winapi.queries", queries);
        shards.push("winapi.raw_reads", raw);

        FleetWorkload::arm_machine(&mut shard.machine);
        let plain_detector = detector.clone().with_policy(policy.clone());
        let span = tracer.enter("ghostbuster.inside_sweep");
        let plain = plain_detector.inside_sweep(&mut shard.machine);
        plain_ms += tracer.exit(span);
        plain.map_err(|e| format!("{}: sweep: {e}", shard.id))?;

        let times = pipeline_times(&report);
        let orchestration_ms = shard_ms - times.busy_ms;
        let direct = direct_layers(
            &mut shard.machine,
            &detector,
            Some(AdvancedSource::ThreadTable),
            tracer,
            &mut shards,
        )?;
        shards.push("sweep.orchestration_ms", orchestration_ms);
        shards.push("policy.pass_ms", direct.iter().sum());
        serial_ms += shard_ms;
        predicted_sum_ms += predicted_ms(&direct, &times, orchestration_ms);
    }
    // Per-shard samples sum to one value per fleet sweep; the per-query
    // cost is re-derived from the sums instead.
    for (name, values) in &shards.0 {
        if *name != "winapi.us_per_query" {
            s.push(name, values.iter().sum());
        }
    }
    let queries: f64 = shards.all("winapi.queries").iter().sum();
    let strict_total: f64 = strict.iter().sum();
    s.push("policy.queries_per_sweep", queries);
    s.push("policy.useful_query_frac", strict_total / queries);
    s.push(
        "winapi.us_per_query",
        shards.all("files.high_scan_ms").iter().sum::<f64>() * 1e3
            / shards.all("files.queries").iter().sum::<f64>(),
    );
    s.push(
        "fleet.parallel_efficiency",
        serial_ms / (FLEET_WORKERS as f64 * streaming_ms),
    );
    s.push("store.durability_overhead_ms", replay.ms);
    s.push(
        "store.bytes_per_shard",
        wal_bytes as f64 / f.fleet.len() as f64,
    );
    s.push("obs.telemetry_overhead_frac", serial_ms / plain_ms - 1.0);
    s.push("bench.trace_overhead_frac", traced_ms / streaming_ms - 1.0);
    s.push(
        "bench.reconcile_residual",
        predicted_sum_ms / plain_ms - 1.0,
    );
    Ok(failures)
}

/// The per-layer metrics, in the order they are printed.
const LAYER_METRICS: [(&str, &str); 33] = [
    ("files.high_scan_ms", "ms"),
    ("files.low_scan_ms", "ms"),
    ("files.diff_ms", "ms"),
    ("files.high_scan_allocs", "count"),
    ("files.low_scan_allocs", "count"),
    ("files.diff_allocs", "count"),
    ("files.entries", "count"),
    ("files.bytes_read", "bytes"),
    ("files.queries", "count"),
    ("ntfs.image_read_ms", "ms"),
    ("winapi.queries", "count"),
    ("winapi.raw_reads", "count"),
    ("winapi.us_per_query", "us"),
    ("registry.high_scan_ms", "ms"),
    ("registry.low_scan_ms", "ms"),
    ("registry.diff_ms", "ms"),
    ("registry.low_scan_allocs", "count"),
    ("processes.scan_ms", "ms"),
    ("modules.scan_ms", "ms"),
    ("sweep.orchestration_ms", "ms"),
    ("obs.telemetry_overhead_frac", "ratio"),
    ("policy.queries_per_sweep", "count"),
    ("policy.useful_query_frac", "ratio"),
    ("policy.pass_ms", "ms"),
    ("policy.flicker_sweep_frac", "ratio"),
    ("fleet.shard_sweep_ms", "ms"),
    ("fleet.parallel_efficiency", "ratio"),
    ("fleet.verdict_p50_ms", "ms"),
    ("fleet.verdict_p90_ms", "ms"),
    ("store.durability_overhead_ms", "ms"),
    ("store.bytes_per_shard", "bytes"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.reconcile_error_frac", "ratio"),
];

/// Runs the traced pass of `kind` for `seconds` and reports every
/// per-layer metric (medians over the iterations).
pub fn traced(
    kind: Kind,
    seed: u64,
    seconds: u64,
    scratch: &Path,
    trace_path: &Path,
) -> Result<RunResult, String> {
    // The strict baseline is a pure function of the machine: take it once,
    // on a separate build, so the swept machine's rootkits see the same
    // query stream as in the untraced run.
    let strict: Vec<f64> = match &mut crate::workloads::build(kind, seed, scratch)? {
        Workload::Machine(w) => vec![strict_queries(&mut w.machine, w.advanced)?],
        Workload::Fleet(f) => f
            .fleet
            .machines_mut()
            .iter_mut()
            .map(|shard| strict_queries(&mut shard.machine, Some(AdvancedSource::ThreadTable)))
            .collect::<Result<_, _>>()?,
    };
    let mut workload = crate::workloads::build(kind, seed, scratch)?;
    let mut tracer = Tracer::new(kind.name());
    let mut s = Samples::default();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while attempted == 0 || started.elapsed() < budget {
        tracer.set_sweep(attempted);
        let failures = match &mut workload {
            Workload::Machine(w) => machine_iteration(w, strict[0], scratch, &mut tracer, &mut s),
            Workload::Fleet(f) => fleet_iteration(f, attempted, &strict, &mut tracer, &mut s),
        }
        .unwrap_or_else(|e| vec![e]);
        for failure in &failures {
            println!("FAIL sweep {attempted}: {failure}");
        }
        failed += u64::from(!failures.is_empty());
        attempted += 1;
    }

    tracer
        .write_chrome_trace(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!("chrome trace: {}", trace_path.display());
    for (layer, ms) in tracer.self_time_by_layer() {
        println!("self time {layer:<12} {ms:>12.1} ms");
    }

    let verdicts = s.all("fleet.verdict_ms");
    let verdict_quantile = |q| {
        if verdicts.is_empty() {
            f64::NAN
        } else {
            quantile(verdicts, q)
        }
    };
    let residual = s.median("bench.reconcile_residual");
    let reconciled = residual.abs() <= RECONCILE_TOLERANCE;
    println!(
        "reconciliation: layer split {:+.1}% off the sweep time (tolerance ±{:.0}%): {}",
        residual * 100.0,
        RECONCILE_TOLERANCE * 100.0,
        if reconciled { "ok" } else { "FAILED" }
    );
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "fleet.verdict_p50_ms" => verdict_quantile(0.5),
                "fleet.verdict_p90_ms" => verdict_quantile(0.9),
                "bench.reconcile_error_frac" => residual.abs(),
                // A rate over all sweeps, not a typical sweep.
                "policy.flicker_sweep_frac" => {
                    let v = s.all(name);
                    v.iter().sum::<f64>() / v.len() as f64
                }
                _ => s.median(name),
            };
            Metric {
                name,
                value: (!value.is_nan()).then_some(value),
                unit,
                note: String::new(),
            }
        })
        .collect();
    Ok(RunResult {
        correct: failed == 0 && reconciled,
        attempted,
        failed,
        metrics,
    })
}
