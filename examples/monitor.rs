//! Continuous monitoring: record a baseline sweep, watch a machine on a
//! schedule, and raise incidents when a resource hides or a pipeline slows
//! down — then export the alarmed sweep's telemetry and Chrome trace.
//!
//! Self-validating and headless: it runs on a [`FakeClock`], asserts every
//! expected incident fires, and re-parses both exported JSON files through
//! the hermetic parser, so CI can run it as a smoke test:
//!
//! ```sh
//! STRIDER_BENCH_DIR=/tmp cargo run --example monitor
//! ```
//!
//! Open the emitted `SCAN_TRACE_monitor.json` in Perfetto or
//! `chrome://tracing` to see the four pipelines run in sequence under the
//! sweep.

use std::sync::Arc;
use strider_ghostbuster_repro::prelude::*;
use strider_support::fault::Stall;
use strider_support::json::JsonValue;
use strider_support::obs::FakeClock;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = Arc::new(FakeClock::default());
    let policy = ScanPolicy::resilient()
        .with_clock(clock.clone())
        .with_poll(100_000, 0)
        .with_pipeline_budget(2_000_000)
        .with_sweep_budget(10_000_000);
    let mut machine = Machine::with_base_system("monitored-box")?;
    let mut monitor = SweepMonitor::new(GhostBuster::new().with_policy(policy))
        .with_config(MonitorConfig::default().with_interval_ns(1_000_000_000));

    // One golden sweep becomes the comparison anchor; it would normally be
    // serialized (SweepBaseline::serialize) and stored with the machine.
    let baseline = monitor.record_baseline(&mut machine)?.clone();
    println!(
        "baseline on {:?}: {} findings, {} pipelines timed",
        baseline.machine,
        baseline.findings.len(),
        baseline.pipeline_duration_ns.len()
    );

    // Quiet period: scheduled sweeps, one simulated second apart.
    let calm = monitor.run(&mut machine, 3)?;
    let calm_incidents: usize = calm.iter().map(|o| o.incidents.len()).sum();
    println!("3 scheduled sweeps -> {calm_incidents} incidents");
    assert_eq!(calm_incidents, 0, "a clean machine must stay quiet");

    // Then a rootkit arrives between sweeps, and the volume starts
    // stalling (a slowdown the supervisor absorbs, not an outage).
    HackerDefender::default().infect(&mut machine)?;
    machine.set_fault_injector(FaultInjector::new().stall_volume_reads(Stall::after_polls(5)));

    let observation = monitor.observe(&mut machine)?;
    println!("\nincidents after infection + stall:");
    for incident in &observation.incidents {
        println!("  {incident}");
        println!("    evidence: {} flight events", incident.flight().len());
    }
    assert!(
        observation
            .incidents
            .iter()
            .any(|i| matches!(i, MonitorIncident::NewHiddenResource { .. })),
        "the hidden file must be reported"
    );
    assert!(
        observation
            .incidents
            .iter()
            .any(|i| matches!(i, MonitorIncident::LatencyRegression { .. })),
        "the stall must be reported as a latency regression"
    );

    // Export the alarmed sweep's telemetry + Chrome trace, then validate
    // both round-trip through the hermetic JSON parser.
    let report = observation
        .report
        .telemetry
        .as_ref()
        .expect("monitored sweeps always carry telemetry");
    let telemetry_path = report.write_json("monitor")?;
    let trace_path = report.write_chrome_trace("monitor")?;

    let telemetry_doc = JsonValue::parse(&std::fs::read_to_string(&telemetry_path)?)?;
    let top = telemetry_doc.as_obj()?;
    for key in [
        "spans",
        "threads",
        "counters",
        "gauges",
        "histograms",
        "flight",
    ] {
        assert!(
            top.iter().any(|(k, _)| k == key),
            "telemetry JSON is missing the {key:?} section"
        );
    }

    let trace = JsonValue::parse(&std::fs::read_to_string(&trace_path)?)?;
    // Pipelines run one after another on the sweep's thread: all four
    // slices share the sweep root's lane and never overlap.
    let mut sweep_tid = None;
    let mut slices = Vec::new();
    for event in trace.as_arr()? {
        let fields = event.as_obj()?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let num = |k: &str| get(k).and_then(|v| v.as_f64().ok()).expect(k);
        if get("ph").and_then(|v| v.as_str().ok()) != Some("X") {
            continue;
        }
        let name = get("name").and_then(|v| v.as_str().ok()).expect("name");
        let tid = get("tid").and_then(|v| v.as_u64().ok()).expect("tid");
        if name == "sweep.inside" {
            sweep_tid = Some(tid);
        } else if let Some(pipeline) = name.strip_suffix(".scan_inside") {
            let start = (num("ts") * 1e3).round() as u64;
            let end = start + (num("dur") * 1e3).round() as u64;
            slices.push((start, end, tid, pipeline.to_string()));
        }
    }
    let sweep_tid = sweep_tid.expect("the trace must carry the sweep root span");
    slices.sort_unstable();
    let pipelines: std::collections::BTreeSet<&str> =
        slices.iter().map(|(.., name)| name.as_str()).collect();
    assert_eq!(pipelines.len(), 4, "all four pipelines appear: {slices:?}");
    assert!(
        slices.iter().all(|&(_, _, tid, _)| tid == sweep_tid),
        "pipelines must share the sweep root's tid {sweep_tid}: {slices:?}"
    );
    assert!(
        slices.windows(2).all(|pair| pair[0].1 <= pair[1].0),
        "pipeline slices must not overlap: {slices:?}"
    );

    println!("\ntelemetry: {}", telemetry_path.display());
    println!(
        "trace:     {} ({} pipelines on the sweep thread)",
        trace_path.display(),
        pipelines.len()
    );
    println!("rolling series tracked: {}", monitor.series_names().len());
    println!("OK");
    Ok(())
}
