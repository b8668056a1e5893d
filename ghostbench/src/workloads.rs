//! The three workloads: how each is built from the seed, what one sweep
//! call is, and the oracle every verdict is checked against.
//!
//! Each workload puts a different layer under load (see README.md): one
//! large machine for the per-entry scanners, a 64-machine fleet for the
//! scheduler and the store, and a hardened sweep over an evasive rootkit
//! for the quorum policy.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use strider_fleet::{DurabilityMode, FleetRegistry, FleetScheduler, FleetSpec};
use strider_ghostbuster::{
    AdvancedSource, DiffReport, GhostBuster, ResourceKind, ScanPolicy, SweepReport,
};
use strider_ghostware::{
    EvasiveGhostware, EvasiveTactic, Fu, Ghostware, HackerDefender, Infection, ProBotSe, Vanquish,
};
use strider_support::fault::Stall;
use strider_support::store::RecordStore;
use strider_winapi::{FaultInjector, Machine};
use strider_workload::{standard_lab_machine, WorkloadSpec};

/// Fleet size, and how many of its machines are infected.
pub const FLEET_MACHINES: u32 = 64;
const FLEET_INFECTED: u32 = 16;
/// Fleet worker threads: one per CPU of the 2-CPU reference host.
pub const FLEET_WORKERS: usize = 2;
/// Pending polls before each fleet machine's volume answers; at the
/// policy's 500 µs poll interval, about 8 ms of device latency per machine.
const DEVICE_POLLS: u32 = 16;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Workstation,
    Fleet,
    ArmsRace,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Workstation, Kind::Fleet, Kind::ArmsRace];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Workstation => "workstation-30k",
            Kind::Fleet => "fleet-64",
            Kind::ArmsRace => "arms-race-3k",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How many times a run builds the workload at each set-up moment
    /// (the last build is the one swept): up to about a second of building
    /// each time.
    pub fn setup_repeats(self) -> usize {
        match self {
            Kind::Workstation => 1,
            Kind::Fleet => 6,
            Kind::ArmsRace => 10,
        }
    }
}

/// What a single-machine workload's verdicts are checked against.
// One oracle exists per workload and is never moved in a timed path.
#[allow(clippy::large_enum_variant)]
pub enum Oracle {
    /// Every hidden artifact the infections recorded must be found, and
    /// every net detection must be one of them.
    AllArtifacts(Vec<Infection>),
    /// A rootkit whose hiding depends on the scan. Every net detection must
    /// be one of the infection's artifacts. Once the rootkit has begun
    /// hiding (its own sensor log counts a hidden row before the sweep
    /// starts), the machine must be flagged. A freshly infected rootkit
    /// shows each artifact for its first `grace` appearances; a sweep that
    /// starts before any hide may find every diffed view truthful, and is
    /// then held to the soundness check alone. A flickering rootkit may
    /// show an artifact in every quorum pass of one sweep, so a sweep need
    /// not find all of them; whether a sweep saw flicker is a layer metric.
    Evasive {
        infection: Infection,
        rootkit: EvasiveGhostware,
    },
}

/// How many rows the rootkit had hidden when a sweep started, taken with
/// [`Oracle::mark`] and handed to [`Oracle::check`].
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    hides: u64,
}

impl Oracle {
    /// Marks the start of a sweep. Take it right before the sweep call, so
    /// that hides caused by calls made between sweeps count too.
    pub fn mark(&self) -> Mark {
        Mark {
            hides: match self {
                Oracle::AllArtifacts(_) => 0,
                Oracle::Evasive { rootkit, .. } => rootkit.sense().flicker_hides,
            },
        }
    }

    /// The complaints about one sweep report, started at `mark`; empty
    /// when the verdict is correct.
    pub fn check(&self, report: &SweepReport, mark: Mark) -> Vec<String> {
        let mut failures: Vec<String> = report
            .health
            .degraded_pipelines()
            .into_iter()
            .map(|p| format!("pipeline {p} degraded"))
            .collect();
        match self {
            Oracle::AllArtifacts(infections) => {
                failures.extend(check_artifacts(report, infections, true));
            }
            Oracle::Evasive { infection, .. } => {
                if mark.hides > 0 && !report.is_infected() {
                    failures.push(format!(
                        "the rootkit had hidden {} rows before the sweep, but the machine was not flagged",
                        mark.hides
                    ));
                }
                failures.extend(check_artifacts(
                    report,
                    std::slice::from_ref(infection),
                    false,
                ));
            }
        }
        failures
    }
}

/// One machine swept back to back by one detector.
pub struct MachineWorkload {
    pub machine: Machine,
    pub detector: GhostBuster,
    pub advanced: Option<AdvancedSource>,
    pub oracle: Oracle,
}

/// A seeded fleet swept by the work-stealing scheduler into a fresh
/// write-ahead log per sweep.
pub struct FleetWorkload {
    pub fleet: FleetRegistry,
    pub scheduler: FleetScheduler,
    store_dir: PathBuf,
}

/// A built workload, ready to sweep.
// One workload exists per run and is never moved in a timed path, so the
// variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    Machine(MachineWorkload),
    Fleet(FleetWorkload),
}

/// One timed sweep call and what its oracle found wrong with it.
pub struct SweepOutcome {
    pub wall: Duration,
    pub failures: Vec<String>,
}

/// Builds `kind`'s inputs from `seed`. `scratch` is where the fleet keeps
/// its per-sweep stores.
pub fn build(kind: Kind, seed: u64, scratch: &Path) -> Result<Workload, String> {
    let err = |e: strider_nt_core::NtStatus| format!("{}: set-up failed: {e}", kind.name());
    Ok(match kind {
        Kind::Workstation => {
            let mut machine =
                standard_lab_machine("workstation", &WorkloadSpec::large(seed), false)
                    .map_err(err)?;
            let samples: [Box<dyn Ghostware>; 4] = [
                Box::new(HackerDefender::default()),
                Box::new(ProBotSe::default()),
                Box::new(Vanquish::default()),
                Box::new(Fu::default()),
            ];
            let infections = samples
                .iter()
                .map(|s| s.infect(&mut machine))
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)?;
            Workload::Machine(MachineWorkload {
                machine,
                detector: GhostBuster::new().with_advanced(AdvancedSource::ThreadTable),
                advanced: Some(AdvancedSource::ThreadTable),
                oracle: Oracle::AllArtifacts(infections),
            })
        }
        Kind::ArmsRace => {
            let mut machine = standard_lab_machine("arms-race", &WorkloadSpec::medium(seed), false)
                .map_err(err)?;
            let rootkit = EvasiveGhostware::new(EvasiveTactic::FlickerHiding {
                seed: 41,
                grace: 12,
            });
            let infection = rootkit.infect(&mut machine).map_err(err)?;
            Workload::Machine(MachineWorkload {
                machine,
                detector: GhostBuster::new().with_policy(ScanPolicy::hardened()),
                advanced: None,
                oracle: Oracle::Evasive { infection, rootkit },
            })
        }
        Kind::Fleet => {
            let spec = FleetSpec::clean(FLEET_MACHINES, seed).with_infected(FLEET_INFECTED);
            let fleet = FleetRegistry::seeded(&spec).map_err(err)?;
            Workload::Fleet(FleetWorkload {
                fleet,
                scheduler: FleetScheduler::new(fleet_detector()).with_workers(FLEET_WORKERS),
                store_dir: scratch.join("stores"),
            })
        }
    })
}

/// The detector every fleet shard's sweep is cloned from.
pub fn fleet_detector() -> GhostBuster {
    GhostBuster::new()
        .with_advanced(AdvancedSource::ThreadTable)
        .with_policy(ScanPolicy::supervised().with_poll(500_000, 64))
}

impl Workload {
    /// Machines given a verdict by one sweep call.
    pub fn machines_per_call(&self) -> usize {
        match self {
            Workload::Machine(_) => 1,
            Workload::Fleet(f) => f.fleet.len(),
        }
    }

    /// One sweep call, timed, with its verdict checked. `index` names the
    /// call in failure messages and store paths.
    pub fn sweep(&mut self, index: u64) -> SweepOutcome {
        match self {
            Workload::Machine(w) => {
                let mark = w.oracle.mark();
                let started = Instant::now();
                let result = w.detector.inside_sweep(&mut w.machine);
                let wall = started.elapsed();
                let failures = match result {
                    Ok(report) => w.oracle.check(&report, mark),
                    Err(e) => vec![format!("sweep returned an error: {e}")],
                };
                SweepOutcome { wall, failures }
            }
            Workload::Fleet(f) => f.sweep_durable(index),
        }
    }
}

/// The name a net detection is matched on, per resource kind: the file
/// path, the ASEP entry name, the process image name, or the module name.
fn detected_name(kind: ResourceKind, detail: &str) -> String {
    // Quorum voting appends ` (flickered: seen in k of n quorum passes)`.
    let detail = detail.split(" (flickered:").next().unwrap_or(detail);
    let name = match kind {
        ResourceKind::File => detail,
        // `<key>\<entry> -> <target>`
        ResourceKind::AsepHook => detail
            .split(" -> ")
            .next()
            .and_then(|key_entry| key_entry.rsplit('\\').next())
            .unwrap_or(detail),
        // `pid <n> <image> (<path>)`
        ResourceKind::Process => detail
            .split(" (")
            .next()
            .and_then(|pid_image| pid_image.rsplit(' ').next())
            .unwrap_or(detail),
        // `<module> hidden inside pid <n> <image>`
        ResourceKind::Module => detail.split(' ').next().unwrap_or(detail),
    };
    name.to_ascii_lowercase()
}

/// Matches a sweep's net detections against the infections' hidden
/// artifacts: each detection must name one of them, and with `require_all`
/// each of them must be detected.
fn check_artifacts(
    report: &SweepReport,
    infections: &[Infection],
    require_all: bool,
) -> Vec<String> {
    let names = |list: fn(&Infection) -> Vec<String>| -> Vec<String> {
        infections
            .iter()
            .flat_map(list)
            .map(|name| name.to_ascii_lowercase())
            .collect()
    };
    let processes = names(|i| i.hidden_process_names.clone());
    // A hidden process's own image is also its first module, so a module
    // finding may name a hidden process image without being a false
    // positive; only the listed modules are required, though.
    let modules = names(|i| i.hidden_module_names.clone());
    let mut module_names = modules.clone();
    module_names.extend(processes.iter().cloned());
    let pipelines: [(ResourceKind, &DiffReport, Vec<String>, Vec<String>); 4] = [
        {
            let files = names(|i| i.hidden_files.iter().map(ToString::to_string).collect());
            (ResourceKind::File, &report.files, files.clone(), files)
        },
        {
            let entries = names(|i| i.hidden_asep_entries.clone());
            (
                ResourceKind::AsepHook,
                &report.hooks,
                entries.clone(),
                entries,
            )
        },
        (
            ResourceKind::Process,
            &report.processes,
            processes.clone(),
            processes,
        ),
        (ResourceKind::Module, &report.modules, modules, module_names),
    ];
    let mut failures = Vec::new();
    for (kind, diff, required, allowed) in pipelines {
        let found: Vec<String> = diff
            .net_detections()
            .iter()
            .map(|d| detected_name(kind, &d.detail))
            .collect();
        if require_all {
            for artifact in required.iter().filter(|a| !found.contains(a)) {
                failures.push(format!("missed hidden {kind}: {artifact}"));
            }
        }
        for name in found.iter().filter(|n| !allowed.contains(n)) {
            failures.push(format!("false positive {kind}: {name}"));
        }
    }
    failures
}

impl FleetWorkload {
    /// Re-arms every machine's device stall: a drained stall is free, so
    /// each sweep must pay the same device latency.
    pub fn arm_device_latency(&mut self) {
        for shard in self.fleet.machines_mut() {
            Self::arm_machine(&mut shard.machine);
        }
    }

    /// Re-arms one machine's device stall.
    pub fn arm_machine(machine: &mut Machine) {
        machine.set_fault_injector(
            FaultInjector::new().stall_volume_reads(Stall::after_polls(DEVICE_POLLS)),
        );
    }

    /// Opens a fresh store for sweep `index`; the caller removes it with
    /// [`FleetWorkload::remove_store`] once the sweep is checked.
    pub fn fresh_store(&self, index: u64) -> Result<(RecordStore, PathBuf), String> {
        let dir = self.store_dir.join(format!("sweep-{index}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("store dir: {e}"))?;
        let store = RecordStore::open(dir.join("fleet.wal")).map_err(|e| format!("store: {e}"))?;
        Ok((store, dir))
    }

    pub fn remove_store(dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The fleet-64 sweep call: the whole fleet, journaled shard by shard
    /// into a fresh write-ahead log.
    fn sweep_durable(&mut self, index: u64) -> SweepOutcome {
        self.arm_device_latency();
        let (store, dir) = match self.fresh_store(index) {
            Ok(opened) => opened,
            Err(e) => {
                return SweepOutcome {
                    wall: Duration::ZERO,
                    failures: vec![e],
                }
            }
        };
        let started = Instant::now();
        let result =
            self.scheduler
                .sweep_durable(&mut self.fleet, &store, DurabilityMode::WalAppend);
        let wall = started.elapsed();
        drop(store);
        Self::remove_store(&dir);
        let failures = match result {
            Ok(report) => self.check(&report),
            Err(e) => vec![format!("fleet sweep returned an error: {e}")],
        };
        SweepOutcome { wall, failures }
    }

    /// The oracle: a complete, healthy fleet report whose per-shard
    /// verdict and family match the fleet's seeded truth.
    pub fn check(&self, report: &strider_fleet::FleetReport) -> Vec<String> {
        let mut failures = Vec::new();
        if !report.is_complete_and_healthy() {
            failures.push(format!(
                "fleet report incomplete or unhealthy: unswept={:?} quarantined={:?}",
                report.unswept, report.quarantined
            ));
        }
        for machine in self.fleet.machines() {
            let Some(result) = report.result(machine.id) else {
                failures.push(format!("{}: no result", machine.id));
                continue;
            };
            if result.report.is_infected() != machine.is_seeded_infected()
                || result.family != machine.family
            {
                failures.push(format!(
                    "{}: detected {:?} (family {:?}), seeded {:?}",
                    machine.id,
                    result.report.is_infected(),
                    result.family,
                    machine.family
                ));
            }
        }
        failures
    }
}
