//! Golden verdict pin: the file and Registry diff reports of fixed, seeded
//! sweeps must stay byte-identical.
//!
//! Each pinned sweep renders every file and ASEP [`DiffReport`] into one
//! canonical text (each detection's identity, detail, category and noise,
//! then `phantom_in_lie`) and compares an FNV-1a digest of that text with a
//! value recorded before the scanners' path rendering was reworked.
//! A performance change to the scan path (name rendering, MFT path
//! reconstruction, the diff walk) must leave every digest as it is; a
//! mismatch prints the full text so the moved finding is easy to find.

use strider_ghostbuster_repro::prelude::*;
use strider_support::rng::fnv1a;

/// The four-rootkit medium machine the pins sweep: Hacker Defender (NtDll
/// detour), ProBot SE (SSDT), Vanquish (wrapper and PEB) and FU (DKOM).
fn four_rootkit_machine() -> Machine {
    let mut m =
        standard_lab_machine("golden", &WorkloadSpec::medium(1), false).expect("machine builds");
    let samples: [Box<dyn Ghostware>; 4] = [
        Box::new(HackerDefender::default()),
        Box::new(ProBotSe::default()),
        Box::new(Vanquish::default()),
        Box::new(Fu::default()),
    ];
    for s in &samples {
        s.infect(&mut m).expect("infects");
    }
    m
}

/// One report's canonical text.
fn render(label: &str, report: &DiffReport, out: &mut String) {
    use std::fmt::Write;
    writeln!(out, "[{label}] {} detections", report.detections.len()).unwrap();
    for d in &report.detections {
        writeln!(
            out,
            "  {:?} | {} | {} | {:?} | {:?}",
            d.kind, d.identity, d.detail, d.category, d.noise
        )
        .unwrap();
    }
    for p in &report.phantom_in_lie {
        writeln!(out, "  phantom | {p}").unwrap();
    }
}

fn assert_pinned(text: &str, expected: u64) {
    let got = fnv1a(text.as_bytes());
    assert_eq!(
        got, expected,
        "verdict digest moved to {got:#018x}; rendered reports:\n{text}"
    );
}

fn sweep_text(detector: GhostBuster) -> String {
    sweep_text_of(&mut four_rootkit_machine(), detector)
}

fn sweep_text_of(m: &mut Machine, detector: GhostBuster) -> String {
    let sweep = detector.inside_sweep(m).expect("sweeps");
    assert!(sweep.health.degraded_pipelines().is_empty());
    let mut text = String::new();
    render("files", &sweep.files, &mut text);
    render("hooks", &sweep.hooks, &mut text);
    text
}

#[test]
fn default_sweep_verdicts_are_pinned() {
    let text = sweep_text(GhostBuster::new().with_advanced(AdvancedSource::ThreadTable));
    assert_pinned(&text, 0xba50_ad2c_4a57_01fe);
}

#[test]
fn hardened_sweep_verdicts_are_pinned() {
    let text = sweep_text(
        GhostBuster::new()
            .with_advanced(AdvancedSource::ThreadTable)
            .with_policy(ScanPolicy::hardened()),
    );
    assert_pinned(&text, 0xba50_ad2c_4a57_01fe);
}

#[test]
fn naming_ads_and_outside_verdicts_are_pinned() {
    // Win32-illegal names (trailing dot and space, a reserved stem, a
    // path past MAX_PATH, a NUL-embedded Run value), alternate-stream
    // pseudo-entries and the clean-boot disk view each take their own
    // key and display-path code.
    let mut m = four_rootkit_machine();
    AdsHider::default().infect(&mut m).expect("infects");
    NamingTrick.infect(&mut m).expect("infects");
    let ctx = m
        .ensure_process("ghostbuster.exe", "C:\\ghostbuster.exe")
        .expect("process");
    let scanner = FileScanner::new().with_ads_detection();
    let inside = scanner.scan_inside(&m, &ctx).expect("scans");
    let lie = scanner
        .high_scan(&m, &ctx, ChainEntry::Win32)
        .expect("scans");
    m.tick(150);
    let image = m.snapshot_disk().expect("image");
    let outside = scanner.diff(&scanner.outside_scan(&image).expect("scans"), &lie);
    let mut text = String::new();
    render("files.ads", &inside, &mut text);
    render("files.outside", &outside, &mut text);
    text.push_str(&sweep_text_of(&mut m, GhostBuster::new()));
    assert_pinned(&text, 0xb41c_5b8e_2a17_054e);
}
