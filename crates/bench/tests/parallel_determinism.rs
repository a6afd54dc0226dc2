//! The engine's headline guarantee: a parallel run is *byte-identical* to a
//! serial one. `ExperimentSet::run_parallel(N)` must produce the same
//! `SchemeResults` (as serialized JSON), the same cached files, and the
//! same telemetry event counts at any worker-pool width.
//!
//! Runs are capped at a few million instructions via the base `RunConfig`
//! so the suite stays quick in debug builds; content-addressed cache keys
//! see the limit and keep these runs apart from full-length results.

use ace_bench::{cache_key, ExperimentSet, SchemeResults, HEADLINE_SCHEMES};
use ace_core::{Experiment, RunConfig, SchemeExt};
use ace_telemetry::{EventKind, Telemetry};
use std::path::PathBuf;

const PRESETS: [&str; 3] = ["db", "jess", "mpeg"];
const LIMIT: u64 = 3_000_000;
/// Long enough that baseline, bbv and hotspot emit three different event
/// streams; at `LIMIT` hotspot's equals baseline's, which would hide a
/// swap of their order.
const SHARED_LIMIT: u64 = 6_000_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ace_parallel_determinism_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn limited() -> RunConfig {
    limited_to(LIMIT)
}

fn limited_to(limit: u64) -> RunConfig {
    RunConfig {
        instruction_limit: Some(limit),
        ..RunConfig::default()
    }
}

fn run_at_width(jobs: usize, tag: &str) -> (Vec<SchemeResults>, Vec<u64>, PathBuf) {
    let dir = temp_dir(tag);
    let telemetry = Telemetry::counting();
    let results = ExperimentSet::presets(PRESETS)
        .config(limited())
        .telemetry(&telemetry)
        .results_dir(dir.clone())
        .run_parallel(jobs)
        .expect("headline trio over three presets");
    let counts = EventKind::ALL.iter().map(|&k| telemetry.count(k)).collect();
    (results, counts, dir)
}

#[test]
fn parallel_runs_are_byte_identical_to_serial() {
    let (serial, serial_counts, serial_dir) = run_at_width(1, "serial");
    let (parallel, parallel_counts, parallel_dir) = run_at_width(4, "parallel");

    let serial_json = serde_json::to_string(&serial).unwrap();
    let parallel_json = serde_json::to_string(&parallel).unwrap();
    assert_eq!(
        serial_json, parallel_json,
        "jobs=4 must serialize byte-identically to jobs=1"
    );

    assert_eq!(
        serial_counts, parallel_counts,
        "per-kind telemetry event counts must match across widths"
    );
    assert!(
        serial_counts.iter().sum::<u64>() > 0,
        "the runs must actually emit telemetry"
    );

    // The cached artifacts themselves are byte-identical too.
    let mut names: Vec<String> = std::fs::read_dir(&serial_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), PRESETS.len(), "one cache file per preset");
    for name in &names {
        let a = std::fs::read(serial_dir.join(name)).unwrap();
        let b = std::fs::read(parallel_dir.join(name)).unwrap();
        assert_eq!(a, b, "cache file {name} differs between widths");
    }

    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&parallel_dir);
}

#[test]
fn second_run_hits_the_cache_and_skips_all_work() {
    let dir = temp_dir("cache_hit");
    let first = ExperimentSet::presets(PRESETS)
        .config(limited())
        .results_dir(dir.clone())
        .run_parallel(2)
        .unwrap();

    // Warm cache: the rerun must not simulate anything, so a counting
    // telemetry handle sees zero events.
    let telemetry = Telemetry::counting();
    let second = ExperimentSet::presets(PRESETS)
        .config(limited())
        .telemetry(&telemetry)
        .results_dir(dir.clone())
        .run_parallel(2)
        .unwrap();
    assert_eq!(
        telemetry.total_events(),
        0,
        "cached results must not re-run the simulator"
    );
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap(),
        "cache round-trip must be lossless"
    );

    // --fresh ignores the cache and simulates again.
    let fresh_tel = Telemetry::counting();
    let third = ExperimentSet::presets(PRESETS)
        .config(limited())
        .telemetry(&fresh_tel)
        .results_dir(dir.clone())
        .fresh(true)
        .run_parallel(2)
        .unwrap();
    assert!(
        fresh_tel.total_events() > 0,
        "fresh(true) must bypass the cache"
    );
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&third).unwrap(),
        "fresh rerun reproduces the same bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_preset_propagates_as_an_error() {
    let dir = temp_dir("bad_preset");
    let err = ExperimentSet::presets(["db", "no_such_workload"])
        .config(limited())
        .results_dir(dir.clone())
        .run_parallel(2)
        .unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("no_such_workload"),
        "error must name the failing job: {text}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serialized results, sorted cache files, and the full telemetry event
/// stream (one JSON line per event, in order).
type Observed = (String, Vec<(String, Vec<u8>)>, Vec<String>);

fn event_lines(sink: &ace_telemetry::MemorySink) -> Vec<String> {
    sink.drain()
        .iter()
        .map(|e| serde_json::to_string(e).unwrap())
        .collect()
}

/// The headline trio of every preset, each scheme run on its own through
/// `Experiment::run_scheme` into one handle, in (preset, scheme) order —
/// the reference a shared-stream `ExperimentSet` must reproduce.
fn independent_runs() -> Observed {
    let (telemetry, sink) = Telemetry::buffered();
    let mut results = Vec::new();
    let mut files = Vec::new();
    for name in PRESETS {
        let mut runs = HEADLINE_SCHEMES.iter().map(|&scheme| {
            Experiment::preset(name)
                .config(limited_to(SHARED_LIMIT))
                .scheme(scheme)
                .telemetry(&telemetry)
                .run_scheme()
                .unwrap()
        });
        let (baseline, bbv, hotspot) = (
            runs.next().unwrap(),
            runs.next().unwrap(),
            runs.next().unwrap(),
        );
        let (SchemeExt::Bbv(bbv_report), SchemeExt::Hotspot(hotspot_report)) =
            (bbv.report.ext, hotspot.report.ext)
        else {
            panic!("HEADLINE_SCHEMES is baseline, bbv, hotspot");
        };
        let r = SchemeResults {
            workload: name.to_string(),
            baseline: baseline.record,
            bbv: bbv.record,
            bbv_report,
            hotspot: hotspot.record,
            hotspot_report,
        };
        files.push((
            format!("{name}-{}.json", cache_key(name, &limited_to(SHARED_LIMIT))),
            serde_json::to_string(&r).unwrap().into_bytes(),
        ));
        results.push(r);
    }
    files.sort();
    let json = serde_json::to_string(&results).unwrap();
    (json, files, event_lines(&sink))
}

fn experiment_set_at(jobs: usize) -> Observed {
    let dir = temp_dir(&format!("shared_{jobs}"));
    let (telemetry, sink) = Telemetry::buffered();
    let results = ExperimentSet::presets(PRESETS)
        .config(limited_to(SHARED_LIMIT))
        .telemetry(&telemetry)
        .results_dir(dir.clone())
        .run_parallel(jobs)
        .expect("headline trio over three presets");
    let json = serde_json::to_string(&results).unwrap();
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect();
    files.sort();
    let _ = std::fs::remove_dir_all(&dir);
    (json, files, event_lines(&sink))
}

/// `ExperimentSet` runs each preset's three schemes off one step stream;
/// that must reproduce independent `Experiment::run_scheme` runs exactly:
/// the results, every cache file, and the full telemetry event stream
/// (content and order — each scheme traces into a buffered child
/// absorbed in scheme order, and jobs merge in submission order).
#[test]
fn shared_stream_runs_are_byte_identical_to_independent_runs() {
    let reference = independent_runs();
    assert!(!reference.2.is_empty(), "the runs must emit telemetry");
    for jobs in [1, 4] {
        let shared = experiment_set_at(jobs);
        assert_eq!(reference.0, shared.0, "results differ at jobs={jobs}");
        assert_eq!(reference.1, shared.1, "cache files differ at jobs={jobs}");
        assert_eq!(
            reference.2, shared.2,
            "telemetry event stream differs at jobs={jobs}"
        );
    }
}
