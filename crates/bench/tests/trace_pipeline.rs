//! End-to-end contract of the trace pipeline: a JSONL trace recorded by
//! the parallel engine is byte-identical at any pool width, analyzes
//! identically, and round-trips the perf-baseline machinery.
//!
//! This is the test behind `ace trace summarize` being diffable in CI:
//! it runs the same experiment set at width 1 and width 4, then asserts
//! the trace files, analyses, and rendered summaries are equal.

use ace_bench::{BenchRun, ExperimentSet};
use ace_core::RunConfig;
use ace_telemetry::Telemetry;
use std::path::PathBuf;

const PRESETS: [&str; 2] = ["db", "jess"];
const LIMIT: u64 = 3_000_000;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ace_trace_pipeline_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn limited() -> RunConfig {
    RunConfig {
        instruction_limit: Some(LIMIT),
        ..RunConfig::default()
    }
}

/// Runs the preset trio at `width`, tracing to a JSONL file, and returns
/// the raw trace bytes.
fn trace_at_width(width: usize, tag: &str) -> Vec<u8> {
    let dir = temp_dir(tag);
    let trace_path = dir.join("trace.jsonl");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let telemetry = Telemetry::jsonl(&trace_path).expect("jsonl sink");
    ExperimentSet::presets(PRESETS)
        .config(limited())
        .fresh(true)
        .results_dir(dir.join("results"))
        .telemetry(&telemetry)
        .run_parallel(width)
        .expect("runs succeed");
    telemetry.flush();
    let bytes = std::fs::read(&trace_path).expect("trace file");
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn summaries_are_byte_identical_across_pool_widths() {
    let serial = trace_at_width(1, "w1");
    let parallel = trace_at_width(4, "w4");
    assert!(!serial.is_empty(), "traced runs must emit events");
    assert_eq!(serial, parallel, "trace files must be byte-identical");

    let a = ace_trace::analyze_reader(serial.as_slice()).expect("serial trace analyzes");
    let b = ace_trace::analyze_reader(parallel.as_slice()).expect("parallel trace analyzes");
    assert_eq!(a, b);
    assert_eq!(ace_trace::summarize(&a), ace_trace::summarize(&b));
    assert_eq!(ace_trace::timeline(&a), ace_trace::timeline(&b));
    assert_eq!(ace_trace::chrome_trace(&a), ace_trace::chrome_trace(&b));

    // The same trace diffed against itself never regresses.
    let report = ace_trace::diff(&a, &b, &ace_trace::DiffThresholds::default());
    assert!(!report.regressed(), "{}", report.render());
}

#[test]
fn engine_histograms_cover_every_scheme_job() {
    let dir = temp_dir("hist");
    let telemetry = Telemetry::counting();
    ExperimentSet::presets(PRESETS)
        .config(limited())
        .fresh(true)
        .results_dir(&dir)
        .telemetry(&telemetry)
        .run_parallel(2)
        .expect("runs succeed");
    let _ = std::fs::remove_dir_all(&dir);
    let metrics = telemetry.metrics().expect("enabled handle has metrics");
    let snapshot = metrics.snapshot();
    // One job per preset (its three schemes share one step stream), so
    // 2 presets = 2 jobs, one histogram sample each.
    for name in ["engine.job_wall_ms", "engine.queue_wait_ms"] {
        let hist = snapshot
            .histograms
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing:\n{}", metrics.summary()));
        assert_eq!(hist.count, PRESETS.len() as u64, "{name}");
    }
}

#[test]
fn bench_baseline_records_one_entry_per_workload() {
    let dir = temp_dir("bench");
    let outcomes = ExperimentSet::presets(PRESETS)
        .config(limited())
        .fresh(true)
        .results_dir(&dir)
        .run_detailed(2)
        .expect("runs succeed");
    assert_eq!(outcomes.len(), PRESETS.len());
    assert!(outcomes.iter().all(|o| !o.cached));
    assert!(outcomes.iter().all(|o| o.wall.as_nanos() > 0));

    let mut bench = BenchRun::new(2);
    for outcome in &outcomes {
        bench.push_workload(outcome);
    }
    let path = dir.join("BENCH_run.json");
    bench.write(&path).expect("baseline writes");
    let back = BenchRun::load(&path).expect("baseline loads");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(back.entries.len(), PRESETS.len());
    for (entry, preset) in back.entries.iter().zip(PRESETS) {
        assert_eq!(entry.kind, "workload");
        assert_eq!(entry.name, preset);
        assert!(entry.wall_ms > 0.0);
        let headline = entry
            .headline
            .as_ref()
            .expect("workload entries carry metrics");
        assert!(headline.baseline_ipc > 0.0);
    }
}

#[test]
fn cache_hits_are_marked_and_free() {
    let dir = temp_dir("cache");
    let first = ExperimentSet::presets(["db"])
        .config(limited())
        .fresh(true)
        .results_dir(&dir)
        .run_detailed(1)
        .expect("fresh run");
    assert!(!first[0].cached);
    let second = ExperimentSet::presets(["db"])
        .config(limited())
        .results_dir(&dir)
        .run_detailed(1)
        .expect("cached run");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(second[0].cached);
    assert_eq!(second[0].wall.as_nanos(), 0);
    assert_eq!(
        serde_json::to_string(&first[0].results).unwrap(),
        serde_json::to_string(&second[0].results).unwrap(),
        "cache must return identical results"
    );
}
