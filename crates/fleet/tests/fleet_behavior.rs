//! End-to-end fleet behavior: determinism across worker counts, the
//! warm-start payoff (a warm fleet measurably out-tunes a cold one), and
//! store persistence across "process restarts".

use ace_core::{Experiment, NullManager};
use ace_fleet::{
    fleet_do_config, fleet_registry_version, render_report, run_fleet, FleetConfig, FleetOutcome,
    TuningStore,
};
use ace_telemetry::{EventKind, Telemetry};
use std::path::PathBuf;

/// A fleet small enough for tests but big enough to cross wave
/// boundaries (so intra-run warm starts happen).
fn test_config() -> FleetConfig {
    let mut cfg = FleetConfig::preset("smoke").expect("smoke preset");
    cfg.machines = 14;
    cfg.wave_size = 7;
    cfg.admit_limit = 7;
    cfg.measure_baseline = false;
    cfg
}

fn memory_store() -> TuningStore {
    TuningStore::in_memory(fleet_registry_version(), TuningStore::DEFAULT_CAPACITY)
}

/// Serializes an outcome for comparison; the schedule-dependent wall
/// field is `#[serde(skip)]`, so equal strings mean equal results.
fn fingerprint(outcome: &FleetOutcome) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

#[test]
fn fleet_is_byte_identical_across_worker_counts() {
    let cfg = test_config();
    let run_at = |jobs: usize| {
        let tel = Telemetry::counting();
        let mut store = memory_store();
        let cold = run_fleet(&cfg, &mut store, jobs, &tel).expect("cold pass");
        let warm = run_fleet(&cfg, &mut store, jobs, &tel).expect("warm pass");
        let report = render_report(&cfg, &cold, &warm, &store);
        let counts: Vec<u64> = [
            EventKind::WarmStartHit,
            EventKind::WarmStartMiss,
            EventKind::StorePublish,
            EventKind::TuningConverged,
            EventKind::Reconfigured,
        ]
        .iter()
        .map(|&k| tel.count(k))
        .collect();
        (
            fingerprint(&cold),
            fingerprint(&warm),
            report,
            counts,
            store.entries_sorted(),
        )
    };
    let serial = run_at(1);
    let parallel = run_at(8);
    assert_eq!(serial.0, parallel.0, "cold pass differs across widths");
    assert_eq!(serial.1, parallel.1, "warm pass differs across widths");
    assert_eq!(serial.2, parallel.2, "report text differs across widths");
    assert_eq!(
        serial.3, parallel.3,
        "telemetry counts differ across widths"
    );
    assert_eq!(serial.4, parallel.4, "final store differs across widths");
}

/// The full telemetry *event stream* (order included), both pass
/// fingerprints, the report and the final store are byte-identical
/// across worker counts. The baseline companion — a non-adaptive
/// consumer on each machine's step stream — runs untraced: switching it
/// on leaves the event stream, the store and every managed-run field
/// untouched, and its numbers equal an independent baseline run.
#[test]
fn fleet_event_stream_is_invariant_to_width_and_baseline_companion() {
    let mut cfg = test_config();
    cfg.presets = vec!["db".into(), "compress".into()];
    cfg.machines = 16;
    cfg.wave_size = 8;
    cfg.admit_limit = 8;
    cfg.instruction_limit = 400_000;
    let run_at = |jobs: usize, measure_baseline: bool| {
        let cfg = FleetConfig {
            measure_baseline,
            ..cfg.clone()
        };
        let (tel, sink) = Telemetry::buffered();
        let mut store = memory_store();
        let cold = run_fleet(&cfg, &mut store, jobs, &tel).expect("cold pass");
        let warm = run_fleet(&cfg, &mut store, jobs, &tel).expect("warm pass");
        let report = render_report(&cfg, &cold, &warm, &store);
        let events: Vec<String> = sink
            .drain()
            .iter()
            .map(|e| serde_json::to_string(e).expect("event serializes"))
            .collect();
        (cold, warm, report, events, store.entries_sorted())
    };
    let without_baseline = |o: &FleetOutcome| {
        let mut o = o.clone();
        for m in &mut o.machines {
            m.baseline = None;
        }
        fingerprint(&o)
    };

    let base = run_at(1, false);
    assert!(!base.3.is_empty(), "the traced fleet must emit events");
    for (jobs, measure_baseline) in [(8, false), (1, true), (8, true)] {
        let other = run_at(jobs, measure_baseline);
        let at = format!("jobs={jobs} measure_baseline={measure_baseline}");
        assert_eq!(base.3, other.3, "telemetry event stream differs at {at}");
        assert_eq!(base.4, other.4, "final store differs at {at}");
        assert_eq!(
            fingerprint(&base.0),
            without_baseline(&other.0),
            "cold pass differs at {at}"
        );
        assert_eq!(
            fingerprint(&base.1),
            without_baseline(&other.1),
            "warm pass differs at {at}"
        );
        if !measure_baseline {
            assert_eq!(base.2, other.2, "report text differs at {at}");
            continue;
        }
        for m in other.0.machines.iter().chain(&other.1.machines) {
            let solo = Experiment::preset(&m.spec.preset)
                .seed(m.spec.seed)
                .do_config(fleet_do_config())
                .instruction_limit(cfg.instruction_limit)
                .run_with(&mut NullManager)
                .expect("baseline run");
            assert_eq!(
                m.baseline,
                Some((solo.ipc, solo.energy.l1d_nj, solo.energy.l2_nj)),
                "machine {} baseline differs from an independent run at {at}",
                m.spec.index
            );
        }
    }
}

#[test]
fn warm_fleet_tunes_measurably_less_than_cold() {
    let cfg = test_config();
    let mut store = memory_store();
    let tel = Telemetry::counting();
    let cold = run_fleet(&cfg, &mut store, 4, &tel).expect("cold pass");
    let warm = run_fleet(&cfg, &mut store, 4, &tel).expect("warm pass");

    assert!(cold.publishes() > 0, "cold fleet must seed the store");
    assert!(warm.hits() > 0, "warm fleet must hit the seeded store");
    assert!(warm.hit_rate() > cold.hit_rate());
    assert!(
        warm.tunings() < cold.tunings(),
        "warm fleet must spend fewer trials: warm {} vs cold {}",
        warm.tunings(),
        cold.tunings()
    );
    assert!(warm.trials_saved() > 0);
    // Telemetry agrees with the report rows.
    assert_eq!(
        tel.count(EventKind::WarmStartHit),
        cold.hits() + warm.hits()
    );
    assert_eq!(
        tel.count(EventKind::WarmStartMiss),
        cold.misses() + warm.misses()
    );
    assert_eq!(
        tel.count(EventKind::StorePublish),
        cold.publishes() + warm.publishes()
    );
    // The admission layer was idle: nothing shed at this shape.
    assert_eq!(cold.shed + warm.shed, 0);
}

#[test]
fn store_log_survives_restart_and_replays_to_the_same_fleet() {
    let dir = std::env::temp_dir().join(format!("ace_fleet_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let log: PathBuf = dir.join("store.jsonl");
    let cfg = test_config();
    let version = fleet_registry_version();

    // First "process": cold + warm pass against a log-backed store.
    let warm_fingerprint = {
        let mut store = TuningStore::open(&log, version, 256).expect("open fresh store");
        let _cold = run_fleet(&cfg, &mut store, 4, &Telemetry::off()).expect("cold pass");
        let warm = run_fleet(&cfg, &mut store, 4, &Telemetry::off()).expect("warm pass");
        assert_eq!(
            warm.publishes(),
            0,
            "a fully warmed fleet republishes nothing"
        );
        fingerprint(&warm)
    };

    // Second "process": replay the log; the same fleet now warm-starts
    // from its first pass, byte-identical to the first run's warm pass
    // (the warm pass published nothing, so the replayed store state is
    // exactly what that pass saw).
    let mut store = TuningStore::open(&log, version, 256).expect("replay store log");
    assert!(!store.is_empty(), "log replay must restore entries");
    let replayed = run_fleet(&cfg, &mut store, 4, &Telemetry::off()).expect("replayed pass");
    assert_eq!(fingerprint(&replayed), warm_fingerprint);

    let _ = std::fs::remove_dir_all(&dir);
}
