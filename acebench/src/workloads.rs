//! The three benchmark workloads, each as an untraced pass (the timed
//! end-to-end run), a traced pass (the benchmark's own step loop with
//! per-layer spans) and a set-up routine.
//!
//! * `headline` — the seven presets × {baseline, bbv, hotspot} at natural
//!   length through `ExperimentSet` with the results cache bypassed;
//!   checked against the committed results cache.
//! * `corpus` — generated specs under all five registered schemes at the
//!   corpus's 2 M-instruction budget; checked by the scheme-invariant
//!   counter oracle.
//! * `fleet` — the fleet smoke shape, hotspot only, cold pass on an empty
//!   tuning store then a warm pass, event stream and obs sampler on;
//!   checked for an empty cold start and warm-pass store hits.

use crate::check::first_difference;
use crate::host::cpu_time;
use crate::stats::{Metrics, Tally};
use crate::traced::{traced_run, LayerTimes, LoopConfig, TracedRun};
use ace_bench::{cache_key, run_jobs, ExperimentSet, Job, JobOutcome, SchemeResults};
use ace_core::{Experiment, RunConfig, RunRecord, SchemeRegistry};
use ace_fleet::{
    fleet_do_config, fleet_registry_version, run_fleet_observed, FleetConfig, FleetOutcome,
    MachineOutcome, ObsSampler, TuningStore,
};
use ace_runtime::DoConfig;
use ace_telemetry::{Event, JsonlSink, Sink, Telemetry};
use ace_workloads::{gen, GenParams, WorkloadRegistry, WorkloadSpec, PRESET_NAMES};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Worker-pool width of every workload, fixed (not `nproc`) so that a
/// run does the same work in the same shape on any host.
pub const JOBS: usize = 2;
/// Generated specs in one corpus pass.
pub const CORPUS_SPECS: usize = 128;
/// Per-run instruction budget of the corpus (the corpus experiment's).
pub const CORPUS_LIMIT: u64 = 2_000_000;
/// Machines in one fleet pass (the smoke shape: waves of 16).
pub const FLEET_MACHINES: usize = 64;
/// Scheme ids of the headline table, in `ExperimentSet` run order.
const HEADLINE_SCHEMES: [&str; 3] = ["baseline", "bbv", "hotspot"];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    Headline,
    Corpus,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Headline, Workload::Corpus, Workload::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Headline => "headline",
            Workload::Corpus => "corpus",
            Workload::Fleet => "fleet",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed-derived inputs. Seed `s` draws corpus specs and fleet executor
/// seeds from `s << 20` upward, so distinct seeds never share a spec or
/// machine. The headline presets carry their own pinned seeds and ignore
/// it.
pub fn seed_base(seed: u64) -> u64 {
    seed << 20
}

/// Scratch space inside the working directory; every pass gets a fresh
/// subdirectory, removed when the pass ends.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    pub fn new(root: PathBuf) -> Scratch {
        Scratch { root, next: 0 }
    }

    /// A new, empty directory.
    pub fn fresh(&mut self, label: &str) -> std::io::Result<PathBuf> {
        self.next += 1;
        let dir = self.root.join(format!("{label}-{}", self.next));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    pub fn remove(&self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Exact work counted in a pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    pub runs: u64,
    pub instret: u64,
    pub data_refs: u64,
}

impl Work {
    fn add_record(&mut self, r: &RunRecord) {
        self.runs += 1;
        self.instret += r.instret;
        self.data_refs += r.counters.l1d.total_accesses();
    }
}

/// One untraced pass: the timed end-to-end run.
pub struct Pass {
    pub wall: Duration,
    pub cpu: Duration,
    /// Host latency of each run unit, in ms.
    pub run_ms: Vec<f64>,
    pub tally: Tally,
    pub work: Work,
    /// Exact model metrics and the layer metrics an untraced pass can
    /// measure (fleet waves, store, telemetry).
    pub metrics: Metrics,
    /// Serialized results by run key, the reference a traced pass must
    /// reproduce.
    pub refs: HashMap<String, Value>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
            run_ms: Vec::new(),
            tally: Tally::default(),
            work: Work::default(),
            metrics: Metrics::default(),
            refs: HashMap::new(),
        }
    }
}

/// One traced pass: per-layer times plus the job spans.
pub struct TracedPass {
    pub wall: Duration,
    pub tally: Tally,
    pub times: LayerTimes,
    /// Layer times, tunings and reconfigurations per scheme id.
    pub per_scheme: BTreeMap<String, (LayerTimes, u64, u64)>,
    pub jobs: Vec<JobSpan>,
    /// Exact counters summed over every traced run.
    pub sums: CounterSums,
}

/// Sums of the machine counters behind the exact `sim.*` rates.
#[derive(Debug, Default, Clone)]
pub struct CounterSums {
    pub l1d: (u64, u64),
    pub l2: (u64, u64),
    pub dtlb: (u64, u64),
    pub branch: (u64, u64),
    pub guard: (u64, u64),
    pub hotspots: u64,
}

impl CounterSums {
    fn add(&mut self, r: &RunRecord) {
        let c = &r.counters;
        self.l1d.0 += c.l1d.total_misses();
        self.l1d.1 += c.l1d.total_accesses();
        self.l2.0 += c.l2.total_misses();
        self.l2.1 += c.l2.total_accesses();
        self.dtlb.0 += c.dtlb.misses;
        self.dtlb.1 += c.dtlb.accesses;
        self.branch.0 += c.branch.mispredicts;
        self.branch.1 += c.branch.branches;
        let applied: u64 = [
            &c.l1d.resizes,
            &c.l2.resizes,
            &c.window_resizes,
            &c.dtlb_resizes,
        ]
        .iter()
        .map(|levels| levels.iter().sum::<u64>())
        .sum();
        self.guard.0 += c.guard_rejections;
        self.guard.1 += c.guard_rejections + applied;
        self.hotspots += r.table4.hotspots;
    }
}

/// Mean of `values`, 0 when empty.
fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records the six scheme-versus-baseline model metrics as the mean over
/// `rows` of `(hotspot, bbv, baseline)` triples, in percent.
fn set_scheme_savings(metrics: &mut Metrics, rows: &[(&RunRecord, &RunRecord, &RunRecord)]) {
    type Versus = fn(&RunRecord, &RunRecord) -> f64;
    let measures: [(&str, Versus); 3] = [
        ("l1d_saving", RunRecord::l1d_saving_vs),
        ("l2_saving", RunRecord::l2_saving_vs),
        ("slowdown", RunRecord::slowdown_vs),
    ];
    for (scheme, pick) in [("hotspot", 0), ("bbv", 1)] {
        for (measure, versus) in measures {
            let values: Vec<f64> = rows
                .iter()
                .map(|r| 100.0 * versus(if pick == 0 { r.0 } else { r.1 }, r.2))
                .collect();
            metrics.set(format!("{scheme}_{measure}_pct"), mean(&values), "%");
        }
    }
}

// ---------------------------------------------------------------- set-up

/// One set-up: what a pass does before its first simulated instruction —
/// resolve and build the programs, build the scheme registry, start and
/// join the worker pool, and (fleet) open an empty tuning store.
pub fn setup(workload: Workload, seed: u64, scratch: &mut Scratch) -> Result<Duration, String> {
    let dir = scratch.fresh("setup").map_err(|e| e.to_string())?;
    let start = Instant::now();
    let registry = SchemeRegistry::builtin();
    let programs: usize = match workload {
        Workload::Headline | Workload::Fleet => {
            let workloads = WorkloadRegistry::builtin();
            PRESET_NAMES
                .iter()
                .map(|name| workloads.resolve_program(name).map(|_| 1))
                .sum::<Result<usize, _>>()
                .map_err(|e| e.to_string())?
        }
        Workload::Corpus => corpus_specs(seed)
            .iter()
            .map(|spec| spec.build().map(|_| 1))
            .sum::<Result<usize, _>>()
            .map_err(|e| e.to_string())?,
    };
    if workload == Workload::Fleet {
        let store = TuningStore::open(
            dir.join("store.jsonl"),
            fleet_registry_version(),
            TuningStore::DEFAULT_CAPACITY,
        )
        .map_err(|e| e.to_string())?;
        std::hint::black_box(store.len());
    }
    let pool: Vec<Job<usize>> = (0..JOBS)
        .map(|i| Job::new(format!("setup{i}"), move |_| Ok(i)))
        .collect();
    let joined = run_jobs(pool, JOBS, &Telemetry::off()).len();
    let elapsed = start.elapsed();
    std::hint::black_box((programs, joined, registry.len()));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(elapsed)
}

// -------------------------------------------------------------- headline

/// The committed results-cache entry for `preset` at the default run
/// configuration: `results/<preset>-<key>.json`, read and never written.
fn committed_headline(preset: &str) -> Result<SchemeResults, String> {
    let path = Path::new("results").join(format!(
        "{preset}-{}.json",
        cache_key(preset, &RunConfig::default())
    ));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn headline_records(r: &SchemeResults) -> [(&'static str, &RunRecord); 3] {
    [
        ("baseline", &r.baseline),
        ("bbv", &r.bbv),
        ("hotspot", &r.hotspot),
    ]
}

pub fn headline_pass(scratch: &mut Scratch) -> Result<Pass, String> {
    let dir = scratch.fresh("headline").map_err(|e| e.to_string())?;
    let mut pass = Pass::new();
    let cpu0 = cpu_time();
    let start = Instant::now();
    let outcome = ExperimentSet::all_presets()
        .fresh(true)
        .results_dir(&dir)
        .run_detailed(JOBS);
    pass.wall = start.elapsed();
    pass.cpu = cpu_time() - cpu0;
    let _ = std::fs::remove_dir_all(&dir);
    let runs = (PRESET_NAMES.len() * HEADLINE_SCHEMES.len()) as u64;
    let outcomes = match outcome {
        Ok(o) => o,
        Err(e) => {
            pass.tally.fail(runs, format!("headline: {e}"));
            return Ok(pass);
        }
    };
    let mut rows = Vec::new();
    for o in &outcomes {
        let r = &o.results;
        // ExperimentSet reports one worker wall per preset: its three
        // scheme runs.
        pass.run_ms.push(ms(o.wall));
        let committed = committed_headline(&r.workload);
        for (scheme, record) in headline_records(r) {
            pass.work.add_record(record);
            let key = format!("{}/{scheme}", r.workload);
            pass.refs.insert(key.clone(), record.to_value());
            pass.tally.check(match &committed {
                Err(e) => Err(format!("{key}: committed results cache: {e}")),
                Ok(c) => {
                    let want = headline_records(c)
                        .into_iter()
                        .find(|(s, _)| *s == scheme)
                        .map(|(_, rec)| rec.to_value())
                        .expect("every scheme has a record");
                    match first_difference(&record.to_value(), &want) {
                        None => Ok(()),
                        Some(d) => Err(format!("{key} differs from the committed cache: {d}")),
                    }
                }
            });
        }
        rows.push((&r.hotspot, &r.bbv, &r.baseline));
    }
    set_scheme_savings(&mut pass.metrics, &rows);
    Ok(pass)
}

// ---------------------------------------------------------------- corpus

pub fn corpus_specs(seed: u64) -> Vec<WorkloadSpec> {
    (0..CORPUS_SPECS as u64)
        .map(|i| gen(seed_base(seed) + i, &GenParams::default()))
        .collect()
}

fn scheme_names() -> Vec<String> {
    SchemeRegistry::builtin()
        .names()
        .map(str::to_string)
        .collect()
}

/// The counters every scheme must agree on for one workload: the
/// reference stream, untouched by reconfiguration (corpus oracle C).
fn invariant_counters(r: &RunRecord) -> [(&'static str, u64); 6] {
    [
        ("instret", r.instret),
        ("branches", r.counters.branch.branches),
        ("l1i_accesses", r.counters.l1i.total_accesses()),
        ("l1d_accesses", r.counters.l1d.total_accesses()),
        ("l1d_stores", r.counters.l1d.stores.iter().sum()),
        ("dtlb_accesses", r.counters.dtlb.accesses),
    ]
}

fn oracle_c(key: &str, record: &RunRecord, baseline: &RunRecord) -> Result<(), String> {
    for ((name, got), (_, want)) in invariant_counters(record)
        .into_iter()
        .zip(invariant_counters(baseline))
    {
        if got != want {
            return Err(format!(
                "{key}: {name} {got} differs from baseline's {want}"
            ));
        }
    }
    Ok(())
}

pub fn corpus_pass(seed: u64) -> Result<Pass, String> {
    let specs = corpus_specs(seed);
    let schemes = scheme_names();
    let mut pass = Pass::new();
    let mut pool: Vec<Job<RunRecord>> = Vec::new();
    for spec in &specs {
        for scheme in &schemes {
            let (spec, scheme) = (spec.clone(), scheme.clone());
            pool.push(Job::new(format!("{}/{scheme}", spec.name), move |tel| {
                Ok(Experiment::spec(spec)
                    .scheme(scheme.as_str())
                    .instruction_limit(CORPUS_LIMIT)
                    .telemetry(tel)
                    .run()?)
            }));
        }
    }
    let cpu0 = cpu_time();
    let start = Instant::now();
    let outcomes = run_jobs(pool, JOBS, &Telemetry::off());
    pass.wall = start.elapsed();
    pass.cpu = cpu_time() - cpu0;

    let mut rows: Vec<Vec<Option<RunRecord>>> = Vec::new();
    let mut outcomes = outcomes.into_iter();
    for _ in &specs {
        let mut row = Vec::with_capacity(schemes.len());
        for o in outcomes.by_ref().take(schemes.len()) {
            pass.run_ms.push(ms(o.wall));
            row.push(match o.result {
                Ok(record) => {
                    pass.work.add_record(&record);
                    pass.refs.insert(o.key, record.to_value());
                    Some(record)
                }
                Err(e) => {
                    pass.tally.fail(1, format!("{}: {e}", o.key));
                    None
                }
            });
        }
        rows.push(row);
    }
    let index = |name: &str| schemes.iter().position(|s| s == name);
    let (base_i, hot_i, bbv_i) = (index("baseline"), index("hotspot"), index("bbv"));
    let mut savings = Vec::new();
    for (spec, row) in specs.iter().zip(&rows) {
        let baseline = base_i.and_then(|i| row[i].as_ref());
        for (scheme, record) in schemes.iter().zip(row) {
            let Some(record) = record else { continue };
            let key = format!("{}/{scheme}", spec.name);
            pass.tally.check(match baseline {
                Some(b) => oracle_c(&key, record, b),
                None => Err(format!("{key}: no baseline run to check against")),
            });
        }
        let pick = |i: Option<usize>| i.and_then(|i| row[i].as_ref());
        if let (Some(h), Some(b), Some(base)) = (pick(hot_i), pick(bbv_i), baseline) {
            savings.push((h, b, base));
        }
    }
    set_scheme_savings(&mut pass.metrics, &savings);
    Ok(pass)
}

// ----------------------------------------------------------------- fleet

/// The fleet shape: the smoke preset's waves over `FLEET_MACHINES`
/// machines, hotspot only (no baseline companion), seeds from the
/// benchmark seed.
pub fn fleet_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::preset("smoke").expect("smoke fleet preset exists");
    cfg.machines = FLEET_MACHINES;
    cfg.seed_base = seed_base(seed);
    cfg.measure_baseline = false;
    cfg
}

/// A sink wrapper that writes the fleet's event stream to its JSONL file
/// while timing each write and the fleet's `wave` spans.
struct TimingSink {
    inner: JsonlSink,
    state: Mutex<SinkState>,
}

#[derive(Default)]
struct SinkState {
    events: u64,
    record_ns: f64,
    wave_open: Option<Instant>,
    waves_ms: Vec<f64>,
}

impl Sink for TimingSink {
    fn record(&self, event: &Event) {
        let a = Instant::now();
        self.inner.record(event);
        let b = Instant::now();
        let mut s = self.state.lock().expect("timing sink state");
        s.events += 1;
        s.record_ns += (b - a).as_nanos() as f64;
        match event {
            Event::SpanBegin { name, .. } if name.as_str() == "wave" => s.wave_open = Some(a),
            Event::SpanEnd { name, .. } if name.as_str() == "wave" => {
                if let Some(open) = s.wave_open.take() {
                    s.waves_ms.push(ms(b - open));
                }
            }
            _ => {}
        }
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn machine_key(pass: &str, m: &MachineOutcome) -> String {
    format!("{pass}/m{}", m.spec.index)
}

pub fn fleet_pass(seed: u64, scratch: &mut Scratch) -> Result<Pass, String> {
    let dir = scratch.fresh("fleet").map_err(|e| e.to_string())?;
    let cfg = fleet_config(seed);
    let mut pass = Pass::new();
    let sink = Arc::new(TimingSink {
        inner: JsonlSink::create(dir.join("events.jsonl")).map_err(|e| e.to_string())?,
        state: Mutex::new(SinkState::default()),
    });
    let telemetry = Telemetry::new(Arc::clone(&sink));
    let mut cold_obs = ObsSampler::new("cold");
    let mut warm_obs = ObsSampler::new("warm");
    let store_path = dir.join("store.jsonl");

    let cpu0 = cpu_time();
    let start = Instant::now();
    let opened = Instant::now();
    let mut store = TuningStore::open(
        &store_path,
        fleet_registry_version(),
        TuningStore::DEFAULT_CAPACITY,
    )
    .map_err(|e| e.to_string())?;
    let store_open = opened.elapsed();
    let cold_entries = store.len();
    let mut passes: Vec<(&str, Result<FleetOutcome, String>, Duration)> = Vec::new();
    for (name, obs) in [("cold", &mut cold_obs), ("warm", &mut warm_obs)] {
        let t = Instant::now();
        let outcome = run_fleet_observed(&cfg, &mut store, JOBS, &telemetry, Some(obs))
            .map_err(|e| e.to_string());
        passes.push((name, outcome, t.elapsed()));
    }
    telemetry.flush();
    pass.wall = start.elapsed();
    pass.cpu = cpu_time() - cpu0;

    let mut obs_file = std::fs::File::create(dir.join("obs.jsonl")).map_err(|e| e.to_string())?;
    let records: Vec<_> = cold_obs
        .records()
        .iter()
        .chain(warm_obs.records())
        .cloned()
        .collect();
    ace_telemetry::write_obs_jsonl(&mut obs_file, &records).map_err(|e| e.to_string())?;

    let per_pass = cfg.machines as u64;
    let mut idle = Vec::new();
    let mut done: Vec<(&str, FleetOutcome)> = Vec::new();
    for (name, outcome, wall) in passes {
        match outcome {
            Err(e) => pass.tally.fail(per_pass, format!("fleet {name} pass: {e}")),
            Ok(o) => {
                idle.push(1.0 - o.wall.as_secs_f64() / (JOBS as f64 * wall.as_secs_f64()));
                for m in &o.machines {
                    pass.work.runs += 1;
                    pass.work.instret += m.instret;
                    pass.refs.insert(machine_key(name, m), m.to_value());
                }
                done.push((name, o));
            }
        }
    }
    // Output checks: the cold pass starts from an empty store, and the
    // warm pass hits it.
    for (name, o) in &done {
        let check = match *name {
            "cold" if cold_entries != 0 => Err(format!(
                "fleet cold pass started from {cold_entries} store entries, not 0"
            )),
            "warm" if o.hits() == 0 => Err("fleet warm pass never hit the store".to_string()),
            _ => Ok(()),
        };
        match check {
            Ok(()) => pass.tally.ok(o.ran()),
            Err(e) => pass.tally.fail(o.ran(), e),
        }
    }

    let state = sink.state.lock().expect("timing sink state");
    pass.run_ms = state.waves_ms.clone();
    let m = &mut pass.metrics;
    let find = |n: &str| done.iter().find(|(name, _)| *name == n).map(|(_, o)| o);
    if let (Some(cold), Some(warm)) = (find("cold"), find("warm")) {
        m.set("warm_hit_rate", 100.0 * warm.hit_rate(), "%");
        let cold_tunings = cold.tunings().max(1) as f64;
        m.set(
            "warm_trials_saved_pct",
            100.0 * (1.0 - warm.tunings() as f64 / cold_tunings),
            "%",
        );
        m.set("fleet.store_publishes", cold.publishes() as f64, "count");
        m.set("fleet.store_lookups", warm.lookups() as f64, "count");
        m.set("fleet.store_hit_ratio_cold", cold.hit_rate(), "ratio");
        m.set("fleet.store_hit_ratio_warm", warm.hit_rate(), "ratio");
    }
    m.set("fleet.barrier_idle_pct", 100.0 * mean(&idle), "%");
    m.set(
        "fleet.store_log_bytes",
        file_len(&store_path) as f64,
        "bytes",
    );
    m.set("fleet.store_open_ms", ms(store_open), "ms");
    m.set("telemetry.events", state.events as f64, "count");
    m.set(
        "telemetry.bytes",
        file_len(&dir.join("events.jsonl")) as f64,
        "bytes",
    );
    m.set(
        "telemetry.sink_ns_per_event",
        if state.events == 0 {
            0.0
        } else {
            state.record_ns / state.events as f64
        },
        "ns",
    );
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(pass)
}

// ---------------------------------------------------------- traced passes

/// One traced job's result: the run plus its span, stamped inside the
/// job's closure as offsets from the start of the pass.
pub struct TracedJob {
    pub key: String,
    scheme: String,
    run: TracedRun,
    pub start: Duration,
    pub end: Duration,
}

#[allow(clippy::too_many_arguments)]
fn traced_job(
    pass_start: Instant,
    key: String,
    scheme: String,
    build: impl FnOnce() -> Result<ace_workloads::Program, String> + Send + 'static,
    do_config: DoConfig,
    limit: Option<u64>,
    seed: Option<u64>,
    warm: Option<ace_core::WarmStartContext>,
) -> Job<TracedJob> {
    Job::new(key.clone(), move |_| {
        let start = Instant::now();
        let program = build()?;
        let build_ns = start.elapsed().as_nanos() as f64;
        let registry = SchemeRegistry::builtin();
        let tuning = registry
            .get(&scheme)
            .ok_or_else(|| format!("scheme {scheme:?} is not registered"))?;
        let mut run = traced_run(
            &program,
            &**tuning,
            LoopConfig {
                do_config: &do_config,
                instruction_limit: limit,
                workload_seed: seed,
            },
            warm,
        )?;
        run.times.build_ns = build_ns;
        Ok(TracedJob {
            key,
            scheme,
            run,
            start: start - pass_start,
            end: pass_start.elapsed(),
        })
    })
}

/// A finished traced job as the span dump records it.
pub struct JobSpan {
    pub key: String,
    pub start: Duration,
    pub end: Duration,
    pub times: LayerTimes,
}

impl TracedPass {
    fn new() -> TracedPass {
        TracedPass {
            wall: Duration::ZERO,
            tally: Tally::default(),
            times: LayerTimes::default(),
            per_scheme: BTreeMap::new(),
            jobs: Vec::new(),
            sums: CounterSums::default(),
        }
    }

    /// Folds finished jobs in: checks each run against `refs` (its
    /// untraced twin) and accumulates the layer times.
    fn absorb(
        &mut self,
        outcomes: Vec<JobOutcome<TracedJob>>,
        refs: &HashMap<String, Value>,
        mut compare: impl FnMut(&str, &TracedRun) -> Option<Value>,
    ) -> Vec<TracedRun> {
        let mut runs = Vec::new();
        for o in outcomes {
            match o.result {
                Err(e) => self.tally.fail(1, format!("traced {}: {e}", o.key)),
                Ok(TracedJob {
                    key,
                    scheme,
                    run,
                    start,
                    end,
                }) => {
                    let got = compare(&key, &run).unwrap_or_else(|| run.record.to_value());
                    self.tally.check(match refs.get(&key) {
                        None => Err(format!("traced {key}: no untraced run to compare")),
                        Some(want) => match first_difference(&got, want) {
                            None => Ok(()),
                            Some(d) => {
                                Err(format!("traced {key} differs from the untraced run: {d}"))
                            }
                        },
                    });
                    self.times.add(&run.times);
                    self.sums.add(&run.record);
                    let entry = self.per_scheme.entry(scheme).or_default();
                    entry.0.add(&run.times);
                    entry.1 += run.report.tunings;
                    entry.2 += run.report.reconfigs;
                    self.jobs.push(JobSpan {
                        key,
                        start,
                        end,
                        times: run.times.clone(),
                    });
                    runs.push(run);
                }
            }
        }
        runs
    }
}

pub fn headline_traced(refs: &HashMap<String, Value>) -> TracedPass {
    let mut pass = TracedPass::new();
    let mut pool = Vec::new();
    let start = Instant::now();
    for preset in PRESET_NAMES {
        for scheme in HEADLINE_SCHEMES {
            pool.push(traced_job(
                start,
                format!("{preset}/{scheme}"),
                scheme.to_string(),
                move || {
                    WorkloadRegistry::builtin()
                        .resolve_program(preset)
                        .map_err(|e| e.to_string())
                },
                DoConfig::default(),
                None,
                None,
                None,
            ));
        }
    }
    let outcomes = run_jobs(pool, JOBS, &Telemetry::off());
    pass.wall = start.elapsed();
    pass.absorb(outcomes, refs, |_, _| None);
    pass
}

pub fn corpus_traced(seed: u64, refs: &HashMap<String, Value>) -> TracedPass {
    let mut pass = TracedPass::new();
    let mut pool = Vec::new();
    let start = Instant::now();
    for spec in corpus_specs(seed) {
        for scheme in scheme_names() {
            let spec = spec.clone();
            pool.push(traced_job(
                start,
                format!("{}/{scheme}", spec.name),
                scheme,
                move || spec.build().map_err(|e| e.to_string()),
                DoConfig::default(),
                Some(CORPUS_LIMIT),
                None,
                None,
            ));
        }
    }
    let outcomes = run_jobs(pool, JOBS, &Telemetry::off());
    pass.wall = start.elapsed();
    pass.absorb(outcomes, refs, |_, _| None);
    pass
}

/// Replays both fleet passes through the traced loop: waves of machines
/// tune against a frozen snapshot of an in-memory store, and their
/// publications merge in machine-index order after each wave — the
/// fleet driver's schedule. Each machine's outcome must equal the real
/// fleet's.
pub fn fleet_traced(seed: u64, refs: &HashMap<String, Value>) -> TracedPass {
    let cfg = fleet_config(seed);
    let mut pass = TracedPass::new();
    let mut store = TuningStore::in_memory(fleet_registry_version(), TuningStore::DEFAULT_CAPACITY);
    let specs = cfg.machine_specs();
    let start = Instant::now();
    for name in ["cold", "warm"] {
        for wave in specs.chunks(cfg.wave_size) {
            let snapshot = store.snapshot();
            let pool: Vec<Job<TracedJob>> = wave
                .iter()
                .map(|spec| {
                    let preset = spec.preset.clone();
                    traced_job(
                        start,
                        format!("{name}/m{}", spec.index),
                        ace_fleet::driver::FLEET_SCHEME.to_string(),
                        move || {
                            WorkloadRegistry::builtin()
                                .resolve_program(&preset)
                                .map_err(|e| e.to_string())
                        },
                        fleet_do_config(),
                        Some(cfg.instruction_limit),
                        Some(spec.seed),
                        Some(snapshot.clone()),
                    )
                })
                .collect();
            let outcomes = run_jobs(pool, JOBS, &Telemetry::off());
            let runs = pass.absorb(outcomes, refs, |key, run| {
                let index = key
                    .split_once("/m")
                    .and_then(|(_, i)| i.parse::<usize>().ok())?;
                let spec = specs.get(index)?.clone();
                let (record, report) = (&run.record, &run.report);
                let outcome = MachineOutcome {
                    spec,
                    ipc: record.ipc,
                    instret: record.instret,
                    l1d_nj: record.energy.l1d_nj,
                    l2_nj: record.energy.l2_nj,
                    baseline: None,
                    tunings: report.tunings,
                    tuned_hotspots: report.tuned_scopes,
                    warm_hits: report.warm_hits,
                    warm_misses: report.warm_misses,
                    warm_trials_saved: report.warm_trials_saved,
                    store_publishes: report.store_publishes,
                };
                Some(outcome.to_value())
            });
            for run in runs {
                for publication in run.publications {
                    if let Err(e) = store.publish(publication) {
                        pass.tally
                            .fail(1, format!("traced fleet store publish: {e}"));
                    }
                }
            }
        }
    }
    pass.wall = start.elapsed();
    pass
}
