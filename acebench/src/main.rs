//! `acebench` — the repository benchmark.
//!
//! ```text
//! acebench --workload <headline|corpus|fleet> [--seed N] [--seconds S] [--trace 0|1]
//! acebench compare <old-records.jsonl> <new-records.jsonl>
//! ```
//!
//! A run sets up several times (reporting the median as `setup_s`), then
//! repeats untraced passes of the workload until `--seconds` have passed
//! and reports the end-to-end metrics as medians over passes. With
//! `--trace 1` each untraced pass is followed by a traced pass through
//! the benchmark's own step loop, and the per-layer metrics are reported
//! instead. Every run is checked; the last line of standard output is the
//! result object `{"correct", "attempted", "failed", "metrics"}`. See
//! `acebench/README.md` for the metrics and the workloads.

mod check;
mod host;
mod stats;
mod traced;
mod workloads;

use host::Fingerprint;
use serde::Value;
use stats::{median, Metrics, Tally};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use traced::LayerTimes;
use workloads::{Pass, Scratch, TracedPass, Workload, JOBS};

/// Set-ups before the first pass and after each pass; `setup_s` is the
/// median of all of them. Spreading them over the run samples the host
/// the way the passes do, instead of only at the start.
const SETUPS_FIRST: usize = 11;
const SETUPS_PER_PASS: usize = 5;
/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The paper's reference values for the model metrics (Hu et al., CGO
/// 2005: averages over the SPECjvm98 runs).
const PAPER: [(&str, f64); 6] = [
    ("hotspot_l1d_saving_pct", 47.0),
    ("hotspot_l2_saving_pct", 58.0),
    ("hotspot_slowdown_pct", 1.56),
    ("bbv_l1d_saving_pct", 32.0),
    ("bbv_l2_saving_pct", 52.0),
    ("bbv_slowdown_pct", 1.87),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::Headline,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} requires a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 120),
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare(&args[1..]);
    }
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acebench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch_root = PathBuf::from(".bench_tmp").join(std::process::id().to_string());
    let mut scratch = Scratch::new(scratch_root);
    let outcome = run(&args, &mut scratch);
    scratch.remove();
    // Fails, and keeps it, while another run's scratch is still inside.
    let _ = std::fs::remove_dir(".bench_tmp");
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("acebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything one invocation measured.
struct Runs {
    setups: Vec<f64>,
    passes: Vec<Pass>,
    traced: Vec<TracedPass>,
    tally: Tally,
}

fn set_up(args: &Args, scratch: &mut Scratch, runs: &mut Runs, n: usize) -> Result<(), String> {
    for _ in 0..n {
        let t = workloads::setup(args.workload, args.seed, scratch)?;
        runs.setups.push(t.as_secs_f64());
    }
    Ok(())
}

fn run(args: &Args, scratch: &mut Scratch) -> Result<(), String> {
    let start = Instant::now();
    let mut runs = Runs {
        setups: Vec::new(),
        passes: Vec::new(),
        traced: Vec::new(),
        tally: Tally::default(),
    };
    set_up(args, scratch, &mut runs, SETUPS_FIRST)?;
    let budget = Duration::from_secs(args.seconds);
    let measure = Instant::now();
    while runs.passes.is_empty() || measure.elapsed() < budget {
        let mut pass = match args.workload {
            Workload::Headline => workloads::headline_pass(scratch)?,
            Workload::Corpus => workloads::corpus_pass(args.seed)?,
            Workload::Fleet => workloads::fleet_pass(args.seed, scratch)?,
        };
        if args.trace {
            let traced = match args.workload {
                Workload::Headline => workloads::headline_traced(&pass.refs),
                Workload::Corpus => workloads::corpus_traced(args.seed, &pass.refs),
                Workload::Fleet => workloads::fleet_traced(args.seed, &pass.refs),
            };
            runs.tally.absorb(traced.tally.clone());
            runs.traced.push(traced);
        }
        // The references have served the traced pass; holding them for
        // every pass would grow the peak memory with the pass count.
        pass.refs.clear();
        runs.tally.absorb(pass.tally.clone());
        runs.passes.push(pass);
        set_up(args, scratch, &mut runs, SETUPS_PER_PASS)?;
    }
    if let Some(why) = &runs.tally.first_failure {
        eprintln!("acebench: first failure: {why}");
    }
    let metrics = if args.trace {
        per_layer(&runs, args.workload)
    } else {
        end_to_end(&runs)
    };
    report(args, &runs, &metrics, start.elapsed());
    Ok(())
}

/// Median over passes of a per-pass host time, in seconds.
fn secs(passes: &[Pass], f: impl Fn(&Pass) -> Duration) -> f64 {
    let values: Vec<f64> = passes.iter().map(|p| f(p).as_secs_f64()).collect();
    median(&values).unwrap_or(0.0)
}

/// Every run latency of every pass, in milliseconds.
fn pooled_run_ms(passes: &[Pass]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.run_ms.iter().copied())
        .collect()
}

fn end_to_end(runs: &Runs) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", median(&runs.setups).unwrap_or(0.0), "s");
    m.set("wall_s", secs(&runs.passes, |p| p.wall), "s");
    m.set("cpu_s", secs(&runs.passes, |p| p.cpu), "s");
    m.set(
        "run_ms_p50",
        median(&pooled_run_ms(&runs.passes)).unwrap_or(0.0),
        "ms",
    );
    m.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    m
}

/// Every per-layer metric name, so that each appears on every workload
/// (0 where the layer is not on the workload's path).
fn per_layer_defaults() -> Metrics {
    let mut m = Metrics::default();
    let counts = [
        "workloads.blocks",
        "workloads.method_events",
        "runtime.events",
        "runtime.hotspots",
        "telemetry.events",
        "fleet.store_publishes",
        "fleet.store_lookups",
    ];
    for name in counts {
        m.set(name, 0.0, "count");
    }
    for scheme in ace_core::SchemeRegistry::builtin().names() {
        m.set(format!("core.{scheme}.hook_ns_per_instr"), 0.0, "ns/instr");
        m.set(format!("core.{scheme}.tunings"), 0.0, "count");
        m.set(format!("core.{scheme}.reconfigs"), 0.0, "count");
    }
    for (name, unit) in [
        ("workloads.step_ns_per_instr", "ns/instr"),
        ("workloads.build_ms", "ms"),
        ("sim.exec_block_ns_per_instr", "ns/instr"),
        ("sim.machine_new_us", "us"),
        ("sim.l1d_miss_rate", "ratio"),
        ("sim.l2_miss_rate", "ratio"),
        ("sim.dtlb_miss_rate", "ratio"),
        ("sim.mispredict_rate", "ratio"),
        ("sim.guard_rejection_ratio", "ratio"),
        ("runtime.event_ns", "ns"),
        ("core.driver_ns_per_instr", "ns/instr"),
        ("telemetry.bytes", "bytes"),
        ("telemetry.sink_ns_per_event", "ns"),
        ("bench.queue_wait_ms", "ms"),
        ("bench.job_busy_ms", "ms"),
        ("bench.worker_idle_pct", "%"),
        ("bench.run_ms_p90", "ms"),
        ("fleet.wave_ms_p50", "ms"),
        ("fleet.wave_ms_max", "ms"),
        ("fleet.barrier_idle_pct", "%"),
        ("fleet.store_hit_ratio_cold", "ratio"),
        ("fleet.store_hit_ratio_warm", "ratio"),
        ("fleet.store_log_bytes", "bytes"),
        ("fleet.store_open_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ] {
        m.set(name, 0.0, unit);
    }
    for (name, _) in PAPER {
        m.set(name, 0.0, "%");
    }
    m.set("warm_hit_rate", 0.0, "%");
    m.set("warm_trials_saved_pct", 0.0, "%");
    m
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_layer(runs: &Runs, workload: Workload) -> Metrics {
    let mut m = per_layer_defaults();
    // Metrics the untraced passes measured: medians over passes (the
    // exact ones repeat bit for bit).
    let mut measured: BTreeMap<&str, (Vec<f64>, &'static str)> = BTreeMap::new();
    for p in &runs.passes {
        for (name, value, unit) in p.metrics.iter() {
            measured
                .entry(name)
                .or_insert((Vec::new(), unit))
                .0
                .push(value);
        }
    }
    for (name, (values, unit)) in measured {
        m.set(name, median(&values).unwrap_or(0.0), unit);
    }
    let run_ms = pooled_run_ms(&runs.passes);
    m.set(
        "bench.run_ms_p90",
        stats::p90_if_supported(&run_ms).unwrap_or(0.0),
        "ms",
    );
    if workload == Workload::Fleet {
        // A fleet pass's run unit is one wave.
        m.set("fleet.wave_ms_p50", median(&run_ms).unwrap_or(0.0), "ms");
        m.set(
            "fleet.wave_ms_max",
            run_ms.iter().copied().fold(0.0, f64::max),
            "ms",
        );
    }

    let mut all = LayerTimes::default();
    let mut sums = workloads::CounterSums::default();
    let (mut waits, mut busy, mut traced_wall) = (Vec::new(), 0.0, 0.0);
    let mut per_scheme: BTreeMap<&str, (LayerTimes, u64, u64)> = BTreeMap::new();
    for t in &runs.traced {
        all.add(&t.times);
        for (scheme, (times, tunings, reconfigs)) in &t.per_scheme {
            let e = per_scheme.entry(scheme).or_default();
            e.0.add(times);
            e.1 += tunings;
            e.2 += reconfigs;
        }
        for job in &t.jobs {
            waits.push(job.start.as_secs_f64() * 1e3);
            busy += (job.end - job.start).as_secs_f64() * 1e3;
        }
        traced_wall += t.wall.as_secs_f64() * 1e3;
        // Exact: every traced pass sums to the same counters.
        sums = t.sums.clone();
    }
    let n = runs.traced.len().max(1) as u64;
    let runs_n = all.runs.max(1) as f64;
    m.set(
        "workloads.step_ns_per_instr",
        all.per_instr(all.step_ns),
        "ns/instr",
    );
    m.set("workloads.build_ms", all.build_ns / runs_n / 1e6, "ms");
    m.set("workloads.blocks", (all.blocks / n) as f64, "count");
    m.set(
        "workloads.method_events",
        (all.method_events / n) as f64,
        "count",
    );
    m.set(
        "sim.exec_block_ns_per_instr",
        all.per_instr(all.exec_block_ns),
        "ns/instr",
    );
    m.set(
        "sim.machine_new_us",
        all.machine_new_ns / runs_n / 1e3,
        "us",
    );
    m.set("sim.l1d_miss_rate", ratio(sums.l1d.0, sums.l1d.1), "ratio");
    m.set("sim.l2_miss_rate", ratio(sums.l2.0, sums.l2.1), "ratio");
    m.set(
        "sim.dtlb_miss_rate",
        ratio(sums.dtlb.0, sums.dtlb.1),
        "ratio",
    );
    m.set(
        "sim.mispredict_rate",
        ratio(sums.branch.0, sums.branch.1),
        "ratio",
    );
    m.set(
        "sim.guard_rejection_ratio",
        ratio(sums.guard.0, sums.guard.1),
        "ratio",
    );
    m.set(
        "runtime.event_ns",
        if all.method_events == 0 {
            0.0
        } else {
            all.runtime_ns / all.method_events as f64
        },
        "ns",
    );
    m.set("runtime.events", (all.method_events / n) as f64, "count");
    m.set("runtime.hotspots", sums.hotspots as f64, "count");
    for (scheme, (times, tunings, reconfigs)) in &per_scheme {
        m.set(
            format!("core.{scheme}.hook_ns_per_instr"),
            times.per_instr(times.hook_ns),
            "ns/instr",
        );
        m.set(
            format!("core.{scheme}.tunings"),
            (tunings / n) as f64,
            "count",
        );
        m.set(
            format!("core.{scheme}.reconfigs"),
            (reconfigs / n) as f64,
            "count",
        );
    }
    m.set(
        "core.driver_ns_per_instr",
        all.per_instr(all.driver_ns()),
        "ns/instr",
    );
    m.set("bench.queue_wait_ms", median(&waits).unwrap_or(0.0), "ms");
    m.set("bench.job_busy_ms", busy / waits.len().max(1) as f64, "ms");
    m.set(
        "bench.worker_idle_pct",
        if traced_wall > 0.0 {
            100.0 * (1.0 - busy / (JOBS as f64 * traced_wall))
        } else {
            0.0
        },
        "%",
    );
    let untraced = secs(&runs.passes, |p| p.wall);
    let traced = median(
        &runs
            .traced
            .iter()
            .map(|t| t.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    m.set(
        "trace.overhead_pct",
        if untraced > 0.0 {
            100.0 * (traced / untraced - 1.0)
        } else {
            0.0
        },
        "%",
    );
    m
}

/// Prints the human-readable report, the self-describing record (also
/// appended to `.bench_records/records.jsonl`, next to the traced run's
/// span dump) and, last, the result line.
fn report(args: &Args, runs: &Runs, metrics: &Metrics, elapsed: Duration) {
    let mut out = String::new();
    let kind = if args.trace {
        "per-layer (traced)"
    } else {
        "end-to-end"
    };
    out.push_str(&format!(
        "acebench {} seed {}: {} passes{}, {} set-ups, {:.1} s; {} of {} runs failed\n",
        args.workload.name(),
        args.seed,
        runs.passes.len(),
        if args.trace { " + traced passes" } else { "" },
        runs.setups.len(),
        elapsed.as_secs_f64(),
        runs.tally.failed,
        runs.tally.attempted,
    ));
    let run_ms = pooled_run_ms(&runs.passes);
    if let Some(p) = stats::tail_percentile(run_ms.len()) {
        out.push_str(&format!(
            "run latency: p50 {:.2} ms, p{p} {:.2} ms over {} runs (highest percentile with 10 beyond)\n",
            median(&run_ms).unwrap_or(0.0),
            stats::percentile(&run_ms, p).unwrap_or(0.0),
            run_ms.len()
        ));
    }
    out.push_str(&format!("{kind} metrics:\n"));
    for (name, value, unit) in metrics.iter() {
        let paper = PAPER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| format!("   (paper {v})"))
            .unwrap_or_default();
        out.push_str(&format!("  {name:<36} {value:>14.4} {unit}{paper}\n"));
    }
    print!("{out}");

    let dir = PathBuf::from(".bench_records");
    let run_id = format!(
        "{}-s{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis()),
        std::process::id()
    );
    let spans = (!runs.traced.is_empty()).then(|| dir.join(format!("spans-{run_id}.jsonl")));
    let record = record_value(args, runs, metrics, &run_id, spans.as_deref());
    let line = serde_json::to_string(&record).expect("record serializes");
    println!("record {line}");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join("records.jsonl"))
                .and_then(|mut f| writeln!(f, "{line}"))
        })
        .and_then(|()| match &spans {
            Some(path) => write_spans(path, &run_id, &runs.traced),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("acebench: cannot write the record: {e}");
    }
    println!("{}", stats::result_line(&runs.tally, metrics));
}

/// Writes every traced job's span, kept in memory until now, one JSON
/// line each: the run id, the traced pass, the job, its start and end
/// (ms from the start of the pass) and its layer self times (ns).
fn write_spans(path: &std::path::Path, run_id: &str, traced: &[TracedPass]) -> std::io::Result<()> {
    let mut out = String::new();
    for (pass, t) in traced.iter().enumerate() {
        for job in &t.jobs {
            let l = &job.times;
            let span = Value::Object(vec![
                ("run".into(), Value::Str(run_id.into())),
                ("pass".into(), Value::U64(pass as u64)),
                ("job".into(), Value::Str(job.key.clone())),
                ("start_ms".into(), Value::F64(job.start.as_secs_f64() * 1e3)),
                ("end_ms".into(), Value::F64(job.end.as_secs_f64() * 1e3)),
                ("instret".into(), Value::U64(l.instret)),
                ("build_ns".into(), Value::F64(l.build_ns)),
                ("machine_new_ns".into(), Value::F64(l.machine_new_ns)),
                ("loop_ns".into(), Value::F64(l.loop_ns)),
                ("step_ns".into(), Value::F64(l.step_ns)),
                ("exec_block_ns".into(), Value::F64(l.exec_block_ns)),
                ("runtime_ns".into(), Value::F64(l.runtime_ns)),
                ("hook_ns".into(), Value::F64(l.hook_ns)),
                ("driver_ns".into(), Value::F64(l.driver_ns())),
            ]);
            out.push_str(&serde_json::to_string(&span).expect("span serializes"));
            out.push('\n');
        }
    }
    std::fs::write(path, out)
}

/// The self-describing record: seeds, host fingerprint, exact work
/// counters, and the metrics.
fn record_value(
    args: &Args,
    runs: &Runs,
    metrics: &Metrics,
    run_id: &str,
    spans: Option<&std::path::Path>,
) -> Value {
    let fp = Fingerprint::current();
    let work = runs.passes.last().map(|p| p.work).unwrap_or_default();
    let traced = runs.traced.last();
    let mut counters = vec![
        ("runs".to_string(), Value::U64(work.runs)),
        ("instret".to_string(), Value::U64(work.instret)),
    ];
    if work.data_refs > 0 {
        counters.push(("data_refs".into(), Value::U64(work.data_refs)));
    } else if let Some(t) = traced {
        counters.push(("data_refs".into(), Value::U64(t.times.data_refs)));
    }
    if let Some(t) = traced {
        counters.push(("blocks".into(), Value::U64(t.times.blocks)));
    }
    Value::Object(vec![
        ("run".into(), Value::Str(run_id.into())),
        (
            "spans".into(),
            spans.map_or(Value::Null, |p| Value::Str(p.display().to_string())),
        ),
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("seed".into(), Value::U64(args.seed)),
        (
            "seed_base".into(),
            Value::U64(workloads::seed_base(args.seed)),
        ),
        ("trace".into(), Value::Bool(args.trace)),
        ("passes".into(), Value::U64(runs.passes.len() as u64)),
        ("fingerprint".into(), serde::Serialize::to_value(&fp)),
        ("work".into(), Value::Object(counters)),
        ("attempted".into(), Value::U64(runs.tally.attempted)),
        ("failed".into(), Value::U64(runs.tally.failed)),
        (
            "metrics".into(),
            Value::Object(
                metrics
                    .iter()
                    .map(|(n, v, _)| (n.to_string(), Value::F64(v)))
                    .collect(),
            ),
        ),
    ])
}

/// `compare <old> <new>`: the last record of each (workload, trace) pair
/// in two record files, metric by metric. Records from different hosts
/// are reported as incomparable, never as a regression.
fn compare(paths: &[String]) -> ExitCode {
    let [old, new] = paths else {
        eprintln!("usage: acebench compare <old-records.jsonl> <new-records.jsonl>");
        return ExitCode::from(2);
    };
    let load = |path: &str| -> Result<Vec<Value>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::from_str::<Value>(l).map_err(|e| format!("{path}: {e}")))
            .collect()
    };
    let (old, new) = match (load(old), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("acebench compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let field = |v: &Value, k: &str| v.as_object().and_then(|o| serde::find_field(o, k)).cloned();
    let key = |v: &Value| (field(v, "workload"), field(v, "trace"));
    for n in &new {
        let Some(o) = old.iter().rev().find(|o| key(o) == key(n)) else {
            continue;
        };
        let fp = |v: &Value| {
            field(v, "fingerprint").and_then(|f| serde::Deserialize::from_value(&f).ok())
        };
        let workload = match field(n, "workload") {
            Some(Value::Str(w)) => w,
            _ => String::from("?"),
        };
        let (Some(fo), Some(fnew)): (Option<Fingerprint>, Option<Fingerprint>) = (fp(o), fp(n))
        else {
            println!("{workload}: incomparable (record without a host fingerprint)");
            continue;
        };
        if !fo.comparable(&fnew) {
            println!(
                "{workload}: incomparable (host {} x{} {} vs {} x{} {})",
                fo.cpu_model, fo.nproc, fo.rustc, fnew.cpu_model, fnew.nproc, fnew.rustc
            );
            continue;
        }
        let metrics = |v: &Value| field(v, "metrics");
        let (Some(Value::Object(mo)), Some(Value::Object(mn))) = (metrics(o), metrics(n)) else {
            continue;
        };
        println!("{workload} ({} -> {}):", fo.commit, fnew.commit);
        for (name, value) in &mn {
            let (Some(b), Some(a)) = (
                serde::find_field(&mo, name).and_then(Value::as_f64),
                value.as_f64(),
            ) else {
                continue;
            };
            let change = if b == 0.0 {
                String::from("n/a")
            } else {
                format!("{:+.2}%", 100.0 * (a / b - 1.0))
            };
            println!("  {name:<36} {b:>14.4} -> {a:>14.4}  {change}");
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&strings(&[
            "--workload",
            "corpus",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::Corpus);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert_eq!(
            parse_args(&strings(&["--workload", "fleet"])).unwrap().seed,
            DEFAULT_SEED
        );
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "fleet", "--trace", "2"],
            &["--workload", "fleet", "--seed", "-1"],
            &["--workload"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn every_per_layer_name_is_valid_and_listed_once() {
        let m = per_layer_defaults();
        let names: Vec<&str> = m.iter().map(|(n, _, _)| n).collect();
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        assert!(names.iter().all(|n| stats::valid_name(n)));
        assert!(names.contains(&"core.pdm.hook_ns_per_instr"));
    }

    /// `BENCHMARK.json` names exactly the metrics the benchmark prints.
    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let list = serde::find_field(spec.as_object().unwrap(), key).unwrap();
            let mut v: Vec<(String, String)> = list
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let o = m.as_object().unwrap();
                    let text = |k| match serde::find_field(o, k) {
                        Some(Value::Str(s)) => s.clone(),
                        other => panic!("{k}: {other:?}"),
                    };
                    (text("name"), text("unit"))
                })
                .collect();
            v.sort();
            v
        };
        let printed = |m: &Metrics| -> Vec<(String, String)> {
            m.iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("per_layer"), printed(&per_layer_defaults()));
        let runs = Runs {
            setups: vec![1.0],
            passes: Vec::new(),
            traced: Vec::new(),
            tally: Tally::default(),
        };
        assert_eq!(names("end_to_end"), printed(&end_to_end(&runs)));
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        let listed = serde::find_field(spec.as_object().unwrap(), "workloads").unwrap();
        let listed: Vec<String> = listed
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|w| match serde::find_field(w.as_object()?, "name") {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(listed, workloads);
    }
}
