//! The traced step loop: the benchmark's own copy of the scalar run
//! loop (`Experiment::run_scheme`), built only from public calls, with
//! host-time spans around the call into each layer.
//!
//! Timing every block costs more than the work it measures (two clock
//! reads against a block of ~60 ns), so block-level calls —
//! `Executor::step`, `Machine::exec_block` and the manager's `on_block`
//! hook — are timed on a pseudo-random 1-in-16 sample of steps and scaled
//! to the full count. Method events (the DO system and the manager's
//! enter/exit hooks) are rare and timed every time. The clock's own cost,
//! measured in the loop as an empty span, is subtracted from every span.

use ace_core::{RunRecord, SchemeCtx, SchemeManager, SchemeReport, TuningScheme, WarmStartContext};
use ace_energy::EnergyModel;
use ace_runtime::{DoConfig, DoSystem};
use ace_sim::{Block, Machine, MachineConfig};
use ace_workloads::{Executor, Program, Step};
use std::time::Instant;

/// One in `SAMPLE_EVERY` steps has its block-level calls timed.
const SAMPLE_EVERY: u64 = 16;

/// Inputs of one traced run, mirroring the `Experiment` options the
/// benchmark's workloads use.
#[derive(Clone, Copy)]
pub struct LoopConfig<'a> {
    pub do_config: &'a DoConfig,
    pub instruction_limit: Option<u64>,
    pub workload_seed: Option<u64>,
}

/// Host time per layer for one or more traced runs, in nanoseconds, with
/// the work counts that turn them into per-instruction figures. Block
/// layers hold their scaled (estimated full-run) totals.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub runs: u64,
    pub instret: u64,
    pub blocks: u64,
    pub method_events: u64,
    pub data_refs: u64,
    /// Program resolve/build time (`workloads.build_ms`).
    pub build_ns: f64,
    /// `Machine::new` time (`sim.machine_new_us`).
    pub machine_new_ns: f64,
    /// `Executor::step` self time.
    pub step_ns: f64,
    /// `Machine::exec_block` self time.
    pub exec_block_ns: f64,
    /// `DoSystem::on_enter`/`on_exit` self time.
    pub runtime_ns: f64,
    /// Manager hook self time (start, block, enter, exit, event, finish).
    pub hook_ns: f64,
    /// Wall of the step loop, from `on_start` through `on_finish`.
    pub loop_ns: f64,
}

impl LayerTimes {
    /// Adds another run's (or runs') times and counts.
    pub fn add(&mut self, o: &LayerTimes) {
        self.runs += o.runs;
        self.instret += o.instret;
        self.blocks += o.blocks;
        self.method_events += o.method_events;
        self.data_refs += o.data_refs;
        self.build_ns += o.build_ns;
        self.machine_new_ns += o.machine_new_ns;
        self.step_ns += o.step_ns;
        self.exec_block_ns += o.exec_block_ns;
        self.runtime_ns += o.runtime_ns;
        self.hook_ns += o.hook_ns;
        self.loop_ns += o.loop_ns;
    }

    /// Loop wall not covered by any layer's self time: the loop's own
    /// dispatch, the entry stack, and the residue of the clock reads.
    pub fn driver_ns(&self) -> f64 {
        self.loop_ns - self.step_ns - self.exec_block_ns - self.runtime_ns - self.hook_ns
    }

    /// `ns / instret`, or 0 for an empty run.
    pub fn per_instr(&self, ns: f64) -> f64 {
        if self.instret == 0 {
            0.0
        } else {
            ns / self.instret as f64
        }
    }
}

/// A traced run's outcome: the same record and report
/// `Experiment::run_scheme` returns, the store publications of a
/// warm-started manager, and the layer times.
pub struct TracedRun {
    pub record: RunRecord,
    pub report: SchemeReport,
    pub publications: Vec<ace_core::StorePublication>,
    pub times: LayerTimes,
}

fn ns(from: Instant, to: Instant) -> f64 {
    (to - from).as_nanos() as f64
}

/// A tiny xorshift generator choosing which steps are sampled; seeded per
/// run so the sample does not alias with loop periods.
struct Sampler(u64);

impl Sampler {
    fn hit(&mut self) -> bool {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.is_multiple_of(SAMPLE_EVERY)
    }
}

/// Runs `program` under `scheme` through the traced loop. A manager
/// that supports warm starts is given `warm` before the run, and its
/// publications are returned.
///
/// # Errors
///
/// Fails when the machine configuration is rejected.
pub fn traced_run(
    program: &Program,
    scheme: &dyn TuningScheme,
    cfg: LoopConfig<'_>,
    warm: Option<WarmStartContext>,
) -> Result<TracedRun, String> {
    let model = EnergyModel::default_180nm();
    let mut manager: Box<dyn SchemeManager> = scheme.build(&SchemeCtx { program, model });
    if let Some(context) = warm {
        match manager.warm_start() {
            Some(ws) => ws.set_warm_start(context),
            None => return Err(format!("scheme {} has no warm start", scheme.name())),
        }
    }
    let mut t = LayerTimes {
        runs: 1,
        ..LayerTimes::default()
    };

    let t0 = Instant::now();
    let mut machine = Machine::new(MachineConfig::default()).map_err(|e| e.to_string())?;
    t.machine_new_ns = ns(t0, Instant::now());
    let mut dos = DoSystem::new(program, cfg.do_config.clone());
    let mut exec = match cfg.workload_seed {
        Some(seed) => Executor::with_seed(program, seed),
        None => Executor::new(program),
    };
    if let Some(limit) = cfg.instruction_limit {
        exec.set_instruction_limit(limit);
    }
    let mut buf = Block::with_capacity(64);
    let mut entry_stack: Vec<u64> = Vec::with_capacity(64);
    let mut sampler = Sampler(0x9E37_79B9_7F4A_7C15 ^ program.seed());
    let (mut steps, mut step_samples, mut block_samples) = (0u64, 0u64, 0u64);
    let (mut step_ns, mut exec_ns, mut block_hook_ns) = (0.0, 0.0, 0.0);
    // An empty span measured in place, on every sampled block: the clock's
    // own cost as the loop sees it, subtracted from every span below.
    let mut null_ns = 0.0;
    // Spans timed on every event or once per run (hooks, DO system).
    let (mut hook_spans, mut runtime_spans) = (2u64, 0u64);

    let loop_start = Instant::now();
    manager.on_start(&mut machine);
    t.hook_ns += ns(loop_start, Instant::now());
    loop {
        steps += 1;
        let step = if sampler.hit() {
            step_samples += 1;
            let a = Instant::now();
            let step = exec.step(&mut buf);
            let b = Instant::now();
            step_ns += ns(a, b);
            if matches!(step, Step::Block) {
                block_samples += 1;
                t.blocks += 1;
                machine.exec_block(&buf);
                let c = Instant::now();
                manager.on_block(&buf, &mut machine);
                let d = Instant::now();
                let e = Instant::now();
                exec_ns += ns(b, c);
                block_hook_ns += ns(c, d);
                null_ns += ns(d, e);
                continue;
            }
            step
        } else {
            let step = exec.step(&mut buf);
            if matches!(step, Step::Block) {
                t.blocks += 1;
                machine.exec_block(&buf);
                manager.on_block(&buf, &mut machine);
                continue;
            }
            step
        };
        match step {
            Step::Block => unreachable!("blocks are handled above"),
            Step::Enter(m) => {
                t.method_events += 1;
                let a = Instant::now();
                entry_stack.push(machine.instret());
                manager.on_method_enter(m, &mut machine);
                let b = Instant::now();
                let event = dos.on_enter(m, &mut machine);
                let c = Instant::now();
                manager.on_event(event, &mut machine);
                let d = Instant::now();
                t.hook_ns += ns(a, b) + ns(c, d);
                t.runtime_ns += ns(b, c);
                hook_spans += 2;
                runtime_spans += 1;
            }
            Step::Exit(m) => {
                t.method_events += 1;
                let a = Instant::now();
                let entered = entry_stack.pop().unwrap_or(0);
                manager.on_method_exit(m, machine.instret() - entered, &mut machine);
                let b = Instant::now();
                let event = dos.on_exit(m, &mut machine);
                let c = Instant::now();
                manager.on_event(event, &mut machine);
                let d = Instant::now();
                t.hook_ns += ns(a, b) + ns(c, d);
                t.runtime_ns += ns(b, c);
                hook_spans += 2;
                runtime_spans += 1;
            }
            Step::Done => break,
        }
    }
    let a = Instant::now();
    manager.on_finish(&mut machine);
    let end = Instant::now();
    t.hook_ns += ns(a, end);
    t.loop_ns = (end - loop_start).as_nanos() as f64;

    // Take the clock's cost off every span, then scale the sampled
    // block-level spans to the full step/block counts.
    let clock = if block_samples == 0 {
        0.0
    } else {
        null_ns / block_samples as f64
    };
    let scale = |ns: f64, samples: u64, total: u64| {
        if samples == 0 {
            0.0
        } else {
            (ns - clock * samples as f64) * total as f64 / samples as f64
        }
    };
    t.machine_new_ns -= clock;
    t.runtime_ns -= clock * runtime_spans as f64;
    t.hook_ns -= clock * hook_spans as f64;
    t.step_ns = scale(step_ns, step_samples, steps);
    t.exec_block_ns = scale(exec_ns, block_samples, t.blocks);
    t.hook_ns += scale(block_hook_ns, block_samples, t.blocks);

    let counters = machine.counters().clone();
    t.instret = counters.instret;
    t.data_refs = counters.l1d.total_accesses();
    let record = RunRecord {
        workload: program.name().to_string(),
        instret: counters.instret,
        cycles: counters.cycles,
        ipc: counters.ipc(),
        energy: model.breakdown(&counters),
        table4: dos.table4_summary(counters.instret),
        do_stats: *dos.stats(),
        counters,
    };
    let report = manager.scheme_report(&record);
    let publications = manager
        .warm_start()
        .and_then(|ws| ws.take_warm_start())
        .map(WarmStartContext::into_publications)
        .unwrap_or_default();
    Ok(TracedRun {
        record,
        report,
        publications,
        times: t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::first_difference;
    use ace_core::{Experiment, SchemeRegistry};
    use serde::Serialize;

    /// The traced loop reproduces `Experiment::run_scheme` exactly —
    /// counters, record and report — for every registered scheme.
    #[test]
    fn traced_loop_matches_run_scheme_for_every_scheme() {
        let registry = SchemeRegistry::builtin();
        let do_config = DoConfig::default();
        let names: Vec<String> = registry.names().map(str::to_string).collect();
        assert_eq!(names.len(), 5, "{names:?}");
        for (preset, limit) in [("db", 1_000_000), ("jess", 500_000)] {
            let program = ace_workloads::preset(preset).unwrap();
            for name in &names {
                let want = Experiment::preset(preset)
                    .scheme(name.as_str())
                    .instruction_limit(limit)
                    .run_scheme()
                    .unwrap();
                let got = traced_run(
                    &program,
                    &**registry.get(name).unwrap(),
                    LoopConfig {
                        do_config: &do_config,
                        instruction_limit: Some(limit),
                        workload_seed: None,
                    },
                    None,
                )
                .unwrap();
                assert_eq!(got.record.counters, want.record.counters, "{preset}/{name}");
                assert_eq!(
                    first_difference(&got.record.to_value(), &want.record.to_value()),
                    None,
                    "{preset}/{name}"
                );
                assert_eq!(got.report, want.report, "{preset}/{name}");
                let t = &got.times;
                // Counts only: span estimates on a run this short are noise.
                assert!(t.blocks > 0 && t.method_events > 0 && t.loop_ns > 0.0);
            }
        }
    }

    #[test]
    fn seeded_runs_match_too() {
        let registry = SchemeRegistry::builtin();
        let do_config = ace_fleet::fleet_do_config();
        let program = ace_workloads::preset("mtrt").unwrap();
        let want = Experiment::preset("mtrt")
            .scheme("hotspot")
            .seed(42)
            .do_config(do_config.clone())
            .instruction_limit(1_000_000)
            .run_scheme()
            .unwrap();
        let got = traced_run(
            &program,
            &**registry.get("hotspot").unwrap(),
            LoopConfig {
                do_config: &do_config,
                instruction_limit: Some(1_000_000),
                workload_seed: Some(42),
            },
            None,
        )
        .unwrap();
        assert_eq!(got.record.counters, want.record.counters);
    }
}
