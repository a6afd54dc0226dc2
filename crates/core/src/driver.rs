//! The run driver: couples a workload executor, the DO system, the
//! simulated machine, and an ACE manager into one complete run.
//!
//! Every experiment in the evaluation is one or more
//! [`crate::Experiment`] runs through this driver: the baseline uses
//! [`crate::NullManager`], the
//! paper's scheme [`crate::HotspotAceManager`], the temporal baseline
//! [`crate::BbvAceManager`], and the ablations [`crate::FixedManager`].
//!
//! There is one step loop. It is generic over the step source (the
//! scalar [`Executor`] or the [`ThreadedExecutor`]) and feeds each step
//! to a list of consumers, each with its own machine, DO system, manager
//! and telemetry handle. A single run is one consumer; comparing schemes
//! on one workload runs them all off one step stream.
//!
//! With two or more consumers the machines also share the block's front
//! end (L1I, branch predictor, DTLB), whose units no scheme resizes:
//! consumer 0 runs [`Machine::exec_block_recording`] and the others
//! [`Machine::replay_block`] the record. A configurable DTLB is part of
//! each consumer's own state, so with one every consumer runs
//! [`Machine::exec_block`].

use crate::manager::AceManager;
use ace_energy::{EnergyBreakdown, EnergyModel};
use ace_runtime::{DoConfig, DoStats, DoSystem, Table4Row};
use ace_sim::{Block, ConfigError, CuId, FrontRecord, Machine, MachineConfig, MachineCounters};
use ace_telemetry::Telemetry;
use ace_workloads::{Executor, MethodId, MtStep, Program, Step, ThreadId, ThreadedExecutor};
use serde::{Deserialize, Serialize};

/// Parameters of one run.
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Machine configuration (Table 2 defaults).
    pub machine: MachineConfig,
    /// DO-system configuration.
    pub do_config: DoConfig,
    /// Energy model used for the run record (managers carry their own).
    pub energy: EnergyModel,
    /// Optional dynamic-instruction cap.
    pub instruction_limit: Option<u64>,
    /// Overrides the program's own executor seed (sensitivity studies).
    pub workload_seed: Option<u64>,
    /// Observability handle handed to the DO system and the manager.
    /// Defaults to [`Telemetry::off`], which costs one never-taken branch
    /// per decision point.
    pub telemetry: Telemetry,
}

/// The outcome of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Instructions retired.
    pub instret: u64,
    /// Cycles elapsed.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Configurable-cache energy totals.
    pub energy: EnergyBreakdown,
    /// Hotspot detection summary (Table 4).
    pub table4: Table4Row,
    /// DO-system statistics.
    pub do_stats: DoStats,
    /// Full machine counters (for downstream analysis).
    pub counters: MachineCounters,
}

impl RunRecord {
    /// Relative slowdown of this run versus `baseline` (positive = slower).
    pub fn slowdown_vs(&self, baseline: &RunRecord) -> f64 {
        if baseline.ipc == 0.0 {
            return 0.0;
        }
        1.0 - self.ipc / baseline.ipc
    }

    /// Fractional L1D energy saving versus `baseline`.
    pub fn l1d_saving_vs(&self, baseline: &RunRecord) -> f64 {
        saving(self.energy.l1d_nj, baseline.energy.l1d_nj)
    }

    /// Fractional L2 energy saving versus `baseline`.
    pub fn l2_saving_vs(&self, baseline: &RunRecord) -> f64 {
        saving(self.energy.l2_nj, baseline.energy.l2_nj)
    }
}

/// Publishes the executor's per-walk-kind block counts as metrics
/// counters (`workload.walk_blocks.<kind>`). The same profile drives the
/// hot-first ordering of the walk dispatch in `ace_workloads::Executor`;
/// exporting it makes the measured mix inspectable from any metrics dump.
fn publish_walk_profile(telemetry: &Telemetry, profile: [u64; 4]) {
    if let Some(metrics) = telemetry.metrics() {
        for (name, count) in ace_workloads::WALK_KIND_NAMES.iter().zip(profile) {
            if count > 0 {
                metrics
                    .counter(&format!("workload.walk_blocks.{name}"))
                    .add(count);
            }
        }
    }
}

fn saving(ours: f64, base: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        1.0 - ours / base
    }
}

/// One run: the single-consumer case of [`run_stream`], tracing into
/// `cfg.telemetry`.
pub(crate) fn run_one<M: AceManager + ?Sized>(
    program: &Program,
    cfg: &RunConfig,
    threading: Option<(&[MethodId], u64)>,
    manager: &mut M,
) -> Result<RunRecord, ConfigError> {
    let mut records = run_stream(
        program,
        cfg,
        threading,
        vec![(manager, cfg.telemetry.clone())],
    )?;
    Ok(records.pop().expect("one consumer, one record"))
}

/// Runs `program` once and feeds its step stream to every consumer — a
/// manager plus the telemetry handle its run traces into — returning one
/// [`RunRecord`] per consumer, in order. `threading` selects the threaded
/// multiplexer (`entries`, quantum) over the scalar executor.
///
/// The step stream does not depend on the consumers: the executor never
/// sees the machine, and `instret` counts stream instructions only. So
/// each consumer's record, manager decisions and event stream are
/// exactly those of a run of its own. `cfg.telemetry` is not used; every
/// consumer carries its handle.
///
/// # Errors
///
/// Returns [`ConfigError`] if the machine configuration is invalid; no
/// consumer runs in that case.
///
/// # Panics
///
/// Panics if `threading` names no entry method.
pub(crate) fn run_stream<M: AceManager + ?Sized>(
    program: &Program,
    cfg: &RunConfig,
    threading: Option<(&[MethodId], u64)>,
    consumers: Vec<(&mut M, Telemetry)>,
) -> Result<Vec<RunRecord>, ConfigError> {
    match threading {
        None => {
            let mut exec = match cfg.workload_seed {
                Some(seed) => Executor::with_seed(program, seed),
                None => Executor::new(program),
            };
            if let Some(limit) = cfg.instruction_limit {
                exec.set_instruction_limit(limit);
            }
            let workload = program.name().to_string();
            drive(program, workload, exec, 1, cfg, consumers)
        }
        Some((entries, quantum_instr)) => {
            assert!(!entries.is_empty(), "need at least one thread entry");
            let threads = entries
                .iter()
                .enumerate()
                .map(|(i, &entry)| {
                    let seed = cfg.workload_seed.unwrap_or(program.seed()) ^ (i as u64 + 1);
                    Executor::with_entry(program, entry, seed)
                })
                .collect();
            let source = Threaded {
                mt: ThreadedExecutor::new(threads, quantum_instr),
                limit: cfg.instruction_limit,
                instret: 0,
            };
            let workload = format!("{}({}T)", program.name(), entries.len());
            drive(program, workload, source, entries.len(), cfg, consumers)
        }
    }
}

/// A step stream in the threaded event vocabulary. The scalar executor
/// is thread 0 and never switches.
trait StepSource {
    fn next(&mut self, buf: &mut Block) -> MtStep;
    fn walk_profile(&self) -> [u64; 4];
}

impl StepSource for Executor<'_> {
    #[inline(always)]
    fn next(&mut self, buf: &mut Block) -> MtStep {
        const MAIN: ThreadId = ThreadId(0);
        match self.step(buf) {
            Step::Block => MtStep::Block(MAIN),
            Step::Enter(m) => MtStep::Enter(MAIN, m),
            Step::Exit(m) => MtStep::Exit(MAIN, m),
            Step::Done => MtStep::Done,
        }
    }

    fn walk_profile(&self) -> [u64; 4] {
        Executor::walk_profile(self)
    }
}

/// The threaded multiplexer under its instruction-limit rule: the stream
/// stops at the first step once `limit` instructions have retired, with
/// frames left open. (The scalar executor instead stops emitting blocks
/// at its cap and unwinds through its open frames.)
struct Threaded<'p> {
    mt: ThreadedExecutor<'p>,
    limit: Option<u64>,
    /// Stream instructions retired so far — every consumer's `instret`.
    instret: u64,
}

impl StepSource for Threaded<'_> {
    #[inline(always)]
    fn next(&mut self, buf: &mut Block) -> MtStep {
        if self.limit.is_some_and(|limit| self.instret >= limit) {
            return MtStep::Done;
        }
        let step = self.mt.step(buf);
        if let MtStep::Block(_) = step {
            self.instret += buf.ninstr as u64;
        }
        step
    }

    fn walk_profile(&self) -> [u64; 4] {
        self.mt.walk_profile()
    }
}

/// Everything one consumer of a step stream owns.
struct ConsumerState<'p, 'm, M: ?Sized> {
    machine: Machine,
    dos: DoSystem<'p>,
    manager: &'m mut M,
    /// Entry instret per live frame, per thread, for raw method-exit sizes.
    entry_stacks: Vec<Vec<u64>>,
    telemetry: Telemetry,
}

/// The step loop: one step of `source` at a time, each applied to every
/// consumer in turn.
fn drive<S: StepSource, M: AceManager + ?Sized>(
    program: &Program,
    workload: String,
    mut source: S,
    threads: usize,
    cfg: &RunConfig,
    consumers: Vec<(&mut M, Telemetry)>,
) -> Result<Vec<RunRecord>, ConfigError> {
    let mut states = Vec::with_capacity(consumers.len());
    for (manager, telemetry) in consumers {
        let machine = Machine::new(cfg.machine.clone())?;
        let mut dos = DoSystem::new(program, cfg.do_config.clone());
        dos.set_telemetry(telemetry.clone());
        manager.set_telemetry(telemetry.clone());
        states.push(ConsumerState {
            machine,
            dos,
            manager,
            entry_stacks: vec![Vec::with_capacity(64); threads],
            telemetry,
        });
    }
    let _run_timers: Vec<_> = states
        .iter()
        .map(|c| c.telemetry.metrics().map(|m| m.timer("run_wall_ms")))
        .collect();
    let mut buf = Block::with_capacity(64);
    // A configurable DTLB can differ per consumer (see the module docs).
    let share_front = states.len() > 1 && !states[0].machine.registry().contains(CuId::Dtlb);
    let mut front = FrontRecord::default();

    for c in &mut states {
        c.manager.on_start(&mut c.machine);
    }
    loop {
        match source.next(&mut buf) {
            MtStep::Block(_) if share_front => {
                let (leader, followers) = states.split_first_mut().expect("two or more consumers");
                leader.machine.exec_block_recording(&buf, &mut front);
                leader.manager.on_block(&buf, &mut leader.machine);
                for c in followers {
                    c.machine.replay_block(&buf, &front);
                    c.manager.on_block(&buf, &mut c.machine);
                }
            }
            MtStep::Block(_) => {
                for c in &mut states {
                    c.machine.exec_block(&buf);
                    c.manager.on_block(&buf, &mut c.machine);
                }
            }
            MtStep::Switch(tid) => {
                for c in &mut states {
                    c.dos.on_thread_switch(tid.0, &c.machine);
                    // A context switch drains the pipeline and touches the
                    // scheduler's state: a small fixed cost.
                    c.machine.add_overhead_cycles(200);
                }
            }
            MtStep::Enter(tid, m) => {
                for c in &mut states {
                    c.entry_stacks[tid.0 as usize].push(c.machine.instret());
                    c.manager.on_method_enter(m, &mut c.machine);
                    let event = c.dos.on_enter(m, &mut c.machine);
                    c.manager.on_event(event, &mut c.machine);
                }
            }
            MtStep::Exit(tid, m) => {
                for c in &mut states {
                    let entered = c.entry_stacks[tid.0 as usize].pop().unwrap_or(0);
                    let size = c.machine.instret() - entered;
                    c.manager.on_method_exit(m, size, &mut c.machine);
                    let event = c.dos.on_exit(m, &mut c.machine);
                    c.manager.on_event(event, &mut c.machine);
                }
            }
            MtStep::Done => break,
        }
    }

    let profile = source.walk_profile();
    Ok(states
        .into_iter()
        .map(|mut c| {
            c.manager.on_finish(&mut c.machine);
            publish_walk_profile(&c.telemetry, profile);
            let counters = c.machine.counters().clone();
            RunRecord {
                workload: workload.clone(),
                instret: counters.instret,
                cycles: counters.cycles,
                ipc: counters.ipc(),
                energy: cfg.energy.breakdown(&counters),
                table4: c.dos.table4_summary(counters.instret),
                do_stats: *c.dos.stats(),
                counters,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{FixedManager, NullManager};
    use crate::AceConfig;
    use ace_sim::SizeLevel;

    fn small_cfg(limit: u64) -> RunConfig {
        RunConfig {
            instruction_limit: Some(limit),
            ..RunConfig::default()
        }
    }

    #[test]
    fn baseline_run_produces_sane_record() {
        let p = ace_workloads::preset("compress").unwrap();
        let r = run_one(&p, &small_cfg(3_000_000), None, &mut NullManager).unwrap();
        assert!(r.instret >= 3_000_000);
        assert!(r.ipc > 0.5 && r.ipc < 4.0, "ipc {}", r.ipc);
        assert!(r.energy.total_nj() > 0.0);
        assert_eq!(r.workload, "compress");
    }

    #[test]
    fn deterministic_records() {
        let p = ace_workloads::preset("jess").unwrap();
        let a = run_one(&p, &small_cfg(2_000_000), None, &mut NullManager).unwrap();
        let b = run_one(&p, &small_cfg(2_000_000), None, &mut NullManager).unwrap();
        assert_eq!(a.instret, b.instret);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn smaller_fixed_config_uses_less_energy_on_db() {
        // db's working sets are tiny; pinning small caches must save energy
        // with modest slowdown.
        let p = ace_workloads::preset("db").unwrap();
        let base = run_one(&p, &small_cfg(5_000_000), None, &mut NullManager).unwrap();
        let mut small = FixedManager::new(AceConfig::both(
            SizeLevel::new(3).unwrap(),
            SizeLevel::new(2).unwrap(),
        ));
        let r = run_one(&p, &small_cfg(5_000_000), None, &mut small).unwrap();
        assert!(
            r.l1d_saving_vs(&base) > 0.3,
            "L1D saving {:.3}",
            r.l1d_saving_vs(&base)
        );
        assert!(
            r.l2_saving_vs(&base) > 0.3,
            "L2 saving {:.3}",
            r.l2_saving_vs(&base)
        );
        assert!(
            r.slowdown_vs(&base) < 0.10,
            "slowdown {:.3}",
            r.slowdown_vs(&base)
        );
    }

    #[test]
    fn slowdown_sign_convention() {
        let p = ace_workloads::preset("db").unwrap();
        let base = run_one(&p, &small_cfg(1_000_000), None, &mut NullManager).unwrap();
        assert_eq!(base.slowdown_vs(&base), 0.0);
    }
}
