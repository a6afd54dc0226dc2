//! The typed run façade: [`Experiment`] builds and executes one measured
//! run.
//!
//! An experiment names a workload (a preset or an owned [`Program`]),
//! picks a scheme (a registered id, a fixed
//! [`AceConfig`](crate::AceConfig), or an owned [`crate::TuningScheme`]
//! instance via [`SchemeSpec`](crate::SchemeSpec)), and layers run
//! options on top of [`RunConfig::default`]:
//!
//! ```
//! use ace_core::Experiment;
//!
//! let record = Experiment::preset("javac")
//!     .scheme("hotspot")
//!     .seed(7)
//!     .instruction_limit(2_000_000)
//!     .run()?;
//! assert!(record.instret >= 2_000_000);
//! # Ok::<(), ace_core::ExperimentError>(())
//! ```
//!
//! [`Experiment::run_scheme`] additionally returns the scheme manager's
//! unified [`SchemeReport`](crate::SchemeReport),
//! [`Experiment::run_shared`] runs several schemes ([`Consumer`]s) off
//! one step stream, and [`Experiment::run_with`] accepts any hand-built
//! [`AceManager`] for ablations that perturb a manager's configuration.

use crate::driver::{run_one, run_stream, RunConfig, RunRecord};
use crate::scheme::{SchemeCtx, SchemeManager, SchemeRegistry, SchemeReport, SchemeSpec};
use crate::AceManager;
use ace_energy::EnergyModel;
use ace_runtime::DoConfig;
use ace_sim::{ConfigError, MachineConfig};
use ace_telemetry::Telemetry;
use ace_workloads::{MethodId, Program};
use std::fmt;

/// One completed scheme run: the measured record plus the manager report.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// The id of the scheme that ran.
    pub scheme: String,
    /// The measured run.
    pub record: RunRecord,
    /// The scheme manager's unified report.
    pub report: SchemeReport,
}

/// Errors surfaced by [`Experiment::run`] and friends.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExperimentError {
    /// The preset name is not one of [`ace_workloads::PRESET_NAMES`].
    UnknownWorkload(String),
    /// The scheme id is not in the experiment's registry.
    UnknownScheme(String),
    /// The machine configuration was rejected by the simulator.
    Machine(ConfigError),
    /// The workload resolved but could not be loaded or built (unreadable
    /// or unparsable spec file, spec failing validation).
    Workload(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnknownWorkload(name) => write!(
                f,
                "unknown workload {name:?}; expected one of {:?}",
                ace_workloads::PRESET_NAMES
            ),
            ExperimentError::UnknownScheme(name) => {
                write!(f, "unknown scheme {name:?}; not in the scheme registry")
            }
            ExperimentError::Machine(e) => write!(f, "{e}"),
            ExperimentError::Workload(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<ConfigError> for ExperimentError {
    fn from(e: ConfigError) -> ExperimentError {
        ExperimentError::Machine(e)
    }
}

enum Source {
    Named(String),
    Spec(Box<ace_workloads::WorkloadSpec>),
    Program(Box<Program>),
}

/// Builder for one measured run.
pub struct Experiment {
    source: Source,
    scheme: SchemeSpec,
    registry: SchemeRegistry,
    cfg: RunConfig,
    model: EnergyModel,
    threading: Option<(Vec<MethodId>, u64)>,
}

impl Experiment {
    /// An experiment over a named workload. The name is resolved through
    /// [`ace_workloads::WorkloadRegistry::builtin`] when the experiment
    /// runs, so it accepts a preset name (`"db"`) *or* a path to a
    /// [`WorkloadSpec`](ace_workloads::WorkloadSpec) JSON file
    /// (`"specs/gen-1f.json"`). Unknown names yield
    /// [`ExperimentError::UnknownWorkload`]; unreadable or invalid spec
    /// files yield [`ExperimentError::Workload`].
    pub fn workload(name_or_path: impl Into<String>) -> Experiment {
        Experiment::with_source(Source::Named(name_or_path.into()))
    }

    /// An experiment over the named preset workload (an alias of
    /// [`Experiment::workload`], kept for its established call sites).
    pub fn preset(name: impl Into<String>) -> Experiment {
        Experiment::workload(name)
    }

    /// An experiment over an in-memory workload spec (e.g. one from
    /// [`ace_workloads::gen`]). The spec is built when the experiment
    /// runs; build failures yield [`ExperimentError::Workload`].
    pub fn spec(spec: ace_workloads::WorkloadSpec) -> Experiment {
        Experiment::with_source(Source::Spec(Box::new(spec)))
    }

    /// An experiment over a custom [`Program`] (e.g. one built with
    /// `ace_workloads::ProgramBuilder`).
    pub fn program(program: Program) -> Experiment {
        Experiment::with_source(Source::Program(Box::new(program)))
    }

    fn with_source(source: Source) -> Experiment {
        let model = EnergyModel::default_180nm();
        Experiment {
            source,
            scheme: SchemeSpec::named("baseline"),
            registry: SchemeRegistry::builtin(),
            cfg: RunConfig {
                energy: model,
                ..RunConfig::default()
            },
            model,
            threading: None,
        }
    }

    /// Selects the management scheme (default baseline): a registered id
    /// (`"hotspot"`), a fixed [`AceConfig`](crate::AceConfig), or a
    /// [`SchemeSpec`](crate::SchemeSpec) carrying an owned instance.
    pub fn scheme(mut self, scheme: impl Into<SchemeSpec>) -> Experiment {
        self.scheme = scheme.into();
        self
    }

    /// Replaces the scheme registry named specs resolve against (default
    /// [`SchemeRegistry::builtin`]) — the hook for custom schemes.
    pub fn registry(mut self, registry: SchemeRegistry) -> Experiment {
        self.registry = registry;
        self
    }

    /// Overrides the workload's own executor seed.
    pub fn seed(mut self, seed: u64) -> Experiment {
        self.cfg.workload_seed = Some(seed);
        self
    }

    /// Caps the run at `limit` dynamic instructions.
    pub fn instruction_limit(mut self, limit: u64) -> Experiment {
        self.cfg.instruction_limit = Some(limit);
        self
    }

    /// Attaches an observability handle (cloned; handles share sinks).
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Experiment {
        self.cfg.telemetry = telemetry.clone();
        self
    }

    /// Overrides the machine configuration (Table 2 by default).
    pub fn machine(mut self, machine: MachineConfig) -> Experiment {
        self.cfg.machine = machine;
        self
    }

    /// Overrides the DO-system configuration.
    pub fn do_config(mut self, do_config: DoConfig) -> Experiment {
        self.cfg.do_config = do_config;
        self
    }

    /// Uses `model` both to price the run record and to drive the scheme
    /// managers' tuning objectives.
    pub fn energy(mut self, model: EnergyModel) -> Experiment {
        self.cfg.energy = model;
        self.model = model;
        self
    }

    /// Replaces the whole [`RunConfig`] (options set earlier are lost;
    /// later builder calls still apply on top).
    pub fn config(mut self, cfg: RunConfig) -> Experiment {
        self.model = cfg.energy;
        self.cfg = cfg;
        self
    }

    /// Runs the program time-multiplexed over `entries` (one executor per
    /// entry method) in `quantum_instr` slices — the threading model of
    /// the dual-threaded mtrt experiment.
    pub fn threaded(mut self, entries: &[MethodId], quantum_instr: u64) -> Experiment {
        self.threading = Some((entries.to_vec(), quantum_instr));
        self
    }

    fn resolve(&self) -> Result<Program, ExperimentError> {
        match &self.source {
            Source::Named(name) => ace_workloads::WorkloadRegistry::builtin()
                .resolve_program(name)
                .map_err(|e| match e {
                    ace_workloads::WorkloadError::Unknown { name, .. } => {
                        ExperimentError::UnknownWorkload(name)
                    }
                    other => ExperimentError::Workload(other.to_string()),
                }),
            Source::Spec(spec) => spec
                .build()
                .map_err(|e| ExperimentError::Workload(format!("building '{}': {e}", spec.name))),
            Source::Program(p) => Ok((**p).clone()),
        }
    }

    /// Runs under the selected scheme and returns the record alone.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::UnknownWorkload`] for an unknown preset name,
    /// [`ExperimentError::UnknownScheme`] for an unregistered scheme id,
    /// [`ExperimentError::Machine`] for an invalid machine configuration.
    pub fn run(self) -> Result<RunRecord, ExperimentError> {
        Ok(self.run_scheme()?.record)
    }

    /// Runs under the selected scheme and returns the record plus the
    /// manager's unified report. Every scheme's `guard_rejections` is
    /// filled from the machine counters uniformly.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run_scheme(self) -> Result<SchemeRun, ExperimentError> {
        let consumer = Consumer::scheme(self.scheme.clone());
        let mut runs = self.run_shared(vec![consumer])?;
        Ok(runs.pop().expect("one consumer, one run"))
    }

    /// Runs the workload once and feeds its step stream to every
    /// consumer, returning one [`SchemeRun`] per consumer, in order. Each
    /// run — record, report, telemetry events — equals the consumer's
    /// scheme run on its own through [`Experiment::run_scheme`]; the
    /// executor, the part of a run that does not depend on the scheme,
    /// runs once instead of once per scheme. The experiment's own scheme
    /// is ignored. With no consumers there is nothing to feed, so nothing
    /// runs and the result is empty.
    ///
    /// ```
    /// use ace_core::{Consumer, Experiment};
    ///
    /// let runs = Experiment::preset("db")
    ///     .instruction_limit(1_000_000)
    ///     .run_shared(vec![Consumer::scheme("baseline"), Consumer::scheme("hotspot")])?;
    /// assert_eq!(runs[0].record.instret, runs[1].record.instret);
    /// # Ok::<(), ace_core::ExperimentError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`]; no consumer runs on an error.
    pub fn run_shared(
        self,
        consumers: Vec<Consumer<'_>>,
    ) -> Result<Vec<SchemeRun>, ExperimentError> {
        if consumers.is_empty() {
            return Ok(Vec::new());
        }
        let program = self.resolve()?;
        let mut managers = Vec::with_capacity(consumers.len());
        let mut telemetry = Vec::with_capacity(consumers.len());
        for consumer in consumers {
            managers.push(match consumer.manager {
                ConsumerManager::Spec(spec) => {
                    let scheme = spec
                        .resolve(&self.registry)
                        .ok_or_else(|| ExperimentError::UnknownScheme(spec.id()))?;
                    let manager = scheme.build(&SchemeCtx {
                        program: &program,
                        model: self.model,
                    });
                    Held::Owned(scheme.name().to_string(), manager)
                }
                ConsumerManager::Built(manager) => Held::Borrowed(manager),
            });
            telemetry.push(
                consumer
                    .telemetry
                    .unwrap_or_else(|| self.cfg.telemetry.clone()),
            );
        }
        let records = run_stream(
            &program,
            &self.cfg,
            self.threading(),
            managers
                .iter_mut()
                .map(Held::manager)
                .zip(telemetry.iter().cloned())
                .collect(),
        )?;
        Ok(managers
            .iter_mut()
            .zip(&telemetry)
            .zip(records)
            .map(|((held, telemetry), record)| {
                let report = held.manager().scheme_report(&record);
                // Metrics registry only — the recorded event stream stays
                // byte-identical to a run without metrics enabled.
                if let Some(metrics) = telemetry.metrics() {
                    report.record_metrics(metrics);
                }
                let scheme = match held {
                    Held::Owned(name, _) => name.clone(),
                    Held::Borrowed(_) => report.scheme.clone(),
                };
                SchemeRun {
                    scheme,
                    record,
                    report,
                }
            })
            .collect())
    }

    /// Runs under a caller-supplied manager, ignoring the selected scheme
    /// — the escape hatch for ablations that perturb manager
    /// configurations.
    ///
    /// ```
    /// use ace_core::{Experiment, FixedManager, AceConfig};
    ///
    /// let mut mgr = FixedManager::new(AceConfig::default());
    /// let record = Experiment::preset("db")
    ///     .instruction_limit(1_000_000)
    ///     .run_with(&mut mgr)?;
    /// assert!(record.ipc > 0.0);
    /// # Ok::<(), ace_core::ExperimentError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run_with<M: AceManager + ?Sized>(
        self,
        manager: &mut M,
    ) -> Result<RunRecord, ExperimentError> {
        let program = self.resolve()?;
        Ok(run_one(&program, &self.cfg, self.threading(), manager)?)
    }

    fn threading(&self) -> Option<(&[MethodId], u64)> {
        self.threading
            .as_ref()
            .map(|(entries, quantum)| (entries.as_slice(), *quantum))
    }
}

/// One consumer of a shared step stream ([`Experiment::run_shared`]): a
/// scheme, or a manager the caller built and keeps, plus the telemetry
/// handle its run traces into.
pub struct Consumer<'m> {
    manager: ConsumerManager<'m>,
    telemetry: Option<Telemetry>,
}

enum ConsumerManager<'m> {
    Spec(SchemeSpec),
    Built(&'m mut dyn SchemeManager),
}

impl<'m> Consumer<'m> {
    /// A consumer running `scheme` (a registered id, a fixed
    /// [`AceConfig`](crate::AceConfig), or a [`SchemeSpec`]), built
    /// against the experiment's registry and energy model.
    pub fn scheme(scheme: impl Into<SchemeSpec>) -> Consumer<'m> {
        Consumer {
            manager: ConsumerManager::Spec(scheme.into()),
            telemetry: None,
        }
    }

    /// A consumer driving a manager the caller built, e.g. one holding a
    /// warm-start snapshot. The caller can consult the manager after the
    /// run.
    pub fn manager(manager: &'m mut dyn SchemeManager) -> Consumer<'m> {
        Consumer {
            manager: ConsumerManager::Built(manager),
            telemetry: None,
        }
    }

    /// The handle this consumer traces into (default: the experiment's).
    /// Consumers sharing one handle interleave their events step by step;
    /// give each its own handle for per-run event streams.
    pub fn telemetry(mut self, telemetry: &Telemetry) -> Consumer<'m> {
        self.telemetry = Some(telemetry.clone());
        self
    }
}

/// A consumer's manager while its run is in flight.
enum Held<'m> {
    Owned(String, Box<dyn SchemeManager>),
    Borrowed(&'m mut dyn SchemeManager),
}

impl Held<'_> {
    fn manager(&mut self) -> &mut dyn SchemeManager {
        match self {
            Held::Owned(_, manager) => &mut **manager,
            Held::Borrowed(manager) => &mut **manager,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeExt;
    use crate::{AceConfig, NullManager};

    #[test]
    fn builder_runs_a_preset() {
        let r = Experiment::preset("db")
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        assert!(r.instret >= 1_000_000);
        assert_eq!(r.workload, "db");
    }

    #[test]
    fn unknown_preset_is_an_error() {
        let err = Experiment::preset("nope").run().unwrap_err();
        assert!(matches!(err, ExperimentError::UnknownWorkload(_)));
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn spec_source_matches_the_named_preset() {
        let spec = ace_workloads::preset_spec("db").unwrap();
        let a = Experiment::spec(spec)
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        let b = Experiment::preset("db")
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.energy.total_nj(), b.energy.total_nj());
    }

    #[test]
    fn workload_resolves_spec_files_by_path() {
        let mut spec = ace_workloads::preset_spec("check").unwrap();
        spec.name = "from-file".into();
        let dir = std::env::temp_dir().join("ace-experiment-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("from-file.json");
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let r = Experiment::workload(path.to_str().unwrap())
            .instruction_limit(500_000)
            .run()
            .unwrap();
        assert_eq!(r.workload, "from-file");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_spec_is_a_workload_error() {
        let mut spec = ace_workloads::preset_spec("check").unwrap();
        spec.stages[0].children.leaf_instr = (9, 1);
        let err = Experiment::spec(spec).run().unwrap_err();
        assert!(matches!(err, ExperimentError::Workload(_)));
        assert!(err.to_string().contains("leaf_instr"), "{err}");
    }

    #[test]
    fn unknown_scheme_is_an_error() {
        let err = Experiment::preset("db")
            .scheme("warp-drive")
            .instruction_limit(1_000_000)
            .run()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::UnknownScheme(_)));
        assert!(err.to_string().contains("warp-drive"));
    }

    #[test]
    fn scheme_runs_carry_reports() {
        let run = Experiment::preset("db")
            .scheme("hotspot")
            .instruction_limit(2_000_000)
            .run_scheme()
            .unwrap();
        assert_eq!(run.scheme, "hotspot");
        assert_eq!(run.report.scheme, "hotspot");
        assert!(matches!(run.report.ext, SchemeExt::Hotspot(_)));

        let run = Experiment::preset("db")
            .scheme("bbv")
            .instruction_limit(2_000_000)
            .run_scheme()
            .unwrap();
        assert!(matches!(run.report.ext, SchemeExt::Bbv(_)));
    }

    #[test]
    fn guard_rejections_are_uniform_across_schemes() {
        // The unified report fills guard_rejections from the machine
        // counters for *every* scheme; before the redesign only the
        // hotspot arm did, so BBV reported 0 with a nonzero counter.
        for scheme in ["baseline", "hotspot", "bbv", "pdm"] {
            let run = Experiment::preset("javac")
                .scheme(scheme)
                .instruction_limit(4_000_000)
                .run_scheme()
                .unwrap();
            assert_eq!(
                run.report.guard_rejections, run.record.counters.guard_rejections,
                "{scheme} must report the machine's guard-rejection count"
            );
        }
    }

    #[test]
    fn builder_matches_the_free_function_path() {
        let a = Experiment::preset("jess")
            .instruction_limit(2_000_000)
            .run()
            .unwrap();
        let program = ace_workloads::preset("jess").unwrap();
        let cfg = RunConfig {
            instruction_limit: Some(2_000_000),
            ..RunConfig::default()
        };
        let b = run_one(&program, &cfg, None, &mut NullManager).unwrap();
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn seed_changes_the_run() {
        let a = Experiment::preset("db")
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        let b = Experiment::preset("db")
            .seed(0x5EED)
            .instruction_limit(1_000_000)
            .run()
            .unwrap();
        assert_ne!(a.counters, b.counters, "a new seed perturbs the stream");
    }

    /// Every registered scheme plus a fixed configuration, as consumers
    /// of one step stream, each equal its solo run: counters, record
    /// JSON, report and event stream. Covers the scalar executor with and
    /// without a seed override and the threaded source under its limit.
    #[test]
    fn shared_stream_consumers_equal_solo_runs() {
        use ace_sim::SizeLevel;
        let fixed = AceConfig::both(SizeLevel::new(2).unwrap(), SizeLevel::new(1).unwrap());
        let specs: Vec<SchemeSpec> = SchemeRegistry::builtin()
            .names()
            .map(SchemeSpec::named)
            .chain([fixed.into()])
            .collect();
        let (mt, entries) = ace_workloads::mtrt_threaded();
        let experiment = |label: &str| match label {
            "preset" => Experiment::preset("javac").instruction_limit(3_000_000),
            "seeded" => Experiment::preset("db")
                .seed(0x5EED)
                .instruction_limit(3_000_000),
            _ => Experiment::program(mt.clone())
                .threaded(&entries, 500_000)
                .instruction_limit(3_000_000),
        };
        let events = |sink: &ace_telemetry::MemorySink| -> Vec<String> {
            sink.drain()
                .iter()
                .map(|e| serde_json::to_string(e).unwrap())
                .collect()
        };
        for label in ["preset", "seeded", "threaded"] {
            let sinks: Vec<_> = specs.iter().map(|_| Telemetry::buffered()).collect();
            let consumers = specs
                .iter()
                .zip(&sinks)
                .map(|(spec, (tel, _))| Consumer::scheme(spec.clone()).telemetry(tel))
                .collect();
            let shared = experiment(label).run_shared(consumers).unwrap();
            assert_eq!(shared.len(), specs.len());
            for ((spec, run), (_, sink)) in specs.iter().zip(&shared).zip(&sinks) {
                let (tel, solo_sink) = Telemetry::buffered();
                let solo = experiment(label)
                    .scheme(spec.clone())
                    .telemetry(&tel)
                    .run_scheme()
                    .unwrap();
                let at = format!("{label}/{}", solo.scheme);
                assert_eq!(solo.scheme, run.scheme, "{at}");
                assert_eq!(solo.record.counters, run.record.counters, "{at}");
                assert_eq!(
                    serde_json::to_string(&solo.record).unwrap(),
                    serde_json::to_string(&run.record).unwrap(),
                    "{at}"
                );
                assert_eq!(solo.report, run.report, "{at}");
                assert_eq!(events(&solo_sink), events(sink), "{at}");
            }
        }
    }

    /// With the DTLB a configurable unit the consumers' front ends can
    /// differ, so a shared run must not replay one consumer's front in
    /// another: a DTLB-pinning leader and two tuning followers each equal
    /// their solo run.
    #[test]
    fn dtlb_cu_shared_run_equals_solo_runs() {
        use ace_sim::{CuId, SizeLevel};
        let mut machine = MachineConfig::table2();
        machine.dtlb_configurable = true;
        let pinned = AceConfig::baseline().with(CuId::Dtlb, SizeLevel::new(2).unwrap());
        let specs: Vec<SchemeSpec> = [
            pinned.into(),
            SchemeSpec::named("baseline"),
            SchemeSpec::named("hotspot"),
        ]
        .into();
        let experiment = || {
            Experiment::preset("db")
                .machine(machine.clone())
                .instruction_limit(3_000_000)
        };
        let consumers = specs.iter().map(|s| Consumer::scheme(s.clone())).collect();
        let shared = experiment().run_shared(consumers).unwrap();
        for (spec, run) in specs.iter().zip(&shared) {
            let solo = experiment().scheme(spec.clone()).run_scheme().unwrap();
            assert_eq!(solo.record.counters, run.record.counters, "{}", solo.scheme);
            assert_eq!(
                serde_json::to_string(&solo.record).unwrap(),
                serde_json::to_string(&run.record).unwrap(),
                "{}",
                solo.scheme
            );
            assert_eq!(solo.report, run.report, "{}", solo.scheme);
        }
        assert_ne!(
            shared[0].record.counters.dtlb, shared[1].record.counters.dtlb,
            "the pinned DTLB misses differently"
        );
    }

    #[test]
    fn no_consumers_runs_nothing() {
        let telemetry = Telemetry::counting();
        let runs = Experiment::preset("db")
            .telemetry(&telemetry)
            .run_shared(Vec::new())
            .unwrap();
        assert!(runs.is_empty());
        assert_eq!(telemetry.total_events(), 0);
    }

    #[test]
    fn threaded_experiment_runs() {
        let (program, entries) = ace_workloads::mtrt_threaded();
        let r = Experiment::program(program)
            .threaded(&entries, 500_000)
            .instruction_limit(4_000_000)
            .run()
            .unwrap();
        assert!(r.instret >= 4_000_000);
        assert!(r.workload.contains("2T"));
    }
}
