//! Phase Distance Mapping (PDM) — the third contender scheme.
//!
//! Adegbija, Gordon-Ross & Munir observe that phases with similar
//! runtime behavior favor similar configurations, so a new phase's best
//! configuration can be *predicted* from its behavioral distance to an
//! already-tuned phase instead of re-walking the candidate list. This
//! manager keeps the DO-hotspot substrate intact — the same hotspot
//! boundaries, decoupled candidate lists, drift sampling and re-tuning —
//! and adds a knowledge table of `(behavioral vector, selection)` pairs
//! consulted right after each hotspot's reference trial:
//!
//! * **hit** (distance below [`PdmManagerConfig::distance_threshold`]):
//!   the stored selection is adopted directly; the remaining candidate
//!   walk is skipped, exactly like a fleet warm start, and a
//!   [`ace_telemetry::Event::PdmPredictHit`] records the trials saved.
//! * **miss**: tuning falls back to the search path, and the eventual
//!   cold convergence is inserted into the knowledge table.
//!
//! With `distance_threshold` 0 the strict `<` comparison can never hit,
//! so the manager's machine interactions degrade *exactly* to the
//! hotspot search path — pinned by a differential test.

use crate::cu::AceConfig;
use crate::hotspot::{CuSchemeStats, HotspotReport};
use crate::measure::Probe;
use crate::tuner::ConfigTuner;
use crate::warm::cu_mask_of;
use crate::{combined_list, single_cu_list, HotspotManagerConfig};
use ace_energy::EnergyModel;
use ace_runtime::{DoEvent, HotspotClass};
use ace_sim::{Block, Machine, OnlineStats, MAX_CUS};
use ace_telemetry::{Event, ReconfigCause, Scope, Telemetry};
use ace_workloads::MethodId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use crate::manager::AceManager;

/// Configuration of the PDM manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdmManagerConfig {
    /// The hotspot-substrate policy (thresholds, sampling, decoupling).
    pub base: HotspotManagerConfig,
    /// Maximum normalized behavioral distance at which an already-tuned
    /// phase's selection is adopted without searching. `0.0` disables
    /// prediction entirely (strict `<`), degrading to hotspot search.
    pub distance_threshold: f64,
}

impl Default for PdmManagerConfig {
    fn default() -> Self {
        PdmManagerConfig {
            base: HotspotManagerConfig::default(),
            distance_threshold: 0.25,
        }
    }
}

/// A phase's behavioral vector, captured at its reference (full-size)
/// trial: the paper's "phase distance" compares phases by what they do,
/// not where they are in the code.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseVector {
    /// IPC of the reference trial.
    pub ipc: f64,
    /// Cache energy per instruction of the reference trial (nanojoules).
    pub epi_nj: f64,
    /// `log2` of the mean invocation size — phases an order of magnitude
    /// apart in grain rarely share a best configuration.
    pub log_size: f64,
}

/// Normalization scales: each component is divided by the span it can
/// realistically cover so no single dimension dominates the mean.
const IPC_SCALE: f64 = 4.0;
const EPI_SCALE: f64 = 2.0;
const LOG_SIZE_SCALE: f64 = 8.0;

impl PhaseVector {
    /// Builds a vector from reference-trial measurements.
    pub fn new(ipc: f64, epi_nj: f64, avg_size: u64) -> PhaseVector {
        PhaseVector {
            ipc,
            epi_nj,
            log_size: (avg_size.max(1) as f64).log2(),
        }
    }

    /// Normalized distance to `other`: the mean of per-component absolute
    /// differences, each scaled to its realistic span. 0 means
    /// behaviorally identical; 1 means maximally far on every axis.
    pub fn distance(&self, other: &PhaseVector) -> f64 {
        let d_ipc = (self.ipc - other.ipc).abs() / IPC_SCALE;
        let d_epi = (self.epi_nj - other.epi_nj).abs() / EPI_SCALE;
        let d_size = (self.log_size - other.log_size).abs() / LOG_SIZE_SCALE;
        (d_ipc + d_epi + d_size) / 3.0
    }
}

/// Nearest entry of `table` with a matching CU mask. Linear scan in
/// insertion order; strict `<` keeps the first-inserted entry on ties,
/// so lookups are deterministic.
fn nearest_in(
    table: &[(u8, PhaseVector, AceConfig)],
    mask: u8,
    vector: &PhaseVector,
) -> Option<(f64, AceConfig)> {
    let mut best: Option<(f64, AceConfig)> = None;
    for (m, v, cfg) in table {
        if *m != mask {
            continue;
        }
        let d = vector.distance(v);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, *cfg));
        }
    }
    best
}

/// What the current invocation of a hotspot is being used for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Trial,
    Sample,
    Idle,
}

/// Per-hotspot manager state.
#[derive(Debug, Clone)]
struct PdmState {
    class: HotspotClass,
    tuner: ConfigTuner,
    pending: Pending,
    probe: Option<Probe>,
    covered: bool,
    ipc_stats: OnlineStats,
    invocations_after_tuned: u64,
    tuned_ipc: Option<f64>,
    retunings: u32,
    covered_instr: u64,
    /// Behavioral vector, known once the reference trial has measured.
    vector: Option<PhaseVector>,
    /// Whether the selection was adopted by prediction.
    predicted: bool,
}

/// End-of-run report of the PDM scheme.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PdmReport {
    /// The hotspot-substrate counters (same shape as the hotspot scheme's
    /// report, so the headline tables compare like with like).
    pub base: HotspotReport,
    /// Predictions adopted directly.
    pub predict_hits: u64,
    /// First trials that fell back to the search path.
    pub predict_misses: u64,
    /// Candidate-list trials avoided across all hits.
    pub predicted_trials_saved: u64,
    /// Entries in the knowledge table at end of run.
    pub known_phases: u64,
}

impl PdmReport {
    /// Fraction of prediction attempts that hit (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.predict_hits + self.predict_misses;
        if lookups == 0 {
            0.0
        } else {
            self.predict_hits as f64 / lookups as f64
        }
    }
}

/// The phase-distance-mapping ACE manager.
///
/// Run it through the scheme registry (`Experiment::preset(..)
/// .scheme("pdm")`) or construct it directly for ablations.
#[derive(Debug, Clone)]
pub struct PdmAceManager {
    config: PdmManagerConfig,
    model: EnergyModel,
    states: HashMap<MethodId, PdmState>,
    stats: [CuSchemeStats; MAX_CUS],
    retunings: u64,
    trial_changes: u64,
    small_seen: u64,
    /// The knowledge table: `(candidate-list CU mask, behavioral vector,
    /// converged selection)` in insertion order. Predictions only match
    /// entries with the same mask, so an L1D-band phase never adopts an
    /// L2 selection.
    table: Vec<(u8, PhaseVector, AceConfig)>,
    /// Mean invocation size per classified hotspot, for the size
    /// component of the behavioral vector.
    sizes: HashMap<MethodId, u64>,
    predict_hits: u64,
    predict_misses: u64,
    predicted_trials_saved: u64,
    tel: Telemetry,
}

impl PdmAceManager {
    /// Creates a manager with the given policy and energy model.
    pub fn new(config: PdmManagerConfig, model: EnergyModel) -> PdmAceManager {
        PdmAceManager {
            config,
            model,
            states: HashMap::new(),
            stats: [CuSchemeStats::default(); MAX_CUS],
            retunings: 0,
            trial_changes: 0,
            small_seen: 0,
            table: Vec::new(),
            sizes: HashMap::new(),
            predict_hits: 0,
            predict_misses: 0,
            predicted_trials_saved: 0,
            tel: Telemetry::off(),
        }
    }

    /// The policy configuration.
    pub fn config(&self) -> &PdmManagerConfig {
        &self.config
    }

    /// Entries in the knowledge table.
    pub fn known_phases(&self) -> usize {
        self.table.len()
    }

    fn list_for(&self, class: HotspotClass) -> Vec<AceConfig> {
        if !self.config.base.decouple {
            return combined_list();
        }
        match class.cu() {
            Some(cu) => single_cu_list(cu),
            None => unreachable!("small hotspots are not tuned"),
        }
    }

    fn handle_enter(&mut self, method: MethodId, class: HotspotClass, machine: &mut Machine) {
        let Some(cu) = class.cu() else {
            return;
        };
        let list = self.list_for(class);
        let threshold = self.config.base.perf_threshold;
        let sample_period = self.config.base.sample_period;
        let tel = self.tel.clone();
        let is_new = !self.states.contains_key(&method);
        let configs = list.len() as u32;
        let state = self.states.entry(method).or_insert_with(|| PdmState {
            class,
            tuner: ConfigTuner::new(list, threshold),
            pending: Pending::Idle,
            probe: None,
            covered: false,
            ipc_stats: OnlineStats::new(),
            invocations_after_tuned: 0,
            tuned_ipc: None,
            retunings: 0,
            covered_instr: 0,
            vector: None,
            predicted: false,
        });
        if is_new {
            tel.emit(|| Event::TuningStarted {
                scope: Scope::Hotspot { method: method.0 },
                configs,
                instret: machine.instret(),
            });
        }

        state.pending = Pending::Idle;
        state.covered = false;

        if let Some(best) = state.tuner.best() {
            let mut applied = 0;
            let ok = best.request_traced(machine, &mut applied, &tel, ReconfigCause::Apply);
            state.covered = ok && best.in_effect(machine);
            state.invocations_after_tuned += 1;
            if state.invocations_after_tuned.is_multiple_of(sample_period) {
                state.pending = Pending::Sample;
            }
            self.stats[cu.index()].reconfigs += applied;
        } else if let Some(trial) = state.tuner.next_trial() {
            let mut applied = 0;
            let ok = trial.request_traced(machine, &mut applied, &tel, ReconfigCause::Trial);
            self.trial_changes += applied;
            if ok && applied == 0 {
                state.pending = Pending::Trial;
            }
        }
        if let Some(state) = self.states.get_mut(&method) {
            state.probe = Some(Probe::arm(machine, &self.model));
        }
    }

    fn handle_exit(&mut self, method: MethodId, class: HotspotClass, machine: &mut Machine) {
        let Some(cu) = class.cu() else {
            return;
        };
        let retune_threshold = self.config.base.retune_threshold;
        let perf_threshold = self.config.base.perf_threshold;
        let decouple_list = self.list_for(class);
        let distance_threshold = self.config.distance_threshold;
        let model = self.model;
        let tel = self.tel.clone();
        let avg_size = self.sizes.get(&method).copied();
        let Some(state) = self.states.get_mut(&method) else {
            return;
        };
        let Some(probe) = state.probe.take() else {
            return;
        };
        let Some(m) = probe.finish(machine, &model) else {
            return;
        };

        state.ipc_stats.push(m.ipc);
        if state.covered {
            state.covered_instr += m.instr;
        }

        let scope = Scope::Hotspot { method: method.0 };
        let mut tunings = 0;
        let mut prediction: Option<(f64, Option<(u32, AceConfig)>)> = None;
        let mut cold_insert: Option<(u8, PhaseVector, AceConfig)> = None;
        match state.pending {
            Pending::Trial => {
                let first_trial = state.tuner.trials() == 0;
                state
                    .tuner
                    .record_and_emit(m, &tel, scope, machine.instret());
                tunings = 1;
                if state.tuner.is_done() {
                    state.tuned_ipc = state.tuner.best_measurement().map(|bm| bm.ipc);
                }
                // Phase distance mapping: the reference trial just measured
                // gives the behavioral vector, so this is the earliest the
                // knowledge table can be consulted. A near-enough tuned
                // phase's selection replaces the remaining candidate walk.
                if first_trial {
                    let avg = avg_size.unwrap_or(m.instr);
                    let vector = PhaseVector::new(m.ipc, m.epi_nj, avg);
                    state.vector = Some(vector);
                    if !state.tuner.is_done() {
                        let mask = cu_mask_of(state.tuner.configs());
                        match nearest_in(&self.table, mask, &vector) {
                            Some((d, cfg)) if d < distance_threshold => {
                                let saved = (state.tuner.list_len() as u32).saturating_sub(1);
                                state.tuner = ConfigTuner::preselected(cfg);
                                state.tuned_ipc = Some(m.ipc);
                                state.predicted = true;
                                prediction = Some((d, Some((saved, cfg))));
                            }
                            nearest => {
                                // -1.0 marks "no candidate to measure
                                // against" without a non-finite JSON value.
                                prediction = Some((nearest.map_or(-1.0, |(d, _)| d), None));
                            }
                        }
                    }
                }
                // A cold convergence becomes knowledge the next phase can
                // predict from (predicted adoptions add nothing new).
                if state.tuner.is_done() && !state.predicted {
                    if let (Some(vector), Some(best)) = (state.vector, state.tuner.best()) {
                        let mask = cu_mask_of(state.tuner.configs());
                        cold_insert = Some((mask, vector, best));
                    }
                }
            }
            Pending::Sample => {
                if let Some(tuned) = state.tuned_ipc {
                    let drift = (m.ipc - tuned).abs() / tuned;
                    if drift > retune_threshold {
                        let configs = decouple_list.len() as u32;
                        state.tuner = ConfigTuner::new(decouple_list, perf_threshold);
                        state.tuned_ipc = None;
                        // Drifted behavior means a new working set: the old
                        // vector no longer describes this phase, so the
                        // fresh episode re-measures and re-predicts.
                        state.vector = None;
                        state.predicted = false;
                        state.invocations_after_tuned = 0;
                        state.retunings += 1;
                        self.retunings += 1;
                        tel.emit(|| Event::DriftRetune {
                            scope,
                            drift,
                            instret: machine.instret(),
                        });
                        tel.emit(|| Event::TuningStarted {
                            scope,
                            configs,
                            instret: machine.instret(),
                        });
                    }
                }
            }
            Pending::Idle => {}
        }
        state.pending = Pending::Idle;
        if tunings > 0 {
            self.stats[cu.index()].tunings += tunings;
        }
        match prediction {
            Some((distance, Some((saved, _cfg)))) => {
                self.predict_hits += 1;
                self.predicted_trials_saved += u64::from(saved);
                tel.emit(|| Event::PdmPredictHit {
                    scope,
                    distance,
                    trials_saved: saved,
                    instret: machine.instret(),
                });
                // Close the trace episode: the selection is final after
                // this single trial.
                tel.emit(|| Event::TuningConverged {
                    scope,
                    trials: 1,
                    ipc: m.ipc,
                    epi_nj: m.epi_nj,
                    instret: machine.instret(),
                });
            }
            Some((distance, None)) => {
                self.predict_misses += 1;
                tel.emit(|| Event::PdmPredictMiss {
                    scope,
                    distance,
                    instret: machine.instret(),
                });
            }
            None => {}
        }
        if let Some(entry) = cold_insert {
            self.table.push(entry);
        }
    }

    /// Builds the end-of-run report. `base.guard_rejections` is left at
    /// zero; fill it from the run's machine counters.
    pub fn report(&self) -> PdmReport {
        let mut base = HotspotReport {
            cu: self.stats,
            retunings: self.retunings,
            small_hotspots: self.small_seen,
            ..HotspotReport::default()
        };
        let mut cov_sum = 0.0;
        let mut cov_n = 0u64;
        let mut means = OnlineStats::new();
        // MethodId order: float accumulation is not associative.
        let mut ordered: Vec<(&MethodId, &PdmState)> = self.states.iter().collect();
        ordered.sort_by_key(|(m, _)| m.0);
        for (_, state) in ordered {
            if let Some(cu) = state.class.cu() {
                base.cu_hotspots[cu.index()] += 1;
            }
            if state.tuner.is_done() {
                base.tuned_hotspots += 1;
            }
            if state.ipc_stats.count() >= 2 {
                cov_sum += state.ipc_stats.cov();
                cov_n += 1;
            }
            if state.ipc_stats.count() > 0 {
                means.push(state.ipc_stats.mean());
            }
            if let Some(cu) = state.class.cu() {
                let stats = &mut base.cu[cu.index()];
                stats.covered_instr = stats.covered_instr.saturating_add(state.covered_instr);
            }
        }
        base.per_hotspot_ipc_cov = if cov_n > 0 {
            cov_sum / cov_n as f64
        } else {
            0.0
        };
        base.inter_hotspot_ipc_cov = means.cov();
        PdmReport {
            base,
            predict_hits: self.predict_hits,
            predict_misses: self.predict_misses,
            predicted_trials_saved: self.predicted_trials_saved,
            known_phases: self.table.len() as u64,
        }
    }
}

impl AceManager for PdmAceManager {
    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.tel = telemetry;
    }

    fn on_event(&mut self, event: DoEvent, machine: &mut Machine) {
        match event {
            DoEvent::HotspotEnter { method, class } => self.handle_enter(method, class, machine),
            DoEvent::HotspotExit { method, class, .. } => self.handle_exit(method, class, machine),
            DoEvent::HotspotClassified {
                class: HotspotClass::TooSmall,
                ..
            } => {
                self.small_seen += 1;
            }
            DoEvent::HotspotClassified {
                method, avg_size, ..
            } => {
                self.sizes.insert(method, avg_size);
            }
            DoEvent::None => {}
        }
    }

    fn on_block(&mut self, _block: &Block, _machine: &mut Machine) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_vectors_have_zero_distance() {
        let v = PhaseVector::new(1.5, 0.8, 100_000);
        assert_eq!(v.distance(&v), 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_scales() {
        let a = PhaseVector::new(1.0, 0.5, 100_000);
        let b = PhaseVector::new(2.0, 0.5, 100_000);
        assert!((a.distance(&b) - b.distance(&a)).abs() < 1e-15);
        // One IPC apart over scale 4, averaged over 3 components.
        assert!((a.distance(&b) - (1.0 / 4.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_respects_cu_mask_and_ties() {
        use ace_sim::SizeLevel;
        let v = PhaseVector::new(1.0, 0.5, 100_000);
        let cfg_a = AceConfig::l1d_only(SizeLevel::SMALLEST);
        let cfg_b = AceConfig::l1d_only(SizeLevel::LARGEST);
        let mut table = vec![(0b10u8, v, cfg_a)];
        // Same distance, different mask: must not match mask 0b100.
        assert!(nearest_in(&table, 0b100, &v).is_none());
        let (d, _) = nearest_in(&table, 0b10, &v).unwrap();
        assert_eq!(d, 0.0);
        // A later equally-near entry does not displace the first.
        table.push((0b10, v, cfg_b));
        let (_, picked) = nearest_in(&table, 0b10, &v).unwrap();
        assert_eq!(picked, cfg_a);
    }

    #[test]
    fn zero_threshold_never_predicts() {
        let cfg = PdmManagerConfig {
            distance_threshold: 0.0,
            ..PdmManagerConfig::default()
        };
        let v = PhaseVector::new(1.0, 0.5, 100_000);
        // Even an exact match is rejected by the strict `<`.
        let table = vec![(0b10u8, v, AceConfig::default())];
        let (d, _) = nearest_in(&table, 0b10, &v).unwrap();
        assert!(d >= cfg.distance_threshold, "strict < never fires at 0");
    }

    #[test]
    fn report_empty_run() {
        let mgr = PdmAceManager::new(PdmManagerConfig::default(), EnergyModel::default_180nm());
        let r = mgr.report();
        assert_eq!(r.base.tuned_hotspots, 0);
        assert_eq!(r.hit_rate(), 0.0);
        assert_eq!(r.known_phases, 0);
    }
}
