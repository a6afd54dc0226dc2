//! The persistent warm-start tuning store.
//!
//! One [`TuningStore`] holds the fleet's converged configuration
//! selections, keyed by packed [`HotspotSignature`]. It is two things at
//! once:
//!
//! * an in-memory map the driver snapshots into a [`WarmStartContext`]
//!   before every wave (machines only ever see a frozen snapshot), and
//! * an append-only JSONL log on disk: every applied publication is
//!   appended as one [`StorePublication`] line before it is applied, and
//!   opening the store replays the log through the exact same merge
//!   rules — so replay is idempotent by construction and a store survives
//!   process restarts. A crash mid-append leaves a torn final line (no
//!   newline, does not parse); opening truncates it and counts it in
//!   [`TuningStore::torn_tail`]. A corrupt line anywhere else is an error.
//!
//! Merge rules (applied identically live and during replay):
//!
//! * **versioning** — a publication whose signature carries a different
//!   registry version than the store is stale and dropped (counted, never
//!   logged),
//! * **better-epi wins** — a publication for an existing signature only
//!   replaces the entry when its energy-per-instruction is strictly
//!   lower,
//! * **bounded capacity** — past `capacity` entries the oldest entry
//!   (smallest publication stamp) is evicted.

use ace_bench::{BenchError, BenchResult};
use ace_core::{AceConfig, HotspotSignature, StorePublication, WarmStartContext};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One stored selection plus its bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreEntry {
    /// The converged configuration.
    pub config: AceConfig,
    /// IPC measured when the configuration was selected.
    pub ipc: f64,
    /// Energy per instruction (nJ) of the selection — the merge metric.
    pub epi_nj: f64,
    /// Trials the publishing machine's cold tuning episode took.
    pub trials: u32,
    /// Monotonic publication stamp (eviction orders by it).
    pub stamp: u64,
}

/// What [`TuningStore::publish`] did with a publication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// New signature: entry inserted.
    Inserted,
    /// Existing signature, lower energy: entry replaced.
    Improved,
    /// Existing signature, no improvement: entry kept as-is.
    Kept,
    /// Signature stamped with a different registry version: dropped.
    Stale,
}

/// The fleet's shared tuning store. See the module docs for semantics.
#[derive(Debug)]
pub struct TuningStore {
    version: u16,
    capacity: usize,
    entries: HashMap<u64, StoreEntry>,
    next_stamp: u64,
    evictions: u64,
    stale_dropped: u64,
    torn_tail: u64,
    log: Option<PathBuf>,
}

impl TuningStore {
    /// Default capacity bound: far above what one fleet run publishes,
    /// low enough that a long-lived store cannot grow without bound.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// An in-memory store (no log) at `version` holding at most
    /// `capacity` entries.
    pub fn in_memory(version: u16, capacity: usize) -> TuningStore {
        TuningStore {
            version,
            capacity: capacity.max(1),
            entries: HashMap::new(),
            next_stamp: 0,
            evictions: 0,
            stale_dropped: 0,
            torn_tail: 0,
            log: None,
        }
    }

    /// Opens (or creates) a log-backed store at `path`, replaying any
    /// existing log through the merge rules. A final line without a
    /// newline that does not parse is the torn tail of an interrupted
    /// append: it is truncated from the log and counted in
    /// [`TuningStore::torn_tail`]. A final line without a newline that
    /// does parse is applied and given its newline.
    ///
    /// # Errors
    ///
    /// Fails when the log exists but cannot be read or repaired, or when
    /// a newline-terminated line does not parse as a [`StorePublication`].
    pub fn open(
        path: impl Into<PathBuf>,
        version: u16,
        capacity: usize,
    ) -> BenchResult<TuningStore> {
        let path = path.into();
        let mut store = TuningStore::in_memory(version, capacity);
        let io_err = |e: std::io::Error| BenchError::msg(format!("{}: {e}", path.display()));
        if path.exists() {
            let data = std::fs::read_to_string(&path).map_err(io_err)?;
            let (body, tail) = data.split_at(data.rfind('\n').map_or(0, |i| i + 1));
            for (lineno, line) in body.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let publication: StorePublication = serde_json::from_str(line).map_err(|e| {
                    BenchError::msg(format!(
                        "{}:{}: corrupt store log line: {e}",
                        path.display(),
                        lineno + 1
                    ))
                })?;
                store.apply(publication);
            }
            if !tail.trim().is_empty() {
                let file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .map_err(io_err)?;
                match serde_json::from_str::<StorePublication>(tail) {
                    Ok(publication) => {
                        store.apply(publication);
                        (&file).write_all(b"\n").map_err(io_err)?;
                    }
                    Err(_) => {
                        file.set_len(body.len() as u64).map_err(io_err)?;
                        store.torn_tail += 1;
                    }
                }
            }
        }
        store.log = Some(path);
        Ok(store)
    }

    /// The registry version entries must be stamped with.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Publications dropped for carrying a foreign registry version.
    pub fn stale_dropped(&self) -> u64 {
        self.stale_dropped
    }

    /// Torn final log lines truncated by [`TuningStore::open`] (0 or 1).
    pub fn torn_tail(&self) -> u64 {
        self.torn_tail
    }

    /// The entry stored for `signature`, if any.
    pub fn get(&self, signature: HotspotSignature) -> Option<&StoreEntry> {
        self.entries.get(&signature.packed())
    }

    /// All entries, sorted by packed signature (deterministic order for
    /// reports and tests).
    pub fn entries_sorted(&self) -> Vec<(HotspotSignature, StoreEntry)> {
        let mut all: Vec<_> = self
            .entries
            .iter()
            .map(|(&k, &e)| (HotspotSignature::from_packed(k), e))
            .collect();
        all.sort_by_key(|(sig, _)| sig.packed());
        all
    }

    /// Freezes the current state into a [`WarmStartContext`] for a wave
    /// of machines. The snapshot never changes under the machines — that
    /// frozen view is what keeps fleet results byte-identical at any
    /// worker count.
    pub fn snapshot(&self) -> WarmStartContext {
        let mut ctx = WarmStartContext::new(self.version);
        for (&packed, entry) in &self.entries {
            ctx.insert(HotspotSignature::from_packed(packed), entry.config);
        }
        ctx
    }

    /// Merges one publication into the store. When it would be applied
    /// (inserted or improved) and the store is log-backed, it is appended
    /// to the on-disk log first, so memory never runs ahead of disk.
    ///
    /// # Errors
    ///
    /// Fails only when the log append fails; the in-memory state is then
    /// unchanged.
    pub fn publish(&mut self, publication: StorePublication) -> BenchResult<PublishOutcome> {
        if let Some(path) = &self.log {
            if matches!(
                self.outcome(&publication),
                PublishOutcome::Inserted | PublishOutcome::Improved
            ) {
                append_line(path, &publication)?;
            }
        }
        Ok(self.apply(publication))
    }

    /// What the merge rules would do with `publication`.
    fn outcome(&self, publication: &StorePublication) -> PublishOutcome {
        if publication.signature.registry_version != self.version {
            return PublishOutcome::Stale;
        }
        match self.entries.get(&publication.signature.packed()) {
            Some(existing) if publication.epi_nj >= existing.epi_nj => PublishOutcome::Kept,
            Some(_) => PublishOutcome::Improved,
            None => PublishOutcome::Inserted,
        }
    }

    /// The merge rules, shared by live publishes and log replay.
    fn apply(&mut self, publication: StorePublication) -> PublishOutcome {
        let outcome = self.outcome(&publication);
        match outcome {
            PublishOutcome::Stale => self.stale_dropped += 1,
            PublishOutcome::Kept => {}
            PublishOutcome::Inserted | PublishOutcome::Improved => {
                let entry = StoreEntry {
                    config: publication.config,
                    ipc: publication.ipc,
                    epi_nj: publication.epi_nj,
                    trials: publication.trials,
                    stamp: self.next_stamp,
                };
                self.next_stamp += 1;
                self.entries.insert(publication.signature.packed(), entry);
                if self.entries.len() > self.capacity {
                    self.evict_oldest();
                }
            }
        }
        outcome
    }

    fn evict_oldest(&mut self) {
        if let Some((&key, _)) = self.entries.iter().min_by_key(|(_, e)| e.stamp) {
            self.entries.remove(&key);
            self.evictions += 1;
        }
    }

    /// Rewrites the log to exactly the live entries (in stamp order, so a
    /// replay reconstructs identical state), atomically. A no-op for
    /// in-memory stores.
    ///
    /// The live log is append-only; compaction is an explicit maintenance
    /// action for a store whose log has accumulated superseded lines.
    ///
    /// # Errors
    ///
    /// Fails when the rewritten log cannot be written or renamed.
    pub fn compact(&self) -> BenchResult<()> {
        let Some(path) = &self.log else {
            return Ok(());
        };
        let mut all: Vec<_> = self.entries.iter().collect();
        all.sort_by_key(|(_, e)| e.stamp);
        let mut text = String::new();
        for (&packed, entry) in all {
            let publication = StorePublication {
                signature: HotspotSignature::from_packed(packed),
                config: entry.config,
                ipc: entry.ipc,
                epi_nj: entry.epi_nj,
                trials: entry.trials,
            };
            text.push_str(&serde_json::to_string(&publication).expect("publication serializes"));
            text.push('\n');
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, text)
            .map_err(|e| BenchError::msg(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| BenchError::msg(format!("{}: {e}", path.display())))?;
        Ok(())
    }
}

fn append_line(path: &Path, publication: &StorePublication) -> BenchResult<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| BenchError::msg(format!("{}: {e}", dir.display())))?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| BenchError::msg(format!("{}: {e}", path.display())))?;
    writeln!(
        file,
        "{}",
        serde_json::to_string(publication).expect("publication serializes")
    )
    .map_err(|e| BenchError::msg(format!("{}: {e}", path.display())))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::SizeLevel;

    fn sig(n: u8) -> HotspotSignature {
        HotspotSignature {
            size_class: n,
            ws_class: 1,
            cu_mask: 0b10,
            registry_version: 7,
        }
    }

    fn publication(n: u8, epi_nj: f64) -> StorePublication {
        StorePublication {
            signature: sig(n),
            config: AceConfig::l1d_only(SizeLevel::SMALLEST),
            ipc: 2.0,
            epi_nj,
            trials: 4,
        }
    }

    fn temp_log(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ace_fleet_store_{tag}_{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn better_epi_wins_and_worse_is_kept() {
        let mut store = TuningStore::in_memory(7, 16);
        assert_eq!(
            store.publish(publication(1, 0.5)).unwrap(),
            PublishOutcome::Inserted
        );
        assert_eq!(
            store.publish(publication(1, 0.6)).unwrap(),
            PublishOutcome::Kept
        );
        assert_eq!(
            store.publish(publication(1, 0.4)).unwrap(),
            PublishOutcome::Improved
        );
        assert_eq!(store.len(), 1);
        assert!((store.get(sig(1)).unwrap().epi_nj - 0.4).abs() < 1e-12);
    }

    #[test]
    fn foreign_version_is_dropped() {
        let mut store = TuningStore::in_memory(3, 16);
        assert_eq!(
            store.publish(publication(1, 0.5)).unwrap(),
            PublishOutcome::Stale
        );
        assert!(store.is_empty());
        assert_eq!(store.stale_dropped(), 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut store = TuningStore::in_memory(7, 2);
        store.publish(publication(1, 0.5)).unwrap();
        store.publish(publication(2, 0.5)).unwrap();
        store.publish(publication(3, 0.5)).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(store.get(sig(1)).is_none(), "oldest entry evicted");
        assert!(store.get(sig(2)).is_some() && store.get(sig(3)).is_some());
    }

    #[test]
    fn log_replay_is_idempotent() {
        let path = temp_log("replay");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = TuningStore::open(&path, 7, 16).unwrap();
            store.publish(publication(1, 0.5)).unwrap();
            store.publish(publication(2, 0.7)).unwrap();
            store.publish(publication(1, 0.3)).unwrap(); // improvement, logged
            store.publish(publication(2, 0.9)).unwrap(); // kept, not logged
        }
        let reopened = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(reopened.len(), 2);
        assert!((reopened.get(sig(1)).unwrap().epi_nj - 0.3).abs() < 1e-12);
        assert!((reopened.get(sig(2)).unwrap().epi_nj - 0.7).abs() < 1e-12);
        // Replaying the replayed state again changes nothing.
        let twice = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(twice.entries_sorted(), reopened.entries_sorted());
        let _ = std::fs::remove_file(&path);
    }

    /// A crash mid-append leaves any prefix of the last line on disk.
    /// Truncated at every byte offset of that line, the log still opens,
    /// to the state of a replay of its intact prefix.
    #[test]
    fn torn_tail_at_every_offset_replays_the_intact_prefix() {
        let path = temp_log("torn");
        let _ = std::fs::remove_file(&path);
        {
            let mut store = TuningStore::open(&path, 7, 16).unwrap();
            for (n, epi) in [(1, 0.5), (2, 0.7), (1, 0.3), (3, 0.9)] {
                store.publish(publication(n, epi)).unwrap();
            }
        }
        let full = std::fs::read_to_string(&path).unwrap();
        let start = full[..full.len() - 1].rfind('\n').unwrap() + 1;
        let (prefix, last) = (&full[..start], &full[start..full.len() - 1]);
        let replay = |text: &str| {
            std::fs::write(&path, text).unwrap();
            TuningStore::open(&path, 7, 16).unwrap().entries_sorted()
        };
        let intact = replay(prefix);
        let complete = replay(&full);
        assert_ne!(intact, complete);
        for cut in 0..=last.len() {
            std::fs::write(&path, format!("{prefix}{}", &last[..cut])).unwrap();
            let mut store = TuningStore::open(&path, 7, 16).unwrap();
            let (want, log, torn) = match cut {
                0 => (&intact, prefix.to_string(), 0),
                c if c == last.len() => (&complete, full.clone(), 0),
                _ => (&intact, prefix.to_string(), 1),
            };
            assert_eq!(&store.entries_sorted(), want, "cut {cut}");
            assert_eq!(store.torn_tail(), torn, "cut {cut}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), log, "cut {cut}");
            // The repaired log takes further appends cleanly.
            store.publish(publication(4, 0.1)).unwrap();
            let reopened = TuningStore::open(&path, 7, 16).unwrap();
            assert_eq!(
                reopened.entries_sorted(),
                store.entries_sorted(),
                "cut {cut}"
            );
            assert_eq!(reopened.torn_tail(), 0, "cut {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_mid_file_line_is_an_error() {
        let path = temp_log("corrupt");
        let good = serde_json::to_string(&publication(1, 0.5)).unwrap();
        let text = format!("{good}\n{{\"signature\":\n{good}\n");
        std::fs::write(&path, &text).unwrap();
        let err = TuningStore::open(&path, 7, 16).unwrap_err();
        assert!(
            err.to_string().contains(":2: corrupt store log line"),
            "{err}"
        );
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            text,
            "log untouched"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_append_leaves_memory_unchanged() {
        // The log's parent directory is a file, so every append fails.
        let blocker = temp_log("blocker");
        let _ = std::fs::remove_file(&blocker);
        let mut store = TuningStore::open(blocker.join("store.jsonl"), 7, 16).unwrap();
        std::fs::write(&blocker, "").unwrap();
        assert!(store.publish(publication(1, 0.5)).is_err());
        assert!(store.is_empty());
        assert!(store.snapshot().lookup(sig(1)).is_none());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let path = temp_log("compact");
        let _ = std::fs::remove_file(&path);
        let mut store = TuningStore::open(&path, 7, 16).unwrap();
        for epi in [9.0, 8.0, 7.0, 6.0] {
            store.publish(publication(1, epi)).unwrap(); // 4 logged lines, 1 entry
        }
        // Compaction renumbers stamps (relative order is preserved), so
        // compare the selection state, not the bookkeeping.
        let selections = |s: &TuningStore| {
            s.entries_sorted()
                .into_iter()
                .map(|(sig, e)| (sig, e.config, e.epi_nj, e.trials))
                .collect::<Vec<_>>()
        };
        let before = selections(&store);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 4);
        store.compact().unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 1);
        let reopened = TuningStore::open(&path, 7, 16).unwrap();
        assert_eq!(selections(&reopened), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_is_frozen() {
        let mut store = TuningStore::in_memory(7, 16);
        store.publish(publication(1, 0.5)).unwrap();
        let snap = store.snapshot();
        store.publish(publication(2, 0.5)).unwrap();
        assert_eq!(snap.len(), 1, "snapshot does not see later publishes");
        assert_eq!(snap.version(), 7);
        assert!(snap.lookup(sig(1)).is_some());
        assert!(snap.lookup(sig(2)).is_none());
    }

    #[test]
    fn corrupt_log_is_an_error() {
        let path = temp_log("corrupt");
        std::fs::write(&path, "not json\n").unwrap();
        let err = TuningStore::open(&path, 7, 16).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
