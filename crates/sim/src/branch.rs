//! Combined branch predictor (Table 2: 2K-entry combined predictor,
//! 3-cycle misprediction penalty).
//!
//! The combined predictor pairs a bimodal table with a gshare table and a
//! chooser of 2-bit counters, in the style of the Alpha 21264 / SimpleScalar
//! `comb` predictor. All three tables have the configured entry count.

use serde::{Deserialize, Serialize};

/// Branch predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub branches: u64,
    /// Branches whose prediction was wrong.
    pub mispredicts: u64,
}

impl BranchStats {
    /// Misprediction ratio, or 0.0 when idle.
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Counter difference `self - earlier`.
    ///
    /// Shares the snapshot-order contract of
    /// [`crate::MachineCounters::delta_since`]: debug builds panic on
    /// swapped snapshots, release builds wrap.
    pub fn delta_since(&self, earlier: &BranchStats) -> BranchStats {
        debug_assert!(
            self.branches >= earlier.branches && self.mispredicts >= earlier.mispredicts,
            "snapshot order reversed"
        );
        BranchStats {
            branches: self.branches.wrapping_sub(earlier.branches),
            mispredicts: self.mispredicts.wrapping_sub(earlier.mispredicts),
        }
    }
}

/// Saturating 2-bit counter helpers.
#[inline]
fn bump(counter: &mut u8, taken: bool) {
    if taken {
        if *counter < 3 {
            *counter += 1;
        }
    } else if *counter > 0 {
        *counter -= 1;
    }
}

#[inline]
fn predicts_taken(counter: u8) -> bool {
    counter >= 2
}

/// A bimodal + gshare combined predictor.
///
/// # Examples
///
/// ```
/// use ace_sim::BranchPredictor;
/// let mut bp = BranchPredictor::new(2048);
/// // A loop branch that is always taken becomes perfectly predicted.
/// for _ in 0..8 { bp.predict_and_update(0x400, true); }
/// assert!(bp.predict_and_update(0x400, true));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Vec<u8>,
    gshare: Vec<u8>,
    chooser: Vec<u8>,
    history: u32,
    mask: u32,
    stats: BranchStats,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` slots per table.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: u32) -> BranchPredictor {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        BranchPredictor {
            bimodal: vec![1; entries as usize], // weakly not-taken
            gshare: vec![1; entries as usize],
            chooser: vec![2; entries as usize], // weakly prefer gshare
            history: 0,
            mask: entries - 1,
            stats: BranchStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &BranchStats {
        &self.stats
    }

    /// Counts one branch whose prediction was decided elsewhere: a machine
    /// replaying a recorded front end adds the recorded outcome without
    /// touching its tables (see `Machine::replay_block`).
    #[inline]
    pub(crate) fn count(&mut self, mispredict: bool) {
        self.stats.branches += 1;
        self.stats.mispredicts += mispredict as u64;
    }

    /// Predicts the branch at `pc`, updates all tables with the actual
    /// `taken` outcome, and returns whether the prediction was **correct**.
    pub fn predict_and_update(&mut self, pc: u64, taken: bool) -> bool {
        self.stats.branches += 1;
        let bi_idx = ((pc >> 2) as u32 & self.mask) as usize;
        let gs_idx = (((pc >> 2) as u32 ^ self.history) & self.mask) as usize;

        let bi_pred = predicts_taken(self.bimodal[bi_idx]);
        let gs_pred = predicts_taken(self.gshare[gs_idx]);
        let use_gshare = predicts_taken(self.chooser[bi_idx]);
        let pred = if use_gshare { gs_pred } else { bi_pred };

        // Chooser trains toward whichever component was right.
        if bi_pred != gs_pred {
            bump(&mut self.chooser[bi_idx], gs_pred == taken);
        }
        bump(&mut self.bimodal[bi_idx], taken);
        bump(&mut self.gshare[gs_idx], taken);
        self.history = ((self.history << 1) | taken as u32) & 0xff;

        let correct = pred == taken;
        if !correct {
            self.stats.mispredicts += 1;
        }
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_biased_branch() {
        let mut bp = BranchPredictor::new(256);
        for _ in 0..16 {
            bp.predict_and_update(0x1000, true);
        }
        let before = bp.stats().mispredicts;
        for _ in 0..100 {
            bp.predict_and_update(0x1000, true);
        }
        assert_eq!(
            bp.stats().mispredicts,
            before,
            "steady branch never mispredicts"
        );
    }

    #[test]
    fn learns_alternating_pattern_via_gshare() {
        let mut bp = BranchPredictor::new(2048);
        let mut taken = false;
        for _ in 0..64 {
            taken = !taken;
            bp.predict_and_update(0x2000, taken);
        }
        let warm = bp.stats().mispredicts;
        for _ in 0..200 {
            taken = !taken;
            bp.predict_and_update(0x2000, taken);
        }
        let late = bp.stats().mispredicts - warm;
        assert!(
            late < 20,
            "gshare captures T/NT alternation, got {late} late misses"
        );
    }

    #[test]
    fn random_branch_mispredicts_heavily() {
        // A pseudo-random outcome stream should hover near 50% mispredicts.
        let mut bp = BranchPredictor::new(2048);
        let mut x = 0x12345678u64;
        let mut taken_count = 0u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 63) != 0;
            taken_count += taken as u64;
            bp.predict_and_update(0x3000, taken);
        }
        let ratio = bp.stats().mispredict_ratio();
        assert!((0.3..0.7).contains(&ratio), "ratio {ratio}");
        assert!((3000..7000).contains(&taken_count));
    }

    #[test]
    fn distinct_pcs_do_not_interfere_when_sparse() {
        let mut bp = BranchPredictor::new(2048);
        for i in 0..8u64 {
            let pc = 0x4000 + i * 4;
            for _ in 0..32 {
                bp.predict_and_update(pc, i % 2 == 0);
            }
        }
        let warm = bp.stats().mispredicts;
        for i in 0..8u64 {
            let pc = 0x4000 + i * 4;
            for _ in 0..32 {
                bp.predict_and_update(pc, i % 2 == 0);
            }
        }
        assert!(
            bp.stats().mispredicts - warm <= 8,
            "biased branches stay learned"
        );
    }

    #[test]
    fn stats_delta() {
        let mut bp = BranchPredictor::new(64);
        bp.predict_and_update(0, true);
        let snap = *bp.stats();
        bp.predict_and_update(0, true);
        bp.predict_and_update(0, true);
        assert_eq!(bp.stats().delta_since(&snap).branches, 2);
    }
}
