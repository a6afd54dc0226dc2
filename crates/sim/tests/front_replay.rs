//! Differential tests of front-end replay: a leader machine that records
//! each block's front end (`exec_block_recording`) plus followers that
//! `replay_block` the record must match independent machines that each
//! run `exec_block`, on the full `MachineCounters` after every block.
//!
//! The block streams mix same-line runs (including a store after a load on
//! one line), blocks without references or without a branch, and a code
//! footprint large enough to miss in the L1I. Followers are resized at
//! random, because the back end they keep (L1D, L2, window) is exactly
//! what the schemes reconfigure.

use ace_sim::{
    Block, BranchEvent, CuId, FrontRecord, Machine, MachineConfig, MemAccess, SizeLevel,
};
use proptest::prelude::*;

/// One generated reference run: (address selector, address, run length,
/// store mask).
type RunSpec = (u64, u64, u64, u64);

/// One generated block: (pc selector, pc, ninstr, runs, branch, resize).
type BlockSpec = (
    u64,
    u64,
    u32,
    Vec<RunSpec>,
    Option<(u64, bool)>,
    (u8, usize, u8, u8),
);

fn block_strategy() -> impl Strategy<Value = BlockSpec> {
    (
        0u64..4,
        0u64..1 << 22,
        1u32..400,
        prop::collection::vec((0u64..3, 0u64..1 << 24, 1u64..5, 0u64..16), 0..7),
        prop::option::of((0u64..64, any::<bool>())),
        (0u8..6, 0usize..8, 0u8..3, 0u8..4),
    )
}

/// Builds the block: one pc in four is drawn from a 4 MB code range (L1I
/// misses), the rest from a hot 32-line loop; one reference run in three
/// starts anywhere in 16 MB (L1D and L2 misses), the rest in a hot 2 KB
/// pool, and each run steps 8 bytes at a time, mostly within one line.
fn build_block(spec: &BlockSpec) -> Block {
    let (pc_sel, pc, ninstr, runs, branch, _) = spec;
    let pc = if *pc_sel == 0 {
        *pc
    } else {
        0x1000 + (pc % 32) * 64
    };
    let mut accesses = Vec::new();
    for &(sel, addr, len, stores) in runs {
        let base = if sel == 0 {
            addr
        } else {
            0x10_0000 + (addr % 256) * 8
        };
        for k in 0..len {
            let addr = base + k * 8;
            if stores >> k & 1 == 1 {
                accesses.push(MemAccess::store(addr));
            } else {
                accesses.push(MemAccess::load(addr));
            }
        }
    }
    Block {
        pc,
        ninstr: *ninstr,
        accesses,
        branch: branch.map(|(slot, taken)| BranchEvent {
            pc: 0x8000 + slot * 4,
            taken,
        }),
    }
}

const RESIZABLE: [CuId; 3] = [CuId::L1d, CuId::L2, CuId::Window];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Leader + K − 1 replaying followers equal K independent machines,
    /// counter for counter, after every block.
    #[test]
    fn replay_matches_independent_machines(
        k in 2usize..5,
        blocks in prop::collection::vec(block_strategy(), 1..160),
    ) {
        let cfg = MachineConfig::table2();
        let mut solo: Vec<Machine> = (0..k).map(|_| Machine::new(cfg.clone()).unwrap()).collect();
        let mut shared: Vec<Machine> = (0..k).map(|_| Machine::new(cfg.clone()).unwrap()).collect();
        let mut front = FrontRecord::default();
        for (n, spec) in blocks.iter().enumerate() {
            let block = build_block(spec);
            for m in &mut solo {
                m.exec_block(&block);
            }
            shared[0].exec_block_recording(&block, &mut front);
            for m in &mut shared[1..] {
                m.replay_block(&block, &front);
            }

            // Resize one follower, the same way in both runs.
            let (sel, who, cu, level) = spec.5;
            let who = 1 + who % (k - 1);
            let cu = RESIZABLE[cu as usize];
            let level = SizeLevel::new(level).unwrap();
            for m in [&mut solo[who], &mut shared[who]] {
                match sel {
                    0 => {
                        m.apply_resize(cu, level);
                    }
                    1 => {
                        m.request_resize(cu, level);
                    }
                    _ => {}
                }
            }

            for (i, (a, b)) in solo.iter_mut().zip(shared.iter_mut()).enumerate() {
                prop_assert_eq!(a.counters(), b.counters(), "machine {} after block {}", i, n);
            }
        }
    }
}

#[test]
fn same_line_store_after_load_dirties_the_line_in_followers() {
    // A load then a store to one line: only the store's dirty bit differs
    // from a plain load run, and it must reach the follower's L1D, where a
    // later shrink writes the line back.
    let cfg = MachineConfig::table2();
    let mut solo = Machine::new(cfg.clone()).unwrap();
    let mut leader = Machine::new(cfg.clone()).unwrap();
    let mut follower = Machine::new(cfg).unwrap();
    let mut front = FrontRecord::default();
    for i in 0..64u64 {
        // Upper sets, which a shrink to level 1 disables.
        let line = (400 + i) * 64;
        let block = Block {
            pc: 0x400,
            ninstr: 8,
            accesses: vec![MemAccess::load(line), MemAccess::store(line + 8)],
            branch: None,
        };
        solo.exec_block(&block);
        leader.exec_block_recording(&block, &mut front);
        follower.replay_block(&block, &front);
    }
    let level = SizeLevel::new(1).unwrap();
    let a = solo.apply_resize(CuId::L1d, level);
    let b = follower.apply_resize(CuId::L1d, level);
    assert_eq!(a.dirty_lines, 64);
    assert_eq!(a, b);
    assert_eq!(solo.counters(), follower.counters());
}

#[test]
fn empty_block_replays_fetch_and_branch_only() {
    let cfg = MachineConfig::table2();
    let mut leader = Machine::new(cfg.clone()).unwrap();
    let mut follower = Machine::new(cfg).unwrap();
    let mut front = FrontRecord::default();
    let block = Block {
        pc: 0x40_0000,
        ninstr: 12,
        accesses: vec![],
        branch: Some(BranchEvent {
            pc: 0x40_0030,
            taken: true,
        }),
    };
    leader.exec_block_recording(&block, &mut front);
    follower.replay_block(&block, &front);
    let c = follower.counters().clone();
    assert_eq!(c.l1i.misses[0], 1, "cold fetch misses");
    assert_eq!(c.branch.branches, 1);
    assert_eq!(c.dtlb.accesses, 0);
    assert_eq!(&c, leader.counters());
}
