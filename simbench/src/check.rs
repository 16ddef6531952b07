//! Output correctness: what makes an operation count as failed.

use execmig_check::{config_supported, RefMachine};
use execmig_machine::{Machine, MachineStats};

use crate::digests;
use crate::ops::Op;
use crate::relocate::Relocated;

/// Instructions of each operation's stream the paper-literal reference
/// model replays (untimed) against the optimized machine.
pub const REF_PREFIX: u64 = 200_000;

/// Runs `op`'s first [`REF_PREFIX`] instructions through both the
/// optimized machine and `execmig_check::RefMachine`; their final
/// statistics must be equal.
pub fn reference_prefix(op: &Op, seed: u64) -> Result<(), String> {
    if !config_supported(&op.config) {
        return Err(format!(
            "{}: the reference model does not cover this config",
            op.id()
        ));
    }
    let budget = REF_PREFIX.min(op.instructions);
    let mut fast = Machine::new(op.config.clone());
    fast.run(&mut stream(op, seed), budget);
    let mut naive = RefMachine::new(&op.config);
    naive.run(&mut stream(op, seed), budget);
    same_stats(&op.id(), "reference prefix", fast.stats(), naive.stats())
}

/// Checks a full-length result: for seed 0 it must match the recorded
/// digest.
pub fn full_length(op: &Op, seed: u64, stats: &MachineStats) -> Result<(), String> {
    if seed != 0 {
        return Ok(());
    }
    let got = digest(stats);
    match digests::lookup(op.label, op.member, op.instructions) {
        Some(want) if want == got => Ok(()),
        Some(want) => Err(format!(
            "{}: seed-0 digest {got:#018x} != recorded {want:#018x} ({stats:?})",
            op.id()
        )),
        None => Err(format!("{}: no recorded seed-0 digest", op.id())),
    }
}

/// `Ok` when two runs' statistics are equal, else a message naming the
/// comparison.
pub fn same_stats(
    id: &str,
    what: &str,
    got: &MachineStats,
    want: &MachineStats,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{id}: {what} differs: {got:?} vs {want:?}"))
    }
}

/// FNV-1a over the statistics fields, in a fixed order.
pub fn digest(s: &MachineStats) -> u64 {
    let fields = [
        s.instructions,
        s.accesses,
        s.ifetches,
        s.loads,
        s.stores,
        s.il1_misses,
        s.dl1_misses,
        s.l1_requests,
        s.l2_accesses,
        s.l2_misses,
        s.l2_to_l2_forwards,
        s.l3_fetches,
        s.l3_writebacks,
        s.migrations,
        s.store_broadcast_updates,
        s.prefetch_fills,
        s.l3_misses,
        s.invalidations,
        s.coherence_updates,
        s.coherence_bus_bytes,
        s.bus.reg_bytes,
        s.bus.store_bytes,
        s.bus.branch_bytes,
        s.bus.l1_mirror_bytes,
    ];
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in fields {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// A fresh seeded stream for `op`.
pub fn stream(op: &Op, seed: u64) -> Relocated {
    Relocated::member(op.member, seed).expect("operations name suite members")
}
