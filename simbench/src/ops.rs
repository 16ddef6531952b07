//! The three named workloads and the operations they are made of.
//!
//! One operation is one suite member run under one machine
//! configuration, from a fresh `Machine` (every modelled cache empty)
//! and a fresh stream, to a fixed instruction budget.

use execmig_machine::{MachineConfig, Protocol};
use execmig_trace::suite;

/// Instructions per timed segment: `Machine::run` is resumable with an
/// absolute budget, so a run cut into segments is bit-identical to one
/// call.
pub const SEGMENT: u64 = 1_000_000;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Single-core baseline over the 18-member suite (Table 2 baseline).
    Baseline,
    /// The four-core migration machine over the same 18 streams.
    Migration,
    /// MESI and Dragon on the write-sharing members.
    Coherence,
}

impl Mix {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Mix; 3] = [Mix::Baseline, Mix::Migration, Mix::Coherence];

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Baseline => "baseline",
            Mix::Migration => "migration",
            Mix::Coherence => "coherence",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Mix> {
        Mix::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The workload's operations, in run order.
    pub fn ops(self) -> Vec<Op> {
        match self {
            Mix::Baseline => suite::names()
                .into_iter()
                .map(|m| Op::new(m, "single", MachineConfig::single_core(), SUITE_BUDGET))
                .collect(),
            Mix::Migration => suite::names()
                .into_iter()
                .map(|m| {
                    let config = MachineConfig::four_core_migration();
                    Op::new(m, "migration", config, SUITE_BUDGET)
                })
                .collect(),
            Mix::Coherence => [("mesi", Protocol::Mesi), ("dragon", Protocol::Dragon)]
                .into_iter()
                .flat_map(|(label, protocol)| {
                    SHARING_MEMBERS.into_iter().map(move |m| {
                        let config = MachineConfig {
                            protocol,
                            ..MachineConfig::four_core_migration()
                        };
                        Op::new(m, label, config, SHARING_BUDGET)
                    })
                })
                .collect(),
        }
    }
}

/// Instructions per member in `baseline` and `migration`.
pub const SUITE_BUDGET: u64 = 6 * SEGMENT;

/// The write-sharing members the coherence workload runs.
pub const SHARING_MEMBERS: [&str; 3] = ["vortex", "em3d", "twolf"];

/// Instructions per member and protocol in `coherence`.
pub const SHARING_BUDGET: u64 = 6 * SEGMENT;

/// One suite member under one machine configuration.
#[derive(Debug, Clone)]
pub struct Op {
    /// Suite member name.
    pub member: &'static str,
    /// Short configuration label (`single`, `migration`, `mesi`, `dragon`).
    pub label: &'static str,
    /// The machine configuration.
    pub config: MachineConfig,
    /// Instruction budget.
    pub instructions: u64,
}

impl Op {
    fn new(
        member: &'static str,
        label: &'static str,
        config: MachineConfig,
        instructions: u64,
    ) -> Op {
        Op {
            member,
            label,
            config,
            instructions,
        }
    }

    /// `label/member`, the operation's name in messages and digests.
    pub fn id(&self) -> String {
        format!("{}/{}", self.label, self.member)
    }
}
