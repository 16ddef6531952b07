//! Golden determinism tests: exact event counts for fixed seeds and
//! budgets. These pin the whole stack — generators, caches, affinity
//! arithmetic, coherence — so any unintended behavioural change fails
//! loudly. If a change is *intended* (e.g. retuning a workload), update
//! the constants and note it in CHANGELOG.md.

use execution_migration::core::{
    ControllerConfig, MigrationController, SplitWays, Splitter2, SplitterConfig,
};
use execution_migration::machine::{Machine, MachineConfig, Protocol};
use execution_migration::trace::{suite, Workload};

/// Snapshot of one machine run.
fn run(name: &str, config: MachineConfig, instructions: u64) -> (u64, u64, u64, u64) {
    let mut m = Machine::new(config);
    let mut w = suite::by_name(name).unwrap();
    m.run(&mut *w, instructions);
    let s = m.stats();
    (s.dl1_misses, s.l2_misses, s.migrations, s.l3_writebacks)
}

#[test]
fn golden_art_baseline() {
    let (dl1, l2, mig, wb) = run("art", MachineConfig::single_core(), 2_000_000);
    assert_eq!((dl1, l2, mig), (227453, 199751, 0));
    assert!(wb > 0);
}

#[test]
fn golden_art_migration() {
    let (dl1, l2, mig, _) = run("art", MachineConfig::four_core_migration(), 2_000_000);
    // The DL1 side is identical to the baseline by construction (L1
    // mirroring): same stream, same (shared) L1.
    assert_eq!(dl1, 227453);
    // The L2 and migration counts are pinned to the exact algorithm.
    assert_eq!((l2, mig), (143089, 31));
}

#[test]
fn golden_mcf_migration() {
    let (_, l2, mig, _) = run("mcf", MachineConfig::four_core_migration(), 2_000_000);
    assert_eq!((l2, mig), (476485, 584));
}

/// The `ext_cores` machine for a split degree: the paper's controller
/// with `ways` substituted, one core per subset.
fn ext_cores_machine(ways: SplitWays) -> MachineConfig {
    MachineConfig {
        cores: ways.count(),
        controller: Some(ControllerConfig {
            ways,
            ..ControllerConfig::paper_4core()
        }),
        ..MachineConfig::single_core()
    }
}

#[test]
fn golden_ext_cores_two_way() {
    let (dl1, l2, mig, _) = run("art", ext_cores_machine(SplitWays::Two), 2_000_000);
    assert_eq!(dl1, 227453);
    assert_eq!((l2, mig), (199796, 1));
    let (_, l2, mig, _) = run("mcf", ext_cores_machine(SplitWays::Two), 2_000_000);
    assert_eq!((l2, mig), (579063, 1));
}

#[test]
fn golden_ext_cores_eight_way() {
    let (dl1, l2, mig, _) = run("art", ext_cores_machine(SplitWays::Eight), 2_000_000);
    assert_eq!(dl1, 227453);
    assert_eq!((l2, mig), (147546, 37));
    let (_, l2, mig, _) = run("mcf", ext_cores_machine(SplitWays::Eight), 2_000_000);
    assert_eq!((l2, mig), (519767, 423));
}

#[test]
fn golden_art_mesi() {
    let config = MachineConfig {
        protocol: Protocol::Mesi,
        ..MachineConfig::four_core_migration()
    };
    let mut m = Machine::new(config);
    let mut w = suite::by_name("art").unwrap();
    m.run(&mut *w, 2_000_000);
    let s = m.stats();
    // The L1 side never depends on the L2 protocol (mirrored L1s).
    assert_eq!(s.dl1_misses, 227453);
    // Invalidations kill remote copies, so the miss stream (and hence
    // the controller's decisions) differs from migration mode.
    assert_eq!(
        (
            s.l2_misses,
            s.migrations,
            s.invalidations,
            s.coherence_updates
        ),
        (136736, 29, 19232, 0)
    );
}

#[test]
fn golden_art_dragon() {
    let config = MachineConfig {
        protocol: Protocol::Dragon,
        ..MachineConfig::four_core_migration()
    };
    let mut m = Machine::new(config);
    let mut w = suite::by_name("art").unwrap();
    m.run(&mut *w, 2_000_000);
    let s = m.stats();
    assert_eq!(s.dl1_misses, 227453);
    // Dragon updates copies in place, exactly like migration mode's
    // store broadcast — so the hit/miss stream (and migrations) match
    // `golden_art_migration`; only the accounting differs.
    assert_eq!(
        (
            s.l2_misses,
            s.migrations,
            s.invalidations,
            s.coherence_updates
        ),
        (143089, 31, 0, 86583)
    );
}

#[test]
fn golden_splitter_circular() {
    let mut s = Splitter2::new(SplitterConfig {
        r_window: 100,
        ..SplitterConfig::default()
    });
    for t in 0..500_000u64 {
        s.on_reference(t % 4000);
    }
    let st = s.stats();
    assert_eq!(st.references, 500_000);
    assert_eq!(st.transitions, 249);
}

#[test]
fn golden_stack_profile_controller_circular() {
    // The Fig 4/5 controller shape (4-way, unbounded table, every line
    // sampled, no L2 filtering) over `golden_splitter_circular`'s stream.
    let mut mc = MigrationController::new(ControllerConfig::paper_stack_profile());
    for t in 0..500_000u64 {
        mc.on_request(t % 4000, false);
    }
    assert_eq!(mc.stats().migrations, 840);
    assert_eq!(mc.splitter_stats().transitions, 840);
    // The same shape split two ways.
    let mut mc = MigrationController::new(ControllerConfig {
        ways: SplitWays::Two,
        ..ControllerConfig::paper_stack_profile()
    });
    for t in 0..500_000u64 {
        mc.on_request(t % 4000, false);
    }
    assert_eq!(mc.stats().migrations, 247);
    assert_eq!(mc.splitter_stats().transitions, 247);
    // ... and eight ways.
    let mut mc = MigrationController::new(ControllerConfig {
        ways: SplitWays::Eight,
        ..ControllerConfig::paper_stack_profile()
    });
    for t in 0..500_000u64 {
        mc.on_request(t % 4000, false);
    }
    assert_eq!(mc.stats().migrations, 793);
    assert_eq!(mc.splitter_stats().transitions, 793);
}

#[test]
fn golden_workload_streams() {
    // First data-access line of each benchmark is stable.
    let expected: &[(&str, u64)] = &[
        ("gzip", 0x2_0002_dec0),
        ("art", 0x2_0000_0000),
        ("mcf", 0x2_0015_8fc0),
        ("bh", 0x2_0002_2c80),
    ];
    for &(name, addr) in expected {
        let mut w = suite::by_name(name).unwrap();
        let first_data = loop {
            let a = w.next_access();
            if a.kind.is_data() {
                break a.addr.raw();
            }
        };
        assert_eq!(first_data, addr, "{name} first data access moved");
    }
}
