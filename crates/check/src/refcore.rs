//! Literal re-statements of the §3 affinity machinery for differential
//! checking.
//!
//! Every component here is written directly from the paper's text —
//! Figure 2's datapath, the §3.2 widths, the §3.4 transition filter,
//! the §3.5 `H(e) = e mod 31` sampling, the §3.6 recursive 4-way
//! splitting, and the §2.2 migration-controller protocol — sharing only
//! the *configuration* types with `execmig_core`. Saturation, sign
//! conventions, FIFO semantics, affinity-cache clocking and quadrant
//! packing are all restated from scratch, so a transcription error in
//! either implementation surfaces as a lockstep divergence.

use std::collections::{HashMap, VecDeque};

use execmig_core::{ControllerConfig, DeltaMode, SignMode, SplitWays, TableConfig};

/// `sign(x)` per the paper: `+1` for `x ≥ 0`, `−1` otherwise.
fn sign(v: i64) -> i64 {
    if v >= 0 {
        1
    } else {
        -1
    }
}

/// 0 for the `+` subset, 1 for `−` (the workspace's stable indexing).
fn side_index(v: i64) -> usize {
    usize::from(v < 0)
}

/// Saturate `v` to an `bits`-bit two's-complement range.
fn clamp(v: i64, bits: u32) -> i64 {
    let lo = -(1i64 << (bits - 1));
    let hi = (1i64 << (bits - 1)) - 1;
    v.clamp(lo, hi)
}

/// `bits[A_R] = bits[O_e] + ceil(log2 |R|)` (§3.2), with the logarithm
/// computed by the obvious loop.
fn ar_bits(affinity_bits: u32, r_window: usize) -> u32 {
    let mut log2 = 0u32;
    while (1usize << log2) < r_window {
        log2 += 1;
    }
    affinity_bits + log2
}

/// The per-way skewing keys of the affinity cache (distinct from the
/// L2's keys; re-stated, not imported — they are part of the modelled
/// hardware).
const TABLE_SKEW_KEYS: [u64; 8] = [
    0x2545_f491_4f6c_dd1d,
    0x27d4_eb2f_1656_67c5,
    0x1656_67b1_9e37_79f9,
    0x85eb_ca6b_27d4_eb2f,
    0xc2b2_ae3d_27d4_eb4f,
    0x9e37_79b1_85eb_ca87,
    0x1b87_3593_27d4_eb2d,
    0xff51_afd7_ed55_8ccd,
];

/// One entry of the finite affinity cache.
#[derive(Debug, Clone, Copy)]
pub struct RefTableEntry {
    /// The sampled line.
    line: u64,
    o_e: i64,
    valid: bool,
    last: u64,
}

/// The affinity cache holding `O_e` per sampled line — either unlimited
/// (§4.1) or a finite skewed-associative structure with age-based
/// replacement (§4.2), restated naively.
#[derive(Debug, Clone)]
pub enum RefTable {
    /// Unlimited storage.
    Unbounded {
        /// `line → O_e`.
        map: HashMap<u64, i64>,
        /// Reads that found an entry.
        hits: u64,
        /// Reads that installed a fresh entry.
        misses: u64,
    },
    /// Finite skewed-associative cache.
    Skewed {
        /// Way-major entry array (`entries[way * sets + set]`).
        entries: Vec<RefTableEntry>,
        /// Sets per way.
        sets: u64,
        /// Associativity.
        ways: u32,
        /// Access clock for age-based replacement.
        clock: u64,
        /// Reads that found an entry.
        hits: u64,
        /// Reads that installed a fresh entry.
        misses: u64,
    },
}

impl RefTable {
    /// Builds the table from the shared configuration.
    pub fn new(config: TableConfig) -> Self {
        match config {
            TableConfig::Unbounded => RefTable::Unbounded {
                map: HashMap::new(),
                hits: 0,
                misses: 0,
            },
            TableConfig::Skewed { entries, ways } => {
                assert!(ways > 0 && (ways as usize) <= TABLE_SKEW_KEYS.len());
                assert!(entries % ways as u64 == 0);
                let sets = entries / ways as u64;
                assert!(sets.is_power_of_two());
                RefTable::Skewed {
                    entries: vec![
                        RefTableEntry {
                            line: 0,
                            o_e: 0,
                            valid: false,
                            last: 0,
                        };
                        entries as usize
                    ],
                    sets,
                    ways,
                    clock: 0,
                    hits: 0,
                    misses: 0,
                }
            }
        }
    }

    /// `(hits, misses)` of the read path.
    pub fn stats(&self) -> (u64, u64) {
        match self {
            RefTable::Unbounded { hits, misses, .. } | RefTable::Skewed { hits, misses, .. } => {
                (*hits, *misses)
            }
        }
    }

    /// The skewing hash of `line` in `way` (splitmix-style finalizer,
    /// restated from the hardware definition).
    fn index(sets: u64, line: u64, way: u32) -> usize {
        let mut z = line ^ TABLE_SKEW_KEYS[way as usize];
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 31;
        (way as u64 * sets + (z & (sets - 1))) as usize
    }

    fn find(entries: &[RefTableEntry], sets: u64, ways: u32, line: u64) -> Option<usize> {
        (0..ways)
            .map(|w| Self::index(sets, line, w))
            .find(|&i| entries[i].valid && entries[i].line == line)
    }

    /// Age-based victim: first invalid way, else oldest `last`.
    fn victim(entries: &[RefTableEntry], sets: u64, ways: u32, line: u64) -> usize {
        let mut victim = Self::index(sets, line, 0);
        for w in 0..ways {
            let i = Self::index(sets, line, w);
            if !entries[i].valid {
                return i;
            }
            if entries[i].last < entries[victim].last {
                victim = i;
            }
        }
        victim
    }

    /// Reads `O_e`; on a miss installs `reset` (the caller's `∆`, so
    /// the fresh entry has `A_e = 0`) and returns it.
    pub fn read_or_insert(&mut self, line: u64, reset: i64) -> i64 {
        match self {
            RefTable::Unbounded { map, hits, misses } => {
                if let Some(&v) = map.get(&line) {
                    *hits += 1;
                    v
                } else {
                    *misses += 1;
                    map.insert(line, reset);
                    reset
                }
            }
            RefTable::Skewed {
                entries,
                sets,
                ways,
                clock,
                hits,
                misses,
            } => {
                *clock += 1;
                if let Some(i) = Self::find(entries, *sets, *ways, line) {
                    *hits += 1;
                    entries[i].last = *clock;
                    return entries[i].o_e;
                }
                *misses += 1;
                let i = Self::victim(entries, *sets, *ways, line);
                entries[i] = RefTableEntry {
                    line,
                    o_e: reset,
                    valid: true,
                    last: *clock,
                };
                reset
            }
        }
    }

    /// Writes `O_e` back on R-window exit, allocating if the entry was
    /// evicted in the meantime. Ticks the age clock (a write is an
    /// access to the structure).
    pub fn write(&mut self, line: u64, o_e: i64) {
        match self {
            RefTable::Unbounded { map, .. } => {
                map.insert(line, o_e);
            }
            RefTable::Skewed {
                entries,
                sets,
                ways,
                clock,
                ..
            } => {
                *clock += 1;
                match Self::find(entries, *sets, *ways, line) {
                    Some(i) => {
                        entries[i].o_e = o_e;
                        entries[i].last = *clock;
                    }
                    None => {
                        let i = Self::victim(entries, *sets, *ways, line);
                        entries[i] = RefTableEntry {
                            line,
                            o_e,
                            valid: true,
                            last: *clock,
                        };
                    }
                }
            }
        }
    }
}

/// Figure 2's datapath, written from the figure: a FIFO R-window (the
/// §3.2 relaxation of the distinct-LRU definition), the `A_R` register,
/// and the postponed-update counter `∆`.
#[derive(Debug, Clone)]
pub struct RefMechanism {
    affinity_bits: u32,
    capacity: usize,
    sign_mode: SignMode,
    delta_mode: DeltaMode,
    /// FIFO of `(element, I_e)`: push at the back, evict at the front.
    window: VecDeque<(u64, i64)>,
    ar: i64,
    delta: i64,
    ar_bits: u32,
    delta_bits: u32,
}

impl RefMechanism {
    /// Builds a mechanism with a `capacity`-entry R-window.
    pub fn new(
        affinity_bits: u32,
        capacity: usize,
        sign_mode: SignMode,
        delta_mode: DeltaMode,
    ) -> Self {
        assert!(capacity > 0, "R-window must be non-empty");
        RefMechanism {
            affinity_bits,
            capacity,
            sign_mode,
            delta_mode,
            window: VecDeque::with_capacity(capacity),
            ar: 0,
            delta: 0,
            ar_bits: ar_bits(affinity_bits, capacity),
            delta_bits: affinity_bits + 1,
        }
    }

    /// Current `A_R` register value.
    pub fn ar(&self) -> i64 {
        self.ar
    }

    /// Current `∆`.
    pub fn delta(&self) -> i64 {
        self.delta
    }

    /// One reference to `e`: reads/writes the shared affinity `table`,
    /// rotates the FIFO, updates `A_R` and `∆`; returns `A_e(t)`.
    pub fn on_reference(&mut self, e: u64, table: &mut RefTable) -> i64 {
        let bits = self.affinity_bits;
        match self.delta_mode {
            DeltaMode::Wide => {
                let o_e = table.read_or_insert(e, self.delta);
                let a_e = clamp(o_e - self.delta, bits);
                let i_e = a_e - self.delta;
                let a_f = if self.window.len() < self.capacity {
                    self.window.push_back((e, i_e));
                    0
                } else {
                    let (f, i_f) = self.window.pop_front().expect("window is full");
                    self.window.push_back((e, i_e));
                    let a_f = clamp(i_f + self.delta, bits);
                    table.write(f, a_f + self.delta);
                    a_f
                };
                self.ar += a_e - a_f;
                let sign_arg = match self.sign_mode {
                    SignMode::TrueSum => self.ar + self.window.len() as i64 * self.delta,
                    SignMode::RegisterOnly => self.ar,
                };
                self.delta += sign(sign_arg);
                a_e
            }
            DeltaMode::Saturating17 => {
                let o_e = table.read_or_insert(e, clamp(self.delta, bits));
                let a_e = clamp(o_e - self.delta, bits);
                let i_e = clamp(o_e - 2 * self.delta, bits);
                if self.window.len() < self.capacity {
                    self.window.push_back((e, i_e));
                    self.ar = clamp(self.ar + a_e, self.ar_bits);
                } else {
                    let (f, i_f) = self.window.pop_front().expect("window is full");
                    self.window.push_back((e, i_e));
                    let o_f = clamp(i_f + 2 * self.delta, bits);
                    table.write(f, o_f);
                    self.ar = clamp(self.ar + (o_e - o_f), self.ar_bits);
                }
                let sign_arg = match self.sign_mode {
                    SignMode::TrueSum => self.ar + self.window.len() as i64 * self.delta,
                    SignMode::RegisterOnly => self.ar,
                };
                self.delta = clamp(self.delta + sign(sign_arg), self.delta_bits);
                a_e
            }
        }
    }
}

/// The §3.4 transition filter: an up-down saturating counter whose sign
/// designates the executing subset.
#[derive(Debug, Clone)]
pub struct RefFilter {
    value: i64,
    bits: u32,
}

impl RefFilter {
    /// A zeroed filter of the given width.
    pub fn new(bits: u32) -> Self {
        RefFilter { value: 0, bits }
    }

    /// `F ← F + A_e`, saturating.
    pub fn update(&mut self, a_e: i64) {
        self.value = clamp(self.value + a_e, self.bits);
    }

    /// Current `F`.
    pub fn value(&self) -> i64 {
        self.value
    }

    /// 0 when `F ≥ 0`, 1 otherwise.
    pub fn side(&self) -> usize {
        side_index(self.value)
    }
}

/// A literal 2-way splitter: one mechanism, one transition filter.
#[derive(Debug, Clone)]
pub struct RefSplitter2 {
    mechanism: RefMechanism,
    filter: RefFilter,
    table: RefTable,
    current: usize,
}

impl RefSplitter2 {
    /// Builds the splitter from the shared controller configuration.
    pub fn new(config: &ControllerConfig) -> Self {
        RefSplitter2 {
            mechanism: RefMechanism::new(
                config.affinity_bits,
                config.r_window_x,
                config.sign_mode,
                config.delta_mode,
            ),
            filter: RefFilter::new(config.filter_bits),
            table: RefTable::new(config.table),
            current: 0,
        }
    }

    /// One reference; returns the designated subset index (0 or 1).
    pub fn on_reference_filtered(&mut self, line: u64, update_filter: bool) -> usize {
        let a_e = self.mechanism.on_reference(line, &mut self.table);
        if update_filter {
            self.filter.update(a_e);
        }
        let side = self.filter.side();
        self.current = side;
        side
    }

    /// Current `F`.
    pub fn filter_value(&self) -> i64 {
        self.filter.value()
    }

    /// The top-level `A_R`.
    pub fn ar(&self) -> i64 {
        self.mechanism.ar()
    }

    /// The designated subset index.
    pub fn current_subset(&self) -> usize {
        self.current
    }

    /// Affinity-table `(hits, misses)`.
    pub fn table_stats(&self) -> (u64, u64) {
        self.table.stats()
    }
}

/// The §3.6 recursive 4-way splitter, written from the text: a sampled
/// line with odd `H(e)` updates `X`, one with even `H(e)` updates
/// `Y[sign(F_X)]`; the designated quadrant of *any* reference is
/// `(sign(F_X), sign(F_{Y[sign(F_X)]}))`, packed as
/// `x_index << 1 | y_index`.
#[derive(Debug, Clone)]
pub struct RefSplitter4 {
    x: RefMechanism,
    /// Indexed by the subset index of `sign(F_X)`.
    y: [RefMechanism; 2],
    f_x: RefFilter,
    f_y: [RefFilter; 2],
    /// Lines with `line mod 31 < threshold` are sampled (§3.5).
    threshold: u64,
    table: RefTable,
    current: usize,
    /// References that updated an affinity mechanism.
    sampled_refs: u64,
}

impl RefSplitter4 {
    /// Builds the splitter from the shared controller configuration.
    pub fn new(config: &ControllerConfig) -> Self {
        let mech =
            |r| RefMechanism::new(config.affinity_bits, r, config.sign_mode, config.delta_mode);
        RefSplitter4 {
            x: mech(config.r_window_x),
            // §4.1: |R_Y| = |R_X| / 2.
            y: [mech(config.r_window_x / 2), mech(config.r_window_x / 2)],
            f_x: RefFilter::new(config.filter_bits),
            f_y: [
                RefFilter::new(config.filter_bits),
                RefFilter::new(config.filter_bits),
            ],
            threshold: config.sampler.threshold(),
            table: RefTable::new(config.table),
            current: 0,
            sampled_refs: 0,
        }
    }

    /// One reference; returns the designated quadrant index (0..4).
    pub fn on_reference_filtered(&mut self, line: u64, update_filter: bool) -> usize {
        let h = line % 31;
        if h < self.threshold {
            self.sampled_refs += 1;
            if h % 2 == 1 {
                let a_e = self.x.on_reference(line, &mut self.table);
                if update_filter {
                    self.f_x.update(a_e);
                }
            } else {
                let yi = self.f_x.side();
                let a_e = self.y[yi].on_reference(line, &mut self.table);
                if update_filter {
                    self.f_y[yi].update(a_e);
                }
            }
        }
        let xi = self.f_x.side();
        let yi = self.f_y[xi].side();
        let q = (xi << 1) | yi;
        self.current = q;
        q
    }

    /// Current `F_X`.
    pub fn filter_value(&self) -> i64 {
        self.f_x.value()
    }

    /// Current `F_{Y[side]}`.
    pub fn y_filter_value(&self, side: usize) -> i64 {
        self.f_y[side].value()
    }

    /// The top-level (`X`) `A_R`.
    pub fn ar(&self) -> i64 {
        self.x.ar()
    }

    /// The designated quadrant index.
    pub fn current_subset(&self) -> usize {
        self.current
    }

    /// References that updated an affinity mechanism.
    pub fn sampled_references(&self) -> u64 {
        self.sampled_refs
    }

    /// Affinity-table `(hits, misses)`.
    pub fn table_stats(&self) -> (u64, u64) {
        self.table.stats()
    }
}

#[derive(Debug, Clone)]
enum RefSplit {
    Two(RefSplitter2),
    Four(RefSplitter4),
}

/// The §2.2 migration controller, restated: monitors L1-miss requests,
/// applies L2/pointer filtering to the transition-filter updates, and
/// designates the executing core.
#[derive(Debug, Clone)]
pub struct RefController {
    l2_filter: bool,
    pointer_filter: bool,
    inner: RefSplit,
    current_core: usize,
    /// Requests monitored.
    pub requests: u64,
    /// Requests flagged as L2 misses.
    pub l2_misses: u64,
    /// Designated-core changes.
    pub migrations: u64,
}

impl RefController {
    /// Builds the controller from the shared configuration.
    ///
    /// # Panics
    ///
    /// Panics on [`SplitWays::Eight`], which the reference model does
    /// not cover (the differ never configures it).
    pub fn new(config: &ControllerConfig) -> Self {
        let inner = match config.ways {
            SplitWays::Two => RefSplit::Two(RefSplitter2::new(config)),
            SplitWays::Four => RefSplit::Four(RefSplitter4::new(config)),
            SplitWays::Eight => {
                panic!("8-way splitting is not supported by the reference model")
            }
        };
        RefController {
            l2_filter: config.l2_filter,
            pointer_filter: config.pointer_filter,
            inner,
            current_core: 0,
            requests: 0,
            l2_misses: 0,
            migrations: 0,
        }
    }

    /// Processes one monitored request; returns the core that should
    /// execute next.
    pub fn on_request_tagged(&mut self, line: u64, l2_miss: bool, pointer: bool) -> usize {
        self.requests += 1;
        if l2_miss {
            self.l2_misses += 1;
        }
        let update_filter = (!self.l2_filter || l2_miss) && (!self.pointer_filter || pointer);
        let core = match &mut self.inner {
            RefSplit::Two(s) => s.on_reference_filtered(line, update_filter),
            RefSplit::Four(s) => s.on_reference_filtered(line, update_filter),
        };
        if core != self.current_core {
            self.migrations += 1;
            self.current_core = core;
        }
        core
    }

    /// The currently designated core.
    pub fn current_core(&self) -> usize {
        self.current_core
    }

    /// The top-level filter's `F` value.
    pub fn filter_value(&self) -> i64 {
        match &self.inner {
            RefSplit::Two(s) => s.filter_value(),
            RefSplit::Four(s) => s.filter_value(),
        }
    }

    /// The top-level mechanism's `A_R`.
    pub fn ar(&self) -> i64 {
        match &self.inner {
            RefSplit::Two(s) => s.ar(),
            RefSplit::Four(s) => s.ar(),
        }
    }

    /// The designated subset index.
    pub fn current_subset(&self) -> usize {
        match &self.inner {
            RefSplit::Two(s) => s.current_subset(),
            RefSplit::Four(s) => s.current_subset(),
        }
    }

    /// Affinity-table `(hits, misses)`.
    pub fn table_stats(&self) -> (u64, u64) {
        match &self.inner {
            RefSplit::Two(s) => s.table_stats(),
            RefSplit::Four(s) => s.table_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use execmig_core::{
        AffinityTable, AnyAffinityTable, Mechanism, MechanismConfig, MigrationController, Sampler,
        SkewedAffinityCache, SplitterTree, SplitterTreeConfig, UnboundedAffinityTable,
    };

    #[test]
    fn mechanism_matches_optimized_on_circular() {
        for delta_mode in [DeltaMode::Wide, DeltaMode::Saturating17] {
            for sign_mode in [SignMode::TrueSum, SignMode::RegisterOnly] {
                let mut fast = Mechanism::new(MechanismConfig {
                    affinity_bits: 16,
                    r_window: 100,
                    sign_mode,
                    delta_mode,
                });
                let mut fast_table = UnboundedAffinityTable::new();
                let mut naive = RefMechanism::new(16, 100, sign_mode, delta_mode);
                let mut naive_table = RefTable::new(TableConfig::Unbounded);
                for t in 0..200_000u64 {
                    let e = t % 3000;
                    let a = fast.on_reference(e, &mut fast_table);
                    let b = naive.on_reference(e, &mut naive_table);
                    assert_eq!(a, b, "A_e diverged at t={t} ({sign_mode:?}/{delta_mode:?})");
                    assert_eq!(fast.ar(), naive.ar(), "A_R diverged at t={t}");
                    assert_eq!(fast.delta(), naive.delta(), "∆ diverged at t={t}");
                }
            }
        }
    }

    #[test]
    fn skewed_table_matches_optimized() {
        let mut fast = SkewedAffinityCache::new(256, 4);
        let mut naive = RefTable::new(TableConfig::Skewed {
            entries: 256,
            ways: 4,
        });
        let mut x = 7u64;
        for i in 0..50_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (x >> 33) % 2000;
            if x & 1 == 0 {
                let reset = (x % 100) as i64 - 50;
                assert_eq!(
                    fast.read_or_insert(line, reset),
                    naive.read_or_insert(line, reset),
                    "read step {i}"
                );
            } else {
                let v = (x % 1000) as i64 - 500;
                fast.write(line, v);
                naive.write(line, v);
            }
        }
        assert_eq!(
            (fast.stats().hits, fast.stats().misses),
            naive.stats(),
            "table stats"
        );
    }

    #[test]
    fn depth_two_tree_matches_ref_splitter4_with_sampling() {
        let config = ControllerConfig {
            sampler: Sampler::quarter(),
            table: TableConfig::Skewed {
                entries: 512,
                ways: 4,
            },
            ..ControllerConfig::paper_4core()
        };
        let mut fast = SplitterTree::with_table(
            SplitterTreeConfig {
                depth: 2,
                affinity_bits: config.affinity_bits,
                r_window_top: config.r_window_x,
                filter_bits: config.filter_bits,
                sampler: config.sampler,
                sign_mode: config.sign_mode,
                delta_mode: config.delta_mode,
            },
            AnyAffinityTable::Skewed(SkewedAffinityCache::new(512, 4)),
        );
        let mut naive = RefSplitter4::new(&config);
        let mut x = 3u64;
        for i in 0..200_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (x >> 33) % 8000;
            let update = x & 3 != 0;
            let a = fast.on_reference_filtered(line, update);
            let b = naive.on_reference_filtered(line, update);
            assert_eq!(a, b, "quadrant diverged at step {i}");
            assert_eq!(fast.filter_value(), naive.filter_value(), "F_X step {i}");
        }
        assert_eq!(fast.sampled_references(), naive.sampled_references());
        let t = fast.table_stats();
        assert_eq!((t.hits, t.misses), naive.table_stats());
    }

    #[test]
    fn controller_matches_optimized() {
        let config = ControllerConfig {
            table: TableConfig::Skewed {
                entries: 512,
                ways: 4,
            },
            ..ControllerConfig::paper_4core()
        };
        let mut fast = MigrationController::new(config);
        let mut naive = RefController::new(&config);
        let mut x = 11u64;
        for i in 0..200_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (x >> 33) % 6000;
            let l2_miss = x & 7 == 0;
            let pointer = x & 3 == 0;
            assert_eq!(
                fast.on_request_tagged(line, l2_miss, pointer),
                naive.on_request_tagged(line, l2_miss, pointer),
                "designated core diverged at step {i}"
            );
        }
        let s = fast.stats();
        assert_eq!(
            (s.requests, s.l2_misses, s.migrations),
            (naive.requests, naive.l2_misses, naive.migrations)
        );
    }

    #[test]
    fn fifo_relaxation_stays_within_sanction_on_duplicate_heavy_streams() {
        // The §3.2 FIFO relaxation lets a re-referenced element occupy
        // several window slots. Drive the hardware mechanism and the
        // distinct-LRU Definition-1 oracle with a duplicate-heavy
        // stream (every element referenced in a burst of 3, so ~2/3 of
        // pushes duplicate a slot already in the window): both must
        // still split the working set into balanced halves — the drift
        // is the sanctioned relaxation, not an A_R accounting bug.
        use execmig_core::{IdealAffinity, Side};
        let n = 400u64;
        let mut ideal = IdealAffinity::new(50);
        let mut mech = Mechanism::new(MechanismConfig {
            r_window: 50,
            ..MechanismConfig::default()
        });
        let mut table = UnboundedAffinityTable::new();
        for t in 0..120_000u64 {
            let e = (t / 3) % n;
            ideal.on_reference(e);
            mech.on_reference(e, &mut table);
        }
        let fi = ideal.positive_fraction(0..n);
        let fm = (0..n)
            .filter(|&e| mech.side_of(e, &table) == Some(Side::Plus))
            .count() as f64
            / n as f64;
        assert!((0.3..=0.7).contains(&fi), "ideal fraction {fi}");
        assert!((0.3..=0.7).contains(&fm), "mechanism fraction {fm}");
    }

    #[test]
    #[should_panic(expected = "not supported by the reference model")]
    fn eight_way_is_rejected() {
        RefController::new(&ControllerConfig {
            ways: SplitWays::Eight,
            ..ControllerConfig::paper_4core()
        });
    }
}
