//! Generalised recursive working-set splitting: 2^depth subsets.
//!
//! §3.6 builds 4-way splitting from two levels of 2-way mechanisms and
//! conjectures in §6 that "it is possible to adapt it to a larger
//! number of cores". [`SplitterTree`] realises that: `depth` levels of
//! mechanisms, level `l` holding `2^l` of them (one per sign-path
//! through the upper levels). Sampled lines are distributed over the
//! levels by their hash, generalising the paper's odd/even rule:
//!
//! - level `l < depth−1` processes lines with `H(e) ≡ 2^l (mod 2^{l+1})`
//!   (half of the remaining lines at each level),
//! - the last level processes the rest (`H(e) ≡ 0 (mod 2^{depth−1})`).
//!
//! For `depth = 2` this is exactly the paper's scheme: odd hashes go to
//! `X`, even ones to `Y[sign(F_X)]`. R-windows halve per level
//! (`|R_X| = 128`, `|R_Y| = 64`, `|R_Z| = 32`, …).
//!
//! The [`MigrationController`](crate::MigrationController) runs one
//! tree for every split degree: depth 1, 2 and 3 for 2-, 4- and 8-way.

use crate::filter::TransitionFilter;
use crate::mechanism::{DeltaMode, Mechanism, MechanismConfig, SignMode};
use crate::sampler::Sampler;
use crate::splitter2::SplitterStats;
use crate::table::{AffinityTable, TableStats, UnboundedAffinityTable};
use crate::Side;

/// Configuration of a [`SplitterTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitterTreeConfig {
    /// Levels of recursion; the tree produces `2^depth` subsets.
    pub depth: u32,
    /// Bits of the affinity values (paper: 16).
    pub affinity_bits: u32,
    /// `|R|` of the top-level mechanism; halves per level (minimum 8).
    pub r_window_top: usize,
    /// Transition-filter width.
    pub filter_bits: u32,
    /// Which lines are sampled.
    pub sampler: Sampler,
    /// Sign source for the `∆` updates.
    pub sign_mode: SignMode,
    /// Bounding of `∆` and the stored values.
    pub delta_mode: DeltaMode,
}

impl Default for SplitterTreeConfig {
    fn default() -> Self {
        SplitterTreeConfig {
            depth: 3,
            affinity_bits: 16,
            r_window_top: 128,
            filter_bits: 20,
            sampler: Sampler::full(),
            sign_mode: SignMode::TrueSum,
            delta_mode: DeltaMode::Wide,
        }
    }
}

/// A `2^depth`-way working-set splitter.
#[derive(Debug, Clone)]
pub struct SplitterTree<T: AffinityTable = UnboundedAffinityTable> {
    depth: u32,
    /// The `2^depth − 1` mechanism+filter pairs in heap order: node 0
    /// is level 0 (`X`), and the child of `node` on side bit `b`
    /// ([`Side::index`] of its filter) is `2·node + 1 + b`. Level `l`
    /// thus holds nodes `2^l − 1 .. 2^{l+1} − 1`, one per sign-path
    /// through levels `0..l`.
    nodes: Vec<(Mechanism, TransitionFilter)>,
    sampler: Sampler,
    table: T,
    current: usize,
    stats: SplitterStats,
    sampled_refs: u64,
}

impl SplitterTree<UnboundedAffinityTable> {
    /// Builds a tree over an unbounded affinity table.
    pub fn new(config: SplitterTreeConfig) -> Self {
        SplitterTree::with_table(config, UnboundedAffinityTable::new())
    }
}

impl<T: AffinityTable> SplitterTree<T> {
    /// Builds a tree over the given affinity table.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or above 4 (16-way: beyond any plausible
    /// single-chip configuration of the paper's era), or on invalid
    /// widths.
    pub fn with_table(config: SplitterTreeConfig, table: T) -> Self {
        assert!((1..=4).contains(&config.depth), "depth must be in [1, 4]");
        let nodes = (0..config.depth)
            .flat_map(|l| {
                let mechanism = MechanismConfig {
                    affinity_bits: config.affinity_bits,
                    r_window: (config.r_window_top >> l).max(8),
                    sign_mode: config.sign_mode,
                    delta_mode: config.delta_mode,
                };
                (0..1usize << l).map(move |_| {
                    (
                        Mechanism::new(mechanism),
                        TransitionFilter::new(config.filter_bits),
                    )
                })
            })
            .collect();
        SplitterTree {
            depth: config.depth,
            nodes,
            sampler: config.sampler,
            table,
            current: 0,
            stats: SplitterStats::default(),
            sampled_refs: 0,
        }
    }

    /// Number of subsets (`2^depth`).
    pub fn subsets(&self) -> usize {
        1 << self.depth
    }

    /// The level a sampled hash is routed to: `l < depth−1` takes
    /// `H(e) ≡ 2^l (mod 2^{l+1})`, the last level the rest.
    fn level_of(&self, h: u64) -> u32 {
        h.trailing_zeros().min(self.depth - 1)
    }

    /// The node reached by following the filter signs down `levels`
    /// levels from the root.
    fn descend(&self, levels: u32) -> usize {
        let mut node = 0;
        for _ in 0..levels {
            node = 2 * node + 1 + self.nodes[node].1.side().index();
        }
        node
    }

    /// Processes a reference; returns the designated subset index in
    /// `0..2^depth`: the full sign-path, first level in the high bit.
    /// `update_filter` is false for L2 hits under L2 filtering.
    pub fn on_reference_filtered(&mut self, line: u64, update_filter: bool) -> usize {
        let h = self.sampler.hash(line);
        if h < self.sampler.threshold() {
            self.sampled_refs += 1;
            let node = self.descend(self.level_of(h));
            let (mech, filter) = &mut self.nodes[node];
            let a_e = mech.on_reference(line, &mut self.table);
            // The subset only moves when a filter does.
            if update_filter {
                filter.update(a_e);
                let subset = self.descend(self.depth) + 1 - self.subsets();
                if subset != self.current {
                    self.stats.transitions += 1;
                    self.current = subset;
                }
            }
        }
        self.stats.references += 1;
        self.current
    }

    /// Processes a reference with unconditional filter update.
    pub fn on_reference(&mut self, line: u64) -> usize {
        self.on_reference_filtered(line, true)
    }

    /// The currently designated subset.
    pub fn current_subset(&self) -> usize {
        self.current
    }

    /// Transition statistics.
    pub fn stats(&self) -> SplitterStats {
        self.stats
    }

    /// Affinity-table statistics.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// The affinity table.
    pub fn table(&self) -> &T {
        &self.table
    }

    /// References routed into some mechanism.
    pub fn sampled_references(&self) -> u64 {
        self.sampled_refs
    }

    /// The sign of level 0's filter (for cross-checks against
    /// [`Splitter2`](crate::Splitter2)).
    pub fn top_side(&self) -> Side {
        self.nodes[0].1.side()
    }

    /// Level 0's filter value (`F_X`).
    pub fn filter_value(&self) -> i64 {
        self.nodes[0].1.value()
    }

    /// Level 0's mechanism (`X`).
    pub fn mechanism(&self) -> &Mechanism {
        &self.nodes[0].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_bounds_enforced() {
        for depth in [1u32, 2, 3, 4] {
            let t = SplitterTree::new(SplitterTreeConfig {
                depth,
                ..SplitterTreeConfig::default()
            });
            assert_eq!(t.subsets(), 1 << depth);
        }
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn depth_zero_rejected() {
        SplitterTree::new(SplitterTreeConfig {
            depth: 0,
            ..SplitterTreeConfig::default()
        });
    }

    #[test]
    fn level_routing_matches_paper_for_depth_two() {
        // depth 2: odd hashes to level 0 (X), even to level 1 (Y).
        let t = SplitterTree::new(SplitterTreeConfig {
            depth: 2,
            ..SplitterTreeConfig::default()
        });
        for h in 0..31u64 {
            let expect = if h % 2 == 1 { 0 } else { 1 };
            assert_eq!(t.level_of(h), expect, "h = {h}");
        }
    }

    #[test]
    fn odd_h_updates_x_even_h_updates_y_of_fx_sign() {
        // §3.6 at depth 2: "a sampled line with odd H(e) is processed by
        // X, one with even H(e) by Y[sign(F_X)]". With the full sampler,
        // H(e) = e mod 31. A second reference to a line yields
        // A_e = −∆ ≠ 0, which moves exactly one filter — revealing the
        // routing. Nodes: 0 = X, 1 = Y[+], 2 = Y[−].
        let four_way = || {
            SplitterTree::new(SplitterTreeConfig {
                depth: 2,
                ..SplitterTreeConfig::default()
            })
        };
        let filters =
            |t: &SplitterTree| -> Vec<i64> { t.nodes.iter().map(|(_, f)| f.value()).collect() };
        // e = 2 (even H) while F_X ≥ 0 must update F_Y[+] only.
        let mut t = four_way();
        t.on_reference(2);
        t.on_reference(2);
        let f = filters(&t);
        assert_eq!(f[0], 0, "F_X must not move on even H");
        assert_ne!(f[1], 0, "F_Y[+] must move");
        assert_eq!(f[2], 0, "F_Y[−] must not move");

        // e = 1 (odd H) must update F_X only.
        let mut t = four_way();
        t.on_reference(1);
        t.on_reference(1);
        assert!(t.filter_value() < 0, "F_X must move on odd H");
        assert_eq!(filters(&t)[1..], [0, 0]);
        // ... which designates subset (−, +) = 2: X's sign in the high bit.
        assert_eq!(t.current_subset(), 2);

        // With F_X < 0, even H routes to the other leaf: F_Y[−].
        t.on_reference(2);
        t.on_reference(2);
        let f = filters(&t);
        assert_eq!(f[1], 0, "F_Y[+] must not move");
        assert_ne!(f[2], 0, "F_Y[−] must move");
    }

    #[test]
    fn four_way_splits_circular() {
        // A large circular stream should spread over all four subsets
        // and transition rarely once settled.
        let mut t = SplitterTree::new(SplitterTreeConfig {
            depth: 2,
            ..SplitterTreeConfig::default()
        });
        let n = 16_000u64;
        for i in 0..4_000_000u64 {
            t.on_reference(i % n);
        }
        let mut counts = [0u64; 4];
        let before = t.stats().transitions;
        for i in 0..n {
            counts[t.on_reference(i % n)] += 1;
        }
        let transitions = t.stats().transitions - before;
        let occupied = counts.iter().filter(|&&c| c > n / 16).count();
        assert!(
            occupied >= 3,
            "split uses only {occupied} subsets: {counts:?}"
        );
        assert!(
            transitions <= 64,
            "{transitions} transitions in one settled lap"
        );
    }

    #[test]
    fn unsampled_lines_never_touch_the_table() {
        let mut t = SplitterTree::new(SplitterTreeConfig {
            sampler: Sampler::quarter(),
            ..SplitterTreeConfig::default()
        });
        for e in (0..10_000u64).filter(|&e| !Sampler::quarter().is_sampled(e)) {
            t.on_reference(e);
        }
        assert_eq!(t.sampled_references(), 0);
        let ts = t.table_stats();
        assert_eq!(ts.hits + ts.misses, 0);
    }

    #[test]
    fn level_routing_halves_per_level_for_depth_three() {
        let t = SplitterTree::new(SplitterTreeConfig {
            depth: 3,
            ..SplitterTreeConfig::default()
        });
        let mut counts = [0u32; 3];
        for h in 0..31u64 {
            counts[t.level_of(h) as usize] += 1;
        }
        // Of the 31 residues 0..30: 15 odd, 8 ≡2 (mod 4), 8 ≡0 (mod 4).
        assert_eq!(counts, [15, 8, 8]);
    }

    #[test]
    fn eight_way_splits_circular() {
        let mut t = SplitterTree::new(SplitterTreeConfig {
            depth: 3,
            ..SplitterTreeConfig::default()
        });
        let n = 32_000u64;
        for i in 0..6_000_000u64 {
            t.on_reference(i % n);
        }
        // Steady state: one settled lap, count subsets used and
        // transitions.
        let mut used = [0u64; 8];
        let before = t.stats().transitions;
        for i in 0..n {
            used[t.on_reference(i % n)] += 1;
        }
        let transitions = t.stats().transitions - before;
        let occupied = used.iter().filter(|&&c| c > n / 32).count();
        assert!(occupied >= 5, "only {occupied} subsets used: {used:?}");
        assert!(
            transitions <= 3 * 8,
            "{transitions} transitions in one settled lap"
        );
    }

    #[test]
    fn depth_one_matches_two_way_balance() {
        let mut t = SplitterTree::new(SplitterTreeConfig {
            depth: 1,
            r_window_top: 100,
            ..SplitterTreeConfig::default()
        });
        for i in 0..1_000_000u64 {
            t.on_reference(i % 4000);
        }
        let before = t.stats().transitions;
        for i in 0..100_000u64 {
            t.on_reference(i % 4000);
        }
        let rate = (t.stats().transitions - before) as f64 / 100_000.0;
        assert!(rate < 0.01, "depth-1 tree transition rate {rate}");
    }

    #[test]
    fn l2_filtering_freezes_subsets() {
        let mut t = SplitterTree::new(SplitterTreeConfig::default());
        let first = t.on_reference_filtered(0, false);
        for i in 0..20_000u64 {
            assert_eq!(t.on_reference_filtered(i % 999, false), first);
        }
        assert_eq!(t.stats().transitions, 0);
    }

    #[test]
    fn sampling_reduces_traffic() {
        let mut full = SplitterTree::new(SplitterTreeConfig::default());
        let mut quarter = SplitterTree::new(SplitterTreeConfig {
            sampler: Sampler::quarter(),
            ..SplitterTreeConfig::default()
        });
        for i in 0..50_000u64 {
            full.on_reference(i % 7000);
            quarter.on_reference(i % 7000);
        }
        assert_eq!(full.sampled_references(), 50_000);
        // H(e) < 8 of 31 residues: ≈ 26 %.
        let frac = quarter.sampled_references() as f64 / 50_000.0;
        assert!((0.2..0.32).contains(&frac), "sampled fraction {frac}");
    }
}
