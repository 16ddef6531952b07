#![warn(missing_docs)]

//! The paper's contribution: the **affinity algorithm** and the
//! **migration controller** (Michaud, HPCA 2004, §3).
//!
//! # The problem
//!
//! Distribute the working set of a sequential program over several L2
//! caches so the program benefits from the aggregate capacity, while
//! migrating execution between cores as rarely as possible. Viewed as
//! graph partitioning this is NP-hard; the paper instead proposes an
//! online mechanism simple enough for hardware.
//!
//! # The affinity algorithm (§3.2)
//!
//! Every working-set element `e` (a cache line) carries a signed
//! *affinity* `A_e`. Let `R` be the `|R|` most recently referenced
//! elements and `A_R = Σ_{e∈R} A_e`. On each reference:
//!
//! ```text
//! A_e(t+1) = A_e(t) + sign(A_R(t))   if e ∈ R
//! A_e(t+1) = A_e(t) − sign(A_R(t))   if e ∉ R
//! ```
//!
//! A *local positive feedback* pushes elements that are in `R` together
//! toward the same sign, while a *global negative feedback* balances the
//! two signs across the working set — splitting it into two halves with
//! few transitions between them.
//!
//! The hardware implementation (Figure 2) postpones the per-element
//! updates using a global counter `∆` and per-element stored values
//! `O_e = A_e + ∆` (while out of `R`) and `I_e = A_e − ∆` (while in
//! `R`), all in saturating 16-bit arithmetic. [`Mechanism`] implements
//! exactly that datapath; [`SignMode`] selects between the figure's
//! register (`sign(A_R-register)`) and the algebraically exact
//! `sign(register + |R|·∆)`.
//!
//! # Transition filtering, sampling, 4-way splitting (§3.4–§3.6)
//!
//! - [`TransitionFilter`]: an up-down saturating counter `F += A_e`;
//!   the executing subset is `sign(F)`, which rate-limits migrations on
//!   unsplittable (random) working sets.
//! - [`Sampler`]: `H(e) = e mod 31`; only lines with `H(e) < 8` get
//!   affinity-cache entries (25 % sampling), the rest rely on the filter.
//! - [`SplitterTree`]: the one recursive splitter — `depth` levels of
//!   2-way mechanisms over one affinity table. At depth 2 (the paper's
//!   4-way scheme) mechanism `X` handles odd-`H` lines, `Y[sign(F_X)]`
//!   the even-`H` ones, and the subset is
//!   `(sign(F_X), sign(F_{Y[sign(F_X)]}))`; depth 1 is 2-way, depth 3
//!   the §6 8-way extension.
//! - [`MigrationController`]: ties it all together behind the L1-miss
//!   request stream, with optional *L2 filtering* (filter updates only on
//!   L2 misses) so "a migration can happen only upon a L2 miss".
//!
//! # Example: split a circular working set
//!
//! ```
//! use execmig_core::{Splitter2, SplitterConfig};
//!
//! let mut s = Splitter2::new(SplitterConfig {
//!     r_window: 100,
//!     ..SplitterConfig::default()
//! });
//! // Circular(4000): the paper's canonical splittable stream.
//! for t in 0..1_000_000u64 {
//!     s.on_reference(t % 4000);
//! }
//! let positive = s.positive_fraction(0..4000);
//! assert!((0.35..=0.65).contains(&positive), "unbalanced: {positive}");
//! assert!(s.stats().transition_rate() < 1.0 / 200.0);
//! ```

pub mod controller;
pub mod filter;
pub mod introspect;
pub mod invariants;
pub mod mechanism;
pub mod reference;
pub mod sampler;
pub mod sat;
pub mod splitter2;
pub mod table;
pub mod tree;
pub mod window;

pub use controller::{
    ControllerConfig, ControllerStats, MigrationController, SplitWays, TableConfig,
};
pub use filter::TransitionFilter;
pub use mechanism::{DeltaMode, Mechanism, MechanismConfig, SignMode};
pub use reference::IdealAffinity;
pub use sampler::Sampler;
pub use splitter2::{Splitter2, SplitterConfig, SplitterStats};
pub use table::{
    AffinityTable, AnyAffinityTable, SkewedAffinityCache, TableStats, UnboundedAffinityTable,
};
pub use tree::{SplitterTree, SplitterTreeConfig};
pub use window::RWindow;

/// Which of the two subsets an element or the execution belongs to.
///
/// `Plus` corresponds to `sign(·) = +1` (the paper defines
/// `sign(x) = 1` for `x ≥ 0`), `Minus` to `−1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Non-negative affinity/filter.
    Plus,
    /// Negative affinity/filter.
    Minus,
}

impl Side {
    /// The side of a signed value, per the paper's `sign` convention.
    ///
    /// ```
    /// use execmig_core::Side;
    /// assert_eq!(Side::of(0), Side::Plus);
    /// assert_eq!(Side::of(17), Side::Plus);
    /// assert_eq!(Side::of(-1), Side::Minus);
    /// ```
    pub const fn of(value: i64) -> Side {
        if value >= 0 {
            Side::Plus
        } else {
            Side::Minus
        }
    }

    /// +1 or −1.
    pub const fn sign(self) -> i64 {
        match self {
            Side::Plus => 1,
            Side::Minus => -1,
        }
    }

    /// 0 for `Plus`, 1 for `Minus` (stable subset indexing).
    pub const fn index(self) -> usize {
        match self {
            Side::Plus => 0,
            Side::Minus => 1,
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::Plus => f.write_str("+"),
            Side::Minus => f.write_str("-"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_of_zero_is_plus() {
        assert_eq!(Side::of(0), Side::Plus);
        assert_eq!(Side::of(i64::MIN), Side::Minus);
        assert_eq!(Side::of(i64::MAX), Side::Plus);
    }

    #[test]
    fn side_sign_and_index() {
        assert_eq!(Side::Plus.sign(), 1);
        assert_eq!(Side::Minus.sign(), -1);
        assert_eq!(Side::Plus.index(), 0);
        assert_eq!(Side::Minus.index(), 1);
    }

    #[test]
    fn side_display() {
        assert_eq!(Side::Plus.to_string(), "+");
        assert_eq!(Side::Minus.to_string(), "-");
    }
}
