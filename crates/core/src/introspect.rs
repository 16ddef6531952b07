//! Derived statistics and configuration serialisation.
//!
//! Two kinds of convenience views live here rather than next to their
//! types:
//!
//! - **Float-valued derived metrics** (`miss_rate`, `transition_rate`,
//!   `positive_fraction`). The fixed-point modules (`sat`, `window`,
//!   `filter`, `table`, `mechanism`, `splitter2`, `tree`) carry a
//!   hot-path rule — lint E005 — that forbids any `f32`/`f64`
//!   arithmetic in them, keeping "the affinity algorithm is pure
//!   saturating integer arithmetic" literally checkable. Ratio views
//!   over their counters are introspection, not algorithm, so they are
//!   implemented in this file.
//! - **`ToJson` impls for every exported config struct** (lint E008),
//!   so run manifests can embed the exact configuration of any
//!   experiment.

use crate::controller::{ControllerConfig, SplitWays, TableConfig};
use crate::mechanism::{DeltaMode, MechanismConfig, SignMode};
use crate::sampler::Sampler;
use crate::splitter2::{Splitter2, SplitterConfig, SplitterStats};
use crate::table::{AffinityTable, TableStats};
use crate::tree::SplitterTreeConfig;
use crate::Side;
use execmig_obs::{impl_to_json, Json, ToJson};

impl TableStats {
    /// Fraction of reads that missed; 0 when nothing was read.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl SplitterStats {
    /// Transitions per reference; 0 when nothing was processed.
    pub fn transition_rate(&self) -> f64 {
        if self.references == 0 {
            0.0
        } else {
            self.transitions as f64 / self.references as f64
        }
    }
}

impl<T: AffinityTable> Splitter2<T> {
    /// Fraction of the elements in `range` whose affinity is
    /// non-negative; untracked elements are skipped.
    pub fn positive_fraction(&self, range: std::ops::Range<u64>) -> f64 {
        let mut tracked = 0u64;
        let mut positive = 0u64;
        for e in range {
            if let Some(a) = self.affinity_of(e) {
                tracked += 1;
                if Side::of(a) == Side::Plus {
                    positive += 1;
                }
            }
        }
        if tracked == 0 {
            0.0
        } else {
            positive as f64 / tracked as f64
        }
    }
}

impl ToJson for SignMode {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                SignMode::TrueSum => "true_sum",
                SignMode::RegisterOnly => "register_only",
            }
            .to_string(),
        )
    }
}

impl ToJson for DeltaMode {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                DeltaMode::Wide => "wide",
                DeltaMode::Saturating17 => "saturating17",
            }
            .to_string(),
        )
    }
}

impl ToJson for SplitWays {
    fn to_json(&self) -> Json {
        Json::UInt(self.count() as u64)
    }
}

impl ToJson for TableConfig {
    fn to_json(&self) -> Json {
        match self {
            TableConfig::Unbounded => Json::object().field("kind", "unbounded"),
            TableConfig::Skewed { entries, ways } => Json::object()
                .field("kind", "skewed")
                .field("entries", *entries)
                .field("ways", *ways),
        }
    }
}

impl ToJson for Sampler {
    fn to_json(&self) -> Json {
        Json::object().field("sampled_below", self.threshold())
    }
}

impl_to_json!(MechanismConfig {
    affinity_bits,
    r_window,
    sign_mode,
    delta_mode,
});

impl_to_json!(SplitterConfig {
    affinity_bits,
    r_window,
    filter_bits,
    sign_mode,
    delta_mode,
});

impl_to_json!(SplitterTreeConfig {
    depth,
    affinity_bits,
    r_window_top,
    filter_bits,
    sampler,
    sign_mode,
    delta_mode,
});

impl_to_json!(ControllerConfig {
    ways,
    affinity_bits,
    r_window_x,
    filter_bits,
    sampler,
    table,
    l2_filter,
    pointer_filter,
    sign_mode,
    delta_mode,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_and_transition_rate_handle_zero() {
        assert_eq!(TableStats::default().miss_rate(), 0.0);
        assert_eq!(SplitterStats::default().transition_rate(), 0.0);
        let t = TableStats { hits: 3, misses: 1 };
        assert!((t.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn enums_serialise_as_tags() {
        assert_eq!(SignMode::TrueSum.to_json().compact(), r#""true_sum""#);
        assert_eq!(
            DeltaMode::Saturating17.to_json().compact(),
            r#""saturating17""#
        );
        assert_eq!(SplitWays::Four.to_json().compact(), "4");
        assert_eq!(
            TableConfig::Unbounded.to_json().compact(),
            r#"{"kind":"unbounded"}"#
        );
        let skewed = TableConfig::Skewed {
            entries: 8 << 10,
            ways: 4,
        };
        assert_eq!(
            skewed.to_json().compact(),
            r#"{"kind":"skewed","entries":8192,"ways":4}"#
        );
    }

    #[test]
    fn paper_config_roundtrips_key_fields() {
        let j = ControllerConfig::paper_4core().to_json();
        assert_eq!(j.get("ways"), Some(&Json::UInt(4)));
        assert_eq!(j.get("filter_bits"), Some(&Json::UInt(18)));
        assert_eq!(j.get("l2_filter"), Some(&Json::Bool(true)));
        assert_eq!(
            j.get("sampler").and_then(|s| s.get("sampled_below")),
            Some(&Json::UInt(8))
        );
        assert_eq!(j.get("r_window_x"), Some(&Json::UInt(128)));
        assert_eq!(j.get("r_window_y"), None);
        let j = SplitterTreeConfig::default().to_json();
        assert_eq!(j.get("depth"), Some(&Json::UInt(3)));
        let j = MechanismConfig::default().to_json();
        assert_eq!(j.get("sign_mode"), Some(&Json::Str("true_sum".into())));
        let j = SplitterConfig::default().to_json();
        assert_eq!(j.get("filter_bits"), Some(&Json::Null));
    }
}
