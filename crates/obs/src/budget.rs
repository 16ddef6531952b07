//! The one overhead budget: how much of a run observability may
//! consume. The hub and the wall both self-bill their cost
//! ([`HubOverhead`](crate::HubOverhead),
//! [`WallOverhead`](crate::WallOverhead)); a [`Budget`] turns either
//! total into a pass/fail [`BudgetVerdict`] against the run's length.

/// A cap on the fraction of run time observability may consume.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Maximum tolerated `overhead / run` time fraction.
    pub max_fraction: f64,
}

impl Default for Budget {
    fn default() -> Self {
        // The acceptance bar: observability under 2 % of run time.
        Budget { max_fraction: 0.02 }
    }
}

/// A budget check outcome (never panics; callers decide severity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetVerdict {
    /// Measured overhead fraction of the run.
    pub fraction: f64,
    /// The configured cap.
    pub max_fraction: f64,
    /// `fraction <= max_fraction`.
    pub within: bool,
}

crate::impl_to_json!(BudgetVerdict {
    fraction,
    max_fraction,
    within
});

impl Budget {
    /// Checks `overhead_ns` of self-billed time against a run of
    /// `run_ns` nanoseconds. A zero-length run never fails.
    pub fn verdict(&self, overhead_ns: u64, run_ns: u64) -> BudgetVerdict {
        let fraction = if run_ns == 0 {
            0.0
        } else {
            overhead_ns as f64 / run_ns as f64
        };
        BudgetVerdict {
            fraction,
            max_fraction: self.max_fraction,
            within: fraction <= self.max_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_verdicts() {
        let budget = Budget::default();
        assert!(budget.verdict(2_000, 1_000_000).within);
        let v = budget.verdict(500_000, 1_000_000);
        assert!(!v.within);
        assert!((v.fraction - 0.5).abs() < 1e-12);
        assert_eq!(v.max_fraction, 0.02);
        // Zero-length runs never fail the budget.
        assert!(budget.verdict(500_000, 0).within);
    }
}
