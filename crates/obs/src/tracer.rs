//! The event tracer.
//!
//! [`Tracer`] wraps an [`EventRing`] and records every emitted event
//! when the `trace` feature is on. There is one implementation either
//! way: [`Tracer::ACTIVE`] is `cfg!(feature = "trace")`, and without
//! the feature the tracer is built with an unallocated ring and
//! [`Tracer::emit`] returns at once. Instrumentation sites guard any
//! delta bookkeeping behind `if Tracer::ACTIVE`, so the whole block is
//! dead code the optimiser removes. The contract: **with `trace` off,
//! instrumented hot paths cost nothing.**

use crate::event::{EventKind, TraceEvent};
use crate::ring::EventRing;

/// Default ring capacity used by [`Tracer::default`].
pub const DEFAULT_CAPACITY: usize = 64 << 10;

/// Records typed events when the `trace` feature is enabled.
#[derive(Debug, Clone)]
pub struct Tracer {
    ring: EventRing,
}

impl Tracer {
    /// Compile-time flag: true in `trace` builds. Guard per-event
    /// bookkeeping (stat deltas, timestamp reads) with this so it
    /// vanishes from non-trace builds.
    pub const ACTIVE: bool = cfg!(feature = "trace");

    /// A tracer retaining at most `capacity` events (nothing, and no
    /// allocation, when inactive).
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            ring: if Self::ACTIVE {
                EventRing::new(capacity)
            } else {
                EventRing::unallocated()
            },
        }
    }

    /// Records `kind` at instruction count `at`.
    #[inline]
    pub fn emit(&mut self, at: u64, kind: EventKind) {
        if Self::ACTIVE {
            self.ring.push(TraceEvent { at, kind });
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.to_vec()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Total events ever emitted.
    pub fn emitted(&self) -> u64 {
        self.ring.pushed()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no event is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::with_capacity(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_is_identical_either_way() {
        // Compiles and behaves sensibly with or without the feature;
        // the assertions distinguish the two modes via ACTIVE.
        let mut t = Tracer::with_capacity(4);
        t.emit(1, EventKind::L2Miss);
        t.emit(2, EventKind::Migration { from: 0, to: 1 });
        if Tracer::ACTIVE {
            assert_eq!(t.len(), 2);
            assert_eq!(t.emitted(), 2);
            assert_eq!(t.events()[0].at, 1);
        } else {
            assert_eq!(t.len(), 0);
            assert_eq!(t.emitted(), 0);
            assert!(t.events().is_empty());
            assert!(t.is_empty());
        }
        assert_eq!(t.dropped(), 0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_semantics_apply() {
        let mut t = Tracer::with_capacity(2);
        for at in 0..5 {
            t.emit(at, EventKind::TransitionFlip);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.events().last().unwrap().at, 4);
    }
}
