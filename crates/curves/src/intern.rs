//! Curve interning.
//!
//! The analyses derive the same piecewise-linear curves over and over:
//! every bisection step of a sensitivity sweep and every warm re-analysis
//! of a session rebuilds arrival patterns whose segment lists are often
//! structurally identical to ones already seen. [`CurveArena`] hash-conses
//! curves — structurally equal segment lists are stored once and shared
//! behind a cheap, `Copy`-able [`CurveId`] — so equality checks become
//! integer comparisons and repeated patterns share memory.

use crate::Curve;
use std::collections::HashMap;
use std::sync::Arc;

/// Identifier of an interned curve within one [`CurveArena`].
///
/// Ids are only meaningful relative to the arena that issued them; two
/// curves interned in the same arena are structurally equal **iff** their
/// ids are equal.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CurveId(u32);

impl CurveId {
    /// Dense index of the curve within its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Snapshot of an arena's size and interning effectiveness.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Distinct curves interned.
    pub curves: usize,
    /// Operations answered from an operation memo table. The arena keeps
    /// none, so this reads 0; the field stays for counter readers that sum
    /// arena lookups.
    pub memo_hits: u64,
    /// Operations computed past an operation memo table — 0, like
    /// `memo_hits`.
    pub memo_misses: u64,
    /// `intern` calls that found an existing structural match.
    pub intern_hits: u64,
}

/// A structural-hash arena of curves.
///
/// See the [module docs](self) for the design. The arena only ever grows:
/// curves are never evicted, so ids stay valid.
#[derive(Debug, Default)]
pub struct CurveArena {
    curves: Vec<Arc<Curve>>,
    lookup: HashMap<Arc<Curve>, CurveId>,
    intern_hits: u64,
}

impl CurveArena {
    /// An empty arena.
    pub fn new() -> CurveArena {
        CurveArena::default()
    }

    /// Intern a curve, returning the id of its structural equivalence
    /// class. The curve is moved in only when it is new to the arena.
    pub fn intern(&mut self, curve: Curve) -> CurveId {
        if let Some(&id) = self.lookup.get(&curve) {
            self.intern_hits += 1;
            return id;
        }
        let id = CurveId(u32::try_from(self.curves.len()).expect("arena overflow"));
        let shared = Arc::new(curve);
        self.curves.push(Arc::clone(&shared));
        self.lookup.insert(shared, id);
        id
    }

    /// The interned curve behind an id.
    pub fn get(&self, id: CurveId) -> &Curve {
        &self.curves[id.index()]
    }

    /// Number of distinct curves interned.
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// `true` when no curve has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }

    /// Current size and interning statistics.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            curves: self.curves.len(),
            memo_hits: 0,
            memo_misses: 0,
            intern_hits: self.intern_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Segment, Time};
    use proptest::prelude::*;

    fn staircase(ts: &[i64], tau: i64) -> Curve {
        Curve::from_event_times(&ts.iter().map(|&t| Time(t)).collect::<Vec<_>>()).scale(tau)
    }

    #[test]
    fn interning_is_idempotent_and_injective() {
        let mut arena = CurveArena::new();
        let a = arena.intern(staircase(&[0, 4, 8], 3));
        let b = arena.intern(staircase(&[0, 4, 8], 3));
        let c = arena.intern(staircase(&[0, 4, 9], 3));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.stats().intern_hits, 1);
        assert_eq!(arena.get(a), &staircase(&[0, 4, 8], 3));
    }

    fn arb_curve() -> impl Strategy<Value = Curve> {
        prop::collection::vec((0i64..40, 0i64..20, 0i64..4), 1..6).prop_map(|pieces| {
            let mut ts: Vec<i64> = pieces.iter().map(|p| p.0).collect();
            ts.sort();
            ts.dedup();
            let segs: Vec<Segment> = ts
                .iter()
                .enumerate()
                .map(|(i, &t)| {
                    let (_, v, s) = pieces[i];
                    Segment::new(Time(if i == 0 { 0 } else { t }), v + t, s)
                })
                .collect();
            Curve::from_segments(segs)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Hash-consing invariant: equal curves get equal ids, distinct
        /// curves get distinct ids, and ids round-trip to the original.
        #[test]
        fn intern_equality_consistency(a in arb_curve(), b in arb_curve()) {
            let mut arena = CurveArena::new();
            let ia = arena.intern(a.clone());
            let ib = arena.intern(b.clone());
            prop_assert_eq!(ia == ib, a == b);
            prop_assert_eq!(arena.get(ia), &a);
            prop_assert_eq!(arena.get(ib), &b);
            // Re-interning never mints a fresh id.
            prop_assert_eq!(arena.intern(a.clone()), ia);
            prop_assert_eq!(arena.intern(b.clone()), ib);
        }
    }
}
