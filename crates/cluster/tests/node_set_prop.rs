//! `NodeSet` against a `BTreeSet<u32>` reference: random insert / remove /
//! clear sequences on two sets, at capacities on and around 64-bit word
//! boundaries. After every operation the bitset must agree with the
//! reference on membership, `len` and `is_empty`, iterate the same ids in
//! the same ascending order, and its `union` must equal the reference
//! union.

use std::collections::BTreeSet;

use proptest::prelude::*;
use vr_cluster::NodeSet;

const CAPACITIES: [usize; 6] = [1, 63, 64, 65, 130, 2048];

/// Mirrors one set's observable state against its reference.
fn assert_same(set: &NodeSet, reference: &BTreeSet<u32>, capacity: usize) {
    assert_eq!(set.len(), reference.len());
    assert_eq!(set.is_empty(), reference.is_empty());
    assert!(set.iter().eq(reference.iter().copied()));
    for id in [0, capacity as u32 - 1, capacity as u32, u32::MAX] {
        assert_eq!(set.contains(id), reference.contains(&id), "contains({id})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn node_set_matches_btreeset(ops in prop::collection::vec((0u8..20, any::<u32>()), 0..400)) {
        for capacity in CAPACITIES {
            let mut sets = [NodeSet::with_capacity(capacity), NodeSet::with_capacity(capacity)];
            let mut refs = [BTreeSet::new(), BTreeSet::new()];
            for &(kind, raw) in &ops {
                let id = raw % capacity as u32;
                // The top bit, independent of the id, picks the set, so
                // the two sets overlap. Inserts dominate so the sets fill
                // up; clears are rare so they empty out only now and then.
                let which = (raw >> 31) as usize;
                let (set, reference) = (&mut sets[which], &mut refs[which]);
                match kind {
                    0..=11 => prop_assert_eq!(set.insert(id), reference.insert(id)),
                    12..=18 => prop_assert_eq!(set.remove(id), reference.remove(&id)),
                    _ => {
                        set.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(set.contains(id), reference.contains(&id));
                assert_same(set, reference, capacity);
                let union: Vec<u32> = refs[0].union(&refs[1]).copied().collect();
                prop_assert_eq!(sets[0].union(&sets[1]).collect::<Vec<_>>(), union.clone());
                prop_assert_eq!(sets[1].union(&sets[0]).collect::<Vec<_>>(), union);
            }
            assert_same(&sets[0], &refs[0], capacity);
            assert_same(&sets[1], &refs[1], capacity);
        }
    }
}
