//! `ServerSet` against a `BTreeSet<ServerId>` oracle: random inserts and
//! removes over ids that cross word (64) and page (4 096) boundaries,
//! plus sparse ids up to 10⁶. After every operation membership, the
//! count, the ascending walk, `next_from` and the pages held must all
//! agree with the oracle.

use std::collections::BTreeSet;

use proptest::prelude::*;
use ras_topology::{ServerId, ServerSet};

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u32),
    Remove(u32),
}

/// Ids dense around the first words, around the first two page
/// boundaries, around the top of a 10⁶-server region, and anywhere in it.
fn arb_id() -> impl Strategy<Value = u32> {
    prop_oneof![
        0..200u32,
        4_000..4_200u32,
        8_150..8_250u32,
        999_800..1_000_000u32,
        0..1_000_000u32,
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_id().prop_map(Op::Insert),
        arb_id().prop_map(Op::Insert),
        arb_id().prop_map(Op::Remove),
    ]
}

/// Ids covered by one page of the set.
const PAGE_IDS: usize = 4_096;

fn check(set: &ServerSet, oracle: &BTreeSet<ServerId>, probes: &[u32]) {
    assert_eq!(set.len(), oracle.len());
    assert_eq!(set.is_empty(), oracle.is_empty());
    assert!(set.iter().eq(oracle.iter().copied()), "ascending walk");
    assert_eq!(set.iter().len(), oracle.len());
    let mut pages: Vec<usize> = oracle.iter().map(|s| s.index() / PAGE_IDS).collect();
    pages.dedup();
    assert_eq!(set.page_count(), pages.len(), "an empty page is freed");
    let around = oracle
        .iter()
        .flat_map(|s| [s.0.saturating_sub(1), s.0, s.0 + 1]);
    for id in probes.iter().copied().chain(around) {
        let id = ServerId(id);
        assert_eq!(set.contains(id), oracle.contains(&id), "contains {id}");
        assert_eq!(
            set.next_from(id),
            oracle.range(id..).next().copied(),
            "next_from {id}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn server_set_equals_a_btree_set(
        ops in prop::collection::vec(arb_op(), 1..200),
        probes in prop::collection::vec(arb_id(), 8),
    ) {
        let mut set = ServerSet::new();
        let mut oracle = BTreeSet::new();
        let fixed = [0, 63, 64, 4_095, 4_096, 8_191, 8_192, 999_999, 1_000_000];
        let probes: Vec<u32> = probes.into_iter().chain(fixed).collect();
        check(&set, &oracle, &probes);
        for op in ops {
            match op {
                Op::Insert(id) => {
                    prop_assert_eq!(set.insert(ServerId(id)), oracle.insert(ServerId(id)));
                }
                Op::Remove(id) => {
                    prop_assert_eq!(set.remove(ServerId(id)), oracle.remove(&ServerId(id)));
                }
            }
            check(&set, &oracle, &probes);
        }
        let collected: ServerSet = oracle.iter().copied().collect();
        check(&collected, &oracle, &probes);
    }
}
