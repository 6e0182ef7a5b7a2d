//! Property/invariant suite for the decoded-sample cache.
//!
//! Four families, each over arbitrary operation sequences:
//! * **Bounded** — resident bytes never exceed capacity at any point, and
//!   the lookup/entry/byte conservation laws hold at the end.
//! * **Cost-aware ordering** — no sample is evicted while a strictly
//!   cheaper-to-redecode (or equally cheap but less recently used) one
//!   remains resident.
//! * **Partition isolation** — one tenant's churn never evicts another
//!   tenant's entries, and every partition respects its own share.
//! * **Deterministic replay** — the same operation sequence on a fresh
//!   cache reproduces identical stats and an identical resident set
//!   (eviction must not depend on `HashMap` iteration order).
//! * **Pins hold** — a pinned sample's bytes never change while pinned,
//!   however the index churns around it: its slot is not handed to
//!   admission until the last pin drops.
//!
//! Case count is pinned in CI; override with `PROPTEST_CASES`.

use dlb_cache::{test_sample, SampleCache, SampleKey};
use dlb_telemetry::Registry;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

const CAPACITY: u64 = 16 * 1024;

/// One scripted cache operation, decoded from a generated tuple. Inserts
/// dominate so sequences actually fill the cache and evict.
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { key: u64, len: usize, cost: u64 },
    Lookup { key: u64 },
    Poison { key: u64 },
}

fn decode((kind, key, len, cost): (u8, u64, usize, u64)) -> Op {
    match kind % 5 {
        0..=2 => Op::Insert { key, len, cost },
        3 => Op::Lookup { key },
        _ => Op::Poison { key },
    }
}

fn disk_key(key: u64) -> SampleKey {
    SampleKey::Disk {
        offset: key * 4096,
        len: 1024,
    }
}

/// Raw-op strategy: key space small enough to collide, sizes large enough
/// to force eviction against `CAPACITY`.
fn ops(max_len: usize) -> impl Strategy<Value = Vec<(u8, u64, usize, u64)>> {
    vec((0u8..5, 0u64..24, 64usize..max_len, 0u64..1_000), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resident_bytes_never_exceed_capacity(raw in ops(8192)) {
        let cache = SampleCache::new(CAPACITY);
        for &op in &raw {
            match decode(op) {
                Op::Insert { key, len, cost } => {
                    cache.insert(disk_key(key), test_sample(key as u8, len), cost);
                }
                Op::Lookup { key } => {
                    cache.lookup(&disk_key(key));
                }
                Op::Poison { key } => cache.poison(disk_key(key)),
            }
            prop_assert!(
                cache.resident_bytes() <= cache.capacity_bytes(),
                "resident {} > capacity {}",
                cache.resident_bytes(),
                cache.capacity_bytes()
            );
        }
        let (lookups, hits, misses) = cache.lookup_stats();
        prop_assert_eq!(hits + misses, lookups);
        let (insertions, evictions, _, _) = cache.churn_stats();
        prop_assert_eq!(insertions, cache.len() as u64 + evictions);
    }

    #[test]
    fn no_eviction_while_cheaper_colder_entry_remains(raw in ops(4096)) {
        let cache = SampleCache::new(CAPACITY);
        // Shadow of the resident set: key → (cost, last-use proxy). The
        // proxy is the op index, which orders uses exactly like the
        // cache's internal clock.
        let mut shadow: HashMap<u64, (u64, u64)> = HashMap::new();
        for (tick, &op) in raw.iter().enumerate() {
            let tick = tick as u64;
            match decode(op) {
                Op::Insert { key, len, cost } => {
                    let before: Vec<u64> = shadow.keys().copied().collect();
                    if cache.insert(disk_key(key), test_sample(key as u8, len), cost) {
                        shadow
                            .entry(key)
                            .and_modify(|e| *e = (cost, tick))
                            .or_insert((cost, tick));
                    }
                    let evicted: Vec<u64> = before
                        .iter()
                        .copied()
                        .filter(|&k| k != key && !cache.contains(&disk_key(k)))
                        .collect();
                    for &e in &evicted {
                        let (e_cost, e_use) = shadow[&e];
                        for &s in &before {
                            if s == key || evicted.contains(&s) {
                                continue;
                            }
                            let (s_cost, s_use) = shadow[&s];
                            prop_assert!(
                                !(s_cost < e_cost || (s_cost == e_cost && s_use < e_use)),
                                "evicted key {e} (cost {e_cost}, use {e_use}) while \
                                 cheaper/colder key {s} (cost {s_cost}, use {s_use}) survived"
                            );
                        }
                        shadow.remove(&e);
                    }
                }
                Op::Lookup { key } => {
                    if cache.lookup(&disk_key(key)).is_some() {
                        shadow
                            .entry(key)
                            .and_modify(|e| e.1 = tick);
                    }
                }
                Op::Poison { key } => {
                    cache.poison(disk_key(key));
                    shadow.remove(&key);
                }
            }
        }
    }

    #[test]
    fn tenant_partitions_are_isolated(
        raw in vec((0u8..5, 0u8..2, 0u64..16, 64usize..4096, 0u64..500), 1..60),
    ) {
        let registry = Registry::new();
        // Asymmetric weights: tenant 0 gets 1/4, tenant 1 gets 3/4.
        let cache = SampleCache::partitioned(CAPACITY, &[(0, 1), (1, 3)], &registry);
        let mut resident: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for &(kind, tenant, id, len, cost) in &raw {
            let t = tenant as usize;
            let other = 1 - t;
            let key = SampleKey::Object { tenant: tenant as u32, id };
            match kind % 5 {
                0..=2 => {
                    if cache.insert(key, test_sample(id as u8, len), cost)
                        && !resident[t].contains(&id)
                    {
                        resident[t].push(id);
                    }
                }
                3 => {
                    cache.lookup(&key);
                }
                _ => {
                    cache.poison(key);
                    resident[t].retain(|&k| k != id);
                }
            }
            // This op touched only tenant `t`'s partition: every entry the
            // other tenant had must still be resident.
            for &k in &resident[other] {
                prop_assert!(
                    cache.contains(&SampleKey::Object { tenant: other as u32, id: k }),
                    "op on tenant {t} evicted tenant {other}'s object {k}"
                );
            }
            // Evictions *inside* tenant t's own partition are legitimate —
            // re-sync its shadow set.
            resident[t].retain(|&k| {
                cache.contains(&SampleKey::Object { tenant: tenant as u32, id: k })
            });
            for (_, res, cap) in cache.tenant_residency() {
                prop_assert!(res <= cap, "partition over its share: {res} > {cap}");
            }
        }
    }

    #[test]
    fn replay_is_deterministic(raw in ops(4096)) {
        let run = || {
            let cache = SampleCache::new(CAPACITY);
            for &op in &raw {
                match decode(op) {
                    Op::Insert { key, len, cost } => {
                        cache.insert(disk_key(key), test_sample(key as u8, len), cost);
                    }
                    Op::Lookup { key } => {
                        cache.lookup(&disk_key(key));
                    }
                    Op::Poison { key } => cache.poison(disk_key(key)),
                }
            }
            let members: Vec<bool> = (0..24).map(|k| cache.contains(&disk_key(k))).collect();
            (cache.lookup_stats(), cache.churn_stats(), cache.resident_bytes(), members)
        };
        let first = run();
        let second = run();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn pinned_bytes_never_change_while_pinned(
        raw in vec((0u8..6, 0u64..16, 64usize..4096, 0u64..1_000, any::<prop::sample::Index>()), 1..100),
    ) {
        let cache = SampleCache::new(CAPACITY);
        // Held pins with the tag their bytes must keep.
        let mut held: Vec<(dlb_cache::SlotPin, u8)> = Vec::new();
        for (tick, &(kind, key, len, cost, pick)) in raw.iter().enumerate() {
            // Every admission writes its own tag, so a reused slot shows.
            let tag = tick as u8;
            match kind {
                0 | 1 => {
                    cache.insert(disk_key(key), test_sample(tag, len), cost);
                }
                2 | 3 => {
                    if let Some(pin) = cache.lookup(&disk_key(key)) {
                        let tag = pin.bytes()[0];
                        held.push((pin, tag));
                    }
                }
                4 => {
                    if !held.is_empty() {
                        drop(held.swap_remove(pick.index(held.len())));
                    }
                }
                _ => {
                    cache.poison(disk_key(key));
                    prop_assert!(!cache.contains(&disk_key(key)), "quarantine must evict");
                }
            }
            for (pin, tag) in &held {
                prop_assert!(
                    pin.bytes().iter().all(|b| b == tag),
                    "a pinned slot was rewritten at op {}", tick
                );
                prop_assert_eq!(pin.bytes().len() as u32, pin.meta().width);
            }
            prop_assert!(cache.resident_bytes() <= cache.capacity_bytes());
            prop_assert!(cache.pinned_bytes() <= cache.capacity_bytes());
        }
        drop(held);
        prop_assert_eq!(cache.pinned_bytes(), 0);
        let (insertions, evictions, _, _) = cache.churn_stats();
        prop_assert_eq!(insertions, cache.len() as u64 + evictions);
    }
}
