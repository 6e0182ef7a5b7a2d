//! Property tests: the pool never double-leases, always conserves units,
//! address translation is a bijection over the pool's range, every misuse
//! path (recycle-after-close, bad restore input) fails with a typed error
//! instead of a panic, and a unit mixing inline, reserved and lent items
//! exports exactly its items and returns every loan.

use dlb_membridge::{ItemDesc, MemManager, PoolConfig, PoolError};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A loan that counts how many of its kind are still outstanding.
struct Counted {
    bytes: Vec<u8>,
    live: Arc<AtomicUsize>,
}

impl Counted {
    fn new(bytes: Vec<u8>, live: &Arc<AtomicUsize>) -> Box<Self> {
        live.fetch_add(1, Ordering::SeqCst);
        Box::new(Self {
            bytes,
            live: Arc::clone(live),
        })
    }
}

impl AsRef<[u8]> for Counted {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::SeqCst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn leased_units_are_distinct(
        unit_size in 64usize..4096,
        unit_count in 1usize..32,
    ) {
        let pool = MemManager::new(PoolConfig {
            unit_size,
            unit_count,
            phys_base: 0x1_0000_0000,
        }).unwrap();
        let mut ids = HashSet::new();
        let mut phys = HashSet::new();
        let mut units = Vec::new();
        while let Some(u) = pool.try_get_item() {
            prop_assert!(ids.insert(u.id()), "duplicate unit id {}", u.id());
            prop_assert!(phys.insert(u.phys_addr()), "duplicate phys addr");
            prop_assert_eq!(u.capacity(), unit_size);
            units.push(u);
        }
        prop_assert_eq!(units.len(), unit_count);
        for u in units {
            pool.recycle_item(u).unwrap();
        }
        prop_assert_eq!(pool.free_count(), unit_count);
    }

    #[test]
    fn translation_is_bijective_over_pool_range(
        unit_size in 64usize..2048,
        unit_count in 1usize..16,
        probes in prop::collection::vec(any::<u64>(), 1..50),
    ) {
        let base = 0x2_0000_0000u64;
        let pool = MemManager::new(PoolConfig {
            unit_size,
            unit_count,
            phys_base: base,
        }).unwrap();
        let span = (unit_size * unit_count) as u64;
        for p in probes {
            let phys = base + p % span;
            let virt = pool.phy2virt(phys).unwrap();
            prop_assert_eq!(pool.virt2phy(virt).unwrap(), phys);
        }
        // Out-of-range probes must fail.
        prop_assert!(pool.phy2virt(base - 1).is_err());
        prop_assert!(pool.phy2virt(base + span).is_err());
    }

    #[test]
    fn append_never_overflows_capacity(
        unit_size in 16usize..512,
        chunks in prop::collection::vec(1usize..128, 1..64),
    ) {
        let pool = MemManager::new(PoolConfig {
            unit_size,
            unit_count: 1,
            phys_base: 0,
        }).unwrap();
        let mut unit = pool.get_item().unwrap();
        let mut expected_used = 0usize;
        for (i, len) in chunks.iter().enumerate() {
            let bytes = vec![i as u8; *len];
            match unit.append(&bytes, i as u64, 1, 1, 1) {
                Some(idx) => {
                    expected_used += len;
                    prop_assert_eq!(unit.item_bytes(idx), &bytes[..]);
                }
                None => {
                    // Rejected append must not mutate the unit.
                    prop_assert!(expected_used + len > unit_size);
                }
            }
            prop_assert_eq!(unit.used(), expected_used);
            prop_assert!(unit.used() <= unit.capacity());
        }
        pool.recycle_item(unit).unwrap();
    }

    /// Random get/recycle/close interleavings conserve units: at every
    /// step `free + held + destroyed == unit_count`, leases round-trip
    /// through the phys↔virt tables, and operations after close fail
    /// with typed errors instead of panicking.
    #[test]
    fn random_interleavings_conserve_free_count(
        unit_count in 1usize..12,
        ops in prop::collection::vec((any::<u8>(), any::<prop::sample::Index>()), 1..200),
        close_at in any::<prop::sample::Index>(),
    ) {
        let pool = MemManager::new(PoolConfig {
            unit_size: 128,
            unit_count,
            phys_base: 0x3_0000_0000,
        }).unwrap();
        let close_step = close_at.index(ops.len());
        let mut held: Vec<_> = Vec::new();
        let mut destroyed = 0usize;
        let mut closed = false;
        for (step, (sel, idx)) in ops.into_iter().enumerate() {
            if step == close_step {
                pool.close();
                closed = true;
            }
            if sel % 2 == 0 {
                match pool.try_get_item() {
                    Some(u) => {
                        // Leases stay translation-consistent.
                        let virt = pool.phy2virt(u.phys_addr()).unwrap();
                        prop_assert_eq!(virt, u.virt_addr());
                        prop_assert_eq!(pool.virt2phy(virt).unwrap(), u.phys_addr());
                        held.push(u);
                    }
                    None => prop_assert!(closed || held.len() + destroyed == unit_count),
                }
            } else if !held.is_empty() {
                let u = held.remove(idx.index(held.len()));
                match pool.recycle_item(u) {
                    Ok(()) => prop_assert!(!closed, "recycle cannot succeed after close"),
                    Err(e) => {
                        prop_assert_eq!(e, PoolError::Closed);
                        prop_assert!(closed);
                        destroyed += 1; // failed recycle drops the unit
                    }
                }
            }
            prop_assert!(
                pool.free_count() + held.len() + destroyed == unit_count,
                "conservation broke at step {}",
                step
            );
        }
    }

    /// The same conservation law holds under genuinely concurrent
    /// lease/recycle traffic from multiple threads.
    #[test]
    fn concurrent_interleavings_conserve_free_count(
        unit_count in 2usize..8,
        rounds in 10usize..80,
    ) {
        let pool = MemManager::new(PoolConfig {
            unit_size: 64,
            unit_count,
            phys_base: 0x5_0000_0000,
        }).unwrap();
        let threads: Vec<_> = (0..3)
            .map(|t| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..rounds {
                        if let Some(mut u) = pool.try_get_item() {
                            u.append(&[t as u8, i as u8], i as u64, 1, 1, 1);
                            pool.recycle_item(u).unwrap();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        prop_assert_eq!(pool.free_count(), unit_count);
        prop_assert_eq!(pool.stats().leased, 0);
        prop_assert_eq!(pool.stats().lease_ops, pool.stats().recycle_ops);
    }

    /// `restore` never panics: any payload/descriptor input either
    /// succeeds consistently or fails with a typed restore error.
    #[test]
    fn restore_is_total_over_arbitrary_inputs(
        payload in prop::collection::vec(any::<u8>(), 0..300),
        descs in prop::collection::vec(
            (any::<usize>(), any::<usize>()),
            0..8
        ),
    ) {
        let pool = MemManager::new(PoolConfig {
            unit_size: 256,
            unit_count: 1,
            phys_base: 0,
        }).unwrap();
        let mut unit = pool.get_item().unwrap();
        let items: Vec<ItemDesc> = descs
            .into_iter()
            .map(|(offset, len)| ItemDesc {
                offset,
                len,
                label: 0,
                width: 1,
                height: 1,
                channels: 1,
            })
            .collect();
        match unit.restore(&payload, &items) {
            Ok(()) => {
                prop_assert!(payload.len() <= unit.capacity());
                prop_assert_eq!(unit.used(), payload.len());
                for it in unit.items() {
                    prop_assert!(it.offset + it.len <= payload.len());
                }
            }
            Err(PoolError::RestoreOverflow { payload: p, capacity }) => {
                prop_assert_eq!(p, payload.len());
                prop_assert!(p > capacity);
            }
            Err(PoolError::RestoreLayout { offset, len, payload: p }) => {
                prop_assert_eq!(p, payload.len());
                prop_assert!(offset.checked_add(len).is_none_or(|end| end > p));
            }
            Err(other) => prop_assert!(false, "unexpected error {:?}", other),
        }
        pool.recycle_item(unit).unwrap();
    }

    /// For any mix of inline, reserved and lent items, the gathered
    /// payload is the concatenation of `item_bytes` in item order, and
    /// recycling (or resetting) the unit returns every loan.
    #[test]
    fn gather_concatenates_items_and_recycle_returns_every_loan(
        items in prop::collection::vec((0u8..3, 0usize..40, any::<u8>()), 0..24),
        reset_instead in any::<bool>(),
    ) {
        let pool = MemManager::new(PoolConfig {
            unit_size: 512,
            unit_count: 1,
            phys_base: 0,
        }).unwrap();
        let live = Arc::new(AtomicUsize::new(0));
        let mut lent = 0;
        let mut unit = pool.get_item().unwrap();
        for (i, &(kind, len, tag)) in items.iter().enumerate() {
            let bytes = vec![tag; len];
            let placed = match kind {
                0 => unit.append(&bytes, i as u64, 1, 1, 1),
                1 => unit.reserve(len, i as u64, 1, 1, 1).map(|offset| {
                    // A device writing its window after the fact.
                    unit.storage_mut()[offset..offset + len].fill(tag);
                    unit.item_count() - 1
                }),
                _ => {
                    let idx = unit.lend(Counted::new(bytes.clone(), &live), i as u64, 1, 1, 1);
                    lent += idx.is_some() as usize;
                    idx
                }
            };
            if let Some(idx) = placed {
                prop_assert_eq!(unit.item_bytes(idx), &bytes[..]);
            }
        }
        let expected: Vec<u8> = (0..unit.item_count())
            .flat_map(|i| unit.item_bytes(i).to_vec())
            .collect();
        prop_assert_eq!(expected.len(), unit.used());
        let mut gathered = vec![0xEE; unit.used() + 8];
        unit.gather_into(&mut gathered);
        prop_assert_eq!(&gathered[..unit.used()], &expected[..]);
        prop_assert!(gathered[unit.used()..].iter().all(|&b| b == 0xEE));
        prop_assert_eq!(live.load(Ordering::SeqCst), lent);
        if reset_instead {
            unit.reset();
            prop_assert_eq!(live.load(Ordering::SeqCst), 0);
        }
        pool.recycle_item(unit).unwrap();
        prop_assert_eq!(live.load(Ordering::SeqCst), 0);
        // A unit dropped on a closed pool returns its loans too.
        let mut unit = pool.get_item().unwrap();
        unit.lend(Counted::new(vec![1; 4], &live), 0, 1, 1, 1).unwrap();
        pool.close();
        prop_assert!(pool.recycle_item(unit).is_err());
        prop_assert_eq!(live.load(Ordering::SeqCst), 0);
    }
}
