//! `dlb-cache` — a decoded-sample cache between the codec and the pool.
//!
//! The paper's pipeline redecodes every sample on every pass, yet training
//! rereads the same corpus each epoch and online inference has hot keys.
//! This crate holds decoded pixels keyed by their *source identity* so a
//! later pass can skip decode entirely; delivered hits still flow through
//! the HugePage pool (`Free_Batch_Queue` lease/recycle accounting), the
//! cache only replaces the decode work, never the transfer buffers.
//!
//! Three properties drive the design, each proved by the property suite in
//! `tests/proptests.rs` and enforced as `cache.*` conservation laws in
//! [`dlb_telemetry::PipelineSnapshot`]:
//!
//! * **Bounded** — resident bytes never exceed capacity, at any instant
//!   (the registry's gauge high-water is part of the invariant check).
//! * **Cost-aware eviction** — evict the *cheapest-to-redecode* sample
//!   first, using the live per-image decode timers (`codec.huffman_ns` +
//!   `codec.idct_ns` on the CPU path, compressed payload size on the FPGA
//!   path) as the cost signal; recency only breaks cost ties, and the
//!   sample key breaks recency ties so replay is deterministic even though
//!   `HashMap` iteration order is not.
//! * **Admission-aware** — samples whose decode *failed* (chaos `Poison`
//!   or `Corrupt` faults, truncated payloads) are quarantined: they are
//!   never admitted, and poisoning a resident key evicts it, so a corrupt
//!   source can never be served from cache on a later epoch.
//!
//! In `DriveMode::Served` the cache is split into per-tenant partitions
//! sized by tenant weight, so one tenant's churn cannot evict another's
//! hot set.

use dlb_telemetry::{names, Counter, Gauge, Registry, Telemetry};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Identity of one decoded sample. Deliberately *not* constructible from a
/// NIC ring descriptor: RX rings reuse physical addresses, so a
/// `(phys_addr, len)` pair aliases different payloads over time. Disk
/// sources are stable (offset is the identity); stream/served sources use
/// an explicit `(tenant, id)` object key assigned by the serving layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SampleKey {
    /// A record on the dataset disk.
    Disk {
        /// Byte offset of the compressed payload.
        offset: u64,
        /// Compressed payload length.
        len: u32,
    },
    /// A logical object a serving tenant rereads (hot-key inference).
    Object {
        /// Owning tenant id.
        tenant: u32,
        /// Object id within the tenant's namespace.
        id: u64,
    },
}

impl SampleKey {
    /// The tenant this key belongs to, when it carries one.
    pub fn tenant(&self) -> Option<u32> {
        match self {
            SampleKey::Disk { .. } => None,
            SampleKey::Object { tenant, .. } => Some(*tenant),
        }
    }
}

/// One decoded sample as stored/served by the cache. Pixels are shared
/// (`Arc`) so a hit hands back a reference without copying under the lock;
/// the caller copies into its pool unit.
#[derive(Debug, Clone)]
pub struct CachedSample {
    /// Decoded, resized pixel bytes.
    pub data: Arc<Vec<u8>>,
    /// Training label / request tag.
    pub label: u64,
    /// Output width.
    pub width: u32,
    /// Output height.
    pub height: u32,
    /// Output channels.
    pub channels: u8,
}

impl CachedSample {
    /// Bytes this sample occupies.
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64
    }
}

struct Entry {
    sample: CachedSample,
    /// Relative redecode cost. CPU path: `huffman_ns + idct_ns` for this
    /// image. FPGA path: compressed payload bytes (FINISH signals carry no
    /// per-item timing; entropy bits dominate lane service, and they scale
    /// with payload size). Only the ordering matters.
    cost: u64,
    /// Logical clock of the last lookup hit or insert.
    last_use: u64,
}

struct TenantHandles {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    resident_bytes: Arc<Gauge>,
}

struct Partition {
    capacity: u64,
    resident: u64,
    entries: HashMap<SampleKey, Entry>,
    tenant: Option<(u32, TenantHandles)>,
}

impl Partition {
    /// The eviction victim: cheapest to redecode, then least recently
    /// used, then smallest key — a total order, so eviction is
    /// deterministic regardless of `HashMap` iteration order.
    fn victim(&self) -> Option<SampleKey> {
        self.entries
            .iter()
            .min_by_key(|(k, e)| (e.cost, e.last_use, **k))
            .map(|(k, _)| *k)
    }
}

struct Inner {
    partitions: Vec<Partition>,
    /// Tenant id → partition index (`Served` mode). Empty = single shared
    /// partition, index 0.
    by_tenant: HashMap<u32, usize>,
    quarantine: HashSet<SampleKey>,
    clock: u64,
}

struct Handles {
    lookups: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    inserted_bytes: Arc<Counter>,
    rejected: Arc<Counter>,
    evictions: Arc<Counter>,
    evicted_bytes: Arc<Counter>,
    quarantined: Arc<Counter>,
    bypass_batches: Arc<Counter>,
    resident_bytes: Arc<Gauge>,
    resident_entries: Arc<Gauge>,
    capacity_bytes: Arc<Gauge>,
}

impl Handles {
    fn register(registry: &Registry) -> Self {
        Self {
            lookups: registry.counter(names::CACHE_LOOKUPS),
            hits: registry.counter(names::CACHE_HITS),
            misses: registry.counter(names::CACHE_MISSES),
            insertions: registry.counter(names::CACHE_INSERTIONS),
            inserted_bytes: registry.counter(names::CACHE_INSERTED_BYTES),
            rejected: registry.counter(names::CACHE_REJECTED),
            evictions: registry.counter(names::CACHE_EVICTIONS),
            evicted_bytes: registry.counter(names::CACHE_EVICTED_BYTES),
            quarantined: registry.counter(names::CACHE_QUARANTINED),
            bypass_batches: registry.counter(names::CACHE_BYPASS_BATCHES),
            resident_bytes: registry.gauge(names::CACHE_RESIDENT_BYTES),
            resident_entries: registry.gauge(names::CACHE_RESIDENT_ENTRIES),
            capacity_bytes: registry.gauge(names::CACHE_CAPACITY_BYTES),
        }
    }
}

/// The decoded-sample cache. Cheap to share (`Arc`); all methods take
/// `&self` and are thread-safe.
pub struct SampleCache {
    inner: Mutex<Inner>,
    stats: Handles,
    /// Keeps a privately-built registry alive for standalone caches.
    _own_registry: Option<Arc<Registry>>,
}

impl SampleCache {
    /// A single-partition cache recording into a private registry.
    pub fn new(capacity_bytes: u64) -> Arc<Self> {
        let registry = Arc::new(Registry::new());
        let mut cache = Self::build(capacity_bytes, &[], &registry);
        cache._own_registry = Some(registry);
        Arc::new(cache)
    }

    /// A single-partition cache recording `cache.*` metrics into the
    /// shared pipeline registry, so [`dlb_telemetry::PipelineSnapshot`]
    /// folds it into the conservation laws.
    pub fn with_telemetry(capacity_bytes: u64, telemetry: &Telemetry) -> Arc<Self> {
        Arc::new(Self::build(capacity_bytes, &[], &telemetry.registry))
    }

    /// A per-tenant partitioned cache (`DriveMode::Served`): the budget is
    /// split across `(tenant_id, weight)` partitions proportionally to
    /// weight, and every key routes to its tenant's partition, so one
    /// tenant's churn cannot evict another's hot set. Keys without a
    /// tenant (disk keys) share partition 0.
    pub fn partitioned(
        capacity_bytes: u64,
        tenants: &[(u32, u32)],
        registry: &Registry,
    ) -> Arc<Self> {
        Arc::new(Self::build(capacity_bytes, tenants, registry))
    }

    fn build(capacity_bytes: u64, tenants: &[(u32, u32)], registry: &Registry) -> Self {
        let stats = Handles::register(registry);
        let (partitions, by_tenant) = if tenants.is_empty() {
            (
                vec![Partition {
                    capacity: capacity_bytes,
                    resident: 0,
                    entries: HashMap::new(),
                    tenant: None,
                }],
                HashMap::new(),
            )
        } else {
            let total_weight: u64 = tenants.iter().map(|(_, w)| *w as u64).sum::<u64>().max(1);
            let mut partitions = Vec::with_capacity(tenants.len());
            let mut by_tenant = HashMap::new();
            for (id, weight) in tenants {
                let share = capacity_bytes * *weight as u64 / total_weight;
                by_tenant.insert(*id, partitions.len());
                use names::cache_tenant::*;
                let key = |field: &str| names::member_key(PREFIX, id, field);
                partitions.push(Partition {
                    capacity: share,
                    resident: 0,
                    entries: HashMap::new(),
                    tenant: Some((
                        *id,
                        TenantHandles {
                            hits: registry.counter(&key(HITS)),
                            misses: registry.counter(&key(MISSES)),
                            evictions: registry.counter(&key(EVICTIONS)),
                            resident_bytes: registry.gauge(&key(RESIDENT_BYTES)),
                        },
                    )),
                });
            }
            (partitions, by_tenant)
        };
        let capacity_total: u64 = partitions.iter().map(|p| p.capacity).sum();
        stats.capacity_bytes.set(capacity_total as i64);
        Self {
            inner: Mutex::new(Inner {
                partitions,
                by_tenant,
                quarantine: HashSet::new(),
                clock: 0,
            }),
            stats,
            _own_registry: None,
        }
    }

    fn partition_index(inner: &Inner, key: &SampleKey) -> usize {
        key.tenant()
            .and_then(|t| inner.by_tenant.get(&t).copied())
            .unwrap_or(0)
    }

    /// Looks `key` up, counting a hit or a miss and refreshing recency on
    /// a hit. Quarantined keys always miss.
    pub fn lookup(&self, key: &SampleKey) -> Option<CachedSample> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        self.stats.lookups.inc();
        let idx = Self::partition_index(&inner, key);
        let part = &mut inner.partitions[idx];
        match part.entries.get_mut(key) {
            Some(entry) => {
                entry.last_use = clock;
                self.stats.hits.inc();
                if let Some((_, t)) = &part.tenant {
                    t.hits.inc();
                }
                Some(entry.sample.clone())
            }
            None => {
                self.stats.misses.inc();
                if let Some((_, t)) = &part.tenant {
                    t.misses.inc();
                }
                None
            }
        }
    }

    /// True when `key` is resident. No counter side effects — for tests
    /// and diagnostics; the data path uses [`SampleCache::lookup`].
    pub fn contains(&self, key: &SampleKey) -> bool {
        let inner = self.inner.lock();
        let idx = Self::partition_index(&inner, key);
        inner.partitions[idx].entries.contains_key(key)
    }

    /// Admits a decoded sample with the given relative redecode `cost`,
    /// evicting cheapest-cost entries from the key's partition until it
    /// fits. Returns `false` (counted in `cache.rejected`) when the key is
    /// quarantined or the sample cannot fit even an empty partition; a key
    /// already resident is refreshed in place (recency + cost), not
    /// double-counted.
    pub fn insert(&self, key: SampleKey, sample: CachedSample, cost: u64) -> bool {
        let bytes = sample.bytes();
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if inner.quarantine.contains(&key) {
            self.stats.rejected.inc();
            return false;
        }
        let idx = Self::partition_index(&inner, &key);
        let part = &mut inner.partitions[idx];
        if let Some(entry) = part.entries.get_mut(&key) {
            // Same source ⇒ same pixels; just refresh the metadata.
            entry.last_use = clock;
            entry.cost = cost;
            return true;
        }
        if bytes > part.capacity {
            self.stats.rejected.inc();
            return false;
        }
        while part.resident + bytes > part.capacity {
            let victim = part.victim().expect("resident > 0 implies an entry");
            self.evict_locked(part, &victim);
        }
        part.resident += bytes;
        if let Some((_, t)) = &part.tenant {
            t.resident_bytes.add(bytes as i64);
        }
        part.entries.insert(
            key,
            Entry {
                sample,
                cost,
                last_use: clock,
            },
        );
        self.stats.insertions.inc();
        self.stats.inserted_bytes.add(bytes);
        self.stats.resident_bytes.add(bytes as i64);
        self.stats.resident_entries.inc();
        true
    }

    fn evict_locked(&self, part: &mut Partition, key: &SampleKey) {
        if let Some(entry) = part.entries.remove(key) {
            let bytes = entry.sample.bytes();
            part.resident -= bytes;
            self.stats.evictions.inc();
            self.stats.evicted_bytes.add(bytes);
            self.stats.resident_bytes.add(-(bytes as i64));
            self.stats.resident_entries.dec();
            if let Some((_, t)) = &part.tenant {
                t.evictions.inc();
                t.resident_bytes.add(-(bytes as i64));
            }
        }
    }

    /// Quarantines `key`: future inserts are refused and, if a copy is
    /// resident, it is evicted right now — a corrupted source must never
    /// be served from cache. Each call counts in `cache.quarantined`
    /// (once per failed decode observation, so tests can equate it with
    /// `reader.item_errors`).
    pub fn poison(&self, key: SampleKey) {
        let mut inner = self.inner.lock();
        self.stats.quarantined.inc();
        if inner.quarantine.insert(key) {
            let idx = Self::partition_index(&inner, &key);
            let part = &mut inner.partitions[idx];
            self.evict_locked(part, &key);
        }
    }

    /// True when `key` has been poisoned.
    pub fn is_quarantined(&self, key: &SampleKey) -> bool {
        self.inner.lock().quarantine.contains(key)
    }

    /// Records one whole delivered batch that bypassed decode (every item
    /// a hit). The reader/backends call this so failover accounting can
    /// reconcile `delivered == decoded + bypassed`.
    pub fn note_bypass_batch(&self) {
        self.stats.bypass_batches.inc();
    }

    /// Total capacity across partitions.
    pub fn capacity_bytes(&self) -> u64 {
        self.stats.capacity_bytes.get().max(0) as u64
    }

    /// Bytes resident right now.
    pub fn resident_bytes(&self) -> u64 {
        self.stats.resident_bytes.get().max(0) as u64
    }

    /// Entries resident right now.
    pub fn len(&self) -> usize {
        self.stats.resident_entries.get().max(0) as usize
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(lookups, hits, misses)` so far.
    pub fn lookup_stats(&self) -> (u64, u64, u64) {
        (
            self.stats.lookups.get(),
            self.stats.hits.get(),
            self.stats.misses.get(),
        )
    }

    /// `(insertions, evictions, rejected, quarantined)` so far.
    pub fn churn_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.stats.insertions.get(),
            self.stats.evictions.get(),
            self.stats.rejected.get(),
            self.stats.quarantined.get(),
        )
    }

    /// Whole batches delivered straight from cache.
    pub fn bypass_batches(&self) -> u64 {
        self.stats.bypass_batches.get()
    }

    /// Per-tenant `(id, resident_bytes, capacity)` view (partitioned
    /// caches only).
    pub fn tenant_residency(&self) -> Vec<(u32, u64, u64)> {
        let inner = self.inner.lock();
        inner
            .partitions
            .iter()
            .filter_map(|p| {
                p.tenant
                    .as_ref()
                    .map(|(id, _)| (*id, p.resident, p.capacity))
            })
            .collect()
    }
}

impl std::fmt::Debug for SampleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SampleCache")
            .field("capacity_bytes", &self.capacity_bytes())
            .field("resident_bytes", &self.resident_bytes())
            .field("entries", &self.len())
            .finish()
    }
}

/// A convenience for tests and wiring: a sample of `len` bytes with the
/// byte pattern derived from `tag`.
pub fn test_sample(tag: u8, len: usize) -> CachedSample {
    CachedSample {
        data: Arc::new(vec![tag; len]),
        label: tag as u64,
        width: len as u32,
        height: 1,
        channels: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> SampleKey {
        SampleKey::Disk {
            offset: n,
            len: 100,
        }
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = SampleCache::new(1024);
        assert!(c.lookup(&key(1)).is_none());
        assert!(c.insert(key(1), test_sample(7, 100), 50));
        let got = c.lookup(&key(1)).expect("hit");
        assert_eq!(got.data.as_slice(), &[7u8; 100]);
        assert_eq!(got.label, 7);
        let (lookups, hits, misses) = c.lookup_stats();
        assert_eq!((lookups, hits, misses), (2, 1, 1));
    }

    #[test]
    fn evicts_cheapest_cost_first() {
        let c = SampleCache::new(300);
        assert!(c.insert(key(1), test_sample(1, 100), 10)); // cheap
        assert!(c.insert(key(2), test_sample(2, 100), 900)); // expensive
        assert!(c.insert(key(3), test_sample(3, 100), 500));
        // A fourth insert must push out the cheapest (key 1), even though
        // key 1 is not the least recently used once we touch it.
        assert!(c.lookup(&key(1)).is_some());
        assert!(c.insert(key(4), test_sample(4, 100), 700));
        assert!(!c.contains(&key(1)), "cheapest-to-redecode evicted first");
        assert!(c.contains(&key(2)) && c.contains(&key(3)) && c.contains(&key(4)));
    }

    #[test]
    fn recency_breaks_cost_ties() {
        let c = SampleCache::new(200);
        assert!(c.insert(key(1), test_sample(1, 100), 50));
        assert!(c.insert(key(2), test_sample(2, 100), 50));
        assert!(c.lookup(&key(1)).is_some()); // key 2 is now LRU
        assert!(c.insert(key(3), test_sample(3, 100), 50));
        assert!(!c.contains(&key(2)));
        assert!(c.contains(&key(1)));
    }

    #[test]
    fn capacity_is_never_exceeded_and_oversized_rejected() {
        let c = SampleCache::new(250);
        for n in 0..10 {
            c.insert(key(n), test_sample(n as u8, 100), n);
            assert!(c.resident_bytes() <= 250);
        }
        assert!(!c.insert(key(99), test_sample(9, 300), 5), "oversized");
        let (_, _, rejected, _) = c.churn_stats();
        assert_eq!(rejected, 1);
    }

    #[test]
    fn quarantine_refuses_admission_and_evicts_residents() {
        let c = SampleCache::new(1024);
        c.poison(key(1));
        assert!(!c.insert(key(1), test_sample(1, 100), 5));
        assert!(c.lookup(&key(1)).is_none());
        // Poisoning a resident key removes it immediately.
        assert!(c.insert(key(2), test_sample(2, 100), 5));
        c.poison(key(2));
        assert!(!c.contains(&key(2)));
        assert!(c.is_quarantined(&key(2)));
        let (_, _, _, quarantined) = c.churn_stats();
        assert_eq!(quarantined, 2);
        // Accounting still balances: inserted == resident + evicted.
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    fn reinsert_refreshes_without_double_count() {
        let c = SampleCache::new(1024);
        assert!(c.insert(key(1), test_sample(1, 100), 5));
        assert!(c.insert(key(1), test_sample(1, 100), 9));
        let (insertions, ..) = c.churn_stats();
        assert_eq!(insertions, 1);
        assert_eq!(c.resident_bytes(), 100);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn partitions_isolate_tenants() {
        let registry = Registry::new();
        let c = SampleCache::partitioned(1000, &[(0, 1), (1, 1)], &registry);
        let k = |tenant, id| SampleKey::Object { tenant, id };
        // Tenant 0 churns way past its 500-byte share...
        for id in 0..20 {
            c.insert(k(0, id), test_sample(id as u8, 100), id);
        }
        // ...while tenant 1's hot set stays resident.
        for id in 0..5 {
            assert!(c.insert(k(1, id), test_sample(id as u8, 100), 1));
        }
        for id in 0..5 {
            assert!(c.contains(&k(1, id)), "tenant 1 object {id} evicted");
        }
        let residency = c.tenant_residency();
        assert_eq!(residency.len(), 2);
        for (_, resident, capacity) in residency {
            assert!(resident <= capacity);
        }
    }

    #[test]
    fn telemetry_counters_balance() {
        let telemetry = Telemetry::with_defaults();
        let c = SampleCache::with_telemetry(300, &telemetry);
        for n in 0..6 {
            c.insert(key(n), test_sample(n as u8, 100), n);
            c.lookup(&key(n));
        }
        c.poison(key(0));
        let snap = telemetry.registry.snapshot();
        assert_eq!(
            snap.counter(names::CACHE_HITS) + snap.counter(names::CACHE_MISSES),
            snap.counter(names::CACHE_LOOKUPS)
        );
        assert_eq!(
            snap.counter(names::CACHE_INSERTED_BYTES),
            snap.gauge(names::CACHE_RESIDENT_BYTES) as u64
                + snap.counter(names::CACHE_EVICTED_BYTES)
        );
        assert!(
            snap.gauge_high_water(names::CACHE_RESIDENT_BYTES)
                <= snap.gauge(names::CACHE_CAPACITY_BYTES)
        );
    }
}
