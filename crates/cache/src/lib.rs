//! `dlb-cache` — a decoded-sample cache between the codec and the pool.
//!
//! The paper's pipeline redecodes every sample on every pass, yet training
//! rereads the same corpus each epoch and online inference has hot keys.
//! This crate holds decoded pixels keyed by their *source identity* so a
//! later pass can skip decode entirely.
//!
//! Resident samples live in **cache-owned slots**: each partition allocates
//! one region of its capacity and carves it into slots, which are recycled the way pool units are — admission copies a
//! decoded window straight into a free slot and allocates nothing once
//! warm, and dropping the cache returns the region as a whole. A hit is a
//! [`SlotPin`], an owned handle on the slot that a batch unit *lends*
//! (`BatchUnit::lend`) instead of copying: one copy per warm image, slot →
//! device, gathered by the H2D copy. The unit still leases and recycles
//! through the HugePage pool, so `Free_Batch_Queue` back-pressure and its
//! lease/recycle accounting are unchanged; recycling the unit drops the
//! pins. Eviction may drop a pinned entry from the index, but its slot is
//! not reused until the last pin is released.
//!
//! Three properties drive the design, each proved by the property suite in
//! `tests/proptests.rs` and enforced as `cache.*` conservation laws in
//! [`dlb_telemetry::PipelineSnapshot`]:
//!
//! * **Bounded** — resident bytes never exceed capacity, at any instant
//!   (the registry's gauge high-water is part of the invariant check), and
//!   neither do resident plus evicted-but-pinned slots: both live in the
//!   one region.
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
use std::sync::atomic::{AtomicU32, Ordering};
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
    pub(crate) fn tenant(&self) -> Option<u32> {
        match self {
            SampleKey::Disk { .. } => None,
            SampleKey::Object { tenant, .. } => Some(*tenant),
        }
    }
}

/// Label and geometry of a decoded sample, stored beside its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleMeta {
    /// Training label / request tag.
    pub label: u64,
    /// Output width.
    pub width: u32,
    /// Output height.
    pub height: u32,
    /// Output channels.
    pub channels: u8,
}

/// An owned decoded sample, as [`SampleCache::insert`] accepts it. The
/// cache copies the pixels into one of its slots; the data path admits
/// straight from a batch unit with [`SampleCache::admit`] instead.
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
    /// Label and geometry.
    pub(crate) fn meta(&self) -> SampleMeta {
        SampleMeta {
            label: self.label,
            width: self.width,
            height: self.height,
            channels: self.channels,
        }
    }
}

/// One partition's slot memory: a single zeroed allocation of the
/// partition's capacity, made when the cache is built. `calloc`'d, so only
/// pages a slot has been written to become resident, and freed in one piece
/// when the cache and the last pin are gone.
struct Region {
    base: *mut u8,
    len: usize,
    /// `cache.pinned_bytes`, moved by the pins of this region's slots.
    pinned: Arc<Gauge>,
}

// SAFETY: `base`/`len` describe an allocation `Region` owns outright (no
// thread affinity), and every access to it goes through `bytes`/
// `bytes_mut`, whose callers guarantee that no range is written while any
// other reference to it exists (see `Slots::fill`); `pinned` is an
// `Arc<Gauge>`, itself `Send + Sync`.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    fn new(len: usize, pinned: Arc<Gauge>) -> Self {
        let mem: Box<[u8]> = vec![0u8; len].into_boxed_slice();
        Self {
            base: Box::into_raw(mem).cast::<u8>(),
            len,
            pinned,
        }
    }

    /// # Safety
    /// `offset..offset + len` is not written while the returned slice
    /// lives.
    unsafe fn bytes(&self, offset: usize, len: usize) -> &[u8] {
        assert!(offset + len <= self.len, "slot outside its region");
        std::slice::from_raw_parts(self.base.add(offset), len)
    }

    /// # Safety
    /// Nothing else reads or writes `offset..offset + len` while the
    /// returned slice lives.
    #[allow(clippy::mut_from_ref)]
    unsafe fn bytes_mut(&self, offset: usize, len: usize) -> &mut [u8] {
        assert!(offset + len <= self.len, "slot outside its region");
        std::slice::from_raw_parts_mut(self.base.add(offset), len)
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `base`/`len` came from `Box::into_raw` in `new`, and the
        // last owner is dropping it.
        drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(self.base, self.len)) });
    }
}

/// A slot: one extent of a region holding one sample. Shared between the
/// index (or the retired list) and its pins; the extent is reused only
/// once the index's handle is the last one (`Arc::get_mut`).
struct Slot {
    region: Arc<Region>,
    offset: usize,
    len: usize,
    meta: SampleMeta,
    /// Live pins, for `cache.pinned_bytes`. Reuse safety rests on the
    /// `Arc` count, not on this.
    pins: AtomicU32,
}

/// A cache hit: an owned pin on the sample's slot. Its bytes stay valid
/// and unchanged for as long as the pin lives — eviction may drop the
/// entry from the index meanwhile, but the slot is not reused until the
/// last pin drops. Dropping the pin releases it, wherever that happens.
pub struct SlotPin {
    slot: Arc<Slot>,
}

impl SlotPin {
    /// Pins `slot`. Called under the cache lock.
    fn new(slot: &Arc<Slot>) -> Self {
        if slot.pins.fetch_add(1, Ordering::Relaxed) == 0 {
            slot.region.pinned.add(slot.len as i64);
        }
        Self {
            slot: Arc::clone(slot),
        }
    }

    /// The sample's pixels.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: the extent is only written by `Slots::fill`, after
        // `Arc::get_mut` proved the slot unshared — and this pin holds a
        // clone, so no fill can reach it while the slice lives.
        unsafe { self.slot.region.bytes(self.slot.offset, self.slot.len) }
    }

    /// The sample's label and geometry.
    pub fn meta(&self) -> SampleMeta {
        self.slot.meta
    }
}

impl AsRef<[u8]> for SlotPin {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

impl Drop for SlotPin {
    fn drop(&mut self) {
        // The last pin takes the slot's bytes off the gauge *before* the
        // count reaches zero, so a concurrent re-pin (which adds after its
        // increment) can never make the gauge overstate what is pinned.
        let slot = &self.slot;
        let len = slot.len as i64;
        let mut pins = slot.pins.load(Ordering::Relaxed);
        loop {
            if pins == 1 {
                slot.region.pinned.add(-len);
            }
            match slot.pins.compare_exchange_weak(
                pins,
                pins - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => {
                    if pins == 1 {
                        slot.region.pinned.add(len);
                    }
                    pins = now;
                }
            }
        }
    }
}

impl std::fmt::Debug for SlotPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotPin")
            .field("offset", &self.slot.offset)
            .field("len", &self.slot.len)
            .field("meta", &self.slot.meta)
            .finish()
    }
}

/// A partition's slot memory: the region, its unused extents, and the slot
/// records awaiting reuse.
struct Slots {
    region: Arc<Region>,
    /// Unused extents `(offset, len)`, sorted by offset and coalesced.
    free: Vec<(usize, usize)>,
    /// Evicted slots still pinned: their extent frees once unshared.
    retired: Vec<Arc<Slot>>,
    /// Unshared slot records with no extent, reused by admission.
    spare: Vec<Arc<Slot>>,
}

impl Slots {
    fn new(capacity: u64, pinned: &Arc<Gauge>) -> Self {
        let len = capacity as usize;
        Self {
            region: Arc::new(Region::new(len, Arc::clone(pinned))),
            free: if len > 0 { vec![(0, len)] } else { Vec::new() },
            retired: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Copies `pixels` into a free extent of the region; `None` when no
    /// extent fits.
    fn fill(&mut self, pixels: &[u8], meta: SampleMeta) -> Option<Arc<Slot>> {
        self.reclaim();
        let offset = self.take(pixels.len())?;
        let mut slot = self.spare.pop().unwrap_or_else(|| {
            Arc::new(Slot {
                region: Arc::clone(&self.region),
                offset: 0,
                len: 0,
                meta,
                pins: AtomicU32::new(0),
            })
        });
        let record = Arc::get_mut(&mut slot).expect("spare slots are unshared");
        record.offset = offset;
        record.len = pixels.len();
        record.meta = meta;
        // SAFETY: the extent was just taken from `free`, so no slot — and
        // hence no pin — covers it, and the cache lock is held.
        unsafe { self.region.bytes_mut(offset, pixels.len()) }.copy_from_slice(pixels);
        Some(slot)
    }

    /// Returns an evicted slot's extent, or retires the slot while pins
    /// still read it.
    fn release(&mut self, mut slot: Arc<Slot>) {
        match Arc::get_mut(&mut slot) {
            Some(record) => {
                let (offset, len) = (record.offset, record.len);
                self.put(offset, len);
                self.spare.push(slot);
            }
            None => self.retired.push(slot),
        }
    }

    /// Frees the extents of retired slots whose last pin has dropped.
    fn reclaim(&mut self) {
        let mut i = 0;
        while i < self.retired.len() {
            if Arc::get_mut(&mut self.retired[i]).is_some() {
                let slot = self.retired.swap_remove(i);
                self.release(slot);
            } else {
                i += 1;
            }
        }
    }

    /// First fit: carves `len` bytes off the lowest extent that holds them.
    fn take(&mut self, len: usize) -> Option<usize> {
        if len == 0 {
            return Some(0);
        }
        let at = self.free.iter().position(|&(_, free)| free >= len)?;
        let (offset, free) = self.free[at];
        if free == len {
            self.free.remove(at);
        } else {
            self.free[at] = (offset + len, free - len);
        }
        Some(offset)
    }

    /// Returns an extent, merging it with its neighbours.
    fn put(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let at = self.free.partition_point(|&(o, _)| o < offset);
        let mut len = len;
        if at < self.free.len() && offset + len == self.free[at].0 {
            len += self.free.remove(at).1;
        }
        match at.checked_sub(1).map(|p| &mut self.free[p]) {
            Some(prev) if prev.0 + prev.1 == offset => prev.1 += len,
            _ => self.free.insert(at, (offset, len)),
        }
    }
}

struct Entry {
    slot: Arc<Slot>,
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
    slots: Slots,
}

impl Partition {
    fn new(capacity: u64, tenant: Option<(u32, TenantHandles)>, pinned: &Arc<Gauge>) -> Self {
        Self {
            capacity,
            resident: 0,
            entries: HashMap::new(),
            tenant,
            slots: Slots::new(capacity, pinned),
        }
    }

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
    pinned_bytes: Arc<Gauge>,
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
            pinned_bytes: registry.gauge(names::CACHE_PINNED_BYTES),
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
                vec![Partition::new(capacity_bytes, None, &stats.pinned_bytes)],
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
                partitions.push(Partition::new(
                    share,
                    Some((
                        *id,
                        TenantHandles {
                            hits: registry.counter(&key(HITS)),
                            misses: registry.counter(&key(MISSES)),
                            evictions: registry.counter(&key(EVICTIONS)),
                            resident_bytes: registry.gauge(&key(RESIDENT_BYTES)),
                        },
                    )),
                    &stats.pinned_bytes,
                ));
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
    /// a hit. A hit pins the sample's slot for as long as the returned
    /// [`SlotPin`] lives. Quarantined keys always miss.
    pub fn lookup(&self, key: &SampleKey) -> Option<SlotPin> {
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
                Some(SlotPin::new(&entry.slot))
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

    /// Admits an owned sample: [`SampleCache::admit`] of its pixels.
    pub fn insert(&self, key: SampleKey, sample: CachedSample, cost: u64) -> bool {
        self.admit(key, &sample.data, sample.meta(), cost)
    }

    /// Admits a decoded sample with the given relative redecode `cost`,
    /// copying `pixels` straight into a recycled slot, evicting
    /// cheapest-cost entries from the key's partition until it fits.
    /// Returns `false` (counted in `cache.rejected`) when the key is
    /// quarantined, the sample cannot fit even an empty partition, or the
    /// room it needs is held by evicted slots still pinned; a key already
    /// resident is refreshed in place (recency + cost), not double-counted.
    pub fn admit(&self, key: SampleKey, pixels: &[u8], meta: SampleMeta, cost: u64) -> bool {
        let bytes = pixels.len() as u64;
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
        // Evict until the byte budget and the region both have room.
        let slot = loop {
            if part.resident + bytes <= part.capacity {
                if let Some(slot) = part.slots.fill(pixels, meta) {
                    break slot;
                }
            }
            let Some(victim) = part.victim() else {
                self.stats.rejected.inc();
                return false;
            };
            self.evict_locked(part, &victim);
        };
        part.resident += bytes;
        if let Some((_, t)) = &part.tenant {
            t.resident_bytes.add(bytes as i64);
        }
        part.entries.insert(
            key,
            Entry {
                slot,
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
            let bytes = entry.slot.len as u64;
            part.resident -= bytes;
            self.stats.evictions.inc();
            self.stats.evicted_bytes.add(bytes);
            self.stats.resident_bytes.add(-(bytes as i64));
            self.stats.resident_entries.dec();
            if let Some((_, t)) = &part.tenant {
                t.evictions.inc();
                t.resident_bytes.add(-(bytes as i64));
            }
            part.slots.release(entry.slot);
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

    /// Bytes of slots pinned by a live [`SlotPin`] right now.
    pub fn pinned_bytes(&self) -> u64 {
        self.stats.pinned_bytes.get().max(0) as u64
    }

    /// Entries resident right now.
    pub fn len(&self) -> usize {
        self.stats.resident_entries.get().max(0) as usize
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(lookups, hits, misses)` so far, read together: the counters only
    /// move under the cache lock, so `hits + misses == lookups` always.
    pub fn lookup_stats(&self) -> (u64, u64, u64) {
        let _consistent = self.inner.lock();
        (
            self.stats.lookups.get(),
            self.stats.hits.get(),
            self.stats.misses.get(),
        )
    }

    /// `(insertions, evictions, rejected, quarantined)` so far, read
    /// together under the cache lock.
    pub fn churn_stats(&self) -> (u64, u64, u64, u64) {
        let _consistent = self.inner.lock();
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
        assert_eq!(got.bytes(), &[7u8; 100]);
        assert_eq!(got.meta().label, 7);
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
    fn a_pinned_slot_outlives_eviction_and_the_cache() {
        let c = SampleCache::new(200);
        assert!(c.insert(key(1), test_sample(1, 100), 1));
        assert!(c.insert(key(2), test_sample(2, 100), 5));
        let pin = c.lookup(&key(1)).expect("hit");
        assert_eq!(c.pinned_bytes(), 100);
        // Key 1 is the victim, but its slot stays pinned: key 2 goes too,
        // and key 3 takes key 2's slot.
        assert!(c.insert(key(3), test_sample(3, 100), 9));
        assert!(!c.contains(&key(1)) && !c.contains(&key(2)) && c.contains(&key(3)));
        assert_eq!(c.resident_bytes(), 100);
        drop(c);
        assert_eq!(pin.bytes(), &[1u8; 100], "pinned bytes survive the cache");
        assert_eq!(pin.meta().label, 1);
    }

    #[test]
    fn admission_waits_for_the_last_pin_on_a_full_region() {
        let c = SampleCache::new(100);
        assert!(c.insert(key(1), test_sample(1, 100), 1));
        let pins = [c.lookup(&key(1)).unwrap(), c.lookup(&key(1)).unwrap()];
        assert_eq!(c.pinned_bytes(), 100, "a slot counts once, however pinned");
        assert!(
            !c.insert(key(2), test_sample(2, 100), 1),
            "region held by pins"
        );
        assert_eq!(c.churn_stats().2, 1);
        drop(pins);
        assert_eq!(c.pinned_bytes(), 0);
        assert!(c.insert(key(2), test_sample(2, 100), 1));
        assert_eq!(c.lookup(&key(2)).unwrap().bytes(), &[2u8; 100]);
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
