//! The HugePage batch memory pool (paper Algorithm 2) and the `MemManager`
//! API from Table 1 (`get_item`, `recycle_item`, `phy2virt`, `virt2phy`).

use crate::queue::{BlockingQueue, QueueClosed};
use dlb_chaos::{FaultKind, StageInjector};
use dlb_telemetry::{names, Counter, Gauge, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Errors from pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The pool's free queue was closed (shutdown).
    Closed,
    /// A translation was requested for an address the pool does not own.
    UnknownAddress {
        /// The offending address.
        addr: u64,
    },
    /// Configuration rejected.
    BadConfig {
        /// Why.
        detail: String,
    },
    /// A unit from a different pool was recycled here.
    ForeignUnit,
    /// A unit that is already back in the free queue was recycled again.
    DoubleRecycle {
        /// The offending unit id.
        id: u32,
    },
    /// A cached payload larger than the unit's capacity was restored.
    RestoreOverflow {
        /// Cached payload length in bytes.
        payload: usize,
        /// Unit capacity in bytes.
        capacity: usize,
    },
    /// A restore item descriptor points outside the cached payload.
    RestoreLayout {
        /// The descriptor's byte offset.
        offset: usize,
        /// The descriptor's length.
        len: usize,
        /// The cached payload length it must fit inside.
        payload: usize,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Closed => write!(f, "memory pool closed"),
            PoolError::UnknownAddress { addr } => {
                write!(f, "address {addr:#x} not owned by this pool")
            }
            PoolError::BadConfig { detail } => write!(f, "bad pool config: {detail}"),
            PoolError::ForeignUnit => write!(f, "batch unit belongs to a different pool"),
            PoolError::DoubleRecycle { id } => {
                write!(f, "unit {id} is already in the free queue")
            }
            PoolError::RestoreOverflow { payload, capacity } => {
                write!(
                    f,
                    "cached payload {payload} exceeds unit capacity {capacity}"
                )
            }
            PoolError::RestoreLayout {
                offset,
                len,
                payload,
            } => write!(
                f,
                "item descriptor {offset}+{len} outside cached payload of {payload} bytes"
            ),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<QueueClosed> for PoolError {
    fn from(_: QueueClosed) -> Self {
        PoolError::Closed
    }
}

/// Pool construction parameters (Algorithm 2's `size`, `counts`).
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Bytes per batch unit — sized for one *batch* of decoded images
    /// (e.g. 256 × 224×224×3 ≈ 38 MB), not one image. This is the paper's
    /// key trick against small-piece copy overhead.
    pub unit_size: usize,
    /// Number of units pre-allocated.
    pub unit_count: usize,
    /// Base of the simulated physical address range.
    pub phys_base: u64,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            unit_size: 8 << 20,
            unit_count: 16,
            // An arbitrary high "physical" base, making accidental pointer
            // confusion with virtual addresses obvious in logs.
            phys_base: 0x4_0000_0000,
        }
    }
}

/// Description of one datum placed inside a batch unit — the `offset` of
/// Algorithm 1 plus the metadata the compute engine needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemDesc {
    /// Byte offset of this datum inside the unit.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
    /// Dataset label (classification target or request id).
    pub label: u64,
    /// Width of the decoded image in pixels.
    pub width: u32,
    /// Height of the decoded image in pixels.
    pub height: u32,
    /// Interleaved channel count (1 or 3).
    pub channels: u8,
}

/// Bytes another owner lends a unit instead of copying them in — a pinned
/// sample-cache slot. Read-only; dropping the box returns the loan, so a
/// unit recycled, reset or dropped on a closed pool releases it alike.
pub(crate) type Lent = Box<dyn AsRef<[u8]> + Send + Sync>;

/// One lent item: its index in the item list, its place in the unit's
/// layout, and the loan standing in for its bytes.
struct LentWindow {
    item: usize,
    offset: usize,
    bytes: Lent,
}

impl std::fmt::Debug for LentWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LentWindow")
            .field("item", &self.item)
            .field("offset", &self.offset)
            .field("len", &self.bytes.as_ref().as_ref().len())
            .finish()
    }
}

/// An owned lease on one pool unit: a batch buffer with a stable simulated
/// physical address. Dropping a `BatchUnit` without recycling it removes the
/// unit from circulation (leak detection in [`PoolStats`] catches this).
///
/// An item is either *inline* (its bytes live in the unit's storage,
/// written by [`BatchUnit::append`] or a device into a
/// [`BatchUnit::reserve`]d window) or *lent* ([`BatchUnit::lend`]: it keeps
/// its offsets in the layout, but its bytes stay with their owner until
/// [`BatchUnit::gather_into`] copies the whole layout out).
#[derive(Debug)]
pub struct BatchUnit {
    /// Unit index within its pool.
    id: u32,
    /// Pool identity tag (guards against cross-pool recycling).
    pool_tag: u64,
    /// Simulated physical base address of this unit.
    phys_addr: u64,
    /// The actual storage.
    data: Box<[u8]>,
    /// Bytes of `data` holding valid payload.
    used: usize,
    /// Items packed into this unit.
    items: Vec<ItemDesc>,
    /// Lent items, in item order; their offsets in `data` hold nothing.
    lent: Vec<LentWindow>,
    /// Monotone sequence number assigned when the unit was filled.
    sequence: u64,
}

impl BatchUnit {
    /// Unit index within the pool.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Simulated physical address of the unit base (what goes into FPGA
    /// decode cmds).
    pub fn phys_addr(&self) -> u64 {
        self.phys_addr
    }

    /// Simulated virtual address (what the dispatcher hands to CUDA-style
    /// async copies). Equal to the stable address of the backing storage.
    pub fn virt_addr(&self) -> u64 {
        self.data.as_ptr() as u64
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Valid payload length.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Payload bytes of a unit that holds no lent items. Lent items have no
    /// bytes in the unit's storage, so for such a unit this panics rather
    /// than return a stale region; [`BatchUnit::gather_into`] exports any
    /// unit.
    pub fn payload(&self) -> &[u8] {
        assert!(
            self.lent.is_empty(),
            "unit {} lends {} items: read it with gather_into",
            self.id,
            self.lent.len()
        );
        &self.data[..self.used]
    }

    /// Copies the unit's payload — inline bytes and lent windows, each at
    /// its item offset — into `dst[..used]`. The one way bytes leave a
    /// unit: a unit that lends nothing is one contiguous copy.
    ///
    /// Panics if `dst` is shorter than [`BatchUnit::used`].
    pub fn gather_into(&self, dst: &mut [u8]) {
        let dst = &mut dst[..self.used];
        let mut at = 0;
        for window in &self.lent {
            let bytes = window.bytes.as_ref().as_ref();
            let end = window.offset + bytes.len();
            dst[at..window.offset].copy_from_slice(&self.data[at..window.offset]);
            dst[window.offset..end].copy_from_slice(bytes);
            at = end;
        }
        dst[at..].copy_from_slice(&self.data[at..self.used]);
    }

    /// Full mutable storage (the "DMA target").
    pub fn storage_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Items packed in this unit.
    pub fn items(&self) -> &[ItemDesc] {
        &self.items
    }

    /// Moves the item list out, leaving the unit's payload in place with no
    /// items. For the consumer that forwards the layout with the bytes (the
    /// dispatcher's H2D copy) and then recycles the unit.
    pub fn take_items(&mut self) -> Vec<ItemDesc> {
        std::mem::take(&mut self.items)
    }

    /// Batch sequence number (set by the producer via [`BatchUnit::seal`]).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Appends one datum's bytes, returning its [`ItemDesc`] slot, or `None`
    /// if the unit cannot hold `len` more bytes.
    pub fn append(
        &mut self,
        bytes: &[u8],
        label: u64,
        width: u32,
        height: u32,
        channels: u8,
    ) -> Option<usize> {
        let offset = self.used;
        if offset + bytes.len() > self.data.len() {
            return None;
        }
        self.data[offset..offset + bytes.len()].copy_from_slice(bytes);
        self.used += bytes.len();
        self.items.push(ItemDesc {
            offset,
            len: bytes.len(),
            label,
            width,
            height,
            channels,
        });
        Some(self.items.len() - 1)
    }

    /// Reserves `len` bytes for device-side writes (the FPGA DMA path writes
    /// directly into the unit; the host only records the metadata). Returns
    /// the reserved offset, or `None` if the unit is full.
    pub fn reserve(
        &mut self,
        len: usize,
        label: u64,
        width: u32,
        height: u32,
        channels: u8,
    ) -> Option<usize> {
        let offset = self.used;
        if offset + len > self.data.len() {
            return None;
        }
        self.used += len;
        self.items.push(ItemDesc {
            offset,
            len,
            label,
            width,
            height,
            channels,
        });
        Some(offset)
    }

    /// Lends `bytes` as the next item: it takes its offsets in the layout
    /// exactly as [`BatchUnit::append`] would, but nothing is copied — the
    /// loan is held until the unit is reset, recycled or dropped. Returns
    /// the item index, or `None` (the loan dropped) if the layout is full.
    pub fn lend(
        &mut self,
        bytes: Lent,
        label: u64,
        width: u32,
        height: u32,
        channels: u8,
    ) -> Option<usize> {
        let len = bytes.as_ref().as_ref().len();
        let offset = self.reserve(len, label, width, height, channels)?;
        let item = self.items.len() - 1;
        self.lent.push(LentWindow {
            item,
            offset,
            bytes,
        });
        Some(item)
    }

    /// Bytes of item `idx`, inline or lent.
    pub fn item_bytes(&self, idx: usize) -> &[u8] {
        if let Ok(at) = self.lent.binary_search_by_key(&idx, |w| w.item) {
            return self.lent[at].bytes.as_ref().as_ref();
        }
        let it = &self.items[idx];
        &self.data[it.offset..it.offset + it.len]
    }

    /// Number of packed items.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Marks the unit ready with a batch sequence number.
    pub fn seal(&mut self, sequence: u64) {
        self.sequence = sequence;
    }

    /// Repopulates the unit from a previously captured payload + item
    /// layout (the epoch-cache replay path). Fails with a typed
    /// [`PoolError`] if the payload exceeds capacity or the items don't
    /// describe it; the unit is left untouched on failure.
    pub fn restore(&mut self, payload: &[u8], items: &[ItemDesc]) -> Result<(), PoolError> {
        if payload.len() > self.data.len() {
            return Err(PoolError::RestoreOverflow {
                payload: payload.len(),
                capacity: self.data.len(),
            });
        }
        if let Some(bad) = items.iter().find(|it| {
            it.offset
                .checked_add(it.len)
                .is_none_or(|end| end > payload.len())
        }) {
            return Err(PoolError::RestoreLayout {
                offset: bad.offset,
                len: bad.len,
                payload: payload.len(),
            });
        }
        self.reset();
        self.data[..payload.len()].copy_from_slice(payload);
        self.used = payload.len();
        self.items = items.to_vec();
        Ok(())
    }

    /// Clears payload/items for reuse, returning every loan (done
    /// automatically on recycle).
    pub fn reset(&mut self) {
        self.used = 0;
        self.items.clear();
        self.lent.clear();
        self.sequence = 0;
    }
}

/// Occupancy statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Units currently leased out (not in the free queue).
    pub leased: usize,
    /// Total units.
    pub total: usize,
    /// Lifetime lease operations.
    pub lease_ops: u64,
    /// Lifetime recycle operations.
    pub recycle_ops: u64,
}

/// Telemetry handles for the pool stage (`pool.*` metrics).
struct PoolHandles {
    leases: Arc<Counter>,
    recycles: Arc<Counter>,
    starvations: Arc<Counter>,
    blocked_nanos: Arc<Counter>,
    free_units: Arc<Gauge>,
}

impl PoolHandles {
    fn register(telemetry: &Telemetry) -> Self {
        Self {
            leases: telemetry.registry.counter(names::POOL_LEASES),
            recycles: telemetry.registry.counter(names::POOL_RECYCLES),
            starvations: telemetry.registry.counter(names::POOL_STARVATIONS),
            blocked_nanos: telemetry.registry.counter(names::POOL_BLOCKED_NANOS),
            free_units: telemetry.registry.gauge(names::POOL_FREE_UNITS),
        }
    }
}

struct PoolInner {
    free: BlockingQueue<BatchUnit>,
    unit_size: usize,
    unit_count: usize,
    phys_base: u64,
    pool_tag: u64,
    leased: AtomicUsize,
    lease_ops: AtomicU64,
    recycle_ops: AtomicU64,
    handles: Option<PoolHandles>,
    /// `virt_addr` of each unit by id — the translation table.
    virt_table: Vec<u64>,
    /// Per-unit "currently in the free queue" flags — detects
    /// double-recycles as typed errors instead of silent corruption.
    in_free: Vec<AtomicBool>,
    /// Optional chaos injector (pool exhaustion / delayed recycling).
    chaos: OnceLock<Arc<StageInjector>>,
    /// Ordinal for chaos fault decisions.
    chaos_ticket: AtomicU64,
}

/// The pool: pre-allocates all units up front and recycles them through an
/// internal free queue. Clone handles share the pool.
///
/// Named `MemManager` after the paper's Table 1 module.
#[derive(Clone)]
pub struct MemManager {
    inner: Arc<PoolInner>,
}

static POOL_TAG: AtomicU64 = AtomicU64::new(1);

impl MemManager {
    /// Pre-allocates `config.unit_count` units of `config.unit_size` bytes
    /// (Algorithm 2 lines 1–5).
    pub fn new(config: PoolConfig) -> Result<Self, PoolError> {
        Self::build(config, None)
    }

    /// Like [`MemManager::new`], but reporting lease/recycle/starvation
    /// counts and free-unit occupancy through `telemetry`.
    pub fn with_telemetry(config: PoolConfig, telemetry: &Telemetry) -> Result<Self, PoolError> {
        Self::build(config, Some(PoolHandles::register(telemetry)))
    }

    fn build(config: PoolConfig, handles: Option<PoolHandles>) -> Result<Self, PoolError> {
        if config.unit_size == 0 || config.unit_count == 0 {
            return Err(PoolError::BadConfig {
                detail: format!(
                    "unit_size={} unit_count={} must be positive",
                    config.unit_size, config.unit_count
                ),
            });
        }
        let pool_tag = POOL_TAG.fetch_add(1, Ordering::Relaxed);
        let free = BlockingQueue::unbounded();
        let mut virt_table = Vec::with_capacity(config.unit_count);
        let mut in_free = Vec::with_capacity(config.unit_count);
        for id in 0..config.unit_count {
            let data = vec![0u8; config.unit_size].into_boxed_slice();
            let unit = BatchUnit {
                id: id as u32,
                pool_tag,
                phys_addr: config.phys_base + (id * config.unit_size) as u64,
                data,
                used: 0,
                items: Vec::new(),
                lent: Vec::new(),
                sequence: 0,
            };
            virt_table.push(unit.virt_addr());
            in_free.push(AtomicBool::new(true));
            free.push(unit).expect("fresh queue is open");
        }
        if let Some(h) = &handles {
            h.free_units.set(config.unit_count as i64);
        }
        Ok(Self {
            inner: Arc::new(PoolInner {
                free,
                unit_size: config.unit_size,
                unit_count: config.unit_count,
                phys_base: config.phys_base,
                pool_tag,
                leased: AtomicUsize::new(0),
                lease_ops: AtomicU64::new(0),
                recycle_ops: AtomicU64::new(0),
                handles,
                virt_table,
                in_free,
                chaos: OnceLock::new(),
                chaos_ticket: AtomicU64::new(0),
            }),
        })
    }

    /// Attaches a chaos injector for the pool plane (exhaustion = forced
    /// starvation waits, delayed recycling). One branch on the hot path
    /// when absent; attach is one-shot (later calls are ignored).
    pub fn attach_chaos(&self, injector: Arc<StageInjector>) {
        let _ = self.inner.chaos.set(injector);
    }

    /// If a chaos fault fires for this pool operation, returns it.
    fn chaos_fault(&self) -> Option<(Arc<StageInjector>, FaultKind)> {
        let inj = self.inner.chaos.get()?;
        let ticket = self.inner.chaos_ticket.fetch_add(1, Ordering::Relaxed);
        inj.decide(ticket).map(|f| (Arc::clone(inj), f))
    }

    fn note_lease(&self, unit: &BatchUnit) {
        self.inner.in_free[unit.id as usize].store(false, Ordering::Release);
        self.inner.leased.fetch_add(1, Ordering::Relaxed);
        self.inner.lease_ops.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = &self.inner.handles {
            h.leases.inc();
            h.free_units.dec();
        }
    }

    /// Table 1 `get_item`: leases a free unit, blocking while none is
    /// available (the back-pressure of Algorithm 1 lines 5–9).
    pub fn get_item(&self) -> Result<BatchUnit, PoolError> {
        if let Some((inj, fault)) = self.chaos_fault() {
            // Simulated exhaustion: the lease waits as if the pool were
            // briefly empty. `Overflow` additionally surfaces as a
            // starvation event.
            if fault == FaultKind::Overflow {
                if let Some(h) = &self.inner.handles {
                    h.starvations.inc();
                }
            }
            inj.sleep(inj.delay());
        }
        let unit = match self.inner.free.try_pop() {
            Some(unit) => unit,
            None => {
                // Starvation: the reader outran recycling and must wait.
                if let Some(h) = &self.inner.handles {
                    h.starvations.inc();
                }
                let blocked = Instant::now();
                let unit = self.inner.free.pop()?;
                if let Some(h) = &self.inner.handles {
                    h.blocked_nanos
                        .add(blocked.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                }
                unit
            }
        };
        self.note_lease(&unit);
        Ok(unit)
    }

    /// Non-blocking variant of [`MemManager::get_item`].
    pub fn try_get_item(&self) -> Option<BatchUnit> {
        if self.chaos_fault().is_some() {
            // Simulated exhaustion: report "nothing free right now" and
            // let the caller take its fallback path.
            return None;
        }
        let unit = self.inner.free.try_pop()?;
        self.note_lease(&unit);
        Some(unit)
    }

    /// True when `unit` was leased from this pool. A failover layer uses
    /// this to route recycles between a retired primary pool and its
    /// fallback without consuming the unit on a
    /// [`PoolError::ForeignUnit`].
    pub fn owns(&self, unit: &BatchUnit) -> bool {
        unit.pool_tag == self.inner.pool_tag
    }

    /// Table 1 `recycle_item`: clears the unit and returns it to the free
    /// queue for the next batch.
    ///
    /// Typed failure modes: [`PoolError::ForeignUnit`] for a unit from
    /// another pool, [`PoolError::DoubleRecycle`] for a unit already in
    /// the free queue, [`PoolError::Closed`] after shutdown. Stats are
    /// only updated on success (a failed recycle drops the unit, which
    /// leak detection in [`PoolStats::leased`] then reports).
    pub fn recycle_item(&self, mut unit: BatchUnit) -> Result<(), PoolError> {
        if unit.pool_tag != self.inner.pool_tag {
            return Err(PoolError::ForeignUnit);
        }
        let id = unit.id;
        if self.inner.in_free[id as usize].swap(true, Ordering::AcqRel) {
            return Err(PoolError::DoubleRecycle { id });
        }
        if let Some((inj, _)) = self.chaos_fault() {
            // Delayed recycling: the unit lingers before re-entering the
            // free queue, starving downstream leases.
            inj.sleep(inj.delay());
        }
        unit.reset();
        if let Err(closed) = self.inner.free.push(unit) {
            self.inner.in_free[id as usize].store(false, Ordering::Release);
            return Err(closed.into());
        }
        self.inner.leased.fetch_sub(1, Ordering::Relaxed);
        self.inner.recycle_ops.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = &self.inner.handles {
            h.recycles.inc();
            h.free_units.inc();
        }
        Ok(())
    }

    /// Table 1 `phy2virt`: translates a simulated physical address inside
    /// the pool's range to the corresponding virtual address.
    pub fn phy2virt(&self, phys: u64) -> Result<u64, PoolError> {
        let span = (self.inner.unit_size * self.inner.unit_count) as u64;
        if phys < self.inner.phys_base || phys >= self.inner.phys_base + span {
            return Err(PoolError::UnknownAddress { addr: phys });
        }
        let off = phys - self.inner.phys_base;
        let id = (off / self.inner.unit_size as u64) as usize;
        let within = off % self.inner.unit_size as u64;
        Ok(self.inner.virt_table[id] + within)
    }

    /// Table 1 `virt2phy`: inverse translation.
    pub fn virt2phy(&self, virt: u64) -> Result<u64, PoolError> {
        for (id, &base) in self.inner.virt_table.iter().enumerate() {
            let end = base + self.inner.unit_size as u64;
            if virt >= base && virt < end {
                return Ok(self.inner.phys_base
                    + (id * self.inner.unit_size) as u64
                    + (virt - base));
            }
        }
        Err(PoolError::UnknownAddress { addr: virt })
    }

    /// Bytes per unit.
    pub fn unit_size(&self) -> usize {
        self.inner.unit_size
    }

    /// Units in the pool.
    pub fn unit_count(&self) -> usize {
        self.inner.unit_count
    }

    /// Units currently free.
    pub fn free_count(&self) -> usize {
        self.inner.free.len()
    }

    /// Occupancy statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            leased: self.inner.leased.load(Ordering::Relaxed),
            total: self.inner.unit_count,
            lease_ops: self.inner.lease_ops.load(Ordering::Relaxed),
            recycle_ops: self.inner.recycle_ops.load(Ordering::Relaxed),
        }
    }

    /// Shuts the pool down: blocked and future `get_item` calls fail.
    pub fn close(&self) {
        self.inner.free.close();
    }
}

impl std::fmt::Debug for MemManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemManager")
            .field("unit_size", &self.inner.unit_size)
            .field("unit_count", &self.inner.unit_count)
            .field("free", &self.inner.free.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    fn small_pool() -> MemManager {
        MemManager::new(PoolConfig {
            unit_size: 1024,
            unit_count: 4,
            phys_base: 0x1000_0000,
        })
        .unwrap()
    }

    #[test]
    fn lease_and_recycle_roundtrip() {
        let pool = small_pool();
        assert_eq!(pool.free_count(), 4);
        let unit = pool.get_item().unwrap();
        assert_eq!(pool.free_count(), 3);
        assert_eq!(pool.stats().leased, 1);
        pool.recycle_item(unit).unwrap();
        assert_eq!(pool.free_count(), 4);
        assert_eq!(pool.stats().leased, 0);
        assert_eq!(pool.stats().lease_ops, 1);
        assert_eq!(pool.stats().recycle_ops, 1);
    }

    #[test]
    fn units_have_distinct_contiguous_phys_addrs() {
        let pool = small_pool();
        let units: Vec<BatchUnit> = (0..4).map(|_| pool.get_item().unwrap()).collect();
        let mut addrs: Vec<u64> = units.iter().map(|u| u.phys_addr()).collect();
        addrs.sort_unstable();
        assert_eq!(
            addrs,
            vec![0x1000_0000, 0x1000_0400, 0x1000_0800, 0x1000_0C00]
        );
        for u in units {
            pool.recycle_item(u).unwrap();
        }
    }

    #[test]
    fn get_item_blocks_until_recycle() {
        let pool = MemManager::new(PoolConfig {
            unit_size: 64,
            unit_count: 1,
            phys_base: 0,
        })
        .unwrap();
        let unit = pool.get_item().unwrap();
        let pool2 = pool.clone();
        let waiter = thread::spawn(move || pool2.get_item().map(|u| u.id()));
        thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "get_item must block when pool empty");
        pool.recycle_item(unit).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), 0);
    }

    #[test]
    fn append_and_reserve_pack_items() {
        let pool = small_pool();
        let mut unit = pool.get_item().unwrap();
        let idx = unit.append(&[1, 2, 3, 4], 7, 2, 2, 1).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(unit.item_bytes(0), &[1, 2, 3, 4]);
        let off = unit.reserve(8, 8, 2, 2, 2).unwrap();
        assert_eq!(off, 4);
        assert_eq!(unit.used(), 12);
        assert_eq!(unit.item_count(), 2);
        assert_eq!(unit.items()[1].label, 8);
        // Fill to capacity boundary.
        assert!(unit.reserve(2000, 0, 1, 1, 1).is_none());
        pool.recycle_item(unit).unwrap();
        // After recycle, the unit comes back cleared.
        let unit = pool.get_item().unwrap();
        assert_eq!(unit.used(), 0);
        assert_eq!(unit.item_count(), 0);
    }

    #[test]
    fn restore_replays_cached_batches() {
        let pool = small_pool();
        // Capture a filled unit's state.
        let mut unit = pool.get_item().unwrap();
        unit.append(&[1, 2, 3, 4], 7, 2, 2, 1).unwrap();
        unit.append(&[5, 6], 8, 1, 2, 1).unwrap();
        let mut payload = vec![0; unit.used()];
        unit.gather_into(&mut payload);
        let items = unit.items().to_vec();
        pool.recycle_item(unit).unwrap();
        // Replay into a fresh lease.
        let mut unit = pool.get_item().unwrap();
        unit.restore(&payload, &items).unwrap();
        assert_eq!(unit.used(), 6);
        assert_eq!(unit.item_count(), 2);
        assert_eq!(unit.item_bytes(0), &[1, 2, 3, 4]);
        assert_eq!(unit.item_bytes(1), &[5, 6]);
        assert_eq!(unit.items()[1].label, 8);
        pool.recycle_item(unit).unwrap();
    }

    #[test]
    fn lent_items_keep_their_layout_and_gather_between_inline_ones() {
        let pool = small_pool();
        let mut unit = pool.get_item().unwrap();
        unit.append(&[1, 2], 0, 1, 2, 1).unwrap();
        assert_eq!(unit.lend(Box::new(vec![7u8, 8, 9]), 1, 1, 3, 1), Some(1));
        unit.append(&[4], 2, 1, 1, 1).unwrap();
        assert_eq!(unit.items()[1].offset, 2);
        assert_eq!(unit.items()[2].offset, 5);
        assert_eq!(unit.item_bytes(1), &[7, 8, 9]);
        let mut out = vec![0; unit.used()];
        unit.gather_into(&mut out);
        assert_eq!(out, [1, 2, 7, 8, 9, 4]);
        // The inline region behind a lent item is stale: refused, not read.
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unit.payload().len()));
        assert!(stale.is_err());
        assert!(unit.lend(Box::new(vec![0u8; 2000]), 3, 1, 1, 1).is_none());
        pool.recycle_item(unit).unwrap();
    }

    #[test]
    fn restore_rejects_oversized_or_inconsistent() {
        let pool = small_pool();
        let mut unit = pool.get_item().unwrap();
        // Payload larger than capacity → typed overflow error, unit intact.
        unit.append(&[9, 9], 1, 1, 1, 1).unwrap();
        assert_eq!(
            unit.restore(&vec![0u8; 4096], &[]),
            Err(PoolError::RestoreOverflow {
                payload: 4096,
                capacity: 1024
            })
        );
        assert_eq!(unit.used(), 2, "failed restore must not clobber the unit");
        // Item descriptor outside the payload → typed layout error.
        let bad_item = ItemDesc {
            offset: 8,
            len: 8,
            label: 0,
            width: 1,
            height: 1,
            channels: 1,
        };
        assert_eq!(
            unit.restore(&[0u8; 10], &[bad_item]),
            Err(PoolError::RestoreLayout {
                offset: 8,
                len: 8,
                payload: 10
            })
        );
        // Offset+len overflowing usize must error, not panic.
        let huge_item = ItemDesc {
            offset: usize::MAX,
            len: 2,
            label: 0,
            width: 1,
            height: 1,
            channels: 1,
        };
        assert!(matches!(
            unit.restore(&[0u8; 10], &[huge_item]),
            Err(PoolError::RestoreLayout { .. })
        ));
        pool.recycle_item(unit).unwrap();
    }

    #[test]
    fn double_recycle_rejected_with_typed_error() {
        let pool = small_pool();
        let unit = pool.get_item().unwrap();
        let id = unit.id();
        // Forge a duplicate lease of the same unit (same-module access to
        // private fields stands in for a hypothetical ownership bug).
        let forged = BatchUnit {
            id,
            pool_tag: unit.pool_tag,
            phys_addr: unit.phys_addr,
            data: vec![0u8; 16].into_boxed_slice(),
            used: 0,
            items: Vec::new(),
            lent: Vec::new(),
            sequence: 0,
        };
        pool.recycle_item(unit).unwrap();
        assert_eq!(
            pool.recycle_item(forged),
            Err(PoolError::DoubleRecycle { id })
        );
        // The real unit is still leasable afterwards.
        let unit = pool.get_item().unwrap();
        pool.recycle_item(unit).unwrap();
    }

    #[test]
    fn recycle_after_close_rejected_with_typed_error() {
        let pool = small_pool();
        let unit = pool.get_item().unwrap();
        let leased_before = pool.stats().leased;
        pool.close();
        assert_eq!(pool.recycle_item(unit), Err(PoolError::Closed));
        // The unit is gone (dropped), which leak detection reports.
        assert_eq!(pool.stats().leased, leased_before);
        assert_eq!(pool.stats().recycle_ops, 0, "failed recycle not counted");
    }

    #[test]
    fn chaos_faults_delay_but_conserve_units() {
        let t = dlb_telemetry::Telemetry::with_defaults();
        let pool = MemManager::with_telemetry(
            PoolConfig {
                unit_size: 64,
                unit_count: 2,
                phys_base: 0,
            },
            &t,
        )
        .unwrap();
        let mut plan = dlb_chaos::FaultPlan::disabled();
        plan.pool = dlb_chaos::StageSpec::rate(1.0).with_delay(std::time::Duration::from_millis(1));
        pool.attach_chaos(plan.injector(dlb_chaos::Stage::Pool, &t).unwrap());
        for _ in 0..10 {
            let unit = pool.get_item().unwrap();
            pool.recycle_item(unit).unwrap();
        }
        // try_get_item under a firing injector reports exhaustion.
        assert!(pool.try_get_item().is_none());
        assert_eq!(pool.free_count(), 2, "latency faults never lose units");
        let snap = t.pipeline_snapshot();
        assert!(snap.chaos.injected_pool >= 20);
        assert_eq!(snap.chaos.injected_pool, snap.chaos.faults_total);
    }

    #[test]
    fn seal_sets_sequence_and_reset_clears_it() {
        let pool = small_pool();
        let mut unit = pool.get_item().unwrap();
        unit.seal(99);
        assert_eq!(unit.sequence(), 99);
        unit.reset();
        assert_eq!(unit.sequence(), 0);
        pool.recycle_item(unit).unwrap();
    }

    #[test]
    fn address_translation_roundtrips() {
        let pool = small_pool();
        let unit = pool.get_item().unwrap();
        let phys = unit.phys_addr() + 100;
        let virt = pool.phy2virt(phys).unwrap();
        assert_eq!(virt, unit.virt_addr() + 100);
        assert_eq!(pool.virt2phy(virt).unwrap(), phys);
        pool.recycle_item(unit).unwrap();
    }

    #[test]
    fn translation_rejects_foreign_addresses() {
        let pool = small_pool();
        assert!(matches!(
            pool.phy2virt(0xDEAD_0000),
            Err(PoolError::UnknownAddress { .. })
        ));
        assert!(matches!(
            pool.virt2phy(7),
            Err(PoolError::UnknownAddress { .. })
        ));
    }

    #[test]
    fn foreign_unit_rejected() {
        let pool_a = small_pool();
        let pool_b = small_pool();
        let unit = pool_a.get_item().unwrap();
        assert_eq!(pool_b.recycle_item(unit), Err(PoolError::ForeignUnit));
    }

    #[test]
    fn close_unblocks_getters() {
        let pool = MemManager::new(PoolConfig {
            unit_size: 64,
            unit_count: 1,
            phys_base: 0,
        })
        .unwrap();
        let _held = pool.get_item().unwrap();
        let pool2 = pool.clone();
        let waiter = thread::spawn(move || pool2.get_item().err());
        thread::sleep(Duration::from_millis(10));
        pool.close();
        assert_eq!(waiter.join().unwrap(), Some(PoolError::Closed));
    }

    #[test]
    fn bad_config_rejected() {
        assert!(MemManager::new(PoolConfig {
            unit_size: 0,
            unit_count: 1,
            phys_base: 0
        })
        .is_err());
        assert!(MemManager::new(PoolConfig {
            unit_size: 1,
            unit_count: 0,
            phys_base: 0
        })
        .is_err());
    }

    #[test]
    fn telemetry_pool_reports_occupancy_and_starvation() {
        let t = dlb_telemetry::Telemetry::with_defaults();
        let pool = MemManager::with_telemetry(
            PoolConfig {
                unit_size: 64,
                unit_count: 1,
                phys_base: 0,
            },
            &t,
        )
        .unwrap();
        let unit = pool.get_item().unwrap();
        assert_eq!(t.pipeline_snapshot().pool.free_units, 0);
        let pool2 = pool.clone();
        let waiter = thread::spawn(move || {
            let u = pool2.get_item().unwrap();
            pool2.recycle_item(u).unwrap();
        });
        thread::sleep(Duration::from_millis(20));
        pool.recycle_item(unit).unwrap();
        waiter.join().unwrap();
        let snap = t.pipeline_snapshot().pool;
        assert_eq!(snap.leases, 2);
        assert_eq!(snap.recycles, 2);
        assert_eq!(snap.free_units, 1);
        assert!(snap.starvations >= 1, "starvations {}", snap.starvations);
        assert!(snap.blocked_nanos > 0);
    }

    #[test]
    fn concurrent_lease_recycle_conserves_units() {
        let pool = MemManager::new(PoolConfig {
            unit_size: 256,
            unit_count: 8,
            phys_base: 0x2000_0000,
        })
        .unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = pool.clone();
            handles.push(thread::spawn(move || {
                for i in 0..200 {
                    let mut unit = pool.get_item().unwrap();
                    let payload = [t as u8, i as u8];
                    unit.append(&payload, i, 1, 1, 1).unwrap();
                    assert_eq!(unit.item_bytes(0), &payload);
                    pool.recycle_item(unit).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.free_count(), 8);
        let stats = pool.stats();
        assert_eq!(stats.leased, 0);
        assert_eq!(stats.lease_ops, 800);
        assert_eq!(stats.recycle_ops, 800);
    }
}
