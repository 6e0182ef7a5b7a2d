//! NIC RX engine: 40 Gbps wire model + host-memory payload placement.

use crate::framing::{FrameError, FrameView};
use dlb_chaos::{FaultKind, StageInjector};
use dlb_simcore::SimTime;
use dlb_telemetry::{names, Counter, Registry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default RX descriptor ring capacity. Real NICs post descriptors into a
/// fixed ring; when the host does not drain fast enough, arriving frames
/// are dropped at the wire instead of growing host memory without bound.
pub(crate) const DEFAULT_RX_RING_CAPACITY: usize = 4096;

/// Why the NIC refused one delivered frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RxError {
    /// The wire bytes failed to parse.
    Frame(FrameError),
    /// The frame parsed, but the descriptor ring was full — the frame is
    /// dropped (counted, payload not stored) until the host drains.
    RingFull {
        /// The ring's configured capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for RxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RxError::Frame(e) => write!(f, "frame error: {e:?}"),
            RxError::RingFull { capacity } => {
                write!(f, "RX ring full (capacity {capacity}), frame dropped")
            }
        }
    }
}

impl std::error::Error for RxError {}

impl From<FrameError> for RxError {
    fn from(e: FrameError) -> Self {
        RxError::Frame(e)
    }
}

/// Static NIC characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct NicSpec {
    /// Marketing name.
    pub name: String,
    /// Wire bandwidth, bytes/second.
    pub wire_bytes_per_sec: f64,
    /// Fixed per-packet latency (fabric + NIC processing).
    pub packet_latency: SimTime,
}

impl NicSpec {
    /// The paper's 40 Gbps fabric.
    pub fn forty_gbps() -> Self {
        Self {
            name: "40Gbps fabric".into(),
            wire_bytes_per_sec: 40.0e9 / 8.0,
            packet_latency: SimTime::from_micros(8),
        }
    }
}

/// Descriptor the NIC posts after depositing one request's payload in host
/// memory — the metadata `DataCollector::load_from_net` translates into
/// decode cmds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RxDescriptor {
    /// Request id from the frame.
    pub request_id: u64,
    /// Originating client.
    pub client_id: u32,
    /// Simulated physical address of the payload.
    pub phys_addr: u64,
    /// Payload length.
    pub len: u32,
    /// Arrival timestamp (set by the caller's clock domain; wall-clock nanos
    /// in the functional pipeline, virtual nanos in the DES).
    pub arrival_nanos: u64,
}

/// The functional RX engine: parses frames, stores payloads at fresh
/// simulated physical addresses, posts descriptors to an RX ring, and serves
/// fetches (the resolver side).
#[derive(Debug)]
pub struct NicRx {
    spec: NicSpec,
    ring_capacity: usize,
    state: Mutex<RxState>,
    /// Telemetry: frames dropped on ring overflow (`net.rx_ring_drops`).
    drop_counter: Option<Arc<Counter>>,
    /// Telemetry: frames rejected by the parser (`net.frames_bad`).
    bad_counter: Option<Arc<Counter>>,
    /// Optional chaos injector (wire corruption / forced ring overflow).
    chaos: Option<Arc<StageInjector>>,
    /// Frames offered so far — the identity key for deterministic chaos
    /// draws (frames arrive from a single producer in a stable order).
    chaos_ticket: AtomicU64,
}

#[derive(Debug)]
struct RxState {
    /// Shared so a fetch hands out the buffer itself, not a copy; a
    /// release while a decode still reads it only drops the NIC's reference.
    buffers: HashMap<u64, Arc<Vec<u8>>>,
    /// Released buffers nobody else holds, refilled by the next delivery:
    /// a warm RX path allocates nothing.
    spare: Vec<Arc<Vec<u8>>>,
    ring: VecDeque<RxDescriptor>,
    next_phys: u64,
    frames_ok: u64,
    frames_bad: u64,
    frames_dropped: u64,
    bytes_rx: u64,
}

impl NicRx {
    /// A fresh RX engine whose buffer region starts at `phys_base`, with
    /// the `DEFAULT_RX_RING_CAPACITY`.
    pub fn new(spec: NicSpec, phys_base: u64) -> Self {
        Self::with_ring_capacity(spec, phys_base, DEFAULT_RX_RING_CAPACITY)
    }

    /// A fresh RX engine with an explicit descriptor-ring bound (≥ 1).
    pub fn with_ring_capacity(spec: NicSpec, phys_base: u64, ring_capacity: usize) -> Self {
        Self {
            spec,
            ring_capacity: ring_capacity.max(1),
            state: Mutex::new(RxState {
                buffers: HashMap::new(),
                spare: Vec::new(),
                ring: VecDeque::new(),
                next_phys: phys_base,
                frames_ok: 0,
                frames_bad: 0,
                frames_dropped: 0,
                bytes_rx: 0,
            }),
            drop_counter: None,
            bad_counter: None,
            chaos: None,
            chaos_ticket: AtomicU64::new(0),
        }
    }

    /// Mirrors drop/bad-frame counts into `registry` under the canonical
    /// `net.*` names.
    pub fn with_telemetry(mut self, registry: &Arc<Registry>) -> Self {
        self.drop_counter = Some(registry.counter(names::NET_RX_DROPS));
        self.bad_counter = Some(registry.counter(names::NET_FRAMES_BAD));
        self
    }

    /// NIC characteristics.
    pub fn spec(&self) -> &NicSpec {
        &self.spec
    }

    /// Injects chaos at the wire: corrupted frames (take the bad-frame
    /// path) and forced ring overflows (take the drop path). Faults are
    /// keyed by frame arrival ordinal, so a replay with the same seed and
    /// the same frame sequence injects at the same frames.
    pub fn with_chaos(mut self, injector: Arc<StageInjector>) -> Self {
        self.chaos = Some(injector);
        self
    }

    /// Delivers raw wire bytes (one frame). On success the payload is
    /// copied — the modelled DMA, its only copy — into a recycled RX
    /// buffer and a descriptor is queued. Frames arriving to a full
    /// descriptor ring are dropped and counted — the backpressure signal
    /// the serving layer's drain loop responds to.
    pub fn deliver(&self, wire_bytes: &[u8], arrival_nanos: u64) -> Result<RxDescriptor, RxError> {
        let mut corrupted: Vec<u8>;
        let mut wire_bytes = wire_bytes;
        if let Some(inj) = &self.chaos {
            let ordinal = self.chaos_ticket.fetch_add(1, Ordering::Relaxed);
            match inj.decide(ordinal) {
                Some(FaultKind::Overflow) => {
                    // Forced ring overflow: the frame is dropped at the
                    // wire exactly as if the host had stalled.
                    self.state.lock().frames_dropped += 1;
                    if let Some(c) = &self.drop_counter {
                        c.inc();
                    }
                    return Err(RxError::RingFull {
                        capacity: self.ring_capacity,
                    });
                }
                Some(FaultKind::Delay(d)) => {
                    inj.sleep(d);
                }
                Some(_) => {
                    // Wire corruption: damage a copy of the frame bytes so
                    // the parser rejects it through the normal bad-frame
                    // path (or, for payload-only damage, downstream decode
                    // sees garbage — both are realistic bit-flip outcomes).
                    corrupted = wire_bytes.to_vec();
                    if !corrupted.is_empty() {
                        let idx = (ordinal as usize) % corrupted.len();
                        corrupted[idx] ^= 0xA5;
                    }
                    wire_bytes = &corrupted;
                }
                None => {}
            }
        }
        let frame = match FrameView::parse(wire_bytes) {
            Ok(f) => f,
            Err(e) => {
                self.state.lock().frames_bad += 1;
                if let Some(c) = &self.bad_counter {
                    c.inc();
                }
                return Err(RxError::Frame(e));
            }
        };
        let mut buf = self.state.lock().spare.pop().unwrap_or_default();
        let payload = Arc::get_mut(&mut buf).expect("spare RX buffers are unshared");
        payload.clear();
        payload.extend_from_slice(frame.payload);
        let mut st = self.state.lock();
        if st.ring.len() >= self.ring_capacity {
            st.frames_dropped += 1;
            st.spare.push(buf);
            if let Some(c) = &self.drop_counter {
                c.inc();
            }
            return Err(RxError::RingFull {
                capacity: self.ring_capacity,
            });
        }
        let phys_addr = st.next_phys;
        // 256-byte aligned buffer slots.
        st.next_phys += (frame.payload.len() as u64).div_ceil(256) * 256;
        let desc = RxDescriptor {
            request_id: frame.request_id,
            client_id: frame.client_id,
            phys_addr,
            len: frame.payload.len() as u32,
            arrival_nanos,
        };
        st.bytes_rx += wire_bytes.len() as u64;
        st.frames_ok += 1;
        st.buffers.insert(phys_addr, buf);
        st.ring.push_back(desc.clone());
        Ok(desc)
    }

    /// Pops the next RX descriptor, if any.
    pub fn poll(&self) -> Option<RxDescriptor> {
        self.state.lock().ring.pop_front()
    }

    /// Pops up to `n` descriptors (batch assembly).
    pub fn poll_batch(&self, n: usize) -> Vec<RxDescriptor> {
        let mut st = self.state.lock();
        let take = n.min(st.ring.len());
        st.ring.drain(..take).collect()
    }

    /// Reads a deposited payload (the DataReader's "DMA from DRAM"): a
    /// shared handle to the RX buffer, valid past its release.
    pub fn fetch(&self, phys_addr: u64, len: u32) -> Result<Arc<Vec<u8>>, String> {
        let st = self.state.lock();
        let buf = st
            .buffers
            .get(&phys_addr)
            .ok_or_else(|| format!("no RX buffer at {phys_addr:#x}"))?;
        if buf.len() != len as usize {
            return Err(format!(
                "RX buffer at {phys_addr:#x} is {} bytes, requested {len}",
                buf.len()
            ));
        }
        Ok(Arc::clone(buf))
    }

    /// Frees a payload buffer after the decoder consumed it. When the NIC
    /// held the last reference, the buffer goes back to the spare list for
    /// the next delivery; one a fetch still holds is simply dropped.
    pub fn release(&self, phys_addr: u64) -> bool {
        let mut st = self.state.lock();
        let Some(mut buf) = st.buffers.remove(&phys_addr) else {
            return false;
        };
        if Arc::get_mut(&mut buf).is_some() && st.spare.len() < self.ring_capacity {
            st.spare.push(buf);
        }
        true
    }

    /// Descriptors waiting.
    pub fn pending(&self) -> usize {
        self.state.lock().ring.len()
    }

    /// Buffers currently held.
    pub fn buffers_held(&self) -> usize {
        self.state.lock().buffers.len()
    }

    /// Frames dropped because the descriptor ring was full.
    pub fn dropped(&self) -> u64 {
        self.state.lock().frames_dropped
    }

    /// (ok, bad, bytes) lifetime counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.frames_ok, st.frames_bad, st.bytes_rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::Frame;

    fn frame(id: u64, payload_len: usize) -> Vec<u8> {
        Frame {
            request_id: id,
            client_id: (id % 5) as u32,
            send_ts_nanos: id * 1000,
            payload: vec![id as u8; payload_len],
        }
        .encode()
    }

    #[test]
    fn deliver_poll_fetch_release() {
        let nic = NicRx::new(NicSpec::forty_gbps(), 0x8_0000_0000);
        let d1 = nic.deliver(&frame(1, 100), 10).unwrap();
        let d2 = nic.deliver(&frame(2, 300), 20).unwrap();
        assert_ne!(d1.phys_addr, d2.phys_addr);
        assert_eq!(nic.pending(), 2);
        let p = nic.poll().unwrap();
        assert_eq!(p.request_id, 1);
        assert_eq!(p.arrival_nanos, 10);
        let bytes = nic.fetch(p.phys_addr, p.len).unwrap();
        assert_eq!(*bytes, vec![1u8; 100]);
        assert!(nic.release(p.phys_addr));
        assert!(!nic.release(p.phys_addr), "double release");
        assert!(nic.fetch(p.phys_addr, p.len).is_err());
        assert_eq!(nic.buffers_held(), 1);
    }

    #[test]
    fn poll_batch_takes_up_to_n() {
        let nic = NicRx::new(NicSpec::forty_gbps(), 0);
        for i in 0..5 {
            nic.deliver(&frame(i, 50), i).unwrap();
        }
        let batch = nic.poll_batch(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].request_id, 0);
        assert_eq!(nic.pending(), 2);
        assert_eq!(nic.poll_batch(10).len(), 2);
        assert!(nic.poll_batch(1).is_empty());
    }

    #[test]
    fn bad_frames_counted_not_stored() {
        let nic = NicRx::new(NicSpec::forty_gbps(), 0);
        assert!(nic.deliver(&[0xFF; 10], 0).is_err());
        let (ok, bad, _) = nic.counters();
        assert_eq!((ok, bad), (0, 1));
        assert_eq!(nic.pending(), 0);
    }

    #[test]
    fn wire_timing_40gbps() {
        let spec = NicSpec::forty_gbps();
        assert_eq!(spec.wire_bytes_per_sec, 5.0e9);
        assert_eq!(spec.packet_latency, SimTime::from_micros(8));
        // Aggregate: 5 clients × 100 KB × 1200 req/s = 600 MB/s ≪ 5 GB/s —
        // the fabric is never the bottleneck in the paper's experiments.
        let offered = 5.0 * 100_000.0 * 1200.0;
        assert!(offered < spec.wire_bytes_per_sec);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let nic = NicRx::with_ring_capacity(NicSpec::forty_gbps(), 0, 2);
        nic.deliver(&frame(0, 10), 0).unwrap();
        nic.deliver(&frame(1, 10), 1).unwrap();
        let err = nic.deliver(&frame(2, 10), 2).unwrap_err();
        assert_eq!(err, RxError::RingFull { capacity: 2 });
        assert_eq!(nic.dropped(), 1);
        assert_eq!(nic.pending(), 2);
        // Dropped frames never store payload buffers.
        assert_eq!(nic.buffers_held(), 2);
        // Draining the ring makes room again.
        nic.poll().unwrap();
        nic.deliver(&frame(3, 10), 3).unwrap();
        assert_eq!(nic.dropped(), 1);
        let (ok, bad, _) = nic.counters();
        assert_eq!((ok, bad), (3, 0), "drops are neither ok nor bad frames");
    }

    #[test]
    fn telemetry_mirrors_drops_and_bad_frames() {
        use std::sync::Arc;
        let registry = Arc::new(dlb_telemetry::Registry::new());
        let nic = NicRx::with_ring_capacity(NicSpec::forty_gbps(), 0, 1).with_telemetry(&registry);
        nic.deliver(&frame(0, 10), 0).unwrap();
        assert!(nic.deliver(&frame(1, 10), 1).is_err());
        assert!(nic.deliver(&[0xFF; 4], 2).is_err());
        let snap = registry.snapshot();
        assert_eq!(snap.counter(dlb_telemetry::names::NET_RX_DROPS), 1);
        assert_eq!(snap.counter(dlb_telemetry::names::NET_FRAMES_BAD), 1);
    }

    #[test]
    fn chaos_corrupts_or_drops_frames_deterministically() {
        use dlb_chaos::{FaultPlan, Stage, StageSpec};
        let run = |seed: u64| -> Vec<u8> {
            let t = dlb_telemetry::Telemetry::with_defaults();
            let mut plan = FaultPlan::disabled();
            plan.seed = seed;
            plan.net = StageSpec::rate(0.5);
            let nic = NicRx::new(NicSpec::forty_gbps(), 0)
                .with_chaos(plan.injector(Stage::Net, &t).unwrap());
            let mut outcomes = Vec::new();
            for i in 0..60u64 {
                outcomes.push(match nic.deliver(&frame(i, 32), i) {
                    Ok(d) => {
                        // Delivered payload is either intact or a
                        // corrupted copy — never a lost buffer.
                        assert_eq!(nic.fetch(d.phys_addr, d.len).unwrap().len(), 32);
                        0u8
                    }
                    Err(RxError::Frame(_)) => 1,
                    Err(RxError::RingFull { .. }) => 2,
                });
            }
            let (ok, bad, _) = nic.counters();
            assert_eq!(ok + bad + nic.dropped(), 60, "every frame accounted");
            assert_eq!(
                t.registry.snapshot().counter("chaos.injected.net"),
                t.registry.snapshot().counter("chaos.faults_total")
            );
            outcomes
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same frame sequence → same faults");
        assert!(a.iter().any(|&o| o != 0), "a 50% rate must inject");
        assert!(a.contains(&0), "a 50% rate must pass frames");
    }

    #[test]
    fn released_buffers_are_refilled_not_reallocated() {
        let nic = NicRx::new(NicSpec::forty_gbps(), 0);
        let d = nic.deliver(&frame(1, 100), 0).unwrap();
        let storage = nic.fetch(d.phys_addr, d.len).unwrap().as_ptr();
        assert!(nic.release(d.phys_addr));
        // The next payload lands in the same storage.
        let d = nic.deliver(&frame(2, 80), 0).unwrap();
        let held = nic.fetch(d.phys_addr, d.len).unwrap();
        assert_eq!(held.as_ptr(), storage);
        assert_eq!(*held, vec![2u8; 80]);
        // Released while a decode still reads it: the reader keeps its
        // bytes, and the NIC does not reuse them.
        assert!(nic.release(d.phys_addr));
        let d = nic.deliver(&frame(3, 80), 0).unwrap();
        assert_ne!(nic.fetch(d.phys_addr, d.len).unwrap().as_ptr(), storage);
        assert_eq!(*held, vec![2u8; 80]);
    }

    #[test]
    fn fetch_validates_length() {
        let nic = NicRx::new(NicSpec::forty_gbps(), 0);
        let d = nic.deliver(&frame(9, 64), 0).unwrap();
        assert!(nic.fetch(d.phys_addr, 63).is_err());
        assert!(nic.fetch(d.phys_addr, 64).is_ok());
    }
}
