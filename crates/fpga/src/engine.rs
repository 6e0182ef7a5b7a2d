//! The functional decoder engine: the paper's Fig. 4 pipeline executed on
//! CPU threads.
//!
//! Topology (mirroring the RTL):
//!
//! ```text
//!  Submission ─► cmd FIFO ─► parser ─► MMU ─► N Huffman/iDCT/resize lanes ─► FINISH
//!  (unit+cmds)              (unpack)  (claim   (dlb-codec kernel, each       arbiter
//!                                     windows)  writing into its window)
//! ```
//!
//! A [`Submission`] carries the *batch buffer itself* (`BatchUnit`) next to
//! its packed cmds. Before anything is decoded the MMU stage maps every
//! cmd's `[dst_phys, dst_phys + dst_capacity)` onto the unit — it must lie
//! inside the unit's simulated physical range and be disjoint from every
//! other cmd's — and splits the unit's storage into those windows. Each lane
//! then owns exactly the window of the item it decodes and the codec kernel
//! writes finished rows straight into it (the paper's DMA writeback through
//! the MMU into the host slot); there is no decoded image in between and no
//! copy afterwards. The unit comes back with per-cmd [`FinishSignal`]s
//! through the completion queue. Ownership transfer in/out of the engine is
//! the Rust-safe analogue of the paper's DMA-into-pinned-HugePage protocol;
//! the one thing the borrow checker cannot see — that a long-lived lane
//! thread may write into a unit the orchestrator holds — is the `Window`
//! type's documented contract.

use crate::cmd::{DataRef, DecodeCmd, FinishSignal, ItemStatus, OutputFormat, CMD_WIRE_BYTES};
use crate::device::FpgaDevice;
use crate::error::FpgaError;
use crate::mirror::MirrorKind;
use dlb_chaos::{FaultKind, StageInjector};
use dlb_codec::pixel::ColorSpace;
use dlb_codec::{DecodeScratch, JpegDecoder};
use dlb_membridge::{BatchUnit, BlockingQueue};
use dlb_telemetry::{names, Counter, Histogram, Telemetry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Resolves a cmd's [`DataRef`] to the raw compressed bytes — the functional
/// stand-in for the DataReader's "DMA from Disk" / "DMA from DRAM" ports.
/// `dlb-storage` implements this over its NVMe store and `dlb-net` over its
/// RX buffers.
pub trait DataSourceResolver: Send + Sync + 'static {
    /// Fetches the bytes behind `src`. Shared, not copied: a source that
    /// already holds the object behind an `Arc` hands out a clone of it.
    fn fetch(&self, src: &DataRef) -> Result<Arc<Vec<u8>>, String>;
}

/// A simple in-memory resolver of disk objects, for tests and examples.
#[derive(Default)]
pub struct MapResolver {
    disk: Mutex<HashMap<u64, Arc<Vec<u8>>>>,
}

impl MapResolver {
    /// Empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a disk object at `offset`; returns the matching [`DataRef`].
    pub fn put_disk(&self, offset: u64, bytes: Vec<u8>) -> DataRef {
        let len = bytes.len() as u32;
        self.disk.lock().insert(offset, Arc::new(bytes));
        DataRef::Disk { offset, len }
    }
}

impl DataSourceResolver for MapResolver {
    fn fetch(&self, src: &DataRef) -> Result<Arc<Vec<u8>>, String> {
        match *src {
            DataRef::Disk { offset, len } => self
                .disk
                .lock()
                .get(&offset)
                .filter(|b| b.len() == len as usize)
                .cloned()
                .ok_or_else(|| format!("no disk object at {offset}")),
            DataRef::HostMem { phys_addr, .. } => Err(format!("no host object at {phys_addr:#x}")),
        }
    }
}

/// A batch handed to the engine: the destination buffer plus packed cmds.
pub struct Submission {
    /// The batch buffer every cmd in this submission writes into.
    pub unit: BatchUnit,
    /// Packed decode cmds (`DecodeCmd::pack`), parsed device-side.
    pub cmds: Vec<[u8; CMD_WIRE_BYTES]>,
}

/// A finished batch returned through the completion queue.
pub struct CompletedBatch {
    /// The buffer, now holding decoded pixels.
    pub unit: BatchUnit,
    /// One FINISH signal per cmd, in cmd order.
    pub finishes: Vec<FinishSignal>,
}

impl CompletedBatch {
    /// Count of successfully decoded items.
    pub fn ok_count(&self) -> usize {
        self.finishes.iter().filter(|f| f.status.is_ok()).count()
    }
}

/// Lifetime counters exposed by the engine — `decoder.*` telemetry
/// handles, registered on the pipeline registry when the engine is built
/// with [`DecoderEngine::start_with_telemetry`].
#[derive(Debug)]
pub struct EngineStats {
    /// Batches completed.
    pub batches: Arc<Counter>,
    /// Items entering the lanes (cmds parsed, ok or not).
    pub items_in: Arc<Counter>,
    /// Items decoded successfully.
    pub items_ok: Arc<Counter>,
    /// Items failed (fetch or decode).
    pub items_err: Arc<Counter>,
    /// Total pixel bytes written back.
    pub bytes_written: Arc<Counter>,
    /// Per-item lane service time (ns).
    pub lane_service: Arc<Histogram>,
}

impl EngineStats {
    fn register(telemetry: &Telemetry) -> Self {
        Self {
            batches: telemetry.registry.counter(names::DECODER_BATCHES),
            items_in: telemetry.registry.counter(names::DECODER_ITEMS_IN),
            items_ok: telemetry.registry.counter(names::DECODER_ITEMS_OK),
            items_err: telemetry.registry.counter(names::DECODER_ITEMS_ERR),
            bytes_written: telemetry.registry.counter(names::DECODER_BYTES_WRITTEN),
            lane_service: telemetry.registry.histogram(names::DECODER_LANE_SERVICE),
        }
    }
}

/// A lane's exclusive view of one cmd's destination bytes inside the batch
/// unit the orchestrator is holding: the DMA window the MMU stage granted.
///
/// A `Window` is made only by [`claim_windows`], from a `&mut [u8]` it carved
/// out of the unit's storage with `split_at_mut`, so the windows of one
/// submission are pairwise disjoint and inside the storage by construction
/// (debug-asserted again over the finished list). It is a raw pointer rather
/// than that `&mut [u8]` because the lanes are long-lived threads and the
/// unit is not `'static`; what the borrow would have guaranteed is instead
/// guaranteed by the orchestrator's protocol, stated on [`Window::bytes`].
struct Window {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: a `Window` is a unique pointer to `len` bytes nobody else touches
// until the job carrying it has reported back (see `Window::bytes`); moving
// that capability to the lane thread is exactly its purpose. `u8` has no
// thread affinity.
unsafe impl Send for Window {}

impl Window {
    fn new(bytes: &mut [u8]) -> Self {
        Self {
            ptr: bytes.as_mut_ptr(),
            len: bytes.len(),
        }
    }

    /// The window's bytes.
    ///
    /// # Safety
    /// The storage the window was carved from must be alive and untouched by
    /// anyone else for as long as the returned slice is used. The
    /// orchestrator guarantees it: the storage is the heap allocation of the
    /// submission's `BatchUnit` (moving the unit does not move it), the
    /// orchestrator neither reads, writes, moves out nor drops that unit
    /// between handing out the windows and receiving one outcome for every
    /// job (it does nothing but wait in between, and that wait fails only
    /// when every lane thread is gone), and a lane sends the outcome only
    /// after its last use of the slice.
    unsafe fn bytes(&mut self) -> &mut [u8] {
        // SAFETY: `ptr`/`len` came from a live `&mut [u8]`; exclusivity and
        // liveness are the caller's obligation above.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

/// One cmd cleared by the MMU stage, with its window of the batch unit.
struct LaneJob {
    idx: usize,
    cmd: DecodeCmd,
    window: Window,
}

/// What a lane wrote: bytes at the start of the window, and the geometry.
type LaneOutcome = Result<(u32, u16, u16), ItemStatus>;

/// The running decoder engine (device + lane threads + queues).
///
/// `Debug` prints queue depths only; the device is owned by the orchestrator
/// thread while running.
pub struct DecoderEngine {
    submit_q: BlockingQueue<Submission>,
    done_q: BlockingQueue<CompletedBatch>,
    orchestrator: Option<JoinHandle<FpgaDevice>>,
    stats: Arc<EngineStats>,
    chaos: Arc<OnceLock<Arc<StageInjector>>>,
}

impl DecoderEngine {
    /// Starts the engine on `device` (which must have a mirror loaded —
    /// the kernel dispatched per cmd follows the mirror's
    /// [`MirrorKind`]) using `resolver` for data fetches. Metrics land in
    /// a private registry; use [`DecoderEngine::start_with_telemetry`] to
    /// share the pipeline's.
    pub fn start(
        device: FpgaDevice,
        resolver: Arc<dyn DataSourceResolver>,
    ) -> Result<Self, FpgaError> {
        Self::start_with_telemetry(device, resolver, &Telemetry::with_defaults())
    }

    /// Like [`DecoderEngine::start`], but recording `decoder.*` metrics
    /// into the shared pipeline `telemetry`.
    pub fn start_with_telemetry(
        device: FpgaDevice,
        resolver: Arc<dyn DataSourceResolver>,
        telemetry: &Telemetry,
    ) -> Result<Self, FpgaError> {
        let mirror = device.mirror().ok_or(FpgaError::NoMirrorLoaded)?;
        let kind = mirror.kind;
        let ways = mirror.huffman_ways as usize;
        let fifo_depth = mirror.cmd_fifo_depth;

        let submit_q: BlockingQueue<Submission> = BlockingQueue::bounded(fifo_depth.max(1));
        let done_q: BlockingQueue<CompletedBatch> = BlockingQueue::unbounded();
        let stats = Arc::new(EngineStats::register(telemetry));
        let chaos: Arc<OnceLock<Arc<StageInjector>>> = Arc::new(OnceLock::new());

        let sq = submit_q.clone();
        let dq = done_q.clone();
        let st = Arc::clone(&stats);
        let ch = Arc::clone(&chaos);
        let orchestrator = std::thread::Builder::new()
            .name("fpga-orchestrator".into())
            .spawn(move || run_orchestrator(device, sq, dq, st, resolver, ways, kind, ch))
            .expect("spawn orchestrator");

        Ok(Self {
            submit_q,
            done_q,
            orchestrator: Some(orchestrator),
            stats,
            chaos,
        })
    }

    /// Attaches a chaos injector for the FPGA plane: lane stalls
    /// (cancellable — a wedged lane releases when the plan's cancel token
    /// fires) and poisoned segments (the cmd fails with a decode error).
    /// Faults are keyed by `cmd_id`, so replays with the same seed poison
    /// the same items. One-shot; later calls are ignored.
    pub fn attach_chaos(&self, injector: Arc<StageInjector>) {
        let _ = self.chaos.set(injector);
    }

    /// Submits a batch; blocks if the cmd FIFO is full (device back-pressure).
    pub fn submit(&self, submission: Submission) -> Result<(), FpgaError> {
        self.submit_q
            .push(submission)
            .map_err(|_| FpgaError::EngineStopped)
    }

    /// The completion queue (`drain_out` target of Algorithm 1).
    pub fn completions(&self) -> &BlockingQueue<CompletedBatch> {
        &self.done_q
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Stops accepting submissions, drains in-flight batches, joins threads,
    /// and returns the device for reconfiguration.
    pub fn shutdown(mut self) -> FpgaDevice {
        self.submit_q.close();

        self.orchestrator
            .take()
            .expect("shutdown called once")
            .join()
            .expect("orchestrator panicked")
    }
}

impl std::fmt::Debug for DecoderEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecoderEngine")
            .field("pending_submissions", &self.submit_q.len())
            .field("pending_completions", &self.done_q.len())
            .finish()
    }
}

impl Drop for DecoderEngine {
    fn drop(&mut self) {
        self.submit_q.close();
        if let Some(handle) = self.orchestrator.take() {
            let _ = handle.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_orchestrator(
    device: FpgaDevice,
    submit_q: BlockingQueue<Submission>,
    done_q: BlockingQueue<CompletedBatch>,
    stats: Arc<EngineStats>,
    resolver: Arc<dyn DataSourceResolver>,
    ways: usize,
    kind: MirrorKind,
    chaos: Arc<OnceLock<Arc<StageInjector>>>,
) -> FpgaDevice {
    let lane = Arc::new(Lane {
        decoder: JpegDecoder::new(),
        resolver,
        kind,
        service: Arc::clone(&stats.lane_service),
        chaos,
    });
    // The N-way Huffman/iDCT/resize unit: `ways` lane threads, each with its
    // own scratch kept across batches so steady-state decoding allocates
    // nothing. The lanes are long-lived and sleep on the job channel, so a
    // batch's jobs start with a wake-up (which preempts whatever runs on that
    // core) rather than with a thread start (which queues behind it for a
    // scheduler slice: lanes spawned per batch started ≈3 ms late under the
    // open-loop serving workload and cost it 11 % of its median latency).
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<LaneJob>();
    let (res_tx, res_rx) = crossbeam::channel::unbounded::<(usize, LaneOutcome)>();
    let lanes: Vec<_> = (0..ways.max(1))
        .map(|i| {
            let (lane, rx, tx) = (Arc::clone(&lane), job_rx.clone(), res_tx.clone());
            std::thread::Builder::new()
                .name(format!("fpga-lane-{i}"))
                .spawn(move || {
                    let mut scratch = DecodeScratch::new();
                    while let Ok(job) = rx.recv() {
                        let idx = job.idx;
                        if tx.send((idx, lane.run(&mut scratch, job))).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn lane")
        })
        .collect();
    drop((job_rx, res_tx));

    while let Ok(mut submission) = submit_q.pop() {
        let n = submission.cmds.len();
        stats.items_in.add(n as u64);
        // Parser stage: unpack and validate every cmd up front.
        let parsed: Vec<Result<DecodeCmd, ItemStatus>> = submission
            .cmds
            .iter()
            .map(|wire| {
                DecodeCmd::unpack(wire).map_err(|e| ItemStatus::DecodeError {
                    detail: format!("cmd parse: {e}"),
                })
            })
            .collect();
        // MMU stage. A refused cmd never reaches a lane. From here until the
        // last outcome is in, `submission.unit` is not touched: the lanes
        // own its storage window by window (`Window::bytes`).
        let unit_phys = submission.unit.phys_addr();
        let (jobs, mut outcomes) = claim_windows(&parsed, unit_phys, submission.unit.storage_mut());
        let dispatched = jobs.len();
        for job in jobs {
            job_tx.send(job).expect("lanes alive");
        }
        for _ in 0..dispatched {
            // Errs only once every lane is gone, i.e. with no writer left.
            let (idx, outcome) = res_rx.recv().expect("lanes alive");
            outcomes[idx] = Some(outcome);
        }

        // FINISH arbiter.
        let mut finishes = Vec::with_capacity(n);
        for (idx, outcome) in outcomes.into_iter().enumerate() {
            let cmd_id = parsed[idx].as_ref().map_or(idx as u64, |cmd| cmd.cmd_id);
            let status = match outcome.expect("every cmd produced an outcome") {
                Ok((bytes_written, width, height)) => {
                    stats.items_ok.inc();
                    stats.bytes_written.add(bytes_written as u64);
                    ItemStatus::Ok {
                        bytes_written,
                        width,
                        height,
                    }
                }
                Err(status) => {
                    stats.items_err.inc();
                    status
                }
            };
            finishes.push(FinishSignal { cmd_id, status });
        }
        stats.batches.inc();
        if done_q
            .push(CompletedBatch {
                unit: submission.unit,
                finishes,
            })
            .is_err()
        {
            break; // downstream gone; stop decoding
        }
    }

    // Closing the job channel ends the lanes.
    drop(job_tx);
    for lane in lanes {
        let _ = lane.join();
    }
    done_q.close();
    device
}

/// The MMU stage: maps every parsed cmd's destination window onto the unit
/// and hands out the windows, disjoint pieces of `storage`.
///
/// A cmd is refused — it gets its error outcome here and no lane ever sees
/// it — when its window `[dst_phys, dst_phys + dst_capacity)` does not lie
/// inside the unit or shares a byte with another cmd's window (both are
/// refused: neither can be trusted to be the intended owner). Refusals never
/// affect the other cmds of the batch. Returns the jobs in window order and
/// one outcome slot per cmd, filled for the cmds that are already decided.
fn claim_windows(
    parsed: &[Result<DecodeCmd, ItemStatus>],
    unit_phys: u64,
    storage: &mut [u8],
) -> (Vec<LaneJob>, Vec<Option<LaneOutcome>>) {
    let unit_cap = storage.len() as u64;
    let mut outcomes: Vec<Option<LaneOutcome>> = vec![None; parsed.len()];
    // (start, end, cmd index) of every window inside the unit.
    let mut windows: Vec<(usize, usize, usize)> = Vec::with_capacity(parsed.len());
    for (idx, p) in parsed.iter().enumerate() {
        match p {
            Err(status) => outcomes[idx] = Some(Err(status.clone())),
            Ok(cmd) => {
                let start = cmd.dst_phys.checked_sub(unit_phys);
                let end = start.and_then(|s| s.checked_add(cmd.dst_capacity as u64));
                match (start, end) {
                    (Some(s), Some(e)) if e <= unit_cap => {
                        windows.push((s as usize, e as usize, idx))
                    }
                    _ => {
                        outcomes[idx] = Some(Err(ItemStatus::DecodeError {
                            detail: format!(
                                "dst_phys {:#x} (+{}) outside unit [{:#x}, +{}]",
                                cmd.dst_phys, cmd.dst_capacity, unit_phys, unit_cap
                            ),
                        }))
                    }
                }
            }
        }
    }
    // Overlaps: in start order, a window that begins before the furthest end
    // seen so far overlaps the window that reached that end.
    windows.sort_unstable();
    let mut furthest: Option<(usize, usize)> = None; // (end, cmd index)
    for &(start, end, idx) in &windows {
        if let Some((far_end, far_idx)) = furthest {
            if start < far_end {
                for (i, other) in [(idx, far_idx), (far_idx, idx)] {
                    outcomes[i] = Some(Err(ItemStatus::DecodeError {
                        detail: format!("destination window overlaps that of cmd #{other}"),
                    }));
                }
            }
        }
        if furthest.is_none_or(|(far_end, _)| end > far_end) {
            furthest = Some((end, idx));
        }
    }
    // What is left is pairwise disjoint and sorted: carve it out. Going
    // through `split_at_mut` makes the disjointness structural — an overlap
    // that slipped past the pass above would panic here, not alias.
    let base = storage.as_ptr() as usize;
    let span = base..base + storage.len();
    let mut jobs: Vec<LaneJob> = Vec::with_capacity(windows.len());
    let mut rest = storage;
    let mut consumed = 0usize;
    for (start, end, idx) in windows {
        if outcomes[idx].is_some() {
            continue;
        }
        let (_, tail) = rest.split_at_mut(start - consumed);
        let (window, tail) = tail.split_at_mut(end - start);
        rest = tail;
        consumed = end;
        let cmd = *parsed[idx].as_ref().expect("windows hold parsed cmds only");
        jobs.push(LaneJob {
            idx,
            cmd,
            window: Window::new(window),
        });
    }
    debug_assert!(
        jobs.iter().all(|j| {
            let at = j.window.ptr as usize;
            span.contains(&at) && at + j.window.len <= span.end
        }) && jobs
            .windows(2)
            .all(|w| w[0].window.ptr as usize + w[0].window.len <= w[1].window.ptr as usize),
        "MMU stage handed out windows that overlap or leave the unit"
    );
    (jobs, outcomes)
}

/// What every lane shares.
struct Lane {
    decoder: JpegDecoder,
    resolver: Arc<dyn DataSourceResolver>,
    kind: MirrorKind,
    service: Arc<Histogram>,
    chaos: Arc<OnceLock<Arc<StageInjector>>>,
}

impl Lane {
    /// Serves one job into its window. A failed item leaves the whole
    /// window zero-filled, whatever the failure and however far the kernel
    /// got.
    fn run(&self, scratch: &mut DecodeScratch, mut job: LaneJob) -> LaneOutcome {
        let started = Instant::now();
        // SAFETY: the orchestrator keeps the unit this window was carved
        // from alive and untouched until it has received the outcome this
        // function returns, and `window` is not used after that. The windows
        // of a submission are disjoint, so no other lane's slice overlaps
        // this one.
        let window = unsafe { job.window.bytes() };
        let outcome = self.serve(scratch, &job.cmd, window);
        if outcome.is_err() {
            window.fill(0);
        }
        self.service.record_duration(started.elapsed());
        outcome
    }

    fn serve(
        &self,
        scratch: &mut DecodeScratch,
        cmd: &DecodeCmd,
        window: &mut [u8],
    ) -> LaneOutcome {
        // Chaos: a Delay stalls the lane (cancellable — sliced sleep);
        // anything else poisons the segment with a decode error.
        if let Some(inj) = self.chaos.get() {
            match inj.decide(cmd.cmd_id) {
                Some(FaultKind::Delay(d)) => {
                    inj.sleep(d);
                }
                Some(_) => {
                    return Err(ItemStatus::DecodeError {
                        detail: format!("chaos: poisoned segment (cmd {})", cmd.cmd_id),
                    })
                }
                None => {}
            }
        }
        let resolver = &*self.resolver;
        match self.kind {
            MirrorKind::JpegImage => decode_one(&self.decoder, scratch, resolver, cmd, window),
            MirrorKind::AudioSpectrogram => {
                spectrogram_one(resolver, cmd).and_then(|owned| deliver(owned, window))
            }
            MirrorKind::TextQuantize => {
                quantize_one(resolver, cmd).and_then(|owned| deliver(owned, window))
            }
        }
    }
}

/// Copies a kernel's owned output into the cmd's window.
fn deliver((bytes, w, h): (Vec<u8>, u16, u16), window: &mut [u8]) -> LaneOutcome {
    let (n, capacity) = (bytes.len(), window.len());
    window
        .get_mut(..n)
        .ok_or_else(|| ItemStatus::DecodeError {
            detail: format!("output of {n} bytes exceeds dst_capacity {capacity}"),
        })?
        .copy_from_slice(&bytes);
    Ok((n as u32, w, h))
}

/// Audio kernel (paper §2.1 speech workflows): PCM in, log-DCT spectrogram
/// out. `cmd.target_w` = coefficients per frame (0 → 40); frame geometry is
/// the 16 kHz speech default.
fn spectrogram_one(
    resolver: &dyn DataSourceResolver,
    cmd: &DecodeCmd,
) -> Result<(Vec<u8>, u16, u16), ItemStatus> {
    use dlb_codec::audio::{pcm_from_le_bytes, spectrogram, SpectrogramConfig};
    let bytes = resolver
        .fetch(&cmd.src)
        .map_err(|detail| ItemStatus::FetchError { detail })?;
    let pcm = pcm_from_le_bytes(&bytes).map_err(|e| ItemStatus::DecodeError {
        detail: e.to_string(),
    })?;
    let mut config = SpectrogramConfig::speech_16k();
    if cmd.target_w != 0 {
        config.coefficients = cmd.target_w as usize;
    }
    let spec = spectrogram(&pcm, &config).map_err(|e| ItemStatus::DecodeError {
        detail: e.to_string(),
    })?;
    let frames = (spec.len() / config.coefficients) as u16;
    let mut out = Vec::with_capacity(spec.len() * 4);
    for v in &spec {
        out.extend_from_slice(&v.to_le_bytes());
    }
    Ok((out, config.coefficients as u16, frames))
}

/// Text kernel (paper §2.1 language workflows): UTF-8 in, `u32` token ids
/// out. `cmd.target_w` = sequence length (0 → 128).
fn quantize_one(
    resolver: &dyn DataSourceResolver,
    cmd: &DecodeCmd,
) -> Result<(Vec<u8>, u16, u16), ItemStatus> {
    use dlb_codec::text::{ids_to_le_bytes, quantize, QuantizeConfig};
    let bytes = resolver
        .fetch(&cmd.src)
        .map_err(|detail| ItemStatus::FetchError { detail })?;
    let text = std::str::from_utf8(&bytes).map_err(|e| ItemStatus::DecodeError {
        detail: format!("invalid UTF-8: {e}"),
    })?;
    let mut config = QuantizeConfig::default_nlp();
    if cmd.target_w != 0 {
        config.seq_len = cmd.target_w as usize;
    }
    let ids = quantize(text, &config).map_err(|e| ItemStatus::DecodeError {
        detail: e.to_string(),
    })?;
    Ok((ids_to_le_bytes(&ids), config.seq_len as u16, 1))
}

/// Image kernel: fetch, then the codec's streaming kernel — Huffman → iDCT
/// → colour → resizer → output format — writing rows into `window` as they
/// complete.
fn decode_one(
    decoder: &JpegDecoder,
    scratch: &mut DecodeScratch,
    resolver: &dyn DataSourceResolver,
    cmd: &DecodeCmd,
    window: &mut [u8],
) -> LaneOutcome {
    cmd.validate_image_output()
        .map_err(|e| ItemStatus::DecodeError {
            detail: e.to_string(),
        })?;
    let bytes = resolver
        .fetch(&cmd.src)
        .map_err(|detail| ItemStatus::FetchError { detail })?;
    let target = (cmd.target_w != 0).then_some((cmd.target_w as u32, cmd.target_h as u32));
    let color = match cmd.format {
        OutputFormat::Rgb8 => ColorSpace::Rgb,
        OutputFormat::Gray8 => ColorSpace::Gray,
    };
    let decoded = decoder
        .decode_into(&bytes, scratch, target, color, window)
        .map_err(|e| ItemStatus::DecodeError {
            detail: e.to_string(),
        })?;
    Ok((
        decoded.bytes as u32,
        decoded.width as u16,
        decoded.height as u16,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::mirror::DecoderMirror;
    use dlb_codec::synth::{generate, SynthStyle};
    use dlb_codec::JpegEncoder;
    use dlb_membridge::{MemManager, PoolConfig};

    fn engine_with_resolver() -> (DecoderEngine, Arc<MapResolver>, MemManager) {
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device
            .load_mirror(DecoderMirror::jpeg_paper_config())
            .unwrap();
        let resolver = Arc::new(MapResolver::new());
        let engine = DecoderEngine::start(device, resolver.clone()).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 4 << 20,
            unit_count: 4,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        (engine, resolver, pool)
    }

    fn jpeg_bytes(seed: u64, w: u32, h: u32) -> Vec<u8> {
        let img = generate(w, h, SynthStyle::Photo, seed);
        JpegEncoder::new(85).unwrap().encode(&img).unwrap()
    }

    #[test]
    fn decodes_a_batch_of_images() {
        let (engine, resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        let n = 8;
        let mut cmds = Vec::new();
        for i in 0..n {
            let src = resolver.put_disk(i as u64 * 1_000_000, jpeg_bytes(i as u64, 100, 75));
            let out_len = 64 * 64 * 3;
            let off = unit.reserve(out_len, i as u64, 64, 64, 3).unwrap();
            cmds.push(
                DecodeCmd {
                    cmd_id: 100 + i as u64,
                    src,
                    dst_phys: unit.phys_addr() + off as u64,
                    dst_capacity: out_len as u32,
                    target_w: 64,
                    target_h: 64,
                    format: OutputFormat::Rgb8,
                }
                .pack(),
            );
        }
        engine.submit(Submission { unit, cmds }).unwrap();
        let done = engine.completions().pop().unwrap();
        assert_eq!(done.finishes.len(), n);
        assert_eq!(done.ok_count(), n);
        for (i, f) in done.finishes.iter().enumerate() {
            assert_eq!(f.cmd_id, 100 + i as u64);
            match &f.status {
                ItemStatus::Ok {
                    bytes_written,
                    width,
                    height,
                } => {
                    assert_eq!(*bytes_written, 64 * 64 * 3);
                    assert_eq!((*width, *height), (64, 64));
                }
                other => panic!("item {i}: {other:?}"),
            }
        }
        // Decoded pixels actually landed in the unit (not all zeros).
        let mut payload = vec![0; done.unit.used()];
        done.unit.gather_into(&mut payload);
        let nz = payload.iter().filter(|&&b| b != 0).count();
        assert!(nz > 1000, "only {nz} nonzero bytes written");
        assert_eq!(engine.stats().items_ok.get(), n as u64);
        pool.recycle_item(done.unit).unwrap();
        let device = engine.shutdown();
        assert_eq!(device.mirror().unwrap().huffman_ways, 4);
    }

    #[test]
    fn decoded_pixels_match_host_decode() {
        let (engine, resolver, pool) = engine_with_resolver();
        let bytes = jpeg_bytes(7, 80, 60);
        // Reference: host-side decode + resize with the same codec.
        let reference = reference_rgb(&bytes, 32, 32);
        let src = resolver.put_disk(0x9000_0000, bytes);
        let mut unit = pool.get_item().unwrap();
        let off = unit.reserve(32 * 32 * 3, 0, 32, 32, 3).unwrap();
        let cmd = DecodeCmd {
            cmd_id: 1,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: 32 * 32 * 3,
            target_w: 32,
            target_h: 32,
            format: OutputFormat::Rgb8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        assert_eq!(done.ok_count(), 1);
        assert_eq!(done.unit.item_bytes(0), reference);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn bad_jpeg_reports_decode_error_without_killing_batch() {
        let (engine, resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        let good_src = resolver.put_disk(0, jpeg_bytes(1, 50, 50));
        let bad_src = resolver.put_disk(1_000_000, vec![0xAB; 500]);
        let mut cmds = Vec::new();
        for (i, src) in [good_src, bad_src].into_iter().enumerate() {
            let off = unit.reserve(28 * 28 * 3, i as u64, 28, 28, 3).unwrap();
            cmds.push(
                DecodeCmd {
                    cmd_id: i as u64,
                    src,
                    dst_phys: unit.phys_addr() + off as u64,
                    dst_capacity: 28 * 28 * 3,
                    target_w: 28,
                    target_h: 28,
                    format: OutputFormat::Rgb8,
                }
                .pack(),
            );
        }
        engine.submit(Submission { unit, cmds }).unwrap();
        let done = engine.completions().pop().unwrap();
        assert_eq!(done.ok_count(), 1);
        assert!(done.finishes[0].status.is_ok());
        assert!(matches!(
            done.finishes[1].status,
            ItemStatus::DecodeError { .. }
        ));
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn missing_source_reports_fetch_error() {
        let (engine, _resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        let off = unit.reserve(100, 0, 1, 1, 3).unwrap();
        let cmd = DecodeCmd {
            cmd_id: 5,
            src: DataRef::Disk {
                offset: 0xDEAD,
                len: 123,
            },
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: 100,
            target_w: 0,
            target_h: 0,
            format: OutputFormat::Rgb8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        assert!(matches!(
            done.finishes[0].status,
            ItemStatus::FetchError { .. }
        ));
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn out_of_unit_dma_is_rejected_by_mmu_check() {
        let (engine, resolver, pool) = engine_with_resolver();
        let unit = pool.get_item().unwrap();
        let src = resolver.put_disk(0, jpeg_bytes(2, 40, 40));
        let cmd = DecodeCmd {
            cmd_id: 9,
            src,
            // A physical address *outside* the unit.
            dst_phys: unit.phys_addr() + unit.capacity() as u64 + 4096,
            dst_capacity: 40 * 40 * 3,
            target_w: 40,
            target_h: 40,
            format: OutputFormat::Rgb8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        assert!(matches!(
            done.finishes[0].status,
            ItemStatus::DecodeError { .. }
        ));
        assert_eq!(done.ok_count(), 0);
        pool.recycle_item(done.unit).unwrap();
    }

    /// Host-side reference for one engine item: decode + resize + RGB.
    fn reference_rgb(bytes: &[u8], w: u32, h: u32) -> Vec<u8> {
        use dlb_codec::resize::{resize, ResizeFilter};
        let img = JpegDecoder::new().decode(bytes).unwrap();
        resize(&img, w, h, ResizeFilter::Bilinear)
            .unwrap()
            .to_rgb()
            .into_vec()
    }

    #[test]
    fn mmu_refuses_bad_windows_before_any_lane_writes_and_neighbours_decode() {
        let (engine, resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        // A recognisable background: whatever no lane may touch keeps it.
        unit.storage_mut().fill(0xAA);
        const ITEM: usize = 24 * 24 * 3;
        let jpegs: Vec<Vec<u8>> = (0..7).map(|i| jpeg_bytes(40 + i, 60, 45)).collect();
        let base = unit.phys_addr();
        let cap = unit.capacity() as u64;
        let mut offsets = Vec::new();
        for i in 0..7 {
            offsets.push(unit.reserve(ITEM, i, 24, 24, 3).unwrap() as u64);
        }
        // (dst_phys, dst_capacity, target) per cmd.
        let plan: [(u64, u32, u16); 7] = [
            (base + offsets[0], ITEM as u32, 24),             // good
            (base + offsets[1], ITEM as u32, 24),             // overlapped by #2
            (base + offsets[2] - 100, ITEM as u32 + 200, 24), // overlaps #1 and #3
            (base + offsets[3], ITEM as u32, 24),             // overlapped by #2
            (base + cap - 10, ITEM as u32, 24),               // leaves the unit
            (base + offsets[5], ITEM as u32, 0), // source geometry exceeds dst_capacity
            (base + offsets[6], ITEM as u32, 24), // good
        ];
        let cmds = plan
            .iter()
            .enumerate()
            .map(|(i, &(dst_phys, dst_capacity, target))| {
                let src = resolver.put_disk(i as u64 * 1_000_000, jpegs[i].clone());
                DecodeCmd {
                    cmd_id: 10 + i as u64,
                    src,
                    dst_phys,
                    dst_capacity,
                    target_w: target,
                    target_h: target,
                    format: OutputFormat::Rgb8,
                }
                .pack()
            })
            .collect();
        engine.submit(Submission { unit, cmds }).unwrap();
        let done = engine.completions().pop().unwrap();
        let ok: Vec<bool> = done.finishes.iter().map(|f| f.status.is_ok()).collect();
        assert_eq!(ok, [true, false, false, false, false, false, true]);
        for i in [1, 2, 3] {
            assert!(
                matches!(&done.finishes[i].status, ItemStatus::DecodeError { detail } if detail.contains("overlaps")),
                "{:?}",
                done.finishes[i].status
            );
        }
        assert!(
            matches!(&done.finishes[4].status, ItemStatus::DecodeError { detail } if detail.contains("outside unit")),
            "{:?}",
            done.finishes[4].status
        );
        // The neighbours decoded exactly as they would have alone.
        for i in [0usize, 6] {
            assert_eq!(done.unit.item_bytes(i), reference_rgb(&jpegs[i], 24, 24));
        }
        // The windows refused by the MMU were never handed to a lane:
        // untouched. The one the kernel refused (its lane owned it) is
        // zeroed, not partially written.
        for i in [1usize, 3] {
            let bytes = done.unit.item_bytes(i);
            assert!(bytes.iter().all(|&b| b == 0xAA), "item {i} was written");
        }
        assert!(done.unit.item_bytes(5).iter().all(|&b| b == 0));
        assert_eq!(engine.stats().items_ok.get(), 2);
        assert_eq!(engine.stats().items_err.get(), 5);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn a_failed_item_leaves_its_window_zero_filled() {
        // One lane, so the same scratch decodes A, then the truncated B,
        // then C; the unit arrives full of stale bytes.
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device
            .load_mirror(DecoderMirror::jpeg_with_ways(1, 1))
            .unwrap();
        let resolver = Arc::new(MapResolver::new());
        let engine = DecoderEngine::start(device, resolver.clone()).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 1 << 20,
            unit_count: 1,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let mut unit = pool.get_item().unwrap();
        unit.storage_mut().fill(0x5C);
        const ITEM: usize = 40 * 40 * 3;
        let a = jpeg_bytes(1, 120, 90);
        let c = jpeg_bytes(3, 120, 90);
        let mut b = jpeg_bytes(2, 120, 90);
        b.truncate(b.len() * 2 / 3);
        let mut cmds = Vec::new();
        for (i, bytes) in [&a, &b, &c].into_iter().enumerate() {
            let src = resolver.put_disk(i as u64 * 1_000_000, bytes.clone());
            let off = unit.reserve(ITEM, i as u64, 40, 40, 3).unwrap();
            cmds.push(
                DecodeCmd {
                    cmd_id: i as u64,
                    src,
                    dst_phys: unit.phys_addr() + off as u64,
                    dst_capacity: ITEM as u32,
                    target_w: 40,
                    target_h: 40,
                    format: OutputFormat::Rgb8,
                }
                .pack(),
            );
        }
        engine.submit(Submission { unit, cmds }).unwrap();
        let done = engine.completions().pop().unwrap();
        assert!(done.finishes[0].status.is_ok());
        assert!(matches!(
            done.finishes[1].status,
            ItemStatus::DecodeError { .. }
        ));
        assert!(done.finishes[2].status.is_ok());
        assert_eq!(done.unit.item_bytes(0), reference_rgb(&a, 40, 40));
        assert!(done.unit.item_bytes(1).iter().all(|&v| v == 0));
        assert_eq!(done.unit.item_bytes(2), reference_rgb(&c, 40, 40));
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn gray_output_format() {
        let (engine, resolver, pool) = engine_with_resolver();
        let mut unit = pool.get_item().unwrap();
        let src = resolver.put_disk(0, jpeg_bytes(3, 56, 56));
        let off = unit.reserve(28 * 28, 0, 28, 28, 1).unwrap();
        let cmd = DecodeCmd {
            cmd_id: 2,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: 28 * 28,
            target_w: 28,
            target_h: 28,
            format: OutputFormat::Gray8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        match done.finishes[0].status {
            ItemStatus::Ok { bytes_written, .. } => assert_eq!(bytes_written, 28 * 28),
            ref other => panic!("{other:?}"),
        }
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn engine_requires_a_mirror() {
        let device = FpgaDevice::new(DeviceSpec::arria10_ax());
        let err = DecoderEngine::start(device, Arc::new(MapResolver::new())).unwrap_err();
        assert_eq!(err, FpgaError::NoMirrorLoaded);
    }

    #[test]
    fn audio_mirror_extracts_spectrograms() {
        use dlb_codec::audio::{pcm_to_le_bytes, spectrogram, synth_pcm, SpectrogramConfig};
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device
            .load_mirror(DecoderMirror::audio_spectrogram())
            .unwrap();
        let resolver = Arc::new(MapResolver::new());
        let pcm = synth_pcm(4_000, 77);
        let src = resolver.put_disk(0, pcm_to_le_bytes(&pcm));
        let engine = DecoderEngine::start(device, resolver.clone()).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 1 << 20,
            unit_count: 2,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let coeffs = 40u16;
        let config = SpectrogramConfig::speech_16k();
        let frames = config.frames(4_000);
        let out_len = frames * coeffs as usize * 4;
        let mut unit = pool.get_item().unwrap();
        let off = unit
            .reserve(out_len, 0, coeffs as u32, frames as u32, 1)
            .unwrap();
        let cmd = DecodeCmd {
            cmd_id: 1,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: out_len as u32,
            target_w: coeffs,
            target_h: 0,
            format: OutputFormat::Gray8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        match done.finishes[0].status {
            ItemStatus::Ok {
                bytes_written,
                width,
                height,
            } => {
                assert_eq!(bytes_written as usize, out_len);
                assert_eq!(width, coeffs);
                assert_eq!(height as usize, frames);
            }
            ref other => panic!("{other:?}"),
        }
        // Device output equals the host-side kernel bit for bit.
        let reference = spectrogram(&pcm, &config).unwrap();
        let got: Vec<f32> = done
            .unit
            .item_bytes(0)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        assert_eq!(got, reference);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn text_mirror_quantizes_tokens() {
        use dlb_codec::text::{quantize, synth_text, QuantizeConfig};
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device.load_mirror(DecoderMirror::text_quantize()).unwrap();
        let resolver = Arc::new(MapResolver::new());
        let text = synth_text(20, 3);
        let src = resolver.put_disk(0, text.clone().into_bytes());
        let engine = DecoderEngine::start(device, resolver.clone()).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 64 << 10,
            unit_count: 2,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let seq_len = 32u16;
        let out_len = seq_len as usize * 4;
        let mut unit = pool.get_item().unwrap();
        let off = unit.reserve(out_len, 0, seq_len as u32, 1, 1).unwrap();
        let cmd = DecodeCmd {
            cmd_id: 2,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: out_len as u32,
            target_w: seq_len,
            target_h: 0,
            format: OutputFormat::Gray8,
        };
        engine
            .submit(Submission {
                unit,
                cmds: vec![cmd.pack()],
            })
            .unwrap();
        let done = engine.completions().pop().unwrap();
        assert!(
            done.finishes[0].status.is_ok(),
            "{:?}",
            done.finishes[0].status
        );
        let got: Vec<u32> = done
            .unit
            .item_bytes(0)
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let expected = quantize(
            &text,
            &QuantizeConfig {
                seq_len: 32,
                ..QuantizeConfig::default_nlp()
            },
        )
        .unwrap();
        assert_eq!(got, expected);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn many_batches_pipeline_through() {
        let (engine, resolver, pool) = engine_with_resolver();
        let n_batches = 6;
        let per_batch = 4;
        for b in 0..n_batches {
            let mut unit = pool.get_item().unwrap();
            let mut cmds = Vec::new();
            for i in 0..per_batch {
                let key = (b * per_batch + i) as u64;
                let src = resolver.put_disk(key * 1_000_000, jpeg_bytes(key, 64, 48));
                let off = unit.reserve(32 * 32 * 3, key, 32, 32, 3).unwrap();
                cmds.push(
                    DecodeCmd {
                        cmd_id: key,
                        src,
                        dst_phys: unit.phys_addr() + off as u64,
                        dst_capacity: 32 * 32 * 3,
                        target_w: 32,
                        target_h: 32,
                        format: OutputFormat::Rgb8,
                    }
                    .pack(),
                );
            }
            engine.submit(Submission { unit, cmds }).unwrap();
            // Recycle asynchronously to keep the pool from starving.
            if b >= 2 {
                let done = engine.completions().pop().unwrap();
                assert_eq!(done.ok_count(), per_batch);
                pool.recycle_item(done.unit).unwrap();
            }
        }
        for _ in 0..2 {
            let done = engine.completions().pop().unwrap();
            assert_eq!(done.ok_count(), per_batch);
            pool.recycle_item(done.unit).unwrap();
        }
        assert_eq!(engine.stats().batches.get(), n_batches as u64);
        assert_eq!(
            engine.stats().items_ok.get(),
            (n_batches * per_batch) as u64
        );
        // Lane service time was recorded for every item.
        assert_eq!(
            engine.stats().lane_service.count(),
            (n_batches * per_batch) as u64
        );
        assert_eq!(
            engine.stats().items_in.get(),
            (n_batches * per_batch) as u64
        );
    }

    #[test]
    fn chaos_poisons_segments_without_losing_the_batch() {
        use dlb_chaos::{FaultPlan, Stage, StageSpec};
        let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
        device
            .load_mirror(DecoderMirror::jpeg_paper_config())
            .unwrap();
        let resolver = Arc::new(MapResolver::new());
        let t = dlb_telemetry::Telemetry::with_defaults();
        let engine = DecoderEngine::start_with_telemetry(device, resolver.clone(), &t).unwrap();
        let mut plan = FaultPlan::disabled();
        plan.seed = 3;
        plan.fpga = StageSpec::rate(0.5).with_delay(std::time::Duration::from_millis(1));
        engine.attach_chaos(plan.injector(Stage::Fpga, &t).unwrap());
        let pool = MemManager::new(PoolConfig {
            unit_size: 4 << 20,
            unit_count: 2,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        let n = 24;
        let mut unit = pool.get_item().unwrap();
        let mut cmds = Vec::new();
        for i in 0..n {
            let src = resolver.put_disk(i as u64 * 1_000_000, jpeg_bytes(i as u64, 48, 48));
            let off = unit.reserve(16 * 16 * 3, i as u64, 16, 16, 3).unwrap();
            cmds.push(
                DecodeCmd {
                    cmd_id: i as u64,
                    src,
                    dst_phys: unit.phys_addr() + off as u64,
                    dst_capacity: 16 * 16 * 3,
                    target_w: 16,
                    target_h: 16,
                    format: OutputFormat::Rgb8,
                }
                .pack(),
            );
        }
        engine.submit(Submission { unit, cmds }).unwrap();
        let done = engine.completions().pop().unwrap();
        // The batch always completes: every cmd gets a FINISH signal.
        assert_eq!(done.finishes.len(), n);
        let poisoned = done
            .finishes
            .iter()
            .filter(|f| matches!(&f.status, ItemStatus::DecodeError { detail } if detail.contains("chaos")))
            .count();
        assert!(poisoned > 0, "a 50% rate must poison some segments");
        assert!(done.ok_count() > 0, "a 50% rate must pass some segments");
        assert_eq!(done.ok_count() + poisoned, n);
        let snap = t.registry.snapshot();
        assert!(snap.counter("chaos.injected.fpga") > 0);
        pool.recycle_item(done.unit).unwrap();
    }

    #[test]
    fn shutdown_closes_completion_queue() {
        let (engine, _resolver, _pool) = engine_with_resolver();
        let completions = engine.completions().clone();
        let _device = engine.shutdown();
        assert!(completions.pop().is_err());
    }
}
