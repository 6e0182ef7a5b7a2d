//! What every pipeline here is assembled from: the decoder engine and the
//! backend configurations at the benchmark's geometry, and the
//! compute-engine side (a real `Dispatcher` over one copy stream, two device
//! buffers seeded into the free Trans Queue, the benchmark popping the full
//! one).

use crate::corpus::{BATCH, TARGET};
use crate::host;
use dlbooster::core::dispatcher::DeviceBatch;
use dlbooster::core::TransQueues;
use dlbooster::fpga::DataSourceResolver;
use dlbooster::gpu::StreamSet;
use dlbooster::prelude::*;
use std::sync::Arc;

/// Decode parallelism everywhere: one lane or worker per core (the Arria-10
/// model has room for eight lanes).
pub fn decode_ways() -> usize {
    host::nproc().min(8)
}

/// A running FPGA-functional decoder with [`decode_ways`] Huffman lanes.
pub fn decoder(
    resolver: Arc<dyn DataSourceResolver>,
    telemetry: &Telemetry,
) -> Result<DecoderEngine, String> {
    let mut device = FpgaDevice::new(DeviceSpec::arria10_ax());
    device
        .load_mirror(DecoderMirror::jpeg_with_ways(decode_ways() as u32, 1))
        .map_err(|e| e.to_string())?;
    DecoderEngine::start_with_telemetry(device, resolver, telemetry).map_err(|e| e.to_string())
}

/// `DlBooster` training configuration for one engine. `cache_bytes` is 0:
/// the 2 GiB default `EpochCache` would turn every epoch after the first
/// into whole-batch replay.
pub fn training_config(records: usize, sample_cache_bytes: u64) -> DlBoosterConfig {
    let mut config = DlBoosterConfig::training(1, BATCH, TARGET, records, None);
    config.cache_bytes = 0;
    config.sample_cache_bytes = sample_cache_bytes;
    config
}

pub fn cpu_config() -> CpuBackendConfig {
    CpuBackendConfig {
        n_engines: 1,
        batch_size: BATCH,
        target_w: TARGET.0 as u32,
        target_h: TARGET.1 as u32,
        workers: decode_ways(),
        max_batches: None,
        sample_cache: None,
    }
}

pub struct EngineSide {
    dispatcher: Dispatcher,
    pub trans: Arc<TransQueues>,
}

impl EngineSide {
    pub fn attach(
        backend: Arc<dyn PreprocessBackend>,
        telemetry: &Telemetry,
    ) -> Result<Self, String> {
        let gpu = GpuDevice::new(GpuSpec::tesla_v100(), 0);
        let buffers = [
            gpu.alloc(backend.max_batch_bytes())?,
            gpu.alloc(backend.max_batch_bytes())?,
        ];
        let dispatcher = Dispatcher::start_with_telemetry(
            backend,
            Arc::new(StreamSet::new("copy", 1, 0.0)),
            1,
            buffers.len(),
            gpu.spec().pcie_bytes_per_sec,
            telemetry,
        );
        let trans = dispatcher.trans_queues(0);
        for buf in buffers {
            trans.free.push(buf).map_err(|e| e.to_string())?;
        }
        Ok(EngineSide { dispatcher, trans })
    }

    pub fn pop(&self) -> Result<DeviceBatch, String> {
        self.trans
            .full
            .pop()
            .map_err(|_| "Trans Queue closed: the pipeline stopped delivering".to_string())
    }

    pub fn give_back(&self, batch: DeviceBatch) -> Result<(), String> {
        self.trans
            .free
            .push(batch.dev)
            .map_err(|_| "free Trans Queue closed".to_string())
    }

    /// Stops `backend` and the dispatcher and joins the dispatcher thread.
    /// Shutting the backend down releases a dispatcher blocked in
    /// `next_batch`; closing both Trans Queues releases one blocked on
    /// either of them.
    pub fn detach(self, backend: &dyn PreprocessBackend) {
        backend.shutdown();
        self.trans.free.close();
        self.trans.full.close();
        drop(self.trans.full.drain());
        self.dispatcher.join();
    }
}

/// Numbers the program publishes itself, read once the pipeline is quiet
/// (only then do the snapshot's conservation laws have to hold).
pub struct Quiet {
    pub snapshot_violations: usize,
    pub copy_latency_ms_mean: f64,
    pub lane_service_ms_mean: f64,
}

impl Quiet {
    pub fn read(telemetry: &Telemetry) -> Quiet {
        let snap = telemetry.pipeline_snapshot();
        let mean_ms = |h: &Option<dlbooster::telemetry::HistogramSnapshot>| {
            h.as_ref().map_or(0.0, |h| h.mean() / 1e6)
        };
        Quiet {
            snapshot_violations: snap.invariant_violations().len(),
            copy_latency_ms_mean: mean_ms(&snap.dispatcher.copy_latency),
            lane_service_ms_mean: mean_ms(&snap.decoder.lane_service),
        }
    }
}
