//! The CPU-based online preprocessing backend.
//!
//! This is the paper's "CPU-based" baseline: worker threads fetch compressed
//! images, decode and resize them on host cores, and assemble batches. It
//! delivers high throughput only by *burning cores* — each Xeon core decodes
//! ≈300 ILSVRC-sized images/s (§2.2), so feeding a fast GPU takes 7–14 of
//! them (Figs. 6/9). The decode here is our real JPEG decoder, so the burn
//! is genuine CPU time, measured and reported through `cpu_busy_nanos`.

use crate::common::{decode_rgb_into, PoolScaffold};
use dlb_cache::{SampleCache, SampleMeta};
use dlb_codec::{DecodeScratch, JpegDecoder};
use dlb_fpga::DataSourceResolver;
use dlb_graph::{
    cpu_training, CompiledPipeline, DecodeDevice, GraphConfig, PipelineGraph, SampleAugmentor,
};
use dlb_membridge::{BatchUnit, MemManager};
use dlb_telemetry::{names, Telemetry};
use dlb_trace::{stages, SpanKind, Tracer};
use dlbooster_core::{
    augment_identity, fill_from_cache, sample_key, BackendError, DataCollector, HostBatch,
    PreprocessBackend,
};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// CPU backend parameters.
#[derive(Debug, Clone)]
pub struct CpuBackendConfig {
    /// Compute engines served.
    pub n_engines: usize,
    /// Images per batch.
    pub batch_size: usize,
    /// Output width.
    pub target_w: u32,
    /// Output height.
    pub target_h: u32,
    /// Decode worker threads ("burned cores").
    pub workers: usize,
    /// Total batches to deliver (None = until the collector ends).
    pub max_batches: Option<u64>,
    /// Optional decoded-sample cache: hits skip fetch + decode + resize
    /// entirely, misses are inserted with their measured decode cost
    /// (`huffman_ns + idct_ns`) as the eviction signal.
    pub sample_cache: Option<Arc<SampleCache>>,
}

impl CpuBackendConfig {
    fn unit_size(&self) -> usize {
        self.batch_size * self.target_w as usize * self.target_h as usize * 3
    }

    /// The canned graph [`CpuBackend::start`] compiles.
    fn canned_graph(&self) -> PipelineGraph {
        cpu_training(self.target_w, self.target_h, self.workers)
    }

    fn graph_config(&self) -> GraphConfig {
        GraphConfig {
            batch_size: self.batch_size,
            n_engines: self.n_engines,
            default_decode_parallelism: self.workers.max(1),
            seed: 0,
        }
    }
}

/// The running CPU-based backend.
pub struct CpuBackend {
    scaffold: Arc<PoolScaffold>,
    workers: Vec<JoinHandle<()>>,
    name: &'static str,
    /// Shared tracer slot (from the wiring telemetry) so `next_batch` can
    /// close the `queue.deliver` span; `None` without telemetry.
    tracer_cell: Option<Arc<OnceLock<Arc<Tracer>>>>,
}

impl CpuBackend {
    /// Starts `config.workers` decode threads pulling metadata from
    /// `collector` and bytes from `resolver`. Internally compiles the
    /// canned CPU training graph — see [`CpuBackend::from_graph`] for
    /// user-composed pipelines.
    pub fn start(
        collector: Arc<DataCollector>,
        resolver: Arc<dyn DataSourceResolver>,
        config: CpuBackendConfig,
    ) -> Result<Self, String> {
        let compiled = config
            .canned_graph()
            .compile(&config.graph_config())
            .map_err(|e| e.to_string())?;
        Self::start_inner(collector, resolver, config, &compiled, None)
    }

    /// [`CpuBackend::start`] with the per-stage `codec.*` timers exported
    /// into `telemetry` (`codec.huffman_ns` / `codec.idct_ns` /
    /// `codec.color_ns` / `codec.resize_ns`).
    pub fn start_with_telemetry(
        collector: Arc<DataCollector>,
        resolver: Arc<dyn DataSourceResolver>,
        config: CpuBackendConfig,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self, String> {
        let compiled = config
            .canned_graph()
            .compile(&config.graph_config())
            .map_err(|e| e.to_string())?;
        Self::start_inner(collector, resolver, config, &compiled, Some(telemetry))
    }

    /// Builds the backend from a user-composed [`PipelineGraph`]. The graph
    /// must decode on the CPU (`DecodeDevice::Cpu`); its resize geometry
    /// overrides `config.target_w/h`, its decode parallelism overrides
    /// `config.workers`, its sink queue depth overrides the substrate
    /// default, and any augmentation stages run inside the workers with
    /// per-(epoch, sample) seeded draws. The per-sample cache stays usable
    /// under augmentation: it stores pre-augmentation pixels and bypassed
    /// batches re-augment under their dispense epoch.
    pub fn from_graph(
        collector: Arc<DataCollector>,
        resolver: Arc<dyn DataSourceResolver>,
        config: CpuBackendConfig,
        graph: &PipelineGraph,
        seed: u64,
    ) -> Result<Self, String> {
        Self::from_graph_inner(collector, resolver, config, graph, seed, None)
    }

    /// [`CpuBackend::from_graph`] with a shared telemetry registry.
    pub fn from_graph_with_telemetry(
        collector: Arc<DataCollector>,
        resolver: Arc<dyn DataSourceResolver>,
        config: CpuBackendConfig,
        graph: &PipelineGraph,
        seed: u64,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self, String> {
        Self::from_graph_inner(collector, resolver, config, graph, seed, Some(telemetry))
    }

    fn from_graph_inner(
        collector: Arc<DataCollector>,
        resolver: Arc<dyn DataSourceResolver>,
        mut config: CpuBackendConfig,
        graph: &PipelineGraph,
        seed: u64,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, String> {
        let mut gc = config.graph_config();
        gc.seed = seed;
        let compiled = graph.compile(&gc).map_err(|e| e.to_string())?;
        if compiled.decode != DecodeDevice::Cpu {
            return Err(
                "CpuBackend executes CPU-decode graphs; use DlBooster::from_graph for \
                 DecodeDevice::Fpga"
                    .into(),
            );
        }
        config.target_w = compiled.resize.0;
        config.target_h = compiled.resize.1;
        config.workers = compiled.decode_parallelism;
        Self::start_inner(collector, resolver, config, &compiled, telemetry)
    }

    fn start_inner(
        collector: Arc<DataCollector>,
        resolver: Arc<dyn DataSourceResolver>,
        config: CpuBackendConfig,
        compiled: &CompiledPipeline,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, String> {
        if config.workers == 0 || config.batch_size == 0 || config.n_engines == 0 {
            return Err("workers, batch_size and n_engines must be positive".into());
        }
        // Resolves `DLB_AUG_SEED` here — at backend start, never inside
        // `compile`.
        let augmentor = compiled.augmentor();
        // Units hold the batch both as decoded (resize output) and after
        // augmentation (which may grow items 4x via Normalize).
        let unit_size = match &augmentor {
            Some(aug) => {
                let out = aug.output_bytes(config.target_w, config.target_h);
                config.unit_size().max(config.batch_size * out)
            }
            None => config.unit_size(),
        };
        let scaffold = Arc::new(PoolScaffold::with_slot_depth(
            config.n_engines,
            compiled.slot_depth,
            unit_size,
            (config.n_engines * 3).max(config.workers + 2),
            config.max_batches,
        )?);
        let mut workers = Vec::with_capacity(config.workers);
        for w in 0..config.workers {
            let collector = Arc::clone(&collector);
            let resolver = Arc::clone(&resolver);
            let scaffold = Arc::clone(&scaffold);
            let config = config.clone();
            let telemetry = telemetry.clone();
            let augmentor = augmentor.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cpu-decode-{w}"))
                    .spawn(move || {
                        cpu_worker(collector, resolver, scaffold, config, augmentor, telemetry)
                    })
                    .expect("spawn cpu worker"),
            );
        }
        Ok(Self {
            scaffold,
            workers,
            name: "CPU-based",
            tracer_cell: telemetry.as_ref().map(|t| t.tracer_cell()),
        })
    }

    /// Batches delivered so far.
    pub fn delivered(&self) -> u64 {
        self.scaffold.router.delivered()
    }

    /// The underlying pool (tests verify conservation).
    pub fn pool(&self) -> &MemManager {
        &self.scaffold.pool
    }
}

fn cpu_worker(
    collector: Arc<DataCollector>,
    resolver: Arc<dyn DataSourceResolver>,
    scaffold: Arc<PoolScaffold>,
    config: CpuBackendConfig,
    augmentor: Option<SampleAugmentor>,
    telemetry: Option<Arc<Telemetry>>,
) {
    // Stage timers are read only when somebody collects the counters — or
    // when the cache needs the per-image decode cost as its eviction signal.
    let decoder =
        JpegDecoder::new().with_stage_timing(telemetry.is_some() || config.sample_cache.is_some());
    let mut scratch = DecodeScratch::new();
    let dims = (config.target_w, config.target_h);
    let item_bytes = dims.0 as usize * dims.1 as usize * 3;
    // With an augmentor the decoded item is rewritten on its way into the
    // unit, so it is decoded into this buffer first.
    let mut staging = vec![0u8; if augmentor.is_some() { item_bytes } else { 0 }];
    let codec_nanos = telemetry.as_ref().map(|t| {
        [
            names::CODEC_HUFFMAN_NANOS,
            names::CODEC_IDCT_NANOS,
            names::CODEC_COLOR_NANOS,
            names::CODEC_RESIZE_NANOS,
        ]
        .map(|name| t.registry.counter(name))
    });
    'produce: while !scaffold.stop.load(Ordering::SeqCst) {
        // Resolved per batch so a tracer installed after worker start is
        // still picked up; one `OnceLock::get` branch when disabled.
        let tr: Option<&Arc<Tracer>> = telemetry.as_ref().and_then(|t| t.tracer());
        if !scaffold.router.claim() {
            break;
        }
        let metas = loop {
            match collector.next_metas(config.batch_size) {
                None => break 'produce,
                Some(m) if m.is_empty() => {
                    if scaffold.stop.load(Ordering::SeqCst) {
                        break 'produce;
                    }
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                Some(m) => break m,
            }
        };
        let trace_id = tr.map_or(0, |t| t.next_batch_id());
        let lease_t0 = tr.map(|_| Instant::now());
        let Ok(mut unit) = scaffold.pool.get_item() else {
            break;
        };
        if let (Some(t), Some(l0)) = (tr, lease_t0) {
            t.span(
                trace_id,
                stages::POOL_LEASE,
                SpanKind::Queue,
                l0,
                Instant::now(),
            );
        }
        let t0 = Instant::now();
        // Whole-batch cache bypass: a fully resident batch skips
        // fetch + decode + resize.
        if let Some(cache) = &config.sample_cache {
            if fill_from_cache(cache, &metas, augmentor.as_ref(), &mut unit) {
                let arrivals = metas.iter().map(|m| m.arrival_nanos.unwrap_or(0)).collect();
                if let Some(t) = tr {
                    t.span(
                        trace_id,
                        stages::CACHE_BYPASS,
                        SpanKind::Service,
                        t0,
                        Instant::now(),
                    );
                }
                scaffold
                    .cpu_busy_nanos
                    .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                if !scaffold.router.deliver(unit, arrivals, trace_id) {
                    break;
                }
                continue;
            }
        }
        let mut arrivals = Vec::with_capacity(metas.len());
        let fetched: Vec<Option<Arc<Vec<u8>>>> = metas
            .iter()
            .map(|meta| {
                arrivals.push(meta.arrival_nanos.unwrap_or(0));
                resolver.fetch(&meta.src).ok()
            })
            .collect();
        if let Some(t) = tr {
            t.span(
                trace_id,
                stages::FETCH,
                SpanKind::Service,
                t0,
                Instant::now(),
            );
        }
        let decode_t0 = tr.map(|_| Instant::now());
        let mut huffman_ns = 0u64;
        let mut idct_ns = 0u64;
        let mut color_ns = 0u64;
        let mut resize_ns = 0u64;
        // One item after the other through the streaming kernel, each
        // decoded, resized and written straight into its slot of the unit
        // (or, under augmentation, into the staging buffer the augmentor
        // reads). The per-datum small copy of §5.2 is gone; what is left of
        // it is the cache's copy into a slot at admission.
        for (meta, jpeg) in metas.iter().zip(&fetched) {
            let jpeg = jpeg.as_deref().map(Vec::as_slice);
            let key = config
                .sample_cache
                .as_ref()
                .and_then(|cache| sample_key(&meta.src).map(|key| (cache, key)));
            // Admission: pre-augmentation pixels, copied into a recycled
            // cache slot, with the measured decode cost as the eviction
            // signal.
            let admit = |pixels: &[u8], cost: u64| {
                if let Some((cache, key)) = key {
                    let sample = SampleMeta {
                        label: meta.label,
                        width: dims.0,
                        height: dims.1,
                        channels: 3,
                    };
                    cache.admit(key, pixels, sample, cost);
                }
            };
            let stats = match &augmentor {
                None => {
                    let Some(offset) = unit.reserve(item_bytes, meta.label, dims.0, dims.1, 3)
                    else {
                        continue;
                    };
                    let slot = &mut unit.storage_mut()[offset..offset + item_bytes];
                    let stats = decode_rgb_into(&decoder, &mut scratch, jpeg, dims, slot);
                    if let Some(s) = &stats {
                        admit(slot, s.huffman_ns + s.idct_ns);
                    }
                    stats
                }
                Some(aug) => {
                    let stats = decode_rgb_into(&decoder, &mut scratch, jpeg, dims, &mut staging);
                    if let Some(s) = &stats {
                        // Augmentation runs after the cache insert, so
                        // cached pixels stay pre-augmentation and every
                        // epoch redraws.
                        admit(&staging, s.huffman_ns + s.idct_ns);
                        let aug_t0 = tr.map(|_| Instant::now());
                        let out = aug.apply(
                            meta.epoch,
                            augment_identity(&meta.src),
                            &staging,
                            dims.0,
                            dims.1,
                            3,
                        );
                        if let (Some(t), Some(a0)) = (tr, aug_t0) {
                            t.span(
                                trace_id,
                                stages::AUGMENT,
                                SpanKind::Service,
                                a0,
                                Instant::now(),
                            );
                        }
                        unit.append(&out.data, meta.label, out.width, out.height, out.channels);
                    } else {
                        // A zeroed slot of the augmented geometry keeps the
                        // batch layout rectangular.
                        let (w, h) = aug.output_dims(dims.0, dims.1);
                        let bytes = aug.output_bytes(dims.0, dims.1);
                        if let Some(offset) = unit.reserve(bytes, meta.label, w, h, 3) {
                            unit.storage_mut()[offset..offset + bytes].fill(0);
                        }
                    }
                    stats
                }
            };
            match stats {
                Some(s) => {
                    huffman_ns += s.huffman_ns;
                    idct_ns += s.idct_ns;
                    color_ns += s.color_ns;
                    resize_ns += s.resize_ns;
                }
                // Failed fetch or decode: quarantine the key so the sample
                // can never be admitted.
                None => {
                    if let Some((cache, key)) = key {
                        cache.poison(key);
                    }
                }
            }
        }
        if let (Some(t), Some(d0)) = (tr, decode_t0) {
            // Resize is fused into the decode kernel; per-image augment
            // spans recorded above sit inside this window and win
            // segmentation.
            t.span(
                trace_id,
                stages::CPU_DECODE,
                SpanKind::Service,
                d0,
                Instant::now(),
            );
        }
        if let Some([huffman, idct, color, resize]) = &codec_nanos {
            huffman.add(huffman_ns);
            idct.add(idct_ns);
            color.add(color_ns);
            resize.add(resize_ns);
        }
        scaffold
            .cpu_busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if !scaffold.router.deliver(unit, arrivals, trace_id) {
            break;
        }
    }
}

impl PreprocessBackend for CpuBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn next_batch(&self, slot: usize) -> Result<HostBatch, BackendError> {
        let batch = self.scaffold.next_batch(slot)?;
        if let Some(t) = self.tracer_cell.as_ref().and_then(|c| c.get()) {
            if batch.trace != 0 {
                t.span(
                    batch.trace,
                    stages::QUEUE_DELIVER,
                    SpanKind::Queue,
                    batch.ready_at,
                    Instant::now(),
                );
            }
        }
        Ok(batch)
    }

    fn recycle(&self, unit: BatchUnit) {
        self.scaffold.recycle(unit);
    }

    fn max_batch_bytes(&self) -> usize {
        self.scaffold.max_batch_bytes()
    }

    fn cpu_busy_nanos(&self) -> u64 {
        self.scaffold.cpu_busy_nanos()
    }

    fn shutdown(&self) {
        self.scaffold.shutdown();
    }
}

impl Drop for CpuBackend {
    fn drop(&mut self) {
        self.scaffold.join(&mut self.workers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec};
    use dlbooster_core::CombinedResolver;

    fn backend(workers: usize, max: Option<u64>) -> CpuBackend {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(16, 5), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        CpuBackend::start(
            collector,
            Arc::new(CombinedResolver::disk_only(disk)),
            CpuBackendConfig {
                n_engines: 1,
                batch_size: 4,
                target_w: 32,
                target_h: 32,
                workers,
                max_batches: max,
                sample_cache: None,
            },
        )
        .unwrap()
    }

    #[test]
    fn produces_decoded_batches() {
        let b = backend(2, Some(4));
        let mut seen = 0;
        let mut sequences = Vec::new();
        while let Ok(batch) = b.next_batch(0) {
            assert_eq!(batch.len(), 4);
            for item in batch.unit.items() {
                assert_eq!(item.len, 32 * 32 * 3);
            }
            // Pixels are real, not zero-fill.
            let mut payload = vec![0; batch.unit.used()];
            batch.unit.gather_into(&mut payload);
            let nz = payload.iter().filter(|&&x| x != 0).count();
            assert!(nz > 100);
            sequences.push(batch.sequence);
            seen += 1;
            b.recycle(batch.unit);
        }
        assert_eq!(seen, 4);
        sequences.sort_unstable();
        assert_eq!(sequences, vec![0, 1, 2, 3]);
        assert!(b.cpu_busy_nanos() > 0, "decode work must be accounted");
    }

    #[test]
    fn more_workers_do_not_change_results_count() {
        let b = backend(4, Some(6));
        let mut seen = 0;
        while let Ok(batch) = b.next_batch(0) {
            seen += 1;
            b.recycle(batch.unit);
        }
        assert_eq!(seen, 6);
        assert_eq!(b.delivered(), 6);
    }

    #[test]
    fn shutdown_stops_workers() {
        let b = backend(2, None);
        let first = b.next_batch(0).unwrap();
        b.recycle(first.unit);
        b.shutdown();
        // Pending queue items may still drain, then the error surfaces.
        loop {
            match b.next_batch(0) {
                Ok(batch) => b.recycle(batch.unit),
                Err(e) => {
                    assert_eq!(e, BackendError::Exhausted);
                    break;
                }
            }
        }
    }

    #[test]
    fn telemetry_exports_codec_stage_timers() {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(16, 5), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        let telemetry = Telemetry::with_defaults();
        let b = CpuBackend::start_with_telemetry(
            collector,
            Arc::new(CombinedResolver::disk_only(disk)),
            CpuBackendConfig {
                n_engines: 1,
                batch_size: 4,
                target_w: 32,
                target_h: 32,
                workers: 2,
                max_batches: Some(3),
                sample_cache: None,
            },
            Arc::clone(&telemetry),
        )
        .unwrap();
        while let Ok(batch) = b.next_batch(0) {
            b.recycle(batch.unit);
        }
        let snap = telemetry.registry.snapshot();
        assert!(snap.counter(names::CODEC_HUFFMAN_NANOS) > 0);
        assert!(snap.counter(names::CODEC_IDCT_NANOS) > 0);
        assert!(snap.counter(names::CODEC_COLOR_NANOS) > 0);
        assert!(snap.counter(names::CODEC_RESIZE_NANOS) > 0);
    }

    #[test]
    fn sample_cache_serves_second_epoch_without_decode() {
        // 8 images, batch 4 ⇒ 2 batches/epoch; 4 batches = 2 epochs. One
        // worker serialises production, and the CPU path inserts inline
        // during decode, so epoch 2 is guaranteed fully resident.
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(8, 5), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        let cache = SampleCache::new(64 << 20);
        let b = CpuBackend::start(
            collector,
            Arc::new(CombinedResolver::disk_only(disk)),
            CpuBackendConfig {
                n_engines: 1,
                batch_size: 4,
                target_w: 32,
                target_h: 32,
                workers: 1,
                max_batches: Some(4),
                sample_cache: Some(Arc::clone(&cache)),
            },
        )
        .unwrap();
        let mut payloads = Vec::new();
        while let Ok(batch) = b.next_batch(0) {
            assert_eq!(batch.len(), 4);
            let mut payload = vec![0; batch.unit.used()];
            batch.unit.gather_into(&mut payload);
            payloads.push(payload);
            b.recycle(batch.unit);
        }
        assert_eq!(payloads.len(), 4);
        // Epoch 2 replays epoch 1 bit-for-bit, straight from the cache.
        assert_eq!(payloads[0], payloads[2]);
        assert_eq!(payloads[1], payloads[3]);
        assert_eq!(cache.bypass_batches(), 2);
        let (lookups, hits, misses) = cache.lookup_stats();
        assert_eq!(hits + misses, lookups);
        assert_eq!(hits, 8, "both epoch-2 batches served fully from cache");
    }

    #[test]
    fn a_failed_item_leaves_a_zeroed_slot_between_intact_neighbours() {
        use dlb_codec::resize::{resize, ResizeFilter};
        use dlb_storage::Record;
        // One worker, one scratch: A, then a truncated B, then C — over
        // more batches than the pool has units, so later ones land in
        // recycled units still holding an earlier batch's pixels.
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(3, 5), &disk).unwrap();
        let jpegs: Vec<Arc<Vec<u8>>> = ds
            .records
            .iter()
            .map(|r| disk.read(r.disk_offset, r.len).unwrap())
            .collect();
        let truncated = jpegs[1][..jpegs[1].len() / 2].to_vec();
        let (offset, len) = disk.append(truncated).unwrap();
        let mut records = ds.records.clone();
        records[1] = Record {
            disk_offset: offset,
            len,
            ..records[1].clone()
        };
        let b = CpuBackend::start(
            Arc::new(DataCollector::load_from_disk(&records, 0)),
            Arc::new(CombinedResolver::disk_only(disk)),
            CpuBackendConfig {
                n_engines: 1,
                batch_size: 3,
                target_w: 32,
                target_h: 32,
                workers: 1,
                max_batches: Some(8),
                sample_cache: None,
            },
        )
        .unwrap();
        let reference = |jpeg: &[u8]| {
            let img = JpegDecoder::new().decode(jpeg).unwrap();
            resize(&img, 32, 32, ResizeFilter::Bilinear)
                .unwrap()
                .to_rgb()
                .into_vec()
        };
        let mut seen = 0;
        while let Ok(batch) = b.next_batch(0) {
            assert_eq!(batch.len(), 3);
            assert_eq!(batch.unit.item_bytes(0), reference(&jpegs[0]));
            assert!(batch.unit.item_bytes(1).iter().all(|&v| v == 0));
            assert_eq!(batch.unit.item_bytes(2), reference(&jpegs[2]));
            seen += 1;
            b.recycle(batch.unit);
        }
        assert_eq!(seen, 8);
    }

    #[test]
    fn a_worker_blocked_delivering_at_drop_returns_its_unit() {
        use dlb_graph::{Chain, SourceKind, StageSpec};
        use std::time::{Duration, Instant};
        // One worker, a one-deep slot queue nobody pops: batch 0 fills it
        // and the worker blocks delivering batch 1 when the backend drops.
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(16, 5), &disk).unwrap();
        let graph = Chain::new()
            .then(
                "manifest",
                StageSpec::Source {
                    kind: SourceKind::Disk,
                },
            )
            .then(
                "cpu-decode",
                StageSpec::Decode {
                    device: DecodeDevice::Cpu,
                },
            )
            .then(
                "resize",
                StageSpec::Resize {
                    width: 32,
                    height: 32,
                },
            )
            .then("dispatch", StageSpec::Sink)
            .queue_depth(1)
            .build()
            .unwrap();
        let telemetry = Telemetry::with_defaults();
        let tracer = Arc::new(Tracer::new());
        telemetry.install_tracer(Arc::clone(&tracer));
        let b = CpuBackend::from_graph_with_telemetry(
            Arc::new(DataCollector::load_from_disk(&ds.records, 0)),
            Arc::new(CombinedResolver::disk_only(disk)),
            CpuBackendConfig {
                n_engines: 1,
                batch_size: 4,
                target_w: 32,
                target_h: 32,
                workers: 1,
                max_batches: None,
                sample_cache: None,
            },
            &graph,
            0,
            telemetry,
        )
        .unwrap();
        let pool = b.pool().clone();
        // The worker closes a batch's decode span right before delivering
        // it: after batch 1's, only the push into the full queue is left.
        let deadline = Instant::now() + Duration::from_secs(30);
        let decoded = || {
            let trace = tracer.snapshot();
            trace
                .events
                .iter()
                .filter(|e| e.stage == stages::CPU_DECODE)
                .count()
        };
        while decoded() < 2 {
            assert!(Instant::now() < deadline, "batch 1 never decoded");
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        drop(b);
        let stats = pool.stats();
        assert_eq!(stats.lease_ops, 2);
        assert_eq!(stats.recycle_ops, stats.lease_ops, "every lease recycled");
    }

    #[test]
    fn rejects_zero_workers() {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let ds = Dataset::build(DatasetSpec::mnist_like(4, 1), &disk).unwrap();
        let collector = Arc::new(DataCollector::load_from_disk(&ds.records, 0));
        assert!(CpuBackend::start(
            collector,
            Arc::new(CombinedResolver::disk_only(disk)),
            CpuBackendConfig {
                n_engines: 1,
                batch_size: 4,
                target_w: 16,
                target_h: 16,
                workers: 0,
                max_batches: None,
                sample_cache: None,
            },
        )
        .is_err());
    }
}
