//! The LMDB offline preprocessing backend.
//!
//! Caffe's classic path (§2.2): convert the dataset once (expensive), then
//! stream raw records at training time. Reads are cheap per-byte but (a)
//! every datum is copied out of the store individually, and (b) multiple
//! training processes share one DB — the contention that costs ≈30 % at two
//! GPUs (Figs. 2/5b; modelled in the DES layer via
//! [`dlb_storage::lmdb::LmdbContentionModel`]).

use crate::common::PoolScaffold;
use dlb_membridge::BatchUnit;
use dlb_storage::{Dataset, LmdbStore, NvmeDisk};
use dlbooster_core::{BackendError, HostBatch, PreprocessBackend};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// LMDB backend parameters.
#[derive(Debug, Clone)]
pub struct LmdbBackendConfig {
    /// Compute engines served.
    pub n_engines: usize,
    /// Images per batch.
    pub batch_size: usize,
    /// Record width (set at conversion time).
    pub target_w: u32,
    /// Record height.
    pub target_h: u32,
    /// Reader threads (Caffe uses one per solver).
    pub readers: usize,
    /// Total batches to deliver.
    pub max_batches: Option<u64>,
}

impl LmdbBackendConfig {
    fn unit_size(&self) -> usize {
        self.batch_size * self.target_w as usize * self.target_h as usize * 3
    }
}

/// The running LMDB backend (store converted at startup).
pub struct LmdbBackend {
    scaffold: Arc<PoolScaffold>,
    readers: Vec<JoinHandle<()>>,
}

impl LmdbBackend {
    /// Converts `dataset` (real decode work) and starts the reader threads.
    pub fn start(
        dataset: &Dataset,
        disk: &NvmeDisk,
        config: LmdbBackendConfig,
    ) -> Result<Self, String> {
        if config.readers == 0 || config.batch_size == 0 || config.n_engines == 0 {
            return Err("readers, batch_size and n_engines must be positive".into());
        }
        let store = Arc::new(LmdbStore::new());
        store.convert(dataset, disk, config.target_w, config.target_h)?;

        let scaffold = Arc::new(PoolScaffold::new(
            config.n_engines,
            config.unit_size(),
            (config.n_engines * 3).max(config.readers + 2),
            config.max_batches,
        )?);
        let n_records = dataset.records.len() as u64;
        let cursor = Arc::new(AtomicU64::new(0));
        let mut readers = Vec::with_capacity(config.readers);
        for r in 0..config.readers {
            let store = Arc::clone(&store);
            let scaffold = Arc::clone(&scaffold);
            let config = config.clone();
            let cursor = Arc::clone(&cursor);
            readers.push(
                std::thread::Builder::new()
                    .name(format!("lmdb-reader-{r}"))
                    .spawn(move || lmdb_reader(store, scaffold, config, cursor, n_records))
                    .expect("spawn lmdb reader"),
            );
        }
        Ok(Self { scaffold, readers })
    }
}

fn lmdb_reader(
    store: Arc<LmdbStore>,
    scaffold: Arc<PoolScaffold>,
    config: LmdbBackendConfig,
    cursor: Arc<AtomicU64>,
    n_records: u64,
) {
    while !scaffold.stop.load(Ordering::SeqCst) {
        if !scaffold.router.claim() {
            break;
        }
        // Claim a contiguous key range (epoch-wrapping cursor scan — the
        // sequential access pattern of Caffe's data layer).
        let start = cursor.fetch_add(config.batch_size as u64, Ordering::SeqCst);
        let Ok(mut unit) = scaffold.pool.get_item() else {
            break;
        };
        let t0 = Instant::now();
        let mut arrivals = Vec::with_capacity(config.batch_size);
        for i in 0..config.batch_size as u64 {
            let key = (start + i) % n_records;
            arrivals.push(0);
            match store.get(key) {
                Some(datum) => {
                    // Per-datum copy-out: the small-piece overhead of §5.2.
                    unit.append(&datum.pixels, datum.label, datum.width, datum.height, 3);
                }
                None => {
                    unit.reserve(
                        config.target_w as usize * config.target_h as usize * 3,
                        0,
                        config.target_w,
                        config.target_h,
                        3,
                    );
                }
            }
        }
        scaffold
            .cpu_busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if !scaffold.router.deliver(unit, arrivals, 0) {
            break;
        }
    }
}

impl PreprocessBackend for LmdbBackend {
    fn name(&self) -> &'static str {
        "LMDB"
    }

    fn next_batch(&self, slot: usize) -> Result<HostBatch, BackendError> {
        self.scaffold.next_batch(slot)
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

impl Drop for LmdbBackend {
    fn drop(&mut self) {
        self.scaffold.join(&mut self.readers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_storage::{DatasetSpec, NvmeSpec};

    fn setup(max: Option<u64>) -> LmdbBackend {
        let disk = NvmeDisk::new(NvmeSpec::optane_900p());
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(10, 8), &disk).unwrap();
        LmdbBackend::start(
            &ds,
            &disk,
            LmdbBackendConfig {
                n_engines: 1,
                batch_size: 5,
                target_w: 24,
                target_h: 24,
                readers: 2,
                max_batches: max,
            },
        )
        .unwrap()
    }

    #[test]
    fn conversion_then_serving() {
        let b = setup(Some(4));
        let mut seen = 0;
        while let Ok(batch) = b.next_batch(0) {
            assert_eq!(batch.len(), 5);
            for item in batch.unit.items() {
                assert_eq!(item.len, 24 * 24 * 3);
            }
            seen += 1;
            b.recycle(batch.unit);
        }
        assert_eq!(seen, 4);
        assert!(b.cpu_busy_nanos() > 0);
    }

    #[test]
    fn epoch_wraps_over_records() {
        // 10 records, batch 5, 6 batches ⇒ keys wrap; labels stay valid.
        let b = setup(Some(6));
        let mut labels = Vec::new();
        while let Ok(batch) = b.next_batch(0) {
            labels.extend(batch.unit.items().iter().map(|i| i.label));
            b.recycle(batch.unit);
        }
        assert_eq!(labels.len(), 30);
        assert!(labels.iter().all(|&l| l < 1000));
    }
}
