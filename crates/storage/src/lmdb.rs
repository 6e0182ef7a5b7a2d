//! An LMDB-like offline preprocessing store.
//!
//! Caffe's LMDB backend (paper §2.2) converts the dataset *offline*: every
//! JPEG is decoded once, resized to a fixed geometry, and stored as a raw
//! datum; training then reads raw records. The paper's complaints about this
//! design are all reproduced here:
//!
//! * **conversion is expensive** — "more than 2 hours to prepare the LMDB
//!   backend for ILSVRC12"; [`LmdbStore::convert`] does the real work
//!   (decode + resize per image) and [`ConversionReport`] scales the cost to
//!   full-dataset size;
//! * **reads copy per-datum** — `get` hands out an owned copy of each small
//!   record (the ≈20 % small-piece overhead of §5.2);
//! * **shared-DB contention** — reader statistics feed the DES model that
//!   reproduces the ≈30 % two-GPU degradation of Fig. 2/5(b).

use crate::dataset::{Dataset, Record};
use crate::nvme::NvmeDisk;
use dlb_codec::resize::{resize, ResizeFilter};
use dlb_codec::{Image, JpegDecoder};
use dlb_simcore::SimTime;
use parking_lot::RwLock;
use rayon::prelude::*;
use std::collections::BTreeMap;

/// A stored raw datum: label + fixed-geometry decoded pixels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDatum {
    /// Class label.
    pub label: u64,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Channels (1 or 3).
    pub channels: u8,
    /// Interleaved pixels.
    pub pixels: Vec<u8>,
}

impl RawDatum {
    /// Serialized size (what the DB stores per key).
    pub(crate) fn byte_len(&self) -> usize {
        self.pixels.len() + 16
    }
}

/// What the offline conversion cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConversionReport {
    /// Images converted.
    pub images: usize,
    /// Total decode+resize CPU seconds (measured, wall-clock of the real
    /// work divided across workers).
    pub cpu_seconds: f64,
    /// Stored bytes.
    pub stored_bytes: u64,
}

/// The store: an ordered key→datum map with copy-out reads, mimicking the
/// LMDB B-tree API surface Caffe uses (`get`, sequential `cursor` scans).
#[derive(Debug)]
pub struct LmdbStore {
    map: RwLock<BTreeMap<u64, RawDatum>>,
}

impl Default for LmdbStore {
    fn default() -> Self {
        Self::new()
    }
}

impl LmdbStore {
    /// An empty store.
    pub fn new() -> Self {
        Self {
            map: RwLock::new(BTreeMap::new()),
        }
    }

    /// Offline conversion: decode every dataset record from `disk`, resize
    /// to `target_w`×`target_h`, and store raw. Runs the *real* decode on
    /// all available cores (rayon), exactly what `convert_imageset` does.
    pub fn convert(
        &self,
        dataset: &Dataset,
        disk: &NvmeDisk,
        target_w: u32,
        target_h: u32,
    ) -> Result<ConversionReport, String> {
        let t0 = std::time::Instant::now();
        let workers = rayon::current_num_threads().max(1);
        let data: Vec<(u64, RawDatum)> = dataset
            .records
            .par_iter()
            .map(|r: &Record| -> Result<(u64, RawDatum), String> {
                let bytes = disk.read(r.disk_offset, r.len)?;
                let decoder = JpegDecoder::new();
                let img = decoder
                    .decode(&bytes)
                    .map_err(|e| format!("record {}: {e}", r.id))?;
                let img: Image = resize(&img, target_w, target_h, ResizeFilter::Area)
                    .map_err(|e| format!("record {}: {e}", r.id))?;
                Ok((
                    r.id,
                    RawDatum {
                        label: r.label,
                        width: target_w,
                        height: target_h,
                        channels: img.channels() as u8,
                        pixels: img.into_vec(),
                    },
                ))
            })
            .collect::<Result<_, _>>()?;
        let stored_bytes: u64 = data.iter().map(|(_, d)| d.byte_len() as u64).sum();
        let images = data.len();
        {
            let mut map = self.map.write();
            for (k, v) in data {
                map.insert(k, v);
            }
        }
        Ok(ConversionReport {
            images,
            cpu_seconds: t0.elapsed().as_secs_f64() * workers as f64,
            stored_bytes,
        })
    }

    /// Reads one datum by key, copying it out (LMDB hands out mmap'd slices
    /// that Caffe immediately copies into its transfer buffers; the copy is
    /// the point).
    pub fn get(&self, key: u64) -> Option<RawDatum> {
        let map = self.map.read();
        map.get(&key).cloned()
    }

    /// Number of stored records.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// DES-layer contention model for a shared LMDB backend.
///
/// Reads go through the OS page cache and the shared B-tree; with `readers`
/// concurrent training processes the per-reader effective bandwidth drops
/// super-linearly (lock handoffs, cache thrash). Calibrated so 1 reader
/// sustains the single-GPU Fig. 5(b) rate and 2 readers lose ≈30 %
/// aggregate on AlexNet-sized records.
#[derive(Debug, Clone, Copy)]
pub struct LmdbContentionModel {
    /// Single-reader record throughput, bytes/second.
    pub single_reader_bytes_per_sec: f64,
    /// Aggregate efficiency with `n` readers: `1/n^alpha` per reader.
    pub contention_alpha: f64,
}

impl LmdbContentionModel {
    /// Paper-calibrated defaults, fixed so that one reader keeps a P100
    /// AlexNet solver fed (Fig. 5b: 1-GPU LMDB ≈ ideal) while two readers
    /// drop below the 2-GPU demand (the ≈30 % aggregate loss).
    pub fn paper_config() -> Self {
        Self {
            // One reader streams ≈380 MB/s of records out of the shared DB.
            single_reader_bytes_per_sec: 3.8e8,
            // 2 readers → per-reader 2^-0.7 ≈ 0.62×.
            contention_alpha: 0.7,
        }
    }

    /// Per-reader effective bandwidth with `n` concurrent readers.
    pub(crate) fn per_reader_bandwidth(&self, n: u32) -> f64 {
        let n = n.max(1) as f64;
        self.single_reader_bytes_per_sec / n.powf(self.contention_alpha)
    }

    /// Time for one reader (of `n`) to pull a batch of `bytes`.
    pub fn batch_read_time(&self, bytes: u64, n_readers: u32) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.per_reader_bandwidth(n_readers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::nvme::NvmeSpec;

    fn small_setup() -> (NvmeDisk, Dataset) {
        let disk = NvmeDisk::new(NvmeSpec::optane_900p());
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(12, 4), &disk).unwrap();
        (disk, ds)
    }

    #[test]
    fn convert_then_get_roundtrips() {
        let (disk, ds) = small_setup();
        let store = LmdbStore::new();
        let report = store.convert(&ds, &disk, 64, 64).unwrap();
        assert_eq!(report.images, 12);
        assert_eq!(store.len(), 12);
        assert!(report.cpu_seconds > 0.0);
        assert_eq!(report.stored_bytes, 12 * (64 * 64 * 3 + 16));
        let d = store.get(0).unwrap();
        assert_eq!((d.width, d.height, d.channels), (64, 64, 3));
        assert_eq!(d.pixels.len(), 64 * 64 * 3);
        assert!(store.get(99).is_none());
    }

    #[test]
    fn converted_labels_match_manifest() {
        let (disk, ds) = small_setup();
        let store = LmdbStore::new();
        store.convert(&ds, &disk, 32, 32).unwrap();
        for r in &ds.records {
            assert_eq!(store.get(r.id).unwrap().label, r.label);
        }
    }

    #[test]
    fn contention_model_reproduces_fig5b_loss() {
        let m = LmdbContentionModel::paper_config();
        let one = m.per_reader_bandwidth(1);
        let two = m.per_reader_bandwidth(2);
        let per_reader_ratio = two / one;
        // Fig. 5(b): 2-GPU LMDB throughput well below 2× the 1-GPU rate.
        assert!(
            (0.55..0.75).contains(&per_reader_ratio),
            "per-reader ratio {per_reader_ratio:.3}"
        );
        // Reading a batch takes longer under contention.
        assert!(m.batch_read_time(1 << 20, 2) > m.batch_read_time(1 << 20, 1));
    }

    #[test]
    fn empty_store() {
        let s = LmdbStore::new();
        assert!(s.is_empty());
        assert!(s.get(0).is_none());
    }
}
