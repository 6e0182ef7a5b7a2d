//! The generated inputs: an ILSVRC-geometry JPEG corpus on a simulated NVMe
//! disk, and for every record the digest of its reference decode, which is
//! what the pipeline's outputs are checked against.

use crate::host;
use dlbooster::codec::resize::{resize, ResizeFilter};
use dlbooster::codec::JpegDecoder;
use dlbooster::storage::{Dataset, DatasetSpec, NvmeDisk, NvmeSpec, Record};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Images in the corpus: 12 batches of 32 per epoch.
pub const CORPUS_IMAGES: usize = 384;
pub const BATCH: usize = 32;
pub const TARGET: (u16, u16) = (224, 224);
/// Bytes of one decoded 224×224 RGB item.
pub const ITEM_BYTES: usize = TARGET.0 as usize * TARGET.1 as usize * 3;

pub struct Corpus {
    pub disk: Arc<NvmeDisk>,
    pub dataset: Dataset,
    /// Digest of each record's reference pixels, by record index.
    pub digests: Arc<Vec<u64>>,
    /// Reference digest → the label that must travel with those pixels.
    pub by_digest: HashMap<u64, u64>,
    /// Time spent generating inputs and references (the load generator's,
    /// not the pipeline's).
    pub gen_s: f64,
}

impl Corpus {
    /// Builds the corpus for `seed` and decodes every record once through
    /// the codec's public one-image API to obtain the reference digests.
    pub fn build(seed: u64) -> Result<Corpus, String> {
        let t0 = Instant::now();
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let dataset = Dataset::build(DatasetSpec::ilsvrc_like(CORPUS_IMAGES, seed), &disk)?;
        let threads = host::nproc().min(dataset.records.len());
        let per_thread = dataset.records.len().div_ceil(threads);
        let digests: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = dataset
                .records
                .chunks(per_thread)
                .map(|chunk| {
                    let disk = &disk;
                    s.spawn(move || {
                        let decoder = JpegDecoder::new();
                        chunk
                            .iter()
                            .map(|r| reference_digest(&decoder, disk, r))
                            .collect::<Result<Vec<u64>, String>>()
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(dataset.records.len());
            for h in handles {
                all.extend(h.join().expect("reference thread panicked")?);
            }
            Ok::<_, String>(all)
        })?;
        let by_digest = digests
            .iter()
            .zip(&dataset.records)
            .map(|(d, r)| (*d, r.label))
            .collect();
        Ok(Corpus {
            disk,
            dataset,
            digests: Arc::new(digests),
            by_digest,
            gen_s: t0.elapsed().as_secs_f64(),
        })
    }

    pub fn records(&self) -> &[Record] {
        &self.dataset.records
    }

    /// The compressed bytes of record `idx`.
    pub fn jpeg(&self, idx: usize) -> Arc<Vec<u8>> {
        let r = &self.dataset.records[idx];
        self.disk
            .read(r.disk_offset, r.len)
            .expect("corpus record on disk")
    }

    /// Bytes of the whole corpus decoded to the target geometry.
    pub fn decoded_bytes(&self) -> u64 {
        (self.dataset.records.len() * ITEM_BYTES) as u64
    }
}

/// `JpegDecoder::decode` + `resize` + RGB of one record, digested.
fn reference_digest(decoder: &JpegDecoder, disk: &NvmeDisk, r: &Record) -> Result<u64, String> {
    let bytes = disk.read(r.disk_offset, r.len)?;
    let image = decoder
        .decode(&bytes)
        .map_err(|e| format!("reference decode of record {}: {e}", r.id))?;
    let image = resize(
        &image,
        TARGET.0 as u32,
        TARGET.1 as u32,
        ResizeFilter::Bilinear,
    )
    .map_err(|e| format!("reference resize of record {}: {e}", r.id))?
    .to_rgb();
    if image.data().len() != ITEM_BYTES {
        return Err(format!("reference of record {} has wrong size", r.id));
    }
    Ok(digest(image.data()))
}

/// A 64-bit digest of every byte of `data`: four independent multiply-xor
/// lanes over 8-byte words, so checking a 150 KB item costs a few
/// microseconds. Any changed byte changes the digest (each step is a
/// bijection of the lane state).
pub fn digest(data: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [K, K.rotate_left(16), K.rotate_left(32), K.rotate_left(48)];
    let mut chunks = data.chunks_exact(32);
    for c in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(c.chunks_exact(8)) {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = data.len() as u64;
    for b in chunks.remainder() {
        h = (h ^ *b as u64).wrapping_mul(K).rotate_left(29);
    }
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K).rotate_left(29);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_byte() {
        let base = vec![7u8; 1000];
        let d0 = digest(&base);
        for i in [0, 31, 32, 500, 991, 992, 999] {
            let mut v = base.clone();
            v[i] ^= 1;
            assert_ne!(digest(&v), d0, "byte {i}");
        }
        assert_ne!(digest(&base[..999]), d0);
    }
}
