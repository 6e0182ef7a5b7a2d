//! Synthetic dataset builders and manifests.
//!
//! The manifest (`Vec<Record>`) is exactly the "file_manifest" input of the
//! paper's Algorithm 1 and what the `DataCollector` translates into cmd
//! metadata: block descriptors on disk plus image geometry.

use crate::nvme::NvmeDisk;
use dlb_codec::synth::{generate, SynthRng, SynthStyle};
use dlb_codec::{ChromaMode, JpegEncoder};
use rayon::prelude::*;

/// Which benchmark dataset statistics to mimic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// ILSVRC2012-like: colour JPEGs around 500×375 (paper §5.1: "average
    /// size of 375×500"), photographic content, 1000 classes.
    IlsvrcLike,
    /// MNIST-like: 28×28 grayscale digits, 10 classes.
    MnistLike,
}

/// Dataset generation parameters.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which statistics to mimic.
    pub kind: DatasetKind,
    /// Number of images.
    pub count: usize,
    /// Deterministic seed.
    pub seed: u64,
    /// Resolution scale in (0, 1]: functional tests shrink images to keep
    /// generation fast; 1.0 reproduces the paper's geometry.
    pub scale: f64,
    /// JPEG quality.
    pub quality: u8,
    /// Restart interval in MCUs (lets the FPGA lanes split single images).
    pub restart_interval: u16,
}

impl DatasetSpec {
    /// Full-geometry ILSVRC-like spec.
    pub fn ilsvrc_like(count: usize, seed: u64) -> Self {
        Self {
            kind: DatasetKind::IlsvrcLike,
            count,
            seed,
            scale: 1.0,
            quality: 92,
            restart_interval: 8,
        }
    }

    /// Reduced-resolution ILSVRC-like spec for fast functional tests.
    pub fn ilsvrc_small(count: usize, seed: u64) -> Self {
        Self {
            scale: 0.2,
            ..Self::ilsvrc_like(count, seed)
        }
    }

    /// MNIST-like spec.
    pub fn mnist_like(count: usize, seed: u64) -> Self {
        Self {
            kind: DatasetKind::MnistLike,
            count,
            seed,
            scale: 1.0,
            quality: 90,
            restart_interval: 0,
        }
    }

    /// Number of label classes.
    pub(crate) fn num_classes(&self) -> u64 {
        match self.kind {
            DatasetKind::IlsvrcLike => 1000,
            DatasetKind::MnistLike => 10,
        }
    }
}

/// One dataset entry: the Algorithm-1 metadata for a single file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Image index.
    pub id: u64,
    /// Class label.
    pub label: u64,
    /// Byte offset on the NVMe disk.
    pub disk_offset: u64,
    /// Encoded length in bytes.
    pub len: u32,
    /// Source width in pixels.
    pub width: u32,
    /// Source height in pixels.
    pub height: u32,
    /// 1 (gray) or 3 (colour) source channels.
    pub channels: u8,
}

/// A generated dataset: the manifest plus aggregate statistics. The encoded
/// bytes live on the [`NvmeDisk`] passed to [`Dataset::build`].
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Generation parameters.
    pub spec: DatasetSpec,
    /// Per-image records in id order.
    pub records: Vec<Record>,
    /// Total encoded bytes.
    pub total_bytes: u64,
}

impl Dataset {
    /// Generates `spec.count` images, encodes them, writes them to `disk`,
    /// and returns the manifest. Generation is rayon-parallel and fully
    /// deterministic in `spec.seed` (parallelism never reorders ids).
    pub fn build(spec: DatasetSpec, disk: &NvmeDisk) -> Result<Dataset, String> {
        if spec.count == 0 {
            return Err("empty dataset".into());
        }
        if !(0.01..=1.0).contains(&spec.scale) {
            return Err(format!("scale {} out of (0.01, 1.0]", spec.scale));
        }
        // Encode in parallel (deterministic per-id), then append in id order
        // so disk offsets are reproducible.
        let encoded: Vec<(u64, Vec<u8>, u32, u32, u8, u64)> = (0..spec.count as u64)
            .into_par_iter()
            .map(|id| {
                let (bytes, w, h, ch, label) = encode_one(&spec, id);
                (id, bytes, w, h, ch, label)
            })
            .collect();

        let mut records = Vec::with_capacity(spec.count);
        let mut total_bytes = 0u64;
        for (id, bytes, width, height, channels, label) in encoded {
            let len = bytes.len() as u32;
            total_bytes += len as u64;
            let (disk_offset, stored_len) = disk.append(bytes)?;
            debug_assert_eq!(stored_len, len);
            records.push(Record {
                id,
                label,
                disk_offset,
                len,
                width,
                height,
                channels,
            });
        }
        Ok(Dataset {
            spec,
            records,
            total_bytes,
        })
    }

    /// Mean encoded size in bytes.
    pub fn mean_bytes(&self) -> f64 {
        self.total_bytes as f64 / self.records.len() as f64
    }

    /// Total decoded size at the given target geometry (memory-cache
    /// planning: can the whole epoch fit in RAM? §5.2's LeNet observation).
    #[cfg(test)]
    pub(crate) fn decoded_bytes(&self, target_w: u32, target_h: u32, channels: u32) -> u64 {
        self.records.len() as u64 * target_w as u64 * target_h as u64 * channels as u64
    }
}

fn encode_one(spec: &DatasetSpec, id: u64) -> (Vec<u8>, u32, u32, u8, u64) {
    let mut rng = SynthRng::new(spec.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    match spec.kind {
        DatasetKind::IlsvrcLike => {
            // Landscape/portrait mix around 500×375, ±20 % jitter.
            let (base_w, base_h) = if rng.next_below(100) < 70 {
                (500.0, 375.0)
            } else {
                (375.0, 500.0)
            };
            let jitter = 0.8 + 0.4 * rng.next_f32() as f64;
            let w = ((base_w * spec.scale * jitter) as u32).max(16);
            let h = ((base_h * spec.scale * jitter) as u32).max(16);
            let style = match rng.next_below(10) {
                0 => SynthStyle::Smooth,
                9 => SynthStyle::Noisy,
                _ => SynthStyle::Photo,
            };
            let img = generate(w, h, style, spec.seed ^ (id << 1) | 1);
            let enc = JpegEncoder::new(spec.quality)
                .expect("valid quality")
                .with_mode(ChromaMode::Yuv420)
                .with_restart_interval(spec.restart_interval)
                .encode(&img)
                .expect("encode");
            let label = rng.next_below(spec.num_classes() as u32) as u64;
            (enc, w, h, 3, label)
        }
        DatasetKind::MnistLike => {
            let w = ((28.0 * spec.scale) as u32).max(8);
            let img = generate(w, w, SynthStyle::Digit, spec.seed ^ (id << 1) | 1);
            let enc = JpegEncoder::new(spec.quality)
                .expect("valid quality")
                .encode(&img)
                .expect("encode");
            let label = rng.next_below(10) as u64;
            (enc, w, w, 1, label)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvme::NvmeSpec;
    use dlb_codec::JpegDecoder;

    fn disk() -> NvmeDisk {
        NvmeDisk::new(NvmeSpec::optane_900p())
    }

    #[test]
    fn build_is_deterministic() {
        let d1 = disk();
        let d2 = disk();
        let a = Dataset::build(DatasetSpec::ilsvrc_small(20, 7), &d1).unwrap();
        let b = Dataset::build(DatasetSpec::ilsvrc_small(20, 7), &d2).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(a.total_bytes, b.total_bytes);
        // Different seed differs.
        let c = Dataset::build(DatasetSpec::ilsvrc_small(20, 8), &disk()).unwrap();
        assert_ne!(a.records, c.records);
    }

    #[test]
    fn records_decode_back_to_declared_geometry() {
        let d = disk();
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(8, 3), &d).unwrap();
        let dec = JpegDecoder::new();
        for r in &ds.records {
            let bytes = d.read(r.disk_offset, r.len).unwrap();
            let img = dec.decode(&bytes).unwrap();
            assert_eq!(img.width(), r.width, "record {}", r.id);
            assert_eq!(img.height(), r.height);
            assert_eq!(img.channels() as u8, r.channels);
        }
    }

    #[test]
    fn mnist_records_are_small_grayscale() {
        let d = disk();
        let ds = Dataset::build(DatasetSpec::mnist_like(30, 1), &d).unwrap();
        assert_eq!(ds.records.len(), 30);
        for r in &ds.records {
            assert_eq!((r.width, r.height), (28, 28));
            assert_eq!(r.channels, 1);
            assert!(r.label < 10);
            assert!(r.len < 4_000, "MNIST-like image {} bytes", r.len);
        }
    }

    #[test]
    fn ilsvrc_labels_span_classes() {
        let ds = Dataset::build(DatasetSpec::ilsvrc_small(64, 5), &disk()).unwrap();
        let distinct: std::collections::HashSet<u64> = ds.records.iter().map(|r| r.label).collect();
        assert!(
            distinct.len() > 16,
            "only {} distinct labels",
            distinct.len()
        );
        assert!(ds.records.iter().all(|r| r.label < 1000));
    }

    #[test]
    fn full_scale_sizes_match_paper_statistics() {
        // A handful of full-scale images should average in the tens of KB
        // (the paper's ≈100 KB is for quality ≈ 90 photographic JPEG; our
        // synthetic content lands in the same order of magnitude).
        let ds = Dataset::build(DatasetSpec::ilsvrc_like(6, 11), &disk()).unwrap();
        let mean = ds.mean_bytes();
        assert!(
            (40_000.0..250_000.0).contains(&mean),
            "mean encoded size {mean:.0} B"
        );
        // Geometry centred on 500×375.
        for r in &ds.records {
            assert!(r.width >= 280 && r.width <= 620, "width {}", r.width);
        }
    }

    #[test]
    fn decoded_bytes_math() {
        let ds = Dataset::build(DatasetSpec::mnist_like(100, 2), &disk()).unwrap();
        assert_eq!(ds.decoded_bytes(28, 28, 1), 100 * 28 * 28);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(Dataset::build(DatasetSpec::mnist_like(0, 1), &disk()).is_err());
        let mut s = DatasetSpec::ilsvrc_small(2, 1);
        s.scale = 0.0;
        assert!(Dataset::build(s, &disk()).is_err());
    }
}
