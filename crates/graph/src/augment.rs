//! Seeded per-sample augmentation: the executable form of the transform
//! stages between the fused decode-resize and the sink.
//!
//! [`PipelineGraph::compile`](crate::PipelineGraph::compile) lowers
//! `RandomCrop`/`RandomFlip`/`Normalize`/extra-`Resize` stages into an
//! [`AugmentPlan`]; executors wrap it in a [`SampleAugmentor`] and apply it
//! wherever decoded pixels meet per-item metadata (the FPGA reader's
//! completion path, the CPU workers, the cache-bypass path). Randomness
//! follows [`crate::seed`]: each `(epoch, sample-identity)` pair owns an
//! independent draw stream, and every op consumes a *fixed* number of
//! draws, so stream positions — and therefore every draw — are invariant
//! to worker count, batch composition, and chaos-injected retries.

use crate::seed::{derive_sample_seed, SeedStream};
use dlb_codec::augment::{crop, hflip, to_tensor_chw, CropRect};
use dlb_codec::pixel::{ColorSpace, Image};
use dlb_codec::resize::{resize, ResizeFilter};

/// One host-side transform, in application order.
#[derive(Debug, Clone, PartialEq)]
pub enum AugmentOp {
    /// Extra bilinear resize (beyond the fused decode-resize).
    Resize {
        /// Output width.
        width: u32,
        /// Output height.
        height: u32,
    },
    /// Random crop; consumes two draws (x then y) per sample.
    RandomCrop {
        /// Crop width.
        width: u32,
        /// Crop height.
        height: u32,
    },
    /// Random horizontal flip; consumes one draw per sample.
    RandomFlip {
        /// Flip probability in `[0, 1]`.
        prob: f32,
    },
    /// `(px - mean) / scale` into planar CHW f32 (stored little-endian).
    Normalize {
        /// Per-channel mean.
        mean: [f32; 3],
        /// Per-channel scale.
        scale: [f32; 3],
    },
}

/// An ordered list of transforms shared by every sample of a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AugmentPlan {
    /// Transforms in application order.
    pub ops: Vec<AugmentOp>,
}

/// One augmented sample: raw bytes plus the geometry they describe.
/// `data` is interleaved RGB8 for images, little-endian f32 CHW for
/// tensors — exactly the layout batch units store.
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentedSample {
    /// Output bytes.
    pub data: Vec<u8>,
    /// Width after all transforms.
    pub width: u32,
    /// Height after all transforms.
    pub height: u32,
    /// Channel count (3 on this substrate).
    pub channels: u8,
    /// True when `data` is a little-endian f32 CHW tensor.
    pub is_tensor: bool,
}

/// Applies an [`AugmentPlan`] to decoded samples with replayable
/// randomness. Cheap to clone; safe to share across worker threads (each
/// `apply` call derives its own stream, no interior state).
#[derive(Debug, Clone)]
pub struct SampleAugmentor {
    plan: AugmentPlan,
    run_seed: u64,
}

impl SampleAugmentor {
    /// An augmentor over `plan` with the already-resolved run seed.
    pub(crate) fn new(plan: AugmentPlan, run_seed: u64) -> Self {
        Self { plan, run_seed }
    }

    /// Output geometry this plan produces for a `width`x`height` decoded
    /// input (geometry is draw-independent: crops move, they don't resize).
    pub fn output_dims(&self, mut w: u32, mut h: u32) -> (u32, u32) {
        for op in &self.plan.ops {
            if let AugmentOp::Resize { width, height } | AugmentOp::RandomCrop { width, height } =
                op
            {
                w = *width;
                h = *height;
            }
        }
        (w, h)
    }

    /// Bytes per item this plan produces for a `width`x`height` decoded
    /// input (used by executors to size batch units).
    pub fn output_bytes(&self, w: u32, h: u32) -> usize {
        let tensor = self
            .plan
            .ops
            .iter()
            .any(|op| matches!(op, AugmentOp::Normalize { .. }));
        let (w, h) = self.output_dims(w, h);
        w as usize * h as usize * 3 * if tensor { 4 } else { 1 }
    }

    /// Augments one decoded sample. `epoch` and `identity` key the draw
    /// stream (see `crate::seed::derive_sample_seed`); `data` is
    /// interleaved RGB8 of `width`x`height`. Non-RGB inputs (channels
    /// != 3) pass through untouched — the substrate only decodes RGB.
    pub fn apply(
        &self,
        epoch: u64,
        identity: u64,
        data: &[u8],
        width: u32,
        height: u32,
        channels: u8,
    ) -> AugmentedSample {
        if channels != 3 || data.len() != width as usize * height as usize * 3 {
            return AugmentedSample {
                data: data.to_vec(),
                width,
                height,
                channels,
                is_tensor: false,
            };
        }
        let mut stream = SeedStream::new(derive_sample_seed(self.run_seed, epoch, identity));
        let mut img = Image::from_vec(width, height, ColorSpace::Rgb, data.to_vec())
            .expect("length checked above");
        let mut tensor: Option<Vec<f32>> = None;
        for op in &self.plan.ops {
            match op {
                AugmentOp::Resize { width, height } => {
                    img = resize(&img, *width, *height, ResizeFilter::Bilinear)
                        .expect("validated dims");
                }
                AugmentOp::RandomCrop { width, height } => {
                    // Two draws, x then y, consumed even when the crop is
                    // degenerate so stream positions stay aligned.
                    let max_x = u64::from(img.width().saturating_sub(*width));
                    let max_y = u64::from(img.height().saturating_sub(*height));
                    let x = stream.next_upto(max_x) as u32;
                    let y = stream.next_upto(max_y) as u32;
                    img = crop(
                        &img,
                        CropRect {
                            x,
                            y,
                            width: (*width).min(img.width()),
                            height: (*height).min(img.height()),
                        },
                    )
                    .expect("crop validated at graph build");
                }
                AugmentOp::RandomFlip { prob } => {
                    if stream.next_unit() < f64::from(*prob) {
                        img = hflip(&img);
                    }
                }
                AugmentOp::Normalize { mean, scale } => {
                    tensor = Some(
                        to_tensor_chw(&img, mean, scale).expect("scale validated at graph build"),
                    );
                }
            }
        }
        let (w, h) = (img.width(), img.height());
        match tensor {
            Some(t) => {
                let mut bytes = Vec::with_capacity(t.len() * 4);
                for v in &t {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                AugmentedSample {
                    data: bytes,
                    width: w,
                    height: h,
                    channels: 3,
                    is_tensor: true,
                }
            }
            None => AugmentedSample {
                data: img.into_vec(),
                width: w,
                height: h,
                channels: 3,
                is_tensor: false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: u32, h: u32) -> Vec<u8> {
        let mut v = Vec::with_capacity((w * h * 3) as usize);
        for y in 0..h {
            for x in 0..w {
                v.extend_from_slice(&[x as u8, y as u8, (x * y) as u8]);
            }
        }
        v
    }

    fn crop_flip_plan() -> AugmentPlan {
        AugmentPlan {
            ops: vec![
                AugmentOp::RandomCrop {
                    width: 8,
                    height: 8,
                },
                AugmentOp::RandomFlip { prob: 0.5 },
            ],
        }
    }

    #[test]
    fn same_key_replays_bitwise() {
        let aug = SampleAugmentor::new(crop_flip_plan(), 42);
        let px = gradient(16, 16);
        let a = aug.apply(3, 77, &px, 16, 16, 3);
        let b = aug.apply(3, 77, &px, 16, 16, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn epoch_changes_draws() {
        let aug = SampleAugmentor::new(crop_flip_plan(), 42);
        let px = gradient(64, 64);
        let plan = AugmentPlan {
            ops: vec![AugmentOp::RandomCrop {
                width: 8,
                height: 8,
            }],
        };
        let aug_crop = SampleAugmentor::new(plan, 42);
        // Over many identities at least one sample must crop differently
        // between epochs (all-equal would mean the epoch isn't folded in).
        let differs = (0..32u64).any(|id| {
            aug_crop.apply(1, id, &px, 64, 64, 3).data != aug_crop.apply(2, id, &px, 64, 64, 3).data
        });
        assert!(differs, "epoch must affect augmentation draws");
        let _ = aug;
    }

    #[test]
    fn normalize_yields_le_f32_tensor() {
        let plan = AugmentPlan {
            ops: vec![AugmentOp::Normalize {
                mean: [0.0; 3],
                scale: [1.0; 3],
            }],
        };
        let aug = SampleAugmentor::new(plan, 0);
        let px = vec![10u8, 20, 30, 40, 50, 60]; // 2x1 RGB
        let out = aug.apply(0, 0, &px, 2, 1, 3);
        assert!(out.is_tensor);
        assert_eq!(out.data.len(), 6 * 4);
        // CHW: R plane first.
        assert_eq!(f32::from_le_bytes(out.data[0..4].try_into().unwrap()), 10.0);
        assert_eq!(f32::from_le_bytes(out.data[4..8].try_into().unwrap()), 40.0);
    }

    #[test]
    fn output_bytes_tracks_geometry_and_kind() {
        let aug = SampleAugmentor::new(crop_flip_plan(), 0);
        assert_eq!(aug.output_bytes(16, 16), 8 * 8 * 3);
        let plan = AugmentPlan {
            ops: vec![AugmentOp::Normalize {
                mean: [0.0; 3],
                scale: [1.0; 3],
            }],
        };
        assert_eq!(
            SampleAugmentor::new(plan, 0).output_bytes(4, 4),
            4 * 4 * 3 * 4
        );
    }

    #[test]
    fn passthrough_for_non_rgb() {
        let aug = SampleAugmentor::new(crop_flip_plan(), 0);
        let bytes = vec![1u8, 2, 3, 4];
        let out = aug.apply(0, 0, &bytes, 2, 2, 1);
        assert_eq!(out.data, bytes);
        assert_eq!(out.channels, 1);
    }
}
