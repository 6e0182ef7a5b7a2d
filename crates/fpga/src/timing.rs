//! Cycle-calibrated pipeline timing model for the decoder.
//!
//! The discrete-event experiments need FPGA service times without running
//! the functional decoder; this model prices the Fig. 4 pipeline per stage:
//!
//! * **Huffman** — entropy bits through `huffman_ways` lanes. Hardware
//!   entropy decoders sustain a few bits per fabric cycle; at the Arria-10's
//!   ≈300 MHz that is ≈1.1 Gbit/s per lane, which puts a 4-lane unit at
//!   ≈5.5 k images/s on the paper's ≈100 KB ILSVRC JPEGs — exactly the
//!   plateau Fig. 7(a) shows DLBooster hitting ("the bottleneck ... can be
//!   overcome by plugging more FPGA devices").
//! * **iDCT & RGB** — 8×8 blocks at a fixed block rate (fully pipelined DSP
//!   datapath, one block every ~10 cycles).
//! * **Resizer** — output-dominated pixel rate through `resize_ways` lanes;
//!   the 4-way/2-way split keeps the two units load-balanced (§3.3: none of
//!   them "become the straggler").
//! * **DMA** — decoded bytes over the PCIe link.
//!
//! Pipelining: stages overlap across images, so batch completion time is the
//! bottleneck stage's aggregate work plus one image's fill latency through
//! the other stages (§3.3 optimisation 1).

use crate::device::DeviceSpec;
use crate::mirror::DecoderMirror;
use dlb_simcore::SimTime;

/// Geometry of one decode job, from which all stage costs derive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageWorkload {
    /// Compressed JPEG size in bytes.
    pub compressed_bytes: u64,
    /// Source width in pixels.
    pub src_width: u32,
    /// Source height in pixels.
    pub src_height: u32,
    /// Resizer output width (0 = passthrough).
    pub dst_width: u32,
    /// Resizer output height (0 = passthrough).
    pub dst_height: u32,
    /// Output channels (3 for RGB, 1 for grayscale).
    pub channels: u32,
}

impl ImageWorkload {
    /// The paper's inference workload: 500×375 JPEG (≈100 KB average,
    /// §5.1/§5.3) resized to the 224×224 network input.
    pub fn ilsvrc_like() -> Self {
        Self {
            compressed_bytes: 100_000,
            src_width: 500,
            src_height: 375,
            dst_width: 224,
            dst_height: 224,
            channels: 3,
        }
    }

    /// MNIST-like: 28×28 grayscale, tiny payload.
    pub fn mnist_like() -> Self {
        Self {
            compressed_bytes: 700,
            src_width: 28,
            src_height: 28,
            dst_width: 28,
            dst_height: 28,
            channels: 1,
        }
    }

    /// Entropy bits to decode (the whole compressed stream is entropy-coded
    /// except a ≈600-byte header).
    pub(crate) fn entropy_bits(&self) -> u64 {
        self.compressed_bytes.saturating_sub(600).max(1) * 8
    }

    /// 8×8 blocks in the scan, assuming 4:2:0 for colour (6 blocks per
    /// 16×16 MCU) and 1 block per 8×8 MCU for grayscale.
    pub(crate) fn blocks(&self) -> u64 {
        if self.channels == 1 {
            (self.src_width.div_ceil(8) as u64) * (self.src_height.div_ceil(8) as u64)
        } else {
            let mcus = (self.src_width.div_ceil(16) as u64) * (self.src_height.div_ceil(16) as u64);
            mcus * 6
        }
    }

    /// Pixels the resizer touches (max of input and output planes).
    pub(crate) fn resize_pixels(&self) -> u64 {
        let src = self.src_width as u64 * self.src_height as u64;
        let (dw, dh) = self.output_dims();
        let dst = dw as u64 * dh as u64;
        src.max(dst)
    }

    /// Final output dimensions.
    pub(crate) fn output_dims(&self) -> (u32, u32) {
        if self.dst_width == 0 {
            (self.src_width, self.src_height)
        } else {
            (self.dst_width, self.dst_height)
        }
    }

    /// Decoded output bytes (DMA payload).
    pub fn output_bytes(&self) -> u64 {
        let (w, h) = self.output_dims();
        w as u64 * h as u64 * self.channels as u64
    }
}

/// Per-stage single-lane service times for one image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTimes {
    /// Cmd parse + fetch issue overhead.
    pub parse: SimTime,
    /// One Huffman lane decoding this image's entropy stream.
    pub huffman: SimTime,
    /// iDCT + colour conversion.
    pub idct: SimTime,
    /// One resizer lane.
    pub resize: SimTime,
    /// DMA writeback over PCIe.
    pub dma: SimTime,
}

impl StageTimes {
    /// Fill latency: one image flowing through every stage back-to-back.
    pub fn total(&self) -> SimTime {
        self.parse + self.huffman + self.idct + self.resize + self.dma
    }
}

/// The calibrated pipeline model.
#[derive(Debug, Clone)]
pub struct FpgaTimingModel {
    /// Parallel Huffman lanes.
    pub huffman_ways: u32,
    /// Parallel resizer lanes.
    pub resize_ways: u32,
    /// Entropy throughput per Huffman lane, bits/second.
    pub huffman_bits_per_sec_per_way: f64,
    /// iDCT unit block rate, 8×8 blocks/second (single shared unit).
    pub idct_blocks_per_sec: f64,
    /// Resizer pixel rate per lane, pixels/second.
    pub resize_pixels_per_sec_per_way: f64,
    /// Writeback bandwidth, bytes/second.
    pub dma_bytes_per_sec: f64,
    /// Fixed per-cmd overhead (FIFO pop, parse, fetch issue).
    pub cmd_overhead: SimTime,
}

impl FpgaTimingModel {
    /// Calibrates from a mirror configuration and a device spec. Rates scale
    /// with the fabric clock relative to the Arria-10 baseline of 300 MHz.
    pub fn from_mirror(mirror: &DecoderMirror, spec: &DeviceSpec) -> Self {
        let clock_scale = spec.fabric_mhz as f64 / 300.0;
        Self {
            huffman_ways: mirror.huffman_ways,
            resize_ways: mirror.resize_ways,
            // ≈3.7 bits per cycle per lane at 300 MHz.
            huffman_bits_per_sec_per_way: 1.1e9 * clock_scale,
            // One 8×8 block every ~10 cycles.
            idct_blocks_per_sec: 30.0e6 * clock_scale,
            // ≈1.7 pixels per cycle per lane.
            resize_pixels_per_sec_per_way: 520.0e6 * clock_scale,
            dma_bytes_per_sec: spec.pcie_bytes_per_sec,
            cmd_overhead: SimTime::from_micros(2),
        }
    }

    /// The paper's 4/2-way configuration on the Arria-10.
    pub fn paper_config() -> Self {
        Self::from_mirror(
            &DecoderMirror::jpeg_paper_config(),
            &DeviceSpec::arria10_ax(),
        )
    }

    /// Per-stage single-lane times for one image.
    pub fn stage_times(&self, w: &ImageWorkload) -> StageTimes {
        StageTimes {
            parse: self.cmd_overhead,
            huffman: SimTime::from_secs_f64(
                w.entropy_bits() as f64 / self.huffman_bits_per_sec_per_way,
            ),
            idct: SimTime::from_secs_f64(w.blocks() as f64 / self.idct_blocks_per_sec),
            resize: SimTime::from_secs_f64(
                w.resize_pixels() as f64 / self.resize_pixels_per_sec_per_way,
            ),
            dma: SimTime::from_secs_f64(w.output_bytes() as f64 / self.dma_bytes_per_sec),
        }
    }

    /// Latency of a single image through an otherwise idle pipeline.
    ///
    /// The dataset encoder emits restart markers (DRI), so one image's
    /// entropy stream splits across all Huffman lanes and its rows across
    /// all resizer lanes — intra-image parallelism that matters exactly in
    /// the latency-sensitive bs=1 online-inference case (Fig. 8).
    pub fn image_latency(&self, w: &ImageWorkload) -> SimTime {
        let t = self.stage_times(w);
        t.parse
            + SimTime::from_secs_f64(t.huffman.as_secs_f64() / self.huffman_ways as f64)
            + t.idct
            + SimTime::from_secs_f64(t.resize.as_secs_f64() / self.resize_ways as f64)
            + t.dma
    }

    /// Steady-state throughput on a homogeneous stream of `w` images.
    pub fn throughput_images_per_sec(&self, w: &ImageWorkload) -> f64 {
        let t = self.stage_times(w);
        // Per-stage capacity in images/second.
        let capacities = [
            self.huffman_ways as f64 / t.huffman.as_secs_f64().max(1e-12),
            1.0 / t.idct.as_secs_f64().max(1e-12),
            self.resize_ways as f64 / t.resize.as_secs_f64().max(1e-12),
            1.0 / t.dma.as_secs_f64().max(1e-12),
        ];
        capacities.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    /// Identifies the bottleneck stage name on workload `w`.
    pub fn bottleneck(&self, w: &ImageWorkload) -> &'static str {
        let t = self.stage_times(w);
        let loads = [
            (
                "huffman",
                t.huffman.as_secs_f64() / self.huffman_ways as f64,
            ),
            ("idct", t.idct.as_secs_f64()),
            ("resize", t.resize.as_secs_f64() / self.resize_ways as f64),
            ("dma", t.dma.as_secs_f64()),
        ];
        loads
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .expect("non-empty")
            .0
    }

    /// Completion time for a batch of images entering an idle pipeline
    /// together: bottleneck-stage aggregate work plus the fill latency of
    /// one image through the remaining stages.
    pub fn batch_service_time(&self, images: &[ImageWorkload]) -> SimTime {
        if images.is_empty() {
            return SimTime::ZERO;
        }
        let mut huff = 0f64;
        let mut idct = 0f64;
        let mut resz = 0f64;
        let mut dma = 0f64;
        let mut max_single = SimTime::ZERO;
        for w in images {
            let t = self.stage_times(w);
            huff += t.huffman.as_secs_f64() / self.huffman_ways as f64;
            idct += t.idct.as_secs_f64();
            resz += t.resize.as_secs_f64() / self.resize_ways as f64;
            dma += t.dma.as_secs_f64();
            max_single = max_single.max(self.image_latency(w));
        }
        let bottleneck = huff.max(idct).max(resz).max(dma);
        let fill = max_single.as_secs_f64() - bottleneck / images.len() as f64;
        SimTime::from_secs_f64(bottleneck + fill.max(0.0))
            + SimTime::from_nanos(self.cmd_overhead.as_nanos() * images.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_peaks_near_fig7a_plateau() {
        let model = FpgaTimingModel::paper_config();
        let tp = model.throughput_images_per_sec(&ImageWorkload::ilsvrc_like());
        // Fig. 7(a): DLBooster plateaus around 5.5–6 k images/s.
        assert!(
            (5_000.0..7_000.0).contains(&tp),
            "throughput {tp:.0} img/s outside the paper's plateau band"
        );
    }

    #[test]
    fn paper_config_is_load_balanced() {
        // §3.3: 4-way Huffman + 2-way resize were chosen so neither unit
        // straggles. Check the two stage loads are within 25 %.
        let model = FpgaTimingModel::paper_config();
        let t = model.stage_times(&ImageWorkload::ilsvrc_like());
        let huff = t.huffman.as_secs_f64() / 4.0;
        let resz = t.resize.as_secs_f64() / 2.0;
        let ratio = huff.max(resz) / huff.min(resz);
        assert!(ratio < 1.25, "stage imbalance ratio {ratio:.2}");
    }

    #[test]
    fn single_image_latency_sub_millisecond() {
        let model = FpgaTimingModel::paper_config();
        let lat = model.image_latency(&ImageWorkload::ilsvrc_like());
        // The Fig. 8 bs=1 total of 1.2 ms includes inference; decode alone
        // must be well under a millisecond.
        assert!(
            lat < SimTime::from_millis(1),
            "decode latency {lat} too high"
        );
        assert!(lat > SimTime::from_micros(100), "implausibly fast: {lat}");
    }

    #[test]
    fn more_huffman_ways_raise_throughput_until_next_bottleneck() {
        let spec = DeviceSpec::arria10_ax();
        let w = ImageWorkload::ilsvrc_like();
        let tp4 = FpgaTimingModel::from_mirror(&DecoderMirror::jpeg_with_ways(4, 2), &spec)
            .throughput_images_per_sec(&w);
        let tp8 = FpgaTimingModel::from_mirror(&DecoderMirror::jpeg_with_ways(8, 2), &spec)
            .throughput_images_per_sec(&w);
        let tp8r4 = FpgaTimingModel::from_mirror(&DecoderMirror::jpeg_with_ways(8, 4), &spec)
            .throughput_images_per_sec(&w);
        assert!(tp8 > tp4, "8-way {tp8:.0} should beat 4-way {tp4:.0}");
        assert!(
            tp8r4 > tp8,
            "wider resize should relieve the next bottleneck"
        );
    }

    #[test]
    fn bottleneck_identification() {
        let model = FpgaTimingModel::paper_config();
        let w = ImageWorkload::ilsvrc_like();
        let b = model.bottleneck(&w);
        assert!(b == "huffman" || b == "resize", "unexpected bottleneck {b}");
        // With 32 huffman ways, huffman can't be the bottleneck.
        let wide = FpgaTimingModel {
            huffman_ways: 32,
            ..model
        };
        assert_ne!(wide.bottleneck(&w), "huffman");
    }

    #[test]
    fn batch_amortises_fill_latency() {
        let model = FpgaTimingModel::paper_config();
        let w = ImageWorkload::ilsvrc_like();
        let one = model.batch_service_time(&[w]);
        let batch: Vec<ImageWorkload> = vec![w; 64];
        let sixty_four = model.batch_service_time(&batch);
        let per_image_batched = sixty_four.as_secs_f64() / 64.0;
        let per_image_single = one.as_secs_f64();
        assert!(
            per_image_batched < per_image_single / 2.0,
            "batching should amortise: {per_image_batched:.6}s vs {per_image_single:.6}s"
        );
        // Batched steady-state matches the throughput model within 25 %.
        let tp = model.throughput_images_per_sec(&w);
        let batched_tp = 1.0 / per_image_batched;
        assert!(
            (batched_tp / tp - 1.0).abs() < 0.25,
            "batched {batched_tp:.0} vs steady {tp:.0}"
        );
    }

    #[test]
    fn empty_batch_is_free() {
        assert_eq!(
            FpgaTimingModel::paper_config().batch_service_time(&[]),
            SimTime::ZERO
        );
    }

    #[test]
    fn mnist_images_are_cheap() {
        let model = FpgaTimingModel::paper_config();
        let tp = model.throughput_images_per_sec(&ImageWorkload::mnist_like());
        // Tiny grayscale frames decode at least an order of magnitude faster.
        assert!(tp > 50_000.0, "MNIST throughput {tp:.0}");
    }

    #[test]
    fn faster_fabric_scales_rates() {
        let mirror = DecoderMirror::jpeg_paper_config();
        let mut fast = DeviceSpec::arria10_ax();
        fast.fabric_mhz = 600;
        let base = FpgaTimingModel::from_mirror(&mirror, &DeviceSpec::arria10_ax());
        let boosted = FpgaTimingModel::from_mirror(&mirror, &fast);
        let w = ImageWorkload::ilsvrc_like();
        let r = boosted.throughput_images_per_sec(&w) / base.throughput_images_per_sec(&w);
        assert!((r - 2.0).abs() < 0.2, "clock scaling ratio {r:.2}");
    }

    #[test]
    fn workload_geometry() {
        let w = ImageWorkload::ilsvrc_like();
        // 500×375 at 4:2:0: 32×24 MCUs × 6 blocks.
        assert_eq!(w.blocks(), 32 * 24 * 6);
        assert_eq!(w.output_bytes(), 224 * 224 * 3);
        assert_eq!(w.resize_pixels(), 500 * 375);
        let m = ImageWorkload::mnist_like();
        assert_eq!(m.blocks(), 4 * 4);
        assert_eq!(m.output_bytes(), 28 * 28);
        // Passthrough dims.
        let mut p = w;
        p.dst_width = 0;
        p.dst_height = 0;
        assert_eq!(p.output_dims(), (500, 375));
    }
}
