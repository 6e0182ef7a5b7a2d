//! Every timing constant of the experiment layer, in one place, each tied to
//! the paper sentence or public spec that fixes it.
//!
//! Absolute numbers from the authors' testbed cannot be reproduced exactly
//! (different hardware era, simulated devices); what the benches assert is
//! the *shape*: who wins, by roughly what factor, and where crossovers sit.

use dlb_fpga::{FpgaTimingModel, ImageWorkload};
use dlb_gpu::{GpuSpec, NvJpegModel};
use dlb_simcore::SimTime;
use dlb_storage::lmdb::LmdbContentionModel;

/// The four preprocessing backends of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Online decode on host cores (§2.2, Figs. 2/5/6/7/8/9).
    CpuBased,
    /// Offline LMDB store (§2.2, Figs. 2/5/6).
    Lmdb,
    /// GPU-side nvJPEG decode (§5.3, Figs. 7/8/9).
    NvJpeg,
    /// The paper's system.
    DlBooster,
}

impl BackendKind {
    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::CpuBased => "CPU-based",
            BackendKind::Lmdb => "LMDB",
            BackendKind::NvJpeg => "nvJPEG",
            BackendKind::DlBooster => "DLBooster",
        }
    }
}

/// Which dataset statistics drive a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// ILSVRC2012-like (≈100 KB 500×375 colour JPEGs, 1.28 M train images).
    Ilsvrc,
    /// MNIST-like (60 k 28×28 grayscale).
    Mnist,
}

impl Workload {
    /// Per-image decode geometry.
    pub(crate) fn image(self) -> ImageWorkload {
        match self {
            Workload::Ilsvrc => ImageWorkload::ilsvrc_like(),
            Workload::Mnist => ImageWorkload::mnist_like(),
        }
    }

    /// Dataset size in images.
    pub(crate) fn dataset_images(self) -> u64 {
        match self {
            Workload::Ilsvrc => 1_281_167,
            Workload::Mnist => 60_000,
        }
    }

    /// Decoded bytes per image at the network input geometry.
    pub(crate) fn decoded_bytes(self) -> u64 {
        let img = self.image();
        img.output_bytes()
    }

    /// Whether the decoded dataset fits the host DRAM cache (§5.2: MNIST
    /// "can be cached in memory after the first epoch", ILSVRC "cannot").
    pub(crate) fn fits_cache(self, cache_bytes: u64) -> bool {
        self.dataset_images() * self.decoded_bytes() <= cache_bytes
    }
}

/// The complete constant set.
#[derive(Debug, Clone)]
pub struct Calibration {
    // ---- host CPU ----
    /// JPEG decode rate of one Xeon E5-2630-v3 core in source pixels/s.
    /// §2.2: "each Xeon E5 CPU core can decode only 300 images per second"
    /// at the 500×375 dataset geometry ⇒ 300 × 187 500 ≈ 56 Mpx/s.
    pub cpu_decode_pixels_per_sec_per_core: f64,
    /// Fixed per-image decode overhead (dispatch, malloc, EXIF skip).
    pub cpu_decode_fixed: SimTime,
    /// Single-core memcpy bandwidth for cached-batch assembly.
    pub memcpy_bytes_per_sec_per_core: f64,
    /// Per-datum copy overhead of the baselines' small-piece path (§5.2's
    /// ≈20 % LeNet penalty at batch 512).
    pub per_datum_copy_overhead: SimTime,
    /// Physical cores on the testbed node (2 × E5-2630-v3).
    pub total_cores: u32,
    /// Host DRAM available for the decoded-data cache (64 GB node, minus
    /// working set).
    pub dram_cache_bytes: u64,

    // ---- backends ----
    /// Shared-LMDB read path (single-reader bandwidth + contention).
    pub lmdb: LmdbContentionModel,
    /// nvJPEG decode-kernel model.
    pub nvjpeg: NvJpegModel,
    /// FPGA decoder pipeline model (4-way Huffman / 2-way resize on the
    /// Arria-10, §4.1).
    pub fpga: FpgaTimingModel,
    /// DLBooster host cost per image on the training path (cmd generation,
    /// NVMe submission, dispatcher) — Fig. 6(d)'s 0.3-core "preprocessing"
    /// bar at ResNet-18 rates.
    pub dlb_host_per_image_training: SimTime,
    /// DLBooster host cost per image on the inference path (NIC poll,
    /// response) — Fig. 9's ≈0.5 core at ≈5 k img/s.
    pub dlb_host_per_image_inference: SimTime,

    // ---- devices ----
    /// Training GPU (testbed: 2 × Tesla P100, §5.1).
    pub train_gpu: GpuSpec,
    /// Inference GPU. The paper's captions enable Tensor Cores ("default
    /// type is float16 to enable Tensor Core") and §2.2 anchors 5 000
    /// ResNet-50 img/s on a V100, so the inference calibration uses a V100.
    pub infer_gpu: GpuSpec,
    /// Number of training GPUs available.
    pub max_gpus: u32,

    // ---- network ----
    /// Inference clients (§5.3: 5).
    pub n_clients: u32,
    /// NIC wire bandwidth, bytes/s (40 Gbps fabric).
    pub nic_bytes_per_sec: f64,
    /// Per-packet fabric latency.
    pub nic_packet_latency: SimTime,

    // ---- storage ----
    /// NVMe read bandwidth (Optane 900p).
    pub nvme_read_bytes_per_sec: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::paper()
    }
}

impl Calibration {
    /// The paper-testbed calibration.
    pub fn paper() -> Self {
        Self {
            cpu_decode_pixels_per_sec_per_core: 56.0e6,
            cpu_decode_fixed: SimTime::from_micros(40),
            memcpy_bytes_per_sec_per_core: 8.0e9,
            per_datum_copy_overhead: SimTime::from_nanos(700),
            total_cores: 32,
            dram_cache_bytes: 48 << 30,
            lmdb: LmdbContentionModel::paper_config(),
            nvjpeg: NvJpegModel::paper_config(),
            fpga: FpgaTimingModel::paper_config(),
            dlb_host_per_image_training: SimTime::from_micros(380),
            dlb_host_per_image_inference: SimTime::from_micros(90),
            train_gpu: GpuSpec::tesla_p100(),
            infer_gpu: GpuSpec::tesla_v100(),
            max_gpus: 2,
            n_clients: 5,
            nic_bytes_per_sec: 40.0e9 / 8.0,
            nic_packet_latency: SimTime::from_micros(8),
            nvme_read_bytes_per_sec: 2.5e9,
        }
    }

    /// CPU decode time of one image of `w` (one core).
    pub(crate) fn cpu_decode_time(&self, w: &ImageWorkload) -> SimTime {
        let px = w.src_width as f64 * w.src_height as f64;
        SimTime::from_secs_f64(px / self.cpu_decode_pixels_per_sec_per_core) + self.cpu_decode_fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_decode_anchor_is_300_imgs_per_core() {
        let cal = Calibration::paper();
        let rate = 1.0 / cal.cpu_decode_time(&Workload::Ilsvrc.image()).as_secs_f64();
        assert!(
            (270.0..320.0).contains(&rate),
            "§2.2 anchor: 300 img/s/core, got {rate:.0}"
        );
    }

    #[test]
    fn mnist_decodes_far_faster_per_core() {
        let cal = Calibration::paper();
        let rate = 1.0 / cal.cpu_decode_time(&Workload::Mnist.image()).as_secs_f64();
        assert!(rate > 10_000.0, "28×28 decode rate {rate:.0}");
    }

    #[test]
    fn cache_fits_mnist_not_ilsvrc() {
        let cal = Calibration::paper();
        assert!(Workload::Mnist.fits_cache(cal.dram_cache_bytes));
        assert!(!Workload::Ilsvrc.fits_cache(cal.dram_cache_bytes));
    }

    #[test]
    fn labels() {
        assert_eq!(BackendKind::DlBooster.label(), "DLBooster");
        assert_eq!(BackendKind::CpuBased.label(), "CPU-based");
    }

    #[test]
    fn fpga_model_is_paper_config() {
        let cal = Calibration::paper();
        assert_eq!(cal.fpga.huffman_ways, 4);
        assert_eq!(cal.fpga.resize_ways, 2);
    }
}
