//! GPU part specifications, device-memory accounting and buffers.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Static description of a GPU part.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: String,
    /// Peak fp32 throughput in TFLOP/s.
    pub fp32_tflops: f64,
    /// Peak fp16 (tensor-core where present) throughput in TFLOP/s.
    pub fp16_tflops: f64,
    /// Device memory in bytes.
    pub memory_bytes: u64,
    /// Device memory bandwidth, bytes/second.
    pub mem_bytes_per_sec: f64,
    /// Streaming multiprocessors.
    pub sms: u32,
    /// PCIe host link bandwidth, bytes/second.
    pub pcie_bytes_per_sec: f64,
    /// Inter-GPU (NVLink/PCIe P2P) bandwidth for allreduce, bytes/second.
    pub p2p_bytes_per_sec: f64,
    /// Board power in watts (economics model; paper cites ≈250 W).
    pub power_watts: f64,
}

impl GpuSpec {
    /// Tesla P100 (the paper's training/inference testbed part).
    pub fn tesla_p100() -> Self {
        Self {
            name: "NVIDIA Tesla P100".into(),
            fp32_tflops: 10.6,
            // P100 has no tensor cores; fp16 is 2× fp32 vector rate.
            fp16_tflops: 21.2,
            memory_bytes: 16 << 30,
            mem_bytes_per_sec: 732.0e9,
            sms: 56,
            pcie_bytes_per_sec: 12.0e9,
            p2p_bytes_per_sec: 18.0e9,
            power_watts: 250.0,
        }
    }

    /// Tesla V100 (§2.2: "can process 5,000 images per second when
    /// inferring the ResNet-50 model").
    pub fn tesla_v100() -> Self {
        Self {
            name: "NVIDIA Tesla V100".into(),
            fp32_tflops: 15.7,
            fp16_tflops: 112.0, // tensor cores
            memory_bytes: 32 << 30,
            mem_bytes_per_sec: 900.0e9,
            sms: 80,
            pcie_bytes_per_sec: 12.0e9,
            p2p_bytes_per_sec: 25.0e9,
            power_watts: 250.0,
        }
    }
}

/// A device-memory allocation. Bytes live host-side (this is a simulation),
/// but allocation accounting is enforced against the device capacity.
#[derive(Debug)]
pub struct DeviceBuffer {
    data: Vec<u8>,
    device: Arc<DeviceMemInner>,
}

impl DeviceBuffer {
    /// Capacity in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when zero-sized (never; allocations are non-empty).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read access to the simulated device memory.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Write access (the H2D copy target).
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl Drop for DeviceBuffer {
    fn drop(&mut self) {
        self.device
            .allocated
            .fetch_sub(self.data.len() as u64, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct DeviceMemInner {
    capacity: u64,
    allocated: AtomicU64,
}

/// A GPU device instance: spec + memory allocator.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    spec: GpuSpec,
    /// Ordinal in the node (0-based, as in `cudaSetDevice`).
    ordinal: u32,
    mem: Arc<DeviceMemInner>,
    /// Lock held by exclusive-mode users (e.g. a training solver binding).
    binding: Arc<Mutex<Option<String>>>,
}

impl GpuDevice {
    /// Creates device `ordinal` with the given spec.
    pub fn new(spec: GpuSpec, ordinal: u32) -> Self {
        let capacity = spec.memory_bytes;
        Self {
            spec,
            ordinal,
            mem: Arc::new(DeviceMemInner {
                capacity,
                allocated: AtomicU64::new(0),
            }),
            binding: Arc::new(Mutex::new(None)),
        }
    }

    /// Device spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Allocates `len` bytes of device memory.
    pub fn alloc(&self, len: usize) -> Result<DeviceBuffer, String> {
        if len == 0 {
            return Err("zero-length device allocation".into());
        }
        let prev = self.mem.allocated.fetch_add(len as u64, Ordering::Relaxed);
        if prev + len as u64 > self.mem.capacity {
            self.mem.allocated.fetch_sub(len as u64, Ordering::Relaxed);
            return Err(format!(
                "out of device memory: {} + {} > {}",
                prev, len, self.mem.capacity
            ));
        }
        Ok(DeviceBuffer {
            data: vec![0u8; len],
            device: Arc::clone(&self.mem),
        })
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.mem.allocated.load(Ordering::Relaxed)
    }

    /// Claims the device for an exclusive user (training solvers do this;
    /// §3.4.3: "every GPU device is isolated from the others").
    pub fn bind(&self, owner: &str) -> Result<(), String> {
        let mut b = self.binding.lock();
        if let Some(existing) = b.as_ref() {
            return Err(format!(
                "device {} already bound to {existing}",
                self.ordinal
            ));
        }
        *b = Some(owner.to_string());
        Ok(())
    }

    /// Releases an exclusive claim.
    pub fn unbind(&self) {
        *self.binding.lock() = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_plausible() {
        let p100 = GpuSpec::tesla_p100();
        let v100 = GpuSpec::tesla_v100();
        assert!(v100.fp16_tflops > p100.fp16_tflops);
        assert!(p100.fp16_tflops > p100.fp32_tflops);
        assert_eq!(p100.power_watts, 250.0);
    }

    #[test]
    fn alloc_and_free_account_memory() {
        let dev = GpuDevice::new(GpuSpec::tesla_p100(), 0);
        assert_eq!(dev.allocated(), 0);
        let buf = dev.alloc(1024).unwrap();
        assert_eq!(buf.len(), 1024);
        assert_eq!(dev.allocated(), 1024);
        drop(buf);
        assert_eq!(dev.allocated(), 0);
    }

    #[test]
    fn oom_is_reported() {
        let mut spec = GpuSpec::tesla_p100();
        spec.memory_bytes = 4096;
        let dev = GpuDevice::new(spec, 0);
        let _a = dev.alloc(3000).unwrap();
        assert!(dev.alloc(2000).is_err());
        // Failed alloc must not leak accounting.
        assert_eq!(dev.allocated(), 3000);
        let _b = dev.alloc(1000).unwrap();
        assert!(dev.alloc(0).is_err());
    }

    #[test]
    fn buffers_have_independent_writable_bytes() {
        let dev = GpuDevice::new(GpuSpec::tesla_p100(), 1);
        let mut a = dev.alloc(16).unwrap();
        let b = dev.alloc(16).unwrap();
        a.bytes_mut()[0] = 42;
        assert_eq!(a.bytes()[0], 42);
        assert_eq!(b.bytes()[0], 0);
    }

    #[test]
    fn exclusive_binding() {
        let dev = GpuDevice::new(GpuSpec::tesla_p100(), 0);
        dev.bind("solver-0").unwrap();
        assert!(dev.bind("solver-1").is_err());
        dev.unbind();
        dev.bind("solver-1").unwrap();
    }
}
