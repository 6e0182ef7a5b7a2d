//! NVMe disk model: a flat object store with Optane-class timing.

use dlb_chaos::{FaultKind, StageInjector};
use dlb_simcore::SimTime;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// Static device characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct NvmeSpec {
    /// Marketing name.
    pub name: String,
    /// Sequential read bandwidth, bytes/second.
    pub read_bytes_per_sec: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bytes_per_sec: f64,
    /// Per-command latency.
    pub cmd_latency: SimTime,
    /// Capacity in bytes.
    pub capacity: u64,
}

impl NvmeSpec {
    /// Intel Optane SSD 900p (the paper's testbed disk): ≈2.5 GB/s reads,
    /// ≈2.0 GB/s writes, ≈10 µs command latency.
    pub fn optane_900p() -> Self {
        Self {
            name: "Intel Optane SSD 900p".into(),
            read_bytes_per_sec: 2.5e9,
            write_bytes_per_sec: 2.0e9,
            cmd_latency: SimTime::from_micros(10),
            capacity: 480 << 30,
        }
    }
}

#[derive(Debug, Default)]
struct Directory {
    /// offset → bytes. Offsets are allocation-ordered and non-overlapping.
    objects: BTreeMap<u64, Arc<Vec<u8>>>,
    next_offset: u64,
    total_bytes: u64,
}

/// A functional NVMe disk: stores objects at byte offsets, serves reads by
/// `(offset, len)` — the exact addressing mode the FPGA's DataReader uses —
/// plus a timing model for the DES layer.
#[derive(Debug)]
pub struct NvmeDisk {
    spec: NvmeSpec,
    dir: RwLock<Directory>,
    /// Optional chaos injector (read errors / slow reads).
    chaos: OnceLock<Arc<StageInjector>>,
    /// Reads observed per offset — gives each retry of the same object a
    /// fresh, still-deterministic fault draw.
    read_attempts: Mutex<HashMap<u64, u64>>,
}

impl NvmeDisk {
    /// An empty disk with the given spec.
    pub fn new(spec: NvmeSpec) -> Self {
        Self {
            spec,
            dir: RwLock::new(Directory::default()),
            chaos: OnceLock::new(),
            read_attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Attaches a chaos injector for the storage plane (read errors and
    /// slow reads). One branch on the read path when absent; attach is
    /// one-shot (later calls are ignored).
    pub fn attach_chaos(&self, injector: Arc<StageInjector>) {
        let _ = self.chaos.set(injector);
    }

    /// Appends an object, returning its `(offset, len)` block descriptor.
    pub fn append(&self, bytes: Vec<u8>) -> Result<(u64, u32), String> {
        let len = bytes.len();
        if len == 0 {
            return Err("zero-length object".into());
        }
        let mut dir = self.dir.write();
        if dir.total_bytes + len as u64 > self.spec.capacity {
            return Err(format!(
                "disk full: {} + {} > {}",
                dir.total_bytes, len, self.spec.capacity
            ));
        }
        let offset = dir.next_offset;
        // Align the next object to 4 KiB like a real allocator would.
        dir.next_offset += (len as u64).div_ceil(4096) * 4096;
        dir.total_bytes += len as u64;
        dir.objects.insert(offset, Arc::new(bytes));
        Ok((offset, len as u32))
    }

    /// Reads an exact object by its descriptor. The cheap `Arc` clone
    /// mirrors DMA semantics: no payload copy on the host path.
    pub fn read(&self, offset: u64, len: u32) -> Result<Arc<Vec<u8>>, String> {
        if let Some(inj) = self.chaos.get() {
            let attempt = {
                let mut m = self.read_attempts.lock();
                let c = m.entry(offset).or_insert(0);
                let a = *c;
                *c += 1;
                a
            };
            let identity = offset.wrapping_add(attempt.wrapping_mul(0x00C2_B2AE_3D27_D4EB));
            match inj.decide(identity) {
                Some(FaultKind::Delay(d)) => {
                    // Slow read: the payload arrives late but intact.
                    inj.sleep(d);
                }
                Some(_) => {
                    return Err(format!(
                        "chaos: injected read error at offset {offset} (attempt {attempt})"
                    ));
                }
                None => {}
            }
        }
        let dir = self.dir.read();
        let obj = dir
            .objects
            .get(&offset)
            .ok_or_else(|| format!("no object at offset {offset}"))?;
        if obj.len() != len as usize {
            return Err(format!(
                "length mismatch at {offset}: stored {}, requested {len}",
                obj.len()
            ));
        }
        Ok(Arc::clone(obj))
    }

    /// Bytes stored.
    #[cfg(test)]
    pub(crate) fn used_bytes(&self) -> u64 {
        self.dir.read().total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_read_roundtrips() {
        let disk = NvmeDisk::new(NvmeSpec::optane_900p());
        let (off_a, len_a) = disk.append(vec![1, 2, 3]).unwrap();
        let (off_b, len_b) = disk.append(vec![9; 5000]).unwrap();
        assert_ne!(off_a, off_b);
        assert_eq!(disk.read(off_a, len_a).unwrap().as_slice(), &[1, 2, 3]);
        assert_eq!(disk.read(off_b, len_b).unwrap().len(), 5000);
        assert_eq!(disk.used_bytes(), 5003);
    }

    #[test]
    fn offsets_are_4k_aligned() {
        let disk = NvmeDisk::new(NvmeSpec::optane_900p());
        let (a, _) = disk.append(vec![0; 100]).unwrap();
        let (b, _) = disk.append(vec![0; 100]).unwrap();
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert_eq!(b - a, 4096);
    }

    #[test]
    fn bad_reads_fail() {
        let disk = NvmeDisk::new(NvmeSpec::optane_900p());
        let (off, len) = disk.append(vec![7; 10]).unwrap();
        assert!(disk.read(off + 1, len).is_err());
        assert!(disk.read(off, len + 1).is_err());
        assert!(disk.append(vec![]).is_err());
    }

    #[test]
    fn capacity_enforced() {
        let mut spec = NvmeSpec::optane_900p();
        spec.capacity = 10_000;
        let disk = NvmeDisk::new(spec);
        assert!(disk.append(vec![0; 8_000]).is_ok());
        assert!(disk.append(vec![0; 4_000]).is_err());
    }

    #[test]
    fn chaos_read_faults_are_transient_per_attempt() {
        use dlb_chaos::{FaultPlan, Stage, StageSpec};
        let disk = NvmeDisk::new(NvmeSpec::optane_900p());
        let (off, len) = disk.append(vec![3; 64]).unwrap();
        let t = dlb_telemetry::Telemetry::with_defaults();
        let mut plan = FaultPlan::disabled();
        plan.seed = 11;
        plan.storage = StageSpec::rate(0.5).with_delay(std::time::Duration::from_millis(1));
        disk.attach_chaos(plan.injector(Stage::Storage, &t).unwrap());
        // With a 50% rate, repeated attempts on the same offset must both
        // fail sometimes and succeed sometimes (fresh draw per attempt).
        let mut ok = 0;
        let mut err = 0;
        for _ in 0..40 {
            match disk.read(off, len) {
                Ok(bytes) => {
                    assert_eq!(bytes.as_slice(), &[3; 64]);
                    ok += 1;
                }
                Err(e) => {
                    assert!(e.contains("chaos"), "{e}");
                    err += 1;
                }
            }
        }
        assert!(ok > 0, "some attempts must succeed");
        assert!(err > 0, "some attempts must fail");
    }
}
