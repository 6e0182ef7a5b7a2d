//! Binds the FPGA DataReader's two fetch ports ("DMA from Disk", "DMA from
//! DRAM", Fig. 4) to the storage and network substrates.

use dlb_fpga::{DataRef, DataSourceResolver};
use dlb_net::NicRx;
use dlb_storage::NvmeDisk;
use std::sync::Arc;

/// Resolver over an optional NVMe disk and an optional NIC RX engine.
pub struct CombinedResolver {
    disk: Option<Arc<NvmeDisk>>,
    nic: Option<Arc<NicRx>>,
}

impl CombinedResolver {
    /// Disk-only resolver (offline training).
    pub fn disk_only(disk: Arc<NvmeDisk>) -> Self {
        Self {
            disk: Some(disk),
            nic: None,
        }
    }

    /// NIC-only resolver (online inference).
    pub fn nic_only(nic: Arc<NicRx>) -> Self {
        Self {
            disk: None,
            nic: Some(nic),
        }
    }
}

impl DataSourceResolver for CombinedResolver {
    fn fetch(&self, src: &DataRef) -> Result<Arc<Vec<u8>>, String> {
        match *src {
            DataRef::Disk { offset, len } => {
                let disk = self
                    .disk
                    .as_ref()
                    .ok_or_else(|| "no disk attached to this resolver".to_string())?;
                disk.read(offset, len)
            }
            DataRef::HostMem { phys_addr, len } => {
                let nic = self
                    .nic
                    .as_ref()
                    .ok_or_else(|| "no NIC attached to this resolver".to_string())?;
                nic.fetch(phys_addr, len)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_net::{Frame, NicSpec};
    use dlb_storage::NvmeSpec;

    #[test]
    fn resolves_disk_refs() {
        let disk = Arc::new(NvmeDisk::new(NvmeSpec::optane_900p()));
        let (off, len) = disk.append(vec![5, 6, 7]).unwrap();
        let r = CombinedResolver::disk_only(Arc::clone(&disk));
        assert_eq!(
            *r.fetch(&DataRef::Disk { offset: off, len }).unwrap(),
            vec![5, 6, 7]
        );
        assert!(r
            .fetch(&DataRef::HostMem {
                phys_addr: 0,
                len: 1
            })
            .is_err());
    }

    #[test]
    fn resolves_nic_refs() {
        let nic = Arc::new(NicRx::new(NicSpec::forty_gbps(), 0x9000_0000));
        let wire = Frame {
            request_id: 1,
            client_id: 0,
            send_ts_nanos: 0,
            payload: vec![9; 20],
        }
        .encode();
        let d = nic.deliver(&wire, 0).unwrap();
        let r = CombinedResolver::nic_only(Arc::clone(&nic));
        assert_eq!(
            *r.fetch(&DataRef::HostMem {
                phys_addr: d.phys_addr,
                len: d.len
            })
            .unwrap(),
            vec![9; 20]
        );
        assert!(r.fetch(&DataRef::Disk { offset: 0, len: 1 }).is_err());
    }
}
