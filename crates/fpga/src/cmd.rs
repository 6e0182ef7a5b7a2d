//! Decode cmds and FINISH signals.
//!
//! The host bridger "pushes cmds to the FPGA decoder" through a FIFO queue
//! and the decoder's parser "decodes these cmds to extract metadata" (paper
//! §3.3/§3.4.1). Cmds therefore have a *wire format*: a fixed 64-byte packed
//! layout that [`DecodeCmd::pack`]/[`DecodeCmd::unpack`] round-trip. The
//! functional engine actually parses the packed form, exactly like the RTL
//! parser would.

use crate::error::FpgaError;

/// Where the DataReader fetches the compressed bytes from (paper Fig. 4:
/// "DMA from Disk" / "DMA from DRAM").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataRef {
    /// NVMe blocks: a byte range on the disk.
    Disk {
        /// Byte offset of the object on disk.
        offset: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Host memory (where the NIC deposited a request payload).
    HostMem {
        /// Simulated physical address.
        phys_addr: u64,
        /// Length in bytes.
        len: u32,
    },
}

impl DataRef {
    /// Payload length in bytes.
    pub(crate) fn len(&self) -> u32 {
        match *self {
            DataRef::Disk { len, .. } | DataRef::HostMem { len, .. } => len,
        }
    }

    /// True when the referenced payload is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Pixel layout the decoder writes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Interleaved 8-bit RGB (the DL-framework input of the paper).
    #[default]
    Rgb8,
    /// Single-plane 8-bit grayscale (MNIST-like workloads).
    Gray8,
}

impl OutputFormat {
    /// Bytes per pixel.
    pub fn bytes_per_pixel(self) -> u32 {
        match self {
            OutputFormat::Rgb8 => 3,
            OutputFormat::Gray8 => 1,
        }
    }
}

/// One decode command: fetch `src`, decode, resize to `target_w`×`target_h`,
/// write to physical address `dst_phys`, raise FINISH with `cmd_id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeCmd {
    /// Host-assigned identifier echoed in the FINISH signal.
    pub cmd_id: u64,
    /// Compressed data location.
    pub src: DataRef,
    /// Destination physical address for the decoded pixels.
    pub dst_phys: u64,
    /// Capacity of the destination region in bytes.
    pub dst_capacity: u32,
    /// Output width after the resizer (0 = keep source width).
    pub target_w: u16,
    /// Output height after the resizer (0 = keep source height).
    pub target_h: u16,
    /// Output pixel format.
    pub format: OutputFormat,
}

/// Wire size of a packed cmd.
pub const CMD_WIRE_BYTES: usize = 64;

impl DecodeCmd {
    /// Validates kernel-agnostic consistency (source and destination).
    /// Kernel-specific target semantics are checked by the kernel itself —
    /// image mirrors call [`DecodeCmd::validate_image_output`]; audio/text
    /// mirrors reinterpret `target_w`/`target_h` as kernel parameters.
    pub(crate) fn validate(&self) -> Result<(), FpgaError> {
        if self.src.is_empty() {
            return Err(FpgaError::BadCmd {
                detail: "empty source".into(),
            });
        }
        if self.dst_capacity == 0 {
            return Err(FpgaError::BadCmd {
                detail: "zero destination capacity".into(),
            });
        }
        Ok(())
    }

    /// Image-kernel output check: both target dims zero (passthrough) or
    /// both set and fitting the destination window.
    pub(crate) fn validate_image_output(&self) -> Result<(), FpgaError> {
        if (self.target_w == 0) != (self.target_h == 0) {
            return Err(FpgaError::BadCmd {
                detail: "target dimensions must both be zero or both be set".into(),
            });
        }
        if self.target_w != 0 {
            let need =
                self.target_w as u64 * self.target_h as u64 * self.format.bytes_per_pixel() as u64;
            if need > self.dst_capacity as u64 {
                return Err(FpgaError::BadCmd {
                    detail: format!(
                        "output {}x{} needs {need} bytes, capacity {}",
                        self.target_w, self.target_h, self.dst_capacity
                    ),
                });
            }
        }
        Ok(())
    }

    /// Serialises into the fixed 64-byte wire layout.
    pub fn pack(&self) -> [u8; CMD_WIRE_BYTES] {
        let mut w = [0u8; CMD_WIRE_BYTES];
        w[0..8].copy_from_slice(&self.cmd_id.to_le_bytes());
        let (src_kind, src_addr, src_len) = match self.src {
            DataRef::Disk { offset, len } => (0u8, offset, len),
            DataRef::HostMem { phys_addr, len } => (1u8, phys_addr, len),
        };
        w[8] = src_kind;
        w[9] = match self.format {
            OutputFormat::Rgb8 => 0,
            OutputFormat::Gray8 => 1,
        };
        w[10..18].copy_from_slice(&src_addr.to_le_bytes());
        w[18..22].copy_from_slice(&src_len.to_le_bytes());
        w[22..30].copy_from_slice(&self.dst_phys.to_le_bytes());
        w[30..34].copy_from_slice(&self.dst_capacity.to_le_bytes());
        w[34..36].copy_from_slice(&self.target_w.to_le_bytes());
        w[36..38].copy_from_slice(&self.target_h.to_le_bytes());
        // Bytes 38..62 reserved; 62..64 = checksum over the payload.
        let sum = checksum(&w[..62]);
        w[62..64].copy_from_slice(&sum.to_le_bytes());
        w
    }

    /// Parses the wire layout (what the device-side parser does).
    pub fn unpack(w: &[u8; CMD_WIRE_BYTES]) -> Result<Self, FpgaError> {
        let sum = u16::from_le_bytes([w[62], w[63]]);
        if sum != checksum(&w[..62]) {
            return Err(FpgaError::BadCmd {
                detail: "cmd checksum mismatch".into(),
            });
        }
        let cmd_id = u64::from_le_bytes(w[0..8].try_into().unwrap());
        let src_addr = u64::from_le_bytes(w[10..18].try_into().unwrap());
        let src_len = u32::from_le_bytes(w[18..22].try_into().unwrap());
        let src = match w[8] {
            0 => DataRef::Disk {
                offset: src_addr,
                len: src_len,
            },
            1 => DataRef::HostMem {
                phys_addr: src_addr,
                len: src_len,
            },
            k => {
                return Err(FpgaError::BadCmd {
                    detail: format!("unknown source kind {k}"),
                })
            }
        };
        let format = match w[9] {
            0 => OutputFormat::Rgb8,
            1 => OutputFormat::Gray8,
            k => {
                return Err(FpgaError::BadCmd {
                    detail: format!("unknown output format {k}"),
                })
            }
        };
        let cmd = DecodeCmd {
            cmd_id,
            src,
            dst_phys: u64::from_le_bytes(w[22..30].try_into().unwrap()),
            dst_capacity: u32::from_le_bytes(w[30..34].try_into().unwrap()),
            target_w: u16::from_le_bytes(w[34..36].try_into().unwrap()),
            target_h: u16::from_le_bytes(w[36..38].try_into().unwrap()),
            format,
        };
        cmd.validate()?;
        Ok(cmd)
    }
}

fn checksum(bytes: &[u8]) -> u16 {
    // CRC-16/CCITT-FALSE: detects any single-byte corruption, which the
    // weaker additive checksums (Fletcher mod 255) miss for 0x00↔0xFF flips.
    let mut crc: u16 = 0xFFFF;
    for &x in bytes {
        crc ^= (x as u16) << 8;
        for _ in 0..8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// Per-item completion status carried by a FINISH signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemStatus {
    /// Decoded and written back.
    Ok {
        /// Bytes written at `dst_phys`.
        bytes_written: u32,
        /// Output width.
        width: u16,
        /// Output height.
        height: u16,
    },
    /// The compressed payload was invalid.
    DecodeError {
        /// Human-readable cause.
        detail: String,
    },
    /// The source could not be fetched.
    FetchError {
        /// Human-readable cause.
        detail: String,
    },
}

impl ItemStatus {
    /// True on success.
    pub fn is_ok(&self) -> bool {
        matches!(self, ItemStatus::Ok { .. })
    }
}

/// The FINISH signal raised by the device's arbiter for one cmd.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishSignal {
    /// Echoes [`DecodeCmd::cmd_id`].
    pub cmd_id: u64,
    /// Outcome.
    pub status: ItemStatus,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cmd() -> DecodeCmd {
        DecodeCmd {
            cmd_id: 0xDEAD_BEEF_1234,
            src: DataRef::Disk {
                offset: 1 << 30,
                len: 100_000,
            },
            dst_phys: 0x4_0000_1000,
            dst_capacity: 224 * 224 * 3,
            target_w: 224,
            target_h: 224,
            format: OutputFormat::Rgb8,
        }
    }

    #[test]
    fn pack_unpack_roundtrip_disk() {
        let cmd = sample_cmd();
        let wire = cmd.pack();
        assert_eq!(DecodeCmd::unpack(&wire).unwrap(), cmd);
    }

    #[test]
    fn pack_unpack_roundtrip_hostmem_gray() {
        let cmd = DecodeCmd {
            cmd_id: 7,
            src: DataRef::HostMem {
                phys_addr: 0x8000_0000,
                len: 784,
            },
            dst_phys: 0x4_0000_0000,
            dst_capacity: 28 * 28,
            target_w: 28,
            target_h: 28,
            format: OutputFormat::Gray8,
        };
        let wire = cmd.pack();
        assert_eq!(DecodeCmd::unpack(&wire).unwrap(), cmd);
    }

    #[test]
    fn corrupted_wire_rejected() {
        let mut wire = sample_cmd().pack();
        wire[15] ^= 0xFF;
        assert!(matches!(
            DecodeCmd::unpack(&wire),
            Err(FpgaError::BadCmd { .. })
        ));
    }

    #[test]
    fn validation_rules() {
        let mut cmd = sample_cmd();
        cmd.dst_capacity = 10; // too small for 224x224x3
        assert!(cmd.validate().is_ok(), "kernel-agnostic check passes");
        assert!(cmd.validate_image_output().is_err(), "image check fails");

        let mut cmd = sample_cmd();
        cmd.target_h = 0; // mismatched zeroing — image kernels reject it,
                          // audio kernels reinterpret it.
        assert!(cmd.validate_image_output().is_err());
        assert!(cmd.validate().is_ok());

        let mut cmd = sample_cmd();
        cmd.src = DataRef::Disk { offset: 0, len: 0 };
        assert!(cmd.validate().is_err());

        // Keep-source-size cmd is fine for image kernels.
        let mut cmd = sample_cmd();
        cmd.target_w = 0;
        cmd.target_h = 0;
        assert!(cmd.validate().is_ok());
        assert!(cmd.validate_image_output().is_ok());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut wire = sample_cmd().pack();
        wire[8] = 9;
        // Fix the checksum so only the kind is bad.
        let sum = super::checksum(&wire[..62]);
        wire[62..64].copy_from_slice(&sum.to_le_bytes());
        let err = DecodeCmd::unpack(&wire).unwrap_err();
        assert!(matches!(err, FpgaError::BadCmd { .. }));
    }

    #[test]
    fn item_status_predicates() {
        assert!(ItemStatus::Ok {
            bytes_written: 1,
            width: 1,
            height: 1
        }
        .is_ok());
        assert!(!ItemStatus::DecodeError { detail: "x".into() }.is_ok());
    }

    #[test]
    fn dataref_len() {
        assert_eq!(DataRef::Disk { offset: 0, len: 9 }.len(), 9);
        assert!(!DataRef::HostMem {
            phys_addr: 0,
            len: 1
        }
        .is_empty());
    }
}
