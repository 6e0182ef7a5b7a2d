//! The FPGA device: a resource budget plus mirror load/unload management.

use crate::error::FpgaError;
use crate::mirror::DecoderMirror;

/// Programmable-logic resources (the currencies a mirror spends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceBudget {
    /// Adaptive logic modules.
    pub alms: u64,
    /// DSP blocks.
    pub dsps: u64,
    /// Block RAM in kilobits.
    pub bram_kbits: u64,
}

impl ResourceBudget {
    /// True if `self` can host `need`.
    pub fn fits(&self, need: &ResourceBudget) -> Result<(), FpgaError> {
        if need.alms > self.alms {
            return Err(FpgaError::InsufficientResources {
                resource: "ALM",
                requested: need.alms,
                available: self.alms,
            });
        }
        if need.dsps > self.dsps {
            return Err(FpgaError::InsufficientResources {
                resource: "DSP",
                requested: need.dsps,
                available: self.dsps,
            });
        }
        if need.bram_kbits > self.bram_kbits {
            return Err(FpgaError::InsufficientResources {
                resource: "BRAM",
                requested: need.bram_kbits,
                available: self.bram_kbits,
            });
        }
        Ok(())
    }

    /// Utilisation fractions (alm, dsp, bram) of `need` against `self`.
    pub(crate) fn utilisation(&self, need: &ResourceBudget) -> (f64, f64, f64) {
        let frac = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        (
            frac(need.alms, self.alms),
            frac(need.dsps, self.dsps),
            frac(need.bram_kbits, self.bram_kbits),
        )
    }
}

/// Static description of an FPGA part.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: String,
    /// Total resources.
    pub budget: ResourceBudget,
    /// Nominal fabric clock in MHz (drives the timing model).
    pub fabric_mhz: u32,
    /// PCIe link bandwidth to the host, bytes/second.
    pub pcie_bytes_per_sec: f64,
    /// Board power draw in watts (economics model; paper cites ≈25 W).
    pub power_watts: f64,
}

impl DeviceSpec {
    /// The paper's testbed part: Intel Arria-10 AX.
    pub fn arria10_ax() -> Self {
        Self {
            name: "Intel Arria 10 AX".into(),
            budget: ResourceBudget {
                alms: 427_200,
                dsps: 1_518,
                bram_kbits: 55_562,
            },
            fabric_mhz: 300,
            // Gen3 x8 effective ≈ 7.0 GB/s.
            pcie_bytes_per_sec: 7.0e9,
            power_watts: 25.0,
        }
    }

    /// A deliberately small part, for resource-rejection tests.
    #[cfg(test)]
    fn tiny() -> Self {
        Self {
            name: "tiny-test-fpga".into(),
            budget: ResourceBudget {
                alms: 50_000,
                dsps: 100,
                bram_kbits: 4_000,
            },
            fabric_mhz: 200,
            pcie_bytes_per_sec: 2.0e9,
            power_watts: 10.0,
        }
    }
}

/// A device with at most one loaded mirror.
#[derive(Debug)]
pub struct FpgaDevice {
    spec: DeviceSpec,
    loaded: Option<DecoderMirror>,
}

impl FpgaDevice {
    /// A fresh device with nothing loaded.
    pub fn new(spec: DeviceSpec) -> Self {
        Self { spec, loaded: None }
    }

    /// Currently loaded mirror, if any.
    pub fn mirror(&self) -> Option<&DecoderMirror> {
        self.loaded.as_ref()
    }

    /// Loads (downloads) a mirror, checking the resource budget — the
    /// pluggable-decoder flow of paper §3.1/§4.1.
    pub fn load_mirror(&mut self, mirror: DecoderMirror) -> Result<(), FpgaError> {
        if self.loaded.is_some() {
            return Err(FpgaError::DeviceBusy);
        }
        self.spec.budget.fits(&mirror.resources)?;
        self.loaded = Some(mirror);
        Ok(())
    }

    /// Unloads the current mirror (reconfiguration between workflows).
    pub fn unload_mirror(&mut self) -> Option<DecoderMirror> {
        self.loaded.take()
    }

    /// Fabric utilisation of the loaded mirror.
    pub fn utilisation(&self) -> Option<(f64, f64, f64)> {
        self.loaded
            .as_ref()
            .map(|m| self.spec.budget.utilisation(&m.resources))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mirror_fits_arria10() {
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let (alm, dsp, bram) = dev.utilisation().unwrap();
        assert!(alm > 0.1 && alm < 1.0, "ALM utilisation {alm}");
        assert!(dsp > 0.1 && dsp < 1.0, "DSP utilisation {dsp}");
        assert!(bram > 0.0 && bram < 1.0, "BRAM utilisation {bram}");
    }

    #[test]
    fn oversized_mirror_rejected() {
        // A 16-way everything decoder cannot fit: this is exactly why the
        // paper offloads *selectively* (§3.3).
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        let err = dev
            .load_mirror(DecoderMirror::jpeg_with_ways(16, 16))
            .unwrap_err();
        assert!(
            matches!(err, FpgaError::InsufficientResources { .. }),
            "{err}"
        );
        assert!(dev.mirror().is_none());
    }

    #[test]
    fn tiny_device_rejects_paper_mirror() {
        let mut dev = FpgaDevice::new(DeviceSpec::tiny());
        assert!(dev.load_mirror(DecoderMirror::jpeg_paper_config()).is_err());
        // But a 1-way mirror fits nowhere near — even 1-way exceeds tiny ALMs.
        let one_way = DecoderMirror::jpeg_with_ways(1, 1);
        assert!(dev.load_mirror(one_way).is_err());
    }

    #[test]
    fn reload_requires_unload() {
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        assert!(matches!(
            dev.load_mirror(DecoderMirror::audio_spectrogram()),
            Err(FpgaError::DeviceBusy)
        ));
        let old = dev.unload_mirror().unwrap();
        assert_eq!(old.huffman_ways, 4);
        dev.load_mirror(DecoderMirror::audio_spectrogram()).unwrap();
        assert_eq!(dev.mirror().unwrap().name, "audio-dct-spectrogram");
    }

    #[test]
    fn utilisation_fractions() {
        let budget = ResourceBudget {
            alms: 100,
            dsps: 10,
            bram_kbits: 1000,
        };
        let need = ResourceBudget {
            alms: 50,
            dsps: 5,
            bram_kbits: 100,
        };
        assert_eq!(budget.utilisation(&need), (0.5, 0.5, 0.1));
        assert!(budget.fits(&need).is_ok());
        assert!(budget.fits(&ResourceBudget { alms: 101, ..need }).is_err());
    }
}
