//! `FPGAChannel` — the cmd/completion abstraction of Table 1.
//!
//! "FPGAChannel is set up to serve as an abstraction interacting with the
//! FPGA decoder. Each FPGAChannel is bound to one FPGA decoder and works
//! independently." (§3.4.1) The channel exposes exactly the Table-1 verbs:
//! `submit_cmd` (push a batch of packed cmds and launch decoding) and
//! `drain_out` (poll completed batches with best effort, never blocking the
//! reader loop).

use dlb_fpga::{CompletedBatch, DecoderEngine, FpgaError, Submission};
use dlb_telemetry::{names, Counter, Gauge, Telemetry};
use std::sync::Arc;

/// A host-side handle to one FPGA decoder engine.
pub struct FpgaChannel {
    engine: DecoderEngine,
    queue_id: u32,
    submitted: Arc<Counter>,
    drained: Arc<Counter>,
    inflight: Arc<Gauge>,
}

impl FpgaChannel {
    /// Binds a channel to a running decoder engine (`FPGAInit(Queue_ID)` of
    /// Algorithm 1) with a private telemetry registry.
    pub fn init(engine: DecoderEngine, queue_id: u32) -> Self {
        Self::init_with_telemetry(engine, queue_id, &Telemetry::with_defaults())
    }

    /// Like [`FpgaChannel::init`], but recording `channel.*` metrics into
    /// the shared pipeline `telemetry`.
    pub fn init_with_telemetry(
        engine: DecoderEngine,
        queue_id: u32,
        telemetry: &Telemetry,
    ) -> Self {
        Self {
            engine,
            queue_id,
            submitted: telemetry.registry.counter(names::CHANNEL_CMDS_SUBMITTED),
            drained: telemetry.registry.counter(names::CHANNEL_CMDS_DRAINED),
            inflight: telemetry.registry.gauge(names::CHANNEL_INFLIGHT),
        }
    }

    /// Queue identifier.
    pub fn queue_id(&self) -> u32 {
        self.queue_id
    }

    /// Table 1 `submit_cmd`: pushes a batch submission into the decoder's
    /// FIFO and opportunistically returns any batches that already finished
    /// (Algorithm 1 line 12 returns `mem_carriers`).
    pub fn submit_cmd(&self, submission: Submission) -> Result<Vec<CompletedBatch>, FpgaError> {
        self.engine.submit(submission)?;
        self.submitted.inc();
        self.inflight.inc();
        Ok(self.drain_out())
    }

    /// Table 1 `drain_out`: non-blocking poll of every finished batch.
    pub fn drain_out(&self) -> Vec<CompletedBatch> {
        let out = self.engine.completions().drain();
        self.drained.add(out.len() as u64);
        self.inflight.add(-(out.len() as i64));
        out
    }

    /// Blocking wait for one completed batch (used at pipeline drain time).
    pub(crate) fn wait_one(&self) -> Option<CompletedBatch> {
        match self.engine.completions().pop() {
            Ok(b) => {
                self.drained.inc();
                self.inflight.dec();
                Some(b)
            }
            Err(_) => None,
        }
    }

    /// Like [`FpgaChannel::wait_one`], but gives up after `timeout`.
    /// `Ok(None)` means the wait timed out with the engine still alive —
    /// the reader's cue to consider a cmd wedged and resubmit it.
    pub(crate) fn wait_one_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Result<Option<CompletedBatch>, dlb_membridge::QueueClosed> {
        match self.engine.completions().pop_timeout(timeout)? {
            Some(b) => {
                self.drained.inc();
                self.inflight.dec();
                Ok(Some(b))
            }
            None => Ok(None),
        }
    }

    /// Batches submitted but not yet drained.
    pub(crate) fn in_flight(&self) -> u64 {
        self.inflight.get().max(0) as u64
    }

    /// Table 1 `recycle` (Algorithm 1 line 19): shuts the channel down and
    /// returns the device.
    pub fn recycle(self) -> dlb_fpga::FpgaDevice {
        self.engine.shutdown()
    }
}

impl std::fmt::Debug for FpgaChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FpgaChannel")
            .field("queue_id", &self.queue_id)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_codec::synth::{generate, SynthStyle};
    use dlb_codec::JpegEncoder;
    use dlb_fpga::{DecodeCmd, DecoderMirror, DeviceSpec, FpgaDevice, MapResolver, OutputFormat};
    use dlb_membridge::{MemManager, PoolConfig};
    use std::sync::Arc;

    fn setup() -> (FpgaChannel, Arc<MapResolver>, MemManager) {
        let mut dev = FpgaDevice::new(DeviceSpec::arria10_ax());
        dev.load_mirror(DecoderMirror::jpeg_paper_config()).unwrap();
        let resolver = Arc::new(MapResolver::new());
        let engine = DecoderEngine::start(dev, resolver.clone()).unwrap();
        let pool = MemManager::new(PoolConfig {
            unit_size: 1 << 20,
            unit_count: 4,
            phys_base: 0x4_0000_0000,
        })
        .unwrap();
        (FpgaChannel::init(engine, 0), resolver, pool)
    }

    fn submission(resolver: &MapResolver, pool: &MemManager, key: u64) -> Submission {
        let img = generate(40, 30, SynthStyle::Photo, key);
        let bytes = JpegEncoder::new(85).unwrap().encode(&img).unwrap();
        let src = resolver.put_disk(key * 1_000_000, bytes);
        let mut unit = pool.get_item().unwrap();
        let off = unit.reserve(16 * 16 * 3, key, 16, 16, 3).unwrap();
        let cmd = DecodeCmd {
            cmd_id: key,
            src,
            dst_phys: unit.phys_addr() + off as u64,
            dst_capacity: 16 * 16 * 3,
            target_w: 16,
            target_h: 16,
            format: OutputFormat::Rgb8,
        };
        Submission {
            unit,
            cmds: vec![cmd.pack()],
        }
    }

    #[test]
    fn submit_and_drain_roundtrip() {
        let (chan, resolver, pool) = setup();
        assert_eq!(chan.queue_id(), 0);
        let mut got = chan.submit_cmd(submission(&resolver, &pool, 1)).unwrap();
        // The batch may or may not have completed by the time submit
        // returned; drain until it shows up.
        while got.is_empty() {
            got = chan.drain_out();
            std::thread::yield_now();
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ok_count(), 1);
        assert_eq!(chan.in_flight(), 0);
        pool.recycle_item(got.pop().unwrap().unit).unwrap();
        let device = chan.recycle();
        assert!(device.mirror().is_some());
    }

    #[test]
    fn wait_one_blocks_until_completion() {
        let (chan, resolver, pool) = setup();
        // submit_cmd opportunistically drains: completions may come back
        // from either call and must be counted, or a fast engine makes
        // wait_one block forever.
        let mut seen = chan
            .submit_cmd(submission(&resolver, &pool, 2))
            .unwrap()
            .len();
        seen += chan
            .submit_cmd(submission(&resolver, &pool, 3))
            .unwrap()
            .len();
        while seen < 2 {
            match chan.wait_one() {
                Some(_) => seen += 1,
                None => panic!("completion queue closed with {seen}/2 seen"),
            }
        }
        assert_eq!(chan.in_flight(), 0);
    }
}
