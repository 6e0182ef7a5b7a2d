//! Inference-client generators.
//!
//! Paper §5.3: "we set up 5 clients to send color images using a 40Gbps
//! fabric. The average image size is 500×375, and all images are stored in
//! JPEG format." [`ClientPool`] reproduces that offered load
//! deterministically: per-client exponential inter-arrival times and
//! synthetic JPEG payloads.

use crate::framing::Frame;
use dlb_codec::synth::{generate, SynthStyle};
use dlb_codec::{ChromaMode, JpegEncoder};
use dlb_simcore::{SimRng, SimTime};

/// A generated request: wire bytes plus ground-truth metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Unique id.
    pub request_id: u64,
    /// Originating client.
    pub client_id: u32,
    /// Virtual send time.
    pub send_time: SimTime,
    /// Encoded frame (header + JPEG payload).
    pub wire_bytes: Vec<u8>,
    /// Source image width.
    pub width: u32,
    /// Source image height.
    pub height: u32,
}

/// Deterministic pool of request-generating clients.
#[derive(Debug, Clone)]
pub struct ClientPool {
    /// Number of clients (paper: 5).
    pub clients: u32,
    /// Aggregate request rate across all clients, requests/second.
    pub aggregate_rate: f64,
    /// Image scale relative to 500×375 (shrink for fast functional tests).
    pub scale: f64,
    /// JPEG quality.
    pub quality: u8,
    /// Restart interval (intra-image FPGA parallelism).
    pub restart_interval: u16,
    /// Seed.
    pub seed: u64,
}

impl ClientPool {
    /// The paper's 5-client pool at the given aggregate rate.
    pub(crate) fn paper_config(aggregate_rate: f64, seed: u64) -> Self {
        Self {
            clients: 5,
            aggregate_rate,
            scale: 1.0,
            quality: 92,
            restart_interval: 8,
            seed,
        }
    }

    /// Small-image variant for functional tests.
    pub fn small(aggregate_rate: f64, seed: u64) -> Self {
        Self {
            scale: 0.15,
            ..Self::paper_config(aggregate_rate, seed)
        }
    }

    /// Generates the first `n` requests across all clients, merged in send
    /// order. Deterministic in the seed.
    pub fn generate_requests(&self, n: usize) -> Vec<Request> {
        assert!(self.clients >= 1 && self.aggregate_rate > 0.0);
        let per_client_rate = self.aggregate_rate / self.clients as f64;
        let mut root = SimRng::new(self.seed);
        // Per-client arrival processes.
        let mut streams: Vec<(u32, SimRng, SimTime)> = (0..self.clients)
            .map(|c| {
                let rng = root.fork(c as u64 + 1);
                (c, rng, SimTime::ZERO)
            })
            .collect();
        let mut requests = Vec::with_capacity(n);
        for rid in 0..n as u64 {
            // Advance the client with the earliest next arrival.
            let (idx, _) = streams
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, t))| *t)
                .expect("clients >= 1");
            let (client_id, rng, t) = &mut streams[idx];
            let send_time = *t;
            let gap = rng.exponential(1.0 / per_client_rate);
            *t += SimTime::from_secs_f64(gap);

            let (wire_bytes, w, h) = self.encode_request(rid, *client_id, send_time);
            requests.push(Request {
                request_id: rid,
                client_id: *client_id,
                send_time,
                wire_bytes,
                width: w,
                height: h,
            });
        }
        requests.sort_by_key(|r| (r.send_time, r.request_id));
        requests
    }

    fn encode_request(&self, rid: u64, client: u32, send_time: SimTime) -> (Vec<u8>, u32, u32) {
        let mut rng = SimRng::new(self.seed ^ rid.wrapping_mul(0x517C_C1B7_2722_0A95));
        let portrait = rng.uniform() < 0.3;
        let (bw, bh) = if portrait {
            (375.0, 500.0)
        } else {
            (500.0, 375.0)
        };
        let jitter = 0.85 + 0.3 * rng.uniform();
        let w = ((bw * self.scale * jitter) as u32).max(16);
        let h = ((bh * self.scale * jitter) as u32).max(16);
        let img = generate(w, h, SynthStyle::Photo, self.seed ^ (rid << 1) | 1);
        let payload = JpegEncoder::new(self.quality)
            .expect("valid quality")
            .with_mode(ChromaMode::Yuv420)
            .with_restart_interval(self.restart_interval)
            .encode(&img)
            .expect("encode");
        let frame = Frame {
            request_id: rid,
            client_id: client,
            send_ts_nanos: send_time.as_nanos(),
            payload,
        };
        (frame.encode(), w, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::Frame;

    #[test]
    fn generation_is_deterministic_and_ordered() {
        let pool = ClientPool::small(1000.0, 42);
        let a = pool.generate_requests(30);
        let b = pool.generate_requests(30);
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].send_time <= w[1].send_time);
        }
    }

    #[test]
    fn all_clients_participate() {
        let pool = ClientPool::small(2000.0, 7);
        let reqs = pool.generate_requests(100);
        let clients: std::collections::HashSet<u32> = reqs.iter().map(|r| r.client_id).collect();
        assert_eq!(clients.len(), 5, "clients seen: {clients:?}");
    }

    #[test]
    fn aggregate_rate_is_respected() {
        let rate = 5000.0;
        let pool = ClientPool::small(rate, 3);
        let reqs = pool.generate_requests(500);
        let span = reqs.last().unwrap().send_time.as_secs_f64();
        let observed = 500.0 / span;
        assert!(
            (observed / rate - 1.0).abs() < 0.25,
            "observed rate {observed:.0} vs {rate}"
        );
    }

    #[test]
    fn frames_decode_and_carry_jpeg() {
        let pool = ClientPool::small(1000.0, 9);
        let reqs = pool.generate_requests(5);
        for r in &reqs {
            let frame = Frame::decode(&r.wire_bytes).unwrap();
            assert_eq!(frame.request_id, r.request_id);
            // Payload must be decodable JPEG of the declared geometry.
            let img = dlb_codec::JpegDecoder::new()
                .decode(&frame.payload)
                .unwrap();
            assert_eq!(img.width(), r.width);
            assert_eq!(img.height(), r.height);
        }
    }

    #[test]
    #[should_panic]
    fn zero_rate_panics() {
        let mut pool = ClientPool::small(1000.0, 1);
        pool.aggregate_rate = 0.0;
        let _ = pool.generate_requests(1);
    }
}
